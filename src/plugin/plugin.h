// The XQIB plug-in (paper Section 5, Figure 1): the glue between the
// browser and the XQuery engine.
//
// Pipeline per page load:
//   1. the browser parses the XHTML document and renders (headless here),
//   2. the plug-in extracts <script> elements and inline on* handlers,
//   3. foreign-language scripts (JavaScript) run first — "this is the way
//      browsers do it because JavaScript is supported natively" (§4.1),
//   4. each XQuery script's prolog is compiled, globals are bound, and
//      the main body runs (registering event listeners),
//   5. the plug-in then loops: browser events are dispatched to the
//      registered XQuery listeners (and to JavaScript listeners on the
//      same targets, serialized in registration order, §6.2).
//
// The plug-in implements the BrowserBinding interface (the grammar
// extensions "on event …", "set style …") and provides the browser:
// function namespace of §4.2 (alert, top, self, screen, navigator,
// document, window/history functions, write).

#ifndef XQIB_PLUGIN_PLUGIN_H_
#define XQIB_PLUGIN_PLUGIN_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/counters.h"
#include "browser/bom.h"
#include "browser/events.h"
#include "browser/page.h"
#include "xml/interning.h"
#include "net/http.h"
#include "net/prefetch.h"
#include "net/webservice.h"
#include "xquery/analysis/analyzer.h"
#include "xquery/counters.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace xqib::plugin {

// Interface for a coexisting script engine (MiniJS implements this).
class ForeignScriptEngine {
 public:
  virtual ~ForeignScriptEngine() = default;
  virtual bool Handles(browser::ScriptLanguage language) const = 0;
  virtual Status RunScript(browser::Window* window,
                           const browser::Script& script) = 0;
  virtual Status RegisterInlineHandler(
      browser::Window* window, const browser::InlineHandler& handler) = 0;
};

class XqibPlugin : public xquery::BrowserBinding {
 public:
  // `fabric` and `services` are optional (REST / web-service support).
  XqibPlugin(browser::Browser* browser, net::HttpFabric* fabric,
             net::ServiceHost* services);
  ~XqibPlugin() override;

  // Wires this plug-in into browser->on_page_loaded.
  void Install();

  // Coexisting engine for text/javascript scripts (may be null).
  void set_foreign_engine(ForeignScriptEngine* engine) {
    foreign_engine_ = engine;
  }

  // Figure 1 steps 2-4 for a freshly loaded window.
  Status InitializePage(browser::Window* window);

  // Queues a user-interaction event on the loop and pumps it.
  Status FireEvent(xml::Node* target, browser::Event event);
  // Runs queued tasks (event dispatches, async completions) to idle.
  size_t PumpEvents();

  // --- user-visible channels ---
  const std::vector<std::string>& alerts() const { return alerts_; }
  void ClearAlerts() { alerts_.clear(); }
  // prompt()/confirm() responders (tests script them).
  std::function<std::string(const std::string&)> prompt_responder;
  std::function<bool(const std::string&)> confirm_responder;

  // Diagnostics for benchmarks: per-page-load phase timings.
  struct InitTiming {
    double extract_us = 0;
    double foreign_us = 0;
    double compile_us = 0;
    double bind_globals_us = 0;
    double run_main_us = 0;
    size_t xquery_scripts = 0;
    size_t listeners_registered = 0;
  };
  const InitTiming& last_init_timing() const { return last_init_timing_; }

  // Status of the last script error (pages must not crash the browser).
  const Status& last_script_error() const { return last_script_error_; }
  // Resets the sticky error channel; the page server clears it before
  // every dispatch so one bad event cannot poison later ones' reports.
  void ClearScriptError() { last_script_error_ = Status(); }

  // Static-analysis diagnostics from the last page load (all scripts,
  // warnings included). A page whose scripts carry error-severity
  // diagnostics is rejected at load time: InitializePage fails with the
  // first error, rendered exactly as xq_lint renders it.
  const std::vector<xquery::analysis::Diagnostic>& last_diagnostics() const {
    return last_diagnostics_;
  }

  // Ablation switch for benchmarks: with the memo disabled every
  // dispatch re-runs the listener even when the analyzer proved it
  // memoizable.
  void set_memo_enabled(bool enabled) { memo_enabled_ = enabled; }
  bool memo_enabled() const { return memo_enabled_; }

  // Serialized value of the most recent listener invocation (whether
  // evaluated or replayed from the memo cache). Tests compare replayed
  // dispatches against fresh ones through this channel.
  const std::string& last_listener_result() const {
    return last_listener_result_;
  }

  // The plug-in's cumulative dispatch counters (xquery/counters.h).
  // Every page evaluator counts straight into this one set; the plug-in
  // adds its memo and delta-skip counts and, for each listener
  // invocation, what the call moved in the sources no evaluator owns:
  // the page document's name index, the shared fabric, the page
  // prefetcher and the intern pool. Counted across all pages.
  const xquery::Counters& counters() const { return counters_; }

  // What the most recent listener invocation moved: the difference of
  // counters() across the call, whether it ran or replayed from the
  // memo. Benchmarks read it after every dispatch; the end-to-end one
  // (perfbench/) names the set by the EventStats alias.
  using EventStats = xquery::Counters;
  const xquery::Counters& last_event_stats() const {
    return last_event_stats_;
  }

  // Always 0: listeners run one at a time on the loop thread, so no run
  // falls back to serial re-execution (PERFORMANCE.md §5). Kept because
  // the end-to-end bench reports it.
  size_t parallel_fallbacks() const { return 0; }

  // What the pages keep beyond their own documents after their last
  // dispatch: the documents a root still reaches (a global holding a
  // constructed node, a pending `behind`, a listener on a constructed
  // node) and their nodes. Refreshed at every dispatch end; readable
  // from any thread (the page server's sessions report reads it).
  struct Retained {
    uint64_t documents = 0;
    uint64_t nodes = 0;
  };
  Retained retained() const {
    return Retained{retained_documents_.value(), retained_nodes_.value()};
  }

  // Applies `options` to every live page evaluator and to evaluators of
  // pages loaded later (benchmark ablations flip the fast paths off).
  void set_eval_options(const xquery::Evaluator::EvalOptions& options);
  const xquery::Evaluator::EvalOptions& eval_options() const {
    return eval_options_;
  }

  // --- BrowserBinding (grammar extensions §4.3-4.5) ---
  Status AttachListener(const std::string& event_name,
                        const xdm::Sequence& targets,
                        const xml::QName& listener,
                        xquery::DynamicContext& ctx) override;
  Status DetachListener(const std::string& event_name,
                        const xdm::Sequence& targets,
                        const xml::QName& listener,
                        xquery::DynamicContext& ctx) override;
  Status TriggerEvent(const std::string& event_name,
                      const xdm::Sequence& targets,
                      xquery::DynamicContext& ctx) override;
  Status AttachBehind(const std::string& event_name,
                      const xquery::Expr& call_expr,
                      const xml::QName& listener,
                      xquery::DynamicContext& ctx) override;
  Status SetStyle(const std::string& property, const xdm::Sequence& targets,
                  const std::string& value,
                  xquery::DynamicContext& ctx) override;
  Result<std::string> GetStyle(const std::string& property,
                               const xdm::Sequence& target,
                               xquery::DynamicContext& ctx) override;

  browser::Browser* browser() { return browser_; }

 private:
  // Everything the plug-in keeps per loaded page.
  struct PageContext {
    browser::Window* window = nullptr;
    std::vector<std::unique_ptr<xquery::Module>> modules;  // page scripts
    std::vector<std::unique_ptr<xquery::Module>> handler_modules;
    std::unique_ptr<xquery::StaticContext> sctx;
    std::unique_ptr<xquery::Evaluator> evaluator;
    std::unique_ptr<xquery::DynamicContext> ctx;
    // Trees materialized by browser:top()/self(). Those from
    // bom_current on belong to the current dispatch and are synced back
    // after its updates; earlier ones survived a dispatch end because a
    // root holds their nodes, and only resolve window nodes.
    std::vector<browser::Browser::BomTree> bom_trees;
    size_t bom_current = 0;
    // Values queued loop work captured (a `behind`'s eager arguments or
    // result, a `trigger`'s target), keyed by the task that takes them:
    // roots until that task is done with them.
    std::unordered_map<uint64_t, std::vector<xdm::Sequence>> held;
    uint64_t next_hold = 0;
    // What the effect analysis decided about each declared function,
    // filled once at page load and keyed on the interned name + arity,
    // so a dispatch finds its listener's record without building a
    // string or taking a lock.
    struct ListenerKey {
      const xml::InternedName* name = nullptr;
      size_t arity = 0;
      bool operator==(const ListenerKey& o) const {
        return name == o.name && arity == o.arity;
      }
    };
    struct ListenerKeyHash {
      size_t operator()(const ListenerKey& k) const {
        return std::hash<const void*>()(k.name) * 1315423911u + k.arity;
      }
    };
    struct ListenerRecord {
      // No update: a clean run (empty PUL) skips the apply pass.
      bool pure = false;
      // Pure, observes nothing on the host and reads nothing outside the
      // page: the memo may replay its result instead of re-running it.
      bool memoizable = false;
      // The analyzer named every read, so delta batches are intersected
      // with read_names; otherwise every batch dirties the listener.
      bool reads_named = false;
      std::vector<const xml::InternedName*> read_names;
      // Static GET URLs scattered before the body runs; empty when the
      // function may write the fabric.
      std::vector<std::string> prefetch_urls;
      // delta_seq of the last batch that touched read_names (loop thread
      // only; see the delta-skip state below).
      uint64_t dirty_seq = 0;
    };
    std::unordered_map<ListenerKey, ListenerRecord, ListenerKeyHash>
        listeners;
    // Effect summaries merged across all page scripts, shared with the
    // page evaluator's FLWOR scatter.
    std::shared_ptr<const xquery::analysis::AnalysisFacts> facts;

    // Scatter-gather federation (PERFORMANCE.md §10): the page-level
    // prefetcher http:get consults (listener dispatch and the main
    // body).
    std::unique_ptr<net::HttpPrefetcher> prefetcher;

    // Mutation-versioned memo cache for pure listeners. Keyed on the
    // interned listener name (pointer identity), arity, and a hash of
    // the full event payload (including target node identities). An
    // entry is fresh while the page document's mutation version matches;
    // after a mutation it survives only when the delta check proves no
    // batch since fill time touched the listener's reads (ProbeMemo).
    // Otherwise it is stale: discarded (counted as invalidation) on the
    // lookup that finds it.
    struct MemoKey {
      const xml::InternedName* name = nullptr;
      size_t arity = 0;
      uint64_t payload_hash = 0;
      bool operator==(const MemoKey& o) const {
        return name == o.name && arity == o.arity &&
               payload_hash == o.payload_hash;
      }
    };
    struct MemoKeyHash {
      size_t operator()(const MemoKey& k) const {
        size_t h = std::hash<const void*>()(k.name);
        h = h * 1315423911u + k.arity;
        h = h * 1315423911u + static_cast<size_t>(k.payload_hash);
        return h;
      }
    };
    struct MemoEntry {
      uint64_t doc_version = 0;
      std::string serialized;  // SequenceToString of the listener result
      // Delta-skip validity (PERFORMANCE.md §8): the page's delta_seq at
      // fill time. The entry is exact iff the listener was not dirtied
      // by any delta batch after this sequence number. 0 = the listener's
      // read set was not fully named (⊤ reads) — never delta-skipped.
      uint64_t delta_fill_seq = 0;
    };
    // Guarded by memo_mu. Probes, inserts and invalidations all run on
    // the session strand, so the lock is never contended.
    std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> memo_cache;
    mutable std::shared_mutex memo_mu;

    // --- Delta-skip dispatch state (PERFORMANCE.md §8) ----------------
    // Batches of document mutations are drained from the Document's
    // dispatch delta window at every sync point (PropagateDelta); each
    // non-empty batch bumps delta_seq and marks every listener whose
    // read names intersect the batch's write names dirty at that
    // sequence (ListenerRecord::dirty_seq). A memo entry filled at
    // delta_fill_seq is provably exact while max(all_dirty_seq,
    // record.dirty_seq) <= delta_fill_seq AND delta_synced_version still
    // matches the document — the second check catches mutations that
    // happened after the last sync point (the skip path then disables
    // itself and the entry re-evaluates). Loop thread only.
    uint64_t delta_seq = 1;
    uint64_t all_dirty_seq = 0;  // ⊤ batch: every listener dirty
    uint64_t delta_synced_version = 0;
  };

  std::shared_ptr<PageContext> FindPageShared(const browser::Window* window);
  // Forgets the window's page context. Listeners registered on nodes of
  // the context's own documents go first: those documents die with it.
  void DropPage(const browser::Window* window);
  PageContext* FindPage(const browser::Window* window);
  PageContext* FindPageByContext(const xquery::DynamicContext& ctx);
  PageContext* FindPageByDocument(const xml::Document* doc);

  void RegisterBrowserFunctions(PageContext* page);
  // Installs an already-parsed (and analyzed) script module: optimizes
  // it (using the analyzer's `facts` when given), adds its declarations
  // to the static context, binds globals, runs the body.
  Status RunXQueryModule(PageContext* page,
                         std::unique_ptr<xquery::Module> module,
                         const xquery::analysis::AnalysisFacts* facts);
  Status RegisterXQueryInlineHandler(PageContext* page,
                                     const browser::InlineHandler& handler);

  // Calls an XQuery listener function with ($evt, $obj), applying the
  // PUL and syncing the BOM afterwards. InvokeListener records what the
  // call moved as last_event_stats_; RunListener does the call.
  void InvokeListener(PageContext* page, const xml::QName& function,
                      const browser::Event& event);
  void RunListener(PageContext* page, const xml::QName& function,
                   const browser::Event& event);
  // Running totals of the counters a listener call moves in sources the
  // page evaluator does not own (the page document's name index, the
  // shared fabric, the page prefetcher, the intern pool), laid over the
  // fields they feed: the difference of two readings is what moved.
  xquery::Counters ReadOutsideSources(const PageContext& page) const;
  Status ApplyAfterRun(PageContext* page);
  // Ends a top-level dispatch: the page-load body (globals and main
  // body, or local:main()), a listener call, an inline handler or a
  // `behind` completion. Runs after the PUL apply: discards what is left
  // in the PUL (a failed dispatch's updates never apply later), reclaims
  // the dispatch arena, retires the dispatch's BOM trees, and destroys
  // every document of the page context no root reaches. Dispatches of
  // one page never nest (the same assumption the arena reset makes).
  void EndDispatch(PageContext* page);
  // Publishes the pages' retained documents and nodes (retained()).
  void PublishRetained();

  // Drains the page document's dispatch delta window and folds it into
  // the page's dirty-listener state (delta_seq/dirty_seq). Called at
  // every dispatch sync point on the loop thread.
  void PropagateDelta(PageContext* page);
  // The memo probe: kFresh when `entry` was filled at `doc_version`,
  // kDeltaSkip when the document moved but no delta batch since fill
  // time can have dirtied the listener (the skip-dispatch check),
  // kStale otherwise. Read-only; the caller handles a stale entry.
  enum class MemoValidity { kFresh, kDeltaSkip, kStale };
  static MemoValidity ProbeMemo(const PageContext* page,
                                const PageContext::ListenerRecord& listener,
                                const PageContext::MemoEntry& entry,
                                uint64_t doc_version);

  // Builds the <event> element passed as $evt (paper §4.3.2) in `ctx`'s
  // scratch document.
  xml::Node* MaterializeEvent(xquery::DynamicContext* ctx,
                              const browser::Event& event);

  static std::string ListenerId(const xml::QName& fn) {
    return "xquery:" + fn.Clark();
  }

  browser::Browser* browser_;
  net::HttpFabric* fabric_;
  net::ServiceHost* services_;
  ForeignScriptEngine* foreign_engine_ = nullptr;
  std::unordered_map<const browser::Window*, std::shared_ptr<PageContext>>
      pages_;
  std::vector<std::string> alerts_;
  InitTiming last_init_timing_;
  Status last_script_error_;
  std::vector<xquery::analysis::Diagnostic> last_diagnostics_;
  bool memo_enabled_ = true;
  std::string last_listener_result_;
  xquery::Counters counters_;
  xquery::Counters last_event_stats_;
  xquery::Evaluator::EvalOptions eval_options_;
  base::RelaxedCounter retained_documents_;
  base::RelaxedCounter retained_nodes_;
};

}  // namespace xqib::plugin

#endif  // XQIB_PLUGIN_PLUGIN_H_
