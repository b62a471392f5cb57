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
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
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
#include "xquery/evaluator.h"
#include "xquery/federation.h"
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

  // Number of listener invocations whose post-run apply/re-render pass
  // was skipped because the analyzer proved the listener DOM-pure.
  size_t pure_listener_skips() const { return pure_listener_skips_; }

  // Memo cache over pure listeners: dispatches answered from cache
  // without re-running the listener body (delta skips included), cache
  // misses (first sight of a (listener, payload) pair), and stale
  // entries discarded because the document mutated since they were
  // recorded and the delta check could not prove them exact.
  struct MemoStats {
    base::RelaxedCounter hits;
    base::RelaxedCounter misses;
    base::RelaxedCounter invalidations;
  };
  const MemoStats& memo_stats() const { return memo_stats_; }

  // Ablation switch for benchmarks: with the memo disabled every
  // dispatch re-runs the listener even when the analyzer proved it
  // memoizable.
  void set_memo_enabled(bool enabled) { memo_enabled_ = enabled; }
  bool memo_enabled() const { return memo_enabled_; }

  // Delta propagation (PERFORMANCE.md §8): structured PUL deltas drive
  // the index splice inside the Document; here they drive skip-dispatch
  // — a memoized listener whose static read names miss every name the
  // delta wrote replays its cached result without re-running. Counted
  // across all pages.
  struct DeltaStats {
    base::RelaxedCounter emitted;            // structured PUL deltas
    base::RelaxedCounter listeners_skipped;  // replays via delta check
  };
  const DeltaStats& delta_stats() const { return delta_stats_; }

  // Serialized value of the most recent listener invocation (whether
  // evaluated or replayed from the memo cache). Tests compare replayed
  // dispatches against fresh ones through this channel.
  const std::string& last_listener_result() const {
    return last_listener_result_;
  }

  // Path fast-path work done by the most recent listener invocation
  // (delta of the page evaluator's counters across the call). Benchmarks
  // assert the per-event dispatch actually hit the fast paths.
  struct EventStats {
    base::RelaxedCounter sorts_elided;
    base::RelaxedCounter sorts_performed;
    base::RelaxedCounter name_index_hits;
    base::RelaxedCounter early_exits;
    base::RelaxedCounter count_index_hits;
    // Streaming-pipeline deltas for the dispatch.
    base::RelaxedCounter items_pulled;
    base::RelaxedCounter items_materialized;
    base::RelaxedCounter buffers_avoided;
    // Memory-layer deltas for the dispatch: arena bytes/resets from the
    // evaluator that ran the listener, intern-pool hits across the call,
    // and memo cache traffic. The intern pool is process-wide, so
    // another session's hits can land in this dispatch's window —
    // totals remain accurate.
    base::RelaxedCounter arena_bytes_used;
    base::RelaxedCounter arena_resets;
    base::RelaxedCounter intern_hits;
    base::RelaxedCounter memo_hits;
    base::RelaxedCounter memo_misses;
    base::RelaxedCounter memo_invalidations;
    // Compiled-plan deltas for the dispatch: calls executed through a
    // register plan, compiled_plans-on calls that tree-walked instead,
    // and compilation work (zero on every warm dispatch — a memo hit
    // never even consults the plan layer).
    base::RelaxedCounter plan_hits;
    base::RelaxedCounter plan_misses;
    base::RelaxedCounter plan_compiles;
    base::RelaxedCounter plan_invalidations;
    // Delta-propagation work for the dispatch: structured PUL deltas
    // emitted by the apply pass, index splices / avoided rebuilds the
    // listener's own lookups triggered, and whether this dispatch was
    // answered by the delta skip check.
    base::RelaxedCounter delta_emitted;
    base::RelaxedCounter delta_index_splices;
    base::RelaxedCounter delta_bucket_rebuilds_avoided;
    base::RelaxedCounter delta_listeners_skipped;
    // Async-federation deltas for the dispatch: fabric round trips the
    // listener issued, response-cache traffic, scatter-gather prefetches
    // (issued before the body ran / consumed by http:get inside it), and
    // the virtual-time cost split — makespan (wall-clock charged) vs
    // latency overlapped away by in-flight concurrency.
    base::RelaxedCounter http_requests;
    base::RelaxedCounter http_cache_hits;
    base::RelaxedCounter http_cache_misses;
    base::RelaxedCounter http_prefetch_issued;
    base::RelaxedCounter http_prefetch_hits;
    base::RelaxedDouble http_makespan_ms;
    base::RelaxedDouble http_overlapped_ms;
  };
  const EventStats& last_event_stats() const { return last_event_stats_; }

  // Always 0: listeners run one at a time on the loop thread, so no run
  // falls back to serial re-execution (PERFORMANCE.md §5). Kept because
  // the end-to-end bench reports it.
  size_t parallel_fallbacks() const { return 0; }

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
    std::vector<browser::Browser::BomTree> bom_trees;
    // Declared functions ("Clark#arity") the analyzer proved DOM-pure;
    // listener calls resolving to one of these skip the apply pass.
    std::unordered_set<std::string> pure_functions;
    // The memoizable subset: pure AND free of observable host calls
    // (alert/prompt/confirm, fn:trace). Only these may be replayed from
    // the memo cache instead of re-evaluated. Keyed on the interned
    // name + arity so the per-dispatch eligibility check allocates
    // nothing (no Clark-string rebuild on the memo-hit fast path).
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
    std::unordered_set<ListenerKey, ListenerKeyHash> memoizable_functions;
    // The parallel-safe superset: pure AND free of *interactive* host
    // calls (prompt/confirm block on the user; alert and fn:trace only
    // emit, so a worker slot buffers their output and the commit
    // replays it). A `behind` call to one of these completes as an
    // off-thread unit (AttachBehind).
    std::unordered_set<ListenerKey, ListenerKeyHash> parallel_safe_functions;
    // Listeners whose read set the analyzer fully named: the names
    // PropagateDelta intersects each delta batch's write names with.
    std::unordered_map<ListenerKey, std::vector<const xml::InternedName*>,
                       ListenerKeyHash>
        listener_read_names;
    // Analyzer facts merged across all page scripts, shared with the
    // page evaluator and every worker-slot evaluator so compiled-plan
    // specialization sees one facts object (cardinality entries key on
    // AST nodes owned by `modules`).
    std::shared_ptr<const xquery::analysis::AnalysisFacts> facts;

    // Scatter-gather federation (PERFORMANCE.md §10): the page-level
    // prefetcher http:get consults (listener dispatch and the main
    // body), and per-listener static fetch plans cached by declaration,
    // computed lazily. Every access runs on the session strand, so
    // fetch_plans_mu is never contended.
    std::unique_ptr<net::HttpPrefetcher> prefetcher;
    std::unordered_map<const void*,
                       std::shared_ptr<const xquery::federation::
                                           StaticFetchPlan>>
        listener_fetch_plans;
    std::mutex fetch_plans_mu;

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
    // sequence. A memo entry filled at delta_fill_seq is provably exact
    // while max(all_dirty_seq, dirty_seq[listener]) <= delta_fill_seq
    // AND delta_synced_version still matches the document — the second
    // check catches mutations that happened after the last sync point
    // (the skip path then disables itself and the entry re-evaluates).
    // Loop thread only.
    uint64_t delta_seq = 1;
    uint64_t all_dirty_seq = 0;  // ⊤ batch: every listener dirty
    std::unordered_map<ListenerKey, uint64_t, ListenerKeyHash> dirty_seq;
    uint64_t delta_synced_version = 0;

    // One worker slot per off-thread `behind` work: a private
    // DynamicContext + Evaluator (own arena, own stats, own scratch
    // documents) that evaluates the call against the read-only DOM
    // snapshot, so the work's result and output stay apart from the
    // page context until its commit. Slots are pooled so steady-state
    // completions allocate nothing; the environment is re-copied from
    // the page context per work (globals may rebind between events).
    struct WorkerSlot {
      std::unique_ptr<xquery::DynamicContext> ctx;
      std::unique_ptr<xquery::Evaluator> evaluator;
      // Slot-private prefetcher: the work's scatters drain into its own
      // prefetcher, never into the page's.
      std::unique_ptr<net::HttpPrefetcher> prefetcher;
      std::vector<std::string> alerts;  // buffered browser:alert output
      std::vector<std::string> traces;  // buffered fn:trace output
    };
    // shared_ptr because the commit closure (a copyable std::function)
    // carries the slot from the work to the commit. Works and commits
    // run on the session strand, so slots_mu is never contended.
    std::vector<std::shared_ptr<WorkerSlot>> free_slots;
    std::mutex slots_mu;
  };

  std::shared_ptr<PageContext> FindPageShared(const browser::Window* window);
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
  // PUL and syncing the BOM afterwards.
  void InvokeListener(PageContext* page, const xml::QName& function,
                      const browser::Event& event);
  Status ApplyAfterRun(PageContext* page);

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
                                const PageContext::ListenerKey& key,
                                const PageContext::MemoEntry& entry,
                                uint64_t doc_version);

  // Worker-slot pool management (PageContext::free_slots): an
  // off-thread `behind` work acquires a slot and its commit releases it.
  std::shared_ptr<PageContext::WorkerSlot> AcquireWorkerSlot(
      PageContext* page);
  void ReleaseWorkerSlot(PageContext* page,
                         std::shared_ptr<PageContext::WorkerSlot> slot);

  // Scatter-gather prefetch (PERFORMANCE.md §10): resolves `function`'s
  // static fetch plan (cached per declaration) and, when the listener
  // body is provably fabric-read-only, issues every statically known GET
  // through the page prefetcher before the body runs — the fetches
  // overlap in the fabric's virtual-time window instead of serializing.
  void ScatterListenerPrefetch(PageContext* page, const xml::QName& function,
                               size_t arity);

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
  size_t pure_listener_skips_ = 0;
  bool memo_enabled_ = true;
  MemoStats memo_stats_;
  DeltaStats delta_stats_;
  std::string last_listener_result_;
  EventStats last_event_stats_;
  xquery::Evaluator::EvalOptions eval_options_;
};

}  // namespace xqib::plugin

#endif  // XQIB_PLUGIN_PLUGIN_H_
