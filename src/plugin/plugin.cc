#include "plugin/plugin.h"

#include <chrono>

#include "base/strings.h"
#include "browser/css.h"
#include "net/rest.h"
#include "xquery/analysis/effects.h"
#include "xquery/optimizer.h"
#include "xquery/update.h"

namespace xqib::plugin {

using browser::Browser;
using browser::Event;
using browser::InlineHandler;
using browser::LooksLikeXQueryHandler;
using browser::RewriteInlineHandler;
using browser::Script;
using browser::ScriptLanguage;
using browser::Window;
using xdm::Item;
using xdm::Sequence;
using xquery::DynamicContext;
using xquery::Expr;

namespace {

double NowMicros() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

xml::QName BrowserQName(const char* local) {
  return xml::QName(std::string(xml::kBrowserNamespace), "browser", local);
}

Result<xml::Node*> SingleNodeArg(const Sequence& seq, const char* what) {
  if (seq.size() != 1 || !seq[0].is_node()) {
    return Status::TypeError(std::string(what) +
                             " expects exactly one node argument");
  }
  return seq[0].node();
}

// Inverts AnalysisFacts::FunctionKey ("{ns}local#arity" or
// "local#arity") back into the interned name + arity, so listener
// records are found by token instead of by a rebuilt string.
const xml::InternedName* ParseFunctionKeyToken(const std::string& key,
                                               size_t* arity) {
  size_t hash = key.rfind('#');
  if (hash == std::string::npos) return nullptr;
  *arity = static_cast<size_t>(std::atoi(key.c_str() + hash + 1));
  std::string_view clark(key.data(), hash);
  std::string_view ns, local;
  if (!clark.empty() && clark.front() == '{') {
    size_t close = clark.find('}');
    if (close == std::string_view::npos) return nullptr;
    ns = clark.substr(1, close - 1);
    local = clark.substr(close + 1);
  } else {
    local = clark;
  }
  return xml::InternName(ns, local);
}

// FNV-1a over the complete event payload a listener can observe through
// $evt/$obj: every field MaterializeEvent serializes plus the identities
// of the target and current-target nodes. Two events with equal hashes
// and an unchanged document version are indistinguishable to a
// memoizable listener.
uint64_t HashEventPayload(const Event& event) {
  uint64_t h = 1469598103934665603ull;
  auto mix_bytes = [&h](const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_str = [&](const std::string& s) {
    mix_bytes(s.data(), s.size());
    h ^= 0xff;  // length/field separator
    h *= 1099511628211ull;
  };
  mix_str(event.type);
  unsigned char flags = (event.alt_key ? 1 : 0) | (event.ctrl_key ? 2 : 0) |
                        (event.shift_key ? 4 : 0);
  mix_bytes(&flags, 1);
  int button = event.button;
  mix_bytes(&button, sizeof(button));
  mix_str(event.value);
  int phase = static_cast<int>(event.phase);
  mix_bytes(&phase, sizeof(phase));
  const xml::Node* target = event.target;
  mix_bytes(&target, sizeof(target));
  const xml::Node* current = event.current_target;
  mix_bytes(&current, sizeof(current));
  return h;
}

}  // namespace

XqibPlugin::XqibPlugin(Browser* browser, net::HttpFabric* fabric,
                       net::ServiceHost* services)
    : browser_(browser), fabric_(fabric), services_(services) {
  confirm_responder = [](const std::string&) { return true; };
  prompt_responder = [](const std::string&) { return std::string(); };
}

XqibPlugin::~XqibPlugin() = default;

void XqibPlugin::Install() {
  browser_->on_page_loaded = [this](Window* window) {
    Status st = InitializePage(window);
    if (!st.ok()) last_script_error_ = st;
  };
  // Dropping the shared PageContext here makes queued async tasks
  // (behind-completions, triggers) no-ops via their weak_ptr.
  browser_->on_window_closed = [this](Window* window) {
    DropPage(window);
    PublishRetained();
  };
}

void XqibPlugin::DropPage(const Window* window) {
  auto it = pages_.find(window);
  if (it == pages_.end()) return;
  it->second->ctx->ForEachDocument([this](const xml::Document* doc) {
    browser_->events().ClearDocument(doc);
  });
  pages_.erase(it);
}

XqibPlugin::PageContext* XqibPlugin::FindPage(const Window* window) {
  auto it = pages_.find(window);
  return it == pages_.end() ? nullptr : it->second.get();
}

std::shared_ptr<XqibPlugin::PageContext> XqibPlugin::FindPageShared(
    const Window* window) {
  auto it = pages_.find(window);
  return it == pages_.end() ? nullptr : it->second;
}

XqibPlugin::PageContext* XqibPlugin::FindPageByContext(
    const DynamicContext& ctx) {
  for (auto& [window, page] : pages_) {
    if (page->ctx.get() == &ctx) return page.get();
  }
  return nullptr;
}

XqibPlugin::PageContext* XqibPlugin::FindPageByDocument(
    const xml::Document* doc) {
  for (auto& [window, page] : pages_) {
    if (page->window->document() == doc) return page.get();
  }
  return nullptr;
}

Status XqibPlugin::InitializePage(Window* window) {
  last_init_timing_ = InitTiming();
  auto page = std::make_shared<PageContext>();
  page->window = window;
  page->sctx = std::make_unique<xquery::StaticContext>();
  page->ctx = std::make_unique<DynamicContext>();
  page->ctx->browser_profile = true;  // fn:doc blocked (§4.2.1)
  page->ctx->browser_binding = this;
  DynamicContext::Focus focus;
  focus.item = Item::Node(window->document()->root());
  focus.position = 1;
  focus.size = 1;
  focus.has_item = true;
  page->ctx->set_focus(focus);
  RegisterBrowserFunctions(page.get());
  if (fabric_ != nullptr) {
    page->prefetcher = std::make_unique<net::HttpPrefetcher>(fabric_);
    page->ctx->prefetcher = page->prefetcher.get();
    net::RegisterRestFunctions(page->ctx.get(), fabric_,
                               page->prefetcher.get());
  }
  DropPage(window);
  pages_[window] = page;
  PublishRetained();
  // Page documents always track deltas: the name index splices off them
  // and dispatch skips memoized listeners the delta provably missed.
  window->document()->set_delta_tracking(true);

  // Step 2: extract scripts and inline handlers.
  double t0 = NowMicros();
  std::vector<Script> scripts = browser::ExtractScripts(window->document());
  std::vector<InlineHandler> handlers =
      browser::ExtractInlineHandlers(window->document());
  last_init_timing_.extract_us = NowMicros() - t0;

  // Step 3: foreign (JavaScript) scripts first, per §4.1.
  t0 = NowMicros();
  for (const Script& script : scripts) {
    if (script.language == ScriptLanguage::kXQuery ||
        script.language == ScriptLanguage::kXQueryP) {
      continue;
    }
    if (foreign_engine_ != nullptr &&
        foreign_engine_->Handles(script.language)) {
      XQ_RETURN_NOT_OK(foreign_engine_->RunScript(window, script));
    }
  }
  last_init_timing_.foreign_us = NowMicros() - t0;

  // Step 4a: parse ALL XQuery scripts before running any — the page's
  // scripts share one static context (a listener registered by script 1
  // may call a function declared by script 3), so analysis needs every
  // prolog up front.
  t0 = NowMicros();
  std::vector<std::unique_ptr<xquery::Module>> parsed;
  for (const Script& script : scripts) {
    if (script.language != ScriptLanguage::kXQuery &&
        script.language != ScriptLanguage::kXQueryP) {
      continue;
    }
    ++last_init_timing_.xquery_scripts;
    XQ_ASSIGN_OR_RETURN(std::unique_ptr<xquery::Module> module,
                        xquery::ParseModule(script.code));
    parsed.push_back(std::move(module));
  }

  // Step 4b: joint static analysis. A script with error-severity
  // diagnostics rejects the whole page at load time — a broken listener
  // should fail here, not at event-dispatch time in front of the user.
  last_diagnostics_.clear();
  Status analysis_failure;
  // Per-module facts are kept for the optimizer: its ordering/elision
  // and inferred rewrites key off analyzer cardinalities, and the
  // listener loop re-runs these ASTs on every event.
  std::vector<xquery::analysis::AnalysisFacts> module_facts(parsed.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    xquery::analysis::Analyzer analyzer;
    for (size_t j = 0; j < parsed.size(); ++j) {
      if (j != i) analyzer.AddContextModule(*parsed[j]);
    }
    xquery::analysis::AnalysisResult result = analyzer.Analyze(*parsed[i]);
    if (analysis_failure.ok() && result.has_errors()) {
      analysis_failure = result.ToStatus();
    }
    for (auto& d : result.diagnostics) {
      last_diagnostics_.push_back(std::move(d));
    }
    module_facts[i] = std::move(result.facts);
  }
  // Merge the per-module effect summaries into one shared object for
  // the FLWOR scatter: a page's scripts share a static context, so one
  // effect view covers them all.
  {
    auto merged = std::make_shared<xquery::analysis::AnalysisFacts>();
    for (const xquery::analysis::AnalysisFacts& mf : module_facts) {
      merged->function_effects.insert(mf.function_effects.begin(),
                                      mf.function_effects.end());
    }
    page->facts = std::move(merged);
  }
  // One record per declared function: the dispatch-time view of its
  // summary (every module's analysis covers every page function).
  for (const auto& [key, effects] : page->facts->function_effects) {
    size_t arity = 0;
    const xml::InternedName* token = ParseFunctionKeyToken(key, &arity);
    if (token == nullptr) continue;
    PageContext::ListenerRecord& record =
        page->listeners[PageContext::ListenerKey{token, arity}];
    record.pure = effects.pure();
    record.memoizable = effects.memoizable();
    record.reads_named = !effects.reads_top();
    if (record.reads_named) record.read_names = effects.ReadNames();
    if (!effects.writes_fabric) record.prefetch_urls = effects.fetch_urls;
  }
  last_init_timing_.compile_us += NowMicros() - t0;
  XQ_RETURN_NOT_OK(analysis_failure);

  // Step 4c: install each script (prolog, globals, main body) in order.
  for (size_t i = 0; i < parsed.size(); ++i) {
    XQ_RETURN_NOT_OK(RunXQueryModule(page.get(), std::move(parsed[i]),
                                     &module_facts[i]));
  }

  // The Zorba-based plug-in puts on-load code in local:main() (§5.1).
  xml::QName main_fn("http://www.w3.org/2005/xquery-local-functions",
                     "local", "main");
  if (page->sctx->FindFunction(main_fn, 0) != nullptr) {
    Result<Sequence> ran =
        page->evaluator->CallFunction(main_fn, {}, *page->ctx);
    if (page->evaluator->exited()) page->evaluator->TakeExitValue();
    Status st = ran.ok() ? ApplyAfterRun(page.get()) : ran.status();
    EndDispatch(page.get());
    XQ_RETURN_NOT_OK(st);
  }

  // Inline on* handlers route to whichever engine owns them.
  for (const InlineHandler& handler : handlers) {
    if (!page->modules.empty() && LooksLikeXQueryHandler(handler.code)) {
      XQ_RETURN_NOT_OK(RegisterXQueryInlineHandler(page.get(), handler));
    } else if (foreign_engine_ != nullptr) {
      XQ_RETURN_NOT_OK(
          foreign_engine_->RegisterInlineHandler(window, handler));
    }
  }
  last_init_timing_.listeners_registered = browser_->events().listener_count();
  // Settle any speculative GET the page load scattered but never
  // consumed (a FLWOR `where` can filter prefetched items out) — stale
  // responses must not leak into the first event dispatch.
  if (page->prefetcher != nullptr) page->prefetcher->Drain();
  return Status();
}

Status XqibPlugin::RunXQueryModule(PageContext* page,
                                   std::unique_ptr<xquery::Module> module,
                                   const xquery::analysis::AnalysisFacts* facts) {
  // Optimize before installing: page scripts are compiled once but their
  // listener bodies run on every event, so the rewrite passes (path
  // collapsing, ordering elision, constant folding) pay off at dispatch
  // time.
  xquery::OptimizeModule(module.get(), xquery::OptimizerOptions(), facts);
  page->sctx->AddModule(*module);
  // (Re)build the evaluator: the static context gained declarations.
  page->evaluator =
      std::make_unique<xquery::Evaluator>(*page->sctx, &counters_);
  page->evaluator->set_options(eval_options_);
  page->evaluator->set_analysis_facts(page->facts);
  if (services_ != nullptr) {
    services_->RegisterStubsForImports(*module, page->ctx.get());
  }

  // Bind this module's globals.
  double t0 = NowMicros();
  for (const xquery::VarDecl& decl : module->variables) {
    if (decl.init == nullptr) {
      if (!decl.external) page->ctx->env().Bind(decl.name, Sequence{});
      continue;
    }
    XQ_ASSIGN_OR_RETURN(Sequence value,
                        page->evaluator->Eval(*decl.init, *page->ctx));
    page->ctx->env().Bind(decl.name, std::move(value));
  }
  last_init_timing_.bind_globals_us += NowMicros() - t0;

  // Run the main body (registers listeners, builds the initial page).
  // The globals and the body are one dispatch.
  t0 = NowMicros();
  Status st;
  if (module->body != nullptr) {
    const Expr& body = *module->body;
    page->modules.push_back(std::move(module));
    Result<Sequence> ran = page->evaluator->Eval(body, *page->ctx);
    if (page->evaluator->exited()) page->evaluator->TakeExitValue();
    st = ran.ok() ? ApplyAfterRun(page) : ran.status();
  } else {
    page->modules.push_back(std::move(module));
  }
  EndDispatch(page);
  last_init_timing_.run_main_us += NowMicros() - t0;
  return st;
}

Status XqibPlugin::RegisterXQueryInlineHandler(PageContext* page,
                                               const InlineHandler& handler) {
  std::string rewritten = RewriteInlineHandler(handler.code);
  XQ_ASSIGN_OR_RETURN(std::unique_ptr<xquery::Module> module,
                      xquery::ParseModule(rewritten));
  // Inline handlers get the same load-time checking as script blocks:
  // an onclick calling an undeclared function is rejected here.
  xquery::analysis::Analyzer analyzer;
  for (const auto& m : page->modules) analyzer.AddContextModule(*m);
  xquery::analysis::AnalysisResult analyzed = analyzer.Analyze(*module);
  for (auto& d : analyzed.diagnostics) {
    last_diagnostics_.push_back(std::move(d));
  }
  XQ_RETURN_NOT_OK(analyzed.ToStatus());
  xquery::OptimizeModule(module.get(), xquery::OptimizerOptions(),
                         &analyzed.facts);
  const Expr* body = module->body.get();
  if (body == nullptr) return Status();
  page->handler_modules.push_back(std::move(module));

  std::weak_ptr<PageContext> weak = FindPageShared(page->window);
  std::string type = handler.event;
  browser::Listener listener;
  listener.id = "xquery-inline:" + type + ":" + handler.code;
  listener.callback = [this, weak, body](Event& event) {
    std::shared_ptr<PageContext> page = weak.lock();
    if (page == nullptr) return;
    page->ctx->env().PushScope();
    // The JS-flavoured identifiers are visible as browser: variables.
    std::string value = event.value;
    if (value.empty() && event.target != nullptr) {
      value = event.target->GetAttributeValue("value");
    }
    page->ctx->env().Bind(BrowserQName("value"),
                          Sequence{Item::String(value)});
    page->ctx->env().Bind(
        BrowserQName("event"),
        Sequence{Item::Node(MaterializeEvent(page->ctx.get(), event))});
    page->ctx->env().Bind(
        BrowserQName("target"),
        event.target != nullptr ? Sequence{Item::Node(event.target)}
                                : Sequence{});
    Result<Sequence> result = page->evaluator->Eval(*body, *page->ctx);
    if (page->evaluator->exited()) page->evaluator->TakeExitValue();
    page->ctx->env().PopScope();
    Status st = result.ok() ? ApplyAfterRun(page.get()) : result.status();
    if (!st.ok()) last_script_error_ = st;
    EndDispatch(page.get());
  };
  browser_->events().AddListener(handler.element, type, std::move(listener));
  return Status();
}

Status XqibPlugin::ApplyAfterRun(PageContext* page) {
  XQ_RETURN_NOT_OK(page->evaluator->ApplyUpdates(*page->ctx));
  // Only this dispatch's trees: an older tree would undo state set since
  // (by MiniJS, or by a later tree).
  for (size_t i = page->bom_current; i < page->bom_trees.size(); ++i) {
    XQ_RETURN_NOT_OK(
        browser_->SyncFromBomTree(page->bom_trees[i], page->window->url()));
  }
  return Status();
}

void XqibPlugin::EndDispatch(PageContext* page) {
  // A dispatch that failed before or during its apply pass leaves its
  // pending updates behind; they die with it, like its other values.
  page->ctx->pul().Clear();
  page->evaluator->ResetDispatchArena(*page->ctx);
  // A navigation during the dispatch replaced the page (or its window
  // closed): the old context dies whole with its last reference.
  if (FindPage(page->window) != page) return;
  page->ctx->ReleaseUnreached([&](xquery::DocumentMarks& marks) {
    for (const auto& [hold, values] : page->held) {
      for (const Sequence& value : values) marks.Mark(value);
    }
    marks.MarkHeld([this](const xml::Document* doc) {
      return browser_->events().HasListenersIn(doc);
    });
  });
  // The dispatch's trees retire: a tree whose document survived still
  // resolves window nodes, but is never synced again.
  std::erase_if(page->bom_trees, [page](const Browser::BomTree& tree) {
    return tree.root == nullptr || !page->ctx->OwnsNode(tree.root);
  });
  page->bom_current = page->bom_trees.size();
  PublishRetained();
}

void XqibPlugin::PublishRetained() {
  uint64_t documents = 0, nodes = 0;
  for (const auto& [window, page] : pages_) {
    documents += page->ctx->owned_documents();
    nodes += page->ctx->owned_nodes();
  }
  retained_documents_ = documents;
  retained_nodes_ = nodes;
}

void XqibPlugin::PropagateDelta(PageContext* page) {
  xml::Document* doc = page->window->document();
  // Every recorded op bumps the document mutation version, so an
  // unchanged version since the last sync means the dispatch window is
  // provably empty — skip the lock-and-drain. This is the common case:
  // only the first listener after an updating one finds a batch.
  if (page->delta_synced_version == doc->mutation_version()) return;
  xml::DomDelta delta;
  doc->TakeDispatchDelta(&delta);
  if (!delta.Empty()) {
    const uint64_t seq = ++page->delta_seq;
    if (delta.whole_tree) {
      // Overflowed or untracked batch: every listener is dirty.
      page->all_dirty_seq = seq;
    } else {
      for (auto& [key, listener] : page->listeners) {
        if (listener.reads_named &&
            xquery::analysis::ReadSetIntersectsWrites(listener.read_names,
                                                      delta.touched)) {
          listener.dirty_seq = seq;
        }
      }
    }
  }
  // Even an empty batch re-anchors: the document version now provably
  // matches the drained window, so skip probes stay armed.
  page->delta_synced_version = doc->mutation_version();
}

XqibPlugin::MemoValidity XqibPlugin::ProbeMemo(
    const PageContext* page, const PageContext::ListenerRecord& listener,
    const PageContext::MemoEntry& entry, uint64_t doc_version) {
  if (entry.doc_version == doc_version) return MemoValidity::kFresh;
  // ⊤ reads: the listener cannot be classified against deltas.
  if (entry.delta_fill_seq == 0) return MemoValidity::kStale;
  // Mutations since the last PropagateDelta have not been classified;
  // the dirty map says nothing about them, so the skip disarms.
  if (page->delta_synced_version != doc_version) return MemoValidity::kStale;
  if (page->all_dirty_seq > entry.delta_fill_seq) return MemoValidity::kStale;
  return listener.dirty_seq <= entry.delta_fill_seq ? MemoValidity::kDeltaSkip
                                                    : MemoValidity::kStale;
}

xml::Node* XqibPlugin::MaterializeEvent(DynamicContext* ctx,
                                        const Event& event) {
  xml::Document* doc = ctx->scratch_document();
  xml::Node* elem = doc->CreateElement(xml::QName("event"));
  auto add = [&](const char* name, const std::string& value) {
    xml::Node* child = doc->CreateElement(xml::QName(name));
    if (!value.empty()) doc->BuildAppend(child, doc->CreateText(value));
    doc->BuildAppend(elem, child);
  };
  add("type", event.type);
  add("altKey", event.alt_key ? "true" : "false");
  add("ctrlKey", event.ctrl_key ? "true" : "false");
  add("shiftKey", event.shift_key ? "true" : "false");
  add("button", std::to_string(event.button));
  add("value", event.value);
  add("phase", event.phase == Event::Phase::kCapture  ? "capture"
               : event.phase == Event::Phase::kTarget ? "target"
                                                      : "bubble");
  return elem;
}

xquery::Counters XqibPlugin::ReadOutsideSources(
    const PageContext& page) const {
  // The fabric and the intern pool are shared by every session, so with
  // concurrent sessions a dispatch window also counts a neighbor's
  // traffic.
  xquery::Counters c;
  const xml::Document& doc = *page.window->document();
  c.delta_index_splices = doc.index_splices();
  c.delta_bucket_rebuilds_avoided = doc.bucket_rebuilds_avoided();
  c.intern_hits = xml::GetInternStats().hits;
  if (fabric_ != nullptr) {
    const net::HttpFabric::Stats& f = fabric_->stats();
    c.http_requests = f.requests;
    c.http_cache_hits = f.cache_hits;
    c.http_cache_misses = f.cache_misses;
    c.http_makespan_ms = f.makespan_ms;
    c.http_overlapped_ms = f.overlapped_ms;
  }
  if (page.prefetcher != nullptr) {
    c.http_prefetch_issued = page.prefetcher->stats().issued;
    c.http_prefetch_hits = page.prefetcher->stats().hits;
  }
  return c;
}

void XqibPlugin::InvokeListener(PageContext* page, const xml::QName& function,
                                const Event& event) {
  const xquery::Counters before = counters_;
  RunListener(page, function, event);
  last_event_stats_ = counters_ - before;
}

void XqibPlugin::RunListener(PageContext* page, const xml::QName& function,
                             const Event& event) {
  // Fold any document mutations since the last sync point into the
  // dirty-listener state before probing: the delta-skip check below is
  // only sound against a synced window.
  PropagateDelta(page);
  // Listener signature per §4.3.1: ($evt, $obj). Resolve the arity
  // BEFORE building any arguments so a memo hit can skip event
  // materialization entirely.
  size_t arity = 0;
  if (page->sctx->FindFunction(function, 2) != nullptr) {
    arity = 2;
  } else if (page->sctx->FindFunction(function, 1) != nullptr) {
    arity = 1;
  } else if (page->sctx->FindFunction(function, 0) == nullptr) {
    last_script_error_ = Status::Error(
        "BRWS0004", "no listener function " + function.Lexical() +
                        " with arity 0, 1 or 2");
    return;
  }

  // Memo cache: a listener the analyzer proved memoizable (pure, free of
  // observable host calls and of reads outside the page) can only read
  // the event payload and the document snapshot, so (payload hash,
  // document state) fully determines its result — replay the recorded
  // serialization instead of re-evaluating. A stale entry means the DOM
  // mutated since it was recorded in a way the delta check cannot rule
  // out: discard it and run fresh.
  auto found = page->listeners.find(
      PageContext::ListenerKey{function.token(), arity});
  PageContext::ListenerRecord* listener =
      found != page->listeners.end() ? &found->second : nullptr;
  const bool memoizable =
      memo_enabled_ && listener != nullptr && listener->memoizable;
  const uint64_t doc_version = page->window->document()->mutation_version();
  const PageContext::MemoKey memo_key{function.token(), arity,
                                      HashEventPayload(event)};
  if (memoizable) {
    std::unique_lock<std::shared_mutex> lk(page->memo_mu);
    auto it = page->memo_cache.find(memo_key);
    if (it != page->memo_cache.end()) {
      const MemoValidity validity =
          ProbeMemo(page, *listener, it->second, doc_version);
      if (validity != MemoValidity::kStale) {
        ++counters_.memo_hits;
        last_listener_result_ = it->second.serialized;
        if (validity == MemoValidity::kDeltaSkip) {
          // Every batch since fill time missed the listener's read set
          // (PropagateDelta above synced the window). Re-anchor so the
          // next probe takes the one-compare fast path.
          it->second.doc_version = doc_version;
          it->second.delta_fill_seq = page->delta_seq;
          ++counters_.delta_listeners_skipped;
        }
        // Memoizable implies pure: nothing to apply, nothing to render.
        ++counters_.pure_listener_skips;
        return;
      }
      page->memo_cache.erase(it);
      ++counters_.memo_invalidations;
    } else {
      ++counters_.memo_misses;
    }
  }

  std::vector<Sequence> args;
  if (arity >= 1) {
    args.push_back(
        Sequence{Item::Node(MaterializeEvent(page->ctx.get(), event))});
  }
  if (arity == 2) {
    // $obj is the node the listener is attached to (DOM `this`, i.e. the
    // current target while capturing/bubbling), not the original target.
    xml::Node* obj = event.current_target != nullptr ? event.current_target
                                                     : event.target;
    args.push_back(obj != nullptr ? Sequence{Item::Node(obj)} : Sequence{});
  }

  // The page evaluator counts into counters_ directly; the sources it
  // does not own are read before and after. The reading starts BEFORE
  // the scatter so the prefetch issuance is charged to this dispatch.
  const xquery::Counters outside_before = ReadOutsideSources(*page);
  // Scatter-gather federation (PERFORMANCE.md §10): issue every
  // statically known GET the listener reaches up front, so the fabric's
  // virtual-time window overlaps their latencies instead of paying the
  // round trips one after another. The record lists none when the
  // listener may write the fabric.
  if (page->prefetcher != nullptr && eval_options_.async_federation &&
      listener != nullptr) {
    for (const std::string& url : listener->prefetch_urls) {
      page->prefetcher->Prefetch(url);
    }
  }
  Result<Sequence> result =
      page->evaluator->CallFunction(function, std::move(args), *page->ctx);
  // Await any prefetch the body never consumed: a leftover future must
  // not survive into a later dispatch (the resource may change), and its
  // latency still settles into the fabric's virtual clock as overlapped
  // (speculation wasted bandwidth, not wall-clock).
  if (page->prefetcher != nullptr) page->prefetcher->Drain();
  counters_ += ReadOutsideSources(*page) - outside_before;
  if (page->evaluator->exited()) page->evaluator->TakeExitValue();
  if (!result.ok()) {
    last_script_error_ = result.status();
    EndDispatch(page);
    return;
  }
  last_listener_result_ = xdm::SequenceToString(*result);
  // A listener the analyzer proved DOM-pure cannot have produced update
  // primitives or touched BOM trees: skip the apply/re-render pass. The
  // PUL-empty check stays as a belt-and-braces runtime guard.
  const bool pure_skip =
      listener != nullptr && listener->pure && page->ctx->pul().empty();
  if (pure_skip) {
    ++counters_.pure_listener_skips;
    // Record the result only for genuinely memoizable listeners and only
    // on a clean run (no error, empty PUL) — errors are never cached.
    if (memoizable) {
      PageContext::MemoEntry entry;
      entry.doc_version = doc_version;
      entry.serialized = last_listener_result_;
      // Stamp the delta sequence at fill time: the entry survives
      // delta-skip probes as long as no later batch dirtied this
      // listener. ⊤-read listeners record no name list and keep the 0
      // stamp (never skipped).
      if (listener->reads_named) entry.delta_fill_seq = page->delta_seq;
      std::unique_lock<std::shared_mutex> lk(page->memo_mu);
      page->memo_cache[memo_key] = std::move(entry);
    }
  } else {
    Status st = ApplyAfterRun(page);
    if (!st.ok()) last_script_error_ = st;
  }
  // The dispatch is over and its result is materialized.
  EndDispatch(page);
}

void XqibPlugin::set_eval_options(
    const xquery::Evaluator::EvalOptions& options) {
  eval_options_ = options;
  for (auto& [window, page] : pages_) {
    if (page->evaluator != nullptr) page->evaluator->set_options(options);
  }
}

Status XqibPlugin::FireEvent(xml::Node* target, Event event) {
  browser_->loop().Post([this, target, event]() mutable {
    // Classify mutations made since the last sync point (script runs,
    // direct DOM pokes from the host) before the dispatcher runs any
    // listener.
    PageContext* page = FindPageByDocument(target->document());
    if (page != nullptr) PropagateDelta(page);
    browser_->events().Dispatch(target, std::move(event));
  });
  PumpEvents();
  return Status();
}

size_t XqibPlugin::PumpEvents() { return browser_->loop().RunUntilIdle(); }

// ------------------------------------------------- BrowserBinding impl ---

Status XqibPlugin::AttachListener(const std::string& event_name,
                                  const Sequence& targets,
                                  const xml::QName& listener,
                                  DynamicContext& ctx) {
  PageContext* page = FindPageByContext(ctx);
  if (page == nullptr) {
    return Status::Error("BRWS0001", "no page for this context");
  }
  std::weak_ptr<PageContext> weak = FindPageShared(page->window);
  for (const Item& item : targets) {
    if (!item.is_node()) {
      return Status::TypeError("event target must be a node");
    }
    browser::Listener l;
    l.id = ListenerId(listener);
    l.callback = [this, weak, listener](Event& event) {
      std::shared_ptr<PageContext> page = weak.lock();
      if (page == nullptr) return;
      InvokeListener(page.get(), listener, event);
    };
    browser_->events().AddListener(item.node(), event_name, std::move(l));
  }
  return Status();
}

Status XqibPlugin::DetachListener(const std::string& event_name,
                                  const Sequence& targets,
                                  const xml::QName& listener,
                                  DynamicContext& ctx) {
  (void)ctx;
  for (const Item& item : targets) {
    if (!item.is_node()) {
      return Status::TypeError("event target must be a node");
    }
    browser_->events().RemoveListener(item.node(), event_name,
                                      ListenerId(listener));
  }
  return Status();
}

Status XqibPlugin::TriggerEvent(const std::string& event_name,
                                const Sequence& targets,
                                DynamicContext& ctx) {
  PageContext* page = FindPageByContext(ctx);
  if (page == nullptr) {
    return Status::Error("BRWS0001", "no page for this context");
  }
  std::weak_ptr<PageContext> weak = FindPageShared(page->window);
  for (const Item& item : targets) {
    if (!item.is_node()) {
      return Status::TypeError("event target must be a node");
    }
    xml::Node* target = item.node();
    Event event;
    event.type = event_name;
    // The target is a root until its dispatch is over.
    const uint64_t hold = ++page->next_hold;
    page->held[hold].push_back(Sequence{item});
    browser_->loop().Post([this, weak, target, event, hold]() mutable {
      std::shared_ptr<PageContext> owner = weak.lock();
      if (owner == nullptr) return;
      PageContext* page = FindPageByDocument(target->document());
      if (page != nullptr) PropagateDelta(page);
      browser_->events().Dispatch(target, std::move(event));
      owner->held.erase(hold);
    });
  }
  return Status();
}

Status XqibPlugin::AttachBehind(const std::string& event_name,
                                const Expr& call_expr,
                                const xml::QName& listener,
                                DynamicContext& ctx) {
  PageContext* page = FindPageByContext(ctx);
  if (page == nullptr) {
    return Status::Error("BRWS0001", "no page for this context");
  }
  std::weak_ptr<PageContext> weak = FindPageShared(page->window);
  const Expr* call = &call_expr;
  double latency =
      fabric_ != nullptr ? fabric_->latency.base_ms : 1.0;
  (void)event_name;  // informational ("stateChanged") in this model

  auto invoke_state = [this, weak, listener](int64_t state,
                                             Sequence result) {
    std::shared_ptr<PageContext> page = weak.lock();
    if (page == nullptr) return;
    std::vector<Sequence> args;
    args.push_back(Sequence{Item::Integer(state)});
    args.push_back(std::move(result));
    Result<Sequence> r =
        page->evaluator->CallFunction(listener, std::move(args), *page->ctx);
    if (page->evaluator->exited()) page->evaluator->TakeExitValue();
    Status st = r.ok() ? ApplyAfterRun(page.get()) : r.status();
    if (!st.ok()) last_script_error_ = st;
    EndDispatch(page.get());
  };

  // The call's arguments are evaluated NOW (they reference variables of
  // the attaching scope, e.g. a function parameter $str); only the call
  // itself is deferred — that is the remote round trip. A non-call is
  // evaluated whole now and its value delivered later. Either way the
  // values are roots until the completion takes them.
  std::vector<Sequence> eager;
  bool is_call = call->kind == xquery::ExprKind::kFunctionCall;
  if (is_call) {
    for (const xquery::ExprPtr& kid : call->kids) {
      XQ_ASSIGN_OR_RETURN(Sequence arg, page->evaluator->Eval(*kid, ctx));
      eager.push_back(std::move(arg));
    }
  } else {
    XQ_ASSIGN_OR_RETURN(Sequence value, page->evaluator->Eval(*call, ctx));
    eager.push_back(std::move(value));
  }
  const uint64_t hold = ++page->next_hold;
  page->held[hold] = std::move(eager);

  // readyState 1: request dispatched (immediately, asynchronously).
  browser_->loop().Post(
      [invoke_state]() { invoke_state(1, Sequence{}); }, 0.0);

  // readyState 4: the call completes and its result is delivered after
  // the simulated round-trip latency. The call is non-blocking for the
  // main flow (§4.4: "the user keeps control"). The completion is one
  // task on the loop: the callee reads the DOM as every task before it
  // left it, and the listener runs right after the callee.
  browser_->loop().Post(
      [this, weak, call, invoke_state, is_call, hold]() {
        std::shared_ptr<PageContext> page = weak.lock();
        if (page == nullptr) return;
        std::vector<Sequence> eager = std::move(page->held[hold]);
        page->held.erase(hold);
        if (!is_call) {
          invoke_state(4, std::move(eager.front()));
          return;
        }
        Result<Sequence> result = page->evaluator->CallFunction(
            call->qname, std::move(eager), *page->ctx);
        if (page->evaluator->exited()) page->evaluator->TakeExitValue();
        if (!result.ok()) {
          last_script_error_ = result.status();
          invoke_state(4, Sequence{});
          return;
        }
        invoke_state(4, std::move(result).value());
      },
      latency);
  return Status();
}

Status XqibPlugin::SetStyle(const std::string& property,
                            const Sequence& targets, const std::string& value,
                            DynamicContext& ctx) {
  (void)ctx;
  for (const Item& item : targets) {
    if (!item.is_node() || !item.node()->is_element()) {
      return Status::TypeError("set style target must be an element");
    }
    browser::SetStyleProperty(item.node(), property, value);
  }
  return Status();
}

Result<std::string> XqibPlugin::GetStyle(const std::string& property,
                                         const Sequence& target,
                                         DynamicContext& ctx) {
  (void)ctx;
  XQ_ASSIGN_OR_RETURN(xml::Node* node, SingleNodeArg(target, "get style"));
  if (!node->is_element()) {
    return Status::TypeError("get style target must be an element");
  }
  return browser::GetStyleProperty(node, property);
}

// ------------------------------------------- browser: function library ---

void XqibPlugin::RegisterBrowserFunctions(PageContext* page) {
  DynamicContext* ctx = page->ctx.get();
  Window* window = page->window;
  Browser* browser = browser_;
  PageContext* raw_page = page;

  auto str_arg = [](std::vector<Sequence>& args) {
    return args.empty() ? std::string() : xdm::SequenceToString(args[0]);
  };

  ctx->RegisterExternal(
      BrowserQName("alert"), 1,
      [this, str_arg](std::vector<Sequence>& args,
                      DynamicContext&) -> Result<Sequence> {
        alerts_.push_back(str_arg(args));
        return Sequence{};
      });
  ctx->RegisterExternal(
      BrowserQName("prompt"), 1,
      [this, str_arg](std::vector<Sequence>& args,
                      DynamicContext&) -> Result<Sequence> {
        return Sequence{Item::String(prompt_responder(str_arg(args)))};
      });
  ctx->RegisterExternal(
      BrowserQName("confirm"), 1,
      [this, str_arg](std::vector<Sequence>& args,
                      DynamicContext&) -> Result<Sequence> {
        return Sequence{Item::Boolean(confirm_responder(str_arg(args)))};
      });

  // browser:top() — the whole window tree, security-filtered (§4.2.1).
  // Marked non-deterministic in the paper: each call re-materializes.
  ctx->RegisterExternal(
      BrowserQName("top"), 0,
      [browser, raw_page, window](std::vector<Sequence>&,
                                  DynamicContext& c) -> Result<Sequence> {
        Browser::BomTree tree =
            browser->MaterializeWindowTree(c.scratch_document(),
                                           window->url());
        raw_page->bom_trees.push_back(tree);
        if (tree.root == nullptr) return Sequence{};
        return Sequence{Item::Node(tree.root)};
      });

  // browser:self() — this window's node within a fresh top tree.
  ctx->RegisterExternal(
      BrowserQName("self"), 0,
      [browser, raw_page, window](std::vector<Sequence>&,
                                  DynamicContext& c) -> Result<Sequence> {
        Browser::BomTree tree =
            browser->MaterializeWindowTree(c.scratch_document(),
                                           window->url());
        raw_page->bom_trees.push_back(tree);
        for (const auto& [node, win] : tree.node_to_window) {
          if (win == window) {
            return Sequence{Item::Node(const_cast<xml::Node*>(node))};
          }
        }
        return Sequence{};
      });

  ctx->RegisterExternal(
      BrowserQName("screen"), 0,
      [browser](std::vector<Sequence>&,
                DynamicContext& c) -> Result<Sequence> {
        return Sequence{
            Item::Node(browser->MaterializeScreen(c.scratch_document()))};
      });
  ctx->RegisterExternal(
      BrowserQName("navigator"), 0,
      [browser](std::vector<Sequence>&,
                DynamicContext& c) -> Result<Sequence> {
        return Sequence{
            Item::Node(browser->MaterializeNavigator(c.scratch_document()))};
      });

  // browser:document($w) — the document behind a window node, with the
  // same-origin check; empty sequence on denial (§4.2.3).
  ctx->RegisterExternal(
      BrowserQName("document"), 1,
      [browser, raw_page, window](std::vector<Sequence>& args,
                                  DynamicContext&) -> Result<Sequence> {
        if (args[0].empty()) return Sequence{};
        if (!args[0][0].is_node()) {
          return Status::TypeError("browser:document expects a window node");
        }
        const xml::Node* node = args[0][0].node();
        for (const Browser::BomTree& tree : raw_page->bom_trees) {
          Window* target =
              browser->ResolveWindowNode(tree, node, window->url());
          if (target != nullptr) {
            return Sequence{Item::Node(target->document()->root())};
          }
        }
        return Sequence{};
      });

  // Window management (§4.2.4).
  ctx->RegisterExternal(
      BrowserQName("windowOpen"), 1,
      [browser, str_arg](std::vector<Sequence>& args,
                         DynamicContext&) -> Result<Sequence> {
        browser->top_window()->CreateFrame(str_arg(args));
        return Sequence{};
      });
  ctx->RegisterExternal(
      BrowserQName("windowClose"), 1,
      [browser, raw_page, window](std::vector<Sequence>& args,
                                  DynamicContext&) -> Result<Sequence> {
        XQ_ASSIGN_OR_RETURN(xml::Node* node,
                            SingleNodeArg(args[0], "browser:windowClose"));
        for (const Browser::BomTree& tree : raw_page->bom_trees) {
          Window* target =
              browser->ResolveWindowNode(tree, node, window->url());
          if (target != nullptr && target->parent() != nullptr) {
            target->parent()->CloseFrame(target);
            return Sequence{};
          }
        }
        return Sequence{};
      });
  auto move_fn = [browser, raw_page, window](bool relative) {
    return [browser, raw_page, window, relative](
               std::vector<Sequence>& args,
               DynamicContext&) -> Result<Sequence> {
      XQ_ASSIGN_OR_RETURN(xml::Node* node,
                          SingleNodeArg(args[0], "browser:windowMove"));
      XQ_ASSIGN_OR_RETURN(int64_t x, args[1].empty()
                                         ? Result<int64_t>(int64_t{0})
                                         : args[1][0].Atomize().ToInteger());
      XQ_ASSIGN_OR_RETURN(int64_t y, args[2].empty()
                                         ? Result<int64_t>(int64_t{0})
                                         : args[2][0].Atomize().ToInteger());
      for (const Browser::BomTree& tree : raw_page->bom_trees) {
        Window* target = browser->ResolveWindowNode(tree, node, window->url());
        if (target != nullptr) {
          if (relative) {
            target->MoveBy(static_cast<int>(x), static_cast<int>(y));
          } else {
            target->MoveTo(static_cast<int>(x), static_cast<int>(y));
          }
          return Sequence{};
        }
      }
      return Sequence{};
    };
  };
  ctx->RegisterExternal(BrowserQName("windowMoveBy"), 3, move_fn(true));
  ctx->RegisterExternal(BrowserQName("windowMoveTo"), 3, move_fn(false));

  // History (§4.2.4).
  ctx->RegisterExternal(
      BrowserQName("historyBack"), 0,
      [window](std::vector<Sequence>&, DynamicContext&) -> Result<Sequence> {
        XQ_RETURN_NOT_OK(window->HistoryBack());
        return Sequence{};
      });
  ctx->RegisterExternal(
      BrowserQName("historyForward"), 0,
      [window](std::vector<Sequence>&, DynamicContext&) -> Result<Sequence> {
        XQ_RETURN_NOT_OK(window->HistoryForward());
        return Sequence{};
      });
  ctx->RegisterExternal(
      BrowserQName("historyGo"), 1,
      [window](std::vector<Sequence>& args,
               DynamicContext&) -> Result<Sequence> {
        if (args[0].empty()) return Sequence{};
        XQ_ASSIGN_OR_RETURN(int64_t delta, args[0][0].Atomize().ToInteger());
        XQ_RETURN_NOT_OK(window->HistoryGo(static_cast<int>(delta)));
        return Sequence{};
      });

  // Document write (§4.2.4; "with XQuery, best practice would be to
  // modify the XDM" — provided for parity anyway).
  ctx->RegisterExternal(
      BrowserQName("write"), 1,
      [window, str_arg](std::vector<Sequence>& args,
                        DynamicContext&) -> Result<Sequence> {
        window->Write(str_arg(args));
        return Sequence{};
      });
  ctx->RegisterExternal(
      BrowserQName("writeln"), 1,
      [window, str_arg](std::vector<Sequence>& args,
                        DynamicContext&) -> Result<Sequence> {
        window->Write(str_arg(args) + "\n");
        return Sequence{};
      });
}

}  // namespace xqib::plugin
