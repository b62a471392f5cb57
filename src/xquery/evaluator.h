// Tree-walking evaluator for the XQIB dialect. One Evaluator can be
// reused across queries sharing a StaticContext (the plugin keeps one per
// page and re-enters it for every event listener call, Figure 1).

#ifndef XQIB_XQUERY_EVALUATOR_H_
#define XQIB_XQUERY_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "xdm/item.h"
#include "xdm/stream.h"
#include "xquery/ast.h"
#include "xquery/context.h"
#include "xquery/counters.h"

namespace xqib::xquery {

namespace analysis {
struct AnalysisFacts;
}  // namespace analysis
namespace federation {
struct FlworScatterPlan;
}  // namespace federation
namespace plan {
struct ModulePlans;
struct PlanEvaluatorAccess;
}  // namespace plan

struct EvaluatorStreams;

class Evaluator {
 public:
  // `counters` receives every count this evaluator makes; null keeps
  // them in the evaluator's own set. The plug-in passes its cumulative
  // set, so its page and worker-slot evaluators count straight into it.
  explicit Evaluator(const StaticContext& sctx, Counters* counters = nullptr)
      : sctx_(sctx),
        counters_(counters != nullptr ? counters : &own_counters_) {}
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  // Runtime toggles, all on by default. Each off position is a
  // reference implementation the tests compare against (PERFORMANCE.md,
  // "Evaluator switches"). Exact-name descendant steps from one
  // attached node always answer from an order-key range of the
  // document's element-name index, bounded consumers (existence
  // tests, [N], [last()], head/subsequence) always stop early, and
  // stream operators always live in the DynamicContext's per-dispatch
  // arena.
  struct EvalOptions {
    // Skip SortDocumentOrderDedup for steps the optimizer annotated
    // order-preserving + duplicate-free. Off: the always-sort reference.
    bool honor_sort_elision = true;
    // Compose path steps, FLWOR clauses and sequence-valued builtins as
    // lazy pull streams (xdm::ItemStream). Off: every operator edge
    // re-materializes a full Sequence — the eager reference.
    bool stream_pipeline = true;
    // Dispatch user-declared function calls through compiled register
    // plans (xquery/plan/): the body is lowered once into flat bytecode
    // specialized by analyzer facts, cached process-wide on (source
    // hash, static-context fingerprint), and executed without AST
    // traversal. Off: every call tree-walks — the oracle the plan
    // ablation tests compare against.
    bool compiled_plans = true;
    // Scatter-gather over remote sources: FLWOR bodies whose http:get
    // URLs are statically expressible (literals, or templates over the
    // loop variable) and provably free of reachable fabric writes issue
    // the whole batch as overlapping HttpFabric fetches before the tuple
    // loop runs; the http:get externals consume the in-flight futures.
    // Requires a DynamicContext::prefetcher (wired by the plugin). Off:
    // every remote call is a fresh serial round trip — the byte-identical
    // oracle the federation ablation tests compare against.
    bool async_federation = true;
  };
  const EvalOptions& options() const { return options_; }
  void set_options(const EvalOptions& options) { options_ = options; }

  // The dispatch counters this evaluator bumps (xquery/counters.h),
  // cumulative across every Eval/CallFunction. Relaxed atomics, so
  // another thread may read them while the session strand bumps them.
  const Counters& counters() const { return *counters_; }
  Counters& counters() { return *counters_; }

  // Evaluates an expression. Updating sub-expressions append to
  // ctx.pul(); the caller decides when to apply (snapshot vs scripting).
  Result<xdm::Sequence> Eval(const Expr& e, DynamicContext& ctx);

  // Lazily evaluates `e` as a pull stream. Work is deferred into Next()
  // calls for the lazy kinds (paths, filters, FLWOR without order by,
  // sequence concatenation, ranges); everything else evaluates eagerly
  // and streams the buffered result. With stream_pipeline off this
  // always materializes first.
  Result<xdm::StreamPtr> EvalStream(const Expr& e, DynamicContext& ctx);

  // Effective boolean value of a stream: pulls at most two items (the
  // second only to reproduce FORG0006 on multi-atomic sequences).
  Result<bool> StreamEBV(xdm::ItemStream& s);

  // Applies ctx's pending update list at the host's snapshot point and
  // counts the structured delta the pass emitted (delta_emitted).
  Status ApplyUpdates(DynamicContext& ctx);

  // Resets ctx's per-dispatch arena (the host calls this after the XQUF
  // apply pass, when no streams are live) and counts the reset.
  void ResetDispatchArena(DynamicContext& ctx);

  // Invokes a user-declared or external function with pre-evaluated
  // arguments. Used by the plugin to dispatch event listeners.
  Result<xdm::Sequence> CallFunction(const xml::QName& name,
                                     std::vector<xdm::Sequence> args,
                                     DynamicContext& ctx);

  // Scripting "exit with": set while unwinding; cleared by function-call
  // boundaries and by TakeExitValue().
  bool exited() const { return exit_flag_; }
  xdm::Sequence TakeExitValue() {
    exit_flag_ = false;
    return std::move(exit_value_);
  }

  const StaticContext& static_context() const { return sctx_; }

  // fn:count's index shape: a one-step, predicate-free exact-name
  // descendant path (TryFastCount; the plan compiler's count.indexed).
  static bool IsFastCountPath(const Expr& e);

  // Analyzer facts (type/cardinality/purity) used to specialize plan
  // compilation. Optional: without them plans still compile, just
  // without the fact-driven opcode specializations. Shared ownership so
  // page evaluators and their worker-slot clones see one facts object.
  void set_analysis_facts(
      std::shared_ptr<const analysis::AnalysisFacts> facts) {
    facts_ = std::move(facts);
  }
  const analysis::AnalysisFacts* analysis_facts() const {
    return facts_.get();
  }

 private:
  friend struct EvaluatorStreams;
  friend struct plan::PlanEvaluatorAccess;

  // Resolves this evaluator's compiled plans against the process-wide
  // cache (compiling on a cold or invalidated key) and memoizes the
  // result, so the warm dispatch path performs zero cache probes and
  // zero compiles. Called only when options_.compiled_plans is on.
  void EnsurePlans();

  // The per-kind dispatch; Eval wraps it with optional profiling.
  Result<xdm::Sequence> EvalImpl(const Expr& e, DynamicContext& ctx);
  // EvalStream with an ordering requirement: consumers that only
  // observe (non-)emptiness pass ordered_required=false, letting the
  // final path step skip its document-order barrier.
  Result<xdm::StreamPtr> EvalStreamOrdered(const Expr& e, DynamicContext& ctx,
                                           bool ordered_required);
  // Drains a stream into a Sequence, accounting the buffer.
  Result<xdm::Sequence> MaterializeFrom(xdm::StreamPtr s);
  // Evaluates path `e` from its already evaluated initial context
  // sequence: the streamed or the eager engine per stream_pipeline.
  Result<xdm::Sequence> EvalPathFrom(const Expr& e, xdm::Sequence current,
                                     DynamicContext& ctx);
  // Composes one pull stream per path step (axis cursor or index slice,
  // plus an optional sort barrier) off the initial context sequence.
  Result<xdm::StreamPtr> BuildPathStream(const Expr& e, xdm::Sequence current,
                                         DynamicContext& ctx,
                                         bool ordered_required);
  Result<xdm::StreamPtr> BuildFilterStream(const Expr& e, DynamicContext& ctx);
  // Applies filter predicates to a stream in order: E[N] and E[last()]
  // stop early, predicates that may observe last() materialize, the
  // rest stream with an incremental position.
  Result<xdm::StreamPtr> FilterStream(const std::vector<ExprPtr>& predicates,
                                      xdm::StreamPtr s, DynamicContext& ctx);
  // The initial context sequence of a path (kids[0] / root / focus).
  Result<xdm::Sequence> PathInput(const Expr& e, DynamicContext& ctx);
  // Eager per-step path loop — the stream_pipeline=false ablation
  // baseline and the oracle the streaming tests compare against.
  Result<xdm::Sequence> EvalPathEager(const Expr& e, xdm::Sequence current,
                                      DynamicContext& ctx);
  Result<xdm::Sequence> EvalStep(const Step& step, xml::Node* node,
                                 DynamicContext& ctx);
  // An expression step (Step::expr) over its context sequence.
  Result<xdm::Sequence> EvalExprStep(const Step& step, xdm::Sequence context,
                                     DynamicContext& ctx);
  // Evaluates `e` and returns its effective boolean value; lazy kinds
  // stream and stop at the first witness item.
  Result<bool> EvalBool(const Expr& e, DynamicContext& ctx);
  // The element-name index's answer to an exact-name descendant or
  // descendant-or-self step from `origin`: its order-key range of the
  // name's bucket (Document::ElementsByNameIn), in document order and
  // duplicate-free, step predicates NOT applied. False, and the axis
  // walk answers, unless `origin` is an attached document or element
  // node.
  bool IndexedSlice(const Step& step, xml::Node* origin,
                    std::span<xml::Node* const>* out);
  // IndexedSlice copied into *out.
  bool TryIndexedStep(const Step& step, xml::Node* origin,
                      xdm::Sequence* out);
  // IndexedSlice as a stream with the step's predicates applied; null
  // when not applicable.
  Result<xdm::StreamPtr> IndexedStepStream(const Step& step,
                                           xml::Node* origin,
                                           DynamicContext& ctx);
  // fn:count over an IsFastCountPath path from its evaluated input: the
  // slice size, without instantiating items, when the input is one
  // attached node.
  bool TryFastCount(const Expr& path, const xdm::Sequence& input,
                    int64_t* out);
  // TryFastCount, else the size of the evaluated path.
  Result<int64_t> CountPath(const Expr& path, xdm::Sequence input,
                            DynamicContext& ctx);
  // Conservative static scan: could evaluating `e` as a predicate
  // observe fn:last() (directly or through a called function, which
  // inherits the focus in the XQIB dialect)? Memoized per node.
  bool NeedsLast(const Expr& e);
  Result<xdm::Sequence> ApplyPredicates(
      const std::vector<ExprPtr>& predicates, xdm::Sequence input,
      DynamicContext& ctx);
  Result<xdm::Sequence> ApplyOnePredicate(const Expr& pred,
                                          xdm::Sequence input,
                                          DynamicContext& ctx);
  Result<xdm::Sequence> EvalFLWOR(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalQuantified(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalComparison(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalArith(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalSetOp(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalFunctionCall(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalCast(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalFtContains(const Expr& e, DynamicContext& ctx);
  Result<bool> EvalFtSelection(const FtSelection& sel,
                               const std::vector<std::string>& tokens,
                               DynamicContext& ctx);
  Result<xdm::Sequence> EvalDirectElement(const Expr& e, DynamicContext& ctx);
  Result<xml::Node*> BuildDirectNode(const DirectNode& d, xml::Document* doc,
                                     DynamicContext& ctx);
  Result<xdm::Sequence> EvalComputedConstructor(const Expr& e,
                                                DynamicContext& ctx);
  Status AppendContent(const xdm::Sequence& content, xml::Node* parent,
                       xml::Document* doc);
  Result<xdm::Sequence> EvalInsert(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalDelete(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalReplace(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalRename(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalTransform(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalBlock(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalWhile(const Expr& e, DynamicContext& ctx);
  Result<xdm::Sequence> EvalBrowserExtension(const Expr& e,
                                             DynamicContext& ctx);

  // Checks a value against a sequence type (instance of / treat).
  Result<bool> MatchesSequenceType(const xdm::Sequence& value,
                                   const SequenceType& st);

  // Conservative static scan for the FLWOR scatter gate: may `e` be
  // evaluated an extra time, ahead of the tuple loop, without anyone
  // noticing? (No updates/scripting/host effects, no node
  // construction, no fn:position/fn:last, and calls only to builtins
  // of fn:/xs: minus doc/put/trace and the time functions.) Memoized
  // per node.
  bool ParallelSafePredicate(const Expr& e);

  // Async federation: if `e` is a FLWOR whose remote GETs are templated
  // over the loop variable (federation::AnalyzeFlworScatter, memoized
  // per node) and the binding is pure enough to pre-evaluate, issues the
  // whole URL batch through ctx.prefetcher before the tuple loop runs.
  // Called from both the eager and the streaming FLWOR paths.
  void MaybeScatterFlwor(const Expr& e, DynamicContext& ctx);

  const StaticContext& sctx_;
  bool exit_flag_ = false;
  xdm::Sequence exit_value_;
  EvalOptions options_;
  Counters own_counters_;
  Counters* counters_;
  std::unordered_map<const Expr*, bool> needs_last_cache_;
  std::unordered_map<const Expr*, bool> parallel_safe_cache_;
  // Memoized federation::AnalyzeFlworScatter results (the analysis walks
  // the whole call graph under the FLWOR; dispatch re-enters the same
  // listener bodies every event).
  std::unordered_map<const Expr*,
                     std::shared_ptr<const federation::FlworScatterPlan>>
      scatter_plan_cache_;
  std::shared_ptr<const analysis::AnalysisFacts> facts_;
  // Memoized plan resolution (EnsurePlans): null until the first
  // compiled_plans dispatch, then pinned for as long as the static
  // context keys match. Loop-thread / slot-thread discipline like the
  // memo caches above — an Evaluator is never re-entered concurrently.
  std::shared_ptr<const plan::ModulePlans> plans_;
  uint64_t plans_source_hash_ = 0;
  uint64_t plans_fingerprint_ = 0;
};

// Built-in function dispatch (functions.cc). Sets *handled=false if the
// name is not a known built-in.
Result<xdm::Sequence> CallBuiltinFunction(const xml::QName& name,
                                          std::vector<xdm::Sequence>& args,
                                          Evaluator& ev, DynamicContext& ctx,
                                          bool* handled);

// How a builtin may consume its first argument as a stream (functions.cc):
// kFold drains without buffering (count, sum, avg, min, max); kEarlyExit
// additionally stops pulling once decided (exists, empty, boolean, not,
// head, subsequence). kNone: not stream-consumable at this arity.
enum class StreamFnClass { kNone, kFold, kEarlyExit };
StreamFnClass ClassifyStreamBuiltin(const xml::QName& name, size_t arity);
// True when the builtin's result depends on the order (or duplicates)
// of its first argument, so the path feeding it may not skip its final
// document-order barrier.
bool StreamBuiltinNeedsOrderedArg(const std::string& local);
// Dispatches a stream-consumable builtin: arg0 is pulled lazily, `rest`
// holds the remaining (eagerly evaluated) arguments.
Result<xdm::Sequence> CallStreamBuiltin(const xml::QName& name,
                                        xdm::ItemStream& arg0,
                                        std::vector<xdm::Sequence>& rest,
                                        Evaluator& ev);

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_EVALUATOR_H_
