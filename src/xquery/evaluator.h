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

struct Builtin;
struct EvaluatorStreams;

class Evaluator {
 public:
  // `counters` receives every count this evaluator makes; null keeps
  // them in the evaluator's own set. The plug-in passes its cumulative
  // set, so its page evaluators count straight into it.
  explicit Evaluator(const StaticContext& sctx, Counters* counters = nullptr)
      : sctx_(sctx),
        counters_(counters != nullptr ? counters : &own_counters_) {}
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  // Runtime toggle, on by default. Its off position is a reference
  // implementation the tests compare against (PERFORMANCE.md, "Evaluator
  // switches"). Everything else is always on: paths, filters, FLWORs and
  // sequence-valued builtins compose as lazy pull streams
  // (xdm::ItemStream) in the DynamicContext's per-dispatch arena, steps
  // the optimizer proved ordered and duplicate-free skip their sort
  // barrier, exact-name descendant steps from one attached node answer
  // from an order-key range of the document's element-name index, and
  // bounded consumers (existence tests, [N], [last()], head/subsequence)
  // stop early. The independent reference for all of that is
  // tests/xpath_reference.h.
  struct EvalOptions {
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
  // and streams the buffered result.
  Result<xdm::StreamPtr> EvalStream(const Expr& e, DynamicContext& ctx);

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

  // Analyzer facts (effect summaries) used to prove a FLWOR's scatter
  // fabric-safe. Optional: without them no FLWOR that calls a declared
  // function scatters. The plug-in passes its page program's summaries,
  // Engine::Compile the facts of its program.
  void set_analysis_facts(
      std::shared_ptr<const analysis::AnalysisFacts> facts) {
    facts_ = std::move(facts);
  }

 private:
  friend struct EvaluatorStreams;

  // fn:count's index shape: a one-step, predicate-free exact-name
  // descendant path (TryFastCount).
  static bool IsFastCountPath(const Expr& e);

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
  // sequence: BuildPathStream, materialized.
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
  // The builtin row a call reaches (functions.h): none when no builtin
  // has its name, or a declaration or host external of its name and
  // arity shadows it.
  const Builtin* UnshadowedBuiltin(const Expr& call,
                                   DynamicContext& ctx) const;
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
  // Adds `content` to the fresh `parent` in `doc`: its nodes are copied
  // (nodes_copied), or taken as they are when `fresh` (they were built
  // in place for this content).
  Status AppendContent(const xdm::Sequence& content, xml::Node* parent,
                       xml::Document* doc, bool fresh);
  // Evaluates a consumer's operand. A non-null `build_in` is the
  // document the operand's in-place constructors build in meanwhile
  // (DynamicContext::BuildScope).
  Result<xdm::Sequence> EvalOperand(const Expr& operand,
                                    xml::Document* build_in,
                                    DynamicContext& ctx);
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
  // construction, and calls only to builtins whose row reads no other
  // document, clock or focus and that neither the host nor the fabric
  // observes.) Memoized per node.
  bool ScatterSafe(const Expr& e);

  // Async federation: if `e` is a FLWOR whose remote GETs are templated
  // over the loop variable (federation::AnalyzeFlworScatter, memoized
  // per node) and the binding is pure enough to pre-evaluate, issues the
  // whole URL batch through ctx.prefetcher before the tuple loop runs.
  // Called from both the streaming and the order-by FLWOR paths.
  void MaybeScatterFlwor(const Expr& e, DynamicContext& ctx);

  const StaticContext& sctx_;
  bool exit_flag_ = false;
  xdm::Sequence exit_value_;
  EvalOptions options_;
  Counters own_counters_;
  Counters* counters_;
  std::unordered_map<const Expr*, bool> needs_last_cache_;
  std::unordered_map<const Expr*, bool> scatter_safe_cache_;
  // Memoized federation::AnalyzeFlworScatter results (dispatch re-enters
  // the same listener bodies every event).
  std::unordered_map<const Expr*,
                     std::shared_ptr<const federation::FlworScatterPlan>>
      scatter_plan_cache_;
  std::shared_ptr<const analysis::AnalysisFacts> facts_;
};

// Effective boolean value of a stream: pulls at most two items (the
// second only to reproduce FORG0006 on multi-atomic sequences); a node
// witness counts an early exit.
Result<bool> StreamEBV(xdm::ItemStream& s, Counters& counters);

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_EVALUATOR_H_
