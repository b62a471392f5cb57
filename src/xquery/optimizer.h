// Rule-based AST rewriter backing the paper's §1 claim that "XQuery is
// carefully designed to be highly optimisable": because expressions are
// declarative, the engine can rewrite them without changing semantics.
//
// Implemented rules (CompileOptions::optimize turns them all off; that
// is the A1 ablation benchmark's baseline):
//   * constant folding      — arithmetic/comparison/logic over literals
//   * branch elimination    — if/where/logical with constant conditions
//   * cardinality rewrites  — count(E) = 0 -> empty(E),
//                             count(E) > 0 / != 0 -> exists(E)
//   * positional shortcut   — E[1] marks first-match-only evaluation
//                             hints for the evaluator (predicate is kept;
//                             the rewrite is the canonical exists form)
//   * boolean simplification— not(not(E)) -> boolean(E),
//                             empty(E) inverted to exists and vice versa
//   * path collapsing       — descendant-or-self::node()/child::T[P]
//                             -> descendant::T[P] when P is absent or
//                             position-free, avoiding the full-node
//                             intermediate sequence "//T" otherwise builds
//                             and letting the element-name index answer
//                             the step
//   * inferred rewrites     — cardinalities proved by the static analyzer
//                             (AnalysisFacts) let count/exists/empty and
//                             positional filters fold on *inferred*
//                             singletons, not just syntactic ones:
//                             exists($i) -> true() when $i: exactly-one
//   * ordering elision      — path steps whose raw output is provably in
//                             document order and duplicate-free (e.g. a
//                             singleton-context child::/attribute::/
//                             self:: chain) are annotated so the
//                             evaluator skips SortDocumentOrderDedup
//
// After the rewrites, one marking pass (PERFORMANCE.md §4, "Tree
// building"):
//   * built in place        — a node constructor whose value reaches only
//                             the node-keeping consumer around it, through
//                             tail positions (comma operands, a FLWOR's
//                             return, if and typeswitch branches, enclosed
//                             expressions), is marked Expr::built_in_place
//                             and its consumer Expr/DirectNode::takes_fresh.
//                             The consumers are an insert's source, a
//                             `replace node` source, a `copy $v :=` source
//                             and the enclosed content of a direct or
//                             computed element. Every tail must be a
//                             constructor or a literal. The evaluator then
//                             builds the tree in the consumer's document
//                             and the consumer takes it without a copy. An
//                             insert so marked evaluates its target first,
//                             so it is marked only when that is unseen:
//                             neither operand updates, runs statements
//                             (analysis::Effects::sequential), observes the
//                             host or writes the fabric, and the target
//                             reads nothing outside the page.

#ifndef XQIB_XQUERY_OPTIMIZER_H_
#define XQIB_XQUERY_OPTIMIZER_H_

#include <functional>
#include <string>

#include "xquery/analysis/facts.h"
#include "xquery/ast.h"

namespace xqib::xquery {

struct OptimizerStats {
  int folded_constants = 0;
  int eliminated_branches = 0;
  int cardinality_rewritten = 0;
  int boolean_simplified = 0;
  int paths_collapsed = 0;
  int inferred_rewrites = 0;
  int sort_elisions = 0;  // steps annotated order-preserving + dup-free
  int total() const {
    return folded_constants + eliminated_branches + cardinality_rewritten +
           boolean_simplified + paths_collapsed + inferred_rewrites +
           sort_elisions;
  }
};

// True when `pred`, as a step predicate, provably selects by value
// alone, so per-parent and per-subtree positions select the same nodes:
// its value is never numeric (a comparison, and/or, a builtin whose row
// is a kBooleanTest, or a path of axis steps), and nothing evaluated on its own focus
// reads position() or last() or calls a function that could (one
// `is_declared` reports as user-declared, an external, or an unknown
// name). Focus-changing parts (nested step and filter predicates,
// expression steps) may use positions freely. `is_declared` takes a
// FunctionKey ("Clark#arity"); in this dialect a declaration may
// shadow an fn: builtin.
bool PositionFreePredicate(
    const Expr& pred,
    const std::function<bool(const std::string& key)>& is_declared);

// Rewrites a whole module in place — global variable initializers,
// function bodies and the query body — then marks what is built in
// place, and returns rewrite statistics.
// `facts` (optional) supplies analyzer-inferred cardinalities keyed by
// the pre-rewrite Expr nodes; run the analyzer on the same tree first.
// Without them the inferred rewrites do nothing, and no insert whose
// operands call a declared function is built in place.
OptimizerStats OptimizeModule(Module* module,
                              const analysis::AnalysisFacts* facts = nullptr);

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_OPTIMIZER_H_
