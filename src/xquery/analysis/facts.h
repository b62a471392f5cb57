// Facts derived by the static analyzer and consumed elsewhere:
//   * inferred cardinalities, keyed by AST node, consumed by the
//     optimizer so cardinality/positional rewrites can fire on inferred
//     (not just syntactic) singletons;
//   * purity classification of declared functions, consumed by the
//     plug-in's event loop to skip re-render work after pure listeners.
//
// Keys are `const Expr*`: the bottom-up rewriter only replaces nodes it
// folds, so surviving nodes keep stable addresses while the optimizer
// consults the map.

#ifndef XQIB_XQUERY_ANALYSIS_FACTS_H_
#define XQIB_XQUERY_ANALYSIS_FACTS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "xquery/analysis/effects.h"

namespace xqib::xquery {
struct Expr;
}  // namespace xqib::xquery

namespace xqib::xquery::analysis {

// Inferred bounds on the number of items an expression can produce.
struct Cardinality {
  static constexpr uint64_t kUnbounded = ~uint64_t{0};
  uint64_t min = 0;
  uint64_t max = kUnbounded;

  bool IsSingleton() const { return min == 1 && max == 1; }
  bool IsNonEmpty() const { return min >= 1; }
  bool IsEmpty() const { return max == 0; }
  bool IsExact() const { return min == max && max != kUnbounded; }
};

struct AnalysisFacts {
  // Cardinality per analyzed expression node.
  std::unordered_map<const Expr*, Cardinality> cardinality;

  // Functions (keyed "Clark#arity") whose bodies provably do not mutate
  // the DOM/BOM: no updates, no assignments, no style writes, no event
  // re-wiring, no calls into unknown external code.
  std::unordered_set<std::string> pure_functions;

  // The subset of pure_functions additionally free of any OBSERVABLE
  // host interaction (browser:alert/prompt/confirm, fn:trace). A pure
  // listener may still pop an alert box on every event; only functions
  // in this set may be served from the plug-in's memo cache without
  // re-running them.
  std::unordered_set<std::string> memoizable_functions;

  // The subset of pure_functions additionally free of INTERACTIVE host
  // calls (browser:prompt/confirm, which block on user input). Dialogs
  // and fn:trace output are fine: a worker slot buffers them and the
  // commit replays them in order. A `behind` call to a function in this
  // set completes as an off-thread unit (PERFORMANCE.md §5).
  std::unordered_set<std::string> parallel_safe_functions;

  // Inferred read/write effect summaries per declared function (same
  // keys). Ordered map so `xq_lint --effects` dumps deterministically.
  std::map<std::string, Effects> function_effects;

  // Union of every name read anywhere in the page's modules; ⊤ when any
  // read is unanalyzable. Drives the XQSA036 dead-update lint.
  EffectSet all_reads;

  static std::string FunctionKey(const std::string& clark, size_t arity) {
    return clark + "#" + std::to_string(arity);
  }
};

}  // namespace xqib::xquery::analysis

#endif  // XQIB_XQUERY_ANALYSIS_FACTS_H_
