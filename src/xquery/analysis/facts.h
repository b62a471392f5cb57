// Facts derived by the static analyzer and consumed elsewhere:
//   * the type lattice's item classes and cardinalities, which the
//     builtin table (xquery/functions.h) states each result in;
//   * inferred cardinalities, keyed by AST node, consumed by the
//     optimizer so cardinality/positional rewrites can fire on inferred
//     (not just syntactic) singletons;
//   * one effect summary per declared function (effects.h), from which
//     the plug-in reads each listener's class (pure, memoizable), read
//     names and fetch URLs, and the evaluator a FLWOR's fabric safety.
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

#include "xquery/analysis/effects.h"

namespace xqib::xquery {
struct Expr;
}  // namespace xqib::xquery

namespace xqib::xquery::analysis {

// Coarse item classes of the analyzer's type lattice: enough to catch
// comparisons that can only raise XPTY0004 at runtime, without a full
// XML Schema type system.
enum class ItemClass {
  kAnyItem,   // unknown / mixed
  kNode,
  kAnyAtomic, // atomic, family unknown
  kUntyped,
  kBoolean,
  kInteger,
  kDecimal,
  kDouble,
  kString,
  kDateTime,
  kDate,
  kTime,
};

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

  // Effect summaries per declared function, keyed "Clark#arity"
  // (FunctionKey). Ordered map so `xq_lint --effects` dumps
  // deterministically.
  std::map<std::string, Effects> function_effects;

  // Union of every name read anywhere in the program's modules (a
  // page's scripts and inline handlers); ⊤ when any read is
  // unanalyzable. Drives the XQSA036 dead-update lint.
  EffectSet all_reads;

  static std::string FunctionKey(const std::string& clark, size_t arity) {
    return clark + "#" + std::to_string(arity);
  }
};

}  // namespace xqib::xquery::analysis

#endif  // XQIB_XQUERY_ANALYSIS_FACTS_H_
