// The builtin function library: every fn: function and xs: constructor
// function the engine implements (XQuery 1.0 and XPath 2.0 Functions
// and Operators, reference [9] of the paper), one row each. The table in
// functions.cc is the only list of the library. The analyzer's scope
// and type passes, the effect walker, the optimizer, the evaluator and
// the dispatcher all read a call's row, found by FindBuiltin on its
// interned name.

#ifndef XQIB_XQUERY_FUNCTIONS_H_
#define XQIB_XQUERY_FUNCTIONS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "xdm/item.h"
#include "xdm/stream.h"
#include "xml/qname.h"
#include "xquery/analysis/facts.h"
#include "xquery/counters.h"

namespace xqib::xquery {

class DynamicContext;

// What a builtin does besides computing its result from its arguments'
// values, and what it promises about that result. A row ORs them.
enum BuiltinFact : uint16_t {
  kReadsPosition = 1 << 0,   // the focus position (fn:position)
  kReadsLast = 1 << 1,       // the focus size (fn:last)
  kReadsClock = 1 << 2,      // the dynamic context's clock
  kReadsDocuments = 1 << 3,  // documents other than the page (fn:doc)
  kReadsAnywhere = 1 << 4,   // any node of its argument's document
  kObservesHost = 1 << 5,    // the host sees the call (the trace sink)
  kWritesFabric = 1 << 6,    // may write documents outside the page
  kAtomicResult = 1 << 7,    // the result never carries nodes
  // Reads its arguments' count, identity or names, never their content.
  kSkimsArguments = 1 << 8,
  // Observes only whether its first argument is empty: a streamed
  // argument may arrive out of document order and with duplicates.
  kEmptinessOnly = 1 << 9,
  // A boolean test the optimizer's position-free proof admits as a step
  // predicate (PositionFreePredicate).
  kBooleanTest = 1 << 10,
};

struct Builtin {
  // The implementation over evaluated arguments.
  using Plain = Result<xdm::Sequence> (*)(const Builtin& self,
                                          std::vector<xdm::Sequence>& args,
                                          DynamicContext& ctx);
  // The implementation of a builtin that pulls its first argument: arg0
  // is pulled lazily, `rest` holds the remaining (evaluated) arguments,
  // and the early exits, avoided buffers and materialized atoms are
  // counted into `counters`.
  using Streaming = Result<xdm::Sequence> (*)(
      const Builtin& self, xdm::ItemStream& arg0,
      std::span<const xdm::Sequence> rest, Counters& counters);
  static constexpr uint8_t kVariadic = 0xff;

  bool xs = false;  // an xs: constructor function, else an fn: function
  std::string_view local;
  uint8_t min_arity = 0;
  uint8_t max_arity = 0;  // kVariadic: no upper bound
  // Exactly one of the two is set.
  Plain plain = nullptr;
  Streaming streaming = nullptr;
  // The analyzer's inferred result.
  analysis::ItemClass result_class = analysis::ItemClass::kAnyItem;
  analysis::Cardinality result_card;
  uint16_t facts = 0;  // BuiltinFact bits
  // The target type of an xs: constructor function.
  xdm::AtomicType cast_to = xdm::AtomicType::kUntypedAtomic;

  bool Has(BuiltinFact fact) const { return (facts & fact) != 0; }
  bool AcceptsArity(size_t n) const {
    return n >= min_arity && (max_arity == kVariadic || n <= max_arity);
  }
  // "fn:count", "xs:integer".
  std::string Lexical() const {
    return (xs ? "xs:" : "fn:") + std::string(local);
  }
};

// The row `name` names; null when it is no builtin.
const Builtin* FindBuiltin(const xml::QName& name);

// Every row of the library.
std::span<const Builtin> BuiltinLibrary();

// Calls `builtin` with evaluated arguments, the one arity check of the
// library: XPST0017 unless the row accepts args.size(). A streaming
// builtin reads its first argument through a cursor; since nothing is
// avoided or cut short, its counts go nowhere.
Result<xdm::Sequence> CallBuiltin(const Builtin& builtin,
                                  std::vector<xdm::Sequence>& args,
                                  DynamicContext& ctx);

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_FUNCTIONS_H_
