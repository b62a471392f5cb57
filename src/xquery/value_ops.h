// Value-level kernels of the evaluator: arithmetic and comparison over
// already-evaluated sequences, and XQUF pending-update primitive
// construction over already-evaluated operands. The evaluator is their
// only user.

#ifndef XQIB_XQUERY_VALUE_OPS_H_
#define XQIB_XQUERY_VALUE_OPS_H_

#include <cstdint>
#include <string_view>

#include "base/result.h"
#include "xdm/item.h"
#include "xquery/ast.h"
#include "xquery/update.h"

namespace xqib::xquery::valueops {

// Atomizes `seq` and requires exactly one atomic value (XPTY0004
// otherwise); `what` names the construct for the error message.
Result<xdm::AtomicValue> RequireSingleAtomic(const xdm::Sequence& seq,
                                             std::string_view what);

// Full comparison semantics over evaluated operands: node comparisons
// (is / << / >>), existential general comparisons, and singleton value
// comparisons with untyped-to-string promotion.
Result<xdm::Sequence> CompareSequences(CompOp op, const xdm::Sequence& lhs,
                                       const xdm::Sequence& rhs);

// Unary +/- over an evaluated operand (empty in, empty out).
Result<xdm::Sequence> ArithUnary(ArithOp op, const xdm::Sequence& v);

// Binary arithmetic over evaluated operands: integer fast path with
// exact-division decimal promotion, double path otherwise, FOAR0001 on
// zero divisors.
Result<xdm::Sequence> ArithSequences(ArithOp op, const xdm::Sequence& lhs,
                                     const xdm::Sequence& rhs);

// --- XQUF pending-update construction (operands already evaluated) ---
//
// Each builder performs the target/content checks of the corresponding
// update expression and appends primitives to `pul`. The evaluating side
// only contributes operand evaluation order.
//
// Insert and replace put the source's nodes into the target's document:
// deep copies, adding the nodes copied to `*copied`; or, when `fresh`
// (the source was built in place there, Expr::takes_fresh), the nodes
// themselves.

Status BuildInsert(InsertMode mode, const xdm::Sequence& source,
                   const xdm::Sequence& target_seq, bool fresh,
                   PendingUpdateList* pul, uint64_t* copied);
Status BuildDelete(const xdm::Sequence& targets, PendingUpdateList* pul);
Status BuildReplace(bool replace_value_of, const xdm::Sequence& target_seq,
                    const xdm::Sequence& source, bool fresh,
                    PendingUpdateList* pul, uint64_t* copied);
Status BuildRename(const xdm::Sequence& target_seq,
                   const xdm::Sequence& name_seq, PendingUpdateList* pul);

}  // namespace xqib::xquery::valueops

#endif  // XQIB_XQUERY_VALUE_OPS_H_
