// Query profiler — one of the paper's §7 future-work tools ("we are
// working on tools for XQuery development … like a debugger, performance
// profiler"). Attached to a DynamicContext, it records per-AST-node
// evaluation counts and cumulative time, and renders a hot-spot report.
// Fast-path and pipeline counts live in the evaluator's dispatch
// counter set (xquery/counters.h).
//
// Usage:
//   Profiler profiler;
//   ctx.profiler = &profiler;
//   compiled->Run(ctx);
//   std::cout << profiler.Report(10);

#ifndef XQIB_XQUERY_PROFILER_H_
#define XQIB_XQUERY_PROFILER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "xquery/ast.h"

namespace xqib::xquery {

class Profiler {
 public:
  struct Entry {
    const Expr* expr = nullptr;
    uint64_t count = 0;
    double total_us = 0;   // inclusive (children included)
    double self_us = 0;    // exclusive
  };

  // Called by the evaluator around each Eval (when attached).
  void Record(const Expr* expr, double inclusive_us, double child_us) {
    Entry& e = entries_[expr];
    e.expr = expr;
    ++e.count;
    e.total_us += inclusive_us;
    e.self_us += inclusive_us - child_us;
  }

  // Running child-time accumulator used to compute self time.
  double* child_time_slot() { return &child_time_; }

  // Entries sorted by self time, descending.
  std::vector<Entry> HotSpots() const;

  // A human-readable table of the top `limit` entries.
  std::string Report(size_t limit = 20) const;

  uint64_t total_evaluations() const;
  void Clear() { entries_.clear(); }

 private:
  std::unordered_map<const Expr*, Entry> entries_;
  double child_time_ = 0;
};

// Short human-readable label for an expression ("FLWOR", "path //a/b",
// "call fn:count", ...). Used by the profiler report.
std::string DescribeExpr(const Expr& expr);

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_PROFILER_H_
