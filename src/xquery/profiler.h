// Query profiler — one of the paper's §7 future-work tools ("we are
// working on tools for XQuery development … like a debugger, performance
// profiler"). Attached to a DynamicContext, it records per-AST-node
// evaluation counts and cumulative time, and renders a hot-spot report.
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

#include "base/counters.h"
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

  // Path fast-path and streaming-pipeline counters: bumped by the
  // evaluator alongside its own stats whenever a profiler is attached,
  // and appended to Report() so hot-spot dumps show how often the fast
  // paths fired and how lazy the pipeline stayed.
  // Relaxed atomics, like every stats struct (base/counters.h).
  // Per-expression Entry records are loop-thread-only; worker-slot
  // evaluators run without a profiler.
  struct FastPathCounters {
    base::RelaxedCounter sorts_performed;
    base::RelaxedCounter sorts_elided;
    base::RelaxedCounter name_index_hits;
    base::RelaxedCounter early_exits;
    // fn:count answered straight from the element-name index.
    base::RelaxedCounter count_index_hits;
    // Streaming pipeline: items crossing operator edges lazily, items
    // copied into Sequence buffers, and operator edges kept lazy.
    base::RelaxedCounter items_pulled;
    base::RelaxedCounter items_materialized;
    base::RelaxedCounter buffers_avoided;
    // Memory layer: bytes bump-allocated for stream operators, wholesale
    // arena resets, and a snapshot of process-wide intern-pool hits
    // (refreshed at every arena reset).
    base::RelaxedCounter arena_bytes_used;
    base::RelaxedCounter arena_resets;
    base::RelaxedCounter intern_hits;
    // Compiled-plan dispatch: calls executed through a register plan vs
    // compiled_plans-on calls that fell back to the tree walker.
    base::RelaxedCounter plan_hits;
    base::RelaxedCounter plan_misses;
    // Delta propagation: structured PUL deltas emitted, per-bucket index
    // splices, full index rebuilds avoided, listeners skipped unrun.
    base::RelaxedCounter delta_emitted;
    base::RelaxedCounter delta_index_splices;
    base::RelaxedCounter delta_bucket_rebuilds_avoided;
    base::RelaxedCounter delta_listeners_skipped;
    // Async federation: shared response-cache traffic and scatter-gather
    // prefetches (issued ahead of need / consumed by http:get).
    base::RelaxedCounter http_cache_hits;
    base::RelaxedCounter http_cache_misses;
    base::RelaxedCounter http_prefetch_issued;
    base::RelaxedCounter http_prefetch_hits;
  };
  FastPathCounters& fast_path() { return fast_path_; }
  const FastPathCounters& fast_path() const { return fast_path_; }

  // Entries sorted by self time, descending.
  std::vector<Entry> HotSpots() const;

  // A human-readable table of the top `limit` entries.
  std::string Report(size_t limit = 20) const;

  uint64_t total_evaluations() const;
  void Clear() {
    entries_.clear();
    fast_path_ = FastPathCounters{};
  }

 private:
  std::unordered_map<const Expr*, Entry> entries_;
  double child_time_ = 0;
  FastPathCounters fast_path_;
};

// Short human-readable label for an expression ("FLWOR", "path //a/b",
// "call fn:count", ...). Used by the profiler report.
std::string DescribeExpr(const Expr& expr);

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_PROFILER_H_
