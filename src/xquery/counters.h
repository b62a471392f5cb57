// The dispatch counter set: every counter the evaluator and the plug-in
// bump, declared once in the list below with its name and meaning. The
// struct, its `+=`, its difference and its for-each-by-name are all
// generated from that list, so adding a counter takes one line here plus
// the line that bumps it.
//
// Every field is a monotone relaxed counter (base/counters.h): copying a
// set snapshots it, and `after - before` is what moved in between. An
// evaluator counts into its own set, or into the one its host passes at
// construction; the plug-in's cumulative set receives every page
// evaluator's counts, and XqibPlugin::last_event_stats() is the
// difference across one listener invocation.
//
// plan_compiles, plan_hits and plan_misses are never bumped: every
// declared function call runs through the tree walker. They stay only
// because the end-to-end benchmark (perfbench/e2e.cc) reads them.

#ifndef XQIB_XQUERY_COUNTERS_H_
#define XQIB_XQUERY_COUNTERS_H_

#include "base/counters.h"

namespace xqib::xquery {

// X(type, name, meaning): type is RelaxedCounter or RelaxedDouble.
#define XQIB_DISPATCH_COUNTERS(X)                                             \
  X(RelaxedCounter, sorts_performed, "path steps that sorted and deduped")    \
  X(RelaxedCounter, sorts_elided, "path steps proven to need no sort")        \
  X(RelaxedCounter, name_index_hits, "//name steps served by the name index") \
  X(RelaxedCounter, early_exits, "bounded consumers that stopped pulling")    \
  X(RelaxedCounter, count_index_hits, "fn:count served by an index bucket")   \
  X(RelaxedCounter, items_pulled, "items pulled across lazy operator edges")  \
  X(RelaxedCounter, items_materialized, "items copied into Sequence buffers") \
  X(RelaxedCounter, buffers_avoided, "operator edges kept lazy")              \
  X(RelaxedCounter, arena_bytes_used, "stream-operator bytes bump-allocated") \
  X(RelaxedCounter, arena_resets, "wholesale dispatch-arena resets")          \
  X(RelaxedCounter, intern_hits, "intern-pool hits inside listener calls")    \
  X(RelaxedCounter, plan_compiles, "always 0, read by perfbench/")            \
  X(RelaxedCounter, plan_hits, "always 0, read by perfbench/")                \
  X(RelaxedCounter, plan_misses, "always 0, read by perfbench/")              \
  X(RelaxedCounter, memo_hits, "listener calls replayed from the memo")       \
  X(RelaxedCounter, memo_misses, "memoizable calls with no memo entry")       \
  X(RelaxedCounter, memo_invalidations, "stale memo entries discarded")       \
  X(RelaxedCounter, pure_listener_skips, "pure listener calls not applied")   \
  X(RelaxedCounter, delta_emitted, "apply passes that emitted a delta")       \
  X(RelaxedCounter, delta_index_splices, "name-index buckets spliced")        \
  X(RelaxedCounter, delta_bucket_rebuilds_avoided, "index rebuilds spliced")  \
  X(RelaxedCounter, delta_listeners_skipped, "memo hits proven by a delta")   \
  X(RelaxedCounter, http_requests, "fabric round trips")                      \
  X(RelaxedCounter, http_cache_hits, "GETs answered by the response cache")   \
  X(RelaxedCounter, http_cache_misses, "GETs the response cache missed")      \
  X(RelaxedCounter, http_prefetch_issued, "GETs scattered ahead of need")     \
  X(RelaxedCounter, http_prefetch_hits, "scattered GETs consumed")            \
  X(RelaxedCounter, http_scatter_batches, "FLWOR URL batches scattered")      \
  X(RelaxedDouble, http_makespan_ms, "virtual network time charged")          \
  X(RelaxedDouble, http_overlapped_ms, "virtual network time overlapped")

struct Counters {
#define XQIB_COUNTER_FIELD(type, name, meaning) base::type name;
  XQIB_DISPATCH_COUNTERS(XQIB_COUNTER_FIELD)
#undef XQIB_COUNTER_FIELD

  // Zero counters cost no atomic write: most of a dispatch's are zero.
  Counters& operator+=(const Counters& o) {
#define XQIB_COUNTER_ADD(type, name, meaning) \
  if (o.name != 0) name += o.name;
    XQIB_DISPATCH_COUNTERS(XQIB_COUNTER_ADD)
#undef XQIB_COUNTER_ADD
    return *this;
  }

  // What moved from `before` to this later snapshot of the same set.
  Counters operator-(const Counters& before) const {
    Counters moved;
#define XQIB_COUNTER_SUB(type, name, meaning) moved.name = name - before.name;
    XQIB_DISPATCH_COUNTERS(XQIB_COUNTER_SUB)
#undef XQIB_COUNTER_SUB
    return moved;
  }

  // Calls f(name, meaning, value) for every counter, in list order; the
  // value is a base::RelaxedCounter or base::RelaxedDouble.
  template <typename F>
  void ForEach(F&& f) const {
#define XQIB_COUNTER_VISIT(type, name, meaning) f(#name, meaning, name);
    XQIB_DISPATCH_COUNTERS(XQIB_COUNTER_VISIT)
#undef XQIB_COUNTER_VISIT
  }
};

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_COUNTERS_H_
