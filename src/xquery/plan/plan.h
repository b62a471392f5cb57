// Inert stand-in for the deleted compiled-plan cache. Every declared
// function call runs through the tree walker; the end-to-end benchmark
// (perfbench/e2e.cc) still reads this cache's insert count, which stays
// 0. Delete with the next change to the benchmark (ROADMAP item 6).

#ifndef XQIB_XQUERY_PLAN_PLAN_H_
#define XQIB_XQUERY_PLAN_PLAN_H_

#include <cstdint>

namespace xqib::xquery::plan {

class PlanCache {
 public:
  struct Stats {
    uint64_t inserts = 0;
  };
  static PlanCache& Global() {
    static PlanCache cache;
    return cache;
  }
  Stats stats() const { return Stats(); }
};

}  // namespace xqib::xquery::plan

#endif  // XQIB_XQUERY_PLAN_PLAN_H_
