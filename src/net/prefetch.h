// Scatter-gather prefetch over the HTTP fabric: the evaluator's async
// federation pass hands every statically-known remote GET URL here
// before the tuple loop / listener body runs, each becomes one
// HttpFabric::Fetch, and their simulated latencies overlap inside one
// in-flight window. The http:get externals then consume the issued
// futures instead of performing fresh serial round trips. One instance
// per page; dispatch boundaries call Drain so a stale response can
// never satisfy a later dispatch.

#ifndef XQIB_NET_PREFETCH_H_
#define XQIB_NET_PREFETCH_H_

#include <mutex>
#include <string>
#include <unordered_map>

#include "base/counters.h"
#include "net/http.h"
#include "xquery/context.h"

namespace xqib::net {

class HttpPrefetcher : public xquery::UrlPrefetcher {
 public:
  struct Stats {
    base::RelaxedCounter issued;  // fetches scattered ahead of need
    base::RelaxedCounter hits;    // consumed by a later http:get
  };

  explicit HttpPrefetcher(HttpFabric* fabric) : fabric_(fabric) {}

  // Issues one overlapping fetch for `url`; a URL already in flight is
  // not re-issued. Thread-safe.
  void Prefetch(const std::string& url) override;

  // Claims the in-flight future for `url` (each issue satisfies exactly
  // one consumer). Returns false when nothing was prefetched.
  bool Take(const std::string& url, HttpFuture* out);

  // Settles and drops every unconsumed future — called at dispatch
  // boundaries so responses resolved against an earlier fabric state
  // cannot leak into the next dispatch. Returns how many were dropped.
  size_t Drain();

  size_t pending() const;
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  HttpFabric* fabric_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, HttpFuture> pending_;
  Stats stats_;
};

}  // namespace xqib::net

#endif  // XQIB_NET_PREFETCH_H_
