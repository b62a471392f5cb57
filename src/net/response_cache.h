// Process-wide HTTP response cache: successful GET responses are stored
// under their URL with a TTL measured on the fabric's virtual clock, and
// writes through the fabric (PUT, PutResource, SetHandler) invalidate
// the affected entries. One instance is shared by every PageServer
// session, so the first session to fetch a source warms all of them.

#ifndef XQIB_NET_RESPONSE_CACHE_H_
#define XQIB_NET_RESPONSE_CACHE_H_

#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "base/counters.h"

namespace xqib::net {

struct HttpResponse;

class HttpResponseCache {
 public:
  struct Stats {
    base::RelaxedCounter hits;
    base::RelaxedCounter misses;
    base::RelaxedCounter inserts;
    base::RelaxedCounter invalidations;
    base::RelaxedCounter expirations;
  };
  struct UrlStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  // The process-wide instance every fabric can attach (opt-in; a fabric
  // without an attached cache behaves exactly as before).
  static HttpResponseCache* Global();

  // Entry lifetime on the fabric's virtual clock; <= 0 disables expiry.
  double ttl_ms() const;
  void set_ttl_ms(double ttl_ms);

  // Copies the cached response into `*out` and returns true on a live
  // hit; expired entries are dropped (counted as expirations + misses).
  bool Lookup(const std::string& url, double now_ms, HttpResponse* out);
  void Insert(const std::string& url, const HttpResponse& response,
              double now_ms);

  void InvalidateUrl(const std::string& url);
  // Drops every entry whose URL starts with `prefix`; returns the count.
  size_t InvalidatePrefix(const std::string& prefix);
  // Drops all entries and per-URL stats (lifetime counters survive; use
  // ResetStats for those).
  void Clear();

  size_t size() const;
  const Stats& stats() const { return stats_; }
  void ResetStats();

  // Per-URL hit/miss tallies, sorted by URL for deterministic dumps.
  std::map<std::string, UrlStats> UrlStatsSnapshot() const;

 private:
  struct Entry {
    // Stored out-of-line so this header needs only a forward declaration
    // of HttpResponse (http.h includes this header).
    int status = 200;
    std::string body;
    std::string content_type;
    double stored_ms = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<std::string, UrlStats> url_stats_;
  double ttl_ms_ = 60'000.0;
  Stats stats_;
};

}  // namespace xqib::net

#endif  // XQIB_NET_RESPONSE_CACHE_H_
