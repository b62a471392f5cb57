// A simulated HTTP fabric. The paper's applications talk to REST
// services (weather, web cams, the Elsevier MarkLogic XML database); we
// have no network, so requests resolve against in-process resources and
// handlers, with a configurable latency model and per-request accounting
// — exactly what the Figure 2 off-loading experiment needs to measure.
//
// Two clock views coexist in the stats. `simulated_latency_ms` is the
// classic sum over every round trip (what a fully serial client pays).
// `makespan_ms` is the virtual wall clock: requests issued through
// `Fetch` while earlier fetches are still outstanding land inside the
// open in-flight window, so only the portion extending past the window
// adds makespan — the rest accrues to `overlapped_ms`. Eight concurrent
// fetches of equal latency L cost 8L of summed latency but only ~L of
// makespan, which is the fig3 mash-up speedup this fabric exists to
// measure.

#ifndef XQIB_NET_HTTP_H_
#define XQIB_NET_HTTP_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "base/counters.h"
#include "base/result.h"
#include "browser/event_loop.h"
#include "net/response_cache.h"

namespace xqib::net {

class HttpFabric;

struct HttpRequest {
  std::string method = "GET";
  std::string url;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string body;
  std::string content_type = "application/xml";
};

// An awaitable, composable handle to an in-flight fabric request.
// `Await` blocks until the response is ready and advances the fabric's
// virtual clock to the request's completion time (idempotently — the
// first settle wins); `Then` posts the completion to the event loop
// instead, like the paper's `behind` construct. Copyable: copies share
// one completion state.
class HttpFuture {
 public:
  HttpFuture() = default;

  bool valid() const { return state_ != nullptr; }
  bool ready() const;
  // Simulated round-trip latency of this request (0 for a cache hit).
  double latency_ms() const;

  Result<HttpResponse> Await();

  // Delivers the response on `loop` after the simulated latency elapses.
  // The callback runs on the loop thread (it may mutate the DOM).
  void Then(browser::EventLoop* loop,
            std::function<void(Result<HttpResponse>)> callback);

 private:
  friend class HttpFabric;

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    // Whether this future's completion already advanced the fabric's
    // virtual clock (Await and Then race benignly; first settle wins).
    bool clock_settled = false;
    Result<HttpResponse> response = Status::Error("NETW0000", "pending");
    double issue_ms = 0;
    double complete_ms = 0;
    double latency_ms = 0;
    HttpFabric* fabric = nullptr;
  };

  explicit HttpFuture(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class HttpFabric {
 public:
  using Handler = std::function<Result<HttpResponse>(const HttpRequest&)>;

  struct LatencyModel {
    double base_ms = 20.0;    // per-request round-trip floor
    double per_kb_ms = 0.5;   // transfer cost
  };

  // Relaxed atomics: one fabric serves every session, so concurrently
  // running strands account here; window accounting itself is guarded
  // by the fabric's clock mutex and only published through these.
  struct Stats {
    base::RelaxedCounter requests;
    base::RelaxedCounter bytes_served;
    base::RelaxedDouble simulated_latency_ms;  // sum over all requests
    // Virtual wall clock: latency that could not hide inside an open
    // in-flight window. Serial traffic: makespan == latency sum.
    base::RelaxedDouble makespan_ms;
    // Latency absorbed by overlapping an already-open window.
    base::RelaxedDouble overlapped_ms;
    base::RelaxedCounter inflight_peak;  // max concurrently outstanding
    // Response-cache traffic (0 unless a cache is attached). Hits cost
    // zero latency and do not count as requests.
    base::RelaxedCounter cache_hits;
    base::RelaxedCounter cache_misses;
  };

  // Registers a static resource.
  void PutResource(const std::string& url, std::string body,
                   std::string content_type = "application/xml");
  bool HasResource(const std::string& url) const;

  // Registers a dynamic handler for all URLs starting with `url_prefix`.
  // Longest matching prefix wins; static resources take priority.
  void SetHandler(const std::string& url_prefix, Handler handler);

  // Synchronous round trip (simulated latency is accounted in stats).
  Result<HttpResponse> Perform(const HttpRequest& request);
  Result<HttpResponse> Get(const std::string& url) {
    return Perform(HttpRequest{"GET", url, ""});
  }
  Result<HttpResponse> Put(const std::string& url, std::string body);

  // Issues a request whose latency overlaps other outstanding fetches on
  // the virtual clock (see the file comment). The response is resolved
  // against the fabric's state at issue time; `Await`/`Then` on the
  // returned future deliver it and settle the clock.
  HttpFuture Fetch(const HttpRequest& request);
  HttpFuture FetchGet(const std::string& url) {
    return Fetch(HttpRequest{"GET", url, ""});
  }

  // Asynchronous round trip: the callback fires on `loop` after the
  // simulated latency elapses (drives the paper's "behind" construct).
  // Implemented as Fetch(...).Then(...), so concurrent GetAsyncs overlap
  // on the virtual clock.
  void GetAsync(const std::string& url, browser::EventLoop* loop,
                std::function<void(Result<HttpResponse>)> callback);

  double LatencyForBytes(size_t bytes) const {
    return latency.base_ms +
           latency.per_kb_ms * (static_cast<double>(bytes) / 1024.0);
  }

  // Accounts one request/response of `bytes` without resolving anything
  // (used by the web-service layer, whose payloads are in-process).
  // Returns the simulated latency charged.
  double RecordRoundTrip(size_t bytes);

  // Attaches a response cache (e.g. HttpResponseCache::Global()); null
  // detaches. Successful GETs populate it, PUT/PutResource invalidate
  // the written URL, SetHandler invalidates its whole prefix.
  void set_response_cache(HttpResponseCache* cache) { cache_ = cache; }
  HttpResponseCache* response_cache() const { return cache_; }

  // The fabric's virtual clock (advances with simulated round trips).
  double VirtualNow() const;

  LatencyModel latency;
  const Stats& stats() const { return stats_; }
  void ResetStats();

 private:
  friend class HttpFuture;

  Result<HttpResponse> Resolve(const HttpRequest& request);
  // The one longest-prefix lookup shared by Resolve and Put: copies the
  // winning handler out under the shared lock so callers invoke it
  // unlocked (handlers may re-enter the fabric, e.g. PutResource).
  bool FindHandler(const std::string& url, Handler* out) const;

  // Cache probe/populate around a GET; returns true on a hit.
  bool CacheLookup(const HttpRequest& request, HttpResponse* out);
  void CacheStore(const HttpRequest& request,
                  const Result<HttpResponse>& response);

  // Serial round trip of latency L: advances the virtual clock, charges
  // makespan for whatever part of L extends past the open window.
  void AccountSerial(double latency_ms, size_t bytes);
  // Overlapping fetch: issues at the current virtual clock *without*
  // advancing it; fills the future's issue/completion times.
  void AccountFetch(double latency_ms, size_t bytes, HttpFuture::State* s);
  // Completion of a fetch issued earlier: virtual clock catches up to
  // the completion time, in-flight count drops.
  void SettleFetch(double complete_ms);

  struct Resource {
    std::string body;
    std::string content_type;
  };
  // REST handlers running on session strands mutate these tables (e.g.
  // a PUT handler calling PutResource) while other strands resolve
  // concurrently.
  mutable std::shared_mutex tables_mu_;
  std::unordered_map<std::string, Resource> resources_;
  // Ordered map so the longest matching prefix can be found reliably.
  std::map<std::string, Handler> handlers_;

  // Virtual-clock window state (see the file comment).
  mutable std::mutex clock_mu_;
  double virtual_now_ms_ = 0;
  double window_end_ms_ = 0;
  int inflight_ = 0;

  HttpResponseCache* cache_ = nullptr;
  Stats stats_;
};

}  // namespace xqib::net

#endif  // XQIB_NET_HTTP_H_
