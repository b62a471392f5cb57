#include "net/http.h"

#include <algorithm>

namespace xqib::net {

bool HttpFuture::ready() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->ready;
}

double HttpFuture::latency_ms() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->latency_ms;
}

Result<HttpResponse> HttpFuture::Await() {
  if (state_ == nullptr) {
    return Status::Error("NETW0000", "await on an empty HttpFuture");
  }
  State* s = state_.get();
  std::unique_lock<std::mutex> lock(s->mu);
  s->cv.wait(lock, [s] { return s->ready; });
  if (!s->clock_settled) {
    s->clock_settled = true;
    if (s->fabric != nullptr) s->fabric->SettleFetch(s->complete_ms);
  }
  return s->response;
}

void HttpFuture::Then(browser::EventLoop* loop,
                      std::function<void(Result<HttpResponse>)> callback) {
  // The completion is an off-thread unit, so it batches with the other
  // completions due at the same instant: its work is empty and its
  // commit runs the callback (which may mutate the DOM) on the loop
  // thread after every work of the batch.
  std::shared_ptr<State> st = state_;
  loop->PostOffThread(
      [st, cb = std::move(callback)]() -> browser::EventLoop::Task {
        return [st, cb]() {
          {
            std::lock_guard<std::mutex> lock(st->mu);
            if (!st->clock_settled) {
              st->clock_settled = true;
              if (st->fabric != nullptr) {
                st->fabric->SettleFetch(st->complete_ms);
              }
            }
          }
          cb(st->response);
        };
      },
      latency_ms());
}

void HttpFabric::PutResource(const std::string& url, std::string body,
                             std::string content_type) {
  {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    resources_[url] = Resource{std::move(body), std::move(content_type)};
  }
  if (cache_ != nullptr) cache_->InvalidateUrl(url);
}

bool HttpFabric::HasResource(const std::string& url) const {
  std::shared_lock<std::shared_mutex> lock(tables_mu_);
  return resources_.count(url) > 0;
}

void HttpFabric::SetHandler(const std::string& url_prefix, Handler handler) {
  {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    handlers_[url_prefix] = std::move(handler);
  }
  if (cache_ != nullptr) cache_->InvalidatePrefix(url_prefix);
}

bool HttpFabric::FindHandler(const std::string& url, Handler* out) const {
  std::shared_lock<std::shared_mutex> lock(tables_mu_);
  const Handler* best = nullptr;
  size_t best_len = 0;
  for (const auto& [prefix, handler] : handlers_) {
    if (url.compare(0, prefix.size(), prefix) == 0 &&
        prefix.size() >= best_len) {
      best = &handler;
      best_len = prefix.size();
    }
  }
  if (best == nullptr) return false;
  *out = *best;  // copy out: callers invoke with the lock released
  return true;
}

Result<HttpResponse> HttpFabric::Resolve(const HttpRequest& request) {
  if (request.method == "GET") {
    std::shared_lock<std::shared_mutex> lock(tables_mu_);
    auto it = resources_.find(request.url);
    if (it != resources_.end()) {
      return HttpResponse{200, it->second.body, it->second.content_type};
    }
  }
  Handler handler;
  if (FindHandler(request.url, &handler)) return handler(request);
  return Status::Error("NETW0404", "no resource or handler for " +
                                       request.url);
}

bool HttpFabric::CacheLookup(const HttpRequest& request, HttpResponse* out) {
  if (cache_ == nullptr || request.method != "GET") return false;
  if (cache_->Lookup(request.url, VirtualNow(), out)) {
    ++stats_.cache_hits;
    return true;
  }
  ++stats_.cache_misses;
  return false;
}

void HttpFabric::CacheStore(const HttpRequest& request,
                            const Result<HttpResponse>& response) {
  if (cache_ == nullptr || request.method != "GET") return;
  if (response.ok() && response->status == 200) {
    cache_->Insert(request.url, *response, VirtualNow());
  }
}

void HttpFabric::AccountSerial(double latency_ms, size_t bytes) {
  std::lock_guard<std::mutex> lock(clock_mu_);
  ++stats_.requests;
  stats_.bytes_served += bytes;
  stats_.simulated_latency_ms += latency_ms;
  double start = virtual_now_ms_;
  double complete = start + latency_ms;
  double covered =
      std::max(0.0, std::min(window_end_ms_, complete) - start);
  stats_.overlapped_ms += covered;
  stats_.makespan_ms += latency_ms - covered;
  virtual_now_ms_ = complete;
  window_end_ms_ = std::max(window_end_ms_, complete);
}

void HttpFabric::AccountFetch(double latency_ms, size_t bytes,
                              HttpFuture::State* s) {
  std::lock_guard<std::mutex> lock(clock_mu_);
  ++stats_.requests;
  stats_.bytes_served += bytes;
  stats_.simulated_latency_ms += latency_ms;
  // Issue at the current clock without advancing it: the next fetch
  // issues at the same instant and its latency hides under this one.
  double start = virtual_now_ms_;
  double complete = start + latency_ms;
  double covered =
      std::max(0.0, std::min(window_end_ms_, complete) - start);
  stats_.overlapped_ms += covered;
  stats_.makespan_ms += latency_ms - covered;
  window_end_ms_ = std::max(window_end_ms_, complete);
  ++inflight_;
  if (static_cast<uint64_t>(inflight_) > stats_.inflight_peak.value()) {
    stats_.inflight_peak = static_cast<uint64_t>(inflight_);
  }
  s->issue_ms = start;
  s->complete_ms = complete;
  s->latency_ms = latency_ms;
}

void HttpFabric::SettleFetch(double complete_ms) {
  std::lock_guard<std::mutex> lock(clock_mu_);
  virtual_now_ms_ = std::max(virtual_now_ms_, complete_ms);
  if (inflight_ > 0) --inflight_;
}

double HttpFabric::VirtualNow() const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  return virtual_now_ms_;
}

void HttpFabric::ResetStats() {
  std::lock_guard<std::mutex> lock(clock_mu_);
  stats_ = Stats();
  // Close any open window so old in-flight traffic cannot absorb the
  // next measurement interval's makespan.
  window_end_ms_ = virtual_now_ms_;
  stats_.inflight_peak = static_cast<uint64_t>(inflight_);
}

Result<HttpResponse> HttpFabric::Perform(const HttpRequest& request) {
  HttpResponse cached;
  if (CacheLookup(request, &cached)) return cached;
  Result<HttpResponse> response = Resolve(request);
  size_t bytes = response.ok() ? response->body.size() : 0;
  AccountSerial(LatencyForBytes(bytes), bytes);
  CacheStore(request, response);
  return response;
}

HttpFuture HttpFabric::Fetch(const HttpRequest& request) {
  auto state = std::make_shared<HttpFuture::State>();
  state->fabric = this;
  HttpResponse cached;
  if (CacheLookup(request, &cached)) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->response = std::move(cached);
    double now = VirtualNow();
    state->issue_ms = now;
    state->complete_ms = now;  // a hit costs no simulated latency
    state->ready = true;
    state->cv.notify_all();
    return HttpFuture(std::move(state));
  }
  // Resolve now (the server's state at request time); only the virtual
  // clock treats the round trip as still in flight.
  Result<HttpResponse> response = Resolve(request);
  size_t bytes = response.ok() ? response->body.size() : 0;
  AccountFetch(LatencyForBytes(bytes), bytes, state.get());
  CacheStore(request, response);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->response = std::move(response);
    state->ready = true;
  }
  state->cv.notify_all();
  return HttpFuture(std::move(state));
}

Result<HttpResponse> HttpFabric::Put(const std::string& url,
                                     std::string body) {
  HttpRequest req;
  req.method = "PUT";
  req.url = url;
  req.body = std::move(body);
  AccountSerial(LatencyForBytes(req.body.size()), req.body.size());
  if (cache_ != nullptr) cache_->InvalidateUrl(url);
  // Longest matching prefix, same precedence as Resolve; PUT with no
  // handler stores the resource directly.
  Handler handler;
  if (FindHandler(url, &handler)) return handler(req);
  PutResource(url, std::move(req.body));
  return HttpResponse{201, "", "text/plain"};
}

double HttpFabric::RecordRoundTrip(size_t bytes) {
  double delay = LatencyForBytes(bytes);
  AccountSerial(delay, bytes);
  return delay;
}

void HttpFabric::GetAsync(const std::string& url, browser::EventLoop* loop,
                          std::function<void(Result<HttpResponse>)> callback) {
  FetchGet(url).Then(loop, std::move(callback));
}

}  // namespace xqib::net
