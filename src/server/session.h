// One hosted page session of the multi-tenant page server
// (PERFORMANCE.md §9): a full client stack — headless browser, XQIB
// plug-in, optional MiniJS engine — executed server-side, the paper's
// §6 shopping-cart scenario run at scale and WebScript-style
// server-side page scripting.
//
// Isolation/sharing split: everything a session owns (DOM, event loop,
// listener registry, arenas, memo cache, name indexes, delta windows,
// per-dispatch stats) is private to it — no cross-session locks on the
// dispatch hot path. Everything read-mostly and process-wide (the
// QName/string interning pool, the backend HTTP fabric with its
// response cache and web-service host, the work-stealing thread pool)
// is shared: N sessions pointer-compare each other's names.
//
// Concurrency model: the session is one serial strand. Events enqueue
// from any thread; at most one drain runs at a time, on a shared-pool
// worker (or inline when the server is serial), and that drain thread
// IS the session's "loop thread" for the duration. Everything inside a
// drain — listener dispatch, `behind` completions, path scans — runs
// on that one thread, so per-session execution is deterministic at
// every pool size. The shared pool's only job is to run drains: it is
// the sole source of concurrency in the process.

#ifndef XQIB_SERVER_SESSION_H_
#define XQIB_SERVER_SESSION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "browser/bom.h"
#include "browser/security.h"
#include "minijs/dom_binding.h"
#include "net/http.h"
#include "net/webservice.h"
#include "plugin/plugin.h"

namespace xqib::server {

// One client interaction, addressed by element id (what a real HTTP
// client can name). Target resolution happens at dispatch time against
// the session's current DOM.
struct SessionEvent {
  std::string target_id;
  std::string type = "onclick";
  std::string value;  // Event::value payload (text-box content etc.)
};

class Session : public std::enable_shared_from_this<Session> {
 public:
  struct Options {
    bool enable_minijs = true;
    browser::SecurityPolicy::Mode security =
        browser::SecurityPolicy::Mode::kSameOrigin;
  };

  // `latency_us` is enqueue-to-completion (queue wait included): the
  // number the load harness feeds its percentile summaries.
  using Completion = std::function<void(const Status&, double latency_us)>;

  // `backend` serves the pages' own REST traffic, `services` their
  // web-service imports, `pool` runs this session's drains — all owned
  // by the PageServer, shared across sessions, never by this session. Sessions must be owned by shared_ptr (the PageServer
  // creates them): pool drains keep the session alive via
  // shared_from_this.
  Session(std::string id, uint64_t seq, net::HttpFabric* backend,
          net::ServiceHost* services, base::ThreadPool* pool,
          const Options& options);

  // Page load (runs the page's scripts — Figure 1 steps 2-5). Call
  // before the first Submit, on the creating thread.
  Status Navigate(const std::string& url);  // source via the backend
  Status LoadSource(const std::string& url, const std::string& source);

  const std::string& id() const { return id_; }
  uint64_t seq() const { return seq_; }
  const std::string& page_url() const { return page_url_; }

  // The hot path: enqueues the event and, if no drain is in flight,
  // schedules one on the shared pool (inline when serial). `done` runs
  // on the draining thread right after the event's dispatch quiesced.
  // Thread-safe; per-session FIFO order is submission order.
  void Submit(SessionEvent event, Completion done = nullptr);

  // Blocks until the queue is empty and no drain is running.
  void WaitIdle();

  // Serialized current DOM (the determinism oracle's byte-compare
  // channel). Takes the strand, so the snapshot is between-events
  // consistent.
  std::string SerializeDom();

  struct StatsSnapshot {
    uint64_t enqueued = 0;
    uint64_t dispatched = 0;
    uint64_t errors = 0;  // missing target or script error
    uint64_t alerts = 0;  // browser:alert output drained (and dropped)
    // Non-page documents (constructions, parsed responses) the page
    // still holds after its last dispatch, and their nodes.
    uint64_t retained_documents = 0;
    uint64_t retained_nodes = 0;
  };
  StatsSnapshot stats() const;

  // Moves out the recorded per-event latency samples (µs). Call only
  // when idle (after WaitIdle / DrainAll).
  std::vector<double> TakeLatencySamples();

  // Per-session internals for tests and introspection.
  browser::Browser& browser() { return browser_; }
  plugin::XqibPlugin& plugin() { return *plugin_; }

 private:
  struct Pending {
    SessionEvent event;
    Completion done;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  void Drain();
  void Execute(Pending& pending);
  std::string ScriptErrors() const;

  const std::string id_;
  const uint64_t seq_;
  base::ThreadPool* pool_;  // shared, not owned; null = inline serial
  browser::Browser browser_;
  std::unique_ptr<plugin::XqibPlugin> plugin_;
  std::unique_ptr<minijs::DomBinding> js_;
  std::string page_url_;

  // Scheduling state: which events are queued and whether a drain owns
  // the strand.
  std::mutex queue_mu_;
  std::condition_variable idle_cv_;
  std::deque<Pending> queue_;
  bool draining_ = false;

  // The strand itself: held for the whole of every drain (and by
  // SerializeDom); whichever thread holds it is the session's loop
  // thread.
  std::mutex run_mu_;

  std::atomic<uint64_t> enqueued_{0};
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> alerts_{0};
  std::vector<double> latency_us_;  // guarded by run_mu_
};

}  // namespace xqib::server

#endif  // XQIB_SERVER_SESSION_H_
