// xqib::server — the multi-tenant page server (the ROADMAP's
// "millions of users" pivot; PERFORMANCE.md §9, DESIGN.md "Server
// architecture"). Hosts many concurrent Page/XqibPlugin sessions in
// one process, executes XQuery pages server-side, and routes every
// session's events through ONE shared work-stealing thread pool. Each
// session is one serial strand; the pool runs strands concurrently and
// is the only concurrency in the process.
//
// The front end reuses the net/http primitives: InstallHttpFrontEnd
// registers REST handlers on a fabric, so anything that can Perform a
// request (tests, examples, hosted pages of another server) is a
// client:
//
//   POST <base>/sessions           body = page source (or ?page=<url>
//                                  to fetch through the backend)
//                                  -> <session id="s1"/>
//   GET  <base>/sessions           -> the sessions/substrate report
//   POST <base>/sessions/<id>/events   body = <event type="onclick"
//                                  target="laptop" value=""/>
//                                  -> <ok latency-us="..."/> (synchronous)
//   GET  <base>/sessions/<id>/dom  -> serialized session DOM
//   POST <base>/sessions/<id>/close

#ifndef XQIB_SERVER_SERVER_H_
#define XQIB_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/thread_pool.h"
#include "net/http.h"
#include "net/webservice.h"
#include "net/xml_store.h"
#include "server/session.h"

namespace xqib::server {

class PageServer {
 public:
  struct Options {
    // Shared pool size. 0 = serial: every Submit executes inline on
    // the calling thread — the determinism oracle's baseline.
    size_t workers = 0;
    Session::Options session;
  };

  explicit PageServer(const Options& options);
  PageServer() : PageServer(Options()) {}
  ~PageServer();

  // The shared backend substrate (configure BEFORE serving traffic:
  // the fabric's resource/handler maps are read-mostly, not locked on
  // the request path).
  net::HttpFabric& backend() { return backend_; }
  net::XmlStore& store() { return store_; }
  net::ServiceHost& services() { return services_; }
  base::ThreadPool* pool() { return pool_.get(); }
  size_t workers() const { return pool_ != nullptr ? pool_->size() : 0; }

  // Session lifecycle. Creation runs the page's scripts on the calling
  // thread; the returned session is live for events immediately.
  Result<std::shared_ptr<Session>> CreateSession(const std::string& page_url);
  Result<std::shared_ptr<Session>> CreateSessionFromSource(
      const std::string& page_url, const std::string& source);
  std::shared_ptr<Session> FindSession(const std::string& id) const;
  Status CloseSession(const std::string& id);
  size_t session_count() const;

  // The hot path: enqueue on the session's strand (see session.h).
  Status SubmitEvent(const std::string& session_id, SessionEvent event,
                     Session::Completion done = nullptr);

  // Blocks until every session's queue has drained.
  void DrainAll();

  // Per-session event counts plus the shared-substrate stats (intern
  // pool, response cache, thread pool) — the operator introspection
  // behind xq_repl's :sessions and GET <base>/sessions.
  std::string FormatSessionsReport() const;

  // Registers the REST endpoints above on `front` under `base_url`.
  // `front` may be the backend fabric itself or a separate one; it must
  // outlive this server. Event POSTs execute synchronously, so don't
  // call them from a hosted page's own script (a pool worker blocking
  // on the pool).
  void InstallHttpFrontEnd(net::HttpFabric* front,
                           const std::string& base_url);

 private:
  Result<std::shared_ptr<Session>> RegisterSession();
  Result<net::HttpResponse> HandleFrontEnd(const net::HttpRequest& request,
                                           const std::string& base_url);

  Options options_;
  net::HttpFabric backend_;
  net::XmlStore store_;
  net::ServiceHost services_;
  std::unique_ptr<base::ThreadPool> pool_;

  mutable std::shared_mutex sessions_mu_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_ = 1;  // guarded by sessions_mu_
};

}  // namespace xqib::server

#endif  // XQIB_SERVER_SERVER_H_
