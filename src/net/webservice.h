// XQuery-module-as-web-service (paper §3.4): a library module declared
// with `module namespace ex="uri" port:2001;` and the option
// `declare option fn:webservice "true";` is deployed on the service
// host. Clients that `import module namespace ab="uri" at "...wsdl"` get
// stub functions that cross the simulated network (one fabric round trip
// per call) and evaluate the function server-side.

#ifndef XQIB_NET_WEBSERVICE_H_
#define XQIB_NET_WEBSERVICE_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "net/http.h"
#include "net/xml_store.h"
#include "xquery/engine.h"

namespace xqib::net {

class ServiceHost {
 public:
  // `fabric` accounts the per-call round trips; `store` (optional) backs
  // fn:doc on the server side.
  ServiceHost(HttpFabric* fabric, XmlStore* store)
      : fabric_(fabric), store_(store) {}

  // Deploys a library module as a service on `host` (e.g.
  // "www.example.ch"). The service URL is http://host:port/.
  Status Deploy(const std::string& source, const std::string& host);

  // Server-side invocation of a deployed function.
  Result<xdm::Sequence> Invoke(const std::string& ns,
                               const xml::QName& function,
                               std::vector<xdm::Sequence> args);

  // Registers client stubs on `ctx` for every function of the service
  // with namespace `ns`: calling a stub performs one fabric round trip
  // and returns the server-side result. Returns NETW0404 if no such
  // service is deployed.
  Status RegisterClientStubs(const std::string& ns,
                             xquery::DynamicContext* ctx);

  // Convenience: register stubs for every import of a compiled module.
  // Imports that match no deployed service are skipped (they may be
  // satisfied by other external functions).
  void RegisterStubsForImports(const xquery::Module& module,
                               xquery::DynamicContext* ctx);

  // By value: a reference into the services map could dangle across a
  // concurrent Deploy replacing the entry.
  std::string ServiceUrl(const std::string& ns) const;

 private:
  struct Service {
    std::string url;  // http://host:port/
    xquery::Engine engine;
    std::unique_ptr<xquery::CompiledQuery> compiled;
    const xquery::Module* module = nullptr;
    // Client stubs may be called from many hosted page sessions at
    // once; each Invoke shares
    // THIS service's compiled query, so execution serializes per
    // deployed service (per host) — the single-threaded server of the
    // paper's model — instead of across the whole host: one session's
    // slow call to service A never stalls another session's call to
    // service B.
    std::mutex invoke_mu;
  };
  std::unordered_map<std::string, std::unique_ptr<Service>> services_;
  // Deploys are rare, invokes are hot: the map itself is read-mostly.
  mutable std::shared_mutex services_mu_;
  HttpFabric* fabric_;
  XmlStore* store_;
};

}  // namespace xqib::net

#endif  // XQIB_NET_WEBSERVICE_H_
