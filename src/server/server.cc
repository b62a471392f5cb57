#include "server/server.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <utility>

#include "xml/interning.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/plan/plan.h"

namespace xqib::server {

namespace {

// Splits "<base>/sessions/s1/dom?x=y" into segments {"sessions", "s1",
// "dom"} and the raw query string. False if `url` is outside `base`.
bool SplitFrontPath(const std::string& url, const std::string& base,
                    std::vector<std::string>* segments, std::string* query) {
  if (url.compare(0, base.size(), base) != 0) return false;
  std::string rest = url.substr(base.size());
  size_t q = rest.find('?');
  if (q != std::string::npos) {
    *query = rest.substr(q + 1);
    rest.resize(q);
  } else {
    query->clear();
  }
  segments->clear();
  size_t start = 0;
  while (start <= rest.size()) {
    size_t slash = rest.find('/', start);
    if (slash == std::string::npos) slash = rest.size();
    if (slash > start) segments->push_back(rest.substr(start, slash - start));
    start = slash + 1;
  }
  return true;
}

std::string QueryParam(const std::string& query, const std::string& key) {
  size_t start = 0;
  while (start < query.size()) {
    size_t amp = query.find('&', start);
    if (amp == std::string::npos) amp = query.size();
    std::string pair = query.substr(start, amp - start);
    if (pair.compare(0, key.size(), key) == 0 && pair.size() > key.size() &&
        pair[key.size()] == '=') {
      return pair.substr(key.size() + 1);
    }
    start = amp + 1;
  }
  return std::string();
}

// The message often quotes request text (paths, session ids, parse
// errors), so it is escaped: every error body is well-formed XML.
net::HttpResponse ErrorResponse(int status, const std::string& message) {
  return net::HttpResponse{
      status, "<error>" + xml::EscapeText(message) + "</error>",
      "application/xml"};
}

std::string AttrOr(const xml::Node* elem, const char* name,
                   const std::string& fallback) {
  const xml::Node* attr = elem->FindAttribute(name);
  return attr != nullptr ? attr->value() : fallback;
}

}  // namespace

PageServer::PageServer(const Options& options)
    : options_(options), services_(&backend_, &store_) {
  // Sessions share the process-wide response cache, like the plan cache
  // and intern pool: N sessions mashing up the same remote sources pay
  // each round trip once per TTL window, not once per session.
  backend_.set_response_cache(net::HttpResponseCache::Global());
  if (options_.workers > 0) {
    pool_ = std::make_unique<base::ThreadPool>(options_.workers);
  }
}

PageServer::~PageServer() {
  // Queued drains hold shared_ptrs to their sessions; destroying the
  // pool joins the workers, so no drain can outlive the server.
  DrainAll();
  pool_.reset();
}

Result<std::shared_ptr<Session>> PageServer::RegisterSession() {
  std::unique_lock<std::shared_mutex> lk(sessions_mu_);
  uint64_t seq = next_session_++;
  std::string id = "s" + std::to_string(seq);
  auto session = std::make_shared<Session>(id, seq, &backend_, &services_,
                                           pool_.get(), options_.session);
  sessions_.emplace(id, session);
  return session;
}

Result<std::shared_ptr<Session>> PageServer::CreateSession(
    const std::string& page_url) {
  XQ_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, RegisterSession());
  Status st = session->Navigate(page_url);
  if (!st.ok()) {
    (void)CloseSession(session->id());
    return st;
  }
  return session;
}

Result<std::shared_ptr<Session>> PageServer::CreateSessionFromSource(
    const std::string& page_url, const std::string& source) {
  XQ_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, RegisterSession());
  Status st = session->LoadSource(page_url, source);
  if (!st.ok()) {
    (void)CloseSession(session->id());
    return st;
  }
  return session;
}

std::shared_ptr<Session> PageServer::FindSession(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lk(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

Status PageServer::CloseSession(const std::string& id) {
  std::shared_ptr<Session> session;
  {
    std::unique_lock<std::shared_mutex> lk(sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::Error("SRVR0404", "no session '" + id + "'");
    }
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // In-flight drains still hold the shared_ptr; wait them out so close
  // is a clean point (nothing of the session runs afterwards).
  session->WaitIdle();
  return Status();
}

size_t PageServer::session_count() const {
  std::shared_lock<std::shared_mutex> lk(sessions_mu_);
  return sessions_.size();
}

Status PageServer::SubmitEvent(const std::string& session_id,
                               SessionEvent event, Session::Completion done) {
  std::shared_ptr<Session> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::Error("SRVR0404", "no session '" + session_id + "'");
  }
  session->Submit(std::move(event), std::move(done));
  return Status();
}

void PageServer::DrainAll() {
  std::vector<std::shared_ptr<Session>> snapshot;
  {
    std::shared_lock<std::shared_mutex> lk(sessions_mu_);
    snapshot.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) snapshot.push_back(session);
  }
  for (const auto& session : snapshot) session->WaitIdle();
}

std::string PageServer::FormatSessionsReport() const {
  std::vector<std::shared_ptr<Session>> snapshot;
  {
    std::shared_lock<std::shared_mutex> lk(sessions_mu_);
    snapshot.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) snapshot.push_back(session);
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a->seq() < b->seq(); });
  std::ostringstream out;
  out << "--- page server: " << snapshot.size() << " sessions, pool "
      << workers() << " ---\n";
  for (const auto& session : snapshot) {
    Session::StatsSnapshot s = session->stats();
    out << "  " << session->id() << ": url=" << session->page_url()
        << " events=" << s.dispatched << " queued="
        << (s.enqueued - s.dispatched) << " errors=" << s.errors
        << " alerts=" << s.alerts << "\n";
  }
  xml::InternPoolStats intern = xml::GetInternStats();
  out << "  shared substrate:\n";
  out << "    intern pool: " << intern.hits << " hits, " << intern.misses
      << " misses, " << intern.strings << " strings, " << intern.names
      << " names\n";
  xquery::plan::PlanCache& cache = xquery::plan::PlanCache::Global();
  xquery::plan::PlanCache::Stats plans = cache.stats();
  out << "    plan cache: " << cache.size() << " entries, " << plans.hits
      << " hits, " << plans.misses << " misses, " << plans.invalidations
      << " invalidations, " << plans.inserts << " compiles kept, "
      << plans.resident_bytes << " bytes\n";
  net::HttpResponseCache& responses = *net::HttpResponseCache::Global();
  net::HttpResponseCache::Stats rc = responses.stats();
  out << "    response cache: " << responses.size() << " entries, "
      << static_cast<uint64_t>(rc.hits) << " hits, "
      << static_cast<uint64_t>(rc.misses) << " misses, "
      << static_cast<uint64_t>(rc.invalidations) << " invalidations, "
      << static_cast<uint64_t>(rc.expirations) << " expirations\n";
  if (pool_ != nullptr) {
    const base::ThreadPool::Stats& ps = pool_->stats();
    out << "    thread pool: " << pool_->size() << " workers, "
        << static_cast<uint64_t>(ps.submitted) << " tasks, "
        << static_cast<uint64_t>(ps.stolen) << " stolen\n";
  } else {
    out << "    thread pool: none (serial)\n";
  }
  return out.str();
}

void PageServer::InstallHttpFrontEnd(net::HttpFabric* front,
                                     const std::string& base_url) {
  std::string base = base_url;
  if (base.empty() || base.back() != '/') base += '/';
  front->SetHandler(base, [this, base](const net::HttpRequest& request) {
    return HandleFrontEnd(request, base);
  });
}

Result<net::HttpResponse> PageServer::HandleFrontEnd(
    const net::HttpRequest& request, const std::string& base_url) {
  std::vector<std::string> path;
  std::string query;
  if (!SplitFrontPath(request.url, base_url, &path, &query) || path.empty() ||
      path[0] != "sessions") {
    return ErrorResponse(404, "unknown endpoint: " + request.url);
  }

  // POST /sessions — create; GET /sessions — report.
  if (path.size() == 1) {
    if (request.method == "GET") {
      return net::HttpResponse{200, FormatSessionsReport(), "text/plain"};
    }
    if (request.method != "POST") {
      return ErrorResponse(405, "use GET or POST on /sessions");
    }
    Result<std::shared_ptr<Session>> session =
        request.body.empty()
            ? CreateSession(QueryParam(query, "page"))
            : CreateSessionFromSource(QueryParam(query, "page"),
                                      request.body);
    if (!session.ok()) {
      return ErrorResponse(400, session.status().ToString());
    }
    return net::HttpResponse{
        201, "<session id=\"" + (*session)->id() + "\"/>", "application/xml"};
  }

  std::shared_ptr<Session> session = FindSession(path[1]);
  if (session == nullptr) {
    return ErrorResponse(404, "no session '" + path[1] + "'");
  }
  const std::string& verb = path.size() > 2 ? path[2] : path[1];

  if (verb == "dom" && request.method == "GET") {
    return net::HttpResponse{200, session->SerializeDom(), "application/xml"};
  }
  if (verb == "close" && request.method == "POST") {
    XQ_RETURN_NOT_OK(CloseSession(session->id()));
    return net::HttpResponse{200, "<closed/>", "application/xml"};
  }
  if (verb == "events" && request.method == "POST") {
    auto parsed = xml::ParseDocument(request.body);
    if (!parsed.ok()) {
      return ErrorResponse(400, "event body: " + parsed.status().ToString());
    }
    const xml::Node* elem = (*parsed)->DocumentElement();
    if (elem == nullptr) return ErrorResponse(400, "event body: no element");
    SessionEvent event;
    event.target_id = AttrOr(elem, "target", "");
    event.type = AttrOr(elem, "type", "onclick");
    event.value = AttrOr(elem, "value", "");
    if (event.target_id.empty()) {
      return ErrorResponse(400, "event body: missing target attribute");
    }
    // Synchronous semantics: the response carries the event's fate.
    struct Sync {
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
      Status status;
      double latency_us = 0;
    };
    auto sync = std::make_shared<Sync>();
    session->Submit(std::move(event),
                    [sync](const Status& st, double latency_us) {
                      std::lock_guard<std::mutex> lk(sync->mu);
                      sync->status = st;
                      sync->latency_us = latency_us;
                      sync->done = true;
                      sync->cv.notify_all();
                    });
    std::unique_lock<std::mutex> lk(sync->mu);
    sync->cv.wait(lk, [&] { return sync->done; });
    if (!sync->status.ok()) {
      return ErrorResponse(500, sync->status.ToString());
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", sync->latency_us);
    return net::HttpResponse{
        200, "<ok latency-us=\"" + std::string(buf) + "\"/>",
        "application/xml"};
  }
  return ErrorResponse(404, "unknown session endpoint");
}

}  // namespace xqib::server
