#include "server/session.h"

#include <utility>

#include "xml/serializer.h"

namespace xqib::server {

Session::Session(std::string id, uint64_t seq, net::HttpFabric* backend,
                 net::ServiceHost* services, base::ThreadPool* pool,
                 const Options& options)
    : id_(std::move(id)), seq_(seq), pool_(pool) {
  browser_.policy().set_mode(options.security);
  browser_.page_fetcher =
      [backend](const std::string& url) -> Result<std::string> {
    if (backend == nullptr) {
      return Status::Error("NETW0404", "session has no backend fabric");
    }
    XQ_ASSIGN_OR_RETURN(net::HttpResponse resp, backend->Get(url));
    return resp.body;
  };
  plugin_ = std::make_unique<plugin::XqibPlugin>(&browser_, backend, services);
  plugin_->Install();
  if (options.enable_minijs) {
    js_ = std::make_unique<minijs::DomBinding>(&browser_);
    plugin_->set_foreign_engine(js_.get());
  }
}

Status Session::Navigate(const std::string& url) {
  page_url_ = url;
  XQ_RETURN_NOT_OK(browser_.top_window()->Navigate(url));
  std::string errors = ScriptErrors();
  if (!errors.empty()) {
    return Status::Error("BRWS0005", "script error on load: " + errors);
  }
  return Status();
}

Status Session::LoadSource(const std::string& url, const std::string& source) {
  page_url_ = url;
  XQ_RETURN_NOT_OK(browser_.top_window()->LoadSource(url, source));
  std::string errors = ScriptErrors();
  if (!errors.empty()) {
    return Status::Error("BRWS0005", "script error on load: " + errors);
  }
  return Status();
}

std::string Session::ScriptErrors() const {
  std::string out;
  if (!plugin_->last_script_error().ok()) {
    out += plugin_->last_script_error().ToString();
  }
  if (js_ != nullptr && !js_->last_error().ok()) {
    if (!out.empty()) out += "; ";
    out += js_->last_error().ToString();
  }
  return out;
}

void Session::Submit(SessionEvent event, Completion done) {
  Pending pending;
  pending.event = std::move(event);
  pending.done = std::move(done);
  pending.enqueued_at = std::chrono::steady_clock::now();
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    queue_.push_back(std::move(pending));
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    if (!draining_) {
      draining_ = true;
      schedule = true;
    }
  }
  if (!schedule) return;  // the in-flight drain will pick it up
  if (pool_ != nullptr && pool_->size() > 0) {
    // The drain closure keeps the session alive even if the server
    // drops it from the map before the pool gets to the task.
    auto self = shared_from_this();
    pool_->Submit([self] { self->Drain(); });
  } else {
    Drain();  // serial baseline: the caller is the loop thread
  }
}

void Session::Drain() {
  std::lock_guard<std::mutex> run_lk(run_mu_);
  for (;;) {
    std::deque<Pending> batch;
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      if (queue_.empty()) {
        draining_ = false;
        idle_cv_.notify_all();
        return;
      }
      batch.swap(queue_);
    }
    for (Pending& pending : batch) Execute(pending);
  }
}

void Session::Execute(Pending& pending) {
  Status st;
  xml::Node* target = browser_.top_window()->document()->GetElementById(
      pending.event.target_id);
  if (target == nullptr) {
    st = Status::Error("SRVR0404", "session " + id_ + ": no element with id '" +
                                       pending.event.target_id + "'");
  } else {
    browser::Event event;
    event.type = pending.event.type;
    event.value = pending.event.value;
    plugin_->ClearScriptError();
    st = plugin_->FireEvent(target, std::move(event));
    if (st.ok() && !plugin_->last_script_error().ok()) {
      st = plugin_->last_script_error();
    }
  }
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  if (!st.ok()) errors_.fetch_add(1, std::memory_order_relaxed);
  // The server has no user to show dialogs to: drain the alert channel
  // so long-lived sessions stay bounded, but keep the count.
  if (!plugin_->alerts().empty()) {
    alerts_.fetch_add(plugin_->alerts().size(), std::memory_order_relaxed);
    plugin_->ClearAlerts();
  }
  const double us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - pending.enqueued_at)
          .count();
  latency_us_.push_back(us);
  if (pending.done) pending.done(st, us);
}

void Session::WaitIdle() {
  std::unique_lock<std::mutex> lk(queue_mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && !draining_; });
}

std::string Session::SerializeDom() {
  std::lock_guard<std::mutex> run_lk(run_mu_);
  return xml::Serialize(browser_.top_window()->document()->root());
}

Session::StatsSnapshot Session::stats() const {
  StatsSnapshot snap;
  snap.enqueued = enqueued_.load(std::memory_order_relaxed);
  snap.dispatched = dispatched_.load(std::memory_order_relaxed);
  snap.errors = errors_.load(std::memory_order_relaxed);
  snap.alerts = alerts_.load(std::memory_order_relaxed);
  const plugin::XqibPlugin::Retained retained = plugin_->retained();
  snap.retained_documents = retained.documents;
  snap.retained_nodes = retained.nodes;
  return snap;
}

std::vector<double> Session::TakeLatencySamples() {
  std::lock_guard<std::mutex> run_lk(run_mu_);
  std::vector<double> out;
  out.swap(latency_us_);
  return out;
}

}  // namespace xqib::server
