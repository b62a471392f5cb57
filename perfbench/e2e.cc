// xqib_e2e — one run of the end-to-end page-server benchmark on one
// workload (see README.md). It drives a PageServer the way its users
// do: users arrive, open a page through the REST front end, click, and
// leave. Phases, in order:
//
//   setup      generate the workload's inputs from the seed, deploy
//              them, and warm the plan and response caches;
//   latency    open loop: users arrive on a seeded schedule at a fixed
//              offered event rate; each event's latency runs from its
//              scheduled send time to its completion callback;
//   capacity   closed loop: kCapacitySessions users, each session kept
//              exactly one event deep; completed events per second;
//   replay     a fresh serial (pool 0) server replays the latency-phase
//              users and a sample of the capacity-phase users: per-event
//              service time, deterministic network and layer counters,
//              and the byte-equality check of sampled DOMs.
//
// Prints one JSON object on the last line of stdout; run.py runs several
// rounds of one seed, each in its own process with its own users, and
// turns their medians into the benchmark's result line.
//
// Usage: xqib_e2e --workload cart|browse|mashup --seed N --seconds S
//                 --rate EVENTS_PER_SEC [--round R] [--trace FILE]
//                 [--setup-only]

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "net/http.h"
#include "net/response_cache.h"
#include "server/server.h"
#include "workloads.h"
#include "xml/interning.h"
#include "xml/serializer.h"
#include "xquery/plan/plan.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using xqib::Status;
using xqib::net::HttpFabric;
using xqib::net::HttpRequest;
using xqib::net::HttpResponseCache;
using xqib::plugin::XqibPlugin;
using xqib::server::PageServer;
using xqib::server::Session;

constexpr const char* kFrontBase = "http://xqib.server/";
// Share of --seconds given to the open loop's arrivals; the rest is the
// closed loop.
constexpr double kLatencyShare = 0.6;
// Latency-phase statistics skip the first arrivals: about one user
// lifetime (events x think time) of browse and mashup, the time the
// number of live sessions takes to reach its steady state.
constexpr double kLatencyWarmupS = 1.0;
constexpr size_t kCapacitySessions = 16;
// Capacity-phase users replayed serially for the DOM equality check.
constexpr uint64_t kCapacityReplayUsers = 8;
// About this many latency-phase users, spread over the phase, keep their
// sessions until the phase ends, so their DOMs can be serialized off the
// clock and compared with the serial replay's.
constexpr uint64_t kLatencyDomSamples = 12;
// User indices: round R's latency-phase users start at R * kRoundUsers,
// its capacity-phase users kCapacityUserBase later; the warm-up users
// are the same in every round.
constexpr uint64_t kRoundUsers = 1ull << 36;
constexpr uint64_t kCapacityUserBase = 1ull << 32;
constexpr uint64_t kWarmupUserBase = 1ull << 44;
constexpr int kWarmupUsers = 3;
// A failed or refused operation misses every latency limit.
constexpr double kFailedLatencyUs = 1e9;
// A generator whose median lateness exceeds this fell behind its
// schedule (a preempted generator is late now and then; one that cannot
// keep up is late all the time).
constexpr double kGenLagFlagMs = 1.0;
// The capacity window is counted in this many equal time buckets; the
// reported rate is the median bucket's, so a burst of host noise in a
// few buckets does not move it. The first bucket is ramp-up.
constexpr size_t kCapacityBuckets = 16;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Nearest-rank percentile. bench/bench_util.cc has the same function;
// this package does not link bench/, whose runners are due to be retired
// in favour of this benchmark.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// CPU time stolen from this machine by the hypervisor so far, in clock
// ticks, summed over CPUs (the `steal` column of /proc/stat; 0 where the
// kernel does not report it).
uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t field[8] = {};
  stat >> cpu;
  for (uint64_t& f : field) stat >> f;
  return cpu == "cpu" ? field[7] : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t DomHash(Session* session) {
  return HashString(xqib::xml::Serialize(
      session->browser().top_window()->document()->root()));
}

// CPU seconds this process has used (all threads).
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  double rate = 0;
  uint64_t round = 0;
  std::string trace_path;  // non-empty = traced run
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--setup-only") {
      args->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--rate") {
      args->rate = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--round") {
      args->round = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         args->round < kWarmupUserBase / kRoundUsers &&
         (args->setup_only || args->rate > 0);
}

// A traced interval. Spans of one user operation share `op`; `parent`
// is the op-local id of the enclosing span (0 = none).
struct Span {
  const char* name;
  uint64_t op;
  int id;
  int parent;
  double start_us;  // relative to the process's time origin
  double end_us;
};

// Per-dispatch layer counters, summed over events (read from
// last_event_stats() in the completion callback).
struct LayerCounters {
  uint64_t events = 0;
  uint64_t items_pulled = 0, sorts_performed = 0, name_index_hits = 0;
  uint64_t arena_bytes = 0;
  uint64_t delta_emitted = 0, index_splices = 0, rebuilds_avoided = 0;
  uint64_t plan_hits = 0, plan_misses = 0, plan_compiles = 0;
  uint64_t memo_hits = 0, memo_misses = 0, memo_invalidations = 0;
  uint64_t delta_skips = 0;
  uint64_t prefetch_issued = 0, prefetch_hits = 0;

  void Add(const XqibPlugin::EventStats& s) {
    ++events;
    items_pulled += s.items_pulled;
    sorts_performed += s.sorts_performed;
    name_index_hits += s.name_index_hits;
    arena_bytes += s.arena_bytes_used;
    delta_emitted += s.delta_emitted;
    index_splices += s.delta_index_splices;
    rebuilds_avoided += s.delta_bucket_rebuilds_avoided;
    plan_hits += s.plan_hits;
    plan_misses += s.plan_misses;
    plan_compiles += s.plan_compiles;
    memo_hits += s.memo_hits;
    memo_misses += s.memo_misses;
    memo_invalidations += s.memo_invalidations;
    delta_skips += s.delta_listeners_skipped;
    prefetch_issued += s.http_prefetch_issued;
    prefetch_hits += s.http_prefetch_hits;
  }
};

// One user of a loaded phase.
struct LoadedUser {
  UserScript script;
  UserModel model;
  bool sample_dom = false;

  // Guards ready/failed/pending: events due before the session exists
  // wait in `pending` and are sent when the page load completes.
  std::mutex mu;
  bool ready = false;
  bool failed = false;
  std::vector<size_t> pending;

  std::string session_id;
  std::shared_ptr<Session> session;
  std::vector<Clock::time_point> due;  // open loop: scheduled send times
  // Written on the session's strand, read after the phase.
  std::vector<double> latency_us;
  size_t executed = 0;
  double load_start_us = 0;
  double page_load_ms = 0;
  XqibPlugin::InitTiming init;
  uint64_t dom_hash = 0;
  uint64_t parallel_fallbacks = 0;
  std::vector<Span> spans;
};

// Serial service time of each event of one replayed user.
using ReplayResult = std::vector<double>;

class Bench {
 public:
  Bench(const Args& args, const Workload& workload, Clock::time_point origin)
      : args_(args), workload_(workload), origin_(origin) {}

  int Run();

 private:
  // --- setup ---
  Status StartServer(PageServer* server, HttpFabric* front) const;
  // Runs a few users to completion, filling the plan and response caches.
  Status Warmup(PageServer* server, HttpFabric* front) const;

  // --- loaded phases ---
  void RunLatencyPhase();
  void RunCapacityPhase();
  void CreateUser(LoadedUser* u, bool open_loop);
  void SubmitEvent(LoadedUser* u, size_t e, bool open_loop);
  void OnEventDone(LoadedUser* u, size_t e, bool open_loop, const Status& st,
                   double enqueue_latency_us);
  // A user left: the closed loop starts the slot's next user, otherwise
  // the phase counts one open user fewer.
  void UserLeft(bool open_loop);
  void CloseUser(LoadedUser* u, bool open_loop);
  void Fail(const std::string& what);

  // --- replay ---
  Status Replay();

  void Emit();
  double Now() const { return Micros(Clock::now() - origin_); }
  bool traced() const { return !args_.trace_path.empty(); }

  const Args& args_;
  const Workload& workload_;
  const Clock::time_point origin_;
  size_t workers_ = 0;
  double setup_s_ = 0;

  std::unique_ptr<PageServer> server_;
  HttpFabric front_;

  // Latency phase.
  std::vector<std::unique_ptr<LoadedUser>> lat_users_;
  std::vector<double> gen_lag_ms_;
  // Statistics count the events due inside [lat_stats_start_,
  // lat_arrivals_end_): after the warm-up, before the ramp-down (the
  // events due after the last arrival).
  Clock::time_point lat_stats_start_;
  Clock::time_point lat_arrivals_end_;
  // Capacity phase.
  std::vector<std::unique_ptr<LoadedUser>> cap_users_;  // guarded by cap_mu_
  std::mutex cap_mu_;
  std::atomic<uint64_t> next_cap_user_{0};
  Clock::time_point cap_deadline_;
  Clock::time_point cap_start_;
  std::array<std::atomic<uint64_t>, kCapacityBuckets> cap_buckets_{};
  double cap_window_s_ = 0;

  // Users still open in the current phase; the phase ends at zero.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  size_t open_users_ = 0;

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex fail_mu_;
  std::vector<std::string> failures_;

  // Traced-run counters over the loaded phases.
  uint64_t pool_tasks_ = 0, pool_steals_ = 0;
  uint64_t plan_inserts_ = 0;
  uint64_t intern_misses_ = 0, intern_misses_late_ = 0, intern_strings_ = 0;
  uint64_t loaded_events_ = 0;
  double lat_cpu_s_ = 0, lat_wall_s_ = 0;
  // Share of the loaded phases' CPU time the hypervisor took.
  double steal_share_ = 0;
  double loaded_makespan_ms_per_op_ = 0;

  // Replay outputs.
  std::vector<ReplayResult> lat_replay_;  // parallel to lat_users_
  LayerCounters layers_;
  uint64_t replay_ops_ = 0;
  uint64_t net_requests_ = 0, net_bytes_ = 0;
  uint64_t net_cache_hits_ = 0, net_cache_misses_ = 0, net_expirations_ = 0;
  uint64_t net_inflight_peak_ = 0;
  double net_makespan_ms_ = 0, net_latency_ms_ = 0, net_overlapped_ms_ = 0;
  uint64_t dom_compared_ = 0;
  // Serial time of the latency-phase users' whole work: page loads,
  // events, checks and closes.
  double lat_serial_s_ = 0;
};

void Bench::Fail(const std::string& what) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(fail_mu_);
  if (failures_.size() < 8) failures_.push_back(what);
}

Status Bench::StartServer(PageServer* server, HttpFabric* front) const {
  XQ_RETURN_NOT_OK(workload_.Deploy(server));
  server->InstallHttpFrontEnd(front, kFrontBase);
  return Status();
}

std::string SessionIdFrom(const std::string& body) {
  size_t start = body.find("id=\"");
  if (start == std::string::npos) return std::string();
  start += 4;
  size_t end = body.find('"', start);
  return end == std::string::npos ? std::string()
                                  : body.substr(start, end - start);
}

xqib::Result<std::string> OpenSession(HttpFabric* front,
                                      const std::string& page_url) {
  XQ_ASSIGN_OR_RETURN(
      xqib::net::HttpResponse resp,
      front->Perform(HttpRequest{"POST",
                                 std::string(kFrontBase) +
                                     "sessions?page=" + page_url,
                                 ""}));
  if (resp.status != 201) {
    return Status::Error("BNCH0001", "POST /sessions: " + resp.body);
  }
  std::string id = SessionIdFrom(resp.body);
  if (id.empty()) return Status::Error("BNCH0001", "no session id");
  return id;
}

Status CloseSession(HttpFabric* front, const std::string& id) {
  XQ_ASSIGN_OR_RETURN(
      xqib::net::HttpResponse resp,
      front->Perform(HttpRequest{
          "POST", std::string(kFrontBase) + "sessions/" + id + "/close", ""}));
  if (resp.status != 200) {
    return Status::Error("BNCH0002", "close " + id + ": " + resp.body);
  }
  return Status();
}

Status Bench::Warmup(PageServer* server, HttpFabric* front) const {
  for (int w = 0; w < kWarmupUsers; ++w) {
    UserScript script = workload_.MakeUser(kWarmupUserBase + w);
    XQ_ASSIGN_OR_RETURN(std::string id, OpenSession(front, script.page_url));
    std::shared_ptr<Session> session = server->FindSession(id);
    if (session == nullptr) return Status::Error("BNCH0003", "lost " + id);
    UserModel model;
    std::string error;
    for (size_t e = 0; e < script.events.size(); ++e) {
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
      XQ_RETURN_NOT_OK(server->SubmitEvent(
          id, script.events[e], [&](const Status& st, double) {
            std::string err = st.ok() ? workload_.CheckEvent(
                                            session.get(), script, e, &model)
                                      : st.ToString();
            std::lock_guard<std::mutex> lk(mu);
            if (error.empty()) error = err;
            done = true;
            cv.notify_all();
          }));
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return done; });
    }
    if (!error.empty()) return Status::Error("BNCH0004", "warm-up: " + error);
    XQ_RETURN_NOT_OK(CloseSession(front, id));
  }
  return Status();
}

// ------------------------------------------------------- loaded phases

void Bench::CreateUser(LoadedUser* u, bool open_loop) {
  const double t0 = Now();
  xqib::Result<std::string> id = OpenSession(&front_, u->script.page_url);
  const double t1 = Now();
  u->load_start_us = t0;
  attempted_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<Session> session =
      id.ok() ? server_->FindSession(*id) : nullptr;
  if (session == nullptr) {
    Fail("page load " + u->script.page_url + ": " +
         (id.ok() ? "session vanished" : id.status().ToString()));
    {
      std::lock_guard<std::mutex> lk(u->mu);
      u->failed = true;
    }
    // Every event of a user whose page never loaded is a failed one.
    attempted_.fetch_add(u->script.events.size(), std::memory_order_relaxed);
    failed_.fetch_add(u->script.events.size(), std::memory_order_relaxed);
    u->latency_us.assign(u->script.events.size(), kFailedLatencyUs);
    u->page_load_ms = kFailedLatencyUs / 1000;
    UserLeft(open_loop);
    return;
  }
  u->page_load_ms = (t1 - t0) / 1000.0;
  u->session_id = *id;
  u->session = std::move(session);
  if (traced()) {
    // The page load ran on this thread and no event was sent yet: the
    // plug-in's init timing is this load's.
    u->init = u->session->plugin().last_init_timing();
    const uint64_t op = u->script.index * 1000;
    u->spans.push_back({"server.create_session", op, 1, 0, t0, t1});
    // plugin.init.* phases, laid end to end from the load's start in
    // pipeline order (the plug-in reports durations, not timestamps).
    const std::pair<const char*, double> phases[] = {
        {"plugin.init.extract", u->init.extract_us},
        {"plugin.init.foreign", u->init.foreign_us},
        {"plugin.init.compile", u->init.compile_us},
        {"plugin.init.bind_globals", u->init.bind_globals_us},
        {"plugin.init.run_main", u->init.run_main_us}};
    double at = t0;
    int next_id = 2;
    for (const auto& [name, us] : phases) {
      u->spans.push_back({name, op, next_id++, 1, at, at + us});
      at += us;
    }
  }
  if (!open_loop) {
    {
      std::lock_guard<std::mutex> lk(u->mu);
      u->ready = true;
    }
    SubmitEvent(u, 0, open_loop);
    return;
  }
  std::lock_guard<std::mutex> lk(u->mu);
  u->ready = true;
  for (size_t e : u->pending) SubmitEvent(u, e, open_loop);
  u->pending.clear();
}

void Bench::SubmitEvent(LoadedUser* u, size_t e, bool open_loop) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  Status st = server_->SubmitEvent(
      u->session_id, u->script.events[e],
      [this, u, e, open_loop](const Status& s, double enqueue_latency_us) {
        OnEventDone(u, e, open_loop, s, enqueue_latency_us);
      });
  if (!st.ok()) {
    // Refused: counts as failed and as missing every latency limit.
    OnEventDone(u, e, open_loop, st, 0);
  }
}

void Bench::OnEventDone(LoadedUser* u, size_t e, bool open_loop,
                        const Status& st, double enqueue_latency_us) {
  const Clock::time_point now = Clock::now();
  std::string error =
      st.ok() ? workload_.CheckEvent(u->session.get(), u->script, e, &u->model)
              : st.ToString();
  double latency_us = open_loop ? Micros(now - u->due[e]) : 0;
  if (!error.empty()) {
    Fail(u->script.page_url + " event " + std::to_string(e) + ": " + error);
    latency_us = kFailedLatencyUs;
  }
  u->latency_us[e] = latency_us;
  u->executed = e + 1;
  if (traced() && open_loop) {
    const uint64_t op = u->script.index * 1000 + e + 1;
    const double end = Micros(now - origin_);
    u->spans.push_back(
        {"server.event", op, 1, 0, Micros(u->due[e] - origin_), end});
    u->spans.push_back({"session.enqueue_to_done", op, 2, 1,
                        end - enqueue_latency_us, end});
  }
  bool more = e + 1 < u->script.events.size();
  if (!open_loop) {
    if (now < cap_deadline_) {
      const size_t bucket = static_cast<size_t>(
          (now - cap_start_) * kCapacityBuckets / (cap_deadline_ - cap_start_));
      cap_buckets_[std::min(bucket, kCapacityBuckets - 1)].fetch_add(
          1, std::memory_order_relaxed);
    } else {
      more = false;  // the window closed: this user leaves
    }
    if (more) {
      SubmitEvent(u, e + 1, open_loop);
      return;
    }
  }
  if (more) return;  // the generator sends the open loop's next event
  std::string final_error =
      workload_.CheckFinal(u->session.get(), u->script, u->model);
  if (!final_error.empty()) {
    Fail(u->script.page_url + " final state: " + final_error);
  }
  u->parallel_fallbacks = u->session->plugin().parallel_fallbacks();
  // Closing waits for the strand to go idle, so it cannot run here on
  // the strand itself.
  server_->pool()->Submit([this, u, open_loop] { CloseUser(u, open_loop); });
}

void Bench::CloseUser(LoadedUser* u, bool open_loop) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  Status st = CloseSession(&front_, u->session_id);
  if (!st.ok()) Fail(st.ToString());
  if (!u->sample_dom) u->session.reset();
  UserLeft(open_loop);
}

void Bench::UserLeft(bool open_loop) {
  if (!open_loop && Clock::now() < cap_deadline_) {
    const uint64_t index = next_cap_user_.fetch_add(1);
    auto next = std::make_unique<LoadedUser>();
    next->script = workload_.MakeUser(args_.round * kRoundUsers +
                                      kCapacityUserBase + index);
    next->sample_dom = index < kCapacityReplayUsers;
    next->latency_us.assign(next->script.events.size(), 0);
    LoadedUser* raw = next.get();
    {
      std::lock_guard<std::mutex> lk(cap_mu_);
      cap_users_.push_back(std::move(next));
    }
    CreateUser(raw, false);
    return;
  }
  std::lock_guard<std::mutex> lk(done_mu_);
  if (--open_users_ == 0) done_cv_.notify_all();
}

void Bench::RunLatencyPhase() {
  // The whole schedule is generated before the phase starts: user
  // arrivals are a Poisson process whose mean gap keeps the aggregate
  // event rate at --rate; each user's events follow its page visit
  // after seeded think times.
  struct Action {
    double at_us;
    uint32_t user;
    int32_t event;  // -1 = open the page
  };
  std::vector<Action> actions;
  Rng arrivals(Mix64(args_.seed ^ HashString(workload_.name()) ^
                     Mix64(0xa11ull + args_.round)));
  const double arrive_until_us = args_.seconds * kLatencyShare * 1e6;
  double at = 0;
  for (uint32_t index = 0;; ++index) {
    auto u = std::make_unique<LoadedUser>();
    u->script = workload_.MakeUser(args_.round * kRoundUsers + index);
    const double n = static_cast<double>(u->script.events.size());
    at += arrivals.Exponential(n / args_.rate * 1e6);
    if (at >= arrive_until_us) break;
    u->latency_us.assign(u->script.events.size(), 0);
    actions.push_back({at, index, -1});
    double t = at;
    for (size_t e = 0; e < u->script.events.size(); ++e) {
      t += u->script.think_ms[e] * 1000.0;
      actions.push_back({t, index, static_cast<int32_t>(e)});
    }
    lat_users_.push_back(std::move(u));
  }
  const size_t stride =
      (lat_users_.size() + kLatencyDomSamples - 1) / kLatencyDomSamples;
  for (size_t i = 0; i < lat_users_.size(); i += stride) {
    lat_users_[i]->sample_dom = true;
  }
  std::stable_sort(actions.begin(), actions.end(),
                   [](const Action& a, const Action& b) {
                     return a.at_us < b.at_us;
                   });
  open_users_ = lat_users_.size();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (auto& u : lat_users_) u->due.resize(u->script.events.size());
  for (const Action& a : actions) {
    if (a.event >= 0) {
      lat_users_[a.user]->due[a.event] =
          start + std::chrono::nanoseconds(static_cast<int64_t>(a.at_us * 1e3));
    }
  }
  gen_lag_ms_.reserve(actions.size());
  const double stats_from_us =
      std::min(kLatencyWarmupS * 1e6, arrive_until_us / 4);
  lat_stats_start_ = start + std::chrono::nanoseconds(
                                 static_cast<int64_t>(stats_from_us * 1e3));
  lat_arrivals_end_ = start + std::chrono::nanoseconds(
                                  static_cast<int64_t>(arrive_until_us * 1e3));
  for (const Action& a : actions) {
    const Clock::time_point due =
        start + std::chrono::nanoseconds(static_cast<int64_t>(a.at_us * 1e3));
    // Sleep most of the gap, then spin: the generator owns its core.
    if (due - Clock::now() > std::chrono::microseconds(200)) {
      std::this_thread::sleep_until(due - std::chrono::microseconds(150));
    }
    while (Clock::now() < due) {
    }
    if (a.at_us >= stats_from_us && a.at_us < arrive_until_us) {
      gen_lag_ms_.push_back(Micros(Clock::now() - due) / 1000.0);
    }
    LoadedUser* u = lat_users_[a.user].get();
    if (a.event < 0) {
      // Page loads run on the server's workers, never on the generator.
      server_->pool()->Submit([this, u] { CreateUser(u, true); });
      continue;
    }
    std::lock_guard<std::mutex> lk(u->mu);
    if (u->failed) continue;  // already counted when the load failed
    if (!u->ready) {
      u->pending.push_back(static_cast<size_t>(a.event));
      continue;
    }
    SubmitEvent(u, static_cast<size_t>(a.event), true);
  }
  std::unique_lock<std::mutex> lk(done_mu_);
  done_cv_.wait(lk, [this] { return open_users_ == 0; });
}

void Bench::RunCapacityPhase() {
  const double seconds = args_.seconds * (1 - kLatencyShare);
  cap_start_ = Clock::now();
  cap_deadline_ =
      cap_start_ + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    open_users_ = kCapacitySessions;
  }
  for (size_t slot = 0; slot < kCapacitySessions; ++slot) {
    server_->pool()->Submit([this] { UserLeft(false); });
  }
  std::unique_lock<std::mutex> lk(done_mu_);
  done_cv_.wait(lk, [this] { return open_users_ == 0; });
  cap_window_s_ = seconds;
}

// -------------------------------------------------------------- replay

Status Bench::Replay() {
  // A fresh serial server: pool 0 is the semantic reference, and its own
  // fabric gives a virtual clock no concurrent session shares. The
  // process-wide response cache is emptied (its entries carry the other
  // fabric's clock) and re-warmed exactly as in setup.
  PageServer::Options options;
  options.workers = 0;
  PageServer server(options);
  HttpFabric front;
  HttpResponseCache::Global()->Clear();
  XQ_RETURN_NOT_OK(StartServer(&server, &front));
  XQ_RETURN_NOT_OK(Warmup(&server, &front));
  // The replay's network counters start here: ResetStats also restarts
  // the in-flight peak.
  server.backend().ResetStats();
  const HttpFabric::Stats& fs = server.backend().stats();
  const HttpResponseCache::Stats& cs = HttpResponseCache::Global()->stats();
  const uint64_t expirations0 = cs.expirations;

  auto replay_user = [&](LoadedUser* loaded, ReplayResult* out) -> Status {
    XQ_ASSIGN_OR_RETURN(std::string id,
                        OpenSession(&front, loaded->script.page_url));
    ++replay_ops_;
    std::shared_ptr<Session> session = server.FindSession(id);
    if (session == nullptr) return Status::Error("BNCH0003", "lost " + id);
    UserModel model;
    std::string error;
    for (size_t e = 0; e < loaded->executed; ++e) {
      const Clock::time_point t = Clock::now();
      // Pool 0: the dispatch and its completion run inline.
      XQ_RETURN_NOT_OK(server.SubmitEvent(
          id, loaded->script.events[e], [&](const Status& st, double) {
            layers_.Add(session->plugin().last_event_stats());
            std::string err =
                st.ok() ? workload_.CheckEvent(session.get(), loaded->script,
                                               e, &model)
                        : st.ToString();
            if (error.empty()) error = err;
          }));
      out->push_back(Micros(Clock::now() - t));
      ++replay_ops_;
    }
    if (error.empty()) {
      error = workload_.CheckFinal(session.get(), loaded->script, model);
    }
    if (error.empty() && loaded->sample_dom) {
      ++dom_compared_;
      if (DomHash(session.get()) != loaded->dom_hash) {
        error = "DOM differs from the pool-0 serial replay";
      }
    }
    XQ_RETURN_NOT_OK(CloseSession(&front, id));
    if (!error.empty()) {
      return Status::Error("BNCH0005", loaded->script.page_url + ": " + error);
    }
    return Status();
  };

  lat_replay_.resize(lat_users_.size());
  const Clock::time_point serial0 = Clock::now();
  for (size_t i = 0; i < lat_users_.size(); ++i) {
    LoadedUser* u = lat_users_[i].get();
    if (u->failed) continue;
    Status st = replay_user(u, &lat_replay_[i]);
    if (!st.ok()) Fail("replay: " + st.ToString());
  }
  lat_serial_s_ = Micros(Clock::now() - serial0) / 1e6;
  for (auto& u : cap_users_) {
    if (!u->sample_dom || u->failed) continue;
    ReplayResult ignored;
    Status st = replay_user(u.get(), &ignored);
    if (!st.ok()) Fail("replay: " + st.ToString());
  }

  net_requests_ = fs.requests;
  net_bytes_ = fs.bytes_served;
  net_cache_hits_ = fs.cache_hits;
  net_cache_misses_ = fs.cache_misses;
  net_expirations_ = cs.expirations - expirations0;
  net_inflight_peak_ = fs.inflight_peak;
  net_makespan_ms_ = fs.makespan_ms;
  net_latency_ms_ = fs.simulated_latency_ms;
  net_overlapped_ms_ = fs.overlapped_ms;
  return Status();
}

// ---------------------------------------------------------------- main

int Bench::Run() {
  const unsigned nproc = std::thread::hardware_concurrency();
  workers_ = nproc > 1 ? nproc - 1 : 1;  // pool + generator <= nproc
  PageServer::Options options;
  options.workers = workers_;
  server_ = std::make_unique<PageServer>(options);
  Status st = StartServer(server_.get(), &front_);
  if (st.ok()) st = Warmup(server_.get(), &front_);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  setup_s_ = Micros(Clock::now() - origin_) / 1e6;
  if (args_.setup_only) {
    std::printf("{\"setup_s\": %.6f}\n", setup_s_);
    return 0;
  }

  const xqib::base::ThreadPool::Stats& ps = server_->pool()->stats();
  const uint64_t tasks0 = ps.submitted, steals0 = ps.stolen;
  const uint64_t inserts0 = xqib::xquery::plan::PlanCache::Global().stats().inserts;
  const uint64_t intern0 = xqib::xml::GetInternStats().misses;

  const double makespan0 = server_->backend().stats().makespan_ms;
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t steal0 = StealTicks();
  const Clock::time_point wall0 = Clock::now();
  RunLatencyPhase();
  lat_cpu_s_ = ProcessCpuSeconds() - cpu0;
  lat_wall_s_ = Micros(Clock::now() - wall0) / 1e6;
  const uint64_t intern_mid = xqib::xml::GetInternStats().misses;
  RunCapacityPhase();
  steal_share_ = Ratio(
      static_cast<double>(StealTicks() - steal0),
      Micros(Clock::now() - wall0) / 1e6 * std::thread::hardware_concurrency() *
          static_cast<double>(sysconf(_SC_CLK_TCK)));
  server_->DrainAll();

  pool_tasks_ = ps.submitted - tasks0;
  pool_steals_ = ps.stolen - steals0;
  plan_inserts_ =
      xqib::xquery::plan::PlanCache::Global().stats().inserts - inserts0;
  xqib::xml::InternPoolStats intern = xqib::xml::GetInternStats();
  intern_misses_ = intern.misses - intern0;
  intern_misses_late_ = intern.misses - intern_mid;
  intern_strings_ = intern.strings;
  for (auto& u : lat_users_) loaded_events_ += u->executed;
  for (auto& u : cap_users_) loaded_events_ += u->executed;
  // The loaded run's own virtual makespan: understated, because
  // concurrent sessions share one in-flight window (README.md).
  loaded_makespan_ms_per_op_ =
      Ratio(server_->backend().stats().makespan_ms - makespan0,
            static_cast<double>(loaded_events_ + lat_users_.size() +
                                cap_users_.size()));

  // Sampled DOMs are serialized off the clock, after the loaded phases.
  for (auto* users : {&lat_users_, &cap_users_}) {
    for (auto& u : *users) {
      if (u->sample_dom && u->session != nullptr) {
        u->dom_hash = DomHash(u->session.get());
        u->session.reset();
      }
    }
  }
  server_.reset();

  st = Replay();
  if (!st.ok()) Fail("replay: " + st.ToString());
  Emit();
  return 0;
}

void Bench::Emit() {
  // Latency-phase samples: the events due inside the statistics window
  // and the page loads started in it.
  auto in_window = [&](Clock::time_point t) {
    return t >= lat_stats_start_ && t < lat_arrivals_end_;
  };
  std::vector<double> latencies, loads, waits, service;
  for (size_t i = 0; i < lat_users_.size(); ++i) {
    const LoadedUser& u = *lat_users_[i];
    if (in_window(origin_ + std::chrono::nanoseconds(
                                static_cast<int64_t>(u.load_start_us * 1e3)))) {
      loads.push_back(u.page_load_ms);
    }
    for (size_t e = 0; e < u.script.events.size(); ++e) {
      if (!in_window(u.due[e])) continue;
      latencies.push_back(u.latency_us[e]);
      if (i < lat_replay_.size() && e < lat_replay_[i].size()) {
        service.push_back(lat_replay_[i][e]);
        waits.push_back(u.latency_us[e] - lat_replay_[i][e]);
      }
    }
  }
  const double gen_lag_p50 = Median(gen_lag_ms_);
  const bool lag_flagged = gen_lag_p50 > kGenLagFlagMs;
  // The median bucket's rate; the first bucket, where the closed loop's
  // first page loads run, is ramp-up and never counted.
  uint64_t capacity_events = 0;
  std::vector<double> bucket_eps;
  const double bucket_s = cap_window_s_ / kCapacityBuckets;
  for (size_t b = 0; b < kCapacityBuckets; ++b) {
    capacity_events += cap_buckets_[b].load();
    if (b > 0) bucket_eps.push_back(cap_buckets_[b].load() / bucket_s);
  }
  const double throughput = Median(bucket_eps);
  const uint64_t attempted = attempted_.load();
  const uint64_t failed = failed_.load();

  std::ostringstream out;
  out.precision(10);
  out << "{\"workload\": \"" << workload_.name() << "\", \"seed\": "
      << args_.seed << ", \"round\": " << args_.round
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"workers\": " << workers_ << ", \"offered_eps\": " << args_.rate
      << ", \"seconds\": " << args_.seconds
      << ", \"capacity_sessions\": " << kCapacitySessions
      << ", \"traced\": " << (traced() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"gen_lag_ms_p50\": " << gen_lag_p50
      << ", \"gen_lag_ms_p99\": " << Percentile(gen_lag_ms_, 99)
      << ", \"gen_lag_flagged\": " << (lag_flagged ? "true" : "false")
      << ", \"host_steal_share\": " << steal_share_
      << ", \"latency_phase_cpu_s\": " << lat_cpu_s_
      << ", \"latency_phase_wall_s\": " << lat_wall_s_
      // The load the offered rate puts on the pool: the latency-phase
      // users' serial work over the worker time of the arrival window.
      << ", \"offered_utilisation\": "
      << Ratio(lat_serial_s_,
               args_.seconds * kLatencyShare * static_cast<double>(workers_))
      << ", \"loaded_net_makespan_ms_per_op\": " << loaded_makespan_ms_per_op_
      << ", \"dom_compared\": " << dom_compared_ << ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    std::string msg = failures_[i];
    std::replace(msg.begin(), msg.end(), '"', '\'');
    std::replace(msg.begin(), msg.end(), '\\', '/');
    for (char& c : msg) {
      if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    }
    out << (i ? ", " : "") << "\"" << msg << "\"";
  }
  out << "], \"capacity_bucket_events\": [";
  for (size_t b = 0; b < kCapacityBuckets; ++b) {
    out << (b ? ", " : "") << cap_buckets_[b].load();
  }
  out << "], \"samples\": {\"events\": " << latencies.size()
      << ", \"page_loads\": " << loads.size()
      << ", \"capacity_events\": " << capacity_events
      << ", \"replayed_ops\": " << replay_ops_ << "}";
  out << ", \"e2e\": {\"event_p50_us\": " << Median(latencies)
      << ", \"event_p99_us\": " << Percentile(latencies, 99)
      << ", \"throughput_eps\": " << throughput
      << ", \"page_load_p50_ms\": " << Median(loads)
      << ", \"page_load_p90_ms\": " << Percentile(loads, 90)
      << ", \"net_wait_ms_per_op\": "
      << Ratio(net_makespan_ms_, static_cast<double>(replay_ops_))
      << ", \"peak_rss_mb\": " << PeakRssMb() << ", \"error_rate\": "
      << Ratio(static_cast<double>(failed), static_cast<double>(attempted))
      << ", \"setup_s\": " << setup_s_ << "}";
  if (traced()) {
    // browser.load_self_ms: the page load minus the plug-in's phases.
    std::vector<double> load_self, compile, run_main, foreign;
    for (const auto& u : lat_users_) {
      if (u->failed) continue;
      const XqibPlugin::InitTiming& t = u->init;
      const double phases_ms = (t.extract_us + t.foreign_us + t.compile_us +
                                t.bind_globals_us + t.run_main_us) /
                               1000.0;
      load_self.push_back(u->page_load_ms - phases_ms);
      compile.push_back(t.compile_us / 1000.0);
      run_main.push_back(t.run_main_us / 1000.0);
      foreign.push_back(t.foreign_us / 1000.0);
    }
    uint64_t fallbacks = 0;
    for (const auto& u : lat_users_) fallbacks += u->parallel_fallbacks;
    for (const auto& u : cap_users_) fallbacks += u->parallel_fallbacks;
    const LayerCounters& c = layers_;
    const double ev = static_cast<double>(c.events);
    const double ops = static_cast<double>(replay_ops_);
    const double memo_lookups = static_cast<double>(
        c.memo_hits + c.memo_misses + c.memo_invalidations);
    const double plan_lookups =
        static_cast<double>(c.plan_hits + c.plan_misses);
    const double cache_lookups =
        static_cast<double>(net_cache_hits_ + net_cache_misses_);
    auto per = [](uint64_t n, double base) {
      return Ratio(static_cast<double>(n), base);
    };
    out << ", \"layers\": {"
        << "\"server.queue_wait_us.p50\": " << Median(waits)
        << ", \"server.queue_wait_us.p99\": " << Percentile(waits, 99)
        << ", \"server.service_us.p50\": " << Median(service)
        << ", \"server.service_us.p99\": " << Percentile(service, 99)
        << ", \"server.events\": " << latencies.size()
        << ", \"server.loaded_events\": " << loaded_events_
        << ", \"base.pool.tasks_per_event\": "
        << per(pool_tasks_, static_cast<double>(loaded_events_))
        << ", \"base.pool.steals_per_event\": "
        << per(pool_steals_, static_cast<double>(loaded_events_))
        << ", \"browser.page_loads\": " << load_self.size()
        << ", \"browser.load_self_ms\": " << Median(load_self)
        << ", \"plugin.init.compile_ms\": " << Median(compile)
        << ", \"plugin.init.run_main_ms\": " << Median(run_main)
        << ", \"plugin.init.foreign_ms\": " << Median(foreign)
        << ", \"plugin.replayed_events\": " << c.events
        << ", \"plugin.memo.lookups\": " << memo_lookups
        << ", \"plugin.memo.hit_rate\": " << per(c.memo_hits, memo_lookups)
        << ", \"plugin.memo.invalidations_per_event\": "
        << per(c.memo_invalidations, ev)
        << ", \"plugin.delta.skips_per_event\": " << per(c.delta_skips, ev)
        << ", \"plugin.parallel_fallbacks\": " << fallbacks
        << ", \"xquery.plan.lookups\": " << plan_lookups
        << ", \"xquery.plan.hit_rate\": " << per(c.plan_hits, plan_lookups)
        << ", \"xquery.plan.compiles_per_event\": " << per(c.plan_compiles, ev)
        << ", \"xquery.plan.cache_inserts\": " << plan_inserts_
        << ", \"xquery.items_pulled_per_event\": " << per(c.items_pulled, ev)
        << ", \"xquery.sorts_performed_per_event\": "
        << per(c.sorts_performed, ev)
        << ", \"xquery.name_index_hits_per_event\": "
        << per(c.name_index_hits, ev)
        << ", \"xdm.arena_bytes_per_event\": " << per(c.arena_bytes, ev)
        << ", \"xml.delta_emitted_per_event\": " << per(c.delta_emitted, ev)
        << ", \"xml.index_splices_per_event\": " << per(c.index_splices, ev)
        << ", \"xml.rebuilds_avoided_per_event\": "
        << per(c.rebuilds_avoided, ev)
        << ", \"xml.intern_misses\": " << intern_misses_
        << ", \"xml.intern_misses_capacity_phase\": " << intern_misses_late_
        << ", \"xml.intern_strings\": " << intern_strings_
        << ", \"net.replayed_ops\": " << replay_ops_
        << ", \"net.requests_per_op\": " << per(net_requests_, ops)
        << ", \"net.bytes_per_op\": " << per(net_bytes_, ops)
        << ", \"net.cache.lookups\": " << cache_lookups
        << ", \"net.cache.hit_rate\": " << per(net_cache_hits_, cache_lookups)
        << ", \"net.cache.expirations\": " << net_expirations_
        << ", \"net.prefetch.issued\": " << c.prefetch_issued
        << ", \"net.prefetch.useful_ratio\": "
        << per(c.prefetch_hits, static_cast<double>(c.prefetch_issued))
        << ", \"net.latency_sum_ms\": " << net_latency_ms_
        << ", \"net.overlap_ratio\": "
        << Ratio(net_overlapped_ms_, net_latency_ms_)
        << ", \"net.inflight_peak\": " << net_inflight_peak_ << "}";
  }
  out << "}";

  if (traced()) {
    std::ofstream trace(args_.trace_path);
    for (auto* users : {&lat_users_, &cap_users_}) {
      for (const auto& u : *users) {
        for (const Span& s : u->spans) {
          trace << "{\"name\": \"" << s.name << "\", \"op\": " << s.op
                << ", \"id\": " << s.id << ", \"parent\": " << s.parent
                << ", \"start_us\": " << s.start_us
                << ", \"end_us\": " << s.end_us << "}\n";
        }
      }
    }
  }
  std::printf("%s\n", out.str().c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto origin = std::chrono::steady_clock::now();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xqib_e2e --workload NAME --seed N --seconds S "
                 "--rate EPS [--trace FILE] [--setup-only]\n");
    return 2;
  }
  std::unique_ptr<perfbench::Workload> workload =
      perfbench::MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(args, *workload, origin);
  return bench.Run();
}
