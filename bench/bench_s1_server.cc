// S1 — the multi-tenant page server under load: N concurrent
// shopping-cart sessions (the paper's §6.3 page) driven closed-loop
// through the shared-pool session runtime, with per-event latency
// percentiles. Self-timed runner emitting BENCH_S1.json.
//
// Usage:
//   bench_s1_server [--iters N] [--out FILE] [--check] [--baseline FILE]
//
// Scenarios:
//   load sweep        sessions {1, 4, 16} x pool {0, 1, 4, 8}; every
//                     session replays the same deterministic buy-click
//                     script (rotating product ids offset by session
//                     index), each completion immediately enqueuing the
//                     session's next event (closed loop, zero think
//                     time). Reports events/sec, ns/op, and p50/p95/p99
//                     enqueue-to-completion latency per cell.
//   determinism       the oracle: for each session count, every
//                     session's serialized DOM must be byte-identical
//                     between the serial run (pool 0) and every
//                     concurrent run (pool 1/4/8).
//   server_parity     one session, pool 0: an event through the server
//                     runtime (queue + strand + completion) vs the same
//                     click through BrowserEnvironment's direct
//                     dispatch. The server layer must cost <= 10% — the
//                     session abstraction is bookkeeping, not a detour.
//
// --check exits non-zero unless the oracle holds for every cell, the
// parity ratio is <= 1.10, every cell dispatched exactly its script
// with zero errors, and — only on hosts with enough hardware threads
// for the pool to physically win (>= 4 cores: >= 1.8x at 16 sessions /
// pool 4; >= 2 cores: >= 1.15x; single core: gate skipped) — multi-
// session throughput actually scales.
// --baseline FILE compares two fixed-workload ns/op numbers — the
// 4-session serial guard cell (always 100 events/session) and the
// parity block's server arm — against the checked-in BENCH_S1.json
// within +/-25%; both are independent of --iters, so smoke runs and
// the baseline measure the same work.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/environment.h"
#include "bench_util.h"
#include "server/server.h"

namespace {

using xqib::app::BrowserEnvironment;
using xqib::app::ReadPageFile;
using xqib::bench::Args;
using xqib::bench::LatencySummary;
using xqib::server::PageServer;
using xqib::server::Session;
using xqib::server::SessionEvent;

constexpr const char* kProductsUrl = "http://shop.example.com/products.xml";
constexpr const char* kProducts =
    "<products>"
    "<product><name>laptop</name><price>1200</price></product>"
    "<product><name>mouse</name><price>25</price></product>"
    "<product><name>keyboard</name><price>49</price></product>"
    "</products>";
constexpr const char* kProductIds[] = {"laptop", "mouse", "keyboard"};

// The per-session deterministic event script: every session buys the
// same sequence of products, phase-shifted by its index so concurrent
// sessions are not in lockstep on one listener.
std::vector<SessionEvent> MakeScript(size_t session_index, int events) {
  std::vector<SessionEvent> script;
  script.reserve(static_cast<size_t>(events));
  for (int e = 0; e < events; ++e) {
    SessionEvent ev;
    ev.target_id = kProductIds[(session_index + static_cast<size_t>(e)) % 3];
    script.push_back(std::move(ev));
  }
  return script;
}

// One session's closed-loop driver: each completion enqueues the next
// scripted event, so the session is always exactly one event deep —
// per-session order is script order at any pool size.
struct Driver {
  std::shared_ptr<Session> session;
  std::vector<SessionEvent> script;
  std::atomic<size_t> next{1};
  std::atomic<uint64_t> failures{0};
};

struct LoadCell {
  size_t sessions = 0;
  size_t workers = 0;
  double wall_sec = 0;
  double events_per_sec = 0;
  double ns_per_op = 0;
  LatencySummary latency;
  uint64_t errors = 0;
  // The oracle channel: session index -> serialized DOM after the run.
  std::vector<std::string> doms;
};

bool RunLoadCell(const std::string& page, size_t sessions, size_t workers,
                 int events_per_session, LoadCell* cell) {
  PageServer::Options options;
  options.workers = workers;
  PageServer server(options);
  server.backend().PutResource(kProductsUrl, kProducts);

  std::vector<std::shared_ptr<Driver>> drivers;
  for (size_t s = 0; s < sessions; ++s) {
    auto created = server.CreateSessionFromSource(
        "http://shop.example.com/cart.xhtml", page);
    if (!created.ok()) {
      std::fprintf(stderr, "session create failed: %s\n",
                   created.status().ToString().c_str());
      return false;
    }
    auto driver = std::make_shared<Driver>();
    driver->session = *created;
    driver->script = MakeScript(s, events_per_session);
    drivers.push_back(std::move(driver));
  }

  const auto start = std::chrono::steady_clock::now();
  for (const auto& driver : drivers) {
    auto chain = std::make_shared<
        std::function<void(const xqib::Status&, double)>>();
    *chain = [driver, chain](const xqib::Status& st, double) {
      if (!st.ok()) driver->failures.fetch_add(1, std::memory_order_relaxed);
      size_t i = driver->next.fetch_add(1, std::memory_order_relaxed);
      if (i < driver->script.size()) {
        driver->session->Submit(driver->script[i], *chain);
      }
    };
    driver->session->Submit(driver->script[0], *chain);
  }
  server.DrainAll();
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const double total_events =
      static_cast<double>(sessions) * events_per_session;
  cell->sessions = sessions;
  cell->workers = workers;
  cell->wall_sec = wall_sec;
  cell->events_per_sec = wall_sec > 0 ? total_events / wall_sec : 0;
  cell->ns_per_op = total_events > 0 ? wall_sec * 1e9 / total_events : 0;
  std::vector<double> samples;
  for (const auto& driver : drivers) {
    Session::StatsSnapshot s = driver->session->stats();
    cell->errors += s.errors + driver->failures.load();
    if (s.dispatched != static_cast<uint64_t>(events_per_session)) {
      std::fprintf(stderr,
                   "FAIL: %s dispatched %llu of %d scripted events\n",
                   driver->session->id().c_str(),
                   static_cast<unsigned long long>(s.dispatched),
                   events_per_session);
      return false;
    }
    std::vector<double> mine = driver->session->TakeLatencySamples();
    samples.insert(samples.end(), mine.begin(), mine.end());
    cell->doms.push_back(driver->session->SerializeDom());
  }
  cell->latency = xqib::bench::SummarizeLatencies(std::move(samples));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!xqib::bench::ParseArgs(argc, argv, &args)) return 2;
  // --iters is events PER SESSION here (closed loop, not timed reps).
  const int events = std::max(args.iters, 10);

  auto page = ReadPageFile("shopping_cart_xquery.xhtml");
  if (!page.ok()) {
    std::fprintf(stderr, "cannot read shopping cart page: %s\n",
                 page.status().ToString().c_str());
    return 1;
  }

  const std::vector<size_t> session_counts = {1, 4, 16};
  const std::vector<size_t> pool_sizes = {0, 1, 4, 8};
  std::vector<LoadCell> cells;
  bool ok = true;
  for (size_t sessions : session_counts) {
    for (size_t workers : pool_sizes) {
      LoadCell cell;
      if (!RunLoadCell(*page, sessions, workers, events, &cell)) {
        ok = false;
        continue;
      }
      cells.push_back(std::move(cell));
    }
  }

  // The baseline-guard cell runs a FIXED event count regardless of
  // --iters: per-event cost grows with the cart DOM, so only
  // same-script runs are comparable across machines and smoke depths.
  LoadCell guard_cell;
  ok &= RunLoadCell(*page, 4, 0, 100, &guard_cell);

  // --- determinism oracle: within one session count, every pool size
  // must leave every session with the byte-identical DOM the serial
  // run produced. ---
  bool deterministic = true;
  for (size_t sessions : session_counts) {
    const LoadCell* serial = nullptr;
    for (const LoadCell& cell : cells) {
      if (cell.sessions == sessions && cell.workers == 0) serial = &cell;
    }
    if (serial == nullptr) {
      deterministic = false;
      continue;
    }
    for (const LoadCell& cell : cells) {
      if (cell.sessions != sessions || cell.workers == 0) continue;
      for (size_t s = 0; s < sessions; ++s) {
        if (cell.doms[s] != serial->doms[s]) {
          std::fprintf(stderr,
                       "FAIL: determinism: session %zu DOM differs between "
                       "pool 0 and pool %zu (%zu sessions)\n",
                       s, cell.workers, sessions);
          deterministic = false;
        }
      }
    }
  }

  // --- server_parity: the session runtime's overhead over direct
  // dispatch, both arms resolving the target and firing the identical
  // listener. Alternating rounds, per-arm minima (the load-robust
  // estimator). ---
  double server_ns = 0, direct_ns = 0;
  {
    // Fixed sample size, independent of --iters: the 1.10 parity gate
    // is an acceptance criterion, so the estimate must not get noisier
    // when CI runs the quick smoke. Per-op samples in small
    // interleaved blocks (so the DOM-growth trend stays matched
    // between arms), compared at the median — a single descheduling
    // spike on a loaded host cannot move the estimator.
    const int blocks = 20, per_block = 20;
    PageServer server;  // pool 0: Submit dispatches inline
    server.backend().PutResource(kProductsUrl, kProducts);
    auto session = server.CreateSessionFromSource(
        "http://shop.example.com/cart.xhtml", *page);
    BrowserEnvironment direct;
    direct.fabric().PutResource(kProductsUrl, kProducts);
    xqib::Status st =
        direct.LoadPage("http://shop.example.com/cart.xhtml", *page);
    if (!session.ok() || !st.ok() || !direct.ScriptErrors().empty()) {
      std::fprintf(stderr, "parity setup failed\n");
      ok = false;
    } else {
      SessionEvent buy;
      buy.target_id = "laptop";
      std::vector<double> server_samples, direct_samples;
      auto sample = [](const std::function<void()>& op,
                       std::vector<double>* out, int n) {
        for (int i = 0; i < n; ++i) {
          auto t0 = std::chrono::steady_clock::now();
          op();
          out->push_back(std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
        }
      };
      for (int b = 0; b < blocks; ++b) {
        sample([&] { (*session)->Submit(buy); }, &server_samples, per_block);
        sample([&] { (void)direct.ClickId("laptop"); }, &direct_samples,
               per_block);
      }
      server_ns = xqib::bench::Percentile(std::move(server_samples), 50);
      direct_ns = xqib::bench::Percentile(std::move(direct_samples), 50);
    }
  }
  const double parity = direct_ns > 0 ? server_ns / direct_ns : 0;

  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_s1_server\",\n  \"events_per_session\": "
       << events << ",\n  \"load\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const LoadCell& c = cells[i];
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "    {\"name\": \"load_s%zu_p%zu\", \"sessions\": %zu, "
        "\"workers\": %zu, \"events_per_sec\": %.0f, \"ns_per_op\": %.1f, "
        "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
        "\"errors\": %llu}%s\n",
        c.sessions, c.workers, c.sessions, c.workers, c.events_per_sec,
        c.ns_per_op, c.latency.p50, c.latency.p95, c.latency.p99,
        static_cast<unsigned long long>(c.errors),
        i + 1 < cells.size() ? "," : "");
    json << line;
  }
  char guard_line[200];
  std::snprintf(guard_line, sizeof(guard_line),
                "  \"guard\": {\"name\": \"guard_s4_p0\", "
                "\"events_per_session\": 100, \"ns_per_op\": %.1f, "
                "\"p50_us\": %.1f, \"p99_us\": %.1f},\n",
                guard_cell.ns_per_op, guard_cell.latency.p50,
                guard_cell.latency.p99);
  json << "  ],\n" << guard_line;
  char buf[400];
  std::snprintf(
      buf, sizeof(buf),
      "  \"parity\": {\"name\": \"server_parity\", "
      "\"server_ns_per_op\": %.1f, "
      "\"direct_ns_per_op\": %.1f, \"parity_ratio\": %.3f},\n"
      "  \"determinism\": %s,\n  \"hardware_concurrency\": %u\n}\n",
      server_ns, direct_ns, parity,
      deterministic ? "true" : "false",
      std::thread::hardware_concurrency());
  json << buf;
  xqib::bench::EmitJson(json.str(), args.out_path);

  if (!ok) {
    std::fprintf(stderr, "FAIL: a load cell did not run\n");
    return 1;
  }
  if (args.check) {
    if (!deterministic) return 1;
    for (const LoadCell& c : cells) {
      if (c.errors != 0) {
        std::fprintf(stderr, "FAIL: load_s%zu_p%zu saw %llu errors\n",
                     c.sessions, c.workers,
                     static_cast<unsigned long long>(c.errors));
        return 1;
      }
    }
    if (parity <= 0 || parity > 1.10) {
      std::fprintf(stderr,
                   "FAIL: server parity ratio %.3f (need <= 1.10)\n", parity);
      return 1;
    }
    // Throughput scaling only binds where the pool can physically win.
    const unsigned cores = std::thread::hardware_concurrency();
    const double floor = cores >= 4 ? 1.8 : (cores >= 2 ? 1.15 : 0.0);
    if (floor > 0) {
      double serial16 = 0, pooled16 = 0;
      for (const LoadCell& c : cells) {
        if (c.sessions == 16 && c.workers == 0) serial16 = c.events_per_sec;
        if (c.sessions == 16 && c.workers == 4) pooled16 = c.events_per_sec;
      }
      const double speedup = serial16 > 0 ? pooled16 / serial16 : 0;
      if (speedup < floor) {
        std::fprintf(stderr,
                     "FAIL: 16-session throughput only %.2fx at pool 4 on "
                     "%u cores (need %.2fx)\n",
                     speedup, cores, floor);
        return 1;
      }
    } else {
      std::fprintf(stderr,
                   "NOTE: single-core host, throughput scaling gate "
                   "skipped\n");
    }
    std::fputs("CHECK OK\n", stderr);
  }
  // The parity ratio itself is NOT baseline-guarded: it hovers around
  // 1.0 and is gated absolutely (<= 1.10) by --check above; a +/-25%
  // band around it would flag noise, not regressions. The guarded
  // metrics are the two fixed-workload ns/op numbers, which don't vary
  // with --iters.
  if (!args.baseline_path.empty() &&
      !xqib::bench::CheckBaseline(
          args.baseline_path,
          {{"guard_s4_p0", "ns_per_op", guard_cell.ns_per_op},
           {"server_parity", "server_ns_per_op", server_ns}})) {
    return 1;
  }
  return 0;
}
