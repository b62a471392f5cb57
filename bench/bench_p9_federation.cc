// P9 — async federation: the fig3 mash-up over K remote sources, serial
// round trips vs scatter-gather overlap, and the shared HTTP response
// cache cold vs warm. Self-timed runner emitting BENCH_P9.json, same
// schema as P2-P8.
//
// Usage:
//   bench_p9_federation [--iters N] [--out FILE] [--check] [--baseline FILE]
//
// Scenarios (arms = EvalOptions::async_federation on vs off; off is the
// one-round-trip-at-a-time client):
//   fanout_scatter  a listener with K literal http:get calls (the fig3
//                   weather fan-out). The plug-in issues the K static
//                   URLs of the listener's effect summary before the
//                   body runs, so their latencies land inside one
//                   in-flight window: makespan ~= 1 RTT instead of K.
//   flwor_scatter   the same K sources reached through a FLWOR whose
//                   URL is concat(prefix, $s, suffix) — statically a
//                   template over the loop variable, so the evaluator's
//                   scatter hook prefetches the whole batch when the
//                   FLWOR is entered.
//
// The timed numbers are CPU cost (the fabric's latency is virtual); the
// federation win is read off the fabric's two clocks — `makespan_ms`
// (virtual wall clock) vs `simulated_latency_ms` (sum of round trips).
//
// --check exits non-zero unless both ablations agree byte-for-byte, the
// overlapped arms' makespan is <= 2x the single-source RTT while the
// serial arms pay >= 6x (K = 8), and the warm-cache pass answers >= 90%
// of its lookups from the shared response cache. --baseline FILE
// compares fresh numbers against the checked-in BENCH_P9.json within
// +25% — the CI regression guard. The guarded metrics are the virtual
// ones (overlapped makespan, warm-cache miss count): they are exact and
// machine-independent, unlike CPU ns/op which swings tens of percent on
// a noisy runner at the ~35 us/op these searches cost.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "app/environment.h"
#include "bench_util.h"
#include "net/response_cache.h"

namespace {

using xqib::app::BrowserEnvironment;
using xqib::bench::Args;
using xqib::bench::ScenarioResult;

constexpr int kSources = 8;

std::string SourceUrl(int s) {
  return "http://weather" + std::to_string(s) + ".example.com/api";
}

void PutSources(BrowserEnvironment* env) {
  for (int s = 0; s < kSources; ++s) {
    env->fabric().PutResource(
        SourceUrl(s), "<weather><summary>svc " + std::to_string(s) +
                          ": sunny</summary></weather>");
  }
}

// K literal GET sites: the listener's effect summary lists every URL.
std::string MakeFanoutPage() {
  std::ostringstream page;
  page << "<html><body><input id=\"btn\"/><div id=\"out\"/>\n"
       << "<script type=\"text/xqueryp\"><![CDATA[\n"
       << "declare function local:go($evt, $obj) {\n  string-join((";
  for (int s = 0; s < kSources; ++s) {
    if (s > 0) page << ",\n    ";
    page << "string(http:get(\"" << SourceUrl(s) << "\")//summary)";
  }
  page << "), \"; \")\n};\n"
       << "on event \"onclick\" at //input[@id=\"btn\"] "
       << "attach listener local:go\n]]></script></body></html>";
  return page.str();
}

// One templated GET site inside a FLWOR: the evaluator's scatter hook
// instantiates concat("http://weather", $s, ...) per binding item.
std::string MakeFlworPage() {
  std::ostringstream page;
  page << "<html><body><input id=\"btn\"/><div id=\"out\"/>\n"
       << "<script type=\"text/xqueryp\"><![CDATA[\n"
       << "declare function local:go($evt, $obj) {\n"
       << "  string-join(\n    for $s in (";
  for (int s = 0; s < kSources; ++s) {
    if (s > 0) page << ", ";
    page << "\"" << s << "\"";
  }
  page << ")\n    return string(http:get(concat(\"http://weather\", $s, "
       << "\".example.com/api\"))//summary),\n    \"; \")\n};\n"
       << "on event \"onclick\" at //input[@id=\"btn\"] "
       << "attach listener local:go\n]]></script></body></html>";
  return page.str();
}

struct MashupEnv {
  BrowserEnvironment env;
  xqib::xml::Node* btn = nullptr;

  bool Load(const std::string& page, bool async_federation) {
    PutSources(&env);
    xqib::xquery::Evaluator::EvalOptions opts;
    opts.async_federation = async_federation;
    env.plugin().set_eval_options(opts);
    xqib::Status st = env.LoadPage("http://mashup.example.com/", page);
    if (!st.ok() || !env.ScriptErrors().empty()) {
      std::fprintf(stderr, "page load failed: %s %s\n", st.ToString().c_str(),
                   env.ScriptErrors().c_str());
      return false;
    }
    btn = env.ById("btn");
    return btn != nullptr;
  }

  void Op() {
    xqib::browser::Event e;
    e.type = "onclick";
    (void)env.plugin().FireEvent(btn, e);
  }
};

struct ArmCounters {
  double makespan_ms_per_op = 0;
  double latency_ms_per_op = 0;
  double requests_per_op = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t inflight_peak = 0;
};

// Bare timed loop, no internal warmups (NsPerOp's would land inside
// the fabric-stats window and skew every per-op counter below by
// (iters + 3) / iters, making the virtual metrics depend on --iters).
double TimeOps(const std::function<void()>& op, int iters) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) op();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count() /
         iters;
}

// Times one search with async federation on/off; makespan and latency
// deltas are read off the fabric across the timed window.
bool RunArm(const std::string& page, bool async_federation, int iters,
            double* ns_per_op, ArmCounters* counters, std::string* result) {
  MashupEnv m;
  if (!m.Load(page, async_federation)) return false;
  // Warm plans, fetch-plan caches, and the listener memo gates before
  // the stats snapshot so the timed window holds exactly `iters` ops.
  for (int i = 0; i < 3; ++i) m.Op();
  const xqib::net::HttpFabric::Stats& fs = m.env.fabric().stats();
  const double makespan0 = fs.makespan_ms;
  const double latency0 = fs.simulated_latency_ms;
  const uint64_t requests0 = fs.requests;
  *ns_per_op = TimeOps([&] { m.Op(); }, iters);
  const double ops = static_cast<double>(iters);
  counters->makespan_ms_per_op = (fs.makespan_ms - makespan0) / ops;
  counters->latency_ms_per_op = (fs.simulated_latency_ms - latency0) / ops;
  counters->requests_per_op =
      static_cast<double>(fs.requests - requests0) / ops;
  const auto& es = m.env.plugin().last_event_stats();
  counters->prefetch_issued = es.http_prefetch_issued;
  counters->prefetch_hits = es.http_prefetch_hits;
  counters->inflight_peak = fs.inflight_peak;
  *result = m.env.plugin().last_listener_result();
  if (!m.env.ScriptErrors().empty()) {
    std::fprintf(stderr, "script errors: %s\n",
                 m.env.ScriptErrors().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!xqib::bench::ParseArgs(argc, argv, &args)) return 2;
  const int iters = args.iters;

  std::vector<ScenarioResult> results;
  bool ok = true;

  ArmCounters fanout_async, fanout_serial;
  {
    ScenarioResult sr;
    sr.name = "fanout_scatter";
    std::string on_result, off_result;
    ok &= RunArm(MakeFanoutPage(), true, iters, &sr.on_ns, &fanout_async,
                 &on_result);
    ok &= RunArm(MakeFanoutPage(), false, iters, &sr.off_ns, &fanout_serial,
                 &off_result);
    sr.results_match = on_result == off_result && !on_result.empty();
    if (!sr.results_match) {
      std::fprintf(stderr, "fanout_scatter: async %s != serial %s\n",
                   on_result.c_str(), off_result.c_str());
    }
    results.push_back(sr);
  }

  ArmCounters flwor_async, flwor_serial;
  {
    ScenarioResult sr;
    sr.name = "flwor_scatter";
    std::string on_result, off_result;
    ok &= RunArm(MakeFlworPage(), true, iters, &sr.on_ns, &flwor_async,
                 &on_result);
    ok &= RunArm(MakeFlworPage(), false, iters, &sr.off_ns, &flwor_serial,
                 &off_result);
    sr.results_match = on_result == off_result && !on_result.empty();
    if (!sr.results_match) {
      std::fprintf(stderr, "flwor_scatter: async %s != serial %s\n",
                   on_result.c_str(), off_result.c_str());
    }
    results.push_back(sr);
  }

  // --- warm_cache: same fan-out, shared response cache attached. The
  // first op pays K round trips and fills the cache; every later op
  // answers all K from it (TTL 60 s on a virtual clock that barely
  // moves). Measured against the identical no-cache run above.
  double cold_ns = 0, warm_ns = 0, hit_rate = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  bool cache_match = false;
  {
    MashupEnv m;
    xqib::net::HttpResponseCache cache;
    m.env.fabric().set_response_cache(&cache);
    if (m.Load(MakeFanoutPage(), true)) {
      // The load itself warmed the cache; measure a genuinely cold
      // first search by clearing it.
      cache.Clear();
      cache.ResetStats();
      // No warmup calls here: the first op must really be the one that
      // pays the K round trips and fills the cache.
      cold_ns = TimeOps([&] { m.Op(); }, 1);
      std::string cold_result = m.env.plugin().last_listener_result();
      warm_ns = TimeOps([&] { m.Op(); }, iters);
      cache_hits = cache.stats().hits;
      cache_misses = cache.stats().misses;
      hit_rate = cache_hits + cache_misses == 0
                     ? 0
                     : static_cast<double>(cache_hits) /
                           static_cast<double>(cache_hits + cache_misses);
      cache_match = m.env.plugin().last_listener_result() == cold_result &&
                    !cold_result.empty();
      if (!cache_match) {
        std::fprintf(stderr, "warm_cache: warm result != cold result\n");
      }
    } else {
      ok = false;
    }
    m.env.fabric().set_response_cache(nullptr);
  }

  const double rtt_ms = fanout_serial.requests_per_op > 0
                            ? fanout_serial.latency_ms_per_op /
                                  fanout_serial.requests_per_op
                            : 0;

  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_p9_federation\",\n  \"iters\": " << iters
       << ",\n  \"sources\": " << kSources << ",\n"
       << xqib::bench::ScenariosJson(results, "async", "serial") << ",\n";
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "  \"cache\": {\"name\": \"warm_cache\", \"cold_ns_per_op\": %.1f, "
      "\"warm_ns_per_op\": %.1f, \"hit_rate\": %.4f, \"hits\": %llu, "
      "\"misses\": %llu, \"results_match\": %s},\n",
      cold_ns, warm_ns, hit_rate, static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      cache_match ? "true" : "false");
  json << buf;
  // Virtual-clock metrics as named entries so --baseline can guard them
  // (they are exact, so the guard has no noise floor).
  std::snprintf(
      buf, sizeof(buf),
      "  \"makespan\": [\n"
      "    {\"name\": \"fanout_makespan\", \"async_ms_per_op\": %.2f, "
      "\"serial_ms_per_op\": %.2f},\n"
      "    {\"name\": \"flwor_makespan\", \"async_ms_per_op\": %.2f, "
      "\"serial_ms_per_op\": %.2f}\n  ],\n"
      "  \"counters\": {\"rtt_ms\": %.2f, \"prefetch_issued_per_op\": %llu, "
      "\"prefetch_hits_per_op\": %llu, \"inflight_peak\": %llu, "
      "\"requests_per_op\": %.1f}\n}\n",
      fanout_async.makespan_ms_per_op, fanout_serial.makespan_ms_per_op,
      flwor_async.makespan_ms_per_op, flwor_serial.makespan_ms_per_op,
      rtt_ms,
      static_cast<unsigned long long>(fanout_async.prefetch_issued),
      static_cast<unsigned long long>(fanout_async.prefetch_hits),
      static_cast<unsigned long long>(fanout_async.inflight_peak),
      fanout_async.requests_per_op);
  json << buf;
  xqib::bench::EmitJson(json.str(), args.out_path);

  if (!ok) {
    std::fprintf(stderr, "FAIL: a scenario did not run\n");
    return 1;
  }
  if (args.check) {
    if (!xqib::bench::AllResultsMatch(results) || !cache_match) return 1;
    // The P9 acceptance floor: over 8 sources the overlapped arms'
    // virtual wall clock stays within 2 RTTs while the serial arms pay
    // nearly all 8 — the fig3 mash-up speedup this PR exists for.
    struct { const char* name; const ArmCounters* async_arm;
             const ArmCounters* serial_arm; } spans[] = {
        {"fanout_scatter", &fanout_async, &fanout_serial},
        {"flwor_scatter", &flwor_async, &flwor_serial},
    };
    for (const auto& s : spans) {
      if (s.async_arm->makespan_ms_per_op > 2.0 * rtt_ms) {
        std::fprintf(stderr,
                     "FAIL: %s: overlapped makespan %.2f ms/op exceeds 2x "
                     "RTT (%.2f ms)\n",
                     s.name, s.async_arm->makespan_ms_per_op, rtt_ms);
        return 1;
      }
      if (s.serial_arm->makespan_ms_per_op < 6.0 * rtt_ms) {
        std::fprintf(stderr,
                     "FAIL: %s: serial makespan %.2f ms/op below 6x RTT "
                     "(%.2f ms) — the serial oracle overlapped?\n",
                     s.name, s.serial_arm->makespan_ms_per_op, rtt_ms);
        return 1;
      }
    }
    if (fanout_async.prefetch_issued < static_cast<uint64_t>(kSources) ||
        fanout_async.prefetch_hits < static_cast<uint64_t>(kSources)) {
      std::fprintf(stderr,
                   "FAIL: fanout scatter issued %llu / consumed %llu "
                   "prefetches (want %d)\n",
                   static_cast<unsigned long long>(
                       fanout_async.prefetch_issued),
                   static_cast<unsigned long long>(fanout_async.prefetch_hits),
                   kSources);
      return 1;
    }
    if (hit_rate < 0.9) {
      std::fprintf(stderr, "FAIL: warm-cache hit rate %.3f below 0.9\n",
                   hit_rate);
      return 1;
    }
    std::fputs("CHECK OK\n", stderr);
  }
  // Guard the virtual metrics, not CPU ns/op: overlapped makespan and
  // the warm pass's miss count are deterministic, so any drift is a
  // real regression (a lost overlap, a cache that stopped answering),
  // never runner noise.
  if (!args.baseline_path.empty() &&
      !xqib::bench::CheckBaseline(
          args.baseline_path,
          {{"fanout_makespan", "async_ms_per_op",
            fanout_async.makespan_ms_per_op},
           {"flwor_makespan", "async_ms_per_op",
            flwor_async.makespan_ms_per_op},
           {"warm_cache", "misses", static_cast<double>(cache_misses)}})) {
    return 1;
  }
  return 0;
}
