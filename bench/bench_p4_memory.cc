// P4 — the memory layer: interned QNames, the arena-backed stream
// pipeline, and the mutation-versioned pure-listener memo cache.
// Self-timed runner emitting BENCH_P4.json (bench_util.h's schema).
//
// Usage:
//   bench_p4_memory [--iters N] [--out FILE] [--check] [--baseline FILE]
//
// Scenario:
//   fig1_dispatch_memo     repeated identical clicks on a page whose
//                          listener the analyzer proved memoizable;
//                          arms = memo cache on vs off.
//
// Besides timing, the runner reports the memo hit rate and the arena
// counters of one evaluated (memo-off) dispatch.
//
// --check exits non-zero unless both arms' results match, the memo hit
// rate is >= 90%, the fresh memo-arm fig1 dispatch beats the
// stream-arm fig1 dispatch time measured before the memory layer
// existed (148817 ns, kPr3Fig1Ns) by >= 1.5x, and the evaluated
// dispatch allocated from and reset its arena.
// --baseline FILE additionally compares the fresh fig1_dispatch_memo
// ns/op against the checked-in BENCH_P4.json within +/-25% — the CI
// regression guard.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "app/environment.h"
#include "bench_util.h"
#include "xml/interning.h"

namespace {

using xqib::app::BrowserEnvironment;
using xqib::bench::Args;
using xqib::bench::ScenarioResult;

// The stream-arm fig1 dispatch time, in ns, measured before the memory
// layer landed; the memo arm must beat it by >= 1.5x. A stored figure:
// the runner that measured it is retired.
constexpr double kPr3Fig1Ns = 148817.0;

// The Figure 1 page with a NON-updating listener: recomputes the row
// count into its result instead of writing it back, so the analyzer
// proves it pure and memoizable and repeated identical clicks can be
// answered from the memo cache.
std::string MakePureDispatchPage(int rows) {
  std::ostringstream out;
  out << R"(<html><body>
<input id="btn"/><span id="status">0</span><table id="data">)";
  for (int i = 0; i < rows; ++i) {
    out << "<tr><td>r" << i << "</td></tr>";
  }
  out << R"(</table>
<script type="text/xqueryp"><![CDATA[
declare function local:peek($evt, $obj) {
  count(//tr) + count($evt/self::event)
};
on event "onclick" at //input[@id="btn"] attach listener local:peek
]]></script></body></html>)";
  return out.str();
}

struct DispatchEnv {
  BrowserEnvironment env;
  xqib::xml::Node* button = nullptr;

  bool Load(const std::string& page) {
    xqib::Status st = env.LoadPage("http://bench.example.com/", page);
    if (!st.ok() || !env.ScriptErrors().empty()) {
      std::fprintf(stderr, "page load failed: %s %s\n", st.ToString().c_str(),
                   env.ScriptErrors().c_str());
      return false;
    }
    button = env.ById("btn");
    return button != nullptr;
  }

  void Click() {
    xqib::browser::Event e;
    e.type = "onclick";
    (void)env.plugin().FireEvent(button, e);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!xqib::bench::ParseArgs(argc, argv, &args)) return 2;
  const int iters = args.iters;

  std::vector<ScenarioResult> results;
  bool ok = true;

  // --- fig1_dispatch_memo: memo cache on vs off, identical clicks. ---
  xqib::xquery::Counters memo_delta;
  double memo_hit_rate = 0;
  xqib::xquery::Counters evaluated;
  {
    DispatchEnv d;
    ok &= d.Load(MakePureDispatchPage(300));
    if (ok) {
      ScenarioResult sr;
      sr.name = "fig1_dispatch_memo";
      d.env.plugin().set_memo_enabled(true);
      const xqib::xquery::Counters before = d.env.plugin().counters();
      sr.on_ns = xqib::bench::NsPerOp([&] { d.Click(); }, iters);
      memo_delta = d.env.plugin().counters() - before;
      uint64_t lookups = memo_delta.memo_hits + memo_delta.memo_misses +
                         memo_delta.memo_invalidations;
      memo_hit_rate =
          lookups > 0 ? static_cast<double>(memo_delta.memo_hits) / lookups
                      : 0;
      std::string memo_result = d.env.plugin().last_listener_result();
      d.env.plugin().set_memo_enabled(false);
      sr.off_ns = xqib::bench::NsPerOp([&] { d.Click(); }, iters);
      evaluated = d.env.plugin().last_event_stats();
      std::string fresh_result = d.env.plugin().last_listener_result();
      sr.results_match = memo_result == fresh_result && memo_result == "301";
      if (!sr.results_match) {
        std::fprintf(stderr,
                     "fig1_dispatch_memo: replayed result %s != fresh %s\n",
                     memo_result.c_str(), fresh_result.c_str());
      }
      results.push_back(sr);
    }
  }

  double fig1_fresh_ns = results.empty() ? 0 : results[0].on_ns;
  double fig1_vs_pr3 = fig1_fresh_ns > 0 ? kPr3Fig1Ns / fig1_fresh_ns : 0;
  xqib::xml::InternPoolStats intern = xqib::xml::GetInternStats();

  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_p4_memory\",\n  \"iters\": " << iters
       << ",\n"
       << xqib::bench::ScenariosJson(results, "on", "off") << ",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"memo\": {\"hits\": %llu, \"misses\": %llu, "
                "\"invalidations\": %llu, \"hit_rate\": %.3f},\n",
                static_cast<unsigned long long>(memo_delta.memo_hits),
                static_cast<unsigned long long>(memo_delta.memo_misses),
                static_cast<unsigned long long>(memo_delta.memo_invalidations),
                memo_hit_rate);
  json << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"fig1_vs_pr3\": {\"pr3_stream_ns\": %.1f, "
                "\"fresh_ns\": %.1f, \"speedup\": %.2f},\n",
                kPr3Fig1Ns, fig1_fresh_ns, fig1_vs_pr3);
  json << buf;
  std::snprintf(
      buf, sizeof(buf),
      "  \"counters\": {\"arena_bytes_used\": %llu, \"arena_resets\": "
      "%llu, \"intern_hits\": %llu, \"intern_strings\": %llu}\n}\n",
      static_cast<unsigned long long>(evaluated.arena_bytes_used),
      static_cast<unsigned long long>(evaluated.arena_resets),
      static_cast<unsigned long long>(intern.hits),
      static_cast<unsigned long long>(intern.strings));
  json << buf;
  xqib::bench::EmitJson(json.str(), args.out_path);

  if (!ok) {
    std::fprintf(stderr, "FAIL: a scenario did not run\n");
    return 1;
  }
  if (args.check) {
    if (!xqib::bench::AllResultsMatch(results)) return 1;
    if (memo_hit_rate < 0.9) {
      std::fprintf(stderr, "FAIL: memo hit rate %.3f below 0.9\n",
                   memo_hit_rate);
      return 1;
    }
    if (fig1_vs_pr3 < 1.5) {
      std::fprintf(stderr,
                   "FAIL: fig1 dispatch %.1f ns only %.2fx over the PR 3 "
                   "baseline %.1f ns (need 1.5x)\n",
                   fig1_fresh_ns, fig1_vs_pr3, kPr3Fig1Ns);
      return 1;
    }
    if (evaluated.arena_bytes_used == 0 || evaluated.arena_resets == 0) {
      std::fprintf(stderr, "FAIL: arena counters never fired\n");
      return 1;
    }
    std::fputs("CHECK OK\n", stderr);
  }
  if (!args.baseline_path.empty() &&
      !xqib::bench::CheckBaseline(
          args.baseline_path,
          {{"fig1_dispatch_memo", "on_ns_per_op", fig1_fresh_ns}})) {
    return 1;
  }
  return 0;
}
