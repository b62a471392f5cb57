// P7 — compiled query plans: user-function bodies lowered once into
// flat register bytecode (xquery/plan/) so a memo-miss listener
// dispatch executes a linear op array instead of tree-walking the AST.
// Self-timed runner emitting BENCH_P7.json, same schema as P2-P6.
//
// Usage:
//   bench_p7_plans [--iters N] [--out FILE] [--check] [--baseline FILE]
//
// Scenarios (arms = EvalOptions::compiled_plans on vs off; the tree
// walker is the oracle, so both arms must produce identical DOM state):
//   memomiss_dispatch  the P7 acceptance scenario: an UPDATING listener
//                      (never memoizable — every click is a memo miss)
//                      whose body is a FLWOR over 1 to N with integer
//                      arithmetic and a mod/where filter, ending in one
//                      `replace value of node //span[@id="status"]`.
//                      The plan arm runs the loop as arith.int/compare
//                      bytecode; the tree arm re-walks the AST per
//                      iteration.
//   fig1_dispatch      the Figure 1 continuity page (count //tr rows on
//                      click) with plans on vs off — the path/count
//                      work dominates, so this guards "plans never hurt
//                      the paths the earlier PRs optimized".
//
// --check exits non-zero unless both ablations agree, the plan arm wins
// >= 2x on memomiss_dispatch (the P7 acceptance floor), the warm
// dispatch performed zero plan compilations (the plan-cache hit path),
// and at least one call actually executed through a plan.
// --baseline FILE compares the fresh memomiss_dispatch plan-arm ns/op
// against the checked-in BENCH_P7.json within +/-25%.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "app/environment.h"
#include "bench_util.h"
#include "xml/dom.h"

namespace {

using xqib::app::BrowserEnvironment;
using xqib::bench::Args;
using xqib::bench::ScenarioResult;
using xqib::xquery::Evaluator;

// The memo-miss page: one button, one status span, and an updating
// listener dominated by plan-lowerable integer work.
std::string MakePlanWorkPage(int n) {
  std::ostringstream out;
  out << "<html><head><script type=\"text/xqueryp\"><![CDATA[\n"
      << "declare updating function local:work($evt, $obj) {\n"
      << "  let $acc :=\n"
      << "    for $i in 1 to " << n << "\n"
      << "    where ($i * 3 + 1) mod 7 = 3\n"
      << "    return $i * $i mod 101\n"
      << "  return replace value of node //span[@id=\"status\"]\n"
      << "    with string(sum($acc) + count($acc))\n"
      << "};\n"
      << "on event \"onclick\" at //input[@id=\"btn\"] "
      << "attach listener local:work\n"
      << "]]></script></head><body>"
      << "<input id=\"btn\"/><span id=\"status\">0</span>"
      << "</body></html>";
  return out.str();
}

// Times one event dispatch on `page` with compiled plans flipped
// between the arms; `on_stats` receives the last warm on-arm dispatch's
// counters (its plan_compiles must be zero: the cache-hit path).
bool RunPlanDispatch(const std::string& name, const std::string& page,
                     int iters, const Evaluator::EvalOptions& on,
                     const Evaluator::EvalOptions& off,
                     std::vector<ScenarioResult>* results,
                     xqib::xquery::Counters* on_stats) {
  BrowserEnvironment env;
  xqib::Status st = env.LoadPage("http://bench.example.com/", page);
  if (!st.ok() || !env.ScriptErrors().empty()) {
    std::fprintf(stderr, "%s: page load failed: %s %s\n", name.c_str(),
                 st.ToString().c_str(), env.ScriptErrors().c_str());
    return false;
  }
  xqib::xml::Node* button = env.ById("btn");
  if (button == nullptr) return false;
  auto click = [&] {
    xqib::browser::Event e;
    e.type = "onclick";
    (void)env.plugin().FireEvent(button, e);
  };
  ScenarioResult sr;
  sr.name = name;
  env.plugin().set_eval_options(on);
  sr.on_ns = xqib::bench::NsPerOp(click, iters);
  *on_stats = env.plugin().last_event_stats();
  std::string on_status = env.ById("status")->StringValue();
  env.plugin().set_eval_options(off);
  sr.off_ns = xqib::bench::NsPerOp(click, iters);
  std::string off_status = env.ById("status")->StringValue();
  sr.results_match = on_status == off_status && !on_status.empty() &&
                     on_status != "0";
  if (!sr.results_match) {
    std::fprintf(stderr, "%s: ablation results differ: plan %s tree %s\n",
                 name.c_str(), on_status.c_str(), off_status.c_str());
  }
  results->push_back(sr);
  if (!env.ScriptErrors().empty()) {
    std::fprintf(stderr, "%s: script errors during dispatch: %s\n",
                 name.c_str(), env.ScriptErrors().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!xqib::bench::ParseArgs(argc, argv, &args)) return 2;
  const int iters = args.iters;

  Evaluator::EvalOptions on;  // defaults: compiled_plans = true
  Evaluator::EvalOptions off;
  off.compiled_plans = false;

  std::vector<ScenarioResult> results;
  bool ok = true;

  xqib::xquery::Counters plan_stats;
  ok &= RunPlanDispatch("memomiss_dispatch", MakePlanWorkPage(4000), iters,
                        on, off, &results, &plan_stats);

  xqib::xquery::Counters fig1_stats;
  ok &= xqib::bench::RunDispatchScenario("fig1_dispatch", 2000, iters, on,
                                         off, &results, &fig1_stats);

  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_p7_plans\",\n  \"iters\": " << iters
       << ",\n"
       << xqib::bench::ScenariosJson(results, "plan", "tree") << ",\n";
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "  \"warm_dispatch\": {\"plan_hits\": %llu, \"plan_misses\": %llu, "
      "\"plan_compiles\": %llu, \"plan_invalidations\": %llu}\n}\n",
      static_cast<unsigned long long>(plan_stats.plan_hits),
      static_cast<unsigned long long>(plan_stats.plan_misses),
      static_cast<unsigned long long>(plan_stats.plan_compiles),
      static_cast<unsigned long long>(plan_stats.plan_invalidations));
  json << buf;
  xqib::bench::EmitJson(json.str(), args.out_path);

  if (!ok) {
    std::fprintf(stderr, "FAIL: a scenario did not run\n");
    return 1;
  }
  if (args.check) {
    if (!xqib::bench::AllResultsMatch(results)) return 1;
    const ScenarioResult& mm = results[0];
    const double speedup = mm.on_ns > 0 ? mm.off_ns / mm.on_ns : 0;
    if (speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL: memo-miss dispatch speedup %.2fx below the 2x "
                   "floor (plan %.1f ns, tree %.1f ns)\n",
                   speedup, mm.on_ns, mm.off_ns);
      return 1;
    }
    if (plan_stats.plan_compiles != 0) {
      std::fprintf(stderr,
                   "FAIL: warm dispatch compiled %llu plans (the cache-hit "
                   "path must compile zero)\n",
                   static_cast<unsigned long long>(plan_stats.plan_compiles));
      return 1;
    }
    if (plan_stats.plan_hits == 0) {
      std::fprintf(stderr,
                   "FAIL: no call executed through a plan on the plan arm\n");
      return 1;
    }
    std::fputs("CHECK OK\n", stderr);
  }
  if (!args.baseline_path.empty() &&
      !xqib::bench::CheckBaseline(
          args.baseline_path,
          {{"memomiss_dispatch", "plan_ns_per_op", results[0].on_ns}})) {
    return 1;
  }
  return 0;
}
