// Shared machinery for the self-timed JSON benchmark runners
// (bench_p4_memory, bench_p7_plans, bench_p9_federation,
// bench_s1_server): argument parsing, the warmup+timing loop, the
// dispatch ablation scenario, and the common JSON results schema
//   {"name": ..., "<on>_ns_per_op": ..., "<off>_ns_per_op": ...,
//    "speedup": ..., "results_match": ...}
// so every runner's checked-in BENCH_*.json stays structurally
// identical and CI can scrape them uniformly.

#ifndef XQIB_BENCH_BENCH_UTIL_H_
#define XQIB_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "plugin/plugin.h"
#include "xquery/evaluator.h"

namespace xqib::bench {

// --iters N / --out FILE / --check / --baseline FILE.
struct Args {
  int iters = 200;
  std::string out_path;
  bool check = false;
  std::string baseline_path;
};

// Returns false (after printing usage) on an unrecognized flag.
bool ParseArgs(int argc, char** argv, Args* args);

// One on/off ablation measurement.
struct ScenarioResult {
  std::string name;
  double on_ns = 0;
  double off_ns = 0;
  bool results_match = false;
};

// Median-free ns/op: 3 warmup calls, then `iters` timed calls.
double NsPerOp(const std::function<void()>& op, int iters);

// The Figure 1 dispatch page: a button, a status span, `rows` table
// rows, and an XQuery listener that re-counts the rows on every click.
std::string MakeDispatchPage(int rows);

// Times one event dispatch (FireEvent through the plug-in) with the
// page evaluator's options flipped between the two arms.
bool RunDispatchScenario(const std::string& name, int rows, int iters,
                         const xquery::Evaluator::EvalOptions& on,
                         const xquery::Evaluator::EvalOptions& off,
                         std::vector<ScenarioResult>* results,
                         xquery::Counters* on_stats);

// The shared scenarios array; `on_key`/`off_key` label the two arms
// (e.g. "fast"/"slow", "stream"/"eager", "arena"/"heap").
std::string ScenariosJson(const std::vector<ScenarioResult>& results,
                          const char* on_key, const char* off_key);

// Prints `json` to stdout and, when `out_path` is non-empty, writes it
// there too.
void EmitJson(const std::string& json, const std::string& out_path);

bool AllResultsMatch(const std::vector<ScenarioResult>& results);

// Nearest-rank percentile (pct in [0,100]) over `samples`; copies and
// sorts internally, so callers can keep feeding the same vector. 0 on
// an empty input.
double Percentile(std::vector<double> samples, double pct);

// The load-harness latency digest: p50/p95/p99 plus count and mean,
// computed in one sort.
struct LatencySummary {
  size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};
LatencySummary SummarizeLatencies(std::vector<double> samples);

// Scrapes `"field": <number>` out of the object whose `"name"` equals
// `scenario` in a checked-in BENCH_*.json (line-oriented; the emitter
// above writes one scenario per line). Used by the CI regression guard
// to compare fresh numbers against the committed baseline.
bool ReadBaselineValue(const std::string& path, const std::string& scenario,
                       const std::string& field, double* out);

// One --baseline guarded metric: a fresh measurement to compare against
// the `scenario`/`field` value in a checked-in BENCH_*.json.
struct BaselineMetric {
  std::string scenario;
  std::string field;
  double fresh = 0;
};

// Shared --baseline regression guard: every metric's fresh value must
// satisfy fresh <= baseline * tolerance. Reports EVERY metric (not just
// the first failure) as a name/expected/actual/delta line; a missing or
// non-positive baseline entry fails too. Returns true when all pass.
bool CheckBaseline(const std::string& path,
                   const std::vector<BaselineMetric>& metrics,
                   double tolerance = 1.25);

}  // namespace xqib::bench

#endif  // XQIB_BENCH_BENCH_UTIL_H_
