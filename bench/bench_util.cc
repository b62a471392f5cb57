#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "app/environment.h"
#include "xml/xml_parser.h"
#include "xquery/engine.h"

namespace xqib::bench {

using app::BrowserEnvironment;
using xquery::DynamicContext;
using xquery::Engine;
using xquery::Evaluator;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      args->iters = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      args->out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      args->baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      args->check = true;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--iters N] [--out FILE] [--check] [--baseline FILE]\n",
          argv[0]);
      return false;
    }
  }
  if (args->iters <= 0) args->iters = 1;
  return true;
}

double NsPerOp(const std::function<void()>& op, int iters) {
  for (int i = 0; i < 3; ++i) op();  // warm caches and the name index
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) op();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count() /
         iters;
}

std::string MakeDispatchPage(int rows) {
  std::ostringstream out;
  out << R"(<html><body>
<input id="btn"/><span id="status">0</span><table id="data">)";
  for (int i = 0; i < rows; ++i) {
    out << "<tr><td>r" << i << "</td></tr>";
  }
  out << R"(</table>
<script type="text/xqueryp"><![CDATA[
declare updating function local:refresh($evt, $obj) {
  replace value of node //span[@id="status"]
    with string(count(//tr))
};
on event "onclick" at //input[@id="btn"] attach listener local:refresh
]]></script></body></html>)";
  return out.str();
}

bool RunDispatchScenario(const std::string& name, int rows, int iters,
                         const Evaluator::EvalOptions& on,
                         const Evaluator::EvalOptions& off,
                         std::vector<ScenarioResult>* results,
                         xquery::Counters* on_stats) {
  BrowserEnvironment env;
  Status st =
      env.LoadPage("http://bench.example.com/", MakeDispatchPage(rows));
  if (!st.ok() || !env.ScriptErrors().empty()) {
    std::fprintf(stderr, "%s: page load failed: %s %s\n", name.c_str(),
                 st.ToString().c_str(), env.ScriptErrors().c_str());
    return false;
  }
  xml::Node* button = env.ById("btn");
  auto click = [&] {
    browser::Event e;
    e.type = "onclick";
    (void)env.plugin().FireEvent(button, e);
  };
  ScenarioResult sr;
  sr.name = name;
  env.plugin().set_eval_options(on);
  sr.on_ns = NsPerOp(click, iters);
  *on_stats = env.plugin().last_event_stats();
  std::string on_status = env.ById("status")->StringValue();
  env.plugin().set_eval_options(off);
  sr.off_ns = NsPerOp(click, iters);
  std::string off_status = env.ById("status")->StringValue();
  sr.results_match =
      on_status == off_status && on_status == std::to_string(rows);
  results->push_back(sr);
  return true;
}

std::string ScenariosJson(const std::vector<ScenarioResult>& results,
                          const char* on_key, const char* off_key) {
  std::ostringstream out;
  out << "  \"scenarios\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    double speedup = r.on_ns > 0 ? r.off_ns / r.on_ns : 0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"%s_ns_per_op\": %.1f, "
                  "\"%s_ns_per_op\": %.1f, \"speedup\": %.2f, "
                  "\"results_match\": %s}%s\n",
                  r.name.c_str(), on_key, r.on_ns, off_key, r.off_ns, speedup,
                  r.results_match ? "true" : "false",
                  i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]";
  return out.str();
}

void EmitJson(const std::string& json, const std::string& out_path) {
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json;
  }
  std::fputs(json.c_str(), stdout);
}

bool AllResultsMatch(const std::vector<ScenarioResult>& results) {
  bool ok = true;
  for (const ScenarioResult& r : results) {
    if (!r.results_match) {
      std::fprintf(stderr, "FAIL: %s ablation results differ\n",
                   r.name.c_str());
      ok = false;
    }
  }
  return ok;
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  if (pct <= 0) return samples.front();
  // Nearest-rank: the smallest sample with at least pct% of the mass
  // at or below it. ceil(p/100 * n) as an index, clamped.
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
  if (rank == 0) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

LatencySummary SummarizeLatencies(std::vector<double> samples) {
  LatencySummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  double sum = 0;
  for (double s : samples) sum += s;
  out.mean = sum / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  auto rank = [&](double pct) {
    size_t r = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
    if (r == 0) r = 1;
    if (r > samples.size()) r = samples.size();
    return samples[r - 1];
  };
  out.p50 = rank(50);
  out.p95 = rank(95);
  out.p99 = rank(99);
  return out;
}

bool ReadBaselineValue(const std::string& path, const std::string& scenario,
                       const std::string& field, double* out) {
  std::ifstream in(path);
  if (!in) return false;
  const std::string name_marker = "\"name\": \"" + scenario + "\"";
  const std::string field_marker = "\"" + field + "\":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(name_marker) == std::string::npos) continue;
    size_t at = line.find(field_marker);
    if (at == std::string::npos) return false;
    *out = std::atof(line.c_str() + at + field_marker.size());
    return true;
  }
  return false;
}

bool CheckBaseline(const std::string& path,
                   const std::vector<BaselineMetric>& metrics,
                   double tolerance) {
  bool ok = true;
  for (const BaselineMetric& m : metrics) {
    const std::string label = m.scenario + "." + m.field;
    double baseline = 0;
    if (!ReadBaselineValue(path, m.scenario, m.field, &baseline) ||
        baseline <= 0) {
      std::fprintf(stderr, "FAIL: %s: no baseline entry in %s\n",
                   label.c_str(), path.c_str());
      ok = false;
      continue;
    }
    double delta_pct = (m.fresh / baseline - 1.0) * 100.0;
    if (m.fresh > baseline * tolerance) {
      std::fprintf(stderr,
                   "FAIL: %s: expected <= %.1f (baseline %.1f x %.2f), "
                   "actual %.1f, delta %+.0f%%\n",
                   label.c_str(), baseline * tolerance, baseline, tolerance,
                   m.fresh, delta_pct);
      ok = false;
    } else {
      std::fprintf(stderr,
                   "BASELINE OK: %s: expected %.1f, actual %.1f, "
                   "delta %+.0f%%\n",
                   label.c_str(), baseline, m.fresh, delta_pct);
    }
  }
  return ok;
}

}  // namespace xqib::bench
