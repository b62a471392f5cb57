// P3 — streaming XDM: the pull-based ItemStream pipeline vs the eager
// vector-sequence baseline (EvalOptions::stream_pipeline off). A
// self-timed runner emitting machine-readable JSON (BENCH_P3.json) with
// an on/off ablation per scenario.
//
// Usage:
//   bench_p3_streaming [--iters N] [--out FILE] [--check]
//
// --check exits non-zero unless (a) every scenario produces identical
// results with the stream pipeline on and off, (b) the streaming
// counters (items pulled, buffers avoided, count-index hits, early
// exits) actually fired, and (c) the deep-FLWOR micro materializes at
// least 5x fewer intermediate items with the pipeline on — i.e. the
// pipeline is sound, live, and actually lazy.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using xqib::bench::Args;
using xqib::bench::ScenarioResult;
using xqib::xquery::Evaluator;

// Both arms keep PR 2's fast paths (elision, name index, bounded eval)
// on; the only axis flipped is the streaming pipeline itself, so the
// numbers isolate what pull-based evaluation buys on top of PR 2.
Evaluator::EvalOptions StreamOn() { return Evaluator::EvalOptions(); }

Evaluator::EvalOptions StreamOff() {
  Evaluator::EvalOptions off;
  off.stream_pipeline = false;
  return off;
}

// Nested sections/items/leaves: a three-level page so a multi-clause
// FLWOR has genuinely large intermediate bindings to avoid buffering.
std::string MakeNestedPage(int secs, int items, int leaves) {
  std::ostringstream out;
  out << "<page>";
  for (int s = 0; s < secs; ++s) {
    out << "<sec id=\"s" << s << "\">";
    for (int i = 0; i < items; ++i) {
      out << "<item v=\"" << (i % 97) << "\">";
      for (int l = 0; l < leaves; ++l) out << "<leaf/>";
      out << "</item>";
    }
    out << "</sec>";
  }
  out << "</page>";
  return out.str();
}

std::string ToJson(const std::vector<ScenarioResult>& results, int iters,
                   const xqib::xquery::Counters& counters,
                   uint64_t flwor_stream_mat, uint64_t flwor_eager_mat) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"bench_p3_streaming\",\n  \"iters\": " << iters
      << ",\n"
      << xqib::bench::ScenariosJson(results, "stream", "eager") << ",\n";
  double reduction =
      flwor_stream_mat > 0
          ? static_cast<double>(flwor_eager_mat) /
                static_cast<double>(flwor_stream_mat)
          : static_cast<double>(flwor_eager_mat);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"deep_flwor_materialization\": "
                "{\"stream_items_materialized\": %llu, "
                "\"eager_items_materialized\": %llu, "
                "\"reduction\": %.1f},\n",
                static_cast<unsigned long long>(flwor_stream_mat),
                static_cast<unsigned long long>(flwor_eager_mat), reduction);
  out << buf;
  out << "  \"counters\": {\"items_pulled\": " << counters.items_pulled
      << ", \"items_materialized\": " << counters.items_materialized
      << ", \"buffers_avoided\": " << counters.buffers_avoided
      << ", \"count_index_hits\": " << counters.count_index_hits
      << ", \"early_exits\": " << counters.early_exits << "}\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!xqib::bench::ParseArgs(argc, argv, &args)) return 2;
  const int iters = args.iters;

  const std::string page = MakeNestedPage(30, 20, 5);
  const std::string deep_flwor =
      "count(for $s in //sec, $i in $s/item, $l in $i/leaf return $l)";
  std::vector<ScenarioResult> results;
  // The stream arms' counters summed over the scenarios; --check asserts
  // the pipeline's counter families all fired somewhere.
  xqib::xquery::Counters totals;
  xqib::xquery::Counters s;
  bool ok = true;

  auto query = [&](const std::string& name, const std::string& q,
                   const std::string& xml) {
    bool ran = xqib::bench::RunQueryScenario(name, q, xml, iters, StreamOn(),
                                             StreamOff(), &results, &s);
    totals += s;
    return ran;
  };
  ok &= query("deep_flwor_count", deep_flwor, page);
  ok &= query("micro_exists_where",
              "exists(for $i in 1 to 100000 "
              "where $i mod 2 = 0 return $i)",
              "");
  ok &= query("micro_head_flwor", "head(for $i in 1 to 100000 return $i * 2)",
              "");
  ok &= query("micro_count_fold", "count(//item/@v)", page);
  ok &= query("micro_count_index", "count(//leaf)", page);

  ok &= xqib::bench::RunDispatchScenario("fig1_event_dispatch", 300, iters,
                                         StreamOn(), StreamOff(), &results,
                                         &s);
  totals += s;

  // Peak-intermediate-materialization ratio on the deep FLWOR: one
  // fresh run per arm so the counters are per-execution, not per
  // timing loop.
  xqib::xquery::Counters flwor_on, flwor_off;
  ok &= xqib::bench::MeasureStats(deep_flwor, page, StreamOn(), &flwor_on);
  ok &= xqib::bench::MeasureStats(deep_flwor, page, StreamOff(), &flwor_off);

  xqib::bench::EmitJson(
      ToJson(results, iters, totals, flwor_on.items_materialized,
             flwor_off.items_materialized),
      args.out_path);

  if (!ok) {
    std::fprintf(stderr, "FAIL: a scenario did not run\n");
    return 1;
  }
  if (args.check) {
    if (!xqib::bench::AllResultsMatch(results)) return 1;
    if (totals.items_pulled == 0 || totals.buffers_avoided == 0 ||
        totals.count_index_hits == 0 || totals.early_exits == 0) {
      std::fprintf(stderr, "FAIL: a streaming counter never fired\n");
      return 1;
    }
    if (flwor_off.items_materialized <
        5 * (flwor_on.items_materialized == 0
                 ? uint64_t{1}
                 : flwor_on.items_materialized.value())) {
      std::fprintf(stderr,
                   "FAIL: deep-FLWOR materialization reduction below 5x "
                   "(on=%llu off=%llu)\n",
                   static_cast<unsigned long long>(flwor_on.items_materialized),
                   static_cast<unsigned long long>(
                       flwor_off.items_materialized));
      return 1;
    }
    std::fputs("CHECK OK\n", stderr);
  }
  return 0;
}
