// Tests for the query profiler (§7 future-work tooling).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "xml/xml_parser.h"
#include "xquery/counters.h"
#include "xquery/engine.h"
#include "xquery/parser.h"
#include "xquery/profiler.h"

namespace xqib::xquery {
namespace {

TEST(Profiler, CountsEvaluations) {
  Engine engine;
  CompileOptions no_opt;
  no_opt.optimize = false;  // keep the AST as written
  auto q = engine.Compile("for $i in 1 to 100 return $i * 2", no_opt);
  ASSERT_TRUE(q.ok());
  DynamicContext ctx;
  Profiler profiler;
  ctx.profiler = &profiler;
  auto r = (*q)->Run(ctx);
  ASSERT_TRUE(r.ok());
  // The multiply evaluates once per binding; the profiler saw it.
  bool found_mul = false;
  for (const Profiler::Entry& e : profiler.HotSpots()) {
    if (e.expr->kind == ExprKind::kArith) {
      EXPECT_EQ(e.count, 100u);
      found_mul = true;
    }
  }
  EXPECT_TRUE(found_mul);
  EXPECT_GT(profiler.total_evaluations(), 200u);  // var refs etc.
}

TEST(Profiler, SelfTimeNeverExceedsTotal) {
  Engine engine;
  auto q = engine.Compile(
      "sum(for $i in 1 to 50 return $i) + count(1 to 20)");
  ASSERT_TRUE(q.ok());
  DynamicContext ctx;
  Profiler profiler;
  ctx.profiler = &profiler;
  ASSERT_TRUE((*q)->Run(ctx).ok());
  for (const Profiler::Entry& e : profiler.HotSpots()) {
    EXPECT_LE(e.self_us, e.total_us + 1e-6) << DescribeExpr(*e.expr);
    EXPECT_GE(e.self_us, -1e-6);
  }
}

TEST(Profiler, ReportMentionsHotExpressions) {
  Engine engine;
  auto q = engine.Compile(
      "count(//item[xs:integer(string(.)) > 50])");
  ASSERT_TRUE(q.ok());
  std::string xml = "<r>";
  for (int i = 0; i < 100; ++i) {
    xml += "<item>" + std::to_string(i) + "</item>";
  }
  xml += "</r>";
  auto doc = std::move(xml::ParseDocument(xml)).value();
  DynamicContext ctx;
  DynamicContext::Focus f;
  f.item = xdm::Item::Node(doc->root());
  f.position = 1;
  f.size = 1;
  f.has_item = true;
  ctx.set_focus(f);
  Profiler profiler;
  ctx.profiler = &profiler;
  ASSERT_TRUE((*q)->Run(ctx).ok());
  std::string report = profiler.Report(10);
  EXPECT_NE(report.find("call"), std::string::npos);
  EXPECT_NE(report.find("count"), std::string::npos);
}

TEST(Profiler, DescribeExprLabels) {
  auto check = [](const std::string& query, const std::string& expect) {
    auto m = ParseExpression(query);
    ASSERT_TRUE(m.ok());
    EXPECT_NE(DescribeExpr(*(*m)->body).find(expect), std::string::npos)
        << query;
  };
  check("count(//a)", "call count#1");
  check("//a/b", "path //a/b");
  check("<x/>", "element-constructor <x>");
  check("42", "literal 42");
}

TEST(Profiler, ClearResets) {
  Engine engine;
  auto q = engine.Compile("1 + 1");
  ASSERT_TRUE(q.ok());
  DynamicContext ctx;
  Profiler profiler;
  ctx.profiler = &profiler;
  ASSERT_TRUE((*q)->Run(ctx).ok());
  EXPECT_GT(profiler.total_evaluations(), 0u);
  profiler.Clear();
  EXPECT_EQ(profiler.total_evaluations(), 0u);
}

TEST(Profiler, TracksPathFastPathCounters) {
  // The fast paths count into the evaluator's dispatch counter set
  // (xquery/counters.h); attaching a profiler changes none of the counts.
  Engine engine;
  const char* query = "count(//a) + count(/r/a) + number(exists(//b))";
  auto profiled = engine.Compile(query);
  auto plain = engine.Compile(query);
  ASSERT_TRUE(profiled.ok() && plain.ok());
  auto doc =
      std::move(xml::ParseDocument("<r><a/><b/><a/><b/></r>")).value();
  auto run = [&](CompiledQuery& q, Profiler* profiler) {
    DynamicContext ctx;
    DynamicContext::Focus f;
    f.item = xdm::Item::Node(doc->root());
    f.position = 1;
    f.size = 1;
    f.has_item = true;
    ctx.set_focus(f);
    ctx.profiler = profiler;
    auto r = q.Run(ctx);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(xdm::SequenceToString(*r), "5");
  };
  Profiler profiler;
  run(**profiled, &profiler);
  run(**plain, nullptr);
  const Counters& counters = (*profiled)->evaluator().counters();
  EXPECT_GT(counters.sorts_elided, 0u);
  EXPECT_GT(counters.name_index_hits, 0u);
  EXPECT_GT(counters.early_exits, 0u);
  EXPECT_NE(profiler.Report().find("call count"), std::string::npos);

  std::vector<uint64_t> with, without;
  counters.ForEach([&with](const char*, const char*, const auto& value) {
    with.push_back(static_cast<uint64_t>(value));
  });
  (*plain)->evaluator().counters().ForEach(
      [&without](const char*, const char*, const auto& value) {
        without.push_back(static_cast<uint64_t>(value));
      });
  EXPECT_EQ(with, without);
}

TEST(Profiler, NoProfilerMeansNoOverheadPath) {
  // Smoke: evaluation without a profiler still works (the common path).
  Engine engine;
  auto q = engine.Compile("sum(1 to 1000)");
  ASSERT_TRUE(q.ok());
  DynamicContext ctx;
  auto r = (*q)->Run(ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(xdm::SequenceToString(*r), "500500");
}

}  // namespace
}  // namespace xqib::xquery
