// Tests for the compiled-plan layer (xquery/plan/): golden plan-listing
// dumps (the xq_lint --plan / xq_repl :plan surface), the plans-on/off
// ablation oracle across expression shapes, the process-wide plan
// cache (warm compiles are zero; fingerprint changes invalidate), the
// memo-cache interaction (a memo hit never consults the plan layer),
// and cross-thread compile/probe races on raw engine threads.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "app/environment.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/engine.h"
#include "xquery/plan/plan.h"

namespace xqib::xquery {
namespace {

using app::BrowserEnvironment;

// Evaluates `query` (optionally against `xml` as the context document)
// with compiled plans on or off and returns the serialized result.
std::string EvalPlans(const std::string& query, const std::string& xml,
                      bool plans) {
  Engine engine;
  auto compiled = engine.Compile(query);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return "<compile error>";
  Evaluator::EvalOptions options;
  options.compiled_plans = plans;
  (*compiled)->evaluator().set_options(options);
  std::unique_ptr<xml::Document> doc;
  DynamicContext ctx;
  if (!xml.empty()) {
    auto parsed = xml::ParseDocument(xml);
    EXPECT_TRUE(parsed.ok());
    doc = std::move(parsed).value();
    DynamicContext::Focus f;
    f.item = xdm::Item::Node(doc->root());
    f.position = 1;
    f.size = 1;
    f.has_item = true;
    ctx.set_focus(f);
  }
  EXPECT_TRUE((*compiled)->BindGlobals(ctx).ok());
  auto result = (*compiled)->Run(ctx);
  if (!result.ok()) return "error: " + result.status().code();
  std::string out = xdm::SequenceToString(*result);
  if (doc != nullptr) out += " | " + xml::Serialize(doc->root());
  return out;
}

// ------------------------------------------------------ golden dumps ---

TEST(PlanDump, FLWORLoweringIsDeterministic) {
  const std::string query =
      "declare function local:sum($n) { let $t := for $i in 1 to $n "
      "where $i mod 2 = 0 return $i return count($t) }; local:sum(10)";
  auto dump = plan::DumpPlansForQuery(query);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(
      *dump,
      "plan {http://www.w3.org/2005/xquery-local-functions}sum#1 "
      "regs=12 iters=1\n"
      "    0: clear         r1 <- ()  ; flwor accumulator\n"
      "    1: clear         r2 <- ()  ; flwor accumulator\n"
      "    2: load.const    r3 <- const[0]  ; 1\n"
      "    3: range         r4 <- r3 to r0\n"
      "    4: iter.init     it0 <- r4  ; for $i\n"
      "    5: iter.next     r5 <- it0 else -> 13\n"
      "    6: load.const    r6 <- const[1]  ; 2\n"
      "    7: arith.int     r7 <- r5 r6  ; mod !singleton-int\n"
      "    8: load.const    r8 <- const[2]  ; 0\n"
      "    9: compare       r9 <- r7 r8  ; = card=1:1\n"
      "   10: jump.false    r9 -> 12  ; where\n"
      "   11: append        r2 += r5\n"
      "   12: jump          -> 5\n"
      "   13: move          r10 <- r2\n"
      "   14: call.dyn      r11 <- name[0](1 args at r10)  ; dyn count#1\n"
      "   15: append        r1 += r11\n"
      "   16: return        r1\n");
  // Same source, fresh compile: byte-identical (the regression guard
  // behind xq_lint --plan golden output).
  auto again = plan::DumpPlansForQuery(query);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*dump, *again);
}

TEST(PlanDump, UpdatingBodyUsesIndexedPathAndReplace) {
  auto dump = plan::DumpPlansForQuery(
      "declare updating function local:bump($n) {\n"
      "  replace value of node //span with string($n + 1)\n"
      "};\n1");
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(
      *dump,
      "plan {http://www.w3.org/2005/xquery-local-functions}bump#1 "
      "regs=7 iters=0 [updating]\n"
      "    0: path.indexed  r1 <- expr[0]  ; path /span [indexed, "
      "ordered dup-free]\n"
      "    1: load.const    r2 <- const[0]  ; 1\n"
      "    2: arith         r3 <- r0 r2  ; +\n"
      "    3: move          r4 <- r3\n"
      "    4: call.dyn      r5 <- name[0](1 args at r4)  ; dyn string#1\n"
      "    5: upd.replace   r1 with r5  ; value of\n"
      "    6: return        r6\n");
}

TEST(PlanDump, UnloweredBodyFallsBackToScopedEval) {
  auto dump = plan::DumpPlansForQuery(
      "declare function local:desc($x) {\n"
      "  typeswitch ($x) case xs:integer return \"int\" default return "
      "\"other\"\n};\nlocal:desc(1)");
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(
      *dump,
      "plan {http://www.w3.org/2005/xquery-local-functions}desc#1 "
      "regs=2 iters=0 [env]\n"
      "    0: bind.env      name[0] <- r0\n"
      "    1: eval          r1 <- expr[0]  ; eval typeswitch\n"
      "    2: return        r1\n");
}

TEST(PlanDump, NoUserFunctions) {
  auto dump = plan::DumpPlansForQuery("1 + 1");
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(*dump, "no user-declared functions\n");
}

// ------------------------------------------------- ablation oracle ---

// The tree walker is the oracle: every shape must evaluate identically
// with plans on and off (including the DOM after updates).
TEST(PlanOracle, ShapesAgreeWithTreeWalker) {
  const std::string doc =
      "<root><item v=\"1\"/><item v=\"2\"/><item v=\"3\"/>"
      "<span>old</span></root>";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"recursion",
       "declare function local:fib($n) { if ($n < 2) then $n else "
       "local:fib($n - 1) + local:fib($n - 2) }; local:fib(12)"},
      {"flwor-arith",
       "declare function local:s($n) { sum(for $i in 1 to $n where "
       "($i * 3 + 1) mod 7 = 3 return $i * $i mod 101) }; local:s(200)"},
      {"nested-calls",
       "declare function local:a($x) { $x + 1 };\n"
       "declare function local:b($x) { local:a($x) * local:a($x + 1) };\n"
       "local:b(5)"},
      {"paths",
       "declare function local:c() { count(//item) + "
       "sum(//item/@v) }; local:c()"},
      {"strings",
       "declare function local:j($s) { concat($s, \"-\", "
       "string-length($s)) }; local:j(\"abc\")"},
      {"fallback-typeswitch",
       "declare function local:d($x) { typeswitch ($x) case xs:integer "
       "return \"int\" default return \"other\" }; "
       "(local:d(1), local:d(\"s\"))"},
      {"updates",
       "declare updating function local:u($v) { replace value of node "
       "//span with string($v * 7) }; local:u(6)"},
      {"conditionals-logic",
       "declare function local:e($n) { if ($n > 2 and $n mod 2 = 0) "
       "then \"even>2\" else \"no\" }; "
       "(local:e(1), local:e(4), local:e(7))"},
  };
  for (const auto& [name, query] : cases) {
    EXPECT_EQ(EvalPlans(query, doc, true), EvalPlans(query, doc, false))
        << "shape: " << name;
  }
}

// ---------------------------------------------------------- caching ---

// Calls local:f#0 on a fresh engine and returns the evaluator's
// lifetime stats (plan counters included).
Counters CallOnFreshEngine(Engine& engine,
                                       const std::string& source,
                                       std::string* result) {
  auto compiled = engine.Compile(source);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  DynamicContext ctx;
  EXPECT_TRUE((*compiled)->BindGlobals(ctx).ok());
  auto r = (*compiled)->Call(xml::QName("http://www.w3.org/2005/xquery-local-functions", "f"), {}, ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (result != nullptr && r.ok()) *result = xdm::SequenceToString(*r);
  return (*compiled)->evaluator().counters();
}

TEST(PlanCacheTest, WarmDispatchCompilesZeroPlans) {
  plan::PlanCache::Global().Clear();
  // Unique source text so no other test's cache entry can serve it.
  const std::string source =
      "declare function local:f() { sum(1 to 37) + 1000 }; local:f()";
  Engine e1;
  std::string r1;
  Counters cold = CallOnFreshEngine(e1, source, &r1);
  EXPECT_GT(cold.plan_compiles, 0u);
  EXPECT_GE(cold.plan_hits, 1u);
  EXPECT_EQ(r1, "1703");
  // Same source, fresh engine/evaluator: the plan-cache hit path must
  // perform zero compilations and still dispatch through a plan.
  Engine e2;
  std::string r2;
  Counters warm = CallOnFreshEngine(e2, source, &r2);
  EXPECT_EQ(warm.plan_compiles, 0u);
  EXPECT_EQ(warm.plan_invalidations, 0u);
  EXPECT_GE(warm.plan_hits, 1u);
  EXPECT_EQ(r2, r1);
  EXPECT_EQ(plan::PlanCache::Global().size(), 1u);
}

TEST(PlanCacheTest, ChangedLibraryBodyInvalidates) {
  plan::PlanCache::Global().Clear();
  // Identical main-module text; the imported library's body changes, so
  // the source hash matches but the fingerprint must not.
  const std::string main_src =
      "import module namespace m = \"urn:plantest:lib\";\n"
      "declare function local:f() { m:g() + 100 }; local:f()";
  const char* lib_v1 =
      "module namespace m = \"urn:plantest:lib\";\n"
      "declare function m:g() { 1 };";
  const char* lib_v2 =
      "module namespace m = \"urn:plantest:lib\";\n"
      "declare function m:g() { 2 };";
  Engine e1;
  ASSERT_TRUE(e1.LoadLibrary(lib_v1).ok());
  std::string r1;
  Counters s1 = CallOnFreshEngine(e1, main_src, &r1);
  EXPECT_EQ(r1, "101");
  EXPECT_GT(s1.plan_compiles, 0u);
  Engine e2;
  ASSERT_TRUE(e2.LoadLibrary(lib_v2).ok());
  std::string r2;
  Counters s2 = CallOnFreshEngine(e2, main_src, &r2);
  // The stale v1 plans must not serve the v2 page: invalidation fired,
  // a recompile happened, and the result reflects the new library.
  EXPECT_EQ(r2, "102");
  EXPECT_EQ(s2.plan_invalidations, 1u);
  EXPECT_GT(s2.plan_compiles, 0u);
}

TEST(PlanCacheTest, ChangedLibraryOptionsAndNamespacesInvalidate) {
  plan::PlanCache::Global().Clear();
  const std::string main_src =
      "import module namespace m = \"urn:plantest:opt\";\n"
      "declare function local:f() { m:g() }; local:f()";
  // Same functions; only a namespace declaration / option differs.
  const char* lib_v1 =
      "module namespace m = \"urn:plantest:opt\";\n"
      "declare namespace aux = \"urn:aux:v1\";\n"
      "declare function m:g() { 7 };";
  const char* lib_v2 =
      "module namespace m = \"urn:plantest:opt\";\n"
      "declare namespace aux = \"urn:aux:v2\";\n"
      "declare function m:g() { 7 };";
  Engine e1;
  ASSERT_TRUE(e1.LoadLibrary(lib_v1).ok());
  std::string r1;
  CallOnFreshEngine(e1, main_src, &r1);
  Engine e2;
  ASSERT_TRUE(e2.LoadLibrary(lib_v2).ok());
  std::string r2;
  Counters s2 = CallOnFreshEngine(e2, main_src, &r2);
  EXPECT_EQ(s2.plan_invalidations, 1u);
  EXPECT_EQ(r2, r1);
}

TEST(PlanCacheTest, AblationOffNeverTouchesTheCache) {
  plan::PlanCache::Global().Clear();
  const std::string source =
      "declare function local:f() { 41 + 1 }; local:f()";
  Engine engine;
  auto compiled = engine.Compile(source);
  ASSERT_TRUE(compiled.ok());
  Evaluator::EvalOptions off;
  off.compiled_plans = false;
  (*compiled)->evaluator().set_options(off);
  DynamicContext ctx;
  ASSERT_TRUE((*compiled)->BindGlobals(ctx).ok());
  auto r = (*compiled)->Call(xml::QName("http://www.w3.org/2005/xquery-local-functions", "f"), {}, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(xdm::SequenceToString(*r), "42");
  const Counters& stats = (*compiled)->evaluator().counters();
  EXPECT_EQ(stats.plan_compiles, 0u);
  EXPECT_EQ(stats.plan_hits, 0u);
  EXPECT_EQ(stats.plan_misses, 0u);
  EXPECT_EQ(plan::PlanCache::Global().size(), 0u);
}

// ------------------------------------------------ memo interaction ---

TEST(PlanMemoInteraction, MemoHitNeverConsultsThePlanLayer) {
  BrowserEnvironment env;
  Status st = env.LoadPage(
      "http://plans.example.com/",
      "<html><head><script type=\"text/xqueryp\"><![CDATA[\n"
      "declare function local:c($evt, $obj) {\n"
      "  concat(\"n=\", string(count(//item)))\n"
      "};\n"
      "on event \"onclick\" at //input[@id=\"btn\"] "
      "attach listener local:c\n"
      "]]></script></head><body><input id=\"btn\"/>"
      "<item/><item/><item/></body></html>");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(env.ScriptErrors().empty()) << env.ScriptErrors();
  xml::Node* btn = env.ById("btn");
  ASSERT_NE(btn, nullptr);
  auto click = [&] {
    browser::Event e;
    e.type = "onclick";
    (void)env.plugin().FireEvent(btn, e);
  };
  // Cold click: a memo miss that dispatches through a plan.
  click();
  const auto& cold = env.plugin().last_event_stats();
  EXPECT_EQ(cold.memo_hits, 0u);
  EXPECT_GE(cold.plan_hits, 1u);
  // Warm click: served from the memo cache — the dispatch must not
  // consult the plan layer at all (no hits, no misses, no compiles).
  click();
  const auto& warm = env.plugin().last_event_stats();
  EXPECT_GE(warm.memo_hits, 1u);
  EXPECT_EQ(warm.plan_hits, 0u);
  EXPECT_EQ(warm.plan_misses, 0u);
  EXPECT_EQ(warm.plan_compiles, 0u);
}

// -------------------------------------------------- concurrency ---

TEST(PlanCacheTest, RacingEnginesAgreeAndShareOneEntry) {
  plan::PlanCache::Global().Clear();
  const std::string source =
      "declare function local:f() { sum(for $i in 1 to 50 return $i * $i) "
      "}; local:f()";
  constexpr int kThreads = 8;
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Engine engine;
      CallOnFreshEngine(engine, source, &results[t]);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], "42925") << "thread " << t;
  }
  // Racing compilers may all have compiled, but exactly one Insert won.
  EXPECT_EQ(plan::PlanCache::Global().size(), 1u);
}

}  // namespace
}  // namespace xqib::xquery
