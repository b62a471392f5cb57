// Tests for the static effect analysis: read/write set inference
// (including the convergence and ⊤ corner cases), the Interferes
// conflict predicate, deterministic rendering, and the xq_lint surfaces
// that expose the analysis (--effects lines, --json shape).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "xml/interning.h"
#include "xquery/analysis/analyzer.h"
#include "xquery/analysis/lint.h"
#include "xquery/parser.h"

namespace xqib::xquery::analysis {
namespace {

constexpr const char* kLocal = "{http://www.w3.org/2005/xquery-local-functions}";

AnalysisResult Analyze(const std::string& query) {
  auto module = ParseModule(query);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  return AnalyzeProgram({module->get()});
}

// Effect summary of `local:{name}#{arity}`, which must exist.
Effects FunctionEffects(const AnalysisResult& r, const std::string& name,
                        size_t arity) {
  const std::string key =
      std::string(kLocal) + name + "#" + std::to_string(arity);
  auto it = r.facts.function_effects.find(key);
  EXPECT_NE(it, r.facts.function_effects.end()) << "no summary for " << key;
  return it == r.facts.function_effects.end() ? Effects() : it->second;
}

const xml::InternedName* N(const char* local) {
  return xml::InternName("", local);
}

EffectSet Names(std::vector<const xml::InternedName*> names) {
  EffectSet s;
  for (const auto* n : names) s.AddName(n);
  return s;
}

// ------------------------------------------------------ set algebra ---

TEST(EffectSetTest, TopAbsorbsAndIntersection) {
  EffectSet s = Names({N("a"), N("b")});
  EXPECT_TRUE(s.Contains(N("a")));
  EXPECT_FALSE(s.Contains(N("c")));
  EXPECT_TRUE(s.Intersects(Names({N("b"), N("c")})));
  EXPECT_FALSE(s.Intersects(Names({N("c")})));
  // ⊤ absorbs names, intersects any non-empty set, but ⊤ ∩ ∅ is empty.
  s.MakeTop();
  EXPECT_TRUE(s.names.empty());
  EXPECT_TRUE(s.Contains(N("zzz")));
  EXPECT_TRUE(s.Intersects(Names({N("c")})));
  EXPECT_FALSE(s.Intersects(EffectSet()));
  // Adding a name to ⊤ is a no-op; union into a plain set makes it ⊤.
  s.AddName(N("a"));
  EXPECT_TRUE(s.top);
  EXPECT_TRUE(s.names.empty());
  EffectSet t = Names({N("a")});
  EXPECT_TRUE(t.AddAll(s));
  EXPECT_TRUE(t.top);
}

// ------------------------------------------------------- inference ---

TEST(EffectInference, SimplePathReads) {
  AnalysisResult r = Analyze(
      "declare function local:render() { /html/body/item };\n1");
  Effects e = FunctionEffects(r, "render", 0);
  EXPECT_FALSE(e.reads_top());
  EXPECT_TRUE(e.child_reads.Contains(N("html")));
  EXPECT_TRUE(e.child_reads.Contains(N("body")));
  EXPECT_TRUE(e.child_reads.Contains(N("item")));
  EXPECT_FALSE(e.has_update);
  EXPECT_TRUE(e.writes.empty());
}

TEST(EffectInference, RecursionConvergesBelowTop) {
  // The fixpoint over the call graph must converge to the finite union
  // of both branches' reads, not widen to ⊤.
  AnalysisResult r = Analyze(
      "declare function local:walk($n) {\n"
      "  if ($n/item) then local:walk($n/item) else $n/leaf\n"
      "};\n1");
  Effects e = FunctionEffects(r, "walk", 1);
  EXPECT_FALSE(e.reads_top());
  EXPECT_TRUE(e.child_reads.Contains(N("item")));
  std::vector<const xml::InternedName*> reads = e.ReadNames();
  EXPECT_NE(std::find(reads.begin(), reads.end(), N("leaf")), reads.end());
}

TEST(EffectInference, MutualRecursionConverges) {
  AnalysisResult r = Analyze(
      "declare function local:even($n) {\n"
      "  if ($n/stop) then 0 else local:odd($n/a)\n"
      "};\n"
      "declare function local:odd($n) {\n"
      "  if ($n/stop) then 1 else local:even($n/b)\n"
      "};\n1");
  Effects e = FunctionEffects(r, "even", 1);
  EXPECT_FALSE(e.reads_top());
  EXPECT_TRUE(e.child_reads.Contains(N("a")));
  EXPECT_TRUE(e.child_reads.Contains(N("b")));
  EXPECT_TRUE(e.child_reads.Contains(N("stop")));
}

TEST(EffectInference, WildcardStepIsTop) {
  AnalysisResult r = Analyze("declare function local:w() { //* };\n1");
  EXPECT_TRUE(FunctionEffects(r, "w", 0).reads_top());
}

TEST(EffectInference, ParentAxisIsTop) {
  AnalysisResult r = Analyze(
      "declare function local:p() { //item/parent::node() };\n1");
  EXPECT_TRUE(FunctionEffects(r, "p", 0).reads_top());
}

TEST(EffectInference, AncestorAxisIsTop) {
  AnalysisResult r = Analyze(
      "declare function local:a() { //item/ancestor::div };\n1");
  EXPECT_TRUE(FunctionEffects(r, "a", 0).reads_top());
}

TEST(EffectInference, ComputedConstructorWithDynamicNameIsTop) {
  // element {expr} {...} can materialize any name, so an insert of it
  // can write any name: writes must be ⊤.
  AnalysisResult r = Analyze(
      "declare updating function local:d($n) {\n"
      "  insert node element { name($n) } {} into /html/body\n"
      "};\n1");
  Effects e = FunctionEffects(r, "d", 1);
  EXPECT_TRUE(e.has_update);
  EXPECT_TRUE(e.writes.top);
}

TEST(EffectInference, StaticComputedConstructorStaysFinite) {
  AnalysisResult r = Analyze(
      "declare updating function local:s() {\n"
      "  insert node element entry {} into /html/body/log\n"
      "};\n1");
  Effects e = FunctionEffects(r, "s", 0);
  EXPECT_TRUE(e.has_update);
  EXPECT_FALSE(e.writes.top);
  EXPECT_TRUE(e.writes.Contains(N("entry")));
  EXPECT_TRUE(e.writes.Contains(N("log")));
}

TEST(EffectInference, CopyModifyWritesDoNotLeak) {
  // transform-with / copy-modify mutates a copy: the update never
  // reaches the document, so the summary must be non-updating with no
  // writes (the reads of the source expression still count).
  AnalysisResult r = Analyze(
      "declare function local:c() {\n"
      "  copy $c := <a><b/></a> modify delete nodes $c//b return $c\n"
      "};\n1");
  Effects e = FunctionEffects(r, "c", 0);
  EXPECT_FALSE(e.has_update);
  EXPECT_TRUE(e.writes.empty());
  EXPECT_TRUE(e.write_scope.empty());
}

TEST(EffectInference, DynamicUpdateTargetIsTopScope) {
  // Inserting into a node handed in as a parameter: the target name may
  // be knowable, but where it sits in the tree is not, so the scope
  // (every name whose content changes) must be ⊤.
  AnalysisResult r = Analyze(
      "declare updating function local:dyn($n) {\n"
      "  insert node <x/> into $n\n"
      "};\n1");
  Effects e = FunctionEffects(r, "dyn", 1);
  EXPECT_TRUE(e.has_update);
  EXPECT_TRUE(e.write_scope.top);
  // A descendant-axis target is not a root-anchored chain either.
  AnalysisResult coarse = Analyze(
      "declare updating function local:coarse($e, $o) {\n"
      "  insert node <entry/> into //loga\n"
      "};\n1");
  EXPECT_TRUE(FunctionEffects(coarse, "coarse", 2).write_scope.top);
}

TEST(EffectInference, RootAnchoredTargetScopeIsAncestorChain) {
  AnalysisResult r = Analyze(
      "declare updating function local:log() {\n"
      "  insert node <entry/> into /html/body/loga\n"
      "};\n1");
  Effects e = FunctionEffects(r, "log", 0);
  EXPECT_FALSE(e.write_scope.top);
  EXPECT_TRUE(e.writes.Contains(N("loga")));
  EXPECT_TRUE(e.writes.Contains(N("entry")));
  EXPECT_FALSE(e.writes.Contains(N("body")));
  // scope = writes + the ancestors the insert changes the content of.
  EXPECT_TRUE(e.write_scope.Contains(N("html")));
  EXPECT_TRUE(e.write_scope.Contains(N("body")));
  EXPECT_TRUE(e.write_scope.Contains(N("loga")));
}

// ------------------------------------------- facts outside the DOM ---

// The class a summary puts a function in, one letter per fact:
// u(pdating), h(ost), o(utside read), f(abric write), m(emoizable).
std::string Facts(const Effects& e) {
  std::string out;
  if (e.has_update) out += "u";
  if (e.observes_host) out += "h";
  if (e.reads_outside) out += "o";
  if (e.writes_fabric) out += "f";
  if (e.memoizable()) out += "m";
  return out;
}

std::string BodyFacts(const std::string& body) {
  AnalysisResult r =
      Analyze("declare function local:f() { " + body + " };\n1");
  return Facts(FunctionEffects(r, "f", 0));
}

TEST(EffectFacts, DomReadsAloneAreMemoizable) {
  EXPECT_EQ(BodyFacts("count(//item)"), "m");
  EXPECT_EQ(BodyFacts("copy $c := <a/> modify insert node <b/> into $c "
                      "return count($c/b)"),
            "m");
}

TEST(EffectFacts, HostObservation) {
  EXPECT_EQ(BodyFacts("browser:alert('x')"), "h");
  EXPECT_EQ(BodyFacts("browser:prompt('x')"), "h");
  EXPECT_EQ(BodyFacts("browser:confirm('x')"), "h");
  EXPECT_EQ(BodyFacts("trace(1, 'x')"), "h");
}

TEST(EffectFacts, OutsideReads) {
  EXPECT_EQ(BodyFacts("current-dateTime()"), "o");
  EXPECT_EQ(BodyFacts("current-date()"), "o");
  EXPECT_EQ(BodyFacts("current-time()"), "o");
  EXPECT_EQ(BodyFacts("doc('x.xml')"), "o");
  EXPECT_EQ(BodyFacts("http:get('http://a/x')"), "o");
  EXPECT_EQ(BodyFacts("http:get-text('http://a/x')"), "o");
  // BOM access reads the browser and counts as a fabric write.
  EXPECT_EQ(BodyFacts("browser:self()"), "of");
  // A BOM mutator also updates.
  EXPECT_EQ(BodyFacts("browser:windowOpen('http://a/')"), "uof");
}

TEST(EffectFacts, AssignedGlobalIsAnOutsideRead) {
  AnalysisResult r = Analyze(
      "declare variable $n := 0;\n"
      "declare variable $k := 0;\n"
      "declare sequential function local:bump() { set $n := $n + 1 };\n"
      "declare function local:count() { $n };\n"
      "declare function local:constant() { $k };\n"
      "declare function local:param($n) { $n };\n"
      "1");
  EXPECT_EQ(Facts(FunctionEffects(r, "bump", 0)), "uo");
  EXPECT_EQ(Facts(FunctionEffects(r, "count", 0)), "o");
  EXPECT_EQ(Facts(FunctionEffects(r, "constant", 0)), "m");
  // A parameter that shares an assigned global's name is not the global.
  EXPECT_EQ(Facts(FunctionEffects(r, "param", 1)), "m");
}

TEST(EffectFacts, AssignmentToALocalOfTheSameNameLeavesTheGlobal) {
  // Every `set` below rebinds a variable that shares the global's name:
  // a block declaration, a clause variable, a quantifier variable, a
  // parameter. None of them assigns the global, so local:r stays
  // memoizable.
  LintReport report = LintQuery(
      "declare variable $g := 1;\n"
      "declare sequential function local:a() {\n"
      "  declare variable $g := 0; set $g := 2; $g };\n"
      "declare sequential function local:b() {\n"
      "  for $g in (1, 2) return { set $g := 3; $g } };\n"
      "declare sequential function local:c() {\n"
      "  some $g in (1, 2) satisfies { set $g := 3; true() } };\n"
      "declare sequential function local:d($g) { set $g := 4; $g };\n"
      "declare function local:r($e, $o) { $g };\n"
      "1");
  std::string line;
  for (const std::string& l : report.RenderEffects()) {
    if (l.find("r#2:") != std::string::npos) line = l;
  }
  EXPECT_EQ(line, "query: " + std::string(kLocal) +
                      "r#2: reads={} writes={} scope={} pure memoizable");
  // After the block, the same name is the global again.
  AnalysisResult r = Analyze(
      "declare variable $g := 1;\n"
      "declare sequential function local:a() {\n"
      "  { declare variable $g := 0; set $g := 2 }; set $g := 3 };\n"
      "declare function local:r() { $g };\n"
      "1");
  EXPECT_EQ(Facts(FunctionEffects(r, "r", 0)), "o");
}

TEST(EffectFacts, UnassignedGlobalCarriesOnlyItsDomReads) {
  // The initializer ran once, at page load: a reference reads the names
  // it read, but does not fetch, read the clock, observe the host or
  // write the fabric again.
  AnalysisResult r = Analyze(
      "declare variable $g := (//item, http:get('http://a/g'),\n"
      "  current-time(), trace(1, 't'), http:put('http://a/p', <x/>));\n"
      "declare function local:use() { $g };\n"
      "1");
  Effects e = FunctionEffects(r, "use", 0);
  EXPECT_EQ(Facts(e), "m");
  EXPECT_TRUE(e.child_reads.Contains(N("item")));
  EXPECT_TRUE(e.fetch_urls.empty());
}

TEST(EffectFacts, FabricWrites) {
  EXPECT_EQ(BodyFacts("http:put('http://a/x', <x/>)"), "of");
  EXPECT_EQ(BodyFacts("http:post('http://a/x', <x/>)"), "of");
  EXPECT_EQ(BodyFacts("put(<x/>, 'x.xml')"), "uf");
  EXPECT_EQ(BodyFacts("trigger event 'onclick' at //input"), "uf");
  AnalysisResult r = Analyze(
      "declare namespace ext = \"http://ext.example.com\";\n"
      "declare function local:f() { ext:call() };\n1");
  EXPECT_EQ(Facts(FunctionEffects(r, "f", 0)), "uof");  // unknown code
  // Attaching a listener updates the registry but writes no fabric.
  EXPECT_EQ(BodyFacts("on event 'onclick' at //input attach listener "
                      "local:f"),
            "u");
}

TEST(EffectFacts, ImportedAndBodilessCodeIsUnknown) {
  AnalysisResult r = Analyze(
      "import module namespace svc = \"http://svc.example.com\";\n"
      "declare function local:ext() external;\n"
      "declare function local:remote() { svc:lookup(1) };\n"
      "declare function local:calls-ext() { local:ext() };\n"
      "1");
  // A web-service call evaluates against the remote store: no DOM
  // effect, but it reads and may write outside the page.
  EXPECT_EQ(Facts(FunctionEffects(r, "remote", 0)), "of");
  EXPECT_EQ(Facts(FunctionEffects(r, "ext", 0)), "uof");
  EXPECT_EQ(Facts(FunctionEffects(r, "calls-ext", 0)), "uof");
}

TEST(EffectFacts, FactsFlowThroughCallsAndRecursion) {
  AnalysisResult r = Analyze(
      "declare function local:a($n) { if ($n) then local:b() else () };\n"
      "declare function local:b() { local:a(()), browser:alert('x') };\n"
      "declare function local:c() { local:a(1), http:put('http://a', 1) };\n"
      "1");
  EXPECT_EQ(Facts(FunctionEffects(r, "a", 1)), "h");
  EXPECT_EQ(Facts(FunctionEffects(r, "b", 0)), "h");
  EXPECT_EQ(Facts(FunctionEffects(r, "c", 0)), "hof");
}

TEST(EffectFacts, StaticFetchUrlsInDiscoveryOrder) {
  // Depth first in ForEachSubExpr order: a FLWOR's return before its
  // binding, a call's arguments before the callee's own URLs, a callee
  // declared after its caller included. Dynamic URLs are not listed;
  // repeats are listed once.
  AnalysisResult r = Analyze(
      "declare function local:go($e, $o) {\n"
      "  for $x in http:get('http://a/bind')\n"
      "  return (http:get(concat('http://a/', 'ret')),\n"
      "          local:helper(http:get('http://a/arg')),\n"
      "          http:get(string($x)), http:get('http://a/bind'))\n"
      "};\n"
      "declare function local:helper($v) { http:get-text('http://a/help') };\n"
      "1");
  Effects e = FunctionEffects(r, "go", 2);
  EXPECT_EQ(e.fetch_urls,
            (std::vector<std::string>{"http://a/ret", "http://a/arg",
                                      "http://a/help", "http://a/bind"}));
  EXPECT_FALSE(e.writes_fabric);
  EXPECT_EQ(RenderEffects(FunctionEffects(r, "helper", 1)),
            "reads={} writes={} scope={} pure reads-outside "
            "fetches=[http://a/help]");
}

TEST(EffectFacts, ExprEffectsUnderStoredSummaries) {
  // The evaluator's view: an expression under the function summaries of
  // AnalysisFacts, without the analysis itself.
  AnalysisResult r = Analyze(
      "declare function local:w() { http:put('http://a/x', 1) };\n"
      "declare function local:r() { http:get('http://a/x') };\n"
      "1");
  auto parsed = ParseModule(
      "for $s in ('1', '2') return (local:r(), local:w())");
  ASSERT_TRUE(parsed.ok());
  Effects both = ExprEffects(*(*parsed)->body, r.facts.function_effects);
  EXPECT_TRUE(both.writes_fabric);
  EXPECT_EQ(both.fetch_urls, std::vector<std::string>{"http://a/x"});
  auto reads = ParseModule("for $s in ('1', '2') return local:r()");
  ASSERT_TRUE(reads.ok());
  EXPECT_FALSE(ExprEffects(*(*reads)->body, r.facts.function_effects)
                   .writes_fabric);
  // Without a summary a declared call is unknown code.
  EXPECT_TRUE(ExprEffects(*(*reads)->body, {}).writes_fabric);
}

// ----------------------------------------------------- interference ---

Effects Reader(std::vector<const xml::InternedName*> child,
               std::vector<const xml::InternedName*> value = {}) {
  Effects e;
  e.child_reads = Names(std::move(child));
  e.value_reads = Names(std::move(value));
  return e;
}

Effects Writer(std::vector<const xml::InternedName*> writes,
               std::vector<const xml::InternedName*> scope) {
  Effects e;
  e.has_update = true;
  e.writes = Names(std::move(writes));
  e.write_scope = Names(scope.empty() ? writes : std::move(scope));
  return e;
}

TEST(InterferesTest, PureNeverInterferes) {
  Effects a = Reader({N("item")});
  Effects b = Reader({N("item")}, {N("item")});
  EXPECT_FALSE(Interferes(a, b));
  Effects top_reader;
  top_reader.child_reads.MakeTop();
  EXPECT_FALSE(Interferes(a, top_reader));
}

TEST(InterferesTest, WriteIntoReadSet) {
  Effects reader = Reader({N("loga")});
  Effects writer = Writer({N("loga"), N("entry")},
                          {N("html"), N("body"), N("loga"), N("entry")});
  EXPECT_TRUE(Interferes(reader, writer));
  EXPECT_TRUE(Interferes(writer, reader));  // symmetric
  // A reader of an unrelated name does not conflict.
  EXPECT_FALSE(Interferes(Reader({N("logb")}), writer));
}

TEST(InterferesTest, ScopeConflictsOnlyWithValueReads) {
  // `body` is in the writer's scope (content below it changes) but the
  // writer never touches body's direct membership — so a child_reads of
  // body (navigation) is safe, while a value_reads of body (the reader
  // serializes the subtree the insert lands in) conflicts.
  Effects writer = Writer({N("loga"), N("entry")},
                          {N("html"), N("body"), N("loga"), N("entry")});
  EXPECT_FALSE(Interferes(Reader({N("body")}), writer));
  EXPECT_TRUE(Interferes(Reader({}, {N("body")}), writer));
}

TEST(InterferesTest, DisjointUpdatersAreIndependent) {
  Effects a = Writer({N("loga"), N("entrya")},
                     {N("html"), N("body"), N("loga"), N("entrya")});
  Effects b = Writer({N("logb"), N("entryb")},
                     {N("html"), N("body"), N("logb"), N("entryb")});
  EXPECT_FALSE(Interferes(a, b));
  // Same write target: commit order decides the final node set.
  EXPECT_TRUE(Interferes(a, a));
}

TEST(InterferesTest, TopPoisons) {
  Effects writer = Writer({N("loga")}, {N("loga")});
  Effects top_reader;
  top_reader.child_reads.MakeTop();
  EXPECT_TRUE(Interferes(top_reader, writer));
  Effects top_writer;
  top_writer.has_update = true;
  top_writer.writes.MakeTop();
  top_writer.write_scope.MakeTop();
  EXPECT_TRUE(Interferes(Reader({N("x")}), top_writer));
}

// -------------------------------------------------------- rendering ---

TEST(RenderTest, DeterministicLexicographicRendering) {
  AnalysisResult r = Analyze(
      "declare updating function local:log() {\n"
      "  insert node <entry/> into /html/body/loga\n"
      "};\n1");
  Effects e = FunctionEffects(r, "log", 0);
  EXPECT_EQ(RenderEffects(e),
            "reads={body html loga} writes={entry loga} "
            "scope={body entry html loga} updating");
  EffectSet top;
  top.MakeTop();
  EXPECT_EQ(RenderEffectSet(top), "TOP");
  EXPECT_EQ(RenderEffectSet(EffectSet()), "{}");
}

// ----------------------------------------------------- lint surface ---

TEST(LintSurface, EffectsLinesPerUnit) {
  LintReport report = LintQuery(
      "declare function local:render() { /html/body/item };\n1");
  std::vector<std::string> lines = report.RenderEffects();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "query: " + std::string(kLocal) +
                "render#0: reads={body html item} writes={} scope={} "
                "pure memoizable");
  EXPECT_EQ(lines[1], "query: page reads: {body html item}");
}

TEST(LintSurface, JsonShape) {
  LintReport report = LintQuery("let $u := 1 return 2");
  std::string json = report.ToJson();
  // One unit with one XQSA030 diagnostic; fields the CI tooling relies
  // on must keep their names.
  EXPECT_NE(json.find("\"unit\":\"query\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"code\":\"XQSA030\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"warning\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\":1"), std::string::npos) << json;
  // Clean input → unit with empty diagnostics array, still valid shape.
  std::string clean = LintQuery("1 + 1").ToJson();
  EXPECT_NE(clean.find("\"diagnostics\":[]"), std::string::npos) << clean;
}

}  // namespace
}  // namespace xqib::xquery::analysis
