// Tests for the static analyzer: each pass (scope/symbol, type
// inference, update/purity, lint), the diagnostic spans, suppression,
// the engine/optimizer/plug-in integration, and a golden check that
// every shipped example page lints clean.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "app/environment.h"
#include "browser/bom.h"
#include "net/http.h"
#include "net/webservice.h"
#include "net/xml_store.h"
#include "plugin/plugin.h"
#include "xdm/item.h"
#include "xquery/analysis/analyzer.h"
#include "xquery/analysis/lint.h"
#include "xquery/engine.h"
#include "xquery/parser.h"

namespace xqib::xquery::analysis {
namespace {

using browser::Window;

AnalysisResult Analyze(const std::string& query,
                       AnalyzerOptions options = AnalyzerOptions()) {
  auto module = ParseModule(query);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  Analyzer analyzer(options);
  return analyzer.Analyze(**module);
}

// Codes of all diagnostics, in source order.
std::vector<std::string> Codes(const AnalysisResult& result) {
  std::vector<std::string> codes;
  for (const Diagnostic& d : result.diagnostics) codes.push_back(d.code);
  return codes;
}

bool HasCode(const AnalysisResult& result, const std::string& code) {
  const auto codes = Codes(result);
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

// --------------------------------------------------- scope/symbol pass ---

TEST(ScopePass, UndefinedVariableWithExactSpan) {
  AnalysisResult r = Analyze("1 + $nope");
  ASSERT_EQ(Codes(r), std::vector<std::string>{"XQSA001"});
  const Diagnostic& d = r.diagnostics[0];
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.span.line, 1);
  EXPECT_EQ(d.span.column, 5);  // the '$' of $nope
  EXPECT_EQ(d.Render(),
            "XQSA001: undefined variable $nope (line 1, column 5)");
}

TEST(ScopePass, DeclaredVariablesResolve) {
  EXPECT_TRUE(Analyze("declare variable $x := 1; $x + 1").diagnostics.empty());
  EXPECT_TRUE(Analyze("let $x := 1 return $x").diagnostics.empty());
  EXPECT_TRUE(Analyze("for $x in 1 to 3 return $x").diagnostics.empty());
  EXPECT_TRUE(
      Analyze("some $x in (1, 2) satisfies $x = 1").diagnostics.empty());
}

TEST(ScopePass, BrowserVariablesAreHostBound) {
  // $browser:value etc. are bound by the plug-in at event time.
  AnalysisResult r = Analyze(
      "declare namespace browser = \"http://www.example.com/browser\";\n"
      "$browser:value");
  EXPECT_FALSE(HasCode(r, "XQSA001"));
}

TEST(ScopePass, UndefinedFunction) {
  AnalysisResult r = Analyze("fn:no-such-function(1)");
  ASSERT_TRUE(HasCode(r, "XQSA002"));
  AnalysisResult local = Analyze("local:nothere(1)");
  EXPECT_TRUE(HasCode(local, "XQSA002"));
}

TEST(ScopePass, BuiltinArityMismatch) {
  AnalysisResult r = Analyze("fn:count(1, 2)");
  ASSERT_EQ(Codes(r), std::vector<std::string>{"XQSA003"});
  EXPECT_NE(r.diagnostics[0].message.find("expects 1"), std::string::npos);
  // Variadic fn:concat accepts any arity >= 2.
  EXPECT_TRUE(Analyze("concat('a', 'b', 'c', 'd')").diagnostics.empty());
  EXPECT_TRUE(HasCode(Analyze("concat('a')"), "XQSA003"));
}

TEST(ScopePass, DeclaredFunctionArityMismatch) {
  AnalysisResult r = Analyze(
      "declare function local:f($a) { $a };\n"
      "local:f(1, 2)");
  ASSERT_TRUE(HasCode(r, "XQSA003"));
  EXPECT_NE(r.diagnostics[0].message.find("declared arity: 1"),
            std::string::npos);
}

TEST(ScopePass, DuplicateFunctionDeclaration) {
  AnalysisResult r = Analyze(
      "declare function local:f() { 1 };\n"
      "declare function local:f() { 2 };\n"
      "local:f()");
  EXPECT_TRUE(HasCode(r, "XQSA004"));
  // Same name, different arity: a legal overload, not a duplicate.
  AnalysisResult overload = Analyze(
      "declare function local:f() { 1 };\n"
      "declare function local:f($a) { $a };\n"
      "local:f()");
  EXPECT_FALSE(HasCode(overload, "XQSA004"));
}

TEST(ScopePass, DuplicateVariableDeclaration) {
  AnalysisResult r = Analyze(
      "declare variable $x := 1;\n"
      "declare variable $x := 2;\n"
      "$x");
  EXPECT_TRUE(HasCode(r, "XQSA005"));
}

TEST(ScopePass, ContextModuleDeclarationsVisible) {
  auto lib = ParseModule(
      "declare variable $shared := 42;\n"
      "declare function local:helper($a) { $a * 2 };\n"
      "1");
  ASSERT_TRUE(lib.ok());
  auto main_mod = ParseModule("local:helper($shared)");
  ASSERT_TRUE(main_mod.ok());
  Analyzer analyzer;
  analyzer.AddContextModule(**lib);
  AnalysisResult r = analyzer.Analyze(**main_mod);
  EXPECT_TRUE(r.diagnostics.empty())
      << (r.diagnostics.empty() ? "" : r.diagnostics[0].Render());
}

// ------------------------------------------------ type inference pass ---

TEST(TypePass, ImpossibleComparison) {
  AnalysisResult r = Analyze("1 eq \"a\"");
  ASSERT_TRUE(HasCode(r, "XQSA010"));
  EXPECT_TRUE(HasCode(Analyze("let $x := 5 return $x = \"five\""),
                      "XQSA010"));
  EXPECT_TRUE(HasCode(Analyze("true() lt 3"), "XQSA010"));
}

TEST(TypePass, ComparableFamiliesAreQuiet) {
  EXPECT_FALSE(HasCode(Analyze("1 eq 2.5"), "XQSA010"));
  EXPECT_FALSE(HasCode(Analyze("\"a\" lt \"b\""), "XQSA010"));
  // Unknown operand types must not be flagged.
  EXPECT_FALSE(HasCode(Analyze("//a = 1"), "XQSA010"));
  // Strings parsed from node content are untyped, comparable to numbers.
  EXPECT_FALSE(HasCode(Analyze("string(//a) = \"x\""), "XQSA010"));
}

// --------------------------------------------------- update/purity pass ---

TEST(UpdatePass, UpdateInNonUpdatingContext) {
  // A binding expression is not an updating context (XQUF §5).
  AnalysisResult r = Analyze("let $x := delete nodes //a return 1");
  ASSERT_TRUE(HasCode(r, "XQSA020"));
  // Statement positions are fine in the scripting dialect.
  EXPECT_FALSE(HasCode(Analyze("delete nodes //a"), "XQSA020"));
  EXPECT_FALSE(
      HasCode(Analyze("(delete nodes //a, 1)"), "XQSA020"));
  EXPECT_FALSE(HasCode(
      Analyze("if (true()) then delete nodes //a else ()"), "XQSA020"));
  // copy-modify is a non-updating expression with contained updates.
  EXPECT_FALSE(HasCode(
      Analyze("copy $c := <a/> modify delete nodes $c//b return $c"),
      "XQSA020"));
}

TEST(UpdatePass, DeleteOrReplaceDocumentRoot) {
  EXPECT_TRUE(HasCode(Analyze("delete nodes /"), "XQSA021"));
  EXPECT_TRUE(
      HasCode(Analyze("replace node (/) with <a/>"), "XQSA021"));
  EXPECT_FALSE(HasCode(Analyze("delete nodes /a"), "XQSA021"));
}

TEST(UpdatePass, UpdateInsidePlainFunction) {
  AnalysisResult r = Analyze(
      "declare function local:bad() { delete nodes //a };\n"
      "local:bad()");
  ASSERT_TRUE(HasCode(r, "XQSA022"));
  // `declare updating function` / sequential functions are allowed.
  EXPECT_FALSE(HasCode(
      Analyze("declare updating function local:ok() { delete nodes //a };\n"
              "1"),
      "XQSA022"));
  EXPECT_FALSE(HasCode(
      Analyze("declare sequential function local:ok() { delete nodes //a; };\n"
              "1"),
      "XQSA022"));
}

TEST(PurityPass, ClassifiesFunctions) {
  auto module = ParseModule(
      "declare function local:pure($a) { $a * 2 };\n"
      "declare function local:calls-pure() { local:pure(21) };\n"
      "declare updating function local:mutates() { delete nodes //a };\n"
      "declare function local:calls-mutator() { local:mutates() };\n"
      "1");
  ASSERT_TRUE(module.ok());
  Analyzer analyzer;
  AnalysisResult r = analyzer.Analyze(**module);
  const auto& pure = r.facts.pure_functions;
  const char* kLocal = "{http://www.w3.org/2005/xquery-local-functions}";
  EXPECT_EQ(pure.count(std::string(kLocal) + "pure#1"), 1u);
  EXPECT_EQ(pure.count(std::string(kLocal) + "calls-pure#0"), 1u);
  EXPECT_EQ(pure.count(std::string(kLocal) + "mutates#0"), 0u);
  EXPECT_EQ(pure.count(std::string(kLocal) + "calls-mutator#0"), 0u);
}

// --------------------------------------------------------- lint pass ---

TEST(LintPass, UnusedVariable) {
  AnalysisResult r = Analyze("let $u := 1 return 2");
  ASSERT_TRUE(HasCode(r, "XQSA030"));
  EXPECT_EQ(r.diagnostics[0].severity, Severity::kWarning);
  // Globals and parameters are exempt (part of the page's public API).
  EXPECT_FALSE(HasCode(Analyze("declare variable $g := 1; 2"), "XQSA030"));
  EXPECT_FALSE(HasCode(
      Analyze("declare function local:f($unused) { 1 };\nlocal:f(9)"),
      "XQSA030"));
}

TEST(LintPass, UnreachableBranch) {
  AnalysisResult r = Analyze("if (true()) then 1 else 2");
  ASSERT_TRUE(HasCode(r, "XQSA031"));
  EXPECT_EQ(r.diagnostics[0].severity, Severity::kWarning);
  EXPECT_FALSE(HasCode(Analyze("if (//a) then 1 else 2"), "XQSA031"));
}

TEST(LintPass, UncollapsibleDescendantPath) {
  // '//x[1]' cannot be collapsed (positional predicate); '//x' and the
  // position-free '//x[@id = "a"]' can.
  AnalysisResult r = Analyze("//item[1]");
  ASSERT_TRUE(HasCode(r, "XQSA032"));
  EXPECT_EQ(r.diagnostics[0].severity, Severity::kInfo);
  EXPECT_TRUE(HasCode(Analyze("//item[position() = 2]"), "XQSA032"));
  EXPECT_FALSE(HasCode(Analyze("//item"), "XQSA032"));
  EXPECT_FALSE(HasCode(Analyze("//item[@id = \"a\"]"), "XQSA032"));
}

TEST(LintPass, BehindListenerAppliesUpdates) {
  // §4.4 "behind": an updating completion listener's updates apply on
  // the event-loop thread. The span points at the listener name token,
  // not the whole attach expression.
  AnalysisResult r = Analyze(
      "declare updating function local:done($s, $r) "
      "{ delete nodes //a };\n"
      "on event \"ready\" behind fn:string(1) attach listener local:done");
  ASSERT_TRUE(HasCode(r, "XQSA033"));
  const Diagnostic* d = nullptr;
  for (const Diagnostic& diag : r.diagnostics) {
    if (diag.code == "XQSA033") d = &diag;
  }
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->span.line, 2);
  EXPECT_EQ(d->span.column, 54);  // the 'l' of local:done
  EXPECT_EQ(d->span.length, std::string("local:done").size());

  // A pure completion listener is deliverable off-thread: no warning.
  EXPECT_FALSE(HasCode(
      Analyze("declare function local:done($s, $r) { concat($s, $r) };\n"
              "on event \"ready\" behind fn:string(1) "
              "attach listener local:done"),
      "XQSA033"));
  // Suppressible like any warning.
  EXPECT_FALSE(HasCode(
      Analyze("declare option lint \"suppress:XQSA033\";\n"
              "declare updating function local:done($s, $r) "
              "{ delete nodes //a };\n"
              "on event \"ready\" behind fn:string(1) "
              "attach listener local:done"),
      "XQSA033"));
}

TEST(LintPass, InterferingSameEventListeners) {
  AnalysisResult r = Analyze(
      "declare updating function local:a($e, $o) "
      "{ insert node <entrya/> into /html/body/loga };\n"
      "declare updating function local:b($e, $o) "
      "{ insert node <entryb/> into /html/body/loga };\n"
      "declare function local:read($e, $o) "
      "{ count(/html/body/loga/entrya) };\n"
      "{ on event \"onclick\" at //input attach listener local:a;\n"
      "  on event \"onclick\" at //input attach listener local:b;\n"
      "  on event \"onchange\" at //input attach listener local:read; }");
  ASSERT_EQ(Codes(r), std::vector<std::string>{"XQSA034"});
  const Diagnostic& d = r.diagnostics[0];
  EXPECT_EQ(d.severity, Severity::kWarning);
  // Anchored on the LATER registration's listener-name token: that is
  // the attach whose placement relative to the other one matters.
  EXPECT_EQ(d.span.line, 5);
  EXPECT_EQ(d.span.column, 49);  // the 'l' of local:b
  EXPECT_EQ(d.span.length, std::string("local:b").size());
  EXPECT_NE(d.message.find("local:a"), std::string::npos);
  EXPECT_NE(d.message.find("local:b"), std::string::npos);

  // Disjoint write targets: the same pair of listeners with separate
  // logs can commute — no warning.
  AnalysisResult disjoint = Analyze(
      "declare updating function local:a($e, $o) "
      "{ insert node <entrya/> into /html/body/loga };\n"
      "declare updating function local:b($e, $o) "
      "{ insert node <entryb/> into /html/body/logb };\n"
      "declare function local:read($e, $o) { count(//entrya | //entryb) };\n"
      "{ on event \"onclick\" at //input attach listener local:a;\n"
      "  on event \"onclick\" at //input attach listener local:b; }");
  EXPECT_FALSE(HasCode(disjoint, "XQSA034"));
  // Different events never share a dispatch run.
  AnalysisResult other_event = Analyze(
      "declare updating function local:a($e, $o) "
      "{ insert node <entrya/> into /html/body/loga };\n"
      "declare updating function local:b($e, $o) "
      "{ insert node <entryb/> into /html/body/loga };\n"
      "declare function local:read($e, $o) { count(//loga) };\n"
      "{ on event \"onclick\" at //input attach listener local:a;\n"
      "  on event \"onchange\" at //input attach listener local:b; }");
  EXPECT_FALSE(HasCode(other_event, "XQSA034"));
}

TEST(LintPass, MemoizableListenerWithTopReads) {
  AnalysisResult r = Analyze(
      "declare function local:stats($e, $o) { count(//*) };\n"
      "on event \"onclick\" at //input attach listener local:stats");
  ASSERT_EQ(Codes(r), std::vector<std::string>{"XQSA035"});
  const Diagnostic& d = r.diagnostics[0];
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.span.line, 2);
  EXPECT_EQ(d.span.column, 47);  // the 'l' of local:stats
  EXPECT_EQ(d.span.length, std::string("local:stats").size());

  // A named read set memoizes fine: no warning.
  EXPECT_FALSE(HasCode(
      Analyze("declare function local:stats($e, $o) { count(//item) };\n"
              "on event \"onclick\" at //input attach listener local:stats"),
      "XQSA035"));
  // Non-memoizable listeners (an alert observes the host on every
  // event) are never served from the memo — the lint does not apply.
  EXPECT_FALSE(HasCode(
      Analyze("declare sequential function local:loud($e, $o) "
              "{ browser:alert(string(count(//*))) };\n"
              "on event \"onclick\" at //input attach listener local:loud"),
      "XQSA035"));
}

TEST(LintPass, DeadUpdate) {
  AnalysisResult r = Analyze(
      "declare updating function local:log($e, $o) {\n"
      "  insert node <logline/> into /html/body/auditlog\n"
      "};\n"
      "on event \"onclick\" at //input attach listener local:log");
  ASSERT_EQ(Codes(r), std::vector<std::string>{"XQSA036"});
  const Diagnostic& d = r.diagnostics[0];
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.span.line, 2);
  EXPECT_EQ(d.span.column, 3);  // the `insert` keyword
  EXPECT_EQ(d.span.length, std::string("insert").size());

  // Any observing read inside the write scope keeps the update alive.
  EXPECT_FALSE(HasCode(
      Analyze("declare updating function local:log($e, $o) {\n"
              "  insert node <logline/> into /html/body/auditlog\n"
              "};\n"
              "declare function local:show($e, $o) { count(//auditlog) };\n"
              "on event \"onclick\" at //input attach listener local:log"),
      "XQSA036"));
  // A ⊤ write set is not provably dead — stay quiet.
  EXPECT_FALSE(HasCode(
      Analyze("declare updating function local:log($e, $o) {\n"
              "  insert node <logline/> into $o\n"
              "};\n"
              "on event \"onclick\" at //input attach listener local:log"),
      "XQSA036"));
}

TEST(LintPass, SuppressionOption) {
  AnalysisResult r = Analyze(
      "declare option lint \"suppress:XQSA030\";\n"
      "let $u := 1 return 2");
  EXPECT_FALSE(HasCode(r, "XQSA030"));
  // Errors are not suppressible.
  AnalysisResult err = Analyze(
      "declare option lint \"suppress:XQSA001\";\n"
      "$nope");
  EXPECT_TRUE(HasCode(err, "XQSA001"));
}

// ------------------------------------------------- engine integration ---

TEST(EngineIntegration, LenientByDefaultStrictOnRequest) {
  Engine engine;
  // Lenient: compiles, diagnostics retained (runtime keeps its own
  // error behaviour for compatibility).
  auto lenient = engine.Compile("$nope");
  ASSERT_TRUE(lenient.ok());
  ASSERT_EQ((*lenient)->diagnostics().size(), 1u);
  EXPECT_EQ((*lenient)->diagnostics()[0].code, "XQSA001");
  // Strict: the same script fails to compile.
  CompileOptions options;
  options.strict = true;
  auto strict = engine.Compile("$nope", options);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), "XQSA001");
}

TEST(EngineIntegration, InferredCardinalityRewrite) {
  // exists($i) on a for-variable only folds with analyzer facts: the
  // syntactic rules cannot know $i is a singleton.
  const char* query =
      "sum(for $i in 1 to 5 return (if (exists($i)) then $i else 0))";
  Engine engine;
  auto with = engine.Compile(query);
  ASSERT_TRUE(with.ok());
  EXPECT_GE((*with)->optimizer_stats().inferred_rewrites, 1);

  CompileOptions no_analysis;
  no_analysis.analyze = false;
  auto without = engine.Compile(query, no_analysis);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ((*without)->optimizer_stats().inferred_rewrites, 0);

  // Semantics must agree.
  for (auto* q : {&*with, &*without}) {
    DynamicContext ctx;
    ASSERT_TRUE((*q)->BindGlobals(ctx).ok());
    auto result = (*q)->Run(ctx);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(xdm::SequenceToString(*result), "15");
  }
}

TEST(EngineIntegration, AssignedVariablesCarryNoFacts) {
  // A variable reassigned in a loop must not fold on its initial
  // cardinality (the walker sees statements once, in textual order).
  const char* query =
      "{ declare variable $x := 1; "
      "  declare variable $n := 0; "
      "  while ($n < 2) { "
      "    set $n := $n + 1; "
      "    set $x := ($x, $x); "
      "  }; "
      "  count($x) }";
  Engine engine;
  auto q = engine.Compile(query);
  ASSERT_TRUE(q.ok());
  DynamicContext ctx;
  ASSERT_TRUE((*q)->BindGlobals(ctx).ok());
  auto result = (*q)->Run(ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(xdm::SequenceToString(*result), "4");
}

// ------------------------------------------------- plug-in integration ---

class AnalyzerPluginTest : public ::testing::Test {
 protected:
  AnalyzerPluginTest()
      : services_(&fabric_, &store_),
        plugin_(&browser_, &fabric_, &services_) {
    plugin_.Install();
  }

  Status LoadPage(const std::string& source) {
    Status st = browser_.top_window()->LoadSource(
        "http://app.example.com/index.xhtml", source);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return plugin_.last_script_error();
  }

  net::HttpFabric fabric_;
  net::XmlStore store_;
  net::ServiceHost services_;
  browser::Browser browser_;
  plugin::XqibPlugin plugin_;
};

TEST_F(AnalyzerPluginTest, RejectsBrokenScriptAtLoadTime) {
  const char* script = "browser:alert(string($undeclared))";
  Status st = LoadPage(
      "<html><head><script type=\"text/xquery\">" + std::string(script) +
      "</script></head><body/></html>");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), "XQSA001");
  // The load-time rejection renders exactly like xq_lint.
  LintReport lint = LintQuery(script);
  ASSERT_EQ(lint.units.size(), 1u);
  ASSERT_EQ(lint.units[0].diagnostics.size(), 1u);
  EXPECT_EQ(st.message(), lint.units[0].diagnostics[0].Render());
}

TEST_F(AnalyzerPluginTest, ListenerMayCallFunctionFromLaterScript) {
  // Scripts share one static context: script 1 attaches a listener that
  // is only declared by script 2, so analysis must be joint over all
  // page scripts, not per-script.
  Status st = LoadPage(
      "<html><head>"
      "<script type=\"text/xquery\">"
      "on event \"onclick\" at //input[@id=\"b\"] attach listener local:greet"
      "</script>"
      "<script type=\"text/xquery\">"
      "declare sequential function local:greet($evt, $obj) {"
      "  browser:alert(\"hi\") };"
      "</script>"
      "</head><body><input id=\"b\"/></body></html>");
  ASSERT_TRUE(st.ok()) << st.ToString();
  Window* w = browser_.top_window();
  browser::Event e;
  e.type = "onclick";
  plugin_.FireEvent(w->document()->GetElementById("b"), e);
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "hi");
}

TEST_F(AnalyzerPluginTest, PureListenerSkipsApplyPass) {
  Status st = LoadPage(
      "<html><head><script type=\"text/xquery\">"
      "declare function local:noop($evt, $obj) { fn:count($obj) };\n"
      "declare updating function local:mutate($evt, $obj) {\n"
      "  insert node <x/> into $obj\n"
      "};\n"
      "{ on event \"onclick\" at //div[@id=\"pure\"]"
      "    attach listener local:noop;\n"
      "  on event \"onclick\" at //div[@id=\"dirty\"]"
      "    attach listener local:mutate; }"
      "</script></head>"
      "<body><div id=\"pure\"/><div id=\"dirty\"/></body></html>");
  ASSERT_TRUE(st.ok()) << st.ToString();
  Window* w = browser_.top_window();
  xml::Node* pure = w->document()->GetElementById("pure");
  xml::Node* dirty = w->document()->GetElementById("dirty");
  ASSERT_NE(pure, nullptr);
  ASSERT_NE(dirty, nullptr);

  auto click = [&](xml::Node* target) {
    browser::Event e;
    e.type = "onclick";
    plugin_.FireEvent(target, e);
  };
  EXPECT_EQ(plugin_.counters().pure_listener_skips, 0u);
  click(pure);
  EXPECT_EQ(plugin_.counters().pure_listener_skips, 1u);
  click(dirty);
  EXPECT_EQ(plugin_.counters().pure_listener_skips, 1u);  // mutator not skipped
  EXPECT_EQ(dirty->children().size(), 1u);       // and its update applied
  EXPECT_TRUE(plugin_.last_script_error().ok())
      << plugin_.last_script_error().ToString();
}

// -------------------------------------------------- golden examples ---

TEST(GoldenExamples, AllShippedPagesLintClean) {
  const char* pages[] = {
      "hello.xhtml",
      "mashup.xhtml",
      "multiplication_table_js.xhtml",
      "multiplication_table_xquery.xhtml",
      "shopping_cart_js.xhtml",
      "shopping_cart_xquery.xhtml",
  };
  for (const char* page : pages) {
    auto source = app::ReadPageFile(page);
    ASSERT_TRUE(source.ok()) << page << ": " << source.status().ToString();
    auto report = LintXhtml(*source);
    ASSERT_TRUE(report.ok()) << page << ": " << report.status().ToString();
    EXPECT_FALSE(report->has_errors()) << page << " has lint errors:\n"
                                       << report->ToJson();
    EXPECT_FALSE(report->has_warnings()) << page << " has lint warnings:\n"
                                         << report->ToJson();
  }
}

TEST(GoldenExamples, BehindUpdatePageWarnsExactlyOnce) {
  // behind_update.xhtml ships as the golden XQSA033 case: an updating
  // `behind` completion listener. The page must lint with exactly that
  // warning (no errors, nothing else), and xq_lint's CI loop stays
  // green because warnings exit 0.
  auto source = app::ReadPageFile("behind_update.xhtml");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto report = LintXhtml(*source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->has_errors()) << report->ToJson();
  EXPECT_TRUE(report->has_warnings()) << report->ToJson();
  std::vector<std::string> codes;
  const Diagnostic* found = nullptr;
  for (const LintUnit& unit : report->units) {
    for (const Diagnostic& d : unit.diagnostics) {
      if (d.severity == Severity::kInfo) continue;  // style notes may ride
      codes.push_back(d.code);
      if (d.code == "XQSA033") found = &d;
    }
  }
  ASSERT_EQ(codes, std::vector<std::string>{"XQSA033"}) << report->ToJson();
  // Span-accurate against the shipped source: the diagnostic highlights
  // the `local:onResult` listener-name token.
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->span.length, std::string("local:onResult").size());
  EXPECT_GT(found->span.line, 0);
}

TEST(GoldenExamples, EffectLintPagesWarnExactlyOnce) {
  // Each effect-analysis lint ships one golden page that must produce
  // exactly its warning (no errors, no other warnings), span-anchored
  // on the documented token. These pages are deliberately NOT in the
  // lint-clean list above.
  struct Case {
    const char* page;
    const char* code;
    const char* token;  // the source text the span must cover
  } cases[] = {
      {"xqsa034_interference.xhtml", "XQSA034", "local:addB"},
      {"xqsa035_top_reads.xhtml", "XQSA035", "local:stats"},
      {"xqsa036_dead_update.xhtml", "XQSA036", "insert"},
  };
  for (const Case& c : cases) {
    auto source = app::ReadPageFile(c.page);
    ASSERT_TRUE(source.ok()) << c.page << ": " << source.status().ToString();
    auto report = LintXhtml(*source);
    ASSERT_TRUE(report.ok()) << c.page << ": " << report.status().ToString();
    EXPECT_FALSE(report->has_errors()) << c.page << ":\n" << report->ToJson();
    std::vector<std::string> codes;
    const Diagnostic* found = nullptr;
    for (const LintUnit& unit : report->units) {
      for (const Diagnostic& d : unit.diagnostics) {
        if (d.severity == Severity::kInfo) continue;  // style notes may ride
        codes.push_back(d.code);
        if (d.code == c.code) found = &d;
      }
    }
    ASSERT_EQ(codes, std::vector<std::string>{c.code})
        << c.page << ":\n" << report->ToJson();
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->span.length, std::string(c.token).size()) << c.page;
    EXPECT_GT(found->span.line, 0) << c.page;
    // Span-accurate against the shipped source: the highlighted text is
    // exactly the documented token.
    EXPECT_NE(source->find(c.token), std::string::npos) << c.page;
  }
}

}  // namespace
}  // namespace xqib::xquery::analysis
