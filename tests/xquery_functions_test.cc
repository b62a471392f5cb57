// Tests for the fn: built-in library and user-declared functions.

#include <gtest/gtest.h>

#include "xml/xml_parser.h"
#include "xquery/analysis/analyzer.h"
#include "xquery/engine.h"
#include "xquery/functions.h"
#include "xquery/parser.h"

namespace xqib::xquery {
namespace {

std::string Eval(const std::string& query, const std::string& xml = "") {
  Engine engine;
  auto q = engine.Compile(query);
  if (!q.ok()) return "PARSE-ERROR: " + q.status().ToString();
  DynamicContext ctx;
  ctx.clock = []() { return std::string("2009-04-20T10:30:45"); };
  std::unique_ptr<xml::Document> doc;
  if (!xml.empty()) {
    doc = std::move(xml::ParseDocument(xml)).value();
    DynamicContext::Focus f;
    f.item = xdm::Item::Node(doc->root());
    f.position = 1;
    f.size = 1;
    f.has_item = true;
    ctx.set_focus(f);
  }
  Status b = (*q)->BindGlobals(ctx);
  if (!b.ok()) return "BIND-ERROR: " + b.ToString();
  auto r = (*q)->Run(ctx);
  if (!r.ok()) return "ERROR: " + r.status().code();
  return xdm::SequenceToString(*r);
}

TEST(StringFunctions, ConcatAndJoin) {
  EXPECT_EQ(Eval("concat('a', 'b', 'c')"), "abc");
  EXPECT_EQ(Eval("concat('n=', 42)"), "n=42");
  EXPECT_EQ(Eval("string-join(('a','b','c'), '-')"), "a-b-c");
  EXPECT_EQ(Eval("string-join((), '-')"), "");
}

TEST(StringFunctions, SubstringFamily) {
  EXPECT_EQ(Eval("substring('12345', 2)"), "2345");
  EXPECT_EQ(Eval("substring('12345', 2, 3)"), "234");
  EXPECT_EQ(Eval("substring('12345', 0)"), "12345");
  EXPECT_EQ(Eval("substring-before('tuv=xyz', '=')"), "tuv");
  EXPECT_EQ(Eval("substring-after('tuv=xyz', '=')"), "xyz");
  EXPECT_EQ(Eval("substring-after('abc', 'z')"), "");
}

TEST(StringFunctions, CaseAndTests) {
  EXPECT_EQ(Eval("upper-case('abcZ')"), "ABCZ");
  EXPECT_EQ(Eval("lower-case('ABCz')"), "abcz");
  EXPECT_EQ(Eval("contains('hello world', 'lo w')"), "true");
  EXPECT_EQ(Eval("starts-with('hello', 'he')"), "true");
  EXPECT_EQ(Eval("ends-with('hello', 'lo')"), "true");
  EXPECT_EQ(Eval("contains('abc', 'x')"), "false");
}

TEST(StringFunctions, LengthNormalizeTranslate) {
  EXPECT_EQ(Eval("string-length('hello')"), "5");
  EXPECT_EQ(Eval("string-length('')"), "0");
  EXPECT_EQ(Eval("normalize-space('  a   b  ')"), "a b");
  EXPECT_EQ(Eval("translate('bar', 'abc', 'ABC')"), "BAr");
  EXPECT_EQ(Eval("translate('abcd', 'bd', 'B')"), "aBc");
}

TEST(StringFunctions, RegexFamily) {
  EXPECT_EQ(Eval("matches('abc123', '[0-9]+')"), "true");
  EXPECT_EQ(Eval("matches('abc', '^[a-z]+$')"), "true");
  EXPECT_EQ(Eval("replace('a1b2', '[0-9]', 'x')"), "axbx");
  EXPECT_EQ(Eval("string-join(tokenize('a,b,c', ','), '|')"), "a|b|c");
  EXPECT_EQ(Eval("matches('a', '[')"), "ERROR: FORX0002");
}

TEST(StringFunctions, Codepoints) {
  EXPECT_EQ(Eval("codepoints-to-string((72, 105))"), "Hi");
  EXPECT_EQ(Eval("string-to-codepoints('Hi')"), "72 105");
  EXPECT_EQ(Eval("compare('a', 'b')"), "-1");
  EXPECT_EQ(Eval("compare('b', 'b')"), "0");
}

TEST(StringFunctions, EncodeForUri) {
  EXPECT_EQ(Eval("encode-for-uri('a b/c')"), "a%20b%2Fc");
}

TEST(NumericFunctions, Rounding) {
  EXPECT_EQ(Eval("abs(-3)"), "3");
  EXPECT_EQ(Eval("ceiling(1.2)"), "2");
  EXPECT_EQ(Eval("floor(1.8)"), "1");
  EXPECT_EQ(Eval("round(1.5)"), "2");
  EXPECT_EQ(Eval("round(-1.5)"), "-1");
}

TEST(NumericFunctions, Aggregates) {
  EXPECT_EQ(Eval("sum((1, 2, 3))"), "6");
  EXPECT_EQ(Eval("sum(())"), "0");
  EXPECT_EQ(Eval("avg((1, 2, 3))"), "2");
  EXPECT_EQ(Eval("min((3, 1, 2))"), "1");
  EXPECT_EQ(Eval("max((3, 1, 2))"), "3");
  EXPECT_EQ(Eval("min(('b', 'a', 'c'))"), "a");
  EXPECT_EQ(Eval("count((1, 2, 3))"), "3");
  EXPECT_EQ(Eval("sum(//price)", "<o><price>10</price><price>5</price></o>"),
            "15");
}

TEST(NumericFunctions, NumberFunction) {
  EXPECT_EQ(Eval("number('42') + 1"), "43");
  EXPECT_EQ(Eval("number('xyz')"), "NaN");
  EXPECT_EQ(Eval("number(())"), "NaN");
}

TEST(SequenceFunctions, EmptyExists) {
  EXPECT_EQ(Eval("empty(())"), "true");
  EXPECT_EQ(Eval("empty((1))"), "false");
  EXPECT_EQ(Eval("exists(())"), "false");
  EXPECT_EQ(Eval("exists((1))"), "true");
}

TEST(SequenceFunctions, DistinctReverseSubsequence) {
  EXPECT_EQ(Eval("distinct-values((1, 2, 1, 3, 2))"), "1 2 3");
  EXPECT_EQ(Eval("distinct-values(('a', 'b', 'a'))"), "a b");
  EXPECT_EQ(Eval("reverse((1, 2, 3))"), "3 2 1");
  EXPECT_EQ(Eval("subsequence((1,2,3,4,5), 2, 3)"), "2 3 4");
  EXPECT_EQ(Eval("subsequence((1,2,3,4,5), 4)"), "4 5");
}

TEST(SequenceFunctions, InsertRemoveIndexOf) {
  EXPECT_EQ(Eval("insert-before((1,2,3), 2, (9))"), "1 9 2 3");
  EXPECT_EQ(Eval("insert-before((1,2), 9, (5))"), "1 2 5");
  EXPECT_EQ(Eval("remove((1,2,3), 2)"), "1 3");
  EXPECT_EQ(Eval("index-of((10, 20, 10), 10)"), "1 3");
  EXPECT_EQ(Eval("index-of((10, 20), 99)"), "");
}

TEST(SequenceFunctions, CardinalityChecks) {
  EXPECT_EQ(Eval("exactly-one((5))"), "5");
  EXPECT_EQ(Eval("exactly-one(())"), "ERROR: FORG0005");
  EXPECT_EQ(Eval("zero-or-one(())"), "");
  EXPECT_EQ(Eval("zero-or-one((1, 2))"), "ERROR: FORG0003");
  EXPECT_EQ(Eval("one-or-more(())"), "ERROR: FORG0004");
}

TEST(SequenceFunctions, DeepEqual) {
  EXPECT_EQ(Eval("deep-equal(<a><b>1</b></a>, <a><b>1</b></a>)"), "true");
  EXPECT_EQ(Eval("deep-equal(<a><b>1</b></a>, <a><b>2</b></a>)"), "false");
  EXPECT_EQ(Eval("deep-equal((1, 'a'), (1, 'a'))"), "true");
  EXPECT_EQ(Eval("deep-equal(<a x='1'/>, <a x='1'/>)"), "true");
  EXPECT_EQ(Eval("deep-equal(<a x='1'/>, <a x='2'/>)"), "false");
}

TEST(NodeFunctions, Names) {
  EXPECT_EQ(Eval("name(<foo/>)"), "foo");
  EXPECT_EQ(Eval("local-name(<foo/>)"), "foo");
  // A function call is a step (StepExpr ::= FilterExpr | AxisStep),
  // evaluated once per context node.
  EXPECT_EQ(Eval("//b/name()", "<a><b/></a>"), "b");
  EXPECT_EQ(Eval("for $x in //b return name($x)", "<a><b/></a>"), "b");
}

TEST(NodeFunctions, Root) {
  EXPECT_EQ(Eval("count(root(//b)/a)", "<a><b/></a>"), "1");
}

TEST(NodeFunctions, Id) {
  EXPECT_EQ(Eval("for $n in id('x') return local-name($n)",
                 "<d><p id=\"x\"/><q id=\"y\"/></d>"),
            "p");
  EXPECT_EQ(Eval("count(id('nope'))", "<d><p id=\"x\"/></d>"), "0");
}

TEST(BooleanFunctions, EffectiveBooleanValue) {
  EXPECT_EQ(Eval("boolean('')"), "false");
  EXPECT_EQ(Eval("boolean('x')"), "true");
  EXPECT_EQ(Eval("boolean(0)"), "false");
  EXPECT_EQ(Eval("not(())"), "true");
  EXPECT_EQ(Eval("boolean(//b)", "<a><b/></a>"), "true");
  EXPECT_EQ(Eval("boolean(//zz)", "<a><b/></a>"), "false");
}

TEST(DateTimeFunctions, CurrentAndComponents) {
  EXPECT_EQ(Eval("current-dateTime()"), "2009-04-20T10:30:45");
  EXPECT_EQ(Eval("current-date()"), "2009-04-20");
  EXPECT_EQ(Eval("current-time()"), "10:30:45");
  EXPECT_EQ(Eval("year-from-dateTime(current-dateTime())"), "2009");
  EXPECT_EQ(Eval("month-from-dateTime(current-dateTime())"), "4");
  EXPECT_EQ(Eval("day-from-dateTime(current-dateTime())"), "20");
  EXPECT_EQ(Eval("hours-from-dateTime(current-dateTime())"), "10");
  EXPECT_EQ(Eval("minutes-from-dateTime(current-dateTime())"), "30");
  EXPECT_EQ(Eval("seconds-from-dateTime(current-dateTime())"), "45");
  EXPECT_EQ(Eval("year-from-date(current-date())"), "2009");
  EXPECT_EQ(Eval("hours-from-time(current-time())"), "10");
}

TEST(DateTimeFunctions, DateTimeOrdering) {
  EXPECT_EQ(Eval("xs:dateTime('2008-01-01T00:00:00') lt "
                 "xs:dateTime('2009-01-01T00:00:00')"),
            "true");
}

TEST(ErrorFunction, RaisesStatus) {
  EXPECT_EQ(Eval("error('MYER0001', 'boom')"), "ERROR: MYER0001");
  EXPECT_EQ(Eval("error()"), "ERROR: FOER0000");
}

TEST(TraceFunction, PassesThroughAndLogs) {
  Engine engine;
  auto q = engine.Compile("trace(1 + 1, 'calc')");
  ASSERT_TRUE(q.ok());
  DynamicContext ctx;
  std::vector<std::string> log;
  ctx.trace_sink = [&](const std::string& s) { log.push_back(s); };
  auto r = (*q)->Run(ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(xdm::SequenceToString(*r), "2");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "calc: 2");
}

// ------------------------------------------------------------- arity ---

// The status code of running `query` compiled without the analyzer, so
// only the evaluator judges it; "ok" when it runs.
std::string RunUnanalyzed(const std::string& query) {
  Engine engine;
  CompileOptions options;
  options.analyze = false;
  auto q = engine.Compile(query, options);
  if (!q.ok()) return "PARSE-ERROR: " + q.status().ToString();
  DynamicContext ctx;
  auto r = (*q)->Run(ctx);
  return r.ok() ? "ok" : r.status().code();
}

TEST(Arity, EnforcedAtRunTime) {
  for (const char* query :
       {"true(1)", "false(1)", "current-dateTime(1)", "current-date(1)",
        "current-time(1)", "error('E', 'm', (), 4)"}) {
    EXPECT_EQ(RunUnanalyzed(query), "XPST0017") << query;
  }
}

// For every row of the builtin table, at arities min-1, min, max and
// max+1 (variadic rows capped at 4): the analyzer accepts the call, or
// reports XQSA003, exactly when the evaluator runs it, or raises
// XPST0017, and both follow the row's arity range. No row is an unknown
// function to either.
TEST(Arity, AnalyzerAndEvaluatorAgreeOnEveryRow) {
  for (const Builtin& row : BuiltinLibrary()) {
    const int max = row.max_arity == Builtin::kVariadic ? 4 : row.max_arity;
    for (int arity : {row.min_arity - 1, int{row.min_arity}, max, max + 1}) {
      if (arity < 0) continue;
      std::string call = row.Lexical() + "(";
      for (int i = 0; i < arity; ++i) call += i == 0 ? "()" : ", ()";
      call += ")";
      const bool accepted = row.AcceptsArity(static_cast<size_t>(arity));

      auto module = ParseModule(call);
      ASSERT_TRUE(module.ok()) << call;
      analysis::AnalysisResult analyzed =
          analysis::AnalyzeProgram({module->get()});
      bool xqsa003 = false;
      for (const analysis::Diagnostic& d : analyzed.diagnostics[0]) {
        EXPECT_NE(d.code, "XQSA002") << call << ": " << d.Render();
        if (d.code == "XQSA003") xqsa003 = true;
      }
      EXPECT_EQ(xqsa003, !accepted) << call;

      const std::string ran = RunUnanalyzed(call);
      EXPECT_EQ(ran == "XPST0017", !accepted) << call << ": " << ran;
    }
  }
}

// Every xs: name `cast as` accepts has a constructor row running the
// same cast: xs:T($v) and $v cast as xs:T give the same value or the
// same error code. The abstract xs:anyAtomicType is no cast target
// (XPST0080 at parse time) and has no constructor (XPST0017).
TEST(Constructors, AgreeWithCastAs) {
  struct Case {
    const char* type;
    const char* value;
    const char* expected;  // of both forms; null: they only agree
  } cases[] = {
      {"long", "\"5\"", "5"},
      {"long", "7.0", "7"},
      {"long", "\"abc\"", "ERROR: FORG0001"},
      {"short", "\"12\"", "12"},
      {"short", "\"x\"", "ERROR: FORG0001"},
      {"QName", "\"p\"", nullptr},
      {"QName", "1", nullptr},
      {"duration", "\"PT5S\"", "PT5S"},
      {"duration", "\"P1DT2H30M\"", "PT95400S"},
      {"duration", "\"-PT1.5S\"", "-PT1.5S"},
      {"duration", "\"P1Y\"", "ERROR: FORG0001"},
      {"duration", "\"P2DT\"", "ERROR: FORG0001"},
      {"dayTimeDuration", "\"PT5S\"", "PT5S"},
      {"dayTimeDuration", "\" P1DT2H30M \"", "PT95400S"},
      {"dayTimeDuration", "\"PT2M30S\"", "PT150S"},
      {"dayTimeDuration", "\"P1M\"", "ERROR: FORG0001"},
      {"dayTimeDuration", "\"PT1H2H\"", "ERROR: FORG0001"},
      {"dayTimeDuration", "\"PT1.5M\"", "ERROR: FORG0001"},
      {"dayTimeDuration", "\"P\"", "ERROR: FORG0001"},
      {"dayTimeDuration", "\"5\"", "ERROR: FORG0001"},
      {"dayTimeDuration", "5", "ERROR: XPTY0004"},
  };
  for (const Case& c : cases) {
    const std::string type = std::string("xs:") + c.type;
    const std::string constructed = Eval(type + "(" + c.value + ")");
    const std::string cast = Eval(std::string(c.value) + " cast as " + type);
    EXPECT_EQ(constructed, cast) << type << " of " << c.value;
    if (c.expected != nullptr) {
      EXPECT_EQ(cast, c.expected) << type << " of " << c.value;
    }
    // Both forms compile and reach the cast.
    EXPECT_EQ(constructed.find("PARSE-ERROR"), std::string::npos)
        << constructed;
    EXPECT_EQ(constructed.find("XPST0017"), std::string::npos) << type;
  }
  EXPECT_NE(Eval("\"5\" cast as xs:anyAtomicType").find("[XPST0080]"),
            std::string::npos);
  EXPECT_NE(Eval("\"5\" castable as xs:anyAtomicType").find("[XPST0080]"),
            std::string::npos);
  EXPECT_EQ(RunUnanalyzed("xs:anyAtomicType(\"5\")"), "XPST0017");
  // A sequence type may still name it.
  EXPECT_EQ(Eval("declare variable $v as xs:anyAtomicType := 5; $v"), "5");
}

TEST(UserFunctions, DeclarationAndCall) {
  EXPECT_EQ(Eval("declare function local:double($x) { $x * 2 }; "
                 "local:double(21)"),
            "42");
  EXPECT_EQ(Eval("declare function local:fib($n) { "
                 "if ($n < 2) then $n "
                 "else local:fib($n - 1) + local:fib($n - 2) }; "
                 "local:fib(10)"),
            "55");
}

TEST(UserFunctions, MultipleArityOverloads) {
  EXPECT_EQ(Eval("declare function local:f($x) { $x }; "
                 "declare function local:f($x, $y) { $x + $y }; "
                 "local:f(1), local:f(1, 2)"),
            "1 3");
}

TEST(UserFunctions, WebServiceStyleModule) {
  // The paper's §3.4 web-service function, run locally.
  EXPECT_EQ(Eval("declare function local:mul($a, $b) { $a * $b }; "
                 "local:mul(2, 5)"),
            "10");
}

TEST(UserFunctions, InfiniteRecursionGuard) {
  EXPECT_EQ(Eval("declare function local:loop($x) { local:loop($x) }; "
                 "local:loop(1)"),
            "ERROR: XQIB0002");
}

TEST(UserFunctions, UnknownFunctionError) {
  EXPECT_EQ(Eval("local:nothere(1)"), "ERROR: XPST0017");
  EXPECT_EQ(Eval("frobnicate(1)"), "ERROR: XPST0017");
}

TEST(GlobalVariables, DeclaredAndUsed) {
  EXPECT_EQ(Eval("declare variable $x := 10; $x * 2"), "20");
  EXPECT_EQ(Eval("declare variable $x := 2; "
                 "declare variable $y := $x * 3; $y"),
            "6");
}

TEST(Prolog, NamespaceDeclaration) {
  EXPECT_EQ(Eval("declare namespace my = 'urn:my'; "
                 "declare function my:f() { 7 }; my:f()"),
            "7");
}

TEST(Prolog, OptionDeclaration) {
  Engine engine;
  auto q = engine.Compile(
      "declare option fn:webservice 'true'; 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->static_context().option(
                "{http://www.w3.org/2005/xpath-functions}webservice"),
            "true");
}

}  // namespace
}  // namespace xqib::xquery
