// Core expression-evaluation tests: literals, arithmetic, comparisons,
// FLWOR, quantified expressions, paths, predicates, constructors.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/engine.h"

namespace xqib::xquery {
namespace {

using xdm::Sequence;

// Evaluates `query` with an optional context document and returns the
// space-joined string value of the result.
std::string EvalToString(const std::string& query,
                         const std::string& context_xml = "") {
  Engine engine;
  auto compiled = engine.Compile(query);
  if (!compiled.ok()) return "PARSE-ERROR: " + compiled.status().ToString();
  DynamicContext ctx;
  std::unique_ptr<xml::Document> doc;
  if (!context_xml.empty()) {
    auto parsed = xml::ParseDocument(context_xml);
    if (!parsed.ok()) return "XML-ERROR: " + parsed.status().ToString();
    doc = std::move(parsed).value();
    DynamicContext::Focus f;
    f.item = xdm::Item::Node(doc->root());
    f.position = 1;
    f.size = 1;
    f.has_item = true;
    ctx.set_focus(f);
  }
  Status bound = (*compiled)->BindGlobals(ctx);
  if (!bound.ok()) return "BIND-ERROR: " + bound.ToString();
  auto result = (*compiled)->Run(ctx);
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  return xdm::SequenceToString(*result);
}

std::string EvalError(const std::string& query,
                      const std::string& context_xml = "") {
  Engine engine;
  auto compiled = engine.Compile(query);
  if (!compiled.ok()) return compiled.status().code();
  DynamicContext ctx;
  std::unique_ptr<xml::Document> doc;
  if (!context_xml.empty()) {
    doc = std::move(xml::ParseDocument(context_xml)).value();
    DynamicContext::Focus f;
    f.item = xdm::Item::Node(doc->root());
    f.position = 1;
    f.size = 1;
    f.has_item = true;
    ctx.set_focus(f);
  }
  Status bound = (*compiled)->BindGlobals(ctx);
  if (!bound.ok()) return bound.code();
  auto result = (*compiled)->Run(ctx);
  return result.ok() ? "OK" : result.status().code();
}

// ------------------------------------------------------------ literals ---

TEST(Literals, IntegerDecimalDoubleString) {
  EXPECT_EQ(EvalToString("42"), "42");
  EXPECT_EQ(EvalToString("3.5"), "3.5");
  EXPECT_EQ(EvalToString("1e3"), "1000");
  EXPECT_EQ(EvalToString("\"hi\""), "hi");
  EXPECT_EQ(EvalToString("'it''s'"), "it's");
}

TEST(Literals, EmptyAndCommaSequences) {
  EXPECT_EQ(EvalToString("()"), "");
  EXPECT_EQ(EvalToString("1, 2, 3"), "1 2 3");
  EXPECT_EQ(EvalToString("(1, (2, 3), ())"), "1 2 3");
}

TEST(Literals, RangeExpression) {
  EXPECT_EQ(EvalToString("1 to 5"), "1 2 3 4 5");
  EXPECT_EQ(EvalToString("5 to 1"), "");
  EXPECT_EQ(EvalToString("count(1 to 100)"), "100");
}

// ---------------------------------------------------------- arithmetic ---

TEST(Arithmetic, IntegerOps) {
  EXPECT_EQ(EvalToString("1 + 2 * 3"), "7");
  EXPECT_EQ(EvalToString("(1 + 2) * 3"), "9");
  EXPECT_EQ(EvalToString("7 idiv 2"), "3");
  EXPECT_EQ(EvalToString("7 mod 2"), "1");
  EXPECT_EQ(EvalToString("-5 + 2"), "-3");
  EXPECT_EQ(EvalToString("10 div 4"), "2.5");
  EXPECT_EQ(EvalToString("10 div 5"), "2");
}

TEST(Arithmetic, DoublePropagation) {
  EXPECT_EQ(EvalToString("1.5 + 1"), "2.5");
  EXPECT_EQ(EvalToString("2 * 0.5"), "1");
}

TEST(Arithmetic, DivisionByZero) {
  EXPECT_EQ(EvalError("1 div 0"), "FOAR0001");
  EXPECT_EQ(EvalError("1 idiv 0"), "FOAR0001");
  EXPECT_EQ(EvalError("1 mod 0"), "FOAR0001");
  // Double division by zero yields INF, not an error.
  EXPECT_EQ(EvalToString("1.0 div 0"), "INF");
}

TEST(Arithmetic, EmptyOperandYieldsEmpty) {
  EXPECT_EQ(EvalToString("() + 1"), "");
  EXPECT_EQ(EvalToString("1 * ()"), "");
}

TEST(Arithmetic, UntypedPromotion) {
  EXPECT_EQ(EvalToString("<a>4</a> + 1", ""), "5");
}

// ---------------------------------------------------------- comparison ---

TEST(Comparison, ValueComparisons) {
  EXPECT_EQ(EvalToString("1 eq 1"), "true");
  EXPECT_EQ(EvalToString("1 lt 2"), "true");
  EXPECT_EQ(EvalToString("'a' lt 'b'"), "true");
  EXPECT_EQ(EvalToString("() eq 1"), "");
}

TEST(Comparison, GeneralComparisonsAreExistential) {
  EXPECT_EQ(EvalToString("(1, 2, 3) = 2"), "true");
  EXPECT_EQ(EvalToString("(1, 2, 3) = 9"), "false");
  EXPECT_EQ(EvalToString("(1, 2) != (1, 2)"), "true");  // existential !=
  EXPECT_EQ(EvalToString("() = ()"), "false");
}

TEST(Comparison, NodeComparisons) {
  EXPECT_EQ(EvalToString("let $d := <a><b/><c/></a> "
                         "return $d/b << $d/c"),
            "true");
  EXPECT_EQ(EvalToString("let $d := <a><b/></a> return $d/b is $d/b"),
            "true");
  EXPECT_EQ(EvalToString("let $d := <a><b/><c/></a> "
                         "return $d/b is $d/c"),
            "false");
}

TEST(Comparison, Logical) {
  EXPECT_EQ(EvalToString("true() and false()"), "false");
  EXPECT_EQ(EvalToString("true() or false()"), "true");
  // Short-circuit: the rhs error is never reached.
  EXPECT_EQ(EvalToString("false() and (1 idiv 0 = 1)"), "false");
  EXPECT_EQ(EvalToString("true() or (1 idiv 0 = 1)"), "true");
}

// ---------------------------------------------------------------- paths ---

constexpr const char* kBooks = R"(
<books>
  <book year="2005"><title>Dogs and cats</title><price>10</price>
    <author>Ann</author></book>
  <book year="2007"><title>Query languages</title><price>50</price>
    <author>Bob</author><author>Cid</author></book>
  <book year="2008"><title>The dog barked</title><price>30</price>
    <author>Dan</author></book>
</books>)";

TEST(Paths, ChildAndDescendant) {
  EXPECT_EQ(EvalToString("count(/books/book)", kBooks), "3");
  EXPECT_EQ(EvalToString("count(//author)", kBooks), "4");
  EXPECT_EQ(EvalToString("count(//book/author)", kBooks), "4");
  EXPECT_EQ(EvalToString("/books/book[1]/title", kBooks), "Dogs and cats");
}

TEST(Paths, Attributes) {
  EXPECT_EQ(EvalToString("/books/book[1]/@year", kBooks), "2005");
  EXPECT_EQ(EvalToString("count(//@year)", kBooks), "3");
  EXPECT_EQ(EvalToString("//book[@year=2007]/title", kBooks),
            "Query languages");
}

TEST(Paths, Predicates) {
  EXPECT_EQ(EvalToString("//book[price > 20]/title", kBooks),
            "Query languages The dog barked");
  EXPECT_EQ(EvalToString("//book[author='Bob']/@year", kBooks), "2007");
  EXPECT_EQ(EvalToString("//book[2]/title", kBooks), "Query languages");
  EXPECT_EQ(EvalToString("//book[last()]/title", kBooks), "The dog barked");
  EXPECT_EQ(EvalToString("//book[position() < 3]/@year", kBooks),
            "2005 2007");
}

TEST(Paths, ReverseAndSiblingAxes) {
  EXPECT_EQ(EvalToString("//author[.='Bob']/parent::book/@year", kBooks),
            "2007");
  EXPECT_EQ(EvalToString("//price/preceding-sibling::title", kBooks),
            "Dogs and cats Query languages The dog barked");
  EXPECT_EQ(
      EvalToString("//book[2]/following-sibling::book/title", kBooks),
      "The dog barked");
  // //author[1] selects each book's first author (per-step predicate);
  // their ancestors are the three books plus the root element.
  EXPECT_EQ(EvalToString("count(//author[1]/ancestor::*)", kBooks), "4");
  EXPECT_EQ(EvalToString("count((//author)[1]/ancestor::*)", kBooks), "2");
  EXPECT_EQ(EvalToString("count(//author[.='Ann']/ancestor-or-self::*)",
                         kBooks),
            "3");
}

TEST(Paths, FollowingPrecedingAxes) {
  EXPECT_EQ(EvalToString("count(//title[.='Query languages']/"
                         "following::author)",
                         kBooks),
            "3");
  EXPECT_EQ(EvalToString("count(//title[.='Query languages']/"
                         "preceding::author)",
                         kBooks),
            "1");
}

TEST(Paths, Wildcards) {
  EXPECT_EQ(EvalToString("count(/books/*)", kBooks), "3");
  EXPECT_EQ(EvalToString("count(//book/*)", kBooks), "10");
}

TEST(Paths, DocumentOrderAndDedup) {
  // Union of overlapping paths must come back deduped, in doc order.
  EXPECT_EQ(EvalToString("count(//book | //book[1])", kBooks), "3");
  EXPECT_EQ(EvalToString("(//title | //price)[1]", kBooks),
            "Dogs and cats");
}

TEST(Paths, SetOperations) {
  EXPECT_EQ(EvalToString("count(//book intersect //book[@year=2007])",
                         kBooks),
            "1");
  EXPECT_EQ(
      EvalToString("count(//book except //book[@year=2007])", kBooks), "2");
}

TEST(Paths, PathFromAtomicFails) {
  EXPECT_EQ(EvalError("(1)/a"), "XPTY0019");
}

// An attribute comes after its owner and before the owner's children
// in document order.
TEST(Paths, FollowingAndPrecedingFromAnAttribute) {
  const char* doc = "<r><z/><a x=\"1\"><b/></a><c/></r>";
  EXPECT_EQ(EvalToString("/r/a/@x/following::*/name()", doc), "b c");
  EXPECT_EQ(EvalToString("/r/a/@x/preceding::*/name()", doc), "z");
  EXPECT_EQ(EvalToString("count(/r/a/@x/following::node())", doc), "2");
}

// StepExpr ::= FilterExpr | AxisStep: an expression step is evaluated
// once per context node, that node being the focus.
TEST(Paths, ExpressionSteps) {
  const char* doc =
      "<r><a><item v=\"1\"/><b><item v=\"2\"/></b></a><item v=\"3\"/></r>";
  EXPECT_EQ(EvalToString("//item/name()", doc), "item item item");
  EXPECT_EQ(EvalToString("(//item)[1]/@v/string()", doc), "1");
  EXPECT_EQ(EvalToString("/r/a//item[@v=\"2\"]/@v/string()", doc), "2");
  EXPECT_EQ(EvalToString("//item/(@v + 10)", doc), "11 12 13");
  // Atomic results keep context order and duplicates.
  EXPECT_EQ(EvalToString("(//item)[last()]/(., ..)/name()", doc), "r item");
  EXPECT_EQ(EvalToString("//item/\"x\"", doc), "x x x");
  // The focus carries the context position and size.
  EXPECT_EQ(EvalToString("//item/concat(position(), '/', last())", doc),
            "1/3 2/3 3/3");
  // Node results combine in document order without duplicates.
  EXPECT_EQ(EvalToString("count(//item/(.., /r))", doc), "3");
  EXPECT_EQ(EvalToString("//item/(..)/name()", doc), "r a b");
  EXPECT_EQ(EvalToString("count(//b/.)", doc), "1");
  // Atomic values before the last step, and a last step mixing nodes
  // and atomic values, are type errors.
  EXPECT_EQ(EvalError("//item/string()/x", doc), "XPTY0019");
  EXPECT_EQ(EvalError("//item/(if (@v = \"1\") then . else 1)", doc),
            "XPTY0018");
  // The same step inside a declared function's body.
  EXPECT_EQ(EvalToString("declare function local:names($n) { $n/name() };"
                         "local:names(//item)",
                         doc),
            "item item item");
}

// ------------------------------------------------- path fast paths ---

// Evaluates `query` with explicit evaluator options (the reference
// switches) and returns the result string; on success the
// evaluator's fast-path counters are copied into *stats if given.
// `optimize` false compiles without the optimizer, so no step carries
// an ordering proof and every step sorts.
std::string EvalWithOptions(const std::string& query,
                            const std::string& context_xml,
                            const Evaluator::EvalOptions& options,
                            Counters* stats = nullptr, bool optimize = true) {
  Engine engine;
  CompileOptions compile;
  compile.optimize = optimize;
  auto compiled = engine.Compile(query, compile);
  if (!compiled.ok()) return "PARSE-ERROR: " + compiled.status().ToString();
  (*compiled)->evaluator().set_options(options);
  DynamicContext ctx;
  std::unique_ptr<xml::Document> doc;
  if (!context_xml.empty()) {
    auto parsed = xml::ParseDocument(context_xml);
    if (!parsed.ok()) return "XML-ERROR: " + parsed.status().ToString();
    doc = std::move(parsed).value();
    DynamicContext::Focus f;
    f.item = xdm::Item::Node(doc->root());
    f.position = 1;
    f.size = 1;
    f.has_item = true;
    ctx.set_focus(f);
  }
  Status bound = (*compiled)->BindGlobals(ctx);
  if (!bound.ok()) return "BIND-ERROR: " + bound.ToString();
  auto result = (*compiled)->Run(ctx);
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  if (stats != nullptr) *stats = (*compiled)->evaluator().counters();
  return xdm::SequenceToString(*result);
}

// Satellite regression: position 1 on a reverse axis is the *nearest*
// node (axis order), not the first in document order.
TEST(FastPaths, ReverseAxisPositionalPredicates) {
  EXPECT_EQ(EvalToString("//author[.='Cid']/preceding-sibling::*[1]",
                         kBooks),
            "Bob");
  EXPECT_EQ(EvalToString(
                "string((//author[.='Ann']/ancestor::*[1])/@year)", kBooks),
            "2005");
  EXPECT_EQ(EvalToString("name(//price[.='50']/ancestor::*[1])", kBooks),
            "book");
}

// The elision and bounded-evaluation machinery is observationally
// pure: each shape it touches gives the result read off kBooks, with
// and without the optimizer's ordering proofs.
TEST(FastPaths, AgreeWithLiteralResults) {
  const char* const cases[][2] = {
      {"/books/book/title", "Dogs and cats Query languages The dog barked"},
      {"//book/author", "Ann Bob Cid Dan"},
      {"count(//author)", "4"},
      {"//book/@year", "2005 2007 2008"},
      {"string-join(//book/title, '|')",
       "Dogs and cats|Query languages|The dog barked"},
      {"(//author)[1]", "Ann"},
      {"(//author)[last()]", "Dan"},
      {"//book[price > 20]/title", "Query languages The dog barked"},
      {"exists(//price)", "true"},
      {"exists(//nothing)", "false"},
      {"empty(//nothing)", "true"},
      {"//price/preceding-sibling::title",
       "Dogs and cats Query languages The dog barked"},
      {"count(//author[1]/ancestor::*)", "4"},
      {"(//title | //price)[1]", "Dogs and cats"},
      {"//book/descendant-or-self::*/title",
       "Dogs and cats Query languages The dog barked"},
  };
  for (const auto& c : cases) {
    for (bool optimize : {true, false}) {
      EXPECT_EQ(EvalWithOptions(c[0], kBooks, Evaluator::EvalOptions(),
                                nullptr, optimize),
                c[1])
          << "query: " << c[0] << " optimize " << optimize;
    }
  }
}

TEST(FastPaths, SortElisionCounters) {
  Counters stats;
  // A pure child chain from the root never needs sorting.
  EXPECT_EQ(EvalWithOptions("/books/book/title", kBooks,
                            Evaluator::EvalOptions(), &stats),
            "Dogs and cats Query languages The dog barked");
  EXPECT_GT(stats.sorts_elided, 0u);
  EXPECT_EQ(stats.sorts_performed, 0u);

  // Without the optimizer's ordering proofs the same query pays for
  // every step.
  EXPECT_EQ(EvalWithOptions("/books/book/title", kBooks,
                            Evaluator::EvalOptions(), &stats,
                            /*optimize=*/false),
            "Dogs and cats Query languages The dog barked");
  EXPECT_EQ(stats.sorts_elided, 0u);
  EXPECT_EQ(stats.sorts_performed, 3u);
}

TEST(FastPaths, NameIndexCounters) {
  Counters stats;
  EXPECT_EQ(EvalWithOptions("count(//author)", kBooks,
                            Evaluator::EvalOptions(), &stats),
            "4");
  EXPECT_GT(stats.name_index_hits, 0u);
  // A bare //name path routes through the index too.
  EXPECT_EQ(EvalWithOptions("//author", kBooks, Evaluator::EvalOptions(),
                            &stats),
            "Ann Bob Cid Dan");
  EXPECT_GT(stats.name_index_hits, 0u);
  // A wildcard step with a self:: filter is the index-ineligible twin.
  EXPECT_EQ(EvalWithOptions("count(//*[self::author])", kBooks,
                            Evaluator::EvalOptions(), &stats),
            "4");
  EXPECT_EQ(stats.name_index_hits, 0u);
}

// Evaluates `arg` over kBooks, then calls the builtin fn:`local` with
// that sequence and `rest` as already evaluated arguments through
// CompiledQuery::Call, the route a host call takes. *stats receives what
// the call alone moved.
std::string CallOverEvaluated(const std::string& local, const std::string& arg,
                              std::vector<Sequence> rest, Counters* stats) {
  Engine engine;
  auto compiled = engine.Compile(arg);
  if (!compiled.ok()) return "PARSE-ERROR: " + compiled.status().ToString();
  auto doc = std::move(xml::ParseDocument(kBooks)).value();
  DynamicContext ctx;
  DynamicContext::Focus f;
  f.item = xdm::Item::Node(doc->root());
  f.position = 1;
  f.size = 1;
  f.has_item = true;
  ctx.set_focus(f);
  auto evaluated = (*compiled)->Run(ctx);
  if (!evaluated.ok()) return "ERROR: " + evaluated.status().ToString();
  std::vector<Sequence> args{std::move(*evaluated)};
  for (Sequence& r : rest) args.push_back(std::move(r));
  const Counters before = (*compiled)->evaluator().counters();
  auto result = (*compiled)->Call(
      xml::QName(std::string(xml::kFnNamespace), local), std::move(args), ctx);
  *stats = (*compiled)->evaluator().counters() - before;
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  return xdm::SequenceToString(*result);
}

TEST(FastPaths, EarlyExitCounters) {
  Counters stats;
  // A builtin handed an evaluated argument (a host call) cuts nothing
  // short; the tree walker streams a declared function's variable.
  EXPECT_EQ(CallOverEvaluated("exists", "//author", {}, &stats), "true");
  EXPECT_EQ(stats.early_exits, 0u);
  EXPECT_EQ(EvalWithOptions("declare function local:f($x) { exists($x) }; "
                            "local:f(//author)",
                            kBooks, Evaluator::EvalOptions(), &stats),
            "true");
  EXPECT_EQ(stats.early_exits, 1u);
  EXPECT_EQ(EvalWithOptions("exists(//author)", kBooks,
                            Evaluator::EvalOptions(), &stats),
            "true");
  EXPECT_GT(stats.early_exits, 0u);
  EXPECT_EQ(EvalWithOptions("(//author)[1]", kBooks,
                            Evaluator::EvalOptions(), &stats),
            "Ann");
  EXPECT_GT(stats.early_exits, 0u);
  EXPECT_EQ(EvalWithOptions("(//author)[last()]", kBooks,
                            Evaluator::EvalOptions(), &stats),
            "Dan");
  EXPECT_GT(stats.early_exits, 0u);
}

// A stream-consumable builtin reached with evaluated arguments (a host
// call) reads them through a cursor: the streamed call's results and
// error codes, and no avoided buffer to count.
TEST(FastPaths, BuiltinOverEvaluatedArgumentCountsNothing) {
  struct Case {
    const char* fn;
    const char* arg;
    std::vector<Sequence> rest;
    const char* want;
  };
  auto integer = [](int64_t v) { return Sequence{xdm::Item::Integer(v)}; };
  const std::vector<Case> cases = {
      {"count", "//author", {}, "4"},
      {"sum", "//author/../@year", {}, "6020"},
      {"subsequence", "//author", {integer(2), integer(2)}, "Bob Cid"},
      {"head", "//author", {}, "Ann"},
      {"empty", "//author", {}, "false"},
      {"not", "//author", {}, "false"},
      {"boolean", "//author", {}, "true"},
      {"min", "//price", {}, "10"},
      {"max", "//price", {}, "50"},
      {"avg", "//price", {}, "30"},
  };
  for (const Case& c : cases) {
    Counters stats;
    EXPECT_EQ(CallOverEvaluated(c.fn, c.arg, c.rest, &stats), c.want) << c.fn;
    EXPECT_EQ(stats.buffers_avoided, 0u) << c.fn;
    EXPECT_EQ(stats.early_exits, 0u) << c.fn;
  }
  // The same builtins over a declared function's variable.
  const char* const bodies[][2] = {
      {"count($x)", "4"},
      {"sum($x/../@year)", "6020"},
      {"string-join(subsequence($x, 2, 2), ',')", "Bob,Cid"},
      {"(head($x), empty($x), not($x), boolean($x))", "Ann false false true"},
      {"(min($x/../price), max($x/../price), avg($x/../price))", "10 50 30"},
  };
  for (const auto& b : bodies) {
    const std::string q = std::string("declare function local:f($x) { ") +
                          b[0] + " }; local:f(//author)";
    EXPECT_EQ(EvalWithOptions(q, kBooks, Evaluator::EvalOptions()), b[1]) << q;
  }
  // The tree walker streams the variable into the fold.
  Counters stats;
  EXPECT_EQ(EvalWithOptions("declare function local:f($x) { count($x) }; "
                            "local:f(//author)",
                            kBooks, Evaluator::EvalOptions(), &stats),
            "4");
  EXPECT_EQ(stats.buffers_avoided, 1u);
  // A wrong arity is still XPST0017, through either route.
  EXPECT_NE(CallOverEvaluated("count", "//author", {integer(2)}, &stats)
                .find("XPST0017"),
            std::string::npos);
  EXPECT_NE(EvalWithOptions("declare function local:g() { count(1, 2) }; "
                            "local:g()",
                            kBooks, Evaluator::EvalOptions())
                .find("XPST0017"),
            std::string::npos);
}

// The index must not be consulted when the step carries a wildcard or a
// non-element test, and //name must still see mutations made upstream
// in the same query (snapshot taken per evaluation).
TEST(FastPaths, NameIndexScopeLimits) {
  Counters stats;
  EXPECT_EQ(EvalWithOptions("count(//*)", kBooks, Evaluator::EvalOptions(),
                            &stats),
            "14");
  EXPECT_EQ(stats.name_index_hits, 0u);
  // A step from a single mid-tree context node answers from the
  // index's order-key range of that node's subtree.
  EXPECT_EQ(EvalWithOptions("count(/books/book[1]//author)", kBooks,
                            Evaluator::EvalOptions(), &stats),
            "1");
  EXPECT_GT(stats.name_index_hits, 0u);
}

// A user-declared function named exists() lives in its own namespace,
// so it must see the full argument sequence, never a truncated one.
TEST(FastPaths, UserExistsFunctionSeesFullSequence) {
  EXPECT_EQ(EvalToString(
                "declare namespace my='urn:m';\n"
                "declare function my:exists($x) { count($x) };\n"
                "my:exists(//author)",
                kBooks),
            "4");
}

// ---------------------------------------------------------------- FLWOR ---

TEST(FLWOR, ForReturn) {
  EXPECT_EQ(EvalToString("for $i in 1 to 3 return $i * 10"), "10 20 30");
}

TEST(FLWOR, LetAndWhere) {
  EXPECT_EQ(EvalToString("for $b in //book let $p := $b/price "
                         "where $p > 20 return $b/title",
                         kBooks),
            "Query languages The dog barked");
}

TEST(FLWOR, PositionalVariable) {
  EXPECT_EQ(EvalToString("for $x at $i in ('a','b','c') "
                         "return concat($i, ':', $x)"),
            "1:a 2:b 3:c");
}

TEST(FLWOR, OrderBy) {
  EXPECT_EQ(EvalToString("for $b in //book order by number($b/price) "
                         "return $b/price",
                         kBooks),
            "10 30 50");
  EXPECT_EQ(EvalToString("for $b in //book "
                         "order by number($b/price) descending "
                         "return $b/price",
                         kBooks),
            "50 30 10");
  EXPECT_EQ(EvalToString("for $b in //book order by $b/title "
                         "return $b/@year",
                         kBooks),
            "2005 2007 2008");
}

TEST(FLWOR, MultipleForClausesCrossProduct) {
  EXPECT_EQ(EvalToString("for $i in (1,2), $j in (10,20) return $i + $j"),
            "11 21 12 22");
}

TEST(FLWOR, NestedFLWOR) {
  EXPECT_EQ(
      EvalToString("for $i in 1 to 2 return (for $j in 1 to $i return $j)"),
      "1 1 2");
}

TEST(Quantified, SomeAndEvery) {
  EXPECT_EQ(EvalToString("some $x in (1,2,3) satisfies $x > 2"), "true");
  EXPECT_EQ(EvalToString("every $x in (1,2,3) satisfies $x > 2"), "false");
  EXPECT_EQ(EvalToString("every $x in () satisfies $x > 2"), "true");
  EXPECT_EQ(EvalToString("some $x in () satisfies $x > 2"), "false");
}

TEST(Conditional, IfThenElse) {
  EXPECT_EQ(EvalToString("if (1 < 2) then 'yes' else 'no'"), "yes");
  EXPECT_EQ(EvalToString("if (()) then 'yes' else 'no'"), "no");
}

// --------------------------------------------------------- constructors ---

TEST(Constructors, DirectElement) {
  Engine engine;
  auto q = engine.Compile("<li class=\"x\">hello</li>");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  DynamicContext ctx;
  auto r = (*q)->Run(ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(xml::Serialize(r->at(0).node()),
            "<li class=\"x\">hello</li>");
}

TEST(Constructors, EnclosedExpressions) {
  Engine engine;
  auto q = engine.Compile("<p>{1 + 1} items</p>");
  ASSERT_TRUE(q.ok());
  DynamicContext ctx;
  auto r = (*q)->Run(ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(xml::Serialize(r->at(0).node()), "<p>2 items</p>");
}

TEST(Constructors, AttributeValueTemplates) {
  Engine engine;
  auto q = engine.Compile("<a href=\"page{1+1}.html\">x</a>");
  ASSERT_TRUE(q.ok());
  DynamicContext ctx;
  auto r = (*q)->Run(ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->at(0).node()->GetAttributeValue("href"), "page2.html");
}

TEST(Constructors, NestedWithIteration) {
  Engine engine;
  auto q = engine.Compile(
      "<ul>{for $i in 1 to 3 return <li>{$i}</li>}</ul>");
  ASSERT_TRUE(q.ok());
  DynamicContext ctx;
  auto r = (*q)->Run(ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(xml::Serialize(r->at(0).node()),
            "<ul><li>1</li><li>2</li><li>3</li></ul>");
}

TEST(Constructors, CopiedNodesAreNewNodes) {
  EXPECT_EQ(
      EvalToString("let $a := <x><y/></x> let $b := <w>{$a/y}</w> "
                   "return $b/y is $a/y"),
      "false");
}

TEST(Constructors, ComputedConstructors) {
  Engine engine;
  auto q = engine.Compile(
      "element {concat('d','iv')} { attribute id {'z'}, text {'T'} }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  DynamicContext ctx;
  auto r = (*q)->Run(ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(xml::Serialize(r->at(0).node()), "<div id=\"z\">T</div>");
}

TEST(Constructors, AdjacentAtomicsJoinWithSpace) {
  Engine engine;
  auto q = engine.Compile("<v>{1, 2, 3}</v>");
  ASSERT_TRUE(q.ok());
  DynamicContext ctx;
  auto r = (*q)->Run(ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->at(0).node()->StringValue(), "1 2 3");
}

TEST(Constructors, RepeatedAttributeNamesAreErrors) {
  // Two same-named attributes in a direct constructor: a static error.
  EXPECT_EQ(EvalError("<a x=\"1\" x=\"2\"/>"), "XQST0040");
  EXPECT_EQ(EvalError("declare namespace p = \"urn:p\"; "
                      "<a xmlns:q=\"urn:p\" p:x=\"1\" q:x=\"2\"/>"),
            "XQST0040");
  // Constructed content that repeats an attribute name: a dynamic one.
  EXPECT_EQ(EvalError("<a x=\"1\">{attribute x {\"2\"}}</a>"), "XQDY0025");
  EXPECT_EQ(EvalError("element a { attribute x {1}, attribute x {2} }"),
            "XQDY0025");
  EXPECT_EQ(EvalError("let $s := <s x=\"1\"/> return <a>{$s/@x, $s/@x}</a>"),
            "XQDY0025");
  // Distinct expanded names are fine.
  EXPECT_EQ(EvalToString("count(<a x=\"1\">{attribute y {2}}</a>/@*)"), "2");
  EXPECT_EQ(EvalToString("declare namespace p = \"urn:p\"; "
                         "count(<a x=\"1\" p:x=\"2\"/>/@*)"),
            "2");
}

TEST(Constructors, EntityEscapes) {
  EXPECT_EQ(EvalToString("<t>a &lt; b &amp; c</t>"), "a < b & c");
  EXPECT_EQ(EvalToString("<t>{{literal}}</t>"), "{literal}");
}

// -------------------------------------------------- declared functions ---

// Runs `query` with `xml` as the context document, applying its updates,
// and returns "result | document".
std::string EvalWithDocument(const std::string& query,
                             const std::string& xml) {
  Engine engine;
  auto compiled = engine.Compile(query);
  if (!compiled.ok()) return "PARSE-ERROR: " + compiled.status().ToString();
  auto doc = std::move(xml::ParseDocument(xml)).value();
  DynamicContext ctx;
  DynamicContext::Focus f;
  f.item = xdm::Item::Node(doc->root());
  f.position = 1;
  f.size = 1;
  f.has_item = true;
  ctx.set_focus(f);
  Status bound = (*compiled)->BindGlobals(ctx);
  if (!bound.ok()) return "BIND-ERROR: " + bound.ToString();
  auto result = (*compiled)->Run(ctx);
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  return xdm::SequenceToString(*result) + " | " + xml::Serialize(doc->root());
}

// Function bodies of each kind the evaluator dispatches on: recursion,
// a FLWOR over arithmetic, nested calls, paths, string functions,
// typeswitch, an update and conditionals.
TEST(DeclaredFunctions, BodyShapes) {
  const std::string doc =
      "<root><item v=\"1\"/><item v=\"2\"/><item v=\"3\"/>"
      "<span>old</span></root>";
  const std::string unchanged = " | " + doc;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"declare function local:fib($n) { if ($n < 2) then $n else "
       "local:fib($n - 1) + local:fib($n - 2) }; local:fib(12)",
       "144" + unchanged},
      {"declare function local:s($n) { sum(for $i in 1 to $n where "
       "($i * 3 + 1) mod 7 = 3 return $i * $i mod 101) }; local:s(200)",
       "1500" + unchanged},
      {"declare function local:a($x) { $x + 1 };\n"
       "declare function local:b($x) { local:a($x) * local:a($x + 1) };\n"
       "local:b(5)",
       "42" + unchanged},
      {"declare function local:c() { count(//item) + "
       "sum(//item/@v) }; local:c()",
       "9" + unchanged},
      {"declare function local:j($s) { concat($s, \"-\", "
       "string-length($s)) }; local:j(\"abc\")",
       "abc-3" + unchanged},
      {"declare function local:d($x) { typeswitch ($x) case xs:integer "
       "return \"int\" default return \"other\" }; "
       "(local:d(1), local:d(\"s\"))",
       "int other" + unchanged},
      {"declare updating function local:u($v) { replace value of node "
       "//span with string($v * 7) }; local:u(6)",
       " | <root><item v=\"1\"/><item v=\"2\"/><item v=\"3\"/>"
       "<span>42</span></root>"},
      {"declare function local:e($n) { if ($n > 2 and $n mod 2 = 0) "
       "then \"even>2\" else \"no\" }; "
       "(local:e(1), local:e(4), local:e(7))",
       "no even>2 no" + unchanged},
  };
  for (const auto& [query, want] : cases) {
    EXPECT_EQ(EvalWithDocument(query, doc), want) << query;
  }
}

// ----------------------------------------------------- casts, instance ---

TEST(Casts, CastAs) {
  EXPECT_EQ(EvalToString("'42' cast as xs:integer"), "42");
  EXPECT_EQ(EvalToString("42 cast as xs:string"), "42");
  EXPECT_EQ(EvalToString("'true' cast as xs:boolean"), "true");
  EXPECT_EQ(EvalError("'abc' cast as xs:integer"), "FORG0001");
}

TEST(Casts, Castable) {
  EXPECT_EQ(EvalToString("'42' castable as xs:integer"), "true");
  EXPECT_EQ(EvalToString("'abc' castable as xs:integer"), "false");
}

TEST(Casts, InstanceOf) {
  EXPECT_EQ(EvalToString("1 instance of xs:integer"), "true");
  EXPECT_EQ(EvalToString("1 instance of xs:string"), "false");
  EXPECT_EQ(EvalToString("(1,2) instance of xs:integer*"), "true");
  EXPECT_EQ(EvalToString("() instance of empty-sequence()"), "true");
  EXPECT_EQ(EvalToString("<a/> instance of element()"), "true");
}

TEST(Casts, ConstructorFunctions) {
  EXPECT_EQ(EvalToString("xs:integer('7') + 1"), "8");
  EXPECT_EQ(EvalToString("xs:double('1.5') * 2"), "3");
}

// ----------------------------------------------------------- typeswitch ---

TEST(Typeswitch, DispatchesByType) {
  const char* q =
      "for $v in (1, 'x', 2.5, <e/>) return "
      "typeswitch ($v) "
      "  case xs:integer return 'int' "
      "  case xs:string return 'str' "
      "  case element() return 'elem' "
      "  default return 'other'";
  EXPECT_EQ(EvalToString(q), "int str other elem");
}

TEST(Typeswitch, CaseVariableBinding) {
  EXPECT_EQ(EvalToString("typeswitch (21) "
                         "case $i as xs:integer return $i * 2 "
                         "default return 0"),
            "42");
  EXPECT_EQ(EvalToString("typeswitch ('a') "
                         "case $i as xs:integer return $i "
                         "default $d return concat($d, '!')"),
            "a!");
}

TEST(Typeswitch, SequenceOccurrence) {
  EXPECT_EQ(EvalToString("typeswitch ((1, 2, 3)) "
                         "case xs:integer return 'one' "
                         "case xs:integer+ return 'many' "
                         "default return 'other'"),
            "many");
  EXPECT_EQ(EvalToString("typeswitch (()) "
                         "case empty-sequence() return 'empty' "
                         "default return 'other'"),
            "empty");
}

TEST(Typeswitch, RequiresCaseClause) {
  Engine engine;
  EXPECT_FALSE(engine.Compile("typeswitch (1) default return 2").ok());
}

// ------------------------------------------------------------ fulltext ---

TEST(FullText, BasicContains) {
  EXPECT_EQ(EvalToString("'The dog barked' ftcontains 'dog'"), "true");
  EXPECT_EQ(EvalToString("'The dog barked' ftcontains 'cat'"), "false");
  // Tokenized matching, not substring matching.
  EXPECT_EQ(EvalToString("'concatenation' ftcontains 'cat'"), "false");
}

TEST(FullText, Stemming) {
  EXPECT_EQ(EvalToString("'many dogs here' ftcontains "
                         "('dog' with stemming)"),
            "true");
  EXPECT_EQ(EvalToString("'running fast' ftcontains "
                         "('run' with stemming)"),
            "true");
  EXPECT_EQ(EvalToString("'many dogs here' ftcontains 'dog'"), "false");
}

TEST(FullText, FtAndOrNot) {
  EXPECT_EQ(EvalToString("'dogs and cats' ftcontains 'dogs' ftand 'cats'"),
            "true");
  EXPECT_EQ(EvalToString("'dogs only' ftcontains 'dogs' ftand 'cats'"),
            "false");
  EXPECT_EQ(EvalToString("'dogs only' ftcontains 'dogs' ftor 'cats'"),
            "true");
  EXPECT_EQ(EvalToString("'dogs only' ftcontains ftnot 'cats'"), "true");
}

TEST(FullText, PaperExample) {
  // The paper's §3.1 query shape: books whose title contains "cat" and a
  // stem of "dog".
  constexpr const char* kLib = R"(
    <books>
      <book><title>dogs and a cat</title><author>A</author></book>
      <book><title>a cat alone</title><author>B</author></book>
    </books>)";
  EXPECT_EQ(EvalToString("for $b in /books/book where $b/title ftcontains "
                         "('dog' with stemming) ftand 'cat' "
                         "return $b/author",
                         kLib),
            "A");
}

TEST(FullText, NodeSearch) {
  EXPECT_EQ(EvalToString("count(//div[. ftcontains 'love'])",
                         "<d><div>I love XML</div><div>meh</div></d>"),
            "1");
}

// ------------------------------------------- XPath conformance sweep ---

// Table-driven conformance checks against one fixed document; each row
// is (query, expected string result).
struct XPathCase {
  const char* query;
  const char* expected;
};

constexpr const char* kConformanceDoc = R"(
<site>
  <people>
    <person id="p1" age="34"><name>Ann</name><city>Zurich</city></person>
    <person id="p2" age="28"><name>Bob</name><city>Basel</city></person>
    <person id="p3" age="34"><name>Cid</name><city>Zurich</city></person>
  </people>
  <items>
    <item owner="p1" price="10"><tag/><tag/></item>
    <item owner="p2" price="30"/>
    <item owner="p1" price="20"/>
  </items>
</site>)";

class XPathConformance : public ::testing::TestWithParam<XPathCase> {};

TEST_P(XPathConformance, Evaluates) {
  const XPathCase& c = GetParam();
  EXPECT_EQ(EvalToString(c.query, kConformanceDoc), c.expected) << c.query;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, XPathConformance,
    ::testing::Values(
        XPathCase{"count(//person)", "3"},
        XPathCase{"count(/site/*)", "2"},
        XPathCase{"count(/site/people/person/@id)", "3"},
        XPathCase{"//person[@id='p2']/name", "Bob"},
        XPathCase{"//person[@age = 34][2]/name", "Cid"},
        XPathCase{"(//person[@age = 34])[2]/name", "Cid"},
        XPathCase{"//person[city = 'Zurich' and @age > 30]/name",
                  "Ann Cid"},
        XPathCase{"//person[not(city = 'Basel')]/name", "Ann Cid"},
        XPathCase{"count(//item[@owner = //person[name='Ann']/@id])", "2"},
        XPathCase{"sum(//item/@price)", "60"},
        XPathCase{"avg(for $p in //item/@price return xs:integer($p))",
                  "20"},
        XPathCase{"count(//tag/parent::item)", "1"},
        XPathCase{"count(//tag/ancestor::site)", "1"},
        XPathCase{"//person[1]/following-sibling::person[1]/name", "Bob"},
        XPathCase{"//person[last()]/preceding-sibling::person[1]/name",
                  "Bob"},
        XPathCase{"count(//people/following::item)", "3"},
        XPathCase{"count(//items/preceding::person)", "3"},
        XPathCase{"string(//person[2]/..[name()='people']/person[1]/name)",
                  "Ann"},
        XPathCase{"count(//person/self::person)", "3"},
        XPathCase{"count(//node())", "23"},
        XPathCase{"count(//text())", "6"},
        XPathCase{"//person[starts-with(name, 'A')]/city", "Zurich"},
        XPathCase{"distinct-values(//person/city)", "Zurich Basel"},
        XPathCase{"string-join(//person/name, ',')", "Ann,Bob,Cid"},
        XPathCase{"count(//person[position() mod 2 = 1])", "2"},
        XPathCase{"name((//item)[1]/*[1])", "tag"},
        XPathCase{"count(//item[not(*)])", "2"},
        XPathCase{"min(for $i in //item return xs:integer($i/@price))",
                  "10"},
        XPathCase{"max(for $i in //item return xs:integer($i/@price))",
                  "30"},
        XPathCase{"//person[name = 'Ann']/@age cast as xs:integer", "34"},
        XPathCase{"count(//person[@id][city])", "3"},
        XPathCase{"min(//item/xs:integer(@price))", "10"}));

// A function-call step (StepExpr ::= FilterExpr | AxisStep) is
// evaluated per context node, not rejected as trailing content.
TEST(XPathConformanceMeta, FunctionCallStepsEvaluate) {
  EXPECT_EQ(EvalToString("min(//item/xs:integer(@price))", kConformanceDoc),
            "10");
}

}  // namespace
}  // namespace xqib::xquery
