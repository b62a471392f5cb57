// Differential tests: the engine against the independent XPath-core
// reference of xpath_reference.h. Seeded generated queries and the
// pinned scoped and predicated //name forms run on pseudo-random pages
// as main queries and as declared-function bodies, with compiled plans
// on and off, with and without the optimizer, and through
// index-ineligible twins, also across seeded XQUF updates with the
// document's invariants checked after every apply. Every result must
// equal the reference's, node identity and order included.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "xml/xml_parser.h"
#include "xpath_reference.h"
#include "xquery/engine.h"

namespace xqib::xpath_ref {
namespace {

using xquery::Counters;

// One way of running a query through the engine.
struct Config {
  const char* name;
  bool in_function;  // as the body of a declared function
  bool plans;        // EvalOptions::compiled_plans
  bool optimize;     // CompileOptions::optimize
  bool twin;         // the index-ineligible twin (Render's `twin`)
};
constexpr Config kConfigs[] = {
    {"main", false, true, true, false},
    {"main, unoptimized", false, true, false, false},
    {"function, plans", true, true, true, false},
    {"function, tree walker", true, false, true, false},
    {"function, plans, unoptimized", true, true, false, false},
    {"function, tree walker, unoptimized", true, false, false, false},
    {"twin", false, true, true, true},
    {"twin function, plans", true, true, true, true},
};

// An engine result in Describe's terms.
std::string DescribeResult(const xdm::Sequence& seq) {
  std::string out;
  for (size_t k = 0; k < seq.size(); ++k) {
    if (k > 0) out += " ";
    out += seq[k].is_node() ? "#" + NodeId(seq[k].node())
                            : seq[k].StringValue();
  }
  return out;
}

// Runs `query` with `doc`'s root as the focus, applying any updates it
// makes.
std::string RunEngine(const std::string& query, xml::Document* doc, bool plans,
                bool optimize, Counters* stats = nullptr) {
  xquery::Engine engine;
  xquery::CompileOptions compile;
  compile.optimize = optimize;
  auto compiled = engine.Compile(query, compile);
  if (!compiled.ok()) return "PARSE-ERROR: " + compiled.status().ToString();
  xquery::Evaluator::EvalOptions options;
  options.compiled_plans = plans;
  (*compiled)->evaluator().set_options(options);
  xquery::DynamicContext ctx;
  xquery::DynamicContext::Focus f;
  f.item = xdm::Item::Node(doc->root());
  f.position = 1;
  f.size = 1;
  f.has_item = true;
  ctx.set_focus(f);
  Status bound = (*compiled)->BindGlobals(ctx);
  if (!bound.ok()) return "BIND-ERROR: " + bound.ToString();
  auto result = (*compiled)->Run(ctx);
  if (stats != nullptr) *stats = (*compiled)->evaluator().counters();
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  return DescribeResult(*result);
}

std::string InFunction(const std::string& query) {
  return "declare function local:q() { " + query + " }; local:q()";
}

// Checks queries against the reference in every configuration, keeping
// what the vacuity floors need. Only the first few disagreements are
// reported in full.
class Checker {
 public:
  explicit Checker(xml::Document* doc) : doc_(doc) {}

  void Expect(const ExprPtr& q, const std::string& where) {
    Reference reference;
    const std::string text = Render(*q);
    const std::string want = Describe(reference.Eval(*q, doc_->root()));
    // An oracle that compares error strings checks nothing.
    if (!reference.error().empty()) {
      Report(where, "reference", text, "no error", reference.error());
      return;
    }
    const std::string twin = Render(*q, /*twin=*/true);
    for (const Config& c : kConfigs) {
      const std::string body = c.twin ? twin : text;
      Counters stats;
      const std::string got =
          RunEngine(c.in_function ? InFunction(body) : body, doc_, c.plans,
              c.optimize, &stats);
      if (got != want) Report(where, c.name, body, want, got);
      if (c.twin && stats.name_index_hits != 0) {
        Report(where, c.name, body, "no index hit",
               std::to_string(stats.name_index_hits) + " index hits");
      }
      if (&c == &kConfigs[0]) index_hits_ += stats.name_index_hits;
    }
    ++queries_;
  }

  // True when `selection` evaluates to at least one node.
  bool Selects(const ExprPtr& selection) {
    Reference reference;
    const Seq v = reference.Eval(*selection, doc_->root());
    for (const Item& i : v) {
      if (i.type == Item::Type::kNode) return true;
    }
    return false;
  }

  int queries() const { return queries_; }
  int failures() const { return failures_; }
  uint64_t index_hits() const { return index_hits_; }

 private:
  void Report(const std::string& where, const char* config,
              const std::string& query, const std::string& want,
              const std::string& got) {
    if (++failures_ <= 10) {
      ADD_FAILURE() << where << " [" << config << "] " << query
                    << "\n  want: " << want << "\n  got:  " << got;
    }
  }

  xml::Document* doc_;
  int queries_ = 0;
  int failures_ = 0;
  uint64_t index_hits_ = 0;
};

std::unique_ptr<xml::Document> Parse(const std::string& xml) {
  return std::move(xml::ParseDocument(xml)).value();
}

// ------------------------------------------------------ generated queries ---

// The seed budget: queries per page.
constexpr int kQueriesPerPage = 250;

TEST(Differential, GeneratedQueriesAgreeWithReference) {
  int queries = 0;
  int selecting = 0;
  uint64_t index_hits = 0;
  for (uint32_t seed : {1u, 7u, 42u}) {
    auto doc = Parse(RandomPage(seed, 8));
    Checker check(doc.get());
    Generator gen(seed);
    for (int k = 0; k < kQueriesPerPage; ++k) {
      const Generator::Query q = gen.Next();
      check.Expect(q.query, "seed " + std::to_string(seed) + " query " +
                                std::to_string(k));
      if (check.Selects(q.selection)) ++selecting;
    }
    EXPECT_EQ(check.failures(), 0) << "seed " << seed;
    queries += check.queries();
    index_hits += check.index_hits();
  }
  // Vacuity floors: a generator that selects nothing, or never reaches
  // the index, would agree with any engine.
  EXPECT_EQ(queries, 3 * kQueriesPerPage);
  EXPECT_GE(4 * selecting, queries) << selecting << " of " << queries;
  EXPECT_GE(index_hits, 100u);
}

// --------------------------------------------------------- pinned queries ---

// A pinned query: its text, and the AST that renders to it (up to the
// quote style).
struct Pinned {
  const char* text;
  ExprPtr query;
};

ExprPtr All(const std::string& name) {
  return Root({Dslash(), Child(name)});
}
ExprPtr AttrOf(const std::string& var, const std::string& attr) {
  return From(Var(var), {Attr(attr)});
}
// (//sec)[k]
ExprPtr Sec(int64_t k) { return Filter(All("sec"), {Int(k)}); }

// Paths, aggregates, positional filters, unions, FLWOR and quantifiers.
std::vector<Pinned> PathForms() {
  const ExprPtr item = All("item");
  auto v_of = [](std::vector<Step> steps) {
    steps.push_back(Attr("v"));
    return Root(std::move(steps));
  };
  return {
      {"//item", item},
      {"//item/@v", v_of({Dslash(), Child("item")})},
      {"//sec/item", Root({Dslash(), Child("sec"), Child("item")})},
      {"count(//item)", Call("count", {item})},
      {"count(//item/..)",
       Call("count", {Root({Dslash(), Child("item"), Up()})})},
      {"string-join(//note, ',')",
       Call("string-join", {All("note"), Str(",")})},
      {"exists(//leaf)", Call("exists", {All("leaf")})},
      {"empty(//missing)", Call("empty", {All("missing")})},
      {"string((//item)[1]/@v)",
       Call("string", {From(Filter(item, {Int(1)}), {Attr("v")})})},
      {"string((//item)[last()]/@v)",
       Call("string", {From(Filter(item, {Last()}), {Attr("v")})})},
      {"string((//item)[3]/@v)",
       Call("string", {From(Filter(item, {Int(3)}), {Attr("v")})})},
      {"string-join(//item[position() = 2]/@v, ' ')",
       Call("string-join",
          {v_of({Dslash(), Child("item", {Compare(Position(), "=", Int(2))})}),
           Str(" ")})},
      {"string-join(//item[last()]/@v, ' ')",
       Call("string-join",
            {v_of({Dslash(), Child("item", {Last()})}), Str(" ")})},
      {"string-join(//sec[note]/@id, ' ')",
       Call("string-join",
          {Root({Dslash(), Child("sec", {Rel({Child("note")})}), Attr("id")}),
           Str(" ")})},
      {"string-join(//item[@v > 50]/@v, ' ')",
       Call("string-join",
          {v_of({Dslash(),
                 Child("item", {Compare(Rel({Attr("v")}), ">", Int(50))})}),
           Str(" ")})},
      {"sum(//item/@v)", Call("sum", {v_of({Dslash(), Child("item")})})},
      {"for $i in //sec/item where $i/@v > 30 return string($i/@v)",
       Flwor({For("i", Root({Dslash(), Child("sec"), Child("item")}))},
             Compare(AttrOf("i", "v"), ">", Int(30)),
             Call("string", {AttrOf("i", "v")}))},
      {"for $s in //sec, $i in $s/item return concat($s/@id, ':', $i/@v)",
       Flwor({For("s", All("sec")), For("i", From(Var("s"), {Child("item")}))},
             nullptr,
             Call("concat", {AttrOf("s", "id"), Str(":"), AttrOf("i", "v")}))},
      {"count(//item/descendant-or-self::*/..)",
       Call("count",
          {Root({Dslash(), Child("item"),
                 AxisStep(Axis::kDescendantOrSelf, Test::kAnyName), Up()})})},
      {"name((//item | //note)[2])",
       Call("name", {Filter(Union(item, All("note")), {Int(2)})})},
      {"some $i in //item satisfies $i/@v > 90",
       Quantified(false, For("i", item),
                  Compare(AttrOf("i", "v"), ">", Int(90)))},
      {"every $i in //item satisfies $i/@v >= 0",
       Quantified(true, For("i", item),
                  Compare(AttrOf("i", "v"), ">=", Int(0)))},
      // An attribute precedes its owner's children in document order.
      {"count((//sec)[1]/@id/following::item)",
       Call("count",
            {From(Sec(1), {Attr("id"), Named(Axis::kFollowing, "item")})})},
      {"string-join((//item)[1]/@v/following::item/@v, ' ')",
       Call("string-join",
            {From(Filter(item, {Int(1)}),
                  {Attr("v"), Named(Axis::kFollowing, "item"), Attr("v")}),
             Str(" ")})},
  };
}

// The scoped and predicated //name forms the element-name index answers
// from an order-key range (Document::ElementsByNameIn), the positional
// forms that must keep the walk, and multi-origin and detached inputs.
std::vector<Pinned> ScopedForms() {
  auto join = [](ExprPtr e, const char* sep) {
    return Call("string-join", {std::move(e), Str(sep)});
  };
  auto let_s = [](int64_t k, ExprPtr body) {
    return Flwor({Let("s", Sec(k))}, nullptr, std::move(body));
  };
  auto from_s = [](std::vector<Step> steps) {
    return From(Var("s"), std::move(steps));
  };
  auto id_is = [](const char* id) {
    return Compare(Rel({Attr("id")}), "=", Str(id));
  };
  return {
      {"string-join(//sec[@id = \"s3\"]//item/@v, ' ')",
       join(Root({Dslash(), Child("sec", {id_is("s3")}), Dslash(),
                  Child("item"), Attr("v")}),
            " ")},
      {"let $s := (//sec)[3] return string-join($s//item/@v, ' ')",
       let_s(3, join(from_s({Dslash(), Child("item"), Attr("v")}), " "))},
      {"string-join(//item[@v > 50]/@v, ' ')",
       join(Root({Dslash(),
                  Child("item", {Compare(Rel({Attr("v")}), ">", Int(50))}),
                  Attr("v")}),
            " ")},
      {"let $s := (//sec)[2] return string-join($s//item[leaf]/@v, ' ')",
       let_s(2, join(from_s({Dslash(), Child("item", {Rel({Child("leaf")})}),
                             Attr("v")}),
                     " "))},
      {"let $s := (//sec)[4] return string-join($s//item[1]/@v, ' ')",
       let_s(4, join(from_s({Dslash(), Child("item", {Int(1)}), Attr("v")}),
                     " "))},
      {"let $s := (//sec)[5] return string($s/descendant::item[last()]/@v)",
       let_s(5, Call("string", {from_s({Named(Axis::kDescendant, "item",
                                            {Last()}),
                                      Attr("v")})}))},
      {"string-join(//item[position() = 2]/@v, ' ')",
       join(Root({Dslash(),
                  Child("item", {Compare(Position(), "=", Int(2))}),
                  Attr("v")}),
            " ")},
      {"for $i in //item return count($i/descendant-or-self::item)",
       Flwor({For("i", All("item"))}, nullptr,
             Call("count", {From(Var("i"), {Named(Axis::kDescendantOrSelf,
                                                "item")})}))},
      {"for $i in //item return string-join($i/descendant-or-self::item/@v,"
       " ',')",
       Flwor({For("i", All("item"))}, nullptr,
             join(From(Var("i"),
                       {Named(Axis::kDescendantOrSelf, "item"), Attr("v")}),
                  ","))},
      {"string-join(//sec//item/@v, ' ')",
       join(Root({Dslash(), Child("sec"), Dslash(), Child("item"), Attr("v")}),
            " ")},
      {"string-join(//item//item/@v, ' ')",
       join(Root({Dslash(), Child("item"), Dslash(), Child("item"),
                  Attr("v")}),
            " ")},
      {"let $s := (//sec)[6] return count($s//item)",
       let_s(6, Call("count", {from_s({Dslash(), Child("item")})}))},
      {"for $s in //sec return count($s//item)",
       Flwor({For("s", All("sec"))}, nullptr,
             Call("count", {from_s({Dslash(), Child("item")})}))},
      {"let $d := <x><item/><y><item/></y></x> return count($d//item)",
       Flwor({Let("d", Fragment("<x><item/><y><item/></y></x>"))}, nullptr,
             Call("count", {From(Var("d"), {Dslash(), Child("item")})}))},
      {"exists(//sec[@id = \"s2\"]//leaf)",
       Call("exists", {Root({Dslash(), Child("sec", {id_is("s2")}), Dslash(),
                           Child("leaf")})})},
  };
}

// The pinned texts use both quote styles; Render uses double quotes.
std::string DoubleQuoted(std::string text) {
  for (char& c : text) {
    if (c == '\'') c = '"';
  }
  return text;
}

TEST(Differential, PinnedQueriesRenderAsWritten) {
  for (const std::vector<Pinned>& forms : {PathForms(), ScopedForms()}) {
    for (const Pinned& p : forms) {
      EXPECT_EQ(Render(*p.query), DoubleQuoted(p.text));
    }
  }
}

TEST(Differential, PinnedQueriesAgreeWithReference) {
  for (uint32_t seed : {1u, 7u, 42u}) {
    auto doc = Parse(RandomPage(seed, 8));
    Checker check(doc.get());
    for (const std::vector<Pinned>& forms : {PathForms(), ScopedForms()}) {
      for (const Pinned& p : forms) {
        check.Expect(p.query, "seed " + std::to_string(seed));
      }
    }
    EXPECT_EQ(check.failures(), 0) << "seed " << seed;
  }
}

// The index answers the scoped forms: a mid-tree origin, a fused
// predicate, and count() over a variable's subtree, as main queries and
// through the plan ops. Multi-origin inputs, positional //N[1] and
// detached origins keep the walk (//sec's own step is the one hit
// allowed).
TEST(Differential, IndexAnswersScopedFormsOnly) {
  auto doc = Parse(RandomPage(7, 8));
  for (const char* q :
       {"//sec[@id = \"s3\"]//item", "//item[@v > 50]",
        "let $s := (//sec)[3] return count($s//item)"}) {
    for (const std::string& form : {std::string(q), InFunction(q)}) {
      Counters stats;
      EXPECT_EQ(RunEngine(form, doc.get(), true, true, &stats).find("ERROR"),
                std::string::npos);
      EXPECT_GT(stats.name_index_hits, 0u) << form;
    }
  }
  for (const char* q :
       {"//sec//item", "//item[1]",
        "let $d := <x><item/><y><item/></y></x> return count($d//item)"}) {
    Counters stats;
    RunEngine(q, doc.get(), true, true, &stats);
    EXPECT_LE(stats.name_index_hits, 1u) << q;
  }
}

// ------------------------------------------------------- across updates ---

// Seeded inserts, deletes, renames and replaces, delta-tracked so the
// name-index buckets splice: after every apply the order keys and the
// buckets must hold (Document::CheckInvariants), and the scoped forms
// and a batch of generated queries must still agree with the reference.
TEST(Differential, AgreeAcrossSeededUpdates) {
  auto doc = Parse(RandomPage(3, 8));
  doc->set_delta_tracking(true);
  uint32_t state = 12345;
  auto next = [&state](uint32_t n) {
    state = state * 1664525u + 1013904223u;
    return (state >> 16) % n;
  };
  Generator gen(99);
  Checker check(doc.get());
  for (int round = 0; round < 24; ++round) {
    const int items =
        std::stoi(RunEngine("count(//item)", doc.get(), true, true));
    const int secs =
        std::stoi(RunEngine("count(//sec)", doc.get(), true, true));
    ASSERT_GT(secs, 0);
    const std::string v = std::to_string(200 + round);
    const std::string item =
        "(//item)[" + std::to_string(1 + next(items > 0 ? items : 1)) + "]";
    const std::string sec = "(//sec)[" + std::to_string(1 + next(secs)) + "]";
    std::string update;
    switch (items == 0 ? 0 : next(7)) {
      case 0:
        update = "insert node <item v=\"" + v + "\"><item v=\"" + v +
                 "\"/><leaf/></item> as first into " + sec;
        break;
      case 1:
        update = "insert node <item v=\"" + v + "\"/> after " + item;
        break;
      case 2:
        update = "delete node " + item;
        break;
      case 3:
        update = "rename node " + item + " as \"note\"";
        break;
      case 4:
        update = "replace node " + item + " with <item v=\"" + v +
                 "\"><leaf/><item v=\"" + v + "\"/></item>";
        break;
      case 5:
        update = "replace value of node " + item + "/@v with \"" +
                 std::to_string(next(100)) + "\"";
        break;
      default:
        update = "rename node (//note, //leaf)[1] as \"item\"";
        break;
    }
    ASSERT_EQ(RunEngine(update, doc.get(), true, true).find("ERROR"),
              std::string::npos)
        << update;
    Status invariants = doc->CheckInvariants();
    ASSERT_TRUE(invariants.ok())
        << "after " << update << ": " << invariants.ToString();
    const std::string where =
        "round " + std::to_string(round) + " after " + update;
    for (const Pinned& p : ScopedForms()) check.Expect(p.query, where);
    for (int k = 0; k < 12; ++k) check.Expect(gen.Next().query, where);
  }
  EXPECT_EQ(check.failures(), 0);
  EXPECT_GT(doc->index_splices(), 0u);
}

}  // namespace
}  // namespace xqib::xpath_ref
