// Streaming-pipeline tests (pull-based ItemStream evaluation): a
// streamed-vs-materialized oracle over deterministic pseudo-random
// pages for every switch combination, with every indexed query checked
// against an index-ineligible twin (scoped and predicated //name forms
// included, as main queries and as plan-compiled function bodies, and
// across seeded updates), position()/last() semantics in
// streamed predicates, laziness proofs (bounded consumers stop pulling
// from huge domains), and the fn:count name-index fast path including
// its invalidation under document mutation.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "xml/xml_parser.h"
#include "xquery/engine.h"

namespace xqib::xquery {
namespace {

using xdm::Sequence;

// Runs `query` with `doc`'s root as the focus (no focus when null),
// applying any updates it makes. `optimize` false compiles without the
// optimizer: no //-collapsing, so no fused predicates either.
std::string EvalOn(const std::string& query, xml::Document* doc,
                   const Evaluator::EvalOptions& options,
                   Counters* stats = nullptr, bool optimize = true) {
  Engine engine;
  CompileOptions compile;
  compile.optimize = optimize;
  auto compiled = engine.Compile(query, compile);
  if (!compiled.ok()) return "PARSE-ERROR: " + compiled.status().ToString();
  (*compiled)->evaluator().set_options(options);
  DynamicContext ctx;
  if (doc != nullptr) {
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
  if (stats != nullptr) *stats = (*compiled)->evaluator().counters();
  if (!result.ok()) return "ERROR: " + result.status().code();
  return xdm::SequenceToString(*result);
}

std::string EvalWith(const std::string& query, const std::string& xml,
                     const Evaluator::EvalOptions& options,
                     Counters* stats = nullptr) {
  std::unique_ptr<xml::Document> doc;
  if (!xml.empty()) {
    auto parsed = xml::ParseDocument(xml);
    if (!parsed.ok()) return "XML-ERROR: " + parsed.status().ToString();
    doc = std::move(parsed).value();
  }
  return EvalOn(query, doc.get(), options, stats);
}

// The same query as the body of a declared function, so the compiled
// plan ops (path.indexed, count.indexed) evaluate it.
std::string InFunction(const std::string& query) {
  return "declare function local:q() { " + query + " }; local:q()";
}

Evaluator::EvalOptions Eager() {
  Evaluator::EvalOptions o;
  o.stream_pipeline = false;
  return o;
}

// Deterministic pseudo-random page: nested sections with repeated
// element names at several depths, so paths produce duplicates,
// out-of-order raw axis output, and ancestor/descendant overlap.
std::string RandomPage(uint32_t seed, int sections) {
  uint32_t state = seed;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;  // numerical-recipes LCG
    return (state >> 16) & 0x7fff;
  };
  std::string xml = "<page>";
  for (int s = 0; s < sections; ++s) {
    xml += "<sec id=\"s" + std::to_string(s) + "\">";
    int items = 1 + static_cast<int>(next() % 4);
    for (int i = 0; i < items; ++i) {
      int v = static_cast<int>(next() % 100);
      xml += "<item v=\"" + std::to_string(v) + "\">";
      if (next() % 3 == 0) {
        xml += "<item v=\"" + std::to_string(v + 100) + "\"><leaf/></item>";
      }
      xml += "<leaf/></item>";
    }
    if (next() % 2 == 0) xml += "<note>n" + std::to_string(s) + "</note>";
    xml += "</sec>";
  }
  xml += "</page>";
  return xml;
}

// ------------------------------------------- streamed vs materialized ---

// A query and its index-ineligible twin: the same selection through a
// wildcard step and a self:: filter.
struct OracleQuery {
  const char* query;
  const char* twin;
};

// The scoped and predicated //name forms the element-name index answers
// from an order-key range (Document::ElementsByNameIn), the positional
// forms that must keep the walk, and multi-origin and detached inputs,
// each against its index-ineligible wildcard twin. $s is a mid-tree
// section; each form also runs as a declared function's body, where
// the compiled plan's path.indexed and count.indexed ops evaluate it.
const OracleQuery kScopedQueries[] = {
    {"string-join(//sec[@id = \"s3\"]//item/@v, ' ')",
     "string-join(//*[self::sec][@id = \"s3\"]/descendant::*[self::item]/@v,"
     " ' ')"},
    {"let $s := (//sec)[3] return string-join($s//item/@v, ' ')",
     "let $s := (//*[self::sec])[3] "
     "return string-join($s/descendant::*[self::item]/@v, ' ')"},
    {"string-join(//item[@v > 50]/@v, ' ')",
     "string-join(//*[self::item][@v > 50]/@v, ' ')"},
    {"let $s := (//sec)[2] return string-join($s//item[leaf]/@v, ' ')",
     "let $s := (//*[self::sec])[2] "
     "return string-join($s//*[self::item][leaf]/@v, ' ')"},
    {"let $s := (//sec)[4] return string-join($s//item[1]/@v, ' ')",
     "let $s := (//*[self::sec])[4] "
     "return string-join($s//*[self::item][1]/@v, ' ')"},
    {"let $s := (//sec)[5] "
     "return string($s/descendant::item[last()]/@v)",
     "let $s := (//*[self::sec])[5] "
     "return string($s/descendant::*[self::item][last()]/@v)"},
    {"string-join(//item[position() = 2]/@v, ' ')",
     "string-join(//*[self::item][position() = 2]/@v, ' ')"},
    {"for $i in //item return count($i/descendant-or-self::item)",
     "for $i in //*[self::item] "
     "return count($i/descendant-or-self::*[self::item])"},
    {"for $i in //item return string-join($i/descendant-or-self::item/@v,"
     " ',')",
     "for $i in //*[self::item] "
     "return string-join($i/descendant-or-self::*[self::item]/@v, ',')"},
    {"string-join(//sec//item/@v, ' ')",
     "string-join(//*[self::sec]/descendant::*[self::item]/@v, ' ')"},
    {"string-join(//item//item/@v, ' ')",
     "string-join(//*[self::item]/descendant::*[self::item]/@v, ' ')"},
    {"let $s := (//sec)[6] return count($s//item)",
     "let $s := (//*[self::sec])[6] "
     "return count($s/descendant::*[self::item])"},
    {"for $s in //sec return count($s//item)",
     "for $s in //*[self::sec] return count($s/descendant::*[self::item])"},
    {"let $d := <x><item/><y><item/></y></x> return count($d//item)",
     "let $d := <x><item/><y><item/></y></x> "
     "return count($d/descendant::*[self::item])"},
    {"exists(//sec[@id = \"s2\"]//leaf)",
     "exists(//*[self::sec][@id = \"s2\"]/descendant::*[self::leaf])"},
};

// Checks every scoped form against its twin on `doc`, under every
// switch combination, as a main query and as a function body.
void ExpectScopedFormsAgree(xml::Document* doc, const std::string& where) {
  for (const OracleQuery& q : kScopedQueries) {
    std::string reference = EvalOn(q.twin, doc, Eager());
    EXPECT_EQ(reference.find("ERROR"), std::string::npos)
        << where << " twin: " << q.twin << " -> " << reference;
    // The unoptimized query is the reference for the fusion rule, which
    // the twin's wildcard step goes through too.
    EXPECT_EQ(EvalOn(q.query, doc, Eager(), nullptr, /*optimize=*/false),
              reference)
        << where << " unoptimized query: " << q.query;
    for (int mask = 0; mask < 4; ++mask) {
      Evaluator::EvalOptions o;
      o.stream_pipeline = (mask & 1) != 0;
      o.honor_sort_elision = (mask & 2) != 0;
      EXPECT_EQ(EvalOn(q.query, doc, o), reference)
          << where << " mask " << mask << " query: " << q.query;
      EXPECT_EQ(EvalOn(InFunction(q.query), doc, o), reference)
          << where << " mask " << mask << " function: " << q.query;
      Counters twin_stats;
      EXPECT_EQ(EvalOn(q.twin, doc, o, &twin_stats), reference)
          << where << " mask " << mask << " twin: " << q.twin;
      EXPECT_EQ(twin_stats.name_index_hits, 0u) << "twin: " << q.twin;
    }
  }
}

// The oracle: for every combination of the two reference switches
// (stream_pipeline x honor_sort_elision), every query must produce
// byte-identical results (document order, dedup, predicate semantics
// included). The all-off corner is the eager always-sort engine; the
// all-on corner is the full streaming pipeline. Each query that the
// element-name index can answer has an index-ineligible twin — the same
// selection through a wildcard step and a self:: filter — so the index
// is checked against the plain axis walk.
TEST(StreamingOracle, AllSwitchCombosAgreeOnRandomPages) {
  const OracleQuery queries[] = {
      {"//item", "/descendant::*[self::item]"},
      {"//item/@v", "/descendant::*[self::item]/@v"},
      {"//sec/item", "/descendant::*[self::sec]/item"},
      {"count(//item)", "count(//*[self::item])"},
      // dedup under an aggregate
      {"count(//item/..)", "count(//*[self::item]/..)"},
      {"string-join(//note, ',')", "string-join(//*[self::note], ',')"},
      {"exists(//leaf)", "exists(//*[self::leaf])"},
      {"empty(//missing)", "empty(//*[self::missing])"},
      {"string((//item)[1]/@v)", "string((//*[self::item])[1]/@v)"},
      {"string((//item)[last()]/@v)", "string((//*[self::item])[last()]/@v)"},
      {"string((//item)[3]/@v)", "string((//*[self::item])[3]/@v)"},
      {"string-join(//item[position() = 2]/@v, ' ')",
       "string-join(//*[self::item][position() = 2]/@v, ' ')"},
      {"string-join(//item[last()]/@v, ' ')",
       "string-join(//*[self::item][last()]/@v, ' ')"},
      {"string-join(//sec[note]/@id, ' ')",
       "string-join(//*[self::sec][note]/@id, ' ')"},
      {"string-join(//item[@v > 50]/@v, ' ')",
       "string-join(//*[self::item][@v > 50]/@v, ' ')"},
      {"sum(//item/@v)", "sum(//*[self::item]/@v)"},
      {"for $i in //sec/item where $i/@v > 30 return string($i/@v)",
       "for $i in //*[self::sec]/item where $i/@v > 30 return string($i/@v)"},
      {"for $s in //sec, $i in $s/item return concat($s/@id, ':', $i/@v)",
       "for $s in //*[self::sec], $i in $s/item "
       "return concat($s/@id, ':', $i/@v)"},
      {"count(//item/descendant-or-self::*/..)",
       "count(//*[self::item]/descendant-or-self::*/..)"},
      {"name((//item | //note)[2])",
       "name((//*[self::item] | //*[self::note])[2])"},
      {"some $i in //item satisfies $i/@v > 90",
       "some $i in //*[self::item] satisfies $i/@v > 90"},
      {"every $i in //item satisfies $i/@v >= 0",
       "every $i in //*[self::item] satisfies $i/@v >= 0"},
  };
  for (uint32_t seed : {1u, 7u, 42u}) {
    std::string page = RandomPage(seed, 8);
    for (const OracleQuery& q : queries) {
      std::string reference = EvalWith(q.twin, page, Eager());
      // An oracle that compares error strings checks nothing.
      EXPECT_EQ(reference.find("ERROR"), std::string::npos)
          << "twin: " << q.twin << " -> " << reference;
      auto page_doc = std::move(xml::ParseDocument(page)).value();
      EXPECT_EQ(EvalOn(q.query, page_doc.get(), Eager(), nullptr,
                       /*optimize=*/false),
                reference)
          << "seed " << seed << " unoptimized query: " << q.query;
      for (int mask = 0; mask < 4; ++mask) {
        Evaluator::EvalOptions o;
        o.stream_pipeline = (mask & 1) != 0;
        o.honor_sort_elision = (mask & 2) != 0;
        EXPECT_EQ(EvalWith(q.query, page, o), reference)
            << "seed " << seed << " mask " << mask << " query: " << q.query;
        Counters twin_stats;
        EXPECT_EQ(EvalWith(q.twin, page, o, &twin_stats), reference)
            << "seed " << seed << " mask " << mask << " twin: " << q.twin;
        EXPECT_EQ(twin_stats.name_index_hits, 0u) << "twin: " << q.twin;
      }
    }
    auto doc = std::move(xml::ParseDocument(page)).value();
    ExpectScopedFormsAgree(doc.get(), "seed " + std::to_string(seed));
  }
  // The index answers the scoped forms: a mid-tree origin, a fused
  // predicate, and count() over a variable's subtree, as main queries
  // and through the plan ops.
  auto doc = std::move(xml::ParseDocument(RandomPage(7, 8))).value();
  for (const char* q :
       {"//sec[@id = \"s3\"]//item", "//item[@v > 50]",
        "let $s := (//sec)[3] return count($s//item)"}) {
    for (const std::string& form : {std::string(q), InFunction(q)}) {
      Counters stats;
      EXPECT_EQ(EvalOn(form, doc.get(), Evaluator::EvalOptions(), &stats)
                    .find("ERROR"),
                std::string::npos);
      EXPECT_GT(stats.name_index_hits, 0u) << form;
    }
  }
  // Multi-origin inputs, positional //N[1] and detached origins keep
  // the walk (//sec's own step is the one hit allowed).
  for (const char* q :
       {"//sec//item", "//item[1]",
        "let $d := <x><item/><y><item/></y></x> return count($d//item)"}) {
    Counters stats;
    EvalOn(q, doc.get(), Evaluator::EvalOptions(), &stats);
    EXPECT_LE(stats.name_index_hits, 1u) << q;
  }
}

// Seeded interleaving of inserts, deletes, renames and replaces with
// the scoped forms: after every apply the order keys and the spliced
// name-index buckets must hold (Document::CheckInvariants), and every
// form must still agree with its twin.
TEST(StreamingOracle, ScopedFormsAgreeAcrossUpdates) {
  auto doc = std::move(xml::ParseDocument(RandomPage(3, 8))).value();
  doc->set_delta_tracking(true);  // buckets splice instead of rebuilding
  uint32_t state = 12345;
  auto next = [&state](uint32_t n) {
    state = state * 1664525u + 1013904223u;
    return (state >> 16) % n;
  };
  const Evaluator::EvalOptions on;
  for (int round = 0; round < 24; ++round) {
    const int items = std::stoi(EvalOn("count(//item)", doc.get(), on));
    const int secs = std::stoi(EvalOn("count(//sec)", doc.get(), on));
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
    ASSERT_EQ(EvalOn(update, doc.get(), on).find("ERROR"), std::string::npos)
        << update;
    Status invariants = doc->CheckInvariants();
    ASSERT_TRUE(invariants.ok())
        << "after " << update << ": " << invariants.ToString();
    ExpectScopedFormsAgree(doc.get(), "round " + std::to_string(round) +
                                          " after " + update);
  }
  EXPECT_GT(doc->index_splices(), 0u);
}

// --------------------------------------- focus in streamed predicates ---

TEST(StreamingFocus, PositionStreamsIncrementally) {
  std::string page = RandomPage(3, 5);
  Evaluator::EvalOptions on;  // defaults: everything on
  EXPECT_EQ(EvalWith("string-join(//sec[position() mod 2 = 1]/@id, ' ')",
                     page, on),
            EvalWith("string-join(//sec[position() mod 2 = 1]/@id, ' ')",
                     page, Eager()));
  // position() against a filtered primary re-numbers after each
  // predicate, exactly like the eager engine.
  EXPECT_EQ(EvalWith("(//item[@v >= 0])[position() = 2]/@v/string()", page,
                     on),
            EvalWith("(//item[@v >= 0])[position() = 2]/@v/string()", page,
                     Eager()));
}

TEST(StreamingFocus, LastForcesMaterializationButAgrees) {
  std::string page = RandomPage(9, 6);
  Evaluator::EvalOptions on;
  const char* queries[] = {
      "(//item)[last()]/@v/string()",
      "(//item)[last() - 1]/@v/string()",
      "//sec[last()]/@id/string()",
      "string-join(//item[position() = last()]/@v, ' ')",
  };
  for (const char* q : queries) {
    EXPECT_EQ(EvalWith(q, page, on), EvalWith(q, page, Eager()))
        << "query: " << q;
  }
}

// A user function in a predicate inherits the focus (XQIB dialect), so
// the streaming filter must fall back to materialization for it.
TEST(StreamingFocus, UserFunctionPredicateSeesTrueLast) {
  std::string page = "<page><i/><i/><i/><i/></page>";
  const std::string q =
      "declare function local:sel() { last() - 1 }; "
      "count(//i[position() = local:sel()])";
  Evaluator::EvalOptions on;
  EXPECT_EQ(EvalWith(q, page, on), "1");
  EXPECT_EQ(EvalWith(q, page, on), EvalWith(q, page, Eager()));
}

// ------------------------------------------------------------ laziness ---

TEST(StreamingLazy, HeadOfHugeFlworPullsO1) {
  Counters stats;
  EXPECT_EQ(EvalWith("head(for $i in 1 to 1000000 return $i * 2)", "",
                     Evaluator::EvalOptions(), &stats),
            "2");
  // The range never expands: a handful of pulls, no million-item buffer.
  EXPECT_LT(stats.items_pulled, 100u);
  EXPECT_LT(stats.items_materialized, 100u);
  EXPECT_GT(stats.early_exits, 0u);
}

TEST(StreamingLazy, PositionalFilterOverHugeFlworStopsPulling) {
  Counters stats;
  EXPECT_EQ(
      EvalWith("(for $i in 1 to 1000000 where $i mod 7 = 0 return $i)[3]",
               "", Evaluator::EvalOptions(), &stats),
      "21");
  EXPECT_LT(stats.items_pulled, 100u);
}

TEST(StreamingLazy, WhereShortCircuitStopsClauseStreams) {
  // `where` rejects tuples before the return stream is built, and the
  // existence consumer stops at the first accepted tuple — the deeper
  // clause stream is pulled a bounded number of times.
  Counters stats;
  EXPECT_EQ(EvalWith("exists(for $i in 1 to 1000000 "
                     "where $i >= 5 return $i)",
                     "", Evaluator::EvalOptions(), &stats),
            "true");
  EXPECT_LT(stats.items_pulled, 100u);
}

TEST(StreamingLazy, QuantifiersStopAtWitness) {
  Counters stats;
  EXPECT_EQ(EvalWith("some $x in 1 to 1000000 satisfies $x = 42", "",
                     Evaluator::EvalOptions(), &stats),
            "true");
  EXPECT_LT(stats.items_pulled, 200u);
  EXPECT_EQ(EvalWith("every $x in 1 to 1000000 satisfies $x < 10", "",
                     Evaluator::EvalOptions(), &stats),
            "false");
  EXPECT_LT(stats.items_pulled, 200u);
}

TEST(StreamingLazy, EagerBaselineMaterializesMore) {
  // The ablation axis the benchmark measures: same query, stream
  // pipeline on vs off, compared by peak intermediate materialization.
  const std::string q =
      "count(for $s in //sec, $i in $s/item return $i/leaf)";
  std::string page = RandomPage(11, 12);
  Counters on_stats, off_stats;
  std::string want = EvalWith(q, page, Eager(), &off_stats);
  EXPECT_EQ(EvalWith(q, page, Evaluator::EvalOptions(), &on_stats), want);
  EXPECT_LT(on_stats.items_materialized,
            off_stats.items_materialized);
}

// -------------------------------------------------- count() fast path ---

TEST(CountFastPath, AnswersFromNameIndex) {
  std::string page = RandomPage(5, 10);
  Counters stats;
  std::string want = EvalWith("count(//item)", page, Eager());
  EXPECT_EQ(EvalWith("count(//item)", page, Evaluator::EvalOptions(),
                     &stats),
            want);
  EXPECT_GT(stats.count_index_hits, 0u);
  // The index-ineligible twin walks the axis: no hit, same answer.
  EXPECT_EQ(EvalWith("count(//*[self::item])", page,
                     Evaluator::EvalOptions(), &stats),
            want);
  EXPECT_EQ(stats.count_index_hits, 0u);
}

TEST(CountFastPath, InvalidatedByMutation) {
  // Regression: the count must be recomputed after the document mutates
  // between two statements of one block — a stale index bucket would
  // report the pre-insert count.
  const std::string q =
      "{ declare variable $before := count(//item); "
      "insert node <item v=\"999\"/> into /page/sec[1]; "
      "($before, count(//item)) }";
  std::string page = "<page><sec><item v=\"1\"/><item v=\"2\"/></sec>"
                     "<sec><item v=\"3\"/></sec></page>";
  Counters stats;
  EXPECT_EQ(EvalWith(q, page, Evaluator::EvalOptions(), &stats), "3 4");
  EXPECT_GT(stats.count_index_hits, 0u);
  // Deletion invalidates too.
  const std::string q2 =
      "{ declare variable $before := count(//item); "
      "delete node (//item)[1]; "
      "($before, count(//item)) }";
  EXPECT_EQ(EvalWith(q2, page, Evaluator::EvalOptions()), "3 2");
}

}  // namespace
}  // namespace xqib::xquery
