// Streaming-pipeline tests (pull-based ItemStream evaluation):
// position()/last() semantics in streamed predicates, laziness proofs
// (bounded consumers stop pulling from huge domains, a deep FLWOR
// buffers only its first clause's index slice), and the fn:count name-index
// fast path including its invalidation under document mutation. The
// engine's results against an independent reference, on generated
// queries and pages, are differential_test's.

#include <gtest/gtest.h>

#include <string>

#include "xml/xml_parser.h"
#include "xpath_reference.h"
#include "xquery/engine.h"

namespace xqib::xquery {
namespace {

using xpath_ref::RandomPage;

// Runs `query` with the root of `xml` as the focus (no focus when
// empty), applying any updates it makes.
std::string EvalWith(const std::string& query, const std::string& xml,
                     const Evaluator::EvalOptions& options,
                     Counters* stats = nullptr) {
  std::unique_ptr<xml::Document> doc;
  if (!xml.empty()) {
    auto parsed = xml::ParseDocument(xml);
    if (!parsed.ok()) return "XML-ERROR: " + parsed.status().ToString();
    doc = std::move(parsed).value();
  }
  Engine engine;
  auto compiled = engine.Compile(query);
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

// --------------------------------------- focus in streamed predicates ---

// RandomPage(3, 5) has sections s0-s4; its items' @v in document order
// are 21 79 179 16 116 ...
TEST(StreamingFocus, PositionStreamsIncrementally) {
  std::string page = RandomPage(3, 5);
  Evaluator::EvalOptions on;  // defaults: everything on
  EXPECT_EQ(EvalWith("string-join(//sec[position() mod 2 = 1]/@id, ' ')",
                     page, on),
            "s0 s2 s4");
  // position() against a filtered primary re-numbers after each
  // predicate.
  EXPECT_EQ(EvalWith("(//item[@v >= 0])[position() = 2]/@v/string()", page,
                     on),
            "79");
}

// RandomPage(9, 6): the items' @v in document order end 10 110 83, and
// the last item of each parent is listed below.
TEST(StreamingFocus, LastSeesTheWholeSequence) {
  std::string page = RandomPage(9, 6);
  Evaluator::EvalOptions on;
  const char* const cases[][2] = {
      {"(//item)[last()]/@v/string()", "83"},
      {"(//item)[last() - 1]/@v/string()", "110"},
      {"//sec[last()]/@id/string()", "s5"},
      {"string-join(//item[position() = last()]/@v, ' ')",
       "58 71 171 191 38 138 126 42 10 110 83"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(EvalWith(c[0], page, on), c[1]) << "query: " << c[0];
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

// A three-clause FLWOR under count() over 30 sections x 20 items x 5
// leaves: the tuples stream, so the only buffer is //sec's index slice
// (30 items). Every item and leaf is pulled once through its clause's
// step stream and every leaf once more through the return
// (600 + 3000 + 3000 = 6600 pulls); each clause stream opened and the
// count fold keep an edge lazy (1 + 30 + 600 + 1 = 632). An engine that
// materialized every operator edge buffered 3660 items here.
TEST(StreamingLazy, DeepFlworMaterializesOnlyTheIndexSlice) {
  std::string page = "<page>";
  for (int s = 0; s < 30; ++s) {
    page += "<sec id=\"s" + std::to_string(s) + "\">";
    for (int i = 0; i < 20; ++i) {
      page += "<item v=\"" + std::to_string(i % 97) + "\">";
      for (int l = 0; l < 5; ++l) page += "<leaf/>";
      page += "</item>";
    }
    page += "</sec>";
  }
  page += "</page>";
  Counters stats;
  EXPECT_EQ(EvalWith("count(for $s in //sec, $i in $s/item, $l in $i/leaf "
                     "return $l)",
                     page, Evaluator::EvalOptions(), &stats),
            "3000");
  EXPECT_EQ(stats.items_materialized, 30u);
  EXPECT_EQ(stats.items_pulled, 6600u);
  EXPECT_EQ(stats.buffers_avoided, 632u);
}

// -------------------------------------------------- count() fast path ---

TEST(CountFastPath, AnswersFromNameIndex) {
  std::string page = RandomPage(5, 10);
  // The page's item start tags, counted in its text.
  int items = 0;
  for (size_t at = page.find("<item "); at != std::string::npos;
       at = page.find("<item ", at + 1)) {
    ++items;
  }
  EXPECT_EQ(items, 25);
  const std::string want = std::to_string(items);
  Counters stats;
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
