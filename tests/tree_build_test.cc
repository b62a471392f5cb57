// Exact-count guards for tree building (PERFORMANCE.md §4, "Tree
// building"). The parser and ImportCopy build a subtree on the document's
// builder path and attach it with one AppendChild, so the counts below do
// not grow with the tree: one mutation for a whole parse, none for a
// copy, and a handful of intern lookups per distinct name. They are
// counts, not timings, so they hold on any host.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "xml/dom.h"
#include "xml/interning.h"
#include "xml/xml_parser.h"

namespace xqib::xml {
namespace {

// A fixed corpus in the shape of the Figure 2 browse page's: journals,
// volumes, issues and articles with titles and 4-24 references each.
// 13 distinct names, all unprefixed.
std::string Corpus() {
  uint32_t state = 7;
  auto next = [&state](uint32_t n) {
    state = state * 1664525u + 1013904223u;  // numerical-recipes LCG
    return ((state >> 16) & 0x7fff) % n;
  };
  std::string xml = "<corpus>";
  int id = 0;
  for (int j = 0; j < 2; ++j) {
    xml += "<journal name=\"Journal " + std::to_string(j) + "\">";
    for (int v = 1; v <= 2; ++v) {
      xml += "<volume number=\"" + std::to_string(v) + "\">";
      for (int i = 1; i <= 4; ++i) {
        xml += "<issue number=\"" + std::to_string(i) + "\">";
        for (int a = 0; a < 6; ++a, ++id) {
          xml += "<article id=\"a-" + std::to_string(id) + "\"><title>On " +
                 std::to_string(next(1000)) + " &amp; more</title>" +
                 "<references>";
          for (int r = 4 + id % 21; r > 0; --r) {
            xml += "<ref year=\"" + std::to_string(1980 + next(28)) +
                   "\" cites=\"a-" + std::to_string(next(96)) + "\"/>";
          }
          xml += "</references></article>";
        }
        xml += "</issue>";
      }
      xml += "</volume>";
    }
    xml += "</journal>";
  }
  return xml + "</corpus>";
}

// Distinct (expanded name, prefix) pairs of the elements and attributes.
size_t DistinctNames(const Node* n) {
  std::set<std::pair<const InternedName*, std::string>> names;
  std::function<void(const Node*)> visit = [&](const Node* x) {
    if (x->is_element() || x->is_attribute()) {
      names.emplace(x->name().token(), x->name().prefix());
    }
    for (const Node* a : x->attributes()) visit(a);
    for (const Node* c : x->children()) visit(c);
  };
  visit(n);
  return names.size();
}

uint64_t InternLookups() {
  const InternPoolStats stats = GetInternStats();
  return stats.hits + stats.misses;
}

std::unique_ptr<Document> ParseCorpus() {
  auto parsed = ParseDocument(Corpus());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

TEST(TreeBuildCounts, ParseAttachesOnce) {
  auto doc = ParseCorpus();
  ASSERT_GT(doc->node_count(), 4000u);
  // A fresh document starts at version 1; the document element's one
  // AppendChild is the parse's only mutation.
  EXPECT_EQ(doc->mutation_version(), 2u);
  Status st = doc->CheckInvariants();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(TreeBuildCounts, ParseInternsEachDistinctNameOnce) {
  ParseDocument("<warm a=\"1\"/>");  // the parser's one-time statics
  const uint64_t hits_before = GetInternStats().hits;
  const uint64_t before = InternLookups();
  auto doc = ParseCorpus();
  const uint64_t lookups = InternLookups() - before;
  const size_t names = DistinctNames(doc->root());
  EXPECT_EQ(names, 13u);
  // A QName costs at most four lookups (namespace, local name, the pair,
  // prefix), once per distinct name and namespace binding per parse.
  EXPECT_LE(lookups, 4 * names);
  EXPECT_LE(GetInternStats().hits - hits_before, 4 * names);
}

TEST(TreeBuildCounts, ImportCopyNotifiesNothingUntilAttached) {
  auto src = ParseCorpus();
  auto target = ParseDocument("<page><div id=\"cache\"/></page>");
  ASSERT_TRUE(target.ok());
  Document* doc = target->get();
  doc->set_delta_tracking(true);
  int hooks = 0;
  doc->AddMutationHook([&](Node*) { ++hooks; });
  const uint64_t version = doc->mutation_version();
  const uint64_t lookups = InternLookups();
  Node* copy = doc->ImportCopy(src->DocumentElement());
  EXPECT_EQ(doc->mutation_version(), version);
  EXPECT_EQ(hooks, 0);
  EXPECT_EQ(InternLookups(), lookups);
  doc->GetElementById("cache")->AppendChild(copy);
  EXPECT_EQ(doc->mutation_version(), version + 1);
  EXPECT_EQ(hooks, 1);
  EXPECT_EQ(doc->GetElementById("a-95")->name().local(), "article");
  Status st = doc->CheckInvariants();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(TreeBuildCounts, FragmentParseNotifiesOncePerTopLevelNode) {
  Document doc;
  Node* host = doc.CreateElement(QName("host"));
  doc.root()->AppendChild(host);
  int hooks = 0;
  doc.AddMutationHook([&](Node*) { ++hooks; });
  const uint64_t version = doc.mutation_version();
  Status st = ParseFragmentInto(Corpus(), host, ParseOptions());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(hooks, 1);
  EXPECT_EQ(doc.mutation_version(), version + 1);
  st = ParseFragmentInto("lead<a/>tail", host, ParseOptions());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(hooks, 4);
}

}  // namespace
}  // namespace xqib::xml
