// Exact-count guards for tree building (PERFORMANCE.md §4, "Tree
// building"). The parser and ImportCopy build a subtree on the document's
// builder path and attach it with one AppendChild, so the counts below do
// not grow with the tree: one mutation for a whole parse, none for a
// copy, and a handful of intern lookups per distinct name. A constructed
// tree that only an update or the content around it consumes is built
// once, in the document it lands in: the nodes_copied counter pins that.
// They are counts, not timings, so they hold on any host.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "app/elsevier.h"
#include "app/environment.h"
#include "plugin/plugin.h"
#include "xml/dom.h"
#include "xml/interning.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/engine.h"

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

TEST(TreeBuildCounts, ConstructorsBuildOnTheBuilderPath) {
  // Direct and computed constructors, enclosed content, attribute
  // content and copied nodes: the whole result is linked on the builder
  // path, so the construction document records no mutation at all.
  xquery::Engine engine;
  auto query = engine.Compile(
      "let $s := <s k=\"v\">x</s> return "
      "<a x=\"1\">{attribute y {2}, \"t\", 3, $s, $s/@k}"
      "<b z=\"{1 + 1}\">{1, 2}</b>{element c {text {\"u\"}, "
      "attribute w {4}}}</a>");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  xquery::DynamicContext ctx;
  Document* doc = ctx.scratch_document();
  const uint64_t version = doc->mutation_version();
  int hooks = 0;
  doc->AddMutationHook([&](Node*) { ++hooks; });
  auto result = (*query)->Run(ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(doc->mutation_version(), version);
  EXPECT_EQ(hooks, 0);
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(Serialize(result->at(0).node()),
            "<a x=\"1\" y=\"2\" k=\"v\">t 3<s k=\"v\">x</s><b z=\"2\">1 2</b>"
            "<c w=\"4\">u</c></a>");
}

// Nodes of `n`'s subtree: itself, its attributes and its descendants.
size_t SubtreeNodes(const Node* n) {
  size_t count = 1 + n->attributes().size();
  for (const Node* c : n->children()) count += SubtreeNodes(c);
  return count;
}

constexpr const char* kList =
    "<ul>{for $i in 1 to 50 return <li n=\"{$i}\">{$i}</li>}</ul>";
constexpr size_t kListNodes = 1 + 50 * 3;  // <ul>, then <li>, @n, text

// One update through Engine on a delta-tracked page, built in place
// when `optimize`, else on the copy path (the reference).
struct UpdateRun {
  std::string page;  // the target document, serialized after the update
  uint64_t copied = 0;
  size_t grown = 0;  // nodes the target document gained
  size_t owned = 0;  // nodes left in the context's own documents
};

UpdateRun RunUpdate(const std::string& update, bool optimize) {
  UpdateRun run;
  auto parsed = ParseDocument("<r><x id=\"1\"/><x id=\"2\"/></r>");
  EXPECT_TRUE(parsed.ok());
  Document* doc = parsed->get();
  doc->set_delta_tracking(true);
  doc->ElementsByName(QName("x"));  // an index for the apply to splice
  xquery::Engine engine;
  xquery::CompileOptions options;
  options.optimize = optimize;
  auto query = engine.Compile(update, options);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  if (!query.ok()) return run;
  xquery::DynamicContext ctx;
  xquery::DynamicContext::Focus focus;
  focus.item = xdm::Item::Node(doc->root());
  focus.position = focus.size = 1;
  focus.has_item = true;
  ctx.set_focus(focus);
  const size_t before = doc->node_count();
  auto result = (*query)->Run(ctx);
  EXPECT_TRUE(result.ok()) << update << ": " << result.status().ToString();
  run.copied = (*query)->evaluator().counters().nodes_copied;
  run.grown = doc->node_count() - before;
  run.owned = ctx.owned_nodes();
  run.page = Serialize(doc->root());
  Status st = doc->CheckInvariants();
  EXPECT_TRUE(st.ok()) << update << ": " << st.ToString();
  return run;
}

TEST(BuiltInPlace, UpdatesCopyNothingAndBuildInTheTarget) {
  const std::string list = kList;
  const std::string computed =
      "element ul {for $i in 1 to 50 return "
      "element li {attribute n {$i}, text {$i}}}";
  struct Case {
    std::string update;
    size_t attached;
  } cases[] = {
      {"insert node " + list + " into /r", kListNodes},
      {"insert node " + list + " as first into /r", kListNodes},
      {"insert node " + list + " as last into /r", kListNodes},
      {"insert node " + list + " before /r/x[1]", kListNodes},
      {"insert node " + list + " after /r/x[1]", kListNodes},
      {"insert node " + computed + " into /r", kListNodes},
      {"insert node (" + list + ", <p/>, \"t\") into /r", kListNodes + 2},
      {"replace node /r/x[2] with " + list, kListNodes},
      {"insert node attribute a {\"v\"} into /r/x[1]", 1},
      {"insert node (attribute a {1}, attribute b {2}) after /r/x[1]", 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.update);
    const UpdateRun in_place = RunUpdate(c.update, /*optimize=*/true);
    const UpdateRun copied = RunUpdate(c.update, /*optimize=*/false);
    EXPECT_EQ(in_place.page, copied.page);
    EXPECT_EQ(in_place.copied, 0u);
    EXPECT_EQ(in_place.owned, 0u);
    EXPECT_EQ(in_place.grown, c.attached);
    // The copy path lands the same nodes, and builds them twice.
    EXPECT_EQ(copied.grown, c.attached);
    EXPECT_GT(copied.copied, 0u);
  }
}

TEST(BuiltInPlace, CopyModifyTakesItsSourceAsTheCopy) {
  // The copy lives in the construction document, as on the copy path;
  // only one tree is built there, not the source and its copy.
  const std::string update =
      std::string("copy $c := ") + kList +
      " modify insert node <li n=\"0\"/> as first into $c return $c";
  for (bool optimize : {true, false}) {
    SCOPED_TRACE(optimize ? "in place" : "copy path");
    xquery::Engine engine;
    xquery::CompileOptions options;
    options.optimize = optimize;
    auto query = engine.Compile(update, options);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    xquery::DynamicContext ctx;
    auto result = (*query)->Run(ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), 1u);
    const Node* copy = result->at(0).node();
    EXPECT_EQ(SubtreeNodes(copy), kListNodes + 2);
    EXPECT_EQ(Serialize(copy).substr(0, 31),
              "<ul><li n=\"0\"/><li n=\"1\">1</li>");
    const uint64_t copied = (*query)->evaluator().counters().nodes_copied;
    if (optimize) {
      EXPECT_EQ(copied, 0u);
      // The tree, and the construction document's own node.
      EXPECT_EQ(ctx.owned_nodes(), kListNodes + 2 + 1);
    } else {
      // Each <li> into the <ul>, the <ul> into the copy, and the
      // inserted <li n="0"> into the copy.
      EXPECT_EQ(copied, (kListNodes - 1) + kListNodes + 2);
      EXPECT_GT(ctx.owned_nodes(), 2 * kListNodes);
    }
  }
}

// The Figure 2 client page: the load copies one corpus, the parsed
// response's element into the cache <div>, and builds the cache <div>
// and the table of contents straight in the page; a click copies
// nothing.
TEST(BuiltInPlace, BrowseLoadCopiesOneCorpusAndClicksNone) {
  app::BrowserEnvironment env;
  app::elsevier::CorpusOptions corpus;
  corpus.journals = 2;
  corpus.volumes = 2;
  corpus.issues = 4;
  corpus.articles_per_issue = 6;
  ASSERT_TRUE(app::elsevier::BuildCorpus(&env.store(), corpus).ok());
  ASSERT_TRUE(
      app::elsevier::DeployServer(&env.store(), &env.fabric()).ok());
  Status st = env.Navigate("http://elsevier.example.com/client.xhtml");
  ASSERT_TRUE(st.ok()) << st.ToString();
  const Node* cache = env.ById("cache");
  ASSERT_NE(cache, nullptr);
  ASSERT_EQ(cache->children().size(), 1u);
  const size_t one_corpus = SubtreeNodes(cache->children()[0]);
  EXPECT_GT(one_corpus, 3000u);
  EXPECT_EQ(env.plugin().counters().nodes_copied, one_corpus);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(env.ClickId("link-a-" + std::to_string(i * 7 % 96)).ok());
    EXPECT_EQ(env.plugin().last_event_stats().nodes_copied, 0u) << i;
  }
  EXPECT_EQ(env.plugin().counters().nodes_copied, one_corpus);
  st = env.window()->document()->CheckInvariants();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace xqib::xml
