// Tests for delta propagation (PERFORMANCE.md §8): the structured
// DomDelta emitted by PUL application, name-index bucket splicing in
// place of full rebuilds, gap-based order keys that survive inserts
// without wholesale recomputation, and the plug-in dispatch layer's
// listener skip.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "plugin/plugin.h"
#include "xml/interning.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/engine.h"
#include "xquery/update.h"

namespace xqib {
namespace {

using browser::Browser;
using browser::Event;
using browser::Window;

const xml::InternedName* Tok(const char* local) {
  return xml::InternName("", local);
}

// Compiles and runs `query` against `doc` WITHOUT the engine's own
// update application, then applies the PUL through the delta-capturing
// overload so the test can inspect the structured write set.
Status RunUpdateCapturing(const std::string& query, xml::Document* doc,
                          xml::DomDelta* delta) {
  xquery::Engine engine;
  auto q = engine.Compile(query);
  if (!q.ok()) return q.status();
  xquery::DynamicContext ctx;
  xquery::DynamicContext::Focus f;
  f.item = xdm::Item::Node(doc->root());
  f.position = 1;
  f.size = 1;
  f.has_item = true;
  ctx.set_focus(f);
  XQ_RETURN_NOT_OK((*q)->BindGlobals(ctx));
  auto r = (*q)->Run(ctx, /*apply_updates=*/false);
  if (!r.ok()) return r.status();
  return ctx.pul().ApplyAll(delta);
}

// Order keys strictly increase in preorder and every spliced bucket
// equals a fresh walk: what the index's order-key slices rely on.
void ExpectInvariants(const xml::Document* doc) {
  Status st = doc->CheckInvariants();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// The splice reference: every ElementsByName bucket must equal a fresh
// document-order walk of the attached tree. `gone` lists names the walk
// no longer finds whose buckets must therefore be empty (the index may
// not keep a bucket for a name the tree lost).
void ExpectIndexMatchesWalk(xml::Document* doc,
                            const std::vector<const char*>& gone = {}) {
  ExpectInvariants(doc);
  std::map<const xml::InternedName*, std::vector<xml::Node*>> walk;
  std::map<const xml::InternedName*, xml::QName> names;
  std::function<void(xml::Node*)> visit = [&](xml::Node* n) {
    for (xml::Node* c : n->children()) {
      if (!c->is_element()) continue;
      walk[c->name().token()].push_back(c);
      names.emplace(c->name().token(), c->name());
      visit(c);
    }
  };
  visit(doc->root());
  for (const auto& [token, nodes] : walk) {
    EXPECT_EQ(doc->ElementsByName(names.at(token)), nodes)
        << "bucket <" << *token->local << "> differs from the tree walk";
  }
  for (const char* local : gone) {
    if (walk.count(Tok(local)) != 0) continue;
    EXPECT_TRUE(doc->ElementsByName(xml::QName(local)).empty())
        << "bucket <" << local << "> outlived its last element";
  }
}

// ------------------------------------------- PUL delta edge cases ---

TEST(PulDelta, ReplaceValueOfAttribute) {
  auto doc = std::move(xml::ParseDocument("<a><b v=\"1\"/></a>")).value();
  xml::DomDelta delta;
  Status st = RunUpdateCapturing("replace value of node /a/b/@v with \"9\"",
                                 doc.get(), &delta);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectInvariants(doc.get());
  EXPECT_EQ(xml::Serialize(doc->root()), "<a><b v=\"9\"/></a>");

  // Exactly the attribute name plus the ancestor element chain; a value
  // edit changes no bucket membership.
  EXPECT_FALSE(delta.whole_tree);
  EXPECT_EQ(delta.mutations, 1u);
  EXPECT_TRUE(delta.element_ops.empty());
  const std::unordered_set<const xml::InternedName*> want{Tok("v"), Tok("b"),
                                                          Tok("a")};
  EXPECT_EQ(delta.touched, want);
}

TEST(PulDelta, InsertBeforeAndAfterSiblingOrdering) {
  auto doc = std::move(
                 xml::ParseDocument("<a><b i=\"1\"/><b i=\"3\"/></a>"))
                 .value();
  xml::DomDelta delta;
  Status st = RunUpdateCapturing(
      "insert node <b i=\"0\"/> before /a/b[1],"
      "insert node <b i=\"2\"/> after /a/b[1]",
      doc.get(), &delta);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectInvariants(doc.get());
  EXPECT_EQ(xml::Serialize(doc->root()),
            "<a><b i=\"0\"/><b i=\"1\"/><b i=\"2\"/><b i=\"3\"/></a>");

  EXPECT_FALSE(delta.whole_tree);
  EXPECT_EQ(delta.mutations, 2u);
  // Both inserted <b> elements appear as membership insertions under
  // their name; the pre-existing siblings do not.
  ASSERT_EQ(delta.element_ops.count(Tok("b")), 1u);
  const auto& b_ops = delta.element_ops.at(Tok("b"));
  EXPECT_EQ(b_ops.size(), 2u);
  for (const auto& [node, inserted] : b_ops) {
    EXPECT_TRUE(inserted);
    EXPECT_EQ(node->name().token(), Tok("b"));
  }
  // The inserted subtrees' names (attributes included) plus the site
  // chain, and nothing else.
  const std::unordered_set<const xml::InternedName*> want{Tok("b"), Tok("a"),
                                                          Tok("i")};
  EXPECT_EQ(delta.touched, want);
}

TEST(PulDelta, DeleteOfAncestorOfPendingInsertTarget) {
  // XQUF applies inserts before deletes: <d/> lands inside /a/b/c, then
  // the delete detaches the whole <b> subtree including it. Last op
  // wins, so every element resolves to "removed".
  auto doc = std::move(xml::ParseDocument("<a><b><c/></b></a>")).value();
  xml::Node* b = doc->DocumentElement()->children()[0];
  xml::Node* c = b->children()[0];
  xml::DomDelta delta;
  Status st = RunUpdateCapturing(
      "insert node <d/> into /a/b/c, delete node /a/b", doc.get(), &delta);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectInvariants(doc.get());
  EXPECT_EQ(xml::Serialize(doc->root()), "<a/>");

  EXPECT_FALSE(delta.whole_tree);
  EXPECT_EQ(delta.mutations, 2u);  // one insert, one delete
  ASSERT_EQ(delta.element_ops.count(Tok("b")), 1u);
  ASSERT_EQ(delta.element_ops.count(Tok("c")), 1u);
  ASSERT_EQ(delta.element_ops.count(Tok("d")), 1u);
  EXPECT_FALSE(delta.element_ops.at(Tok("b")).at(b));
  EXPECT_FALSE(delta.element_ops.at(Tok("c")).at(c));
  const auto& d_ops = delta.element_ops.at(Tok("d"));
  ASSERT_EQ(d_ops.size(), 1u);
  EXPECT_FALSE(d_ops.begin()->second);  // inserted, then swept out
  // The insert touched d/c/b/a, the delete b/c/d (the detached
  // subtree) and a (the site chain).
  const std::unordered_set<const xml::InternedName*> want{
      Tok("a"), Tok("b"), Tok("c"), Tok("d")};
  EXPECT_EQ(delta.touched, want);
}

// ------------------------------------------------ index splicing ---

TEST(IndexSplice, InsertSplicesInsteadOfRebuilding) {
  auto doc = std::move(
                 xml::ParseDocument("<a><b i=\"1\"/><x/><b i=\"2\"/></a>"))
                 .value();
  doc->set_delta_tracking(true);
  doc->root()->OrderKey();  // compute order once; inserts gap-assign after
  const uint64_t rebuilds = doc->order_rebuilds();

  const auto& bucket0 = doc->ElementsByName(xml::QName("b"));
  ASSERT_EQ(bucket0.size(), 2u);
  EXPECT_EQ(doc->name_index_builds(), 1u);

  // DOM-level insert between the two <b>s (inside <x/> stays disjoint).
  xml::Node* a = doc->DocumentElement();
  xml::Node* nb = doc->CreateElement(xml::QName("b"));
  nb->SetAttribute(xml::QName("i"), "1.5");
  a->InsertBefore(nb, a->children()[2]);

  const auto& bucket1 = doc->ElementsByName(xml::QName("b"));
  ASSERT_EQ(bucket1.size(), 3u);
  ExpectIndexMatchesWalk(doc.get());
  EXPECT_EQ(doc->name_index_builds(), 1u);  // spliced, not rebuilt
  EXPECT_GE(doc->bucket_rebuilds_avoided(), 1u);
  EXPECT_GE(doc->index_splices(), 1u);
  EXPECT_EQ(bucket1[0]->GetAttributeValue("i"), "1");
  EXPECT_EQ(bucket1[1]->GetAttributeValue("i"), "1.5");  // document order
  EXPECT_EQ(bucket1[2]->GetAttributeValue("i"), "2");

  // The insert was absorbed by gap keys: no wholesale order recompute.
  EXPECT_EQ(doc->order_rebuilds(), rebuilds);
}

TEST(IndexSplice, RemovalAndUntouchedBucketsSpliceToo) {
  auto doc = std::move(xml::ParseDocument(
                           "<a><b i=\"1\"/><c/><b i=\"2\"/><c/></a>"))
                 .value();
  doc->set_delta_tracking(true);
  doc->root()->OrderKey();
  ASSERT_EQ(doc->ElementsByName(xml::QName("b")).size(), 2u);
  ASSERT_EQ(doc->ElementsByName(xml::QName("c")).size(), 2u);
  EXPECT_EQ(doc->name_index_builds(), 1u);

  xml::Node* a = doc->DocumentElement();
  a->RemoveChild(a->children()[0]);  // drop <b i="1"/>

  const auto& b = doc->ElementsByName(xml::QName("b"));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0]->GetAttributeValue("i"), "2");
  // The <c> bucket was untouched by the delta and survived verbatim.
  EXPECT_EQ(doc->ElementsByName(xml::QName("c")).size(), 2u);
  ExpectIndexMatchesWalk(doc.get());

  // Removing the last <b> must leave no bucket behind.
  a->RemoveChild(b[0]);
  ExpectIndexMatchesWalk(doc.get(), {"b"});
  EXPECT_EQ(doc->name_index_builds(), 1u);
}

TEST(IndexSplice, RenameMovesNodeBetweenBuckets) {
  auto doc = std::move(xml::ParseDocument("<a><b/><b/></a>")).value();
  doc->set_delta_tracking(true);
  doc->root()->OrderKey();
  ASSERT_EQ(doc->ElementsByName(xml::QName("b")).size(), 2u);

  xml::Node* a = doc->DocumentElement();
  a->children()[0]->Rename(xml::QName("z"));

  EXPECT_EQ(doc->ElementsByName(xml::QName("b")).size(), 1u);
  EXPECT_EQ(doc->ElementsByName(xml::QName("z")).size(), 1u);
  ExpectIndexMatchesWalk(doc.get());

  // Renamed twice in one window: only the final name keeps the node.
  xml::Node* second = a->children()[1];
  second->Rename(xml::QName("y"));
  second->Rename(xml::QName("z"));
  ExpectIndexMatchesWalk(doc.get(), {"b", "y"});
  EXPECT_EQ(doc->name_index_builds(), 1u);
}

TEST(IndexSplice, GapKeysKeepDocumentOrderWithoutRebuilds) {
  auto doc = std::move(xml::ParseDocument("<a><b/><b/></a>")).value();
  doc->set_delta_tracking(true);
  doc->root()->OrderKey();
  const uint64_t rebuilds = doc->order_rebuilds();
  xml::Node* a = doc->DocumentElement();
  xml::Node* first = a->children()[0];
  xml::Node* last = a->children()[1];

  // A run of inserts at both ends and the middle, all absorbed by the
  // neighbor-gap assignment; each one is spliced into the <m> bucket.
  for (int i = 0; i < 8; ++i) {
    xml::Node* n = doc->CreateElement(xml::QName("m"));
    a->InsertBefore(n, a->children()[a->children().size() / 2]);
    ExpectIndexMatchesWalk(doc.get());
  }
  EXPECT_EQ(doc->name_index_builds(), 1u);
  EXPECT_EQ(doc->order_rebuilds(), rebuilds);
  EXPECT_LT(first->CompareDocumentOrder(last), 0);
  const std::vector<xml::Node*>& kids = a->children();
  for (size_t i = 1; i < kids.size(); ++i) {
    EXPECT_LT(kids[i - 1]->CompareDocumentOrder(kids[i]), 0)
        << "children out of order at " << i;
  }
}

// Every ElementsByNameIn slice equals the walk of the origin's subtree,
// for every attached element origin and name, both axes, through gap-key
// inserts, removals and renames.
TEST(IndexSlice, SubtreeRangesMatchWalkThroughSplices) {
  auto doc = std::move(xml::ParseDocument(
                           "<r><a><b/><a><b/><c/></a></a><b><a/></b><c/></r>"))
                 .value();
  doc->set_delta_tracking(true);
  const char* names[] = {"a", "b", "c"};
  auto check = [&]() {
    ExpectInvariants(doc.get());
    std::vector<xml::Node*> origins{doc->root()};
    VisitSubtree(doc->DocumentElement(), [&](xml::Node* n) {
      if (n->is_element()) origins.push_back(n);
    });
    for (xml::Node* origin : origins) {
      for (const char* name : names) {
        for (bool or_self : {false, true}) {
          std::vector<xml::Node*> walk;
          std::function<void(xml::Node*)> visit = [&](xml::Node* n) {
            if (n->is_element() && n->name().local() == name &&
                (or_self || n != origin)) {
              walk.push_back(n);
            }
            for (xml::Node* c : n->children()) visit(c);
          };
          visit(origin);
          auto slice =
              doc->ElementsByNameIn(origin, xml::QName(name), or_self);
          EXPECT_EQ(std::vector<xml::Node*>(slice.begin(), slice.end()), walk)
              << "<" << name << "> under <" << origin->name().local()
              << "> or_self=" << or_self;
        }
      }
    }
  };
  check();
  xml::Node* r = doc->DocumentElement();
  for (int i = 0; i < 4; ++i) {
    xml::Node* a = doc->CreateElement(xml::QName("a"));
    a->AppendChild(doc->CreateElement(xml::QName("b")));
    r->children()[0]->InsertBefore(a, r->children()[0]->children()[i % 2]);
    check();
  }
  r->children()[0]->children()[1]->Rename(xml::QName("c"));
  check();
  r->RemoveChild(r->children()[1]);
  check();
}

// --------------------------------------------- dispatch skipping ---

class DeltaDispatchTest : public ::testing::Test {
 protected:
  DeltaDispatchTest()
      : services_(&fabric_, &store_),
        plugin_(&browser_, &fabric_, &services_) {
    plugin_.Install();
  }

  Window* Load(const std::string& source) {
    Status st = browser_.top_window()->LoadSource(
        "http://app.example.com/index.xhtml", source);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(plugin_.last_script_error().ok())
        << plugin_.last_script_error().ToString();
    return browser_.top_window();
  }

  void Click(xml::Node* target) {
    Event e;
    e.type = "onclick";
    plugin_.FireEvent(target, e);
  }

  // A memoizable reader of //li and an updating writer of `mutation`.
  Window* LoadPeekAndMutate(const std::string& mutation) {
    return Load(R"(<html><body>
<input id="peek"/><input id="mut"/>
<ul><li>a</li><li>b</li></ul><aside/>
<script type="text/xqueryp"><![CDATA[
declare function local:peek($evt, $obj) { string(count(//li)) };
declare updating function local:mut($evt, $obj) { )" +
                mutation + R"( };
on event "onclick" at //input[@id="peek"] attach listener local:peek;
on event "onclick" at //input[@id="mut"] attach listener local:mut
]]></script></body></html>)");
  }

  net::HttpFabric fabric_;
  net::XmlStore store_;
  net::ServiceHost services_;
  Browser browser_;
  plugin::XqibPlugin plugin_;
};

TEST_F(DeltaDispatchTest, DisjointWriteSkipsListenerWithoutEvaluation) {
  Window* w = LoadPeekAndMutate("insert node <note/> into //aside");
  xml::Node* peek = w->document()->GetElementById("peek");
  xml::Node* mut = w->document()->GetElementById("mut");
  ASSERT_NE(peek, nullptr);
  ASSERT_NE(mut, nullptr);

  Click(peek);  // miss: fills the memo entry, stamps the delta seq
  EXPECT_EQ(plugin_.last_listener_result(), "2");
  Click(mut);  // writes note/aside — disjoint from peek's read set
  ASSERT_TRUE(plugin_.last_script_error().ok())
      << plugin_.last_script_error().ToString();
  EXPECT_EQ(plugin_.last_event_stats().delta_emitted, 1u);
  EXPECT_GE(plugin_.counters().delta_emitted, 1u);

  Click(peek);  // delta skip: replay with ZERO evaluation
  EXPECT_EQ(plugin_.last_listener_result(), "2");
  EXPECT_EQ(plugin_.last_event_stats().memo_hits, 1u);
  EXPECT_EQ(plugin_.last_event_stats().delta_listeners_skipped, 1u);
  EXPECT_EQ(plugin_.counters().delta_listeners_skipped, 1u);
  EXPECT_EQ(plugin_.counters().memo_hits, 1u);
  EXPECT_EQ(plugin_.counters().memo_invalidations, 0u);
}

TEST_F(DeltaDispatchTest, IntersectingWriteStillRuns) {
  Window* w = LoadPeekAndMutate("insert node <li>c</li> into //ul");
  xml::Node* peek = w->document()->GetElementById("peek");
  xml::Node* mut = w->document()->GetElementById("mut");
  Click(peek);
  Click(mut);  // li is in peek's read set: must NOT be skipped
  Click(peek);
  EXPECT_EQ(plugin_.last_listener_result(), "3");
  EXPECT_EQ(plugin_.last_event_stats().delta_listeners_skipped, 0u);
  EXPECT_EQ(plugin_.counters().delta_listeners_skipped, 0u);
  EXPECT_EQ(plugin_.counters().memo_invalidations, 1u);
}

TEST_F(DeltaDispatchTest, IndexMatchesTreeWalkAfterEveryClick) {
  // Every click inserts an <li>, renames the first <li> to <item> and
  // deletes the first <item>, with readers between the updaters forcing
  // the index to splice mid-dispatch. The fresh tree walk is the
  // reference for the spliced buckets.
  Window* w = Load(R"(<html><body>
<input id="go"/>
<ul><li>a</li><li>b</li></ul><aside/>
<script type="text/xqueryp"><![CDATA[
declare function local:lis($evt, $obj) { string(count(//li)) };
declare function local:items($evt, $obj) { string(count(//item)) };
declare function local:tail($evt, $obj) { string(count(//ul/li)) };
declare updating function local:grow($evt, $obj) {
  insert node <li>n</li> into //ul
};
declare updating function local:move($evt, $obj) {
  rename node (//li)[1] as "item"
};
declare updating function local:drop($evt, $obj) {
  delete node (//item)[1]
};
on event "onclick" at //input[@id="go"] attach listener local:grow;
on event "onclick" at //input[@id="go"] attach listener local:lis;
on event "onclick" at //input[@id="go"] attach listener local:move;
on event "onclick" at //input[@id="go"] attach listener local:items;
on event "onclick" at //input[@id="go"] attach listener local:drop;
on event "onclick" at //input[@id="go"] attach listener local:tail
]]></script></body></html>)");
  xml::Document* doc = w->document();
  xml::Node* go = doc->GetElementById("go");
  ASSERT_NE(go, nullptr);
  const uint64_t splices_before = doc->index_splices();
  for (int click = 0; click < 4; ++click) {
    Click(go);
    ASSERT_TRUE(plugin_.last_script_error().ok())
        << plugin_.last_script_error().ToString();
    ExpectIndexMatchesWalk(doc, {"li", "item"});
  }
  // Two <li> to start, one more per click, one renamed away per click.
  EXPECT_EQ(plugin_.last_listener_result(), "2");
  EXPECT_GT(doc->index_splices(), splices_before);
}

TEST_F(DeltaDispatchTest, SecondSkipAfterReanchorStillWorks) {
  // The serial skip re-anchors the entry (doc version + fill seq), so a
  // second disjoint write and click skip again rather than degrade.
  Window* w = LoadPeekAndMutate("insert node <note/> into //aside");
  xml::Node* peek = w->document()->GetElementById("peek");
  xml::Node* mut = w->document()->GetElementById("mut");
  Click(peek);
  Click(mut);
  Click(peek);
  Click(mut);
  Click(peek);
  EXPECT_EQ(plugin_.last_listener_result(), "2");
  EXPECT_EQ(plugin_.counters().delta_listeners_skipped, 2u);
  EXPECT_EQ(plugin_.counters().memo_hits, 2u);
  EXPECT_EQ(plugin_.counters().memo_invalidations, 0u);
}

}  // namespace
}  // namespace xqib
