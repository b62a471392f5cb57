// Tests for the memory layer: QName/string interning identity
// invariants, arena allocation and reset-safety under XQUF snapshots,
// and the plug-in's mutation-versioned pure-listener memo cache
// (invalidation on every DOM mutation kind, and the guarantee that
// non-memoizable listeners never hit it).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "plugin/plugin.h"
#include "xdm/arena.h"
#include "xml/interning.h"
#include "xml/xml_parser.h"
#include "xquery/engine.h"

namespace xqib {
namespace {

using browser::Browser;
using browser::Event;
using browser::Window;
using xquery::DynamicContext;
using xquery::Engine;

// ------------------------------------------------------- interning ---

TEST(Interning, StringPoolDeduplicates) {
  const std::string* a = xml::InternString("memory-test-alpha");
  const std::string* b = xml::InternString("memory-test-alpha");
  const std::string* c = xml::InternString("memory-test-beta");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(*a, "memory-test-alpha");
}

TEST(Interning, NamePoolKeyedOnNamespaceAndLocal) {
  const xml::InternedName* a = xml::InternName("urn:mt", "x");
  const xml::InternedName* b = xml::InternName("urn:mt", "x");
  const xml::InternedName* c = xml::InternName("urn:other", "x");
  const xml::InternedName* d = xml::InternName("urn:mt", "y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(*a->ns, "urn:mt");
  EXPECT_EQ(*a->local, "x");
}

TEST(Interning, HitCounterAdvancesOnRepeatedInterns) {
  (void)xml::InternName("urn:mt-hits", "warm");  // ensure the miss is spent
  uint64_t hits_before = xml::GetInternStats().hits;
  (void)xml::InternName("urn:mt-hits", "warm");
  (void)xml::InternName("urn:mt-hits", "warm");
  EXPECT_GE(xml::GetInternStats().hits, hits_before + 2);
}

TEST(Interning, QNameTokenIdenticalAcrossDocuments) {
  // The same lexical element name parsed in two independent documents
  // must intern to the same token — pointer comparison IS name equality.
  auto doc1 = xml::ParseDocument("<root xmlns='urn:mt'><kid/></root>");
  auto doc2 = xml::ParseDocument("<root xmlns='urn:mt'><kid/></root>");
  ASSERT_TRUE(doc1.ok() && doc2.ok());
  const xml::QName& n1 = (*doc1)->root()->name();
  const xml::QName& n2 = (*doc2)->root()->name();
  EXPECT_EQ(n1.token(), n2.token());
  EXPECT_EQ(n1, n2);
}

TEST(Interning, PrefixExcludedFromIdentity) {
  xml::QName a("urn:mt", "p1", "elem");
  xml::QName b("urn:mt", "p2", "elem");
  EXPECT_EQ(a, b);  // same expanded name
  EXPECT_EQ(a.token(), b.token());
  EXPECT_NE(a.prefix(), b.prefix());  // lexical prefix still preserved
  EXPECT_EQ(a.Lexical(), "p1:elem");
  EXPECT_EQ(b.Lexical(), "p2:elem");
}

// ----------------------------------------------------------- arena ---

TEST(Arena, AllocationsAlignedAndDistinct) {
  xdm::Arena arena;
  void* a = arena.Allocate(3, 1);
  void* b = arena.Allocate(16, 16);
  void* c = arena.Allocate(64, 8);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 16, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 8, 0u);
  EXPECT_GE(arena.stats().bytes_used, 3u + 16u + 64u);
}

TEST(Arena, ResetRetainsSlabsAndReusesMemory) {
  xdm::Arena arena;
  void* first = arena.Allocate(128, 8);
  arena.Reset();
  EXPECT_EQ(arena.stats().resets, 1u);
  EXPECT_EQ(arena.stats().live_bytes, 0u);
  // The slab is retained across Reset, so the next same-shaped
  // allocation lands on the same address — no heap traffic.
  void* again = arena.Allocate(128, 8);
  EXPECT_EQ(first, again);
}

TEST(Arena, SlabsStartSmallAndDouble) {
  xdm::Arena arena;
  arena.Allocate(1000, 8);
  EXPECT_EQ(arena.stats().slabs, 1u);
  EXPECT_EQ(arena.stats().slab_bytes, xdm::Arena::kFirstSlabBytes);
  // Past the first slab, each new one doubles up to kDefaultSlabBytes.
  for (int i = 0; i < 100; ++i) arena.Allocate(1000, 8);
  EXPECT_EQ(arena.stats().slab_bytes,
            4096u + 8192u + 16384u + 32768u + 65536u);
  arena.Reset();
  arena.Allocate(1000, 8);
  EXPECT_EQ(arena.stats().slabs, 5u);  // kept across Reset
}

TEST(Arena, SmallDispatchHoldsOneSmallSlab) {
  // A dispatch whose stream operators take less than 4 KB holds one
  // 4 KB slab, not a 64 KB one.
  auto doc = xml::ParseDocument("<r><a v='1'/><a v='2'/><b/></r>");
  ASSERT_TRUE(doc.ok());
  DynamicContext ctx;
  DynamicContext::Focus f;
  f.item = xdm::Item::Node((*doc)->root());
  f.position = 1;
  f.size = 1;
  f.has_item = true;
  ctx.set_focus(f);
  Engine engine;
  auto q = engine.Compile("count(//a[@v = '2']) + count(/r/*)");
  ASSERT_TRUE(q.ok());
  auto r = (*q)->Run(ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(xdm::SequenceToString(*r), "4");
  const uint64_t used = (*q)->evaluator().counters().arena_bytes_used;
  EXPECT_GT(used, 0u);
  EXPECT_LT(used, xdm::Arena::kFirstSlabBytes);
  EXPECT_EQ(ctx.arena().stats().slabs, 1u);
  EXPECT_EQ(ctx.arena().stats().slab_bytes, xdm::Arena::kFirstSlabBytes);
}

TEST(Arena, OversizedAllocationGetsOwnSlab) {
  xdm::Arena arena;
  void* big = arena.Allocate(xdm::Arena::kDefaultSlabBytes * 2, 16);
  ASSERT_NE(big, nullptr);
  // Still usable afterwards.
  void* small = arena.Allocate(8, 8);
  EXPECT_NE(small, nullptr);
}

TEST(Arena, ResetSafeAcrossXqufSnapshots) {
  // An updating run builds its PUL from values produced by arena-backed
  // streams; the engine resets the arena wholesale after the apply
  // pass. Re-querying afterwards must see the applied update and a
  // fresh arena — the PUL/result must never dangle into reset memory.
  auto doc = xml::ParseDocument("<r><a v='1'/><a v='2'/></r>");
  ASSERT_TRUE(doc.ok());
  DynamicContext ctx;
  DynamicContext::Focus f;
  f.item = xdm::Item::Node((*doc)->root());
  f.position = 1;
  f.size = 1;
  f.has_item = true;
  ctx.set_focus(f);

  Engine engine;
  auto update = engine.Compile(
      "for $a in //a where $a/@v = '1' return insert node <b/> into $a");
  ASSERT_TRUE(update.ok());
  uint64_t resets_before = (*update)->evaluator().counters().arena_resets;
  ASSERT_TRUE((*update)->Run(ctx).ok());
  EXPECT_GT((*update)->evaluator().counters().arena_resets, resets_before);

  auto count = engine.Compile("count(//b)");
  ASSERT_TRUE(count.ok());
  auto n = (*count)->Run(ctx);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(xdm::SequenceToString(*n), "1");

  // A second round on the SAME contexts reuses the reset arenas.
  ASSERT_TRUE((*update)->Run(ctx).ok());
  n = (*count)->Run(ctx);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(xdm::SequenceToString(*n), "2");
}

// ------------------------------------------------------ memo cache ---

class MemoTest : public ::testing::Test {
 protected:
  MemoTest() : services_(&fabric_, &store_), plugin_(&browser_, &fabric_,
                                                     &services_) {
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

  xml::Node* ById(Window* w, const std::string& id) {
    return w->document()->GetElementById(id);
  }

  void Click(xml::Node* target) {
    Event e;
    e.type = "onclick";
    plugin_.FireEvent(target, e);
  }

  // A page with a memoizable listener on #peek (string of the //li
  // count) and one updating listener on #mut performing `mutation`.
  Window* LoadPeekAndMutate(const std::string& mutation) {
    return Load(R"(<html><body>
<input id="peek"/><input id="mut"/>
<ul><li id="l1">a</li><li id="l2">b</li></ul>
<script type="text/xqueryp"><![CDATA[
declare function local:peek($evt, $obj) { string(count(//li)) };
declare updating function local:mut($evt, $obj) { )" +
                mutation + R"( };
on event "onclick" at //input[@id="peek"] attach listener local:peek;
on event "onclick" at //input[@id="mut"] attach listener local:mut
]]></script></body></html>)");
  }

  // Runs the shared script: peek twice (miss then hit), mutate, peek
  // (stale entry -> invalidation, fresh result), peek (hit again).
  void ExpectInvalidationAfter(const std::string& mutation,
                               const std::string& count_before,
                               const std::string& count_after) {
    Window* w = LoadPeekAndMutate(mutation);
    xml::Node* peek = ById(w, "peek");
    xml::Node* mut = ById(w, "mut");
    ASSERT_NE(peek, nullptr);
    ASSERT_NE(mut, nullptr);
    auto s0 = plugin_.counters();

    Click(peek);  // first sight: miss, recorded
    EXPECT_EQ(plugin_.last_listener_result(), count_before);
    Click(peek);  // identical payload, unmutated doc: hit
    auto s1 = plugin_.counters();
    EXPECT_EQ(s1.memo_misses, s0.memo_misses + 1);
    EXPECT_EQ(s1.memo_hits, s0.memo_hits + 1);
    EXPECT_EQ(plugin_.last_listener_result(), count_before);
    EXPECT_EQ(plugin_.last_event_stats().memo_hits, 1u);

    Click(mut);  // bumps the document's mutation version
    ASSERT_TRUE(plugin_.last_script_error().ok())
        << plugin_.last_script_error().ToString();

    Click(peek);  // stale entry: invalidation + fresh evaluation
    auto s2 = plugin_.counters();
    EXPECT_EQ(s2.memo_invalidations, s1.memo_invalidations + 1);
    EXPECT_EQ(plugin_.last_listener_result(), count_after);
    EXPECT_EQ(plugin_.last_event_stats().memo_invalidations, 1u);

    Click(peek);  // re-recorded at the new version: hit again
    auto s3 = plugin_.counters();
    EXPECT_EQ(s3.memo_hits, s2.memo_hits + 1);
    EXPECT_EQ(plugin_.last_listener_result(), count_after);
  }

  net::HttpFabric fabric_;
  net::XmlStore store_;
  net::ServiceHost services_;
  Browser browser_;
  plugin::XqibPlugin plugin_;
};

TEST_F(MemoTest, InvalidatesOnInsert) {
  ExpectInvalidationAfter("insert node <li>c</li> into //ul", "2", "3");
}

TEST_F(MemoTest, InvalidatesOnDelete) {
  ExpectInvalidationAfter("delete node //li[@id=\"l2\"]", "2", "1");
}

TEST_F(MemoTest, InvalidatesOnRename) {
  ExpectInvalidationAfter("rename node //li[@id=\"l1\"] as \"item\"", "2",
                          "1");
}

TEST_F(MemoTest, InvalidatesOnReplace) {
  // The replacement has the same name and count, so the (identical)
  // result proves the invalidation came from the version bump, not
  // from a value change.
  ExpectInvalidationAfter(
      "replace node //li[@id=\"l1\"] with <li id=\"l1\">z</li>", "2", "2");
}

TEST_F(MemoTest, ObservableListenerNeverHitsMemo) {
  // browser:alert is DOM-pure but user-visible: the analyzer keeps the
  // listener OUT of the memoizable set, so every click re-runs it and
  // the alert fires every time.
  Window* w = Load(R"(<html><body><input id="p"/>
<script type="text/xqueryp"><![CDATA[
declare function local:shout($evt, $obj) { browser:alert("hi"), 7 };
on event "onclick" at //input[@id="p"] attach listener local:shout
]]></script></body></html>)");
  xml::Node* p = ById(w, "p");
  ASSERT_NE(p, nullptr);
  auto before = plugin_.counters();
  Click(p);
  Click(p);
  Click(p);
  auto after = plugin_.counters();
  EXPECT_EQ(after.memo_hits, before.memo_hits);
  EXPECT_EQ(after.memo_misses, before.memo_misses);
  EXPECT_EQ(plugin_.alerts().size(), 3u);  // the alert was never skipped
}

TEST_F(MemoTest, UpdatingListenerNeverHitsMemo) {
  Window* w = Load(R"(<html><body><input id="p"/><span id="n">0</span>
<script type="text/xqueryp"><![CDATA[
declare updating function local:bump($evt, $obj) {
  replace value of node //span[@id="n"]
    with string(number(//span[@id="n"]) + 1)
};
on event "onclick" at //input[@id="p"] attach listener local:bump
]]></script></body></html>)");
  xml::Node* p = ById(w, "p");
  ASSERT_NE(p, nullptr);
  auto before = plugin_.counters();
  Click(p);
  Click(p);
  auto after = plugin_.counters();
  EXPECT_EQ(after.memo_hits, before.memo_hits);
  EXPECT_EQ(after.memo_misses, before.memo_misses);
  // The listener genuinely ran twice.
  EXPECT_EQ(ById(w, "n")->StringValue(), "2");
}

TEST_F(MemoTest, DifferentPayloadsAreDifferentEntries) {
  Window* w = LoadPeekAndMutate("delete node //li[1]");
  xml::Node* peek = ById(w, "peek");
  ASSERT_NE(peek, nullptr);
  auto s0 = plugin_.counters();
  Event a;
  a.type = "onclick";
  plugin_.FireEvent(peek, a);  // miss
  Event b;
  b.type = "onclick";
  b.value = "different-payload";
  plugin_.FireEvent(peek, b);  // different hash: its own miss
  plugin_.FireEvent(peek, a);  // original entry still valid: hit
  auto s1 = plugin_.counters();
  EXPECT_EQ(s1.memo_misses, s0.memo_misses + 2);
  EXPECT_EQ(s1.memo_hits, s0.memo_hits + 1);
}

}  // namespace
}  // namespace xqib
