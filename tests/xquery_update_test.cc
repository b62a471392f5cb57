// Tests for the XQuery Update Facility (paper §3.2): insert / delete /
// replace / rename primitives, snapshot semantics, compatibility errors,
// and the transform (copy-modify-return) expression.

#include <gtest/gtest.h>

#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/engine.h"

namespace xqib::xquery {
namespace {

struct Outcome {
  std::string result;   // string value of the query result
  std::string doc;      // serialized document after updates
  std::string error;    // error code, empty if OK
};

Outcome Exec(const std::string& query, const std::string& xml) {
  Outcome out;
  Engine engine;
  auto q = engine.Compile(query);
  if (!q.ok()) {
    out.error = q.status().code();
    return out;
  }
  auto doc = std::move(xml::ParseDocument(xml)).value();
  DynamicContext ctx;
  DynamicContext::Focus f;
  f.item = xdm::Item::Node(doc->root());
  f.position = 1;
  f.size = 1;
  f.has_item = true;
  ctx.set_focus(f);
  Status b = (*q)->BindGlobals(ctx);
  if (!b.ok()) {
    out.error = b.code();
    return out;
  }
  auto r = (*q)->Run(ctx);
  if (!r.ok()) {
    out.error = r.status().code();
    return out;
  }
  out.result = xdm::SequenceToString(*r);
  out.doc = xml::Serialize(doc->root());
  // The apply must leave order keys and name-index buckets consistent.
  Status invariants = doc->CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << query << ": " << invariants.ToString();
  return out;
}

TEST(Insert, IntoAppends) {
  Outcome r = Exec("insert node <c/> into /a", "<a><b/></a>");
  EXPECT_EQ(r.error, "");
  EXPECT_EQ(r.doc, "<a><b/><c/></a>");
}

TEST(Insert, AsFirstInto) {
  Outcome r = Exec("insert node <c/> as first into /a", "<a><b/></a>");
  EXPECT_EQ(r.doc, "<a><c/><b/></a>");
}

TEST(Insert, AsLastInto) {
  Outcome r = Exec("insert node <c/> as last into /a", "<a><b/></a>");
  EXPECT_EQ(r.doc, "<a><b/><c/></a>");
}

TEST(Insert, BeforeAndAfter) {
  EXPECT_EQ(Exec("insert node <x/> before /a/b[2]",
                 "<a><b i='1'/><b i='2'/></a>")
                .doc,
            "<a><b i=\"1\"/><x/><b i=\"2\"/></a>");
  EXPECT_EQ(Exec("insert node <x/> after /a/b[1]",
                 "<a><b i='1'/><b i='2'/></a>")
                .doc,
            "<a><b i=\"1\"/><x/><b i=\"2\"/></a>");
}

TEST(Insert, MultipleNodesKeepOrder) {
  Outcome r = Exec("insert nodes (<x/>, <y/>) into /a", "<a/>");
  EXPECT_EQ(r.doc, "<a><x/><y/></a>");
  Outcome r2 = Exec("insert nodes (<x/>, <y/>) after /a/b", "<a><b/></a>");
  EXPECT_EQ(r2.doc, "<a><b/><x/><y/></a>");
}

TEST(Insert, AttributeNode) {
  Outcome r = Exec("insert node attribute cls {'hot'} into /a", "<a/>");
  EXPECT_EQ(r.doc, "<a cls=\"hot\"/>");
}

TEST(Insert, SourceIsCopiedNotMoved) {
  // Inserting an existing node must copy it: the original stays.
  Outcome r = Exec("insert node /a/b into /a/c", "<a><b/><c/></a>");
  EXPECT_EQ(r.doc, "<a><b/><c><b/></c></a>");
}

TEST(Insert, SnapshotSemantics) {
  // Both inserts see the original tree; neither sees the other's effect
  // (paper: "instructions do not see the side effects of former
  // instructions").
  Outcome r = Exec("insert node <x/> into /a, insert node <y/> into /a",
               "<a/>");
  EXPECT_EQ(r.doc, "<a><x/><y/></a>");
}

TEST(Insert, PaperExampleBookIntoLibrary) {
  Outcome r = Exec("insert node <book title=\"Starwars\"/> into /books",
               "<books><book title=\"Dune\"/></books>");
  EXPECT_EQ(r.doc,
            "<books><book title=\"Dune\"/><book title=\"Starwars\"/>"
            "</books>");
}

TEST(Insert, TargetMustBeSingleNode) {
  EXPECT_EQ(Exec("insert node <x/> into /a/b", "<a><b/><b/></a>").error,
            "XUTY0008");
  EXPECT_EQ(Exec("insert node <x/> into ()", "<a/>").error, "XUTY0008");
}

TEST(Insert, IntoTextNodeFails) {
  EXPECT_EQ(Exec("insert node <x/> into /a/text()", "<a>t</a>").error,
            "XUTY0005");
}

TEST(Delete, SingleAndMultiple) {
  EXPECT_EQ(Exec("delete node /a/b", "<a><b/><c/></a>").doc, "<a><c/></a>");
  EXPECT_EQ(Exec("delete nodes //b", "<a><b/><c/><b/></a>").doc,
            "<a><c/></a>");
}

TEST(Delete, Attribute) {
  EXPECT_EQ(Exec("delete node /a/@x", "<a x='1' y='2'/>").doc,
            "<a y=\"2\"/>");
}

TEST(Delete, NonNodeFails) {
  EXPECT_EQ(Exec("delete node (1)", "<a/>").error, "XUTY0007");
}

TEST(ReplaceValue, TextOfElement) {
  // The paper's bill example: replace value of a price.
  Outcome r = Exec(
      "replace value of node /bill/items[@id=\"computer\"]/price "
      "with 1500",
      "<bill><items id=\"computer\"><price>1000</price></items></bill>");
  EXPECT_EQ(r.error, "");
  EXPECT_EQ(r.doc,
            "<bill><items id=\"computer\"><price>1500</price></items>"
            "</bill>");
}

TEST(ReplaceValue, Attribute) {
  EXPECT_EQ(Exec("replace value of node /a/@x with 'new'", "<a x='old'/>")
                .doc,
            "<a x=\"new\"/>");
}

TEST(ReplaceValue, WithEmptySequenceClearsContent) {
  EXPECT_EQ(Exec("replace value of node /a/b with ()", "<a><b>t</b></a>")
                .doc,
            "<a><b/></a>");
}

TEST(ReplaceNode, ElementReplaced) {
  EXPECT_EQ(
      Exec("replace node /a/b with <z/>", "<a><b/><c/></a>").doc,
      "<a><z/><c/></a>");
}

TEST(ReplaceNode, WithMultipleNodes) {
  EXPECT_EQ(
      Exec("replace node /a/b with (<x/>, <y/>)", "<a><b/><c/></a>").doc,
      "<a><x/><y/><c/></a>");
}

TEST(Rename, Element) {
  EXPECT_EQ(Exec("rename node /a/b as 'z'", "<a><b/></a>").doc,
            "<a><z/></a>");
}

TEST(Rename, Attribute) {
  EXPECT_EQ(Exec("rename node /a/@x as 'y'", "<a x='1'/>").doc,
            "<a y=\"1\"/>");
}

TEST(Compatibility, DoubleRenameFails) {
  EXPECT_EQ(Exec("rename node /a/b as 'x', rename node /a/b as 'y'",
                 "<a><b/></a>")
                .error,
            "XUDY0015");
}

TEST(Compatibility, DoubleReplaceFails) {
  EXPECT_EQ(Exec("replace node /a/b with <x/>, replace node /a/b with <y/>",
                 "<a><b/></a>")
                .error,
            "XUDY0016");
  EXPECT_EQ(Exec("replace value of node /a/b with '1', "
                 "replace value of node /a/b with '2'",
                 "<a><b/></a>")
                .error,
            "XUDY0017");
}

TEST(Compatibility, InsertPlusDeleteIsFine) {
  Outcome r = Exec("insert node <x/> into /a/b, delete node /a/b",
               "<a><b/></a>");
  EXPECT_EQ(r.error, "");
  EXPECT_EQ(r.doc, "<a/>");
}

TEST(UpdatesInFLWOR, BulkUpdate) {
  Outcome r = Exec("for $b in //b return insert node <k/> into $b",
               "<a><b/><b/></a>");
  EXPECT_EQ(r.doc, "<a><b><k/></b><b><k/></b></a>");
}

TEST(UpdatesInConditional, OnlyTakenBranchRuns) {
  Outcome r = Exec("if (count(//b) > 5) then delete node /a/b "
               "else insert node <c/> into /a",
               "<a><b/></a>");
  EXPECT_EQ(r.doc, "<a><b/><c/></a>");
}

TEST(Transform, CopyModifyReturn) {
  Outcome r = Exec(
      "copy $c := /a modify insert node <n/> into $c return $c",
      "<a><b/></a>");
  EXPECT_EQ(r.error, "");
  EXPECT_EQ(r.result, "");
  // The original document is untouched by transform.
  EXPECT_EQ(r.doc, "<a><b/></a>");
}

TEST(Transform, ReturnsModifiedCopy) {
  Engine engine;
  auto q = engine.Compile(
      "copy $c := <a><b>1</b></a> "
      "modify replace value of node $c/b with '2' return $c");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  DynamicContext ctx;
  auto r = (*q)->Run(ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(xml::Serialize(r->at(0).node()), "<a><b>2</b></a>");
}

TEST(UpdatingFunction, DeclaredAndCalled) {
  Outcome r = Exec(
      "declare updating function local:add($t) { "
      "insert node <n/> into $t }; "
      "local:add(/a)",
      "<a/>");
  EXPECT_EQ(r.error, "");
  EXPECT_EQ(r.doc, "<a><n/></a>");
}

}  // namespace
}  // namespace xqib::xquery
