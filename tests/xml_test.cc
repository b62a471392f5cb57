// Unit tests for the XML substrate: parser, DOM mutation, document
// order, serialization round-trips, and the builder path the parser and
// ImportCopy share, checked against a seeded XML generator whose
// expected trees come from the generator itself.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "xml/dom.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"

namespace xqib::xml {
namespace {

std::unique_ptr<Document> Parse(const std::string& s) {
  auto r = ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(XmlParser, BasicStructure) {
  auto doc = Parse("<a><b x=\"1\"/><c>text</c></a>");
  Node* a = doc->DocumentElement();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name().local(), "a");
  ASSERT_EQ(a->children().size(), 2u);
  EXPECT_EQ(a->children()[0]->GetAttributeValue("x"), "1");
  EXPECT_EQ(a->children()[1]->StringValue(), "text");
}

TEST(XmlParser, EntitiesDecoded) {
  auto doc = Parse("<a x=\"&lt;&amp;&quot;\">&lt;tag&gt; &#65;&#x42;</a>");
  Node* a = doc->DocumentElement();
  EXPECT_EQ(a->GetAttributeValue("x"), "<&\"");
  EXPECT_EQ(a->StringValue(), "<tag> AB");
}

TEST(XmlParser, CdataCommentsAndPis) {
  auto doc = Parse(
      "<a><![CDATA[<raw> & stuff]]><!--note--><?target data?></a>");
  Node* a = doc->DocumentElement();
  ASSERT_EQ(a->children().size(), 3u);
  EXPECT_EQ(a->children()[0]->kind(), NodeKind::kText);
  EXPECT_EQ(a->children()[0]->value(), "<raw> & stuff");
  EXPECT_EQ(a->children()[1]->kind(), NodeKind::kComment);
  EXPECT_EQ(a->children()[1]->value(), "note");
  EXPECT_EQ(a->children()[2]->kind(), NodeKind::kProcessingInstruction);
  EXPECT_EQ(a->children()[2]->name().local(), "target");
}

TEST(XmlParser, Namespaces) {
  auto doc = Parse(
      "<a xmlns=\"urn:d\" xmlns:p=\"urn:p\"><b/><p:c p:at=\"v\"/></a>");
  Node* a = doc->DocumentElement();
  EXPECT_EQ(a->name().ns(), "urn:d");
  EXPECT_EQ(a->children()[0]->name().ns(), "urn:d");
  EXPECT_EQ(a->children()[1]->name().ns(), "urn:p");
  // Unprefixed attributes stay in no namespace.
  EXPECT_EQ(a->children()[1]->FindAttribute("urn:p", "at")->value(), "v");
}

TEST(XmlParser, UndeclaredPrefixFails) {
  EXPECT_FALSE(ParseDocument("<p:a/>").ok());
}

TEST(XmlParser, MismatchedTagsFail) {
  EXPECT_FALSE(ParseDocument("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseDocument("<a>").ok());
  EXPECT_FALSE(ParseDocument("<a/><b/>").ok());
}

TEST(XmlParser, DoctypeAndXmlDeclSkipped) {
  auto doc = Parse(
      "<?xml version=\"1.0\"?><!DOCTYPE html PUBLIC \"x\" \"y\"><a/>");
  EXPECT_EQ(doc->DocumentElement()->name().local(), "a");
}

TEST(XmlParser, WhitespaceOnlyTextDroppedByDefault) {
  auto doc = Parse("<a>\n  <b/>\n  <c/>\n</a>");
  EXPECT_EQ(doc->DocumentElement()->children().size(), 2u);
  ParseOptions keep;
  keep.keep_whitespace_text = true;
  auto doc2 = ParseDocument("<a>\n  <b/>\n</a>", keep);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ((*doc2)->DocumentElement()->children().size(), 3u);
}

TEST(XmlParser, ScriptContentIsRawText) {
  auto doc = Parse(
      "<html><script type=\"text/xquery\">if (1 &gt; 0) then <b/> else "
      "2</script></html>");
  Node* script = doc->DocumentElement()->children()[0];
  ASSERT_EQ(script->children().size(), 1u);
  EXPECT_EQ(script->children()[0]->kind(), NodeKind::kText);
  // Content is literal — the <b/> was NOT parsed as an element and
  // entities are NOT decoded inside scripts.
  EXPECT_TRUE(script->StringValue().find("<b/>") != std::string::npos);
}

TEST(XmlParser, ScriptCdataWrapperStripped) {
  auto doc = Parse("<html><script><![CDATA[1 < 2 && 3 > 2]]></script>"
                   "</html>");
  EXPECT_EQ(doc->DocumentElement()->children()[0]->StringValue(),
            "1 < 2 && 3 > 2");
}

TEST(XmlParser, IeTagFoldingUppercasesNames) {
  ParseOptions ie;
  ie.ie_tag_folding = true;
  auto doc = ParseDocument("<html><body><div id=\"d\"/></body></html>", ie);
  ASSERT_TRUE(doc.ok());
  Node* html = (*doc)->DocumentElement();
  EXPECT_EQ(html->name().local(), "HTML");
  EXPECT_EQ(html->children()[0]->name().local(), "BODY");
  // Attributes are not folded.
  EXPECT_EQ(html->children()[0]->children()[0]->GetAttributeValue("id"),
            "d");
}

TEST(XmlParser, RepeatedAttributeFails) {
  // The same lexical name twice, also as a namespace declaration.
  for (const char* doc : {"<a x=\"1\" x=\"2\"/>",
                          "<r><a k=\"1\" y=\"0\" k=\"1\"/></r>",
                          "<a xmlns:p=\"urn:p\" xmlns:p=\"urn:p\"/>",
                          "<a xmlns=\"urn:d\" xmlns=\"urn:d\"/>",
                          // Two prefixes bound to one URI: one expanded
                          // name.
                          "<a xmlns:p=\"urn:n\" xmlns:q=\"urn:n\" "
                          "p:k=\"1\" q:k=\"2\"/>",
                          "<a xmlns:p=\"urn:n\"><b xmlns:q=\"urn:n\" "
                          "q:k=\"1\" p:k=\"2\"/></a>"}) {
    auto r = ParseDocument(doc);
    ASSERT_FALSE(r.ok()) << doc;
    EXPECT_EQ(r.status().code(), "FODC0006") << doc;
  }
  // Distinct expanded names with one local name are fine, and so is an
  // unprefixed attribute beside a prefixed one under the default
  // namespace's URI (unprefixed attributes are in no namespace).
  auto ok = Parse(
      "<a xmlns=\"urn:n\" xmlns:p=\"urn:n\" xmlns:q=\"urn:m\" k=\"1\" "
      "p:k=\"2\" q:k=\"3\"/>");
  EXPECT_EQ(ok->DocumentElement()->attributes().size(), 3u);
  // Fragments are held to the same rule.
  Document doc;
  Node* host = doc.CreateElement(QName("host"));
  doc.root()->AppendChild(host);
  EXPECT_FALSE(
      ParseFragmentInto("<x a=\"1\" a=\"2\"/>", host, ParseOptions()).ok());
}

// A name resolved under one binding must not answer for the same lexical
// name under another: the parser's name cache knows namespace scope.
TEST(XmlParser, NameResolutionFollowsNamespaceScope) {
  auto doc = Parse(
      "<r xmlns=\"urn:one\" xmlns:p=\"urn:p1\"><a p:k=\"1\"/>"
      "<s xmlns=\"urn:two\" xmlns:p=\"urn:p2\"><a p:k=\"2\"/><p:b/></s>"
      "<a p:k=\"3\"/><p:b/><t xmlns=\"\"><a/></t></r>");
  Node* r = doc->DocumentElement();
  ASSERT_EQ(r->children().size(), 5u);
  Node* a1 = r->children()[0];
  Node* s = r->children()[1];
  Node* a3 = r->children()[2];
  Node* b3 = r->children()[3];
  Node* t = r->children()[4];
  EXPECT_EQ(a1->name(), QName("urn:one", "a"));
  EXPECT_EQ(a1->attributes()[0]->name(), QName("urn:p1", "k"));
  EXPECT_EQ(s->children()[0]->name(), QName("urn:two", "a"));
  EXPECT_EQ(s->children()[0]->attributes()[0]->name(), QName("urn:p2", "k"));
  EXPECT_EQ(s->children()[1]->name(), QName("urn:p2", "b"));
  // Back in the outer scope, the outer bindings answer again.
  EXPECT_EQ(a3->name(), QName("urn:one", "a"));
  EXPECT_EQ(a3->attributes()[0]->name(), QName("urn:p1", "k"));
  EXPECT_EQ(b3->name(), QName("urn:p1", "b"));
  // xmlns="" undeclares the default namespace.
  EXPECT_EQ(t->children()[0]->name(), QName("a"));
  EXPECT_EQ(doc->ElementsByName(QName("urn:one", "a")).size(), 2u);
  EXPECT_EQ(doc->ElementsByName(QName("urn:two", "a")).size(), 1u);
}

TEST(XmlParser, FragmentParsing) {
  Document doc;
  Node* host = doc.CreateElement(QName("host"));
  doc.root()->AppendChild(host);
  Status st = ParseFragmentInto("<x/>text<y a=\"1\"/>", host,
                                ParseOptions());
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(host->children().size(), 3u);
  EXPECT_EQ(host->children()[1]->value(), "text");
}

// ---------------------------------------------------------------- DOM ---

TEST(Dom, MutationAndStringValue) {
  Document doc;
  Node* root = doc.CreateElement(QName("root"));
  doc.root()->AppendChild(root);
  Node* a = doc.CreateElement(QName("a"));
  root->AppendChild(a);
  a->AppendChild(doc.CreateText("hello"));
  Node* b = doc.CreateElement(QName("b"));
  root->InsertBefore(b, a);
  EXPECT_EQ(Serialize(root), "<root><b/><a>hello</a></root>");
  root->RemoveChild(b);
  EXPECT_EQ(Serialize(root), "<root><a>hello</a></root>");
  EXPECT_EQ(root->StringValue(), "hello");
}

TEST(Dom, SetValueOnElementReplacesContent) {
  auto doc = Parse("<a><b/><c/>tail</a>");
  Node* a = doc->DocumentElement();
  a->SetValue("fresh");
  EXPECT_EQ(Serialize(a), "<a>fresh</a>");
}

TEST(Dom, AttributeLifecycle) {
  auto doc = Parse("<a/>");
  Node* a = doc->DocumentElement();
  a->SetAttribute(QName("k"), "v1");
  EXPECT_EQ(a->GetAttributeValue("k"), "v1");
  a->SetAttribute(QName("k"), "v2");  // replace, not duplicate
  EXPECT_EQ(a->attributes().size(), 1u);
  EXPECT_EQ(a->GetAttributeValue("k"), "v2");
  a->RemoveAttribute("", "k");
  EXPECT_EQ(a->attributes().size(), 0u);
}

TEST(Dom, DocumentOrderAcrossMutations) {
  auto doc = Parse("<r><a/><b/><c/></r>");
  Node* r = doc->DocumentElement();
  Node* a = r->children()[0];
  Node* c = r->children()[2];
  EXPECT_LT(a->CompareDocumentOrder(c), 0);
  // Move c before a: order flips.
  r->RemoveChild(c);
  r->InsertBefore(c, a);
  EXPECT_GT(a->CompareDocumentOrder(c), 0);
}

TEST(Dom, AttributesOrderAfterOwnerBeforeChildren) {
  auto doc = Parse("<r x=\"1\"><a/></r>");
  Node* r = doc->DocumentElement();
  Node* x = r->FindAttribute("x");
  Node* a = r->children()[0];
  EXPECT_LT(r->CompareDocumentOrder(x), 0);
  EXPECT_LT(x->CompareDocumentOrder(a), 0);
}

TEST(Dom, ImportCopyIsDeepAndDetached) {
  auto doc1 = Parse("<a x=\"1\"><b><c>t</c></b></a>");
  Document doc2;
  Node* copy = doc2.ImportCopy(doc1->DocumentElement());
  EXPECT_EQ(copy->parent(), nullptr);
  EXPECT_EQ(Serialize(copy), "<a x=\"1\"><b><c>t</c></b></a>");
  // Mutating the copy leaves the original untouched.
  copy->SetAttribute(QName("x"), "2");
  EXPECT_EQ(doc1->DocumentElement()->GetAttributeValue("x"), "1");
}

TEST(Dom, GetElementById) {
  auto doc = Parse("<r><a id=\"one\"/><b><c id=\"two\"/></b></r>");
  EXPECT_EQ(doc->GetElementById("one")->name().local(), "a");
  EXPECT_EQ(doc->GetElementById("two")->name().local(), "c");
  EXPECT_EQ(doc->GetElementById("zzz"), nullptr);
  // Detached elements are not found.
  Node* a = doc->GetElementById("one");
  a->Detach();
  EXPECT_EQ(doc->GetElementById("one"), nullptr);
}

// DOM's getElementById answers the first match in document order, not
// in creation order.
TEST(Dom, GetElementByIdAnswersFirstInDocumentOrder) {
  auto doc = Parse("<r><x/><a id=\"dup\"/></r>");
  Node* r = doc->DocumentElement();
  Node* earlier = r->children()[1];
  ASSERT_EQ(doc->GetElementById("dup"), earlier);
  // Created after `earlier`, inserted before it.
  Node* later = doc->CreateElement(QName("b"));
  later->SetAttribute(QName("id"), "dup");
  r->InsertBefore(later, r->children()[0]);
  EXPECT_EQ(doc->GetElementById("dup"), later);
  // Deeper but earlier in document order also wins.
  Node* deep = doc->CreateElement(QName("c"));
  deep->SetAttribute(QName("id"), "dup");
  r->children()[1]->AppendChild(deep);  // inside <x/>, before `earlier`
  r->RemoveChild(later);
  EXPECT_EQ(doc->GetElementById("dup"), deep);
}

// ---------------------------------------------- element-name index ---

TEST(Dom, ElementsByNameFindsInDocumentOrder) {
  auto doc = Parse("<r><p/><q><p/><r/></q><p/></r>");
  const std::vector<Node*>& ps = doc->ElementsByName(QName("p"));
  ASSERT_EQ(ps.size(), 3u);
  // Strictly ascending document order.
  EXPECT_LT(ps[0]->CompareDocumentOrder(ps[1]), 0);
  EXPECT_LT(ps[1]->CompareDocumentOrder(ps[2]), 0);
  EXPECT_EQ(doc->ElementsByName(QName("zzz")).size(), 0u);
  // The index keys on expanded names, not local names.
  auto doc2 = Parse("<a xmlns:n=\"urn:n\"><n:p/><p/></a>");
  EXPECT_EQ(doc2->ElementsByName(QName("urn:n", "p")).size(), 1u);
  EXPECT_EQ(doc2->ElementsByName(QName("p")).size(), 1u);
}

TEST(Dom, ElementsByNameIsLazyAndCached) {
  auto doc = Parse("<r><a/><a/></r>");
  EXPECT_EQ(doc->name_index_builds(), 0u);
  EXPECT_EQ(doc->ElementsByName(QName("a")).size(), 2u);
  EXPECT_EQ(doc->name_index_builds(), 1u);
  // Repeated lookups (any name) reuse the build.
  doc->ElementsByName(QName("a"));
  doc->ElementsByName(QName("r"));
  EXPECT_EQ(doc->name_index_builds(), 1u);
}

TEST(Dom, ElementsByNameInvalidatedByMutation) {
  auto doc = Parse("<r><a/><b><a/></b></r>");
  Node* r = doc->DocumentElement();
  ASSERT_EQ(doc->ElementsByName(QName("a")).size(), 2u);

  // Insert: the new element must be visible.
  r->AppendChild(doc->CreateElement(QName("a")));
  EXPECT_EQ(doc->ElementsByName(QName("a")).size(), 3u);

  // Detach: removing a subtree removes its elements from the index.
  Node* b = r->children()[1];
  b->Detach();
  EXPECT_EQ(doc->ElementsByName(QName("a")).size(), 2u);

  // Rename: the element moves between buckets.
  r->children()[0]->Rename(QName("c"));
  EXPECT_EQ(doc->ElementsByName(QName("a")).size(), 1u);
  EXPECT_EQ(doc->ElementsByName(QName("c")).size(), 1u);

  // Each mutation forced exactly one rebuild on next lookup.
  EXPECT_EQ(doc->name_index_builds(), 4u);
}

TEST(Dom, ElementsByNameSeesImportCopyAttach) {
  auto doc1 = Parse("<x><a/><a/></x>");
  auto doc2 = Parse("<r><a/></r>");
  ASSERT_EQ(doc2->ElementsByName(QName("a")).size(), 1u);
  Node* copy = doc2->ImportCopy(doc1->DocumentElement());
  // A detached copy is not indexed until attached.
  EXPECT_EQ(doc2->ElementsByName(QName("a")).size(), 1u);
  doc2->DocumentElement()->AppendChild(copy);
  EXPECT_EQ(doc2->ElementsByName(QName("a")).size(), 3u);
}

TEST(Dom, AppendStringValueMatchesStringValue) {
  auto doc = Parse("<a>one<b>two<c/>three</b><!--x-->four</a>");
  Node* a = doc->DocumentElement();
  EXPECT_EQ(a->StringValue(), "onetwothreefour");
  std::string out = "pre:";
  a->AppendStringValue(&out);
  EXPECT_EQ(out, "pre:onetwothreefour");
  // Attribute and comment nodes append their value verbatim.
  a->SetAttribute(QName("k"), "v");
  std::string attr;
  a->FindAttribute("k")->AppendStringValue(&attr);
  EXPECT_EQ(attr, "v");
}

TEST(Dom, MutationHooksFire) {
  auto doc = Parse("<r/>");
  int calls = 0;
  doc->AddMutationHook([&](Node*) { ++calls; });
  Node* r = doc->DocumentElement();
  r->SetAttribute(QName("a"), "1");
  r->AppendChild(doc->CreateText("t"));
  r->SetValue("x");
  EXPECT_GE(calls, 3);
}

// ------------------------------------------------------- serialization ---

TEST(Serializer, Escaping) {
  EXPECT_EQ(EscapeText("a<b>&c"), "a&lt;b&gt;&amp;c");
  EXPECT_EQ(EscapeAttribute("say \"hi\" & <go>"),
            "say &quot;hi&quot; &amp; &lt;go>");
}

TEST(Serializer, NamespaceDeclarationsEmitted) {
  auto doc = Parse("<a xmlns=\"urn:x\"><b/></a>");
  EXPECT_EQ(Serialize(doc->DocumentElement()),
            "<a xmlns=\"urn:x\"><b/></a>");
  auto doc2 = Parse("<p:a xmlns:p=\"urn:y\"><p:b/></p:a>");
  EXPECT_EQ(Serialize(doc2->DocumentElement()),
            "<p:a xmlns:p=\"urn:y\"><p:b/></p:a>");
}

// Round-trip property: parse(serialize(parse(x))) == parse(x).
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, SerializeParseStable) {
  auto doc1 = Parse(GetParam());
  std::string s1 = Serialize(doc1->root());
  auto doc2 = Parse(s1);
  std::string s2 = Serialize(doc2->root());
  EXPECT_EQ(s1, s2);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RoundTripTest,
    ::testing::Values(
        "<a/>",
        "<a x=\"1\" y=\"2\"><b/>text<c><d/></c></a>",
        "<a>&lt;escaped&gt; &amp; more</a>",
        "<a><!--comment--><?pi data?>text</a>",
        "<a xmlns=\"urn:n\"><b at=\"&quot;q&quot;\"/></a>",
        "<r><book year=\"2008\"><title>The dog &amp; cat</title>"
        "</book></r>",
        "<table border=\"1\"><tr><td>1</td><td>2</td></tr></table>"));

// Synthetic-tree property: document order keys are strictly increasing
// along a DFS, stable under unrelated mutations.
TEST(DomProperty, OrderKeysFollowDfs) {
  std::ostringstream src;
  src << "<r>";
  for (int i = 0; i < 20; ++i) {
    src << "<n i=\"" << i << "\"><x/><y><z/></y></n>";
  }
  src << "</r>";
  auto doc = Parse(src.str());
  std::vector<const Node*> dfs;
  std::function<void(Node*)> visit = [&](Node* n) {
    dfs.push_back(n);
    for (Node* c : n->children()) visit(c);
  };
  visit(doc->root());
  for (size_t i = 1; i < dfs.size(); ++i) {
    EXPECT_LT(dfs[i - 1]->CompareDocumentOrder(dfs[i]), 0)
        << "order violated at " << i;
  }
}

// --------------------------------------------- seeded builder coverage ---

// One node of a generated document as the generator meant it: the
// expected tree, built by the generator alongside the XML text and never
// read back from the parser.
struct GenNode {
  NodeKind kind = NodeKind::kElement;
  std::string ns, prefix, local;  // element/attribute; PI target in local
  std::string value;              // decoded text/comment/PI/attribute value
  bool whitespace_only = false;   // a text run the default parse drops
  std::vector<GenNode> attributes;
  std::vector<GenNode> children;
};

// Seeded XML: nested and redeclared default and prefixed namespaces
// (and xmlns="" undeclaring the default), entity and character
// references in text and attribute values, CDATA, comments, PIs, mixed
// and whitespace-only text, repeated ids and repeated element names.
class XmlGenerator {
 public:
  explicit XmlGenerator(uint32_t seed) : state_(seed) {}

  // Renders one document; `*root` receives its expected document node.
  std::string Generate(GenNode* root) {
    *root = GenNode{};
    root->kind = NodeKind::kDocument;
    std::string xml;
    if (Rand(2) == 0) xml += "<?xml version=\"1.0\"?>\n";
    Misc(&xml, root);
    std::map<std::string, std::string> ns{{"xml", std::string(kXmlNamespace)}};
    root->children.push_back(Element(&xml, ns, 0));
    Misc(&xml, root);
    return xml;
  }

 private:
  uint32_t Rand(uint32_t n) {
    state_ = state_ * 1664525u + 1013904223u;  // numerical-recipes LCG
    return ((state_ >> 16) & 0x7fff) % n;
  }
  template <typename T, size_t N>
  const T& Pick(const T (&items)[N]) {
    return items[Rand(N)];
  }

  // Comments and PIs around the document element.
  void Misc(std::string* xml, GenNode* doc) {
    for (uint32_t i = Rand(3); i > 0; --i) {
      *xml += Pick({" ", "\n", ""});
      doc->children.push_back(Rand(2) == 0 ? Comment(xml) : Pi(xml));
    }
  }

  GenNode Comment(std::string* xml) {
    GenNode n;
    n.kind = NodeKind::kComment;
    n.value = Pick({"", "note", " a < b & c ", "x>y"});
    *xml += "<!--" + n.value + "-->";
    return n;
  }

  GenNode Pi(std::string* xml) {
    GenNode n;
    n.kind = NodeKind::kProcessingInstruction;
    n.local = Pick({"target", "pi-x", "go"});
    n.value = Pick({"", "data", "a=\"1\" b<2"});
    *xml += "<?" + n.local + (n.value.empty() ? "" : " " + n.value) + "?>";
    return n;
  }

  // Character data with references: appends the XML text to `xml` and
  // the decoded characters to `decoded`. `quote` escapes '"' too.
  void Chars(std::string* xml, std::string* decoded, bool quote) {
    static const char* const kPieces[][2] = {
        {"a", "a"},           {"text", "text"},  {" ", " "},
        {"&lt;", "<"},        {"&gt;", ">"},     {"&amp;", "&"},
        {"&apos;", "'"},      {"&#65;", "A"},    {"&#x42;", "B"},
        {"&#x263A;", "\xE2\x98\xBA"},            {">", ">"},
        {"'", "'"},           {"\xC3\xA9", "\xC3\xA9"}};
    for (uint32_t i = 1 + Rand(4); i > 0; --i) {
      const auto& piece = Pick(kPieces);
      *xml += piece[0];
      *decoded += piece[1];
    }
    if (quote && Rand(3) == 0) {
      *xml += Rand(2) == 0 ? "&quot;" : "&#34;";
      *decoded += "\"";
    }
  }

  GenNode Element(std::string* xml,
                  std::map<std::string, std::string> ns, int depth) {
    static const char* const kUris[] = {"urn:a", "urn:b", "urn:c"};
    static const char* const kPrefixes[] = {"p", "q", "r"};
    static const char* const kLocals[] = {"a", "b", "item", "x-y", "n.1",
                                          "_u"};
    std::string decls;
    if (Rand(4) == 0) {  // (re)declare or undeclare the default namespace
      const std::string uri = Rand(4) == 0 ? "" : Pick(kUris);
      decls += " xmlns=\"" + uri + "\"";
      ns[""] = uri;
    }
    for (uint32_t i = Rand(4) == 0 ? 1 + Rand(2) : 0; i > 0; --i) {
      const std::string prefix = Pick(kPrefixes);
      if (decls.find(" xmlns:" + prefix + "=") != std::string::npos) continue;
      const std::string uri = Pick(kUris);
      decls += " xmlns:" + prefix + "=\"" + uri + "\"";
      ns[prefix] = uri;  // a redeclaration when `prefix` was bound
    }

    GenNode e;
    e.local = Pick(kLocals);
    std::vector<std::string> prefixes;
    for (const auto& [p, uri] : ns) {
      if (!p.empty() && p != "xml") prefixes.push_back(p);
    }
    if (!prefixes.empty() && Rand(3) == 0) {
      e.prefix = prefixes[Rand(static_cast<uint32_t>(prefixes.size()))];
      e.ns = ns.at(e.prefix);
    } else if (ns.count("") != 0) {
      e.ns = ns.at("");
    }
    const std::string tag =
        e.prefix.empty() ? e.local : e.prefix + ":" + e.local;

    // Attributes, unique by expanded name; the declarations go among
    // them, where the parser must find them before resolving any name.
    std::string attrs;
    for (uint32_t i = Rand(4); i > 0; --i) {
      GenNode a;
      a.kind = NodeKind::kAttribute;
      const uint32_t form = Rand(6);
      if (form == 0) {
        a.local = "id";  // repeated across elements on purpose
        a.value = "id" + std::to_string(Rand(4));
      } else if (form == 1 && !prefixes.empty()) {
        a.prefix = prefixes[Rand(static_cast<uint32_t>(prefixes.size()))];
        a.ns = ns.at(a.prefix);
        a.local = Pick(kLocals);
      } else if (form == 2) {
        a.prefix = "xml";
        a.ns = std::string(kXmlNamespace);
        a.local = "lang";
      } else {
        a.local = Pick(kLocals);
      }
      bool repeated = false;
      for (const GenNode& b : e.attributes) {
        repeated |= b.ns == a.ns && b.local == a.local;
      }
      if (repeated) continue;
      std::string text;
      if (a.local != "id") Chars(&text, &a.value, /*quote=*/true);
      attrs += " " + (a.prefix.empty() ? a.local : a.prefix + ":" + a.local) +
               "=\"" + (a.local == "id" ? a.value : text) + "\"";
      e.attributes.push_back(std::move(a));
    }
    *xml += "<" + tag + (Rand(2) == 0 ? decls + attrs : attrs + decls);

    const uint32_t n_children = depth >= 4 ? Rand(2) : Rand(6);
    if (n_children == 0 && Rand(2) == 0) {
      *xml += "/>";
      return e;
    }
    *xml += ">";
    bool text_open = false;  // the last child is a text run still growing
    for (uint32_t i = 0; i < n_children; ++i) {
      const uint32_t form = Rand(12);
      if (form < 5) {
        // Text: one run with the text before it, since only markup ends
        // a run. Whitespace-only runs are kept only on request.
        if (!text_open) {
          GenNode t;
          t.kind = NodeKind::kText;
          t.whitespace_only = true;
          e.children.push_back(std::move(t));
          text_open = true;
        }
        GenNode& t = e.children.back();
        if (Rand(3) == 0) {
          const std::string ws = Pick({" ", "\n  ", "\t", "  \r\n"});
          *xml += ws;
          t.value += ws;
        } else {
          std::string raw;
          Chars(&raw, &t.value, /*quote=*/false);
          *xml += raw;
          if (raw.find_first_not_of(" \t\r\n") != std::string::npos) {
            t.whitespace_only = false;
          }
        }
        continue;
      }
      text_open = false;
      if (form < 6) {
        GenNode t;
        t.kind = NodeKind::kText;
        t.value = Pick({"", "raw <b> & stuff", " ", "]]"});
        *xml += "<![CDATA[" + t.value + "]]>";
        e.children.push_back(std::move(t));
      } else if (form < 7) {
        e.children.push_back(Comment(xml));
      } else if (form < 8) {
        e.children.push_back(Pi(xml));
      } else {
        e.children.push_back(Element(xml, ns, depth + 1));
      }
    }
    *xml += "</" + tag + ">";
    return e;
  }

  uint32_t state_;
};

// The expected tree with `keep_whitespace` applied.
void DropWhitespaceRuns(GenNode* n, bool keep_whitespace) {
  if (keep_whitespace) return;
  std::vector<GenNode> kept;
  for (GenNode& c : n->children) {
    if (c.kind == NodeKind::kText && c.whitespace_only) continue;
    DropWhitespaceRuns(&c, keep_whitespace);
    kept.push_back(std::move(c));
  }
  n->children = std::move(kept);
}

// Compares a parsed subtree with the expected one, recording which
// parsed node stands for which expected element.
void ExpectSameTree(const GenNode& want, const Node* got,
                    std::map<const GenNode*, const Node*>* nodes,
                    const std::string& where) {
  ASSERT_EQ(got->kind(), want.kind) << where;
  (*nodes)[&want] = got;
  if (want.kind == NodeKind::kElement || want.kind == NodeKind::kAttribute) {
    EXPECT_EQ(got->name().ns(), want.ns) << where;
    EXPECT_EQ(got->name().prefix(), want.prefix) << where;
    EXPECT_EQ(got->name().local(), want.local) << where;
  } else if (want.kind == NodeKind::kProcessingInstruction) {
    EXPECT_EQ(got->name().local(), want.local) << where;
  }
  if (want.kind != NodeKind::kElement && want.kind != NodeKind::kDocument) {
    EXPECT_EQ(got->value(), want.value) << where;
  }
  ASSERT_EQ(got->attributes().size(), want.attributes.size()) << where;
  for (size_t i = 0; i < want.attributes.size(); ++i) {
    EXPECT_EQ(got->attributes()[i]->parent(), got) << where;
    ExpectSameTree(want.attributes[i], got->attributes()[i], nodes,
                   where + "/@" + std::to_string(i));
  }
  ASSERT_EQ(got->children().size(), want.children.size()) << where;
  for (size_t i = 0; i < want.children.size(); ++i) {
    EXPECT_EQ(got->children()[i]->parent(), got) << where;
    ExpectSameTree(want.children[i], got->children()[i], nodes,
                   where + "/" + std::to_string(i));
  }
}

// The expected tree built through the ordinary DOM API.
Node* BuildExpected(Document* doc, const GenNode& n) {
  switch (n.kind) {
    case NodeKind::kElement: {
      Node* e = doc->CreateElement(QName(n.ns, n.prefix, n.local));
      for (const GenNode& a : n.attributes) {
        e->SetAttribute(QName(a.ns, a.prefix, a.local), a.value);
      }
      for (const GenNode& c : n.children) e->AppendChild(BuildExpected(doc, c));
      return e;
    }
    case NodeKind::kText:
      return doc->CreateText(n.value);
    case NodeKind::kComment:
      return doc->CreateComment(n.value);
    case NodeKind::kProcessingInstruction:
      return doc->CreateProcessingInstruction(n.local, n.value);
    default:
      ADD_FAILURE() << "unexpected generated kind";
      return nullptr;
  }
}

void PreorderElements(const GenNode& n, std::vector<const GenNode*>* out) {
  if (n.kind == NodeKind::kElement) out->push_back(&n);
  for (const GenNode& c : n.children) PreorderElements(c, out);
}

TEST(XmlBuilder, GeneratedDocumentsMatchTheGenerator) {
  int elements = 0, namespaced = 0, prefixed = 0, ids = 0, texts = 0;
  int dropped = 0;
  for (uint32_t seed = 1; seed <= 300; ++seed) {
    XmlGenerator gen(seed);
    GenNode want_all;
    const std::string xml = gen.Generate(&want_all);
    for (bool keep : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " keep_whitespace " +
                   std::to_string(keep) + ": " + xml);
      GenNode want = want_all;
      DropWhitespaceRuns(&want, keep);
      ParseOptions options;
      options.keep_whitespace_text = keep;
      auto parsed = ParseDocument(xml, options);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      Document* doc = parsed->get();
      EXPECT_EQ(doc->mutation_version(),
                1 + want.children.size());  // one attach per top-level node

      // Structure, then the index and id answers right after the parse.
      std::map<const GenNode*, const Node*> nodes;
      ExpectSameTree(want, doc->root(), &nodes, "");
      std::vector<const GenNode*> preorder;
      PreorderElements(want, &preorder);
      std::map<std::string, const Node*> first_by_id;
      std::map<std::pair<std::string, std::string>, std::vector<const Node*>>
          by_name;
      for (const GenNode* e : preorder) {
        by_name[{e->ns, e->local}].push_back(nodes.at(e));
        for (const GenNode& a : e->attributes) {
          if (a.ns.empty() && a.local == "id") {
            first_by_id.emplace(a.value, nodes.at(e));
          }
        }
      }
      for (const auto& [id, node] : first_by_id) {
        EXPECT_EQ(doc->GetElementById(id), node) << "id " << id;
      }
      EXPECT_EQ(doc->GetElementById("absent"), nullptr);
      for (const auto& [name, want_nodes] : by_name) {
        const std::vector<Node*>& got =
            doc->ElementsByName(QName(name.first, name.second));
        EXPECT_EQ(std::vector<const Node*>(got.begin(), got.end()),
                  want_nodes)
            << "{" << name.first << "}" << name.second;
      }

      // Serialization agrees with the same tree built node by node.
      Document expected;
      for (const GenNode& c : want.children) {
        expected.root()->AppendChild(BuildExpected(&expected, c));
      }
      EXPECT_EQ(Serialize(doc->root()), Serialize(expected.root()));

      // A copy attached once under a delta-tracked, indexed document
      // keeps its order keys and name buckets exact.
      Document target;
      Node* host = target.CreateElement(QName("host"));
      target.root()->AppendChild(host);
      target.set_delta_tracking(true);
      target.ElementsByName(QName("host"));
      const uint64_t before = target.mutation_version();
      Node* copy = target.ImportCopy(doc->DocumentElement());
      EXPECT_EQ(target.mutation_version(), before);
      host->AppendChild(copy);
      EXPECT_EQ(target.mutation_version(), before + 1);
      Status st = target.CheckInvariants();
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(Serialize(copy), Serialize(doc->DocumentElement()));
      st = doc->CheckInvariants();
      EXPECT_TRUE(st.ok()) << st.ToString();

      if (!keep) {
        elements += static_cast<int>(preorder.size());
        ids += static_cast<int>(first_by_id.size());
        for (const GenNode* e : preorder) {
          namespaced += e->ns.empty() ? 0 : 1;
          prefixed += e->prefix.empty() ? 0 : 1;
        }
      } else {
        std::function<void(const GenNode&)> count = [&](const GenNode& n) {
          if (n.kind == NodeKind::kText) {
            ++texts;
            dropped += n.whitespace_only ? 1 : 0;
          }
          for (const GenNode& c : n.children) count(c);
        };
        count(want);
      }
    }
  }
  // Vacuity floors: the seeds reach every feature the test is about.
  EXPECT_GT(elements, 900);
  EXPECT_GT(namespaced, 250);
  EXPECT_GT(prefixed, 50);
  EXPECT_GT(ids, 150);
  EXPECT_GT(texts, 700);
  EXPECT_GT(dropped, 150);
}

// Slab storage: a node keeps its address for the document's whole life,
// whichever slab it landed in, and is destroyed with the document (the
// sanitizer build reports any node or value left behind). The sizes sit
// on and around the first slab's and the largest slab's boundaries.
TEST(XmlBuilder, NodesKeepTheirAddressesAcrossSlabs) {
  for (size_t total : {1u, 4u, 5u, 256u, 257u, 10000u}) {
    SCOPED_TRACE("nodes " + std::to_string(total));
    auto doc = std::make_unique<Document>();
    std::vector<Node*> made;
    // Values past the small-string buffer, so a node that is never
    // destroyed leaks its heap value.
    auto value_of = [](size_t i) {
      return "node value number " + std::to_string(i) + " of the slab test";
    };
    Node* top = nullptr;
    if (total > 1) {
      top = doc->CreateElement(QName("top"));
      for (size_t i = 2; i < total; ++i) {
        Node* t = doc->CreateText(value_of(i));
        doc->BuildAppend(top, t);
        made.push_back(t);
      }
      doc->root()->AppendChild(top);
    }
    ASSERT_EQ(doc->node_count(), total);
    for (size_t i = 0; i < made.size(); ++i) {
      ASSERT_EQ(top->children()[i], made[i]);
      ASSERT_EQ(made[i]->value(), value_of(i + 2));
      ASSERT_EQ(made[i]->parent(), top);
      ASSERT_EQ(made[i]->document(), doc.get());
    }
    if (top != nullptr) {
      Status st = doc->CheckInvariants();
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    doc.reset();
  }
}

}  // namespace
}  // namespace xqib::xml
