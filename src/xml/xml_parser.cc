#include "xml/xml_parser.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/strings.h"

namespace xqib::xml {

namespace {

Status ParseError(std::string_view message, size_t pos) {
  return Status::Error(
      "FODC0006", std::string(message) + " at offset " + std::to_string(pos));
}

const std::string* NoNamespaceUri() {
  static const std::string* const uri = InternString({});
  return uri;
}

// In-scope namespace declarations: prefix ("" for the default
// namespace) -> interned URI. An element that declares xmlns gets its
// own copy; every other element shares its parent's.
using NsBindings = std::vector<std::pair<std::string_view, const std::string*>>;

const std::string* LookupPrefix(const NsBindings& ns, std::string_view prefix) {
  for (const auto& [p, uri] : ns) {
    if (p == prefix) return uri;
  }
  if (prefix == "xml") {
    // Bound in every scope; interned once, on first use.
    static const std::string* const xml_uri = InternString(kXmlNamespace);
    return xml_uri;
  }
  return nullptr;
}

// Builds every subtree on Document's builder path (BuildAppend): nodes
// are created with their final names and linked directly. Only the
// nodes added to the attach point (the document node, or the fragment's
// parent) go through AppendChild, one record-key-notify each.
class Parser {
 public:
  Parser(std::string_view input, const ParseOptions& options, Node* attach)
      : in_(input), options_(options), doc_(attach->document()),
        attach_(attach) {}

  // Parses a whole document into the attach point, a document node.
  Status ParseDocument() {
    SkipBom();
    XQ_RETURN_NOT_OK(SkipMisc());
    if (!AtElementStart()) {
      return ParseError("expected document element", pos_);
    }
    XQ_RETURN_NOT_OK(ParseElement(attach_, NsBindings()));
    XQ_RETURN_NOT_OK(SkipMisc());
    if (pos_ != in_.size()) {
      return ParseError("content after document element", pos_);
    }
    return Status();
  }

  // Parses mixed content (text + elements) until end of input.
  Status ParseFragment() {
    return ParseContent(attach_, NsBindings(), /*in_fragment=*/true);
  }

 private:
  bool Eof() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  bool LookingAt(std::string_view s) const {
    return in_.size() - pos_ >= s.size() && in_.substr(pos_, s.size()) == s;
  }
  void SkipBom() {
    if (LookingAt("\xEF\xBB\xBF")) pos_ += 3;
  }
  void SkipWhitespace() {
    while (!Eof() && IsXmlWhitespace(Peek())) ++pos_;
  }
  bool AtElementStart() const {
    return pos_ < in_.size() && in_[pos_] == '<' && pos_ + 1 < in_.size() &&
           IsNameStartChar(in_[pos_ + 1]);
  }

  // Links a finished node under `parent`: through AppendChild at the
  // attach point, on the builder path below it.
  void Add(Node* parent, Node* node) {
    if (parent == attach_) {
      parent->AppendChild(node);
    } else {
      doc_->BuildAppend(parent, node);
    }
  }

  // Skips XML decl, doctype, comments, PIs, whitespace at document level.
  Status SkipMisc() {
    while (!Eof()) {
      SkipWhitespace();
      if (LookingAt("<?xml")) {
        size_t end = in_.find("?>", pos_);
        if (end == std::string_view::npos) {
          return ParseError("unterminated XML declaration", pos_);
        }
        pos_ = end + 2;
      } else if (LookingAt("<!DOCTYPE") || LookingAt("<!doctype")) {
        // Skip to matching '>' (no internal subset support needed for
        // XHTML doctypes).
        int depth = 0;
        while (!Eof()) {
          char c = in_[pos_++];
          if (c == '[') ++depth;
          if (c == ']') --depth;
          if (c == '>' && depth == 0) break;
        }
      } else if (LookingAt("<!--")) {
        XQ_RETURN_NOT_OK(ParseComment(attach_));
      } else if (LookingAt("<?")) {
        XQ_RETURN_NOT_OK(ParsePI(attach_));
      } else {
        break;
      }
    }
    return Status();
  }

  // A view of the name at pos_ into the input.
  Status ParseName(std::string_view* out) {
    size_t start = pos_;
    if (Eof() || !IsNameStartChar(Peek())) {
      return ParseError("expected name", pos_);
    }
    while (!Eof() && (IsNameChar(Peek()) || Peek() == ':')) ++pos_;
    *out = in_.substr(start, pos_ - start);
    return Status();
  }

  // Resolves the lexical name "p:local" or "local" against `ns`.
  // Unprefixed attribute names are in no namespace. Each distinct
  // (lexical name, URI its prefix or default namespace is bound to) is
  // interned once per parse; the URI in the key keeps a redeclared
  // prefix or default namespace from reusing an outer scope's answer.
  Result<QName> ResolveName(std::string_view raw, const NsBindings& ns,
                            bool is_attribute) {
    const size_t colon = raw.find(':');
    const std::string* uri = NoNamespaceUri();
    if (colon != std::string_view::npos) {
      uri = LookupPrefix(ns, raw.substr(0, colon));
      if (uri == nullptr) {
        return ParseError("undeclared namespace prefix '" +
                              std::string(raw.substr(0, colon)) + "'",
                          pos_);
      }
    } else if (!is_attribute) {
      if (const std::string* def = LookupPrefix(ns, "")) uri = def;
    }
    // IE folding uppercases unprefixed element names only (namespaced
    // content such as SVG is untouched by IE too).
    const bool fold = options_.ie_tag_folding && !is_attribute &&
                      colon == std::string_view::npos;
    auto [it, fresh] = names_.try_emplace(NameKey{raw, uri, fold});
    if (fresh) {
      if (colon == std::string_view::npos) {
        it->second = QName(*uri, fold ? AsciiToUpper(raw) : std::string(raw));
      } else {
        it->second = QName(*uri, raw.substr(0, colon), raw.substr(colon + 1));
      }
    }
    return it->second;
  }

  Status ParseComment(Node* parent) {
    pos_ += 4;  // "<!--"
    size_t end = in_.find("-->", pos_);
    if (end == std::string_view::npos) {
      return ParseError("unterminated comment", pos_);
    }
    Add(parent, doc_->CreateComment(std::string(in_.substr(pos_, end - pos_))));
    pos_ = end + 3;
    return Status();
  }

  Status ParsePI(Node* parent) {
    pos_ += 2;  // "<?"
    std::string_view target;
    XQ_RETURN_NOT_OK(ParseName(&target));
    size_t end = in_.find("?>", pos_);
    if (end == std::string_view::npos) {
      return ParseError("unterminated processing instruction", pos_);
    }
    std::string data(TrimWhitespace(in_.substr(pos_, end - pos_)));
    Add(parent, doc_->CreateProcessingInstruction(std::string(target),
                                                  std::move(data)));
    pos_ = end + 2;
    return Status();
  }

  Status ParseCData(Node* parent) {
    pos_ += 9;  // "<![CDATA["
    size_t end = in_.find("]]>", pos_);
    if (end == std::string_view::npos) {
      return ParseError("unterminated CDATA section", pos_);
    }
    Add(parent, doc_->CreateText(std::string(in_.substr(pos_, end - pos_))));
    pos_ = end + 3;
    return Status();
  }

  // Reads the start tag's attributes into attrs_, values decoded. Names
  // are resolved by the caller once every xmlns of the tag is known.
  Status ParseAttributes() {
    attrs_.clear();
    while (true) {
      SkipWhitespace();
      if (Eof()) return ParseError("unterminated start tag", pos_);
      if (Peek() == '>' || Peek() == '/') return Status();
      std::string_view raw_name;
      XQ_RETURN_NOT_OK(ParseName(&raw_name));
      SkipWhitespace();
      if (Eof() || Peek() != '=') {
        return ParseError("expected '=' after attribute name", pos_);
      }
      ++pos_;
      SkipWhitespace();
      if (Eof() || (Peek() != '"' && Peek() != '\'')) {
        return ParseError("expected quoted attribute value", pos_);
      }
      char quote = Peek();
      ++pos_;
      size_t end = in_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return ParseError("unterminated attribute value", pos_);
      }
      XQ_ASSIGN_OR_RETURN(std::string value,
                          DecodeEntities(in_.substr(pos_, end - pos_)));
      pos_ = end + 1;
      const bool decl = raw_name == "xmlns" || StartsWith(raw_name, "xmlns:");
      attrs_.push_back(
          PendingAttr{raw_name, std::move(value), decl, std::nullopt});
    }
  }

  // Applies the tag's namespace declarations: returns `outer` when there
  // are none, else `own` (a copy of `outer` with the declarations bound).
  const NsBindings& BindDeclarations(const NsBindings& outer, NsBindings* own) {
    const NsBindings* ns = &outer;
    for (const PendingAttr& a : attrs_) {
      if (!a.decl) continue;
      const std::string_view prefix = a.raw == "xmlns" ? "" : a.raw.substr(6);
      if (ns == &outer) {
        *own = outer;
        ns = own;
      }
      const std::string* uri = InternString(a.value);
      auto it = std::find_if(own->begin(), own->end(),
                             [&](const auto& b) { return b.first == prefix; });
      if (it == own->end()) {
        own->emplace_back(prefix, uri);
      } else {
        it->second = uri;
      }
    }
    return *ns;
  }

  // Resolves every attribute of the tag and rejects a repeated one: the
  // same lexical name twice, or two names with one expanded name (two
  // prefixes bound to one URI). XML 1.0 "Unique Att Spec", Namespaces in
  // XML "Attributes Unique".
  Status ResolveAttributes(const NsBindings& ns) {
    for (size_t i = 0; i < attrs_.size(); ++i) {
      PendingAttr& a = attrs_[i];
      if (!a.decl) {
        XQ_ASSIGN_OR_RETURN(a.name, ResolveName(a.raw, ns, true));
      }
      for (size_t j = 0; j < i; ++j) {
        const PendingAttr& b = attrs_[j];
        if (a.raw == b.raw || (!a.decl && !b.decl && *a.name == *b.name)) {
          return ParseError("duplicate attribute '" + std::string(a.raw) +
                                "'",
                            pos_);
        }
      }
    }
    return Status();
  }

  // Parses one element with its content, then adds it to `parent`.
  Status ParseElement(Node* parent, const NsBindings& outer_ns) {
    assert(Peek() == '<');
    ++pos_;
    std::string_view raw_name;
    XQ_RETURN_NOT_OK(ParseName(&raw_name));
    XQ_RETURN_NOT_OK(ParseAttributes());
    NsBindings own_ns;
    const NsBindings& ns = BindDeclarations(outer_ns, &own_ns);
    XQ_ASSIGN_OR_RETURN(QName name, ResolveName(raw_name, ns, false));
    XQ_RETURN_NOT_OK(ResolveAttributes(ns));
    Node* element = doc_->CreateElement(name);
    for (PendingAttr& a : attrs_) {
      if (a.decl) continue;
      doc_->BuildAppend(element,
                        doc_->CreateAttribute(*a.name, std::move(a.value)));
    }

    if (Peek() == '/') {
      ++pos_;
      if (Eof() || Peek() != '>') return ParseError("expected '>'", pos_);
      ++pos_;
      Add(parent, element);
      return Status();
    }
    assert(Peek() == '>');
    ++pos_;

    // Browser rule: <script> and <style> content is raw text, never
    // markup (pages embed XQuery/JavaScript with '<' freely).
    if (AsciiEqualsIgnoreCase(raw_name, "script") ||
        AsciiEqualsIgnoreCase(raw_name, "style")) {
      XQ_RETURN_NOT_OK(ParseRawTextElement(element, raw_name));
      Add(parent, element);
      return Status();
    }

    XQ_RETURN_NOT_OK(ParseContent(element, ns, /*in_fragment=*/false));

    // End tag.
    if (!LookingAt("</")) return ParseError("expected end tag", pos_);
    pos_ += 2;
    std::string_view end_name;
    XQ_RETURN_NOT_OK(ParseName(&end_name));
    if (!SameTagName(end_name, raw_name)) {
      return ParseError("mismatched end tag </" + std::string(end_name) +
                            "> for <" + std::string(raw_name) + ">",
                        pos_);
    }
    SkipWhitespace();
    if (Eof() || Peek() != '>') return ParseError("expected '>'", pos_);
    ++pos_;
    Add(parent, element);
    return Status();
  }

  // Scans raw content up to the matching end tag (case-insensitive) and
  // stores it as one text node. A wrapping <![CDATA[ ... ]]> (the XHTML
  // idiom for scripts) is stripped.
  Status ParseRawTextElement(Node* element, std::string_view raw_name) {
    std::string close = "</" + AsciiToLower(raw_name);
    size_t end = std::string_view::npos;
    for (size_t i = pos_; i + close.size() <= in_.size(); ++i) {
      if (AsciiEqualsIgnoreCase(in_.substr(i, close.size()), close)) {
        end = i;
        break;
      }
    }
    if (end == std::string_view::npos) {
      return ParseError("unterminated <" + std::string(raw_name) + "> element",
                        pos_);
    }
    std::string_view content = in_.substr(pos_, end - pos_);
    std::string_view trimmed = TrimWhitespace(content);
    if (StartsWith(trimmed, "<![CDATA[") && EndsWith(trimmed, "]]>")) {
      content = trimmed.substr(9, trimmed.size() - 12);
    }
    if (!TrimWhitespace(content).empty()) {
      doc_->BuildAppend(element, doc_->CreateText(std::string(content)));
    }
    pos_ = end + close.size();
    SkipWhitespace();
    if (Eof() || Peek() != '>') return ParseError("expected '>'", pos_);
    ++pos_;
    return Status();
  }

  Status ParseContent(Node* parent, const NsBindings& ns, bool in_fragment) {
    while (!Eof()) {
      if (Peek() != '<') {
        // One text run, sliced out of the input up to the next markup.
        const size_t end = std::min(in_.find('<', pos_), in_.size());
        const std::string_view run = in_.substr(pos_, end - pos_);
        pos_ = end;
        if (!TrimWhitespace(run).empty() || options_.keep_whitespace_text) {
          XQ_ASSIGN_OR_RETURN(std::string decoded, DecodeEntities(run));
          Add(parent, doc_->CreateText(std::move(decoded)));
        }
        continue;
      }
      if (LookingAt("</")) {
        if (in_fragment) {
          return ParseError("unexpected end tag in fragment", pos_);
        }
        return Status();
      }
      if (LookingAt("<!--")) {
        XQ_RETURN_NOT_OK(ParseComment(parent));
      } else if (LookingAt("<![CDATA[")) {
        XQ_RETURN_NOT_OK(ParseCData(parent));
      } else if (LookingAt("<?")) {
        XQ_RETURN_NOT_OK(ParsePI(parent));
      } else if (AtElementStart()) {
        XQ_RETURN_NOT_OK(ParseElement(parent, ns));
      } else {
        return ParseError("malformed markup", pos_);
      }
    }
    if (!in_fragment) return ParseError("unexpected end of input", pos_);
    return Status();
  }

  // End-tag matching; under IE folding, unprefixed names match after
  // folding, as IE compares them.
  bool SameTagName(std::string_view end_name, std::string_view start) const {
    if (!options_.ie_tag_folding) return end_name == start;
    auto fold = [](std::string_view raw) {
      return raw.find(':') != std::string_view::npos ? std::string(raw)
                                                     : AsciiToUpper(raw);
    };
    return fold(end_name) == fold(start);
  }

  struct PendingAttr {
    std::string_view raw;
    std::string value;
    bool decl;                  // xmlns or xmlns:prefix
    std::optional<QName> name;  // resolved; unset for declarations
  };

  struct NameKey {
    std::string_view raw;
    const std::string* uri;
    bool fold;
    bool operator==(const NameKey&) const = default;
  };
  struct NameKeyHash {
    size_t operator()(const NameKey& k) const noexcept {
      const size_t h = std::hash<std::string_view>{}(k.raw);
      return h ^ (std::hash<const void*>{}(k.uri) + 0x9e3779b97f4a7c15ULL +
                  (h << 6) + (h >> 2) + (k.fold ? 1 : 0));
    }
  };

  std::string_view in_;
  const ParseOptions& options_;
  Document* doc_;
  Node* attach_;
  size_t pos_ = 0;
  // The current start tag's attributes; consumed before its content is
  // parsed, so one buffer serves every element.
  std::vector<PendingAttr> attrs_;
  std::unordered_map<NameKey, QName, NameKeyHash> names_;
};

}  // namespace

Result<std::string> DecodeEntities(std::string_view text) {
  if (text.find('&') == std::string_view::npos) return std::string(text);
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      out.push_back(text[i++]);
      continue;
    }
    size_t semi = text.find(';', i);
    if (semi == std::string_view::npos) {
      return ParseError("unterminated entity reference", i);
    }
    std::string_view ent = text.substr(i + 1, semi - i - 1);
    if (ent == "lt") {
      out.push_back('<');
    } else if (ent == "gt") {
      out.push_back('>');
    } else if (ent == "amp") {
      out.push_back('&');
    } else if (ent == "quot") {
      out.push_back('"');
    } else if (ent == "apos") {
      out.push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      uint32_t cp = 0;
      bool ok = ent.size() > 1;
      if (ent.size() > 2 && (ent[1] == 'x' || ent[1] == 'X')) {
        for (char c : ent.substr(2)) {
          if (c >= '0' && c <= '9') cp = cp * 16 + (c - '0');
          else if (c >= 'a' && c <= 'f') cp = cp * 16 + (c - 'a' + 10);
          else if (c >= 'A' && c <= 'F') cp = cp * 16 + (c - 'A' + 10);
          else { ok = false; break; }
        }
      } else {
        for (char c : ent.substr(1)) {
          if (c >= '0' && c <= '9') cp = cp * 10 + (c - '0');
          else { ok = false; break; }
        }
      }
      if (!ok) return ParseError("bad character reference", i);
      AppendUtf8(cp, &out);
    } else {
      return ParseError("unknown entity '&" + std::string(ent) + ";'", i);
    }
    i = semi + 1;
  }
  return out;
}

Result<std::unique_ptr<Document>> ParseDocument(std::string_view input,
                                                const ParseOptions& options) {
  auto doc = std::make_unique<Document>();
  doc->set_uri(options.document_uri);
  Parser parser(input, options, doc->root());
  XQ_RETURN_NOT_OK(parser.ParseDocument());
  return doc;
}

Result<std::unique_ptr<Document>> ParseDocument(std::string_view input) {
  return ParseDocument(input, ParseOptions());
}

Status ParseFragmentInto(std::string_view input, Node* parent,
                         const ParseOptions& options) {
  Parser parser(input, options, parent);
  return parser.ParseFragment();
}

}  // namespace xqib::xml
