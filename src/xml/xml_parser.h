// A namespace-aware XML / XHTML parser producing xqib::xml::Document.
//
// The parser is strict about well-formedness (the paper targets XHTML
// pages), including attribute uniqueness: a start tag may not repeat an
// expanded attribute name, also not through two prefixes bound to one
// URI. It builds every subtree on the Document's builder path and
// attaches it once (dom.h, BuildAppend). It offers two
// browser-flavoured options:
//   * ie_tag_folding — uppercases HTML element names, reproducing the
//     Internet Explorer behaviour reported in Section 5.1 of the paper
//     ("IE transforms all HTML tags to upper-case, so XPath expressions
//     have to contain upper-case names").
//   * keep_whitespace_text — whether whitespace-only text nodes between
//     elements are kept (default: dropped, the data-oriented behaviour).

#ifndef XQIB_XML_XML_PARSER_H_
#define XQIB_XML_XML_PARSER_H_

#include <memory>
#include <string>
#include <string_view>

#include "base/result.h"
#include "xml/dom.h"

namespace xqib::xml {

struct ParseOptions {
  bool ie_tag_folding = false;
  bool keep_whitespace_text = false;
  // Base URI recorded on the resulting document.
  std::string document_uri;
};

// Parses a complete XML document. Errors carry code FODC0006.
Result<std::unique_ptr<Document>> ParseDocument(std::string_view input,
                                                const ParseOptions& options);
Result<std::unique_ptr<Document>> ParseDocument(std::string_view input);

// Parses a fragment (sequence of content items) into children of `parent`
// within parent's document; each top-level item is attached with one
// AppendChild. Used by innerHTML.
Status ParseFragmentInto(std::string_view input, Node* parent,
                         const ParseOptions& options);

// Decodes the five predefined entities plus numeric character references.
Result<std::string> DecodeEntities(std::string_view text);

}  // namespace xqib::xml

#endif  // XQIB_XML_XML_PARSER_H_
