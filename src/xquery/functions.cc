// The fn: built-in function and operator library (XQuery 1.0 and XPath
// 2.0 Functions and Operators, reference [9] of the paper) — the subset
// a browser scripting workload exercises, plus date/time component
// extraction ("a powerful function and operator library, e.g. for dates
// and times", paper §1) and the xs: constructor functions. kLibrary at
// the end of this file is the table functions.h describes.

#include "xquery/functions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <regex>
#include <unordered_map>
#include <unordered_set>

#include "base/strings.h"
#include "xml/serializer.h"
#include "xquery/evaluator.h"

namespace xqib::xquery {

using analysis::Cardinality;
using analysis::ItemClass;
using xdm::AtomicType;
using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;

namespace {

using Args = std::vector<Sequence>;
using Rest = std::span<const Sequence>;

std::string StringArg(const Sequence& seq) {
  // fn-style string argument: empty sequence -> "".
  if (seq.empty()) return "";
  return seq[0].StringValue();
}

Result<Item> ContextItem(DynamicContext& ctx, const Builtin& self) {
  if (!ctx.focus().has_item) {
    return Status::Error("XPDY0002",
                         self.Lexical() + "() requires a context item");
  }
  return ctx.focus().item;
}

Result<double> NumericArg(const Sequence& seq, bool* empty) {
  Sequence data = xdm::Atomize(seq);
  if (data.empty()) {
    *empty = true;
    return 0.0;
  }
  *empty = false;
  if (data.size() > 1) {
    return Status::TypeError("expected a single numeric value");
  }
  return data[0].atomic().ToDouble();
}

bool DeepEqualNodes(const xml::Node* a, const xml::Node* b) {
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case xml::NodeKind::kText:
    case xml::NodeKind::kComment:
      return a->value() == b->value();
    case xml::NodeKind::kProcessingInstruction:
    case xml::NodeKind::kAttribute:
      return a->name() == b->name() && a->value() == b->value();
    case xml::NodeKind::kElement: {
      if (!(a->name() == b->name())) return false;
      if (a->attributes().size() != b->attributes().size()) return false;
      for (const xml::Node* attr : a->attributes()) {
        const xml::Node* other =
            b->FindAttribute(attr->name().ns(), attr->name().local());
        if (other == nullptr || other->value() != attr->value()) return false;
      }
      // Compare children ignoring comments/PIs, per fn:deep-equal.
      auto significant = [](const xml::Node* n) {
        return n->kind() == xml::NodeKind::kElement ||
               n->kind() == xml::NodeKind::kText;
      };
      std::vector<const xml::Node*> ca, cb;
      for (const xml::Node* c : a->children()) {
        if (significant(c)) ca.push_back(c);
      }
      for (const xml::Node* c : b->children()) {
        if (significant(c)) cb.push_back(c);
      }
      if (ca.size() != cb.size()) return false;
      for (size_t i = 0; i < ca.size(); ++i) {
        if (!DeepEqualNodes(ca[i], cb[i])) return false;
      }
      return true;
    }
    case xml::NodeKind::kDocument: {
      if (a->children().size() != b->children().size()) return false;
      for (size_t i = 0; i < a->children().size(); ++i) {
        if (!DeepEqualNodes(a->children()[i], b->children()[i])) return false;
      }
      return true;
    }
  }
  return false;
}

// Extracts a component from an ISO "YYYY-MM-DDThh:mm:ss[.fff]" string.
Result<int64_t> DateTimeComponent(const std::string& iso, int index) {
  // index: 0=year 1=month 2=day 3=hour 4=minute 5=second
  static const std::regex kIso(
      R"((\d{4})-(\d{2})-(\d{2})(?:T(\d{2}):(\d{2}):(\d{2})(?:\.\d+)?)?.*)");
  std::smatch m;
  if (!std::regex_match(iso, m, kIso)) {
    return Status::Error("FORG0001",
                         "invalid dateTime lexical form '" + iso + "'");
  }
  if (index >= 3 && !m[static_cast<size_t>(index + 1)].matched) {
    return Status::Error("FORG0001", "dateTime has no time part");
  }
  return static_cast<int64_t>(
      std::stol(m[static_cast<size_t>(index + 1)].str()));
}

Result<int64_t> TimeComponent(const std::string& iso, int index) {
  // index: 0=hour 1=minute 2=second for "hh:mm:ss" forms.
  static const std::regex kTime(R"((\d{2}):(\d{2}):(\d{2})(?:\.\d+)?.*)");
  std::smatch m;
  if (!std::regex_match(iso, m, kTime)) {
    return Status::Error("FORG0001",
                         "invalid time lexical form '" + iso + "'");
  }
  return static_cast<int64_t>(
      std::stol(m[static_cast<size_t>(index + 1)].str()));
}

// ------------------------------------------------------------ context ---

Result<Sequence> Position(const Builtin&, Args&, DynamicContext& ctx) {
  if (!ctx.focus().has_item) {
    return Status::Error("XPDY0002", "fn:position() without focus");
  }
  return Sequence{Item::Integer(ctx.focus().position)};
}

Result<Sequence> Last(const Builtin&, Args&, DynamicContext& ctx) {
  if (!ctx.focus().has_item) {
    return Status::Error("XPDY0002", "fn:last() without focus");
  }
  return Sequence{Item::Integer(ctx.focus().size)};
}

Result<Sequence> String(const Builtin& self, Args& args,
                        DynamicContext& ctx) {
  if (args.empty()) {
    XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, self));
    return Sequence{Item::String(item.StringValue())};
  }
  if (args[0].empty()) return Sequence{Item::String("")};
  if (args[0].size() > 1) {
    return Status::TypeError("fn:string of a sequence");
  }
  return Sequence{Item::String(args[0][0].StringValue())};
}

Result<Sequence> Data(const Builtin&, Args& args, DynamicContext&) {
  return xdm::Atomize(args[0]);
}

Result<Sequence> Number(const Builtin& self, Args& args,
                        DynamicContext& ctx) {
  Sequence input;
  if (args.empty()) {
    XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, self));
    input = {item};
  } else {
    input = args[0];
  }
  Sequence data = xdm::Atomize(input);
  if (data.size() != 1) return Sequence{Item::Double(std::nan(""))};
  Result<double> d = data[0].atomic().ToDouble();
  return Sequence{Item::Double(d.ok() ? *d : std::nan(""))};
}

// fn:name, fn:local-name and fn:namespace-uri: a part of the name of the
// argument node, or of the context item without one.
enum class NamePart { kLexical, kLocal, kNamespace };

template <NamePart kPart>
Result<Sequence> NodeNamePart(const Builtin& self, Args& args,
                              DynamicContext& ctx) {
  Item item;
  if (args.empty()) {
    XQ_ASSIGN_OR_RETURN(item, ContextItem(ctx, self));
  } else {
    if (args[0].empty()) return Sequence{Item::String("")};
    item = args[0][0];
  }
  if (!item.is_node()) {
    return Status::TypeError(self.Lexical() + " of a non-node");
  }
  const xml::QName& name = item.node()->name();
  if constexpr (kPart == NamePart::kLexical) {
    return Sequence{Item::String(name.Lexical())};
  } else if constexpr (kPart == NamePart::kLocal) {
    return Sequence{Item::String(name.local())};
  } else {
    return Sequence{Item::String(name.ns())};
  }
}

Result<Sequence> NodeName(const Builtin&, Args& args, DynamicContext&) {
  if (args[0].empty()) return Sequence{};
  if (!args[0][0].is_node()) return Status::TypeError("node-name arg");
  return Sequence{
      Item::Atomic(AtomicValue::MakeQName(args[0][0].node()->name()))};
}

Result<Sequence> Root(const Builtin& self, Args& args, DynamicContext& ctx) {
  Item item;
  if (args.empty()) {
    XQ_ASSIGN_OR_RETURN(item, ContextItem(ctx, self));
  } else {
    if (args[0].empty()) return Sequence{};
    item = args[0][0];
  }
  if (!item.is_node()) return Status::TypeError("fn:root of non-node");
  return Sequence{Item::Node(item.node()->Root())};
}

// ------------------------------------------------------------ boolean ---

template <bool kValue>
Result<Sequence> Constant(const Builtin&, Args&, DynamicContext&) {
  return Sequence{Item::Boolean(kValue)};
}

// ------------------------------------------------------------ numeric ---

double Abs(double d) { return std::fabs(d); }
double Ceiling(double d) { return std::ceil(d); }
double Floor(double d) { return std::floor(d); }
double RoundHalfUp(double d) { return std::floor(d + 0.5); }

// fn:abs, fn:ceiling, fn:floor and fn:round: an integer stays one.
template <double (*kOp)(double)>
Result<Sequence> Rounding(const Builtin&, Args& args, DynamicContext&) {
  bool empty = false;
  XQ_ASSIGN_OR_RETURN(double d, NumericArg(args[0], &empty));
  if (empty) return Sequence{};
  double r = kOp(d);
  Sequence data = xdm::Atomize(args[0]);
  if (data[0].atomic().type() == AtomicType::kInteger) {
    return Sequence{Item::Integer(static_cast<int64_t>(r))};
  }
  return Sequence{Item::Double(r)};
}

// ------------------------------------------------------------- string ---

Result<Sequence> Concat(const Builtin&, Args& args, DynamicContext&) {
  std::string out;
  for (const Sequence& a : args) out += StringArg(a);
  return Sequence{Item::String(out)};
}

Result<Sequence> StringJoin(const Builtin&, Args& args, DynamicContext&) {
  std::string sep = StringArg(args[1]);
  std::string out;
  for (size_t i = 0; i < args[0].size(); ++i) {
    if (i > 0) out += sep;
    out += args[0][i].StringValue();
  }
  return Sequence{Item::String(out)};
}

Result<Sequence> Substring(const Builtin&, Args& args, DynamicContext&) {
  std::vector<uint32_t> cps = Utf8ToCodepoints(StringArg(args[0]));
  bool empty = false;
  XQ_ASSIGN_OR_RETURN(double startd, NumericArg(args[1], &empty));
  if (empty) return Sequence{Item::String("")};
  double lend = static_cast<double>(cps.size()) - startd + 1;
  if (args.size() == 3) {
    XQ_ASSIGN_OR_RETURN(lend, NumericArg(args[2], &empty));
    if (empty) return Sequence{Item::String("")};
  }
  // XPath substring: round both, 1-based, handles NaN/negatives.
  double from = std::floor(startd + 0.5);
  double to = from + std::floor(lend + 0.5);
  std::vector<uint32_t> out;
  for (size_t i = 0; i < cps.size(); ++i) {
    double pos = static_cast<double>(i + 1);
    if (pos >= from && pos < to) out.push_back(cps[i]);
  }
  return Sequence{Item::String(CodepointsToUtf8(out))};
}

Result<Sequence> StringLength(const Builtin& self, Args& args,
                              DynamicContext& ctx) {
  std::string s;
  if (args.empty()) {
    XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, self));
    s = item.StringValue();
  } else {
    s = StringArg(args[0]);
  }
  return Sequence{Item::Integer(static_cast<int64_t>(Utf8Length(s)))};
}

// The paper's AJAX example (§4.4) calls fn:length on a string.
Result<Sequence> Length(const Builtin&, Args& args, DynamicContext&) {
  return Sequence{
      Item::Integer(static_cast<int64_t>(Utf8Length(StringArg(args[0]))))};
}

template <std::string (*kOp)(std::string_view)>
Result<Sequence> MapCase(const Builtin&, Args& args, DynamicContext&) {
  return Sequence{Item::String(kOp(StringArg(args[0])))};
}

// fn:contains, fn:starts-with and fn:ends-with.
template <bool (*kOp)(std::string_view, std::string_view)>
Result<Sequence> StringTest(const Builtin&, Args& args, DynamicContext&) {
  return Sequence{Item::Boolean(kOp(StringArg(args[0]), StringArg(args[1])))};
}

Result<Sequence> SubstringBefore(const Builtin&, Args& args,
                                 DynamicContext&) {
  std::string a = StringArg(args[0]), b = StringArg(args[1]);
  size_t pos = a.find(b);
  if (pos == std::string::npos || b.empty()) {
    return Sequence{Item::String("")};
  }
  return Sequence{Item::String(a.substr(0, pos))};
}

Result<Sequence> SubstringAfter(const Builtin&, Args& args, DynamicContext&) {
  std::string a = StringArg(args[0]), b = StringArg(args[1]);
  if (b.empty()) return Sequence{Item::String(a)};
  size_t pos = a.find(b);
  if (pos == std::string::npos) return Sequence{Item::String("")};
  return Sequence{Item::String(a.substr(pos + b.size()))};
}

Result<Sequence> Translate(const Builtin&, Args& args, DynamicContext&) {
  std::vector<uint32_t> src = Utf8ToCodepoints(StringArg(args[0]));
  std::vector<uint32_t> map_from = Utf8ToCodepoints(StringArg(args[1]));
  std::vector<uint32_t> map_to = Utf8ToCodepoints(StringArg(args[2]));
  std::vector<uint32_t> out;
  for (uint32_t cp : src) {
    auto it = std::find(map_from.begin(), map_from.end(), cp);
    if (it == map_from.end()) {
      out.push_back(cp);
    } else {
      size_t idx = static_cast<size_t>(it - map_from.begin());
      if (idx < map_to.size()) out.push_back(map_to[idx]);
    }
  }
  return Sequence{Item::String(CodepointsToUtf8(out))};
}

Result<Sequence> NormalizeSpaceFn(const Builtin& self, Args& args,
                                  DynamicContext& ctx) {
  std::string s;
  if (args.empty()) {
    XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, self));
    s = item.StringValue();
  } else {
    s = StringArg(args[0]);
  }
  return Sequence{Item::String(NormalizeSpace(s))};
}

Result<Sequence> Compare(const Builtin&, Args& args, DynamicContext&) {
  if (args[0].empty() || args[1].empty()) return Sequence{};
  int c = StringArg(args[0]).compare(StringArg(args[1]));
  return Sequence{Item::Integer(c < 0 ? -1 : (c > 0 ? 1 : 0))};
}

Result<Sequence> CodepointsToString(const Builtin&, Args& args,
                                    DynamicContext&) {
  std::vector<uint32_t> cps;
  for (const Item& i : xdm::Atomize(args[0])) {
    XQ_ASSIGN_OR_RETURN(int64_t cp, i.atomic().ToInteger());
    cps.push_back(static_cast<uint32_t>(cp));
  }
  return Sequence{Item::String(CodepointsToUtf8(cps))};
}

Result<Sequence> StringToCodepoints(const Builtin&, Args& args,
                                    DynamicContext&) {
  Sequence out;
  for (uint32_t cp : Utf8ToCodepoints(StringArg(args[0]))) {
    out.push_back(Item::Integer(cp));
  }
  return out;
}

// std::regex throws on malformed patterns; this is the one place we
// bridge an exception into a Status.
Result<std::regex> CompileRegex(const Sequence& pattern_arg) {
  std::string pattern = StringArg(pattern_arg);
  try {
    return std::regex(pattern, std::regex::ECMAScript);
  } catch (const std::regex_error& err) {
    return Status::Error("FORX0002", "invalid regular expression: " + pattern);
  }
}

Result<Sequence> Matches(const Builtin&, Args& args, DynamicContext&) {
  std::string input = StringArg(args[0]);
  XQ_ASSIGN_OR_RETURN(std::regex re, CompileRegex(args[1]));
  return Sequence{Item::Boolean(std::regex_search(input, re))};
}

Result<Sequence> Replace(const Builtin&, Args& args, DynamicContext&) {
  std::string input = StringArg(args[0]);
  XQ_ASSIGN_OR_RETURN(std::regex re, CompileRegex(args[1]));
  std::string repl = StringArg(args[2]);
  return Sequence{Item::String(std::regex_replace(input, re, repl))};
}

Result<Sequence> Tokenize(const Builtin&, Args& args, DynamicContext&) {
  std::string input = StringArg(args[0]);
  XQ_ASSIGN_OR_RETURN(std::regex re, CompileRegex(args[1]));
  Sequence out;
  std::sregex_token_iterator it(input.begin(), input.end(), re, -1), end;
  for (; it != end; ++it) out.push_back(Item::String(*it));
  return out;
}

Result<Sequence> EncodeForUri(const Builtin&, Args& args, DynamicContext&) {
  std::string out;
  for (unsigned char c : StringArg(args[0])) {
    if ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' ||
        c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    }
  }
  return Sequence{Item::String(out)};
}

// ----------------------------------------------------------- sequence ---

Result<Sequence> DistinctValues(const Builtin&, Args& args, DynamicContext&) {
  Sequence data = xdm::Atomize(args[0]);
  Sequence out;
  std::unordered_set<std::string> seen;
  for (Item& i : data) {
    // Distinctness by typed-value string form, numerics normalized.
    std::string key;
    if (i.atomic().is_numeric()) {
      Result<double> d = i.atomic().ToDouble();
      key = "N:" + (d.ok() ? DoubleToXPathString(*d) : i.StringValue());
    } else {
      key = "S:" + i.StringValue();
    }
    if (seen.insert(key).second) out.push_back(std::move(i));
  }
  return out;
}

Result<Sequence> Reverse(const Builtin&, Args& args, DynamicContext&) {
  return Sequence(args[0].rbegin(), args[0].rend());
}

Result<Sequence> Tail(const Builtin&, Args& args, DynamicContext&) {
  if (args[0].empty()) return Sequence{};
  return Sequence(args[0].begin() + 1, args[0].end());
}

Result<Sequence> InsertBefore(const Builtin&, Args& args, DynamicContext&) {
  bool empty = false;
  XQ_ASSIGN_OR_RETURN(double posd, NumericArg(args[1], &empty));
  int64_t pos = empty ? 1 : static_cast<int64_t>(posd);
  if (pos < 1) pos = 1;
  Sequence out;
  for (size_t i = 0; i < args[0].size(); ++i) {
    if (static_cast<int64_t>(i + 1) == pos) {
      out.insert(out.end(), args[2].begin(), args[2].end());
    }
    out.push_back(args[0][i]);
  }
  if (pos > static_cast<int64_t>(args[0].size())) {
    out.insert(out.end(), args[2].begin(), args[2].end());
  }
  return out;
}

Result<Sequence> Remove(const Builtin&, Args& args, DynamicContext&) {
  bool empty = false;
  XQ_ASSIGN_OR_RETURN(double posd, NumericArg(args[1], &empty));
  Sequence out;
  for (size_t i = 0; i < args[0].size(); ++i) {
    if (!empty && static_cast<double>(i + 1) == posd) continue;
    out.push_back(args[0][i]);
  }
  return out;
}

Result<Sequence> IndexOf(const Builtin&, Args& args, DynamicContext&) {
  Sequence data = xdm::Atomize(args[0]);
  Sequence needle = xdm::Atomize(args[1]);
  if (needle.size() != 1) {
    return Status::TypeError("fn:index-of needs a single search value");
  }
  Sequence out;
  for (size_t i = 0; i < data.size(); ++i) {
    Result<int> cmp = data[i].atomic().Compare(needle[0].atomic());
    if (cmp.ok() && *cmp == 0) {
      out.push_back(Item::Integer(static_cast<int64_t>(i + 1)));
    }
  }
  return out;
}

Result<Sequence> ExactlyOne(const Builtin&, Args& args, DynamicContext&) {
  if (args[0].size() != 1) {
    return Status::Error("FORG0005", "fn:exactly-one: sequence size " +
                                         std::to_string(args[0].size()));
  }
  return args[0];
}

Result<Sequence> ZeroOrOne(const Builtin&, Args& args, DynamicContext&) {
  if (args[0].size() > 1) {
    return Status::Error("FORG0003", "fn:zero-or-one: more than one item");
  }
  return args[0];
}

Result<Sequence> OneOrMore(const Builtin&, Args& args, DynamicContext&) {
  if (args[0].empty()) {
    return Status::Error("FORG0004", "fn:one-or-more: empty sequence");
  }
  return args[0];
}

Result<Sequence> DeepEqual(const Builtin&, Args& args, DynamicContext&) {
  if (args[0].size() != args[1].size()) {
    return Sequence{Item::Boolean(false)};
  }
  for (size_t i = 0; i < args[0].size(); ++i) {
    const Item& a = args[0][i];
    const Item& b = args[1][i];
    if (a.is_node() != b.is_node()) return Sequence{Item::Boolean(false)};
    if (a.is_node()) {
      if (!DeepEqualNodes(a.node(), b.node())) {
        return Sequence{Item::Boolean(false)};
      }
    } else {
      Result<int> cmp = a.atomic().Compare(b.atomic());
      if (!cmp.ok() || *cmp != 0) return Sequence{Item::Boolean(false)};
    }
  }
  return Sequence{Item::Boolean(true)};
}

// --------------------------------------------------------------- node ---

// Paper §4.2.1: fn:doc and fn:put are blocked in the browser.
Status DocumentAccess(const Builtin& self, DynamicContext& ctx) {
  if (ctx.browser_profile) {
    return Status::Error("BRWS0002", self.Lexical() +
                                         " is blocked in the browser "
                                         "profile for security reasons");
  }
  if (ctx.doc_resolver == nullptr) {
    return Status::Error("FODC0002", "no document resolver configured");
  }
  return Status();
}

Result<Sequence> Doc(const Builtin& self, Args& args, DynamicContext& ctx) {
  XQ_RETURN_NOT_OK(DocumentAccess(self, ctx));
  XQ_ASSIGN_OR_RETURN(xml::Node* doc, ctx.doc_resolver(StringArg(args[0])));
  return Sequence{Item::Node(doc)};
}

Result<Sequence> DocAvailable(const Builtin& self, Args& args,
                              DynamicContext& ctx) {
  XQ_RETURN_NOT_OK(DocumentAccess(self, ctx));
  return Sequence{Item::Boolean(ctx.doc_resolver(StringArg(args[0])).ok())};
}

Result<Sequence> Put(const Builtin&, Args& args, DynamicContext& ctx) {
  if (ctx.browser_profile) {
    return Status::Error("BRWS0002",
                         "fn:put is blocked in the browser profile");
  }
  if (ctx.doc_writer == nullptr) {
    return Status::Error("FODC0002", "no document writer configured");
  }
  if (args[0].size() != 1 || !args[0][0].is_node()) {
    return Status::TypeError("fn:put expects a single node");
  }
  XQ_RETURN_NOT_OK(ctx.doc_writer(StringArg(args[1]), args[0][0].node()));
  return Sequence{};
}

Result<Sequence> Id(const Builtin& self, Args& args, DynamicContext& ctx) {
  xml::Node* context_node = nullptr;
  if (args.size() == 2) {
    if (args[1].empty() || !args[1][0].is_node()) {
      return Status::TypeError("fn:id second argument must be a node");
    }
    context_node = args[1][0].node();
  } else {
    XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, self));
    if (!item.is_node()) return Status::TypeError("fn:id context");
    context_node = item.node();
  }
  Sequence out;
  for (const Item& idv : xdm::Atomize(args[0])) {
    for (const std::string& one :
         SplitChar(NormalizeSpace(idv.StringValue()), ' ')) {
      xml::Node* found = context_node->document()->GetElementById(one);
      if (found != nullptr) out.push_back(Item::Node(found));
    }
  }
  XQ_RETURN_NOT_OK(xdm::SortDocumentOrderDedup(&out));
  return out;
}

// ---------------------------------------------------------- date/time ---

Result<Sequence> CurrentDateTime(const Builtin&, Args&, DynamicContext& ctx) {
  return Sequence{Item::Atomic(AtomicValue::DateTime(ctx.clock()))};
}

Result<Sequence> CurrentDate(const Builtin&, Args&, DynamicContext& ctx) {
  std::string now = ctx.clock();
  return Sequence{Item::Atomic(AtomicValue::Date(now.substr(0, 10)))};
}

Result<Sequence> CurrentTime(const Builtin&, Args&, DynamicContext& ctx) {
  std::string now = ctx.clock();
  return Sequence{Item::Atomic(
      AtomicValue::Time(now.size() >= 19 ? now.substr(11, 8) : now))};
}

// kParse extracts component kIndex of a date, dateTime or time form.
template <Result<int64_t> (*kParse)(const std::string&, int), int kIndex>
Result<Sequence> Component(const Builtin&, Args& args, DynamicContext&) {
  if (args[0].empty()) return Sequence{};
  Sequence data = xdm::Atomize(args[0]);
  XQ_ASSIGN_OR_RETURN(int64_t v,
                      kParse(data[0].atomic().ToXPathString(), kIndex));
  return Sequence{Item::Integer(v)};
}

template <int kIndex>
constexpr Builtin::Plain kDateTimePart = Component<DateTimeComponent, kIndex>;
template <int kIndex>
constexpr Builtin::Plain kTimePart = Component<TimeComponent, kIndex>;

// --------------------------------------------------------------- misc ---

Result<Sequence> Error(const Builtin&, Args& args, DynamicContext&) {
  std::string code = "FOER0000";
  std::string msg = "error raised by fn:error";
  if (args.size() >= 1 && !args[0].empty()) code = args[0][0].StringValue();
  if (args.size() >= 2 && !args[1].empty()) msg = args[1][0].StringValue();
  return Status::Error(code, msg);
}

Result<Sequence> Serialize(const Builtin&, Args& args, DynamicContext&) {
  std::string out;
  for (const Item& item : args[0]) {
    if (item.is_node()) {
      out += xml::Serialize(item.node());
    } else {
      out += item.StringValue();
    }
  }
  return Sequence{Item::String(out)};
}

Result<Sequence> Trace(const Builtin&, Args& args, DynamicContext& ctx) {
  if (ctx.trace_sink) {
    ctx.trace_sink(StringArg(args[1]) + ": " +
                   xdm::SequenceToString(args[0]));
  }
  return args[0];
}

// xs:TYPE(value) constructor functions behave like "cast as".
Result<Sequence> Construct(const Builtin& self, Args& args, DynamicContext&) {
  Sequence data = xdm::Atomize(args[0]);
  if (data.empty()) return Sequence{};
  if (data.size() > 1) {
    return Status::TypeError("constructor applied to a sequence");
  }
  XQ_ASSIGN_OR_RETURN(AtomicValue v, data[0].atomic().CastTo(self.cast_to));
  return Sequence{Item::Atomic(std::move(v))};
}

// ------------------------------------------- stream-consuming builtins ---
// Each pulls its first argument: existence tests stop at one witness,
// aggregates fold item by item without buffering the sequence.

// fn:exists and fn:empty.
template <bool kExists>
Result<Sequence> Existence(const Builtin&, xdm::ItemStream& arg0, Rest,
                           Counters& counters) {
  Item item;
  XQ_ASSIGN_OR_RETURN(bool any, arg0.Next(&item));
  if (any) ++counters.early_exits;
  return Sequence{Item::Boolean(any == kExists)};
}

// fn:boolean and fn:not.
template <bool kNegate>
Result<Sequence> Ebv(const Builtin&, xdm::ItemStream& arg0, Rest,
                     Counters& counters) {
  XQ_ASSIGN_OR_RETURN(bool b, StreamEBV(arg0, counters));
  return Sequence{Item::Boolean(b != kNegate)};
}

Result<Sequence> Head(const Builtin&, xdm::ItemStream& arg0, Rest,
                      Counters& counters) {
  Sequence out;
  Item item;
  XQ_ASSIGN_OR_RETURN(bool any, arg0.Next(&item));
  if (any) {
    out.push_back(std::move(item));
    ++counters.early_exits;
  }
  return out;
}

Result<Sequence> Subsequence(const Builtin&, xdm::ItemStream& arg0,
                             Rest rest, Counters& counters) {
  bool empty = false;
  XQ_ASSIGN_OR_RETURN(double startd, NumericArg(rest[0], &empty));
  if (empty) return Sequence{};
  double lend = std::numeric_limits<double>::infinity();
  if (rest.size() == 2) {
    XQ_ASSIGN_OR_RETURN(lend, NumericArg(rest[1], &empty));
    if (empty) return Sequence{};
  }
  double from = std::floor(startd + 0.5);
  double to = from + (std::isinf(lend) ? lend : std::floor(lend + 0.5));
  Sequence out;
  Item item;
  int64_t i = 0;
  bool stopped = false;
  while (true) {
    XQ_ASSIGN_OR_RETURN(bool more, arg0.Next(&item));
    if (!more) break;
    double pos = static_cast<double>(++i);
    if (pos >= from && pos < to) out.push_back(std::move(item));
    // Past the window: nothing later can match (to is monotone in pos;
    // NaN bounds keep every comparison false and drain harmlessly).
    if (pos + 1 >= to) {
      stopped = true;
      break;
    }
  }
  if (stopped) ++counters.early_exits;
  return out;
}

Result<Sequence> Count(const Builtin&, xdm::ItemStream& arg0, Rest,
                       Counters& counters) {
  Item item;
  int64_t n = 0;
  while (true) {
    XQ_ASSIGN_OR_RETURN(bool more, arg0.Next(&item));
    if (!more) break;
    ++n;
  }
  ++counters.buffers_avoided;
  return Sequence{Item::Integer(n)};
}

// fn:sum and fn:avg: a true fold, atomizing item by item.
template <bool kAvg>
Result<Sequence> Total(const Builtin&, xdm::ItemStream& arg0, Rest rest,
                       Counters& counters) {
  Item item;
  double acc = 0;
  bool all_int = true;
  int64_t n = 0;
  while (true) {
    XQ_ASSIGN_OR_RETURN(bool more, arg0.Next(&item));
    if (!more) break;
    Sequence atoms = xdm::Atomize(Sequence{std::move(item)});
    for (const Item& a : atoms) {
      XQ_ASSIGN_OR_RETURN(double d, a.atomic().ToDouble());
      if (a.atomic().type() != AtomicType::kInteger) all_int = false;
      acc += d;
      ++n;
    }
  }
  if (n == 0) {
    if (kAvg) return Sequence{};
    if (!rest.empty()) return rest[0];
    return Sequence{Item::Integer(0)};
  }
  ++counters.buffers_avoided;
  if (kAvg) return Sequence{Item::Double(acc / static_cast<double>(n))};
  if (all_int) return Sequence{Item::Integer(static_cast<int64_t>(acc))};
  return Sequence{Item::Double(acc)};
}

// fn:min and fn:max need the whole atomized input to pick the
// numeric-vs-string comparison mode, so they buffer atoms — but never
// the source nodes.
template <bool kMin>
Result<Sequence> Extreme(const Builtin&, xdm::ItemStream& arg0, Rest,
                         Counters& counters) {
  Item item;
  Sequence data;
  while (true) {
    XQ_ASSIGN_OR_RETURN(bool more, arg0.Next(&item));
    if (!more) break;
    Sequence atoms = xdm::Atomize(Sequence{std::move(item)});
    for (Item& a : atoms) data.push_back(std::move(a));
  }
  counters.items_materialized += data.size();
  if (data.empty()) return Sequence{};
  bool numeric = true;
  for (const Item& i : data) {
    if (!i.atomic().is_numeric() && !i.atomic().is_untyped()) {
      numeric = false;
      break;
    }
  }
  if (!numeric) {
    std::string best = data[0].StringValue();
    for (const Item& i : data) {
      std::string s = i.StringValue();
      if (kMin ? s < best : s > best) best = s;
    }
    return Sequence{Item::String(best)};
  }
  bool all_int = true;
  double best = 0;
  bool first = true;
  for (const Item& i : data) {
    XQ_ASSIGN_OR_RETURN(double d, i.atomic().ToDouble());
    if (i.atomic().type() != AtomicType::kInteger) all_int = false;
    if (first || (kMin ? d < best : d > best)) best = d;
    first = false;
  }
  if (all_int) return Sequence{Item::Integer(static_cast<int64_t>(best))};
  return Sequence{Item::Double(best)};
}

// ---------------------------------------------------------- the table ---

struct ResultType {
  ItemClass cls;
  Cardinality card;
};

constexpr ResultType kAny{ItemClass::kAnyItem, Cardinality{}};
constexpr ResultType One(ItemClass cls) { return {cls, Cardinality{1, 1}}; }
constexpr ResultType Optional(ItemClass cls) {
  return {cls, Cardinality{0, 1}};
}

constexpr uint8_t kVariadic = Builtin::kVariadic;

constexpr Builtin Fn(std::string_view local, uint8_t min_arity,
                     uint8_t max_arity, Builtin::Plain plain,
                     ResultType result, uint16_t facts = 0) {
  Builtin b;
  b.local = local;
  b.min_arity = min_arity;
  b.max_arity = max_arity;
  b.plain = plain;
  b.result_class = result.cls;
  b.result_card = result.card;
  b.facts = facts;
  return b;
}

constexpr Builtin Streamed(std::string_view local, uint8_t min_arity,
                           uint8_t max_arity, Builtin::Streaming streaming,
                           ResultType result, uint16_t facts = 0) {
  Builtin b = Fn(local, min_arity, max_arity, nullptr, result, facts);
  b.streaming = streaming;
  return b;
}

constexpr Builtin Xs(std::string_view local, AtomicType cast_to,
                     ItemClass cls) {
  Builtin b = Fn(local, 1, 1, Construct, Optional(cls), kAtomicResult);
  b.xs = true;
  b.cast_to = cast_to;
  return b;
}

constexpr uint16_t kAtomic = kAtomicResult;
// The existence tests: what they skim may arrive in any order.
constexpr uint16_t kExistence =
    kAtomicResult | kSkimsArguments | kEmptinessOnly | kBooleanTest;

using IC = ItemClass;
using AT = AtomicType;

constexpr Builtin kLibrary[] = {
    // ------------------------------------------------------- context ---
    Fn("position", 0, 0, Position, One(IC::kInteger), kReadsPosition | kAtomic),
    Fn("last", 0, 0, Last, One(IC::kInteger), kReadsLast | kAtomic),
    // ------------------------------------------ accessors, conversion ---
    Fn("string", 0, 1, String, One(IC::kString), kAtomic),
    Fn("data", 1, 1, Data, kAny, kAtomic),
    Fn("number", 0, 1, Number, One(IC::kDouble), kAtomic),
    Fn("name", 0, 1, NodeNamePart<NamePart::kLexical>, One(IC::kString),
       kAtomic | kSkimsArguments),
    Fn("local-name", 0, 1, NodeNamePart<NamePart::kLocal>, One(IC::kString),
       kAtomic | kSkimsArguments),
    Fn("namespace-uri", 0, 1, NodeNamePart<NamePart::kNamespace>,
       One(IC::kString), kAtomic | kSkimsArguments),
    Fn("node-name", 1, 1, NodeName, kAny, kSkimsArguments),
    Fn("root", 0, 1, Root, kAny, kReadsAnywhere),
    // ------------------------------------------------------- boolean ---
    Streamed("boolean", 1, 1, Ebv<false>, One(IC::kBoolean), kExistence),
    Streamed("not", 1, 1, Ebv<true>, One(IC::kBoolean), kExistence),
    Fn("true", 0, 0, Constant<true>, One(IC::kBoolean), kAtomic | kBooleanTest),
    Fn("false", 0, 0, Constant<false>, One(IC::kBoolean),
       kAtomic | kBooleanTest),
    // --------------------------------------------- numeric, aggregate ---
    Streamed("count", 1, 1, Count, One(IC::kInteger),
             kAtomic | kSkimsArguments),
    Fn("abs", 1, 1, Rounding<Abs>, Optional(IC::kAnyAtomic), kAtomic),
    Fn("ceiling", 1, 1, Rounding<Ceiling>, Optional(IC::kAnyAtomic), kAtomic),
    Fn("floor", 1, 1, Rounding<Floor>, Optional(IC::kAnyAtomic), kAtomic),
    Fn("round", 1, 1, Rounding<RoundHalfUp>, Optional(IC::kAnyAtomic),
       kAtomic),
    Streamed("sum", 1, 2, Total<false>, One(IC::kAnyAtomic), kAtomic),
    Streamed("avg", 1, 1, Total<true>, Optional(IC::kAnyAtomic), kAtomic),
    Streamed("min", 1, 1, Extreme<true>, Optional(IC::kAnyAtomic), kAtomic),
    Streamed("max", 1, 1, Extreme<false>, Optional(IC::kAnyAtomic), kAtomic),
    // ------------------------------------------------------- strings ---
    Fn("concat", 2, kVariadic, Concat, One(IC::kString), kAtomic),
    Fn("string-join", 2, 2, StringJoin, One(IC::kString), kAtomic),
    Fn("substring", 2, 3, Substring, One(IC::kString), kAtomic),
    Fn("string-length", 0, 1, StringLength, One(IC::kInteger), kAtomic),
    Fn("length", 1, 1, Length, One(IC::kInteger), kAtomic),
    Fn("upper-case", 1, 1, MapCase<AsciiToUpper>, One(IC::kString), kAtomic),
    Fn("lower-case", 1, 1, MapCase<AsciiToLower>, One(IC::kString), kAtomic),
    Fn("contains", 2, 2, StringTest<Contains>, One(IC::kBoolean),
       kAtomic | kBooleanTest),
    Fn("starts-with", 2, 2, StringTest<StartsWith>, One(IC::kBoolean),
       kAtomic | kBooleanTest),
    Fn("ends-with", 2, 2, StringTest<EndsWith>, One(IC::kBoolean),
       kAtomic | kBooleanTest),
    Fn("substring-before", 2, 2, SubstringBefore, One(IC::kString), kAtomic),
    Fn("substring-after", 2, 2, SubstringAfter, One(IC::kString), kAtomic),
    Fn("translate", 3, 3, Translate, One(IC::kString), kAtomic),
    Fn("normalize-space", 0, 1, NormalizeSpaceFn, One(IC::kString), kAtomic),
    Fn("compare", 2, 2, Compare, kAny, kAtomic),
    Fn("codepoints-to-string", 1, 1, CodepointsToString, kAny, kAtomic),
    Fn("string-to-codepoints", 1, 1, StringToCodepoints, kAny, kAtomic),
    Fn("matches", 2, 2, Matches, One(IC::kBoolean), kAtomic),
    Fn("replace", 3, 3, Replace, One(IC::kString), kAtomic),
    Fn("tokenize", 2, 2, Tokenize, kAny, kAtomic),
    Fn("encode-for-uri", 1, 1, EncodeForUri, One(IC::kString), kAtomic),
    // ----------------------------------------------------- sequences ---
    Streamed("empty", 1, 1, Existence<false>, One(IC::kBoolean), kExistence),
    Streamed("exists", 1, 1, Existence<true>, One(IC::kBoolean), kExistence),
    Fn("distinct-values", 1, 1, DistinctValues, kAny, kAtomic),
    Fn("reverse", 1, 1, Reverse, kAny),
    Streamed("head", 1, 1, Head, kAny),
    Fn("tail", 1, 1, Tail, kAny),
    Streamed("subsequence", 2, 3, Subsequence, kAny),
    Fn("insert-before", 3, 3, InsertBefore, kAny),
    Fn("remove", 2, 2, Remove, kAny),
    Fn("index-of", 2, 2, IndexOf, kAny, kAtomic),
    Fn("exactly-one", 1, 1, ExactlyOne, One(IC::kAnyItem), kSkimsArguments),
    Fn("zero-or-one", 1, 1, ZeroOrOne, kAny, kSkimsArguments),
    Fn("one-or-more", 1, 1, OneOrMore, kAny, kSkimsArguments),
    Fn("deep-equal", 2, 2, DeepEqual, One(IC::kBoolean), kAtomic),
    // ----------------------------------------------------- documents ---
    Fn("doc", 1, 1, Doc, kAny, kReadsDocuments),
    Fn("doc-available", 1, 1, DocAvailable, One(IC::kBoolean),
       kReadsDocuments),
    Fn("put", 2, 2, Put, kAny, kWritesFabric),
    Fn("id", 1, 2, Id, kAny, kReadsAnywhere),
    // ----------------------------------------------------- date/time ---
    Fn("current-dateTime", 0, 0, CurrentDateTime, kAny, kReadsClock),
    Fn("current-date", 0, 0, CurrentDate, kAny, kReadsClock),
    Fn("current-time", 0, 0, CurrentTime, kAny, kReadsClock),
    Fn("year-from-dateTime", 1, 1, kDateTimePart<0>, kAny),
    Fn("month-from-dateTime", 1, 1, kDateTimePart<1>, kAny),
    Fn("day-from-dateTime", 1, 1, kDateTimePart<2>, kAny),
    Fn("hours-from-dateTime", 1, 1, kDateTimePart<3>, kAny),
    Fn("minutes-from-dateTime", 1, 1, kDateTimePart<4>, kAny),
    Fn("seconds-from-dateTime", 1, 1, kDateTimePart<5>, kAny),
    Fn("year-from-date", 1, 1, kDateTimePart<0>, kAny),
    Fn("month-from-date", 1, 1, kDateTimePart<1>, kAny),
    Fn("day-from-date", 1, 1, kDateTimePart<2>, kAny),
    Fn("hours-from-time", 1, 1, kTimePart<0>, kAny),
    Fn("minutes-from-time", 1, 1, kTimePart<1>, kAny),
    Fn("seconds-from-time", 1, 1, kTimePart<2>, kAny),
    // ---------------------------------------------------------- misc ---
    Fn("error", 0, 3, Error, kAny),
    Fn("serialize", 1, 1, Serialize, kAny, kAtomic),
    Fn("trace", 2, 2, Trace, kAny, kObservesHost),
    // ------------------------------------- xs: constructor functions ---
    Xs("string", AT::kString, IC::kString),
    Xs("boolean", AT::kBoolean, IC::kBoolean),
    Xs("integer", AT::kInteger, IC::kInteger),
    Xs("int", AT::kInteger, IC::kInteger),
    Xs("long", AT::kInteger, IC::kInteger),
    Xs("short", AT::kInteger, IC::kInteger),
    Xs("decimal", AT::kDecimal, IC::kDecimal),
    Xs("double", AT::kDouble, IC::kDouble),
    Xs("float", AT::kDouble, IC::kDouble),
    Xs("anyURI", AT::kAnyUri, IC::kString),
    Xs("untypedAtomic", AT::kUntypedAtomic, IC::kUntyped),
    Xs("dateTime", AT::kDateTime, IC::kAnyAtomic),
    Xs("date", AT::kDate, IC::kAnyAtomic),
    Xs("time", AT::kTime, IC::kAnyAtomic),
    Xs("QName", AT::kQName, IC::kAnyAtomic),
    Xs("duration", AT::kDayTimeDuration, IC::kAnyAtomic),
    Xs("dayTimeDuration", AT::kDayTimeDuration, IC::kAnyAtomic),
};

}  // namespace

const Builtin* FindBuiltin(const xml::QName& name) {
  using Index = std::unordered_map<const xml::InternedName*, const Builtin*>;
  static const Index* index = [] {
    auto* built = new Index;
    for (const Builtin& b : kLibrary) {
      built->emplace(
          xml::QName(b.xs ? xml::kXsNamespace : xml::kFnNamespace, b.local)
              .token(),
          &b);
    }
    return built;
  }();
  auto it = index->find(name.token());
  return it == index->end() ? nullptr : it->second;
}

std::span<const Builtin> BuiltinLibrary() { return kLibrary; }

Result<Sequence> CallBuiltin(const Builtin& builtin, Args& args,
                             DynamicContext& ctx) {
  if (!builtin.AcceptsArity(args.size())) {
    return Status::Error("XPST0017", "wrong number of arguments (" +
                                         std::to_string(args.size()) +
                                         ") for " + builtin.Lexical());
  }
  if (builtin.streaming == nullptr) return builtin.plain(builtin, args, ctx);
  xdm::SequenceCursor arg0(std::move(args[0]));
  Counters uncounted;
  return builtin.streaming(builtin, arg0, std::span(args).subspan(1),
                           uncounted);
}

}  // namespace xqib::xquery
