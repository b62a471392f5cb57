// The fn: built-in function and operator library (XQuery 1.0 and XPath
// 2.0 Functions and Operators, reference [9] of the paper) — the subset
// a browser scripting workload exercises, plus date/time component
// extraction ("a powerful function and operator library, e.g. for dates
// and times", paper §1).

#include <algorithm>
#include <cmath>
#include <regex>
#include <unordered_set>

#include "base/strings.h"
#include "xml/serializer.h"
#include "xquery/evaluator.h"
#include "xquery/update.h"

namespace xqib::xquery {

using xdm::AtomicType;
using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;

namespace {

Status WrongArity(const std::string& name, size_t n) {
  return Status::Error("XPST0017", "wrong number of arguments (" +
                                       std::to_string(n) + ") for fn:" +
                                       name);
}

std::string StringArg(const Sequence& seq) {
  // fn-style string argument: empty sequence -> "".
  if (seq.empty()) return "";
  return seq[0].StringValue();
}

Result<Item> ContextItem(DynamicContext& ctx, const std::string& fn) {
  if (!ctx.focus().has_item) {
    return Status::Error("XPDY0002",
                         "fn:" + fn + "() requires a context item");
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

}  // namespace

Result<Sequence> CallBuiltinFunction(const xml::QName& name,
                                     std::vector<Sequence>& args,
                                     Evaluator& ev, DynamicContext& ctx,
                                     bool* handled) {
  (void)ev;
  *handled = true;
  if (name.ns() != xml::kFnNamespace && name.ns() != xml::kXsNamespace) {
    *handled = false;
    return Sequence{};
  }

  // xs:TYPE(value) constructor functions behave like "cast as".
  if (name.ns() == xml::kXsNamespace) {
    static const std::unordered_map<std::string, AtomicType> kCtors = {
        {"string", AtomicType::kString},
        {"boolean", AtomicType::kBoolean},
        {"integer", AtomicType::kInteger},
        {"int", AtomicType::kInteger},
        {"decimal", AtomicType::kDecimal},
        {"double", AtomicType::kDouble},
        {"float", AtomicType::kDouble},
        {"anyURI", AtomicType::kAnyUri},
        {"untypedAtomic", AtomicType::kUntypedAtomic},
        {"dateTime", AtomicType::kDateTime},
        {"date", AtomicType::kDate},
        {"time", AtomicType::kTime},
    };
    auto it = kCtors.find(name.local());
    if (it == kCtors.end()) {
      *handled = false;
      return Sequence{};
    }
    if (args.size() != 1) return WrongArity(name.Lexical(), args.size());
    Sequence data = xdm::Atomize(args[0]);
    if (data.empty()) return Sequence{};
    if (data.size() > 1) {
      return Status::TypeError("constructor applied to a sequence");
    }
    XQ_ASSIGN_OR_RETURN(AtomicValue v, data[0].atomic().CastTo(it->second));
    return Sequence{Item::Atomic(std::move(v))};
  }

  const std::string& fn = name.local();
  size_t n = args.size();

  // ---------------------------------------------------------- context ---
  if (fn == "position") {
    if (n != 0) return WrongArity(fn, n);
    if (!ctx.focus().has_item) {
      return Status::Error("XPDY0002", "fn:position() without focus");
    }
    return Sequence{Item::Integer(ctx.focus().position)};
  }
  if (fn == "last") {
    if (n != 0) return WrongArity(fn, n);
    if (!ctx.focus().has_item) {
      return Status::Error("XPDY0002", "fn:last() without focus");
    }
    return Sequence{Item::Integer(ctx.focus().size)};
  }
  if (fn == "string") {
    if (n == 0) {
      XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, fn));
      return Sequence{Item::String(item.StringValue())};
    }
    if (n != 1) return WrongArity(fn, n);
    if (args[0].empty()) return Sequence{Item::String("")};
    if (args[0].size() > 1) {
      return Status::TypeError("fn:string of a sequence");
    }
    return Sequence{Item::String(args[0][0].StringValue())};
  }
  if (fn == "data") {
    if (n != 1) return WrongArity(fn, n);
    return xdm::Atomize(args[0]);
  }
  if (fn == "number") {
    Sequence input;
    if (n == 0) {
      XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, fn));
      input = {item};
    } else if (n == 1) {
      input = args[0];
    } else {
      return WrongArity(fn, n);
    }
    Sequence data = xdm::Atomize(input);
    if (data.size() != 1) return Sequence{Item::Double(std::nan(""))};
    Result<double> d = data[0].atomic().ToDouble();
    return Sequence{Item::Double(d.ok() ? *d : std::nan(""))};
  }
  if (fn == "name" || fn == "local-name" || fn == "namespace-uri") {
    xml::Node* node = nullptr;
    if (n == 0) {
      XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, fn));
      if (!item.is_node()) {
        return Status::TypeError("fn:" + fn + " of a non-node");
      }
      node = item.node();
    } else if (n == 1) {
      if (args[0].empty()) return Sequence{Item::String("")};
      if (!args[0][0].is_node()) {
        return Status::TypeError("fn:" + fn + " of a non-node");
      }
      node = args[0][0].node();
    } else {
      return WrongArity(fn, n);
    }
    if (fn == "name") return Sequence{Item::String(node->name().Lexical())};
    if (fn == "local-name") return Sequence{Item::String(node->name().local())};
    return Sequence{Item::String(node->name().ns())};
  }
  if (fn == "node-name") {
    if (n != 1) return WrongArity(fn, n);
    if (args[0].empty()) return Sequence{};
    if (!args[0][0].is_node()) return Status::TypeError("node-name arg");
    return Sequence{
        Item::Atomic(AtomicValue::MakeQName(args[0][0].node()->name()))};
  }
  if (fn == "root") {
    xml::Node* node = nullptr;
    if (n == 0) {
      XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, fn));
      if (!item.is_node()) return Status::TypeError("fn:root of non-node");
      node = item.node();
    } else if (n == 1) {
      if (args[0].empty()) return Sequence{};
      if (!args[0][0].is_node()) {
        return Status::TypeError("fn:root of non-node");
      }
      node = args[0][0].node();
    } else {
      return WrongArity(fn, n);
    }
    return Sequence{Item::Node(node->Root())};
  }

  // ---------------------------------------------------------- boolean ---
  // boolean, not, count, sum, avg, min, max, empty, exists, head and
  // subsequence are stream-consumable: CallStreamBuiltin below is their
  // one implementation, and Evaluator::CallFunction routes them there.
  if (fn == "true") return Sequence{Item::Boolean(true)};
  if (fn == "false") return Sequence{Item::Boolean(false)};

  // ---------------------------------------------------------- numeric ---
  if (fn == "abs" || fn == "ceiling" || fn == "floor" || fn == "round") {
    if (n != 1) return WrongArity(fn, n);
    bool empty = false;
    XQ_ASSIGN_OR_RETURN(double d, NumericArg(args[0], &empty));
    if (empty) return Sequence{};
    double r = fn == "abs"       ? std::fabs(d)
               : fn == "ceiling" ? std::ceil(d)
               : fn == "floor"   ? std::floor(d)
                                 : std::floor(d + 0.5);
    Sequence data = xdm::Atomize(args[0]);
    if (data[0].atomic().type() == AtomicType::kInteger) {
      return Sequence{Item::Integer(static_cast<int64_t>(r))};
    }
    return Sequence{Item::Double(r)};
  }

  // ----------------------------------------------------------- string ---
  if (fn == "concat") {
    if (n < 2) return WrongArity(fn, n);
    std::string out;
    for (const Sequence& a : args) out += StringArg(a);
    return Sequence{Item::String(out)};
  }
  if (fn == "string-join") {
    if (n != 2) return WrongArity(fn, n);
    std::string sep = StringArg(args[1]);
    std::string out;
    for (size_t i = 0; i < args[0].size(); ++i) {
      if (i > 0) out += sep;
      out += args[0][i].StringValue();
    }
    return Sequence{Item::String(out)};
  }
  if (fn == "substring") {
    if (n < 2 || n > 3) return WrongArity(fn, n);
    std::vector<uint32_t> cps = Utf8ToCodepoints(StringArg(args[0]));
    bool empty = false;
    XQ_ASSIGN_OR_RETURN(double startd, NumericArg(args[1], &empty));
    if (empty) return Sequence{Item::String("")};
    double lend = static_cast<double>(cps.size()) - startd + 1;
    if (n == 3) {
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
  if (fn == "string-length") {
    std::string s;
    if (n == 0) {
      XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, fn));
      s = item.StringValue();
    } else if (n == 1) {
      s = StringArg(args[0]);
    } else {
      return WrongArity(fn, n);
    }
    return Sequence{Item::Integer(static_cast<int64_t>(Utf8Length(s)))};
  }
  // The paper's AJAX example (§4.4) calls fn:length on a string.
  if (fn == "length") {
    if (n != 1) return WrongArity(fn, n);
    return Sequence{
        Item::Integer(static_cast<int64_t>(Utf8Length(StringArg(args[0]))))};
  }
  if (fn == "upper-case") {
    if (n != 1) return WrongArity(fn, n);
    return Sequence{Item::String(AsciiToUpper(StringArg(args[0])))};
  }
  if (fn == "lower-case") {
    if (n != 1) return WrongArity(fn, n);
    return Sequence{Item::String(AsciiToLower(StringArg(args[0])))};
  }
  if (fn == "contains" || fn == "starts-with" || fn == "ends-with") {
    if (n != 2) return WrongArity(fn, n);
    std::string a = StringArg(args[0]), b = StringArg(args[1]);
    bool r = fn == "contains"      ? Contains(a, b)
             : fn == "starts-with" ? StartsWith(a, b)
                                   : EndsWith(a, b);
    return Sequence{Item::Boolean(r)};
  }
  if (fn == "substring-before" || fn == "substring-after") {
    if (n != 2) return WrongArity(fn, n);
    std::string a = StringArg(args[0]), b = StringArg(args[1]);
    size_t pos = a.find(b);
    if (pos == std::string::npos || b.empty()) {
      return Sequence{Item::String(b.empty() && fn == "substring-after"
                                       ? a
                                       : std::string())};
    }
    if (fn == "substring-before") {
      return Sequence{Item::String(a.substr(0, pos))};
    }
    return Sequence{Item::String(a.substr(pos + b.size()))};
  }
  if (fn == "translate") {
    if (n != 3) return WrongArity(fn, n);
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
  if (fn == "normalize-space") {
    std::string s;
    if (n == 0) {
      XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, fn));
      s = item.StringValue();
    } else if (n == 1) {
      s = StringArg(args[0]);
    } else {
      return WrongArity(fn, n);
    }
    return Sequence{Item::String(NormalizeSpace(s))};
  }
  if (fn == "compare") {
    if (n != 2) return WrongArity(fn, n);
    if (args[0].empty() || args[1].empty()) return Sequence{};
    int c = StringArg(args[0]).compare(StringArg(args[1]));
    return Sequence{Item::Integer(c < 0 ? -1 : (c > 0 ? 1 : 0))};
  }
  if (fn == "codepoints-to-string") {
    if (n != 1) return WrongArity(fn, n);
    std::vector<uint32_t> cps;
    for (const Item& i : xdm::Atomize(args[0])) {
      XQ_ASSIGN_OR_RETURN(int64_t cp, i.atomic().ToInteger());
      cps.push_back(static_cast<uint32_t>(cp));
    }
    return Sequence{Item::String(CodepointsToUtf8(cps))};
  }
  if (fn == "string-to-codepoints") {
    if (n != 1) return WrongArity(fn, n);
    Sequence out;
    for (uint32_t cp : Utf8ToCodepoints(StringArg(args[0]))) {
      out.push_back(Item::Integer(cp));
    }
    return out;
  }
  if (fn == "matches" || fn == "replace" || fn == "tokenize") {
    if ((fn == "replace" && n != 3) || (fn != "replace" && n != 2)) {
      return WrongArity(fn, n);
    }
    std::string input = StringArg(args[0]);
    std::string pattern = StringArg(args[1]);
    std::regex re;
    // std::regex throws on malformed patterns; this is the one place we
    // bridge an exception into a Status.
    try {
      re = std::regex(pattern, std::regex::ECMAScript);
    } catch (const std::regex_error& err) {
      return Status::Error("FORX0002",
                           "invalid regular expression: " + pattern);
    }
    if (fn == "matches") {
      return Sequence{
          Item::Boolean(std::regex_search(input, re))};
    }
    if (fn == "replace") {
      std::string repl = StringArg(args[2]);
      return Sequence{Item::String(std::regex_replace(input, re, repl))};
    }
    // tokenize
    Sequence out;
    std::sregex_token_iterator it(input.begin(), input.end(), re, -1), end;
    for (; it != end; ++it) out.push_back(Item::String(*it));
    return out;
  }
  if (fn == "encode-for-uri") {
    if (n != 1) return WrongArity(fn, n);
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

  // --------------------------------------------------------- sequence ---
  if (fn == "distinct-values") {
    if (n != 1) return WrongArity(fn, n);
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
  if (fn == "reverse") {
    if (n != 1) return WrongArity(fn, n);
    Sequence out(args[0].rbegin(), args[0].rend());
    return out;
  }
  if (fn == "tail") {
    if (n != 1) return WrongArity(fn, n);
    if (args[0].empty()) return Sequence{};
    return Sequence(args[0].begin() + 1, args[0].end());
  }
  if (fn == "insert-before") {
    if (n != 3) return WrongArity(fn, n);
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
  if (fn == "remove") {
    if (n != 2) return WrongArity(fn, n);
    bool empty = false;
    XQ_ASSIGN_OR_RETURN(double posd, NumericArg(args[1], &empty));
    Sequence out;
    for (size_t i = 0; i < args[0].size(); ++i) {
      if (!empty && static_cast<double>(i + 1) == posd) continue;
      out.push_back(args[0][i]);
    }
    return out;
  }
  if (fn == "index-of") {
    if (n != 2) return WrongArity(fn, n);
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
  if (fn == "exactly-one") {
    if (n != 1) return WrongArity(fn, n);
    if (args[0].size() != 1) {
      return Status::Error("FORG0005", "fn:exactly-one: sequence size " +
                                           std::to_string(args[0].size()));
    }
    return args[0];
  }
  if (fn == "zero-or-one") {
    if (n != 1) return WrongArity(fn, n);
    if (args[0].size() > 1) {
      return Status::Error("FORG0003", "fn:zero-or-one: more than one item");
    }
    return args[0];
  }
  if (fn == "one-or-more") {
    if (n != 1) return WrongArity(fn, n);
    if (args[0].empty()) {
      return Status::Error("FORG0004", "fn:one-or-more: empty sequence");
    }
    return args[0];
  }
  if (fn == "deep-equal") {
    if (n != 2) return WrongArity(fn, n);
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

  // -------------------------------------------------------------- node ---
  if (fn == "doc" || fn == "doc-available") {
    if (n != 1) return WrongArity(fn, n);
    if (ctx.browser_profile) {
      // Paper §4.2.1: fn:doc and fn:put are blocked in the browser.
      return Status::Error("BRWS0002",
                           "fn:" + fn + " is blocked in the browser "
                           "profile for security reasons");
    }
    if (ctx.doc_resolver == nullptr) {
      return Status::Error("FODC0002", "no document resolver configured");
    }
    Result<xml::Node*> doc = ctx.doc_resolver(StringArg(args[0]));
    if (fn == "doc-available") {
      return Sequence{Item::Boolean(doc.ok())};
    }
    if (!doc.ok()) return doc.status();
    return Sequence{Item::Node(*doc)};
  }
  if (fn == "put") {
    if (n != 2) return WrongArity(fn, n);
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
  if (fn == "id") {
    if (n < 1 || n > 2) return WrongArity(fn, n);
    xml::Node* context_node = nullptr;
    if (n == 2) {
      if (args[1].empty() || !args[1][0].is_node()) {
        return Status::TypeError("fn:id second argument must be a node");
      }
      context_node = args[1][0].node();
    } else {
      XQ_ASSIGN_OR_RETURN(Item item, ContextItem(ctx, fn));
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

  // --------------------------------------------------------- date/time ---
  if (fn == "current-dateTime") {
    return Sequence{Item::Atomic(AtomicValue::DateTime(ctx.clock()))};
  }
  if (fn == "current-date") {
    std::string now = ctx.clock();
    return Sequence{Item::Atomic(AtomicValue::Date(now.substr(0, 10)))};
  }
  if (fn == "current-time") {
    std::string now = ctx.clock();
    return Sequence{Item::Atomic(
        AtomicValue::Time(now.size() >= 19 ? now.substr(11, 8) : now))};
  }
  {
    static const std::unordered_map<std::string, int> kDtComponents = {
        {"year-from-dateTime", 0},  {"month-from-dateTime", 1},
        {"day-from-dateTime", 2},   {"hours-from-dateTime", 3},
        {"minutes-from-dateTime", 4}, {"seconds-from-dateTime", 5},
        {"year-from-date", 0},      {"month-from-date", 1},
        {"day-from-date", 2},
    };
    auto it = kDtComponents.find(fn);
    if (it != kDtComponents.end()) {
      if (n != 1) return WrongArity(fn, n);
      if (args[0].empty()) return Sequence{};
      Sequence data = xdm::Atomize(args[0]);
      XQ_ASSIGN_OR_RETURN(int64_t v, DateTimeComponent(
                                         data[0].atomic().ToXPathString(),
                                         it->second));
      return Sequence{Item::Integer(v)};
    }
    static const std::unordered_map<std::string, int> kTimeComponents = {
        {"hours-from-time", 0},
        {"minutes-from-time", 1},
        {"seconds-from-time", 2},
    };
    auto it2 = kTimeComponents.find(fn);
    if (it2 != kTimeComponents.end()) {
      if (n != 1) return WrongArity(fn, n);
      if (args[0].empty()) return Sequence{};
      Sequence data = xdm::Atomize(args[0]);
      XQ_ASSIGN_OR_RETURN(
          int64_t v,
          TimeComponent(data[0].atomic().ToXPathString(), it2->second));
      return Sequence{Item::Integer(v)};
    }
  }

  // --------------------------------------------------------------misc ---
  if (fn == "error") {
    std::string code = "FOER0000";
    std::string msg = "error raised by fn:error";
    if (n >= 1 && !args[0].empty()) code = args[0][0].StringValue();
    if (n >= 2 && !args[1].empty()) msg = args[1][0].StringValue();
    return Status::Error(code, msg);
  }
  if (fn == "serialize") {
    if (n != 1) return WrongArity(fn, n);
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
  if (fn == "trace") {
    if (n != 2) return WrongArity(fn, n);
    if (ctx.trace_sink) {
      ctx.trace_sink(StringArg(args[1]) + ": " +
                     xdm::SequenceToString(args[0]));
    }
    return args[0];
  }

  *handled = false;
  return Sequence{};
}

// ------------------------------------------------- streaming builtins ---

StreamFnClass ClassifyStreamBuiltin(const xml::QName& name, size_t arity) {
  if (name.ns() != xml::kFnNamespace) return StreamFnClass::kNone;
  const std::string& fn = name.local();
  if (arity == 1 && (fn == "exists" || fn == "empty" || fn == "boolean" ||
                     fn == "not" || fn == "head")) {
    return StreamFnClass::kEarlyExit;
  }
  if ((arity == 2 || arity == 3) && fn == "subsequence") {
    return StreamFnClass::kEarlyExit;
  }
  if (arity == 1 && (fn == "count" || fn == "avg" || fn == "min" ||
                     fn == "max" || fn == "sum")) {
    return StreamFnClass::kFold;
  }
  if (arity == 2 && fn == "sum") return StreamFnClass::kFold;
  return StreamFnClass::kNone;
}

bool StreamBuiltinNeedsOrderedArg(const std::string& local) {
  // Pure existence tests observe only (non-)emptiness, so an unordered,
  // possibly duplicated witness stream decides them. Everything else
  // counts, positions or aggregates — the document-order barrier also
  // dedups, so it must stay (count(/a/b/..) must count the parent once).
  return !(local == "exists" || local == "empty" || local == "boolean" ||
           local == "not");
}

Result<Sequence> CallStreamBuiltin(const xml::QName& name,
                                   xdm::ItemStream& arg0,
                                   std::span<const Sequence> rest,
                                   Counters& counters) {
  const std::string& fn = name.local();
  Item item;

  if (fn == "exists" || fn == "empty") {
    XQ_ASSIGN_OR_RETURN(bool any, arg0.Next(&item));
    if (any) ++counters.early_exits;
    return Sequence{Item::Boolean(fn == "exists" ? any : !any)};
  }
  if (fn == "boolean" || fn == "not") {
    XQ_ASSIGN_OR_RETURN(bool b, StreamEBV(arg0, counters));
    return Sequence{Item::Boolean(fn == "boolean" ? b : !b)};
  }
  if (fn == "head") {
    Sequence out;
    XQ_ASSIGN_OR_RETURN(bool any, arg0.Next(&item));
    if (any) {
      out.push_back(std::move(item));
      ++counters.early_exits;
    }
    return out;
  }
  if (fn == "subsequence") {
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
  if (fn == "count") {
    int64_t n = 0;
    while (true) {
      XQ_ASSIGN_OR_RETURN(bool more, arg0.Next(&item));
      if (!more) break;
      ++n;
    }
    ++counters.buffers_avoided;
    return Sequence{Item::Integer(n)};
  }
  if (fn == "sum" || fn == "avg") {
    // True fold: atomize item by item, never buffering the sequence.
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
      if (fn == "sum") {
        if (!rest.empty()) return rest[0];
        return Sequence{Item::Integer(0)};
      }
      return Sequence{};
    }
    ++counters.buffers_avoided;
    if (fn == "avg") {
      return Sequence{Item::Double(acc / static_cast<double>(n))};
    }
    if (all_int) return Sequence{Item::Integer(static_cast<int64_t>(acc))};
    return Sequence{Item::Double(acc)};
  }
  if (fn == "min" || fn == "max") {
    // min/max need the whole atomized input to pick the numeric-vs-string
    // comparison mode, so they buffer atoms — but never the source nodes.
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
        if ((fn == "min") ? s < best : s > best) best = s;
      }
      return Sequence{Item::String(best)};
    }
    bool all_int = true;
    double best = 0;
    bool first = true;
    for (const Item& i : data) {
      XQ_ASSIGN_OR_RETURN(double d, i.atomic().ToDouble());
      if (i.atomic().type() != AtomicType::kInteger) all_int = false;
      if (first || (fn == "min" ? d < best : d > best)) best = d;
      first = false;
    }
    if (all_int) return Sequence{Item::Integer(static_cast<int64_t>(best))};
    return Sequence{Item::Double(best)};
  }
  return Status::Error("XPST0017",
                       "not a stream-consumable builtin: fn:" + fn);
}

}  // namespace xqib::xquery
