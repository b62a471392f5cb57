#include "xdm/item.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "base/strings.h"

namespace xqib::xdm {

const char* AtomicTypeName(AtomicType type) {
  switch (type) {
    case AtomicType::kUntypedAtomic: return "xs:untypedAtomic";
    case AtomicType::kString: return "xs:string";
    case AtomicType::kBoolean: return "xs:boolean";
    case AtomicType::kInteger: return "xs:integer";
    case AtomicType::kDecimal: return "xs:decimal";
    case AtomicType::kDouble: return "xs:double";
    case AtomicType::kQName: return "xs:QName";
    case AtomicType::kAnyUri: return "xs:anyURI";
    case AtomicType::kDateTime: return "xs:dateTime";
    case AtomicType::kDate: return "xs:date";
    case AtomicType::kTime: return "xs:time";
    case AtomicType::kDayTimeDuration: return "xs:dayTimeDuration";
  }
  return "xs:anyAtomicType";
}

// ---------------------------------------------------------- AtomicValue ---

AtomicValue AtomicValue::Untyped(std::string s) {
  AtomicValue v;
  v.type_ = AtomicType::kUntypedAtomic;
  v.str_ = std::move(s);
  return v;
}

AtomicValue AtomicValue::String(std::string s) {
  AtomicValue v;
  v.type_ = AtomicType::kString;
  v.str_ = std::move(s);
  return v;
}

AtomicValue AtomicValue::Boolean(bool b) {
  AtomicValue v;
  v.type_ = AtomicType::kBoolean;
  v.bool_ = b;
  return v;
}

AtomicValue AtomicValue::Integer(int64_t i) {
  AtomicValue v;
  v.type_ = AtomicType::kInteger;
  v.int_ = i;
  return v;
}

AtomicValue AtomicValue::Decimal(double d) {
  AtomicValue v;
  v.type_ = AtomicType::kDecimal;
  v.dbl_ = d;
  return v;
}

AtomicValue AtomicValue::Double(double d) {
  AtomicValue v;
  v.type_ = AtomicType::kDouble;
  v.dbl_ = d;
  return v;
}

AtomicValue AtomicValue::AnyUri(std::string s) {
  AtomicValue v;
  v.type_ = AtomicType::kAnyUri;
  v.str_ = std::move(s);
  return v;
}

AtomicValue AtomicValue::MakeQName(xml::QName q) {
  AtomicValue v;
  v.type_ = AtomicType::kQName;
  v.qname_ = std::move(q);
  return v;
}

AtomicValue AtomicValue::DateTime(std::string iso) {
  AtomicValue v;
  v.type_ = AtomicType::kDateTime;
  v.str_ = std::move(iso);
  return v;
}

AtomicValue AtomicValue::Date(std::string iso) {
  AtomicValue v;
  v.type_ = AtomicType::kDate;
  v.str_ = std::move(iso);
  return v;
}

AtomicValue AtomicValue::Time(std::string iso) {
  AtomicValue v;
  v.type_ = AtomicType::kTime;
  v.str_ = std::move(iso);
  return v;
}

AtomicValue AtomicValue::DayTimeDuration(double seconds) {
  AtomicValue v;
  v.type_ = AtomicType::kDayTimeDuration;
  v.dbl_ = seconds;
  return v;
}

std::string AtomicValue::ToXPathString() const {
  switch (type_) {
    case AtomicType::kUntypedAtomic:
    case AtomicType::kString:
    case AtomicType::kAnyUri:
    case AtomicType::kDateTime:
    case AtomicType::kDate:
    case AtomicType::kTime:
      return str_;
    case AtomicType::kBoolean:
      return bool_ ? "true" : "false";
    case AtomicType::kInteger:
      return std::to_string(int_);
    case AtomicType::kDecimal:
    case AtomicType::kDouble:
      return DoubleToXPathString(dbl_);
    case AtomicType::kQName:
      return qname_.Lexical();
    case AtomicType::kDayTimeDuration: {
      // PTnS form, seconds granularity.
      double s = dbl_;
      std::string sign = s < 0 ? "-" : "";
      s = std::fabs(s);
      return sign + "PT" + DoubleToXPathString(s) + "S";
    }
  }
  return {};
}

namespace {

Result<double> ParseDoubleLexical(const std::string& s) {
  std::string t(TrimWhitespace(s));
  if (t == "INF") return std::numeric_limits<double>::infinity();
  if (t == "-INF") return -std::numeric_limits<double>::infinity();
  if (t == "NaN") return std::nan("");
  if (t.empty()) {
    return Status::Error("FORG0001", "cannot cast '' to a number");
  }
  errno = 0;
  char* end = nullptr;
  double d = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size() || errno == ERANGE) {
    return Status::Error("FORG0001", "cannot cast '" + t + "' to a number");
  }
  return d;
}

Result<int64_t> ParseIntegerLexical(const std::string& s) {
  std::string t(TrimWhitespace(s));
  if (t.empty()) {
    return Status::Error("FORG0001", "cannot cast '' to xs:integer");
  }
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(t.c_str(), &end, 10);
  if (end != t.c_str() + t.size() || errno == ERANGE) {
    return Status::Error("FORG0001",
                         "cannot cast '" + t + "' to xs:integer");
  }
  return static_cast<int64_t>(v);
}

// The seconds of a day-time duration's lexical form
// -?P(nD)?(T(nH)?(nM)?(n(.n)?S)?)? with at least one component, and at
// least one after a T. xs:duration and xs:dayTimeDuration are both
// stored as seconds, so a year or month component, which has no fixed
// number of them, is refused with its own message.
Result<double> ParseDayTimeDuration(const std::string& s) {
  const std::string t(TrimWhitespace(s));
  auto malformed = [&t](const std::string& why) {
    return Status::Error("FORG0001",
                         "cannot cast '" + t + "' to a duration: " + why);
  };
  size_t i = 0;
  const bool negative = i < t.size() && t[i] == '-';
  if (negative) ++i;
  if (i >= t.size() || t[i] != 'P') return malformed("expected 'P'");
  ++i;
  double seconds = 0;
  bool in_time = false;
  int components = 0;       // in the whole form
  int time_components = 0;  // after the T
  int rank = 0;             // of the last component's unit
  while (i < t.size()) {
    if (t[i] == 'T') {
      if (in_time) return malformed("a second 'T'");
      in_time = true;
      ++i;
      continue;
    }
    const size_t start = i;
    while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
    const size_t digits = i - start;
    bool fraction = false;
    if (i < t.size() && t[i] == '.') {
      fraction = true;
      ++i;
      const size_t frac_start = i;
      while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
      if (i == frac_start) return malformed("no digits after '.'");
    }
    if (digits == 0 || i >= t.size()) {
      return malformed("expected nD, nH, nM or nS");
    }
    const char designator = t[i++];
    const double n =
        std::strtod(t.substr(start, i - 1 - start).c_str(), nullptr);
    if (!in_time && (designator == 'Y' || designator == 'M')) {
      return malformed(
          "a year or month component is not supported (durations are "
          "stored as seconds, and a month has no fixed number of them)");
    }
    struct Unit {
      char designator;
      bool time;     // after the T
      int rank;      // components appear in this order
      double seconds;
    };
    static constexpr Unit kUnits[] = {
        {'D', false, 1, 86400}, {'H', true, 2, 3600},
        {'M', true, 3, 60},     {'S', true, 4, 1}};
    const Unit* unit = nullptr;
    for (const Unit& u : kUnits) {
      if (u.designator == designator && u.time == in_time) unit = &u;
    }
    if (unit == nullptr) {
      return malformed(std::string("unexpected '") + designator + "'");
    }
    if (unit->rank <= rank) return malformed("components out of order");
    if (fraction && designator != 'S') {
      return malformed("only seconds may have a fraction");
    }
    rank = unit->rank;
    seconds += n * unit->seconds;
    ++components;
    if (in_time) ++time_components;
  }
  if (components == 0) return malformed("no component");
  if (in_time && time_components == 0) return malformed("nothing after 'T'");
  return negative ? -seconds : seconds;
}

}  // namespace

Result<double> AtomicValue::ToDouble() const {
  switch (type_) {
    case AtomicType::kInteger: return static_cast<double>(int_);
    case AtomicType::kDecimal:
    case AtomicType::kDouble:
    case AtomicType::kDayTimeDuration:
      return dbl_;
    case AtomicType::kBoolean: return bool_ ? 1.0 : 0.0;
    case AtomicType::kUntypedAtomic:
    case AtomicType::kString:
      return ParseDoubleLexical(str_);
    default:
      return Status::TypeError(std::string("cannot treat ") +
                               AtomicTypeName(type_) + " as a number");
  }
}

Result<int64_t> AtomicValue::ToInteger() const {
  switch (type_) {
    case AtomicType::kInteger: return int_;
    case AtomicType::kDecimal:
    case AtomicType::kDouble:
      return static_cast<int64_t>(dbl_);
    case AtomicType::kBoolean: return bool_ ? int64_t{1} : int64_t{0};
    case AtomicType::kUntypedAtomic:
    case AtomicType::kString:
      return ParseIntegerLexical(str_);
    default:
      return Status::TypeError(std::string("cannot treat ") +
                               AtomicTypeName(type_) + " as xs:integer");
  }
}

Result<AtomicValue> AtomicValue::CastTo(AtomicType target) const {
  if (target == type_) return *this;
  switch (target) {
    case AtomicType::kString:
      return String(ToXPathString());
    case AtomicType::kUntypedAtomic:
      return Untyped(ToXPathString());
    case AtomicType::kAnyUri:
      return AnyUri(ToXPathString());
    case AtomicType::kBoolean: {
      if (is_numeric()) {
        XQ_ASSIGN_OR_RETURN(double d, ToDouble());
        return Boolean(d != 0.0 && !std::isnan(d));
      }
      std::string t(TrimWhitespace(str_));
      if (t == "true" || t == "1") return Boolean(true);
      if (t == "false" || t == "0") return Boolean(false);
      return Status::Error("FORG0001",
                           "cannot cast '" + t + "' to xs:boolean");
    }
    case AtomicType::kInteger: {
      XQ_ASSIGN_OR_RETURN(int64_t i, ToInteger());
      return Integer(i);
    }
    case AtomicType::kDecimal: {
      XQ_ASSIGN_OR_RETURN(double d, ToDouble());
      return Decimal(d);
    }
    case AtomicType::kDouble: {
      XQ_ASSIGN_OR_RETURN(double d, ToDouble());
      return Double(d);
    }
    case AtomicType::kDateTime:
      return DateTime(ToXPathString());
    case AtomicType::kDate:
      return Date(ToXPathString());
    case AtomicType::kTime:
      return Time(ToXPathString());
    case AtomicType::kDayTimeDuration:
      if (type_ == AtomicType::kString ||
          type_ == AtomicType::kUntypedAtomic) {
        XQ_ASSIGN_OR_RETURN(double seconds, ParseDayTimeDuration(str_));
        return DayTimeDuration(seconds);
      }
      return Status::TypeError(std::string("unsupported cast from ") +
                               AtomicTypeName(type_) + " to " +
                               AtomicTypeName(target));
    default:
      return Status::TypeError(std::string("unsupported cast to ") +
                               AtomicTypeName(target));
  }
}

Result<int> AtomicValue::Compare(const AtomicValue& other) const {
  // Numeric comparison when both sides are (or can be promoted to)
  // numbers; untyped compares as string against strings, as number
  // against numbers (general-comparison promotion is done by the caller).
  auto cmp3 = [](auto a, auto b) { return a < b ? -1 : (a > b ? 1 : 0); };

  if (type_ == AtomicType::kBoolean && other.type_ == AtomicType::kBoolean) {
    return cmp3(static_cast<int>(bool_), static_cast<int>(other.bool_));
  }
  if (is_numeric() || other.is_numeric()) {
    XQ_ASSIGN_OR_RETURN(double a, ToDouble());
    XQ_ASSIGN_OR_RETURN(double b, other.ToDouble());
    if (std::isnan(a) || std::isnan(b)) {
      // NaN is unordered; callers treat nonzero-compare-failure via eq
      // semantics. We model it as "incomparable => never equal/less".
      return 2;
    }
    return cmp3(a, b);
  }
  if (type_ == AtomicType::kDayTimeDuration &&
      other.type_ == AtomicType::kDayTimeDuration) {
    return cmp3(dbl_, other.dbl_);
  }
  if (type_ == AtomicType::kQName || other.type_ == AtomicType::kQName) {
    if (type_ != other.type_) {
      return Status::TypeError("cannot compare xs:QName with other types");
    }
    return qname_ == other.qname_ ? 0 : 2;  // QNames: equality only
  }
  // Everything else (strings, dates as ISO strings, URIs, untyped):
  // codepoint string comparison. ISO-8601 normalized forms order
  // correctly lexicographically.
  return cmp3(ToXPathString().compare(other.ToXPathString()), 0);
}

// ------------------------------------------------------------------ Item ---

std::string Item::StringValue() const {
  return is_node() ? node_->StringValue() : atom_.ToXPathString();
}

void Item::AppendStringValue(std::string* out) const {
  if (is_node()) {
    node_->AppendStringValue(out);
  } else {
    out->append(atom_.ToXPathString());
  }
}

AtomicValue Item::Atomize() const {
  if (!is_node()) return atom_;
  // Untyped documents: everything atomizes to xs:untypedAtomic.
  return AtomicValue::Untyped(node_->StringValue());
}

// ------------------------------------------------------------- Sequence ---

Result<bool> EffectiveBooleanValue(const Sequence& seq) {
  if (seq.empty()) return false;
  if (seq[0].is_node()) return true;
  if (seq.size() > 1) {
    return Status::Error("FORG0006",
                         "effective boolean value of a sequence of more "
                         "than one atomic item");
  }
  const AtomicValue& v = seq[0].atomic();
  switch (v.type()) {
    case AtomicType::kBoolean:
      return v.bool_value();
    case AtomicType::kString:
    case AtomicType::kUntypedAtomic:
    case AtomicType::kAnyUri:
      return !v.string_value().empty();
    case AtomicType::kInteger:
      return v.int_value() != 0;
    case AtomicType::kDecimal:
    case AtomicType::kDouble:
      return v.double_value() != 0.0 && !std::isnan(v.double_value());
    default:
      return Status::Error("FORG0006",
                           std::string("no effective boolean value for ") +
                               AtomicTypeName(v.type()));
  }
}

Sequence Atomize(const Sequence& seq) {
  Sequence out;
  out.reserve(seq.size());
  for (const Item& item : seq) out.push_back(Item::Atomic(item.Atomize()));
  return out;
}

bool AllNodes(const Sequence& seq) {
  return std::all_of(seq.begin(), seq.end(),
                     [](const Item& i) { return i.is_node(); });
}

Status SortDocumentOrderDedup(Sequence* seq) {
  if (!AllNodes(*seq)) {
    return Status::TypeError(
        "path step result contains atomic values mixed with nodes");
  }
  std::stable_sort(seq->begin(), seq->end(), [](const Item& a, const Item& b) {
    return a.node()->CompareDocumentOrder(b.node()) < 0;
  });
  seq->erase(std::unique(seq->begin(), seq->end(),
                         [](const Item& a, const Item& b) {
                           return a.node() == b.node();
                         }),
             seq->end());
  return Status();
}

std::string SequenceToString(const Sequence& seq) {
  std::string out;
  for (size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) out += " ";
    seq[i].AppendStringValue(&out);
  }
  return out;
}

}  // namespace xqib::xdm
