#include "xquery/profiler.h"

#include <algorithm>
#include <cstdio>

namespace xqib::xquery {

namespace {

const char* ExprKindName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kLiteral: return "literal";
    case ExprKind::kVarRef: return "variable";
    case ExprKind::kContextItem: return "context-item";
    case ExprKind::kSequence: return "sequence";
    case ExprKind::kRange: return "range";
    case ExprKind::kArith: return "arithmetic";
    case ExprKind::kUnary: return "unary";
    case ExprKind::kComparison: return "comparison";
    case ExprKind::kLogical: return "logical";
    case ExprKind::kPath: return "path";
    case ExprKind::kFilter: return "filter";
    case ExprKind::kFLWOR: return "FLWOR";
    case ExprKind::kQuantified: return "quantified";
    case ExprKind::kIf: return "if";
    case ExprKind::kFunctionCall: return "call";
    case ExprKind::kCast: return "cast";
    case ExprKind::kTypeswitch: return "typeswitch";
    case ExprKind::kSetOp: return "set-op";
    case ExprKind::kFtContains: return "ftcontains";
    case ExprKind::kDirectElement: return "element-constructor";
    case ExprKind::kComputedElement: return "computed-element";
    case ExprKind::kComputedAttribute: return "computed-attribute";
    case ExprKind::kComputedText: return "computed-text";
    case ExprKind::kComputedComment: return "computed-comment";
    case ExprKind::kComputedPI: return "computed-pi";
    case ExprKind::kEnclosed: return "enclosed";
    case ExprKind::kInsert: return "insert";
    case ExprKind::kDelete: return "delete";
    case ExprKind::kReplace: return "replace";
    case ExprKind::kRename: return "rename";
    case ExprKind::kTransform: return "transform";
    case ExprKind::kBlock: return "block";
    case ExprKind::kVarDecl: return "var-decl";
    case ExprKind::kAssign: return "assign";
    case ExprKind::kWhile: return "while";
    case ExprKind::kExitWith: return "exit-with";
    case ExprKind::kEventAttach: return "event-attach";
    case ExprKind::kEventDetach: return "event-detach";
    case ExprKind::kEventTrigger: return "event-trigger";
    case ExprKind::kSetStyle: return "set-style";
    case ExprKind::kGetStyle: return "get-style";
  }
  return "expr";
}

}  // namespace

std::string DescribeExpr(const Expr& expr) {
  std::string out = ExprKindName(expr.kind);
  switch (expr.kind) {
    case ExprKind::kFunctionCall:
      out += " " + expr.qname.Lexical() + "#" +
             std::to_string(expr.kids.size());
      break;
    case ExprKind::kVarRef:
    case ExprKind::kAssign:
    case ExprKind::kVarDecl:
      out += " $" + expr.qname.Lexical();
      break;
    case ExprKind::kPath: {
      out += " ";
      for (const Step& step : expr.steps) {
        if (step.expr != nullptr) {
          out += "/(" + std::string(ExprKindName(step.expr->kind)) + ")";
          continue;
        }
        if (step.axis == Axis::kDescendantOrSelf &&
            step.test.kind == NodeTest::Kind::kAnyKind) {
          out += "/";  // combined with the next step's '/' prints '//'
          continue;
        }
        out += "/";
        if (step.axis == Axis::kAttribute) out += "@";
        out += step.test.any_name ? "*" : step.test.name.Lexical();
      }
      break;
    }
    case ExprKind::kDirectElement:
      if (expr.direct != nullptr) out += " <" + expr.direct->name.Lexical() + ">";
      break;
    case ExprKind::kLiteral:
      out += " " + expr.atom.ToXPathString().substr(0, 16);
      break;
    default:
      break;
  }
  return out;
}

std::vector<Profiler::Entry> Profiler::HotSpots() const {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const auto& [expr, entry] : entries_) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.self_us > b.self_us;
  });
  return out;
}

uint64_t Profiler::total_evaluations() const {
  uint64_t n = 0;
  for (const auto& [expr, entry] : entries_) n += entry.count;
  return n;
}

std::string Profiler::Report(size_t limit) const {
  std::vector<Entry> hot = HotSpots();
  std::string out =
      "    count   self(us)  total(us)  expression\n"
      "  -------  ---------  ---------  --------------------------------\n";
  char line[160];
  for (size_t i = 0; i < hot.size() && i < limit; ++i) {
    const Entry& e = hot[i];
    std::snprintf(line, sizeof(line), "  %7llu  %9.1f  %9.1f  %s\n",
                  static_cast<unsigned long long>(e.count), e.self_us,
                  e.total_us, DescribeExpr(*e.expr).c_str());
    out += line;
  }
  return out;
}

}  // namespace xqib::xquery
