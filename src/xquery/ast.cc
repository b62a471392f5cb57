#include "xquery/ast.h"

namespace xqib::xquery {

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild: return "child";
    case Axis::kDescendant: return "descendant";
    case Axis::kDescendantOrSelf: return "descendant-or-self";
    case Axis::kSelf: return "self";
    case Axis::kAttribute: return "attribute";
    case Axis::kParent: return "parent";
    case Axis::kAncestor: return "ancestor";
    case Axis::kAncestorOrSelf: return "ancestor-or-self";
    case Axis::kFollowingSibling: return "following-sibling";
    case Axis::kPrecedingSibling: return "preceding-sibling";
    case Axis::kFollowing: return "following";
    case Axis::kPreceding: return "preceding";
  }
  return "unknown";
}

ExprPtr MakeExpr(ExprKind kind) { return std::make_unique<Expr>(kind); }

bool IsExactNameDescendantStep(const Step& step) {
  if (step.expr != nullptr) return false;
  if (step.axis != Axis::kDescendant &&
      step.axis != Axis::kDescendantOrSelf) {
    return false;
  }
  const NodeTest& t = step.test;
  return (t.kind == NodeTest::Kind::kName ||
          t.kind == NodeTest::Kind::kElement) &&
         !t.any_name && !t.any_ns && !t.any_local && !t.name.local().empty();
}

}  // namespace xqib::xquery
