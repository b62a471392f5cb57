#include "xquery/federation.h"

#include "xquery/analysis/effects.h"
#include "xquery/analysis/facts.h"

namespace xqib::xquery::federation {

namespace {

bool IsHttpGet(const Expr& e) {
  return e.kind == ExprKind::kFunctionCall && e.kids.size() == 1 &&
         e.qname.ns() == xml::kHttpNamespace &&
         (e.qname.local() == "get" || e.qname.local() == "get-text");
}

bool IsFnConcat(const Expr& e) {
  return e.kind == ExprKind::kFunctionCall &&
         e.qname.ns() == xml::kFnNamespace && e.qname.local() == "concat";
}

// Template extraction: literal fragments + the loop variable.
bool BuildTemplate(const Expr& e, const xml::QName& loop_var,
                   UrlTemplate* out) {
  if (e.kind == ExprKind::kLiteral) {
    out->parts.push_back({e.atom.ToXPathString(), false});
    return true;
  }
  if (e.kind == ExprKind::kVarRef && e.qname == loop_var) {
    out->parts.push_back({std::string(), true});
    out->has_var = true;
    return true;
  }
  if (IsFnConcat(e)) {
    for (const auto& kid : e.kids) {
      if (!BuildTemplate(*kid, loop_var, out)) return false;
    }
    return true;
  }
  return false;
}

}  // namespace

bool StaticStringValue(const Expr& e, std::string* out) {
  if (e.kind == ExprKind::kLiteral) {
    *out += e.atom.ToXPathString();
    return true;
  }
  if (IsFnConcat(e)) {
    for (const auto& kid : e.kids) {
      if (!StaticStringValue(*kid, out)) return false;
    }
    return true;
  }
  return false;
}

std::string InstantiateUrl(const UrlTemplate& t,
                           const std::string& var_value) {
  std::string url;
  for (const auto& part : t.parts) {
    if (part.is_var) {
      url += var_value;
    } else {
      url += part.literal;
    }
  }
  return url;
}

FlworScatterPlan AnalyzeFlworScatter(const Expr& flwor,
                                     const analysis::AnalysisFacts* facts) {
  FlworScatterPlan plan;
  if (flwor.kind != ExprKind::kFLWOR || flwor.clauses.size() != 1 ||
      !flwor.order_specs.empty()) {
    return plan;
  }
  const Clause& clause = flwor.clauses[0];
  if (clause.kind != Clause::Kind::kFor || clause.expr == nullptr ||
      flwor.kids.empty() || flwor.kids[0] == nullptr) {
    return plan;
  }

  // Find templated GET sites in the where/return.
  auto scan = [&](const Expr& e, const auto& self) -> void {
    if (IsHttpGet(e)) {
      UrlTemplate t;
      if (BuildTemplate(*e.kids[0], clause.var, &t) && t.has_var) {
        plan.templates.push_back(std::move(t));
      }
      return;
    }
    // Do not descend into nested binding constructs: their variables can
    // shadow ours, and a nested FLWOR gets its own scatter when
    // evaluation reaches it.
    if (e.kind == ExprKind::kFLWOR || e.kind == ExprKind::kQuantified) {
      return;
    }
    ForEachSubExpr(e, [&](const Expr& kid) { self(kid, self); });
  };
  scan(*flwor.kids[0], scan);
  if (flwor.where) scan(*flwor.where, scan);
  if (plan.templates.empty()) return plan;

  // Nothing in the whole expression (binding included) may write the
  // fabric, or the batch could race its own side effects.
  static const auto* kNoSummaries =
      new std::map<std::string, analysis::Effects>();
  const analysis::Effects effects = analysis::ExprEffects(
      flwor, facts != nullptr ? facts->function_effects : *kNoSummaries);
  if (effects.writes_fabric) {
    plan.templates.clear();
    return plan;
  }
  plan.applicable = true;
  plan.binding = clause.expr.get();
  plan.loop_var = clause.var;
  return plan;
}

}  // namespace xqib::xquery::federation
