#include "xquery/federation.h"

#include <unordered_set>

namespace xqib::xquery::federation {

namespace {

constexpr int kMaxCallDepth = 32;

bool IsHttpGet(const Expr& e) {
  return e.kind == ExprKind::kFunctionCall && e.kids.size() == 1 &&
         e.qname.ns() == xml::kHttpNamespace &&
         (e.qname.local() == "get" || e.qname.local() == "get-text");
}

bool IsFnConcat(const Expr& e) {
  return e.kind == ExprKind::kFunctionCall &&
         e.qname.ns() == xml::kFnNamespace && e.qname.local() == "concat";
}

// Applies `fn` to every direct sub-expression of `e` (all kinds).
template <typename Fn>
void ForEachChildImpl(const DirectNode& d, const Fn& fn) {
  if (d.expr) fn(*d.expr);
  for (const auto& attr : d.attrs) {
    for (const auto& part : attr.parts) {
      if (part.expr) fn(*part.expr);
    }
  }
  for (const auto& child : d.children) ForEachChildImpl(*child, fn);
}

template <typename Fn>
void ForEachFtImpl(const FtSelection& ft, const Fn& fn) {
  if (ft.words) fn(*ft.words);
  for (const auto& kid : ft.kids) ForEachFtImpl(*kid, fn);
}

template <typename Fn>
void ForEachChild(const Expr& e, const Fn& fn) {
  for (const auto& kid : e.kids) {
    if (kid) fn(*kid);
  }
  for (const auto& pred : e.predicates) {
    if (pred) fn(*pred);
  }
  for (const auto& step : e.steps) {
    for (const auto& pred : step.predicates) {
      if (pred) fn(*pred);
    }
    if (step.expr) fn(*step.expr);
  }
  for (const auto& clause : e.clauses) {
    if (clause.expr) fn(*clause.expr);
  }
  if (e.where) fn(*e.where);
  for (const auto& spec : e.order_specs) {
    if (spec.key) fn(*spec.key);
  }
  if (e.ft) ForEachFtImpl(*e.ft, fn);
  if (e.direct) ForEachChildImpl(*e.direct, fn);
}

// The shared reachability walk: collects static GET URLs, recursing into
// user-declared callees, and flags any reachable fabric write.
struct Collector {
  const StaticContext* sctx;
  std::unordered_set<const FunctionDecl*> visiting;
  std::unordered_set<std::string> seen;
  std::vector<std::string> urls;
  bool safe = true;

  void Walk(const Expr& e, int depth) {
    if (!safe) return;
    if (depth > kMaxCallDepth) {
      safe = false;
      return;
    }
    if (e.kind == ExprKind::kEventTrigger) {
      // Triggers run attached listeners synchronously — arbitrary code.
      safe = false;
      return;
    }
    if (e.kind == ExprKind::kFunctionCall) {
      const std::string& ns = e.qname.ns();
      const std::string& local = e.qname.local();
      if (ns == xml::kHttpNamespace) {
        if (local == "put") {
          safe = false;
          return;
        }
        if (IsHttpGet(e)) {
          std::string url;
          if (StaticStringValue(*e.kids[0], &url) && seen.insert(url).second) {
            urls.push_back(std::move(url));
          }
          // A dynamic URL is still just a read; keep walking the arg.
          Walk(*e.kids[0], depth);
          return;
        }
        safe = false;  // unknown http:* extension
        return;
      }
      if (ns == xml::kFnNamespace) {
        if (local == "put") {
          safe = false;
          return;
        }
        ForEachChild(e, [&](const Expr& kid) { Walk(kid, depth); });
        return;
      }
      if (ns == xml::kXsNamespace) {
        ForEachChild(e, [&](const Expr& kid) { Walk(kid, depth); });
        return;
      }
      const FunctionDecl* decl =
          sctx != nullptr ? sctx->FindFunction(e.qname, e.kids.size())
                          : nullptr;
      if (decl != nullptr && decl->body != nullptr) {
        ForEachChild(e, [&](const Expr& kid) { Walk(kid, depth); });
        if (visiting.insert(decl).second) {
          Walk(*decl->body, depth + 1);
          visiting.erase(decl);
        }
        return;
      }
      // Unknown external (webservice stub, browser:*): may run arbitrary
      // code against the fabric server-side — disqualify.
      safe = false;
      return;
    }
    ForEachChild(e, [&](const Expr& kid) { Walk(kid, depth); });
  }
};

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

StaticFetchPlan CollectStaticFetchUrls(const Expr& body,
                                       const StaticContext& sctx) {
  Collector collector;
  collector.sctx = &sctx;
  collector.Walk(body, 0);
  StaticFetchPlan plan;
  plan.safe = collector.safe;
  if (plan.safe) plan.urls = std::move(collector.urls);
  return plan;
}

StaticFetchPlan CollectListenerFetchUrls(const FunctionDecl& fn,
                                         const StaticContext& sctx) {
  if (fn.body == nullptr) return StaticFetchPlan{};
  return CollectStaticFetchUrls(*fn.body, sctx);
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

bool ContainsFabricCall(const Expr& e) {
  if (e.kind == ExprKind::kFunctionCall &&
      e.qname.ns() == xml::kHttpNamespace) {
    return true;
  }
  bool found = false;
  ForEachChild(e, [&](const Expr& kid) {
    if (!found) found = ContainsFabricCall(kid);
  });
  return found;
}

FlworScatterPlan AnalyzeFlworScatter(const Expr& flwor,
                                     const StaticContext& sctx) {
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
  // Nothing in the whole expression (binding included) may write the
  // fabric, or the batch could race its own side effects.
  Collector collector;
  collector.sctx = &sctx;
  collector.Walk(flwor, 0);
  if (!collector.safe) return plan;

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
    ForEachChild(e, [&](const Expr& kid) { self(kid, self); });
  };
  scan(*flwor.kids[0], scan);
  if (flwor.where) scan(*flwor.where, scan);

  if (plan.templates.empty()) return plan;
  plan.applicable = true;
  plan.binding = clause.expr.get();
  plan.loop_var = clause.var;
  return plan;
}

}  // namespace xqib::xquery::federation
