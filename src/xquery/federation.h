// Async federation (scatter-gather prefetch): which remote GET round
// trips inside a FLWOR can be issued as one overlapping batch before
// evaluation reaches them.
//
// A prefetch is only sound when the response the future carries equals
// the response the in-line call would have seen, so nothing the
// expression runs may write the fabric between issue and consume. The
// effect analysis decides that (Effects::writes_fabric: http:put,
// fn:put, unknown externals, webservice stubs, event triggers). DOM
// updates and scripting assignments never touch the fabric and stay
// eligible; fn:doc resolves against the in-process XmlStore, not the
// fabric, so it is neither a hazard nor a prefetch target. A listener's
// static URLs come from the same summaries (Effects::fetch_urls).

#ifndef XQIB_XQUERY_FEDERATION_H_
#define XQIB_XQUERY_FEDERATION_H_

#include <string>
#include <vector>

#include "xquery/ast.h"

namespace xqib::xquery::analysis {
struct AnalysisFacts;
}  // namespace xqib::xquery::analysis

namespace xqib::xquery::federation {

// Statically-constant string value of `e`: a string-like literal or
// fn:concat over such. Returns false when any part is dynamic.
bool StaticStringValue(const Expr& e, std::string* out);

// A URL built per tuple from literal fragments and the loop variable's
// string value, e.g. concat("http://", $site, "/api").
struct UrlTemplate {
  struct Part {
    std::string literal;
    bool is_var = false;  // slot for the loop variable
  };
  std::vector<Part> parts;
  bool has_var = false;
};

std::string InstantiateUrl(const UrlTemplate& t, const std::string& var_value);

// Per-tuple scatter over a FLWOR: applicable when the expression is a
// single unordered `for` over one variable, at least one http:get in the
// where/return has a URL expressible as a template over that variable,
// and, under the effect summaries in `facts` (null: none), nothing the
// FLWOR runs writes the fabric. The caller must still prove the binding
// expression pure enough to evaluate twice (the scatter evaluates it
// once ahead of the tuple loop).
struct FlworScatterPlan {
  bool applicable = false;
  const Expr* binding = nullptr;
  xml::QName loop_var;
  std::vector<UrlTemplate> templates;
};

FlworScatterPlan AnalyzeFlworScatter(const Expr& flwor,
                                     const analysis::AnalysisFacts* facts);

// True when the syntactic subtree contains an http:* extension call
// (no recursion into callees). The plan compiler uses this to keep
// federated FLWORs on the tree walker, where the scatter hook lives —
// a remote round trip dwarfs any register-plan gain, and plans are
// cached process-wide so the decision must not depend on per-evaluator
// options.
bool ContainsFabricCall(const Expr& e);

}  // namespace xqib::xquery::federation

#endif  // XQIB_XQUERY_FEDERATION_H_
