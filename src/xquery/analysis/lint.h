// Whole-page linting: runs the static analyzer over every XQuery script
// block and XQuery-looking inline handler of an XHTML page, with the
// page's scripts as each other's static context (mirroring the plug-in's
// joint load-time analysis, so xq_lint and the browser agree). Shared by
// the xq_lint CLI and the golden-diagnostics test.

#ifndef XQIB_XQUERY_ANALYSIS_LINT_H_
#define XQIB_XQUERY_ANALYSIS_LINT_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "xquery/analysis/analyzer.h"

namespace xqib::xquery::analysis {

// One analyzed unit of a page: a <script> block or an inline handler.
struct LintUnit {
  std::string label;   // "script 1", "onclick handler on <input>", ...
  std::vector<Diagnostic> diagnostics;
  // Deterministic effect-summary lines from the analyzer's effect pass
  // ("local:render#1: reads={item} writes={} scope={} pure memoizable"),
  // one per declared function plus a page-wide read-set line. Rendered
  // by xq_lint --effects.
  std::vector<std::string> effects;
};

struct LintReport {
  std::vector<LintUnit> units;

  bool has_errors() const;
  bool has_warnings() const;
  // All diagnostics flattened, each prefixed with its unit label.
  std::vector<std::string> RenderAll() const;
  // All effect-summary lines flattened, each prefixed with its unit
  // label (xq_lint --effects).
  std::vector<std::string> RenderEffects() const;
  std::string ToJson() const;
};

// Lints a standalone XQuery module (one unit labeled "query").
// Parse/lex failures are reported as an error diagnostic, not a Status.
LintReport LintQuery(const std::string& source);

// Lints every XQuery script and inline handler of an XHTML page.
// Returns a Status error only when the page itself is not parseable XML.
Result<LintReport> LintXhtml(const std::string& page_source);

}  // namespace xqib::xquery::analysis

#endif  // XQIB_XQUERY_ANALYSIS_LINT_H_
