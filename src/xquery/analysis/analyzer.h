// Multi-pass static analyzer for XQuery modules (the load-time safety
// net the paper's plug-in pipeline lacks: a broken page script should
// fail at page load, not at event-dispatch time in front of the user).
//
// Passes, each individually toggleable:
//   1. scope/symbol  — resolves $var references and function calls
//      against prologs + the builtin library; reports undefined names,
//      duplicate declarations, and arity mismatches (XQSA001-005).
//   2. type inference — a small XDM lattice (item class + occurrence
//      bounds); flags statically-impossible comparisons (XQSA010) and
//      records inferred cardinalities in AnalysisFacts for the
//      optimizer's inferred-singleton rewrites.
//   3. update/purity — enforces XQUF placement rules (no updating
//      expression in a non-updating context, XQSA020/022; no delete or
//      replace of the document root, XQSA021) and classifies declared
//      functions as DOM-pure vs mutating for the event loop.
//   4. lint — unused variables (XQSA030), unreachable branches after
//      constant conditions (XQSA031), descendant (`//`) paths the
//      optimizer's path collapsing cannot rewrite (XQSA032), and
//      `behind` listeners that apply updates and therefore cannot have
//      their asynchronous completions delivered off-thread (XQSA033).
//   5. effects — the read/write-set abstract interpretation of
//      effects.h, published in AnalysisFacts (function_effects,
//      all_reads) and consumed by three lints: same-event listeners with interfering effects (XQSA034),
//      memoizable listeners whose read set is ⊤ so every mutation
//      evicts them (XQSA035), and updates writing names nothing in the
//      page reads (XQSA036).
//
// Diagnostic severity: XQSA001-029 are errors, XQSA030/031/033-036
// warnings, XQSA032 info. Warnings and infos can be suppressed per
// module with
//   declare option lint "suppress:XQSA030 XQSA032";

#ifndef XQIB_XQUERY_ANALYSIS_ANALYZER_H_
#define XQIB_XQUERY_ANALYSIS_ANALYZER_H_

#include <vector>

#include "xquery/analysis/diagnostic.h"
#include "xquery/analysis/facts.h"
#include "xquery/ast.h"

namespace xqib::xquery::analysis {

struct AnalyzerOptions {
  bool check_scopes = true;
  bool infer_types = true;
  bool check_updates = true;
  bool lint = true;
};

struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;
  AnalysisFacts facts;

  bool has_errors() const { return HasErrors(diagnostics); }
  // First error-severity diagnostic as a Status; OK when none.
  Status ToStatus() const;
};

class Analyzer {
 public:
  explicit Analyzer(AnalyzerOptions options = AnalyzerOptions());

  // Registers a module whose declarations are visible to the analyzed
  // module without being checked themselves: imported libraries, or the
  // other <script> blocks of the same page (a page's scripts share one
  // static context, so a listener may call a function declared in a
  // later script).
  void AddContextModule(const Module& module);

  // Runs all enabled passes over `module`. Purity facts cover declared
  // functions of the context modules as well (the fixpoint runs over
  // the joint call graph).
  AnalysisResult Analyze(const Module& module) const;

 private:
  AnalyzerOptions options_;
  std::vector<const Module*> context_modules_;
};

}  // namespace xqib::xquery::analysis

#endif  // XQIB_XQUERY_ANALYSIS_ANALYZER_H_
