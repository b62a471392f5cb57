// Multi-pass static analyzer for XQuery programs (the load-time safety
// net the paper's plug-in pipeline lacks: a broken page script should
// fail at page load, not at event-dispatch time in front of the user).
//
// A program is the modules that share one static context: a page's
// XQuery scripts and XQuery inline handlers (xq_lint and the plug-in),
// or a main module and the libraries it imports (Engine::Compile).
// AnalyzeProgram walks them together, once: one function table, one
// effect fixpoint, one AnalysisFacts; each module gets its own
// diagnostics.
//
// Passes:
//   1. scope/symbol  — resolves $var references and function calls
//      against the prologs + the builtin library; reports undefined
//      names, duplicate declarations (a function declared twice with one
//      arity anywhere in the program), and arity mismatches
//      (XQSA001-005).
//   2. type inference — a small XDM lattice (item class + occurrence
//      bounds); flags statically-impossible comparisons (XQSA010) and
//      records inferred cardinalities in AnalysisFacts for the
//      optimizer's inferred-singleton rewrites.
//   3. update placement — enforces XQUF placement rules (no updating
//      expression in a non-updating context, XQSA020/022; no delete or
//      replace of the document root, XQSA021).
//   4. lint — unused variables (XQSA030), unreachable branches after
//      constant conditions (XQSA031) and descendant (`//`) paths the
//      optimizer's path collapsing cannot rewrite (XQSA032).
//   5. effects — the one call-graph fixpoint of effects.h, published in
//      AnalysisFacts (function_effects, all_reads). Each summary decides
//      whether a function is pure, memoizable or fabric-writing and
//      which URLs it fetches; three lints read them: same-event
//      listeners of one module with interfering effects (XQSA034),
//      memoizable listeners whose read set is ⊤ so every mutation evicts
//      them (XQSA035), and updates writing names nothing in the program
//      reads (XQSA036).
//
// Diagnostic severity: XQSA001-029 are errors, XQSA030/031/034-036
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

struct AnalysisResult {
  // One list per analyzed module, in the order the modules were given,
  // each sorted by source position, then code.
  std::vector<std::vector<Diagnostic>> diagnostics;
  AnalysisFacts facts;

  // First error-severity diagnostic, in module order, as a Status; OK
  // when none.
  Status ToStatus() const;
};

// Runs every pass over the modules of one program, in the order given
// (the order their globals are bound and their bodies run). Each module
// sees every module's function declarations. Its global initializers
// and body see its own globals and, under their declared types, those
// of the modules before it; its function bodies, which run once the
// program is loaded, see every module's globals.
AnalysisResult AnalyzeProgram(const std::vector<const Module*>& modules);

}  // namespace xqib::xquery::analysis

#endif  // XQIB_XQUERY_ANALYSIS_ANALYZER_H_
