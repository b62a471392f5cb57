// Public entry point of the XQuery engine: compile a module once, then
// run its body and/or call its functions against a DynamicContext. The
// plug-in (Figure 1) compiles the page's prolog at load time and
// re-enters the compiled query for every event listener call.

#ifndef XQIB_XQUERY_ENGINE_H_
#define XQIB_XQUERY_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "xquery/analysis/analyzer.h"
#include "xquery/ast.h"
#include "xquery/context.h"
#include "xquery/evaluator.h"
#include "xquery/optimizer.h"

namespace xqib::xquery {

class Engine;

struct CompileOptions {
  bool optimize = true;
  OptimizerOptions optimizer;
  // Static analysis. Lenient by default: diagnostics are collected on
  // the CompiledQuery (and feed the optimizer's inferred rewrites) but
  // do not fail compilation — scripts with only dynamic errors still
  // run. `strict` turns error-severity diagnostics into compile
  // failures; the plug-in and xq_lint use that mode.
  bool analyze = true;
  bool strict = false;
};

// A compiled main module plus its resolved static context.
class CompiledQuery {
 public:
  // Evaluates prolog global variables into ctx (in declaration order,
  // imported libraries first). Call once per DynamicContext.
  Status BindGlobals(DynamicContext& ctx);

  // Evaluates the query body. With `apply_updates` (the default), the
  // pending update list is applied afterwards — the Update Facility's
  // snapshot semantics. (Scripting blocks apply their own updates at
  // statement boundaries regardless.)
  Result<xdm::Sequence> Run(DynamicContext& ctx, bool apply_updates = true);

  // Calls a declared function (event listeners, web-service endpoints).
  Result<xdm::Sequence> Call(const xml::QName& function,
                             std::vector<xdm::Sequence> args,
                             DynamicContext& ctx);

  const Module& module() const { return *module_; }
  const StaticContext& static_context() const { return sctx_; }
  Evaluator& evaluator() { return evaluator_; }
  const OptimizerStats& optimizer_stats() const { return optimizer_stats_; }

  // Static-analysis output. Diagnostics include warnings/infos even in
  // lenient mode.
  const std::vector<analysis::Diagnostic>& diagnostics() const {
    return diagnostics_;
  }

 private:
  friend class Engine;
  CompiledQuery(std::unique_ptr<Module> module, StaticContext sctx,
                std::vector<const Module*> imported)
      : module_(std::move(module)),
        sctx_(std::move(sctx)),
        imported_(std::move(imported)),
        evaluator_(sctx_) {}

  std::unique_ptr<Module> module_;
  StaticContext sctx_;
  std::vector<const Module*> imported_;  // for global binding order
  // Holds the full AnalysisFacts (Evaluator::set_analysis_facts) for
  // compiled-plan specialization and the FLWOR scatter; cardinality
  // entries key on AST nodes, so only facts whose nodes survived the
  // optimizer still resolve.
  Evaluator evaluator_;
  OptimizerStats optimizer_stats_;
  std::vector<analysis::Diagnostic> diagnostics_;
};

// Compiles queries and holds registered library modules (importable by
// namespace; the substrate for the paper's §3.4 web-service modules).
class Engine {
 public:
  // Parses and registers a library module; returns its namespace.
  Result<std::string> LoadLibrary(std::string_view source);

  // Compiles a main module, resolving imports against loaded libraries.
  // Imports with no matching library are allowed: calls into them must
  // be satisfied by external functions on the DynamicContext (this is
  // how remote web-service stubs plug in).
  Result<std::unique_ptr<CompiledQuery>> Compile(std::string_view source);
  Result<std::unique_ptr<CompiledQuery>> Compile(
      std::string_view source, const CompileOptions& options);

  const Module* FindLibrary(const std::string& ns) const;

 private:
  std::unordered_map<std::string, std::unique_ptr<Module>> libraries_;
};

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_ENGINE_H_
