#include "xquery/engine.h"

#include "xquery/parser.h"
#include "xquery/update.h"

namespace xqib::xquery {

Status CompiledQuery::BindGlobals(DynamicContext& ctx) {
  auto bind_module = [&](const Module& m) -> Status {
    for (const VarDecl& v : m.variables) {
      if (v.external) {
        // External variables must be pre-bound by the host; missing ones
        // default to the empty sequence (browser leniency).
        if (!ctx.env().IsBound(v.name)) {
          ctx.env().Bind(v.name, xdm::Sequence{});
        }
        continue;
      }
      if (v.init == nullptr) {
        ctx.env().Bind(v.name, xdm::Sequence{});
        continue;
      }
      XQ_ASSIGN_OR_RETURN(xdm::Sequence value, evaluator_.Eval(*v.init, ctx));
      ctx.env().Bind(v.name, std::move(value));
    }
    return Status();
  };
  for (const Module* lib : imported_) {
    XQ_RETURN_NOT_OK(bind_module(*lib));
  }
  return bind_module(*module_);
}

Result<xdm::Sequence> CompiledQuery::Run(DynamicContext& ctx,
                                         bool apply_updates) {
  if (module_->body == nullptr) return xdm::Sequence{};
  XQ_ASSIGN_OR_RETURN(xdm::Sequence result,
                      evaluator_.Eval(*module_->body, ctx));
  if (evaluator_.exited()) result = evaluator_.TakeExitValue();
  if (apply_updates) {
    XQ_RETURN_NOT_OK(evaluator_.ApplyUpdates(ctx));
  }
  // The result is materialized and the apply pass is done: no stream
  // operator allocated this run can still be live, so the whole dispatch
  // arena is reclaimed in one wholesale reset.
  evaluator_.ResetDispatchArena(ctx);
  return result;
}

Result<xdm::Sequence> CompiledQuery::Call(const xml::QName& function,
                                          std::vector<xdm::Sequence> args,
                                          DynamicContext& ctx) {
  XQ_ASSIGN_OR_RETURN(
      xdm::Sequence result,
      evaluator_.CallFunction(function, std::move(args), ctx));
  if (evaluator_.exited()) result = evaluator_.TakeExitValue();
  XQ_RETURN_NOT_OK(evaluator_.ApplyUpdates(ctx));
  evaluator_.ResetDispatchArena(ctx);
  return result;
}

Result<std::string> Engine::LoadLibrary(std::string_view source) {
  XQ_ASSIGN_OR_RETURN(std::unique_ptr<Module> module, ParseModule(source));
  if (!module->is_library) {
    return Status::StaticError("XQST0016",
                               "not a library module (missing module "
                               "namespace declaration)");
  }
  std::string ns = module->module_ns;
  libraries_[ns] = std::move(module);
  return ns;
}

Result<std::unique_ptr<CompiledQuery>> Engine::Compile(
    std::string_view source) {
  return Compile(source, CompileOptions());
}

Result<std::unique_ptr<CompiledQuery>> Engine::Compile(
    std::string_view source, const CompileOptions& options) {
  XQ_ASSIGN_OR_RETURN(std::unique_ptr<Module> module, ParseModule(source));
  // Imports are resolved before analysis so imported declarations are
  // visible to the scope pass and the effect fixpoint.
  StaticContext sctx;
  std::vector<const Module*> imported;
  for (const Module::Import& imp : module->imports) {
    auto it = libraries_.find(imp.ns);
    if (it != libraries_.end()) {
      sctx.AddModule(*it->second);
      imported.push_back(it->second.get());
    }
    // Unresolved imports are deferred to external functions at run time.
  }
  analysis::AnalysisResult analyzed;
  if (options.analyze) {
    analysis::Analyzer analyzer;
    for (const Module* lib : imported) analyzer.AddContextModule(*lib);
    analyzed = analyzer.Analyze(*module);
    if (options.strict && analyzed.has_errors()) {
      return analyzed.ToStatus();
    }
  }
  OptimizerStats stats;
  if (options.optimize) {
    stats = OptimizeModule(module.get(), options.optimizer,
                           options.analyze ? &analyzed.facts : nullptr);
  }
  sctx.AddModule(*module);
  auto compiled = std::unique_ptr<CompiledQuery>(new CompiledQuery(
      std::move(module), std::move(sctx), std::move(imported)));
  compiled->optimizer_stats_ = stats;
  compiled->diagnostics_ = std::move(analyzed.diagnostics);
  if (options.analyze) {
    // Retained for the FLWOR scatter, which reads the effect summaries.
    compiled->evaluator_.set_analysis_facts(
        std::make_shared<const analysis::AnalysisFacts>(
            std::move(analyzed.facts)));
  }
  return compiled;
}

const Module* Engine::FindLibrary(const std::string& ns) const {
  auto it = libraries_.find(ns);
  return it == libraries_.end() ? nullptr : it->second.get();
}

}  // namespace xqib::xquery
