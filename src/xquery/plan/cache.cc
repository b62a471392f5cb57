// Process-wide plan cache and the deterministic plan dump used by
// xq_lint --plan / xq_repl :plan.

#include <memory>
#include <string>
#include <utility>

#include "xquery/analysis/analyzer.h"
#include "xquery/optimizer.h"
#include "xquery/parser.h"
#include "xquery/plan/plan.h"

namespace xqib::xquery::plan {

PlanCache& PlanCache::Global() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

std::shared_ptr<const ModulePlans> PlanCache::Probe(uint64_t source_hash,
                                                    uint64_t fingerprint,
                                                    bool* invalidated) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(source_hash);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second.fingerprint != fingerprint) {
    // Same page text, different static context (library module,
    // namespaces, options changed): the cached plans are stale.
    stats_.resident_bytes -= it->second.plans->total_bytes;
    ++stats_.invalidations;
    ++stats_.misses;
    map_.erase(it);
    if (invalidated != nullptr) *invalidated = true;
    return nullptr;
  }
  ++stats_.hits;
  return it->second.plans;
}

std::shared_ptr<const ModulePlans> PlanCache::Insert(
    uint64_t source_hash, uint64_t fingerprint,
    std::shared_ptr<const ModulePlans> plans) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = map_.try_emplace(source_hash);
  if (inserted || it->second.fingerprint != fingerprint) {
    if (!inserted) stats_.resident_bytes -= it->second.plans->total_bytes;
    it->second = Entry{fingerprint, std::move(plans)};
    ++stats_.inserts;
    stats_.resident_bytes += it->second.plans->total_bytes;
    return it->second.plans;
  }
  // A racing compiler won: adopt its plans so every evaluator with this
  // key executes the same objects.
  return it->second.plans;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  stats_.resident_bytes = 0;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string DumpModulePlans(const ModulePlans& plans) {
  std::string out;
  for (const auto& fp : plans.fns) {
    out += "plan " + fp->decl->name.Clark() + "#" +
           std::to_string(fp->num_params);
    out += " regs=" + std::to_string(fp->num_regs);
    out += " iters=" + std::to_string(fp->num_iters);
    if (fp->updating) out += " [updating]";
    if (fp->uses_env) out += " [env]";
    out += "\n";
    for (const std::string& line : fp->listing) {
      out += "  " + line + "\n";
    }
  }
  if (plans.fns.empty()) out = "no user-declared functions\n";
  return out;
}

Result<std::string> DumpPlansForQuery(const std::string& source) {
  // The same pipeline a page script goes through: parse, analyze,
  // optimize with the inferred facts, register, compile.
  XQ_ASSIGN_OR_RETURN(std::unique_ptr<Module> module, ParseModule(source));
  analysis::Analyzer analyzer;
  analysis::AnalysisResult analyzed = analyzer.Analyze(*module);
  OptimizeModule(module.get(), OptimizerOptions(), &analyzed.facts);
  StaticContext sctx;
  sctx.AddModule(*module);
  std::shared_ptr<const ModulePlans> plans =
      CompileModulePlans(sctx, &analyzed.facts);
  return DumpModulePlans(*plans);
}

}  // namespace xqib::xquery::plan
