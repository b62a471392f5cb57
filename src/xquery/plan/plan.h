// Compiled query plans (ROADMAP open item 2): user-declared function
// bodies are lowered once into a flat, register-addressed bytecode form
// — the algebra-style "compile, then run operators" split of the
// Tout-XML mediation architecture — so a memo-miss listener dispatch
// executes a linear op array instead of tree-walking the AST.
//
// Layering: the compiler consumes the optimizer's annotated AST and the
// analyzer's facts (cardinality/purity) and emits specialized opcodes;
// the executor runs over the same xdm::Sequence values, value_ops
// kernels, and pending-update builders as the tree walker, which is
// what keeps the tree walker a valid oracle (EvalOptions::
// compiled_plans=false). Anything the compiler does not lower natively
// falls back per-subtree to Evaluator::Eval, with plan-held register
// variables re-bound into the environment first — fallbacks are always
// correct, only slower.
//
// Plans are cached process-wide in PlanCache, keyed on the static
// context's plan_source_hash with its plan_fingerprint as validator:
// identical page scripts across pages (or sessions) share one compiled
// plan set, and a same-source probe whose fingerprint differs (changed
// library module, namespaces, options) invalidates the stale entry.

#ifndef XQIB_XQUERY_PLAN_PLAN_H_
#define XQIB_XQUERY_PLAN_PLAN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "xdm/item.h"
#include "xquery/ast.h"
#include "xquery/context.h"

namespace xqib::xquery {
class Evaluator;
namespace analysis {
struct AnalysisFacts;
}  // namespace analysis
}  // namespace xqib::xquery

namespace xqib::xquery::plan {

// One flat instruction. Operands address the frame's Sequence registers
// (dst/a/b); imm indexes a side pool (consts/names/exprs/fns), carries
// the jump target, or encodes the operator sub-code.
enum class OpCode : uint8_t {
  kLoadConst,    // regs[dst] = consts[imm]
  kMove,         // regs[dst] = regs[a]
  kLoadGlobal,   // regs[dst] = env.Lookup(names[imm])
  kLoadContext,  // regs[dst] = { focus item } (XPDY0002 when absent)
  kConcat,       // regs[dst] = regs[a] .. regs[a+b-1] concatenated
  kRange,        // regs[dst] = integers regs[a] to regs[b]
  kArith,        // regs[dst] = regs[a] <ArithOp imm> regs[b]
  kArithInt,     // same, singleton-integer specialization (guarded)
  kArithUnary,   // regs[dst] = <ArithOp imm> regs[a]
  kCompare,      // regs[dst] = regs[a] <CompOp imm> regs[b]
  kEbv,          // regs[dst] = { boolean EBV(regs[a]) }
  kJump,         // pc = imm
  kJumpIfFalse,  // if (!EBV(regs[a])) pc = imm
  kJumpIfTrue,   // if (EBV(regs[a]))  pc = imm
  kIterInit,     // iters[dst] = begin(regs[a])   (regs[a] pinned while live)
  kIterNext,     // regs[dst] = next item of iters[a]; exhausted -> pc = imm
  kIterPos,      // regs[dst] = { Integer(1-based position of iters[a]) }
  kAppend,       // regs[dst] += regs[a]
  kClear,        // regs[dst] = ()   (keeps capacity)
  kCallPlan,     // regs[dst] = execute fns[imm](regs[a] .. regs[a+b-1])
  kCallDyn,      // regs[dst] = ev.CallFunction(names[imm], a..a+b-1)
  kPathIndexed,  // regs[dst] = path exprs[imm] from regs[a] (b != 0) or
                 //             its own input, with the element-name
                 //             index answering descendant name steps
  kCountIndexed, // regs[dst] = { Integer(count(exprs[imm])) }, the path
                 //             from regs[a] (b != 0): the index slice
                 //             size when its input is one attached node
  kBindEnv,      // env.Bind(names[imm], regs[a])  (fallback free vars)
  kEvalExpr,     // regs[dst] = ev.Eval(*exprs[imm], ctx)  (tree fallback)
  kInsert,       // BuildInsert(mode=imm, source=regs[a], target=regs[b])
  kDelete,       // BuildDelete(targets=regs[a])
  kReplace,      // BuildReplace(value_of=imm, target=regs[a], src=regs[b])
  kRename,       // BuildRename(target=regs[a], name=regs[b])
  kReturn,       // return regs[a]
};

struct Op {
  OpCode code;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  int32_t imm = 0;
};

// A compiled function body. Holds shared ownership of its declaration:
// exprs/steps fallback pointers live in the decl's AST, so a cached plan
// stays valid after the page (and StaticContext) that compiled it is
// gone — interned QName tokens are process-wide, so identical text in a
// new page resolves to the same tokens and reuses this plan.
struct FunctionPlan {
  std::shared_ptr<const FunctionDecl> decl;
  std::vector<Op> ops;
  std::vector<xdm::Sequence> consts;
  std::vector<xml::QName> names;
  std::vector<const Expr*> exprs;
  uint16_t num_regs = 0;    // params occupy regs [0, num_params)
  uint16_t num_iters = 0;
  uint16_t num_params = 0;
  bool uses_env = false;    // frame pushes a barrier scope for kBindEnv
  bool updating = false;
  size_t bytes = 0;         // approximate code + pool footprint
  // Deterministic per-op listing with specialization annotations,
  // rendered by xq_lint --plan / xq_repl :plan.
  std::vector<std::string> listing;
};

// All plans compiled from one static context, indexed by interned name
// token + arity (kCallPlan binds callees by position in fns).
struct ModulePlans {
  struct Key {
    const xml::InternedName* name;
    size_t arity;
    friend bool operator==(const Key& x, const Key& y) {
      return x.name == y.name && x.arity == y.arity;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const noexcept {
      return std::hash<const void*>{}(k.name) * 31 + k.arity;
    }
  };

  std::vector<std::unique_ptr<FunctionPlan>> fns;
  std::unordered_map<Key, size_t, KeyHash> index;
  size_t total_bytes = 0;

  const FunctionPlan* Find(const xml::InternedName* name,
                           size_t arity) const {
    auto it = index.find(Key{name, arity});
    return it == index.end() ? nullptr : fns[it->second].get();
  }
};

// Lowers every non-external user function registered in `sctx`. `facts`
// is optional and only adds specializations (never changes semantics —
// every fact-driven opcode keeps a dynamic guard).
std::shared_ptr<const ModulePlans> CompileModulePlans(
    const StaticContext& sctx, const analysis::AnalysisFacts* facts);

// Executes a compiled function frame: `args` become registers
// [0, num_params). The caller (Evaluator::CallFunction) owns the
// recursion-depth guard and the exit-flag takeover, mirroring the tree
// path exactly.
Result<xdm::Sequence> ExecutePlan(const FunctionPlan& fp,
                                  const ModulePlans& plans,
                                  std::vector<xdm::Sequence> args,
                                  Evaluator& ev, DynamicContext& ctx);

// Deterministic dump of every compiled plan, functions ordered by Clark
// name + arity.
std::string DumpModulePlans(const ModulePlans& plans);

// CLI helper (xq_lint --plan, xq_repl :plan): parse + analyze +
// optimize + compile a standalone module and dump its plans.
Result<std::string> DumpPlansForQuery(const std::string& source);

// Process-wide plan cache. Key: plan_source_hash of the non-library
// module text. Validator: plan_fingerprint. Thread-safe; racing
// compilers may both compile, the first Insert wins and the loser
// adopts the winner's plans.
class PlanCache {
 public:
  static PlanCache& Global();

  // Entry present with matching fingerprint -> its plans. Present with
  // a different fingerprint -> the stale entry is erased, *invalidated
  // is set, and null returns (the caller recompiles). Absent -> null.
  std::shared_ptr<const ModulePlans> Probe(uint64_t source_hash,
                                           uint64_t fingerprint,
                                           bool* invalidated);
  std::shared_ptr<const ModulePlans> Insert(
      uint64_t source_hash, uint64_t fingerprint,
      std::shared_ptr<const ModulePlans> plans);

  size_t size() const;
  void Clear();  // test isolation

  // Cache-level accounting, distinct from the plan_* dispatch counters
  // (xquery/counters.h): with N page sessions sharing this cache the
  // per-session numbers fragment across sessions, while these stay
  // whole-process — the page server's `:sessions` / GET /server/sessions
  // introspection reads them. hits/misses/invalidations are cumulative;
  // resident_bytes tracks live entries only.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;  // fingerprint-mismatch evictions
    uint64_t inserts = 0;        // entries actually stored (races adopt)
    uint64_t resident_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    uint64_t fingerprint;
    std::shared_ptr<const ModulePlans> plans;
  };
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> map_;
  Stats stats_;  // guarded by mu_
};

}  // namespace xqib::xquery::plan

#endif  // XQIB_XQUERY_PLAN_PLAN_H_
