// Plan executor: a linear dispatch loop over the flat op array. One
// frame is one std::vector of Sequence registers — loop bodies re-run
// over the same registers, so warm iterations reuse every buffer's
// capacity. All value semantics come from the same valueops kernels the
// tree walker calls, which keeps compiled_plans=false a bit-for-bit
// oracle.

#include <utility>
#include <vector>

#include "xdm/item.h"
#include "xquery/evaluator.h"
#include "xquery/plan/plan.h"
#include "xquery/value_ops.h"

namespace xqib::xquery::plan {

// Friend-forwarders into the Evaluator's private fast-path machinery
// (the EvaluatorStreams idiom): the executor reuses the element-name
// index probes and counter mirrors instead of duplicating them.
struct PlanEvaluatorAccess {
  static Result<xdm::Sequence> PathInput(Evaluator& ev, const Expr& e,
                                         DynamicContext& ctx) {
    return ev.PathInput(e, ctx);
  }
  static bool TryIndexedStep(Evaluator& ev, const Step& step,
                             const xdm::Sequence& current,
                             xdm::Sequence* out) {
    return ev.TryIndexedStep(step, current, out);
  }
  static bool TryFastCount(Evaluator& ev, const Expr& arg,
                           DynamicContext& ctx, int64_t* out) {
    return ev.TryFastCount(arg, ctx, out);
  }
  static bool Exited(const Evaluator& ev) { return ev.exit_flag_; }
};

namespace {

using xdm::AtomicType;
using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;

using Access = PlanEvaluatorAccess;

// Sequence iterator state: points into a register that stays untouched
// while the iterator is live (the compiler never reuses a loop's source
// register inside its body).
struct IterState {
  const Sequence* seq = nullptr;
  size_t pos = 0;  // 1-based position of the item most recently yielded
};

// Singleton assignment that keeps the register's capacity.
void AssignSingle(Sequence* reg, Item item) {
  reg->clear();
  reg->push_back(std::move(item));
}

Result<Sequence> Run(const FunctionPlan& fp, const ModulePlans& plans,
                     std::vector<Sequence>* regs, Evaluator& ev,
                     DynamicContext& ctx) {
  std::vector<IterState> iters(fp.num_iters);
  size_t pc = 0;
  while (true) {
    const Op& op = fp.ops[pc];
    switch (op.code) {
      case OpCode::kLoadConst:
        (*regs)[op.dst] = fp.consts[op.imm];
        break;
      case OpCode::kMove:
        (*regs)[op.dst] = (*regs)[op.a];
        break;
      case OpCode::kLoadGlobal: {
        XQ_ASSIGN_OR_RETURN((*regs)[op.dst],
                            ctx.env().Lookup(fp.names[op.imm]));
        break;
      }
      case OpCode::kLoadContext: {
        if (!ctx.focus().has_item) {
          return Status::Error("XPDY0002", "context item is undefined");
        }
        AssignSingle(&(*regs)[op.dst], ctx.focus().item);
        break;
      }
      case OpCode::kConcat: {
        Sequence& dst = (*regs)[op.dst];
        dst.clear();
        for (uint16_t i = 0; i < op.b; ++i) {
          Sequence& part = (*regs)[op.a + i];
          dst.insert(dst.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
        }
        break;
      }
      case OpCode::kRange: {
        const Sequence& lo_seq = (*regs)[op.a];
        const Sequence& hi_seq = (*regs)[op.b];
        Sequence& dst = (*regs)[op.dst];
        dst.clear();
        if (lo_seq.empty() || hi_seq.empty()) break;
        XQ_ASSIGN_OR_RETURN(AtomicValue lo_a,
                            valueops::RequireSingleAtomic(lo_seq, "range"));
        XQ_ASSIGN_OR_RETURN(AtomicValue hi_a,
                            valueops::RequireSingleAtomic(hi_seq, "range"));
        XQ_ASSIGN_OR_RETURN(int64_t lo, lo_a.ToInteger());
        XQ_ASSIGN_OR_RETURN(int64_t hi, hi_a.ToInteger());
        if (hi >= lo) dst.reserve(static_cast<size_t>(hi - lo + 1));
        for (int64_t v = lo; v <= hi; ++v) dst.push_back(Item::Integer(v));
        ev.counters().items_materialized += dst.size();
        break;
      }
      case OpCode::kArithInt: {
        // Fact-specialized, dynamically guarded: singleton integers take
        // the allocation-free inline path, anything else falls through
        // to the generic kernel.
        const Sequence& l = (*regs)[op.a];
        const Sequence& r = (*regs)[op.b];
        if (l.size() == 1 && r.size() == 1 && !l[0].is_node() &&
            !r[0].is_node() &&
            l[0].atomic().type() == AtomicType::kInteger &&
            r[0].atomic().type() == AtomicType::kInteger) {
          int64_t x = l[0].atomic().int_value();
          int64_t y = r[0].atomic().int_value();
          ArithOp aop = static_cast<ArithOp>(op.imm);
          bool inlined = true;
          int64_t v = 0;
          switch (aop) {
            case ArithOp::kAdd: v = x + y; break;
            case ArithOp::kSub: v = x - y; break;
            case ArithOp::kMul: v = x * y; break;
            case ArithOp::kIDiv:
            case ArithOp::kMod:
              if (y == 0) {
                return Status::Error("FOAR0001", aop == ArithOp::kMod
                                                     ? "integer modulo by zero"
                                                     : "integer division by "
                                                       "zero");
              }
              v = aop == ArithOp::kMod ? x % y : x / y;
              break;
            case ArithOp::kDiv:
              // Non-exact division produces a decimal: generic kernel.
              inlined = y != 0 && x % y == 0;
              if (y == 0) {
                return Status::Error("FOAR0001", "integer division by zero");
              }
              v = inlined ? x / y : 0;
              break;
          }
          if (inlined) {
            AssignSingle(&(*regs)[op.dst], Item::Integer(v));
            break;
          }
        }
        XQ_ASSIGN_OR_RETURN(
            (*regs)[op.dst],
            valueops::ArithSequences(static_cast<ArithOp>(op.imm), l, r));
        break;
      }
      case OpCode::kArith: {
        XQ_ASSIGN_OR_RETURN(
            (*regs)[op.dst],
            valueops::ArithSequences(static_cast<ArithOp>(op.imm),
                                     (*regs)[op.a], (*regs)[op.b]));
        break;
      }
      case OpCode::kArithUnary: {
        XQ_ASSIGN_OR_RETURN(
            (*regs)[op.dst],
            valueops::ArithUnary(static_cast<ArithOp>(op.imm),
                                 (*regs)[op.a]));
        break;
      }
      case OpCode::kCompare: {
        XQ_ASSIGN_OR_RETURN(
            (*regs)[op.dst],
            valueops::CompareSequences(static_cast<CompOp>(op.imm),
                                       (*regs)[op.a], (*regs)[op.b]));
        break;
      }
      case OpCode::kEbv: {
        XQ_ASSIGN_OR_RETURN(bool v,
                            xdm::EffectiveBooleanValue((*regs)[op.a]));
        AssignSingle(&(*regs)[op.dst], Item::Boolean(v));
        break;
      }
      case OpCode::kJump:
        pc = static_cast<size_t>(op.imm);
        continue;
      case OpCode::kJumpIfFalse:
      case OpCode::kJumpIfTrue: {
        XQ_ASSIGN_OR_RETURN(bool v,
                            xdm::EffectiveBooleanValue((*regs)[op.a]));
        if (v == (op.code == OpCode::kJumpIfTrue)) {
          pc = static_cast<size_t>(op.imm);
          continue;
        }
        break;
      }
      case OpCode::kIterInit:
        iters[op.dst] = IterState{&(*regs)[op.a], 0};
        break;
      case OpCode::kIterNext: {
        IterState& it = iters[op.a];
        if (it.pos >= it.seq->size()) {
          pc = static_cast<size_t>(op.imm);
          continue;
        }
        AssignSingle(&(*regs)[op.dst], (*it.seq)[it.pos]);
        ++it.pos;
        break;
      }
      case OpCode::kIterPos:
        AssignSingle(&(*regs)[op.dst],
                     Item::Integer(static_cast<int64_t>(iters[op.a].pos)));
        break;
      case OpCode::kAppend: {
        const Sequence& src = (*regs)[op.a];
        Sequence& dst = (*regs)[op.dst];
        dst.insert(dst.end(), src.begin(), src.end());
        break;
      }
      case OpCode::kClear:
        (*regs)[op.dst].clear();
        break;
      case OpCode::kCallPlan: {
        if (++ctx.call_depth > DynamicContext::kMaxCallDepth) {
          --ctx.call_depth;
          const FunctionPlan& callee = *plans.fns[op.imm];
          return Status::DynamicError(
              "XQIB0002", "maximum recursion depth exceeded in " +
                              callee.decl->name.Lexical());
        }
        std::vector<Sequence> args;
        args.reserve(op.b);
        for (uint16_t i = 0; i < op.b; ++i) {
          args.push_back(std::move((*regs)[op.a + i]));
        }
        Result<Sequence> r =
            ExecutePlan(*plans.fns[op.imm], plans, std::move(args), ev, ctx);
        --ctx.call_depth;
        if (!r.ok()) return r.status();
        // "exit with" terminates the callee: the call yields the exit
        // value, mirroring the tree walker's function-call boundary.
        (*regs)[op.dst] = Access::Exited(ev) ? ev.TakeExitValue()
                                             : std::move(*r);
        ++ev.counters().plan_hits;
        break;
      }
      case OpCode::kCallDyn: {
        std::vector<Sequence> args;
        args.reserve(op.b);
        for (uint16_t i = 0; i < op.b; ++i) {
          args.push_back(std::move((*regs)[op.a + i]));
        }
        XQ_ASSIGN_OR_RETURN(
            (*regs)[op.dst],
            ev.CallFunction(fp.names[op.imm], std::move(args), ctx));
        break;
      }
      case OpCode::kPathIndexed: {
        const Expr& path = *fp.exprs[op.imm];
        XQ_ASSIGN_OR_RETURN(Sequence origin, Access::PathInput(ev, path, ctx));
        if (Access::TryIndexedStep(ev, path.steps[0], origin,
                                   &(*regs)[op.dst])) {
          ++ev.counters().name_index_hits;
          ++ev.counters().sorts_elided;
        } else {
          XQ_ASSIGN_OR_RETURN((*regs)[op.dst], ev.Eval(path, ctx));
        }
        break;
      }
      case OpCode::kCountIndexed: {
        const Expr& call = *fp.exprs[op.imm];
        int64_t n = 0;
        // Runtime re-check of the shadowing the compiler could not rule
        // out statically: a host external registered under fn:count.
        if (ctx.FindExternal(fp.names[op.b], 1) == nullptr &&
            Access::TryFastCount(ev, *call.kids[0], ctx, &n)) {
          AssignSingle(&(*regs)[op.dst], Item::Integer(n));
          break;
        }
        XQ_ASSIGN_OR_RETURN((*regs)[op.dst], ev.Eval(call, ctx));
        break;
      }
      case OpCode::kBindEnv: {
        // A bind run re-establishes the plan's in-scope variables for
        // the single kEvalExpr that follows it; its own scope keeps
        // repeated fallbacks (loops) from growing the environment.
        ctx.env().PushScope();
        size_t j = pc;
        while (fp.ops[j].code == OpCode::kBindEnv) {
          ctx.env().Bind(fp.names[fp.ops[j].imm], (*regs)[fp.ops[j].a]);
          ++j;
        }
        const Op& eval_op = fp.ops[j];
        Result<Sequence> r = ev.Eval(*fp.exprs[eval_op.imm], ctx);
        ctx.env().PopScope();
        if (!r.ok()) return r.status();
        (*regs)[eval_op.dst] = std::move(*r);
        if (Access::Exited(ev)) return Sequence{};
        pc = j + 1;
        continue;
      }
      case OpCode::kEvalExpr: {
        XQ_ASSIGN_OR_RETURN((*regs)[op.dst],
                            ev.Eval(*fp.exprs[op.imm], ctx));
        if (Access::Exited(ev)) return Sequence{};
        break;
      }
      case OpCode::kInsert: {
        XQ_RETURN_NOT_OK(valueops::BuildInsert(
            static_cast<InsertMode>(op.imm), (*regs)[op.a], (*regs)[op.b],
            &ctx.pul()));
        (*regs)[op.dst].clear();
        break;
      }
      case OpCode::kDelete: {
        XQ_RETURN_NOT_OK(valueops::BuildDelete((*regs)[op.a], &ctx.pul()));
        (*regs)[op.dst].clear();
        break;
      }
      case OpCode::kReplace: {
        XQ_RETURN_NOT_OK(valueops::BuildReplace(
            op.imm != 0, (*regs)[op.a], (*regs)[op.b], &ctx.pul()));
        (*regs)[op.dst].clear();
        break;
      }
      case OpCode::kRename: {
        XQ_RETURN_NOT_OK(valueops::BuildRename((*regs)[op.a], (*regs)[op.b],
                                               &ctx.pul()));
        (*regs)[op.dst].clear();
        break;
      }
      case OpCode::kReturn:
        return std::move((*regs)[op.a]);
    }
    ++pc;
  }
}

}  // namespace

Result<xdm::Sequence> ExecutePlan(const FunctionPlan& fp,
                                  const ModulePlans& plans,
                                  std::vector<xdm::Sequence> args,
                                  Evaluator& ev, DynamicContext& ctx) {
  std::vector<Sequence> regs(fp.num_regs);
  for (size_t i = 0; i < args.size() && i < fp.num_params; ++i) {
    regs[i] = std::move(args[i]);
  }
  // Frames that touch the environment (globals / fallbacks) get the
  // same barrier scope a tree-walked call would: caller locals hidden,
  // globals visible. Register-only frames skip even that.
  if (!fp.uses_env) return Run(fp, plans, &regs, ev, ctx);
  ctx.env().PushScope(/*barrier=*/true);
  Result<Sequence> r = Run(fp, plans, &regs, ev, ctx);
  ctx.env().PopScope();
  return r;
}

}  // namespace xqib::xquery::plan
