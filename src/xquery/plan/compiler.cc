// Plan compiler: lowers optimizer-annotated function bodies into the
// flat register form of plan.h. Lowering is total — any construct
// outside the native subset becomes a per-subtree kEvalExpr fallback
// (preceded by kBindEnv ops for the plan-held variables the subtree may
// reference), so compilation never fails and never changes semantics.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "xquery/analysis/facts.h"
#include "xquery/evaluator.h"
#include "xquery/federation.h"
#include "xquery/plan/plan.h"
#include "xquery/profiler.h"

namespace xqib::xquery::plan {

namespace {

using xdm::Item;
using xdm::Sequence;

constexpr uint16_t kMaxRegs = 4096;  // lowering bails to fallback past this

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "div";
    case ArithOp::kIDiv: return "idiv";
    case ArithOp::kMod: return "mod";
  }
  return "?";
}

const char* CompOpName(CompOp op) {
  switch (op) {
    case CompOp::kGenEq: return "=";
    case CompOp::kGenNe: return "!=";
    case CompOp::kGenLt: return "<";
    case CompOp::kGenLe: return "<=";
    case CompOp::kGenGt: return ">";
    case CompOp::kGenGe: return ">=";
    case CompOp::kValEq: return "eq";
    case CompOp::kValNe: return "ne";
    case CompOp::kValLt: return "lt";
    case CompOp::kValLe: return "le";
    case CompOp::kValGt: return "gt";
    case CompOp::kValGe: return "ge";
    case CompOp::kIs: return "is";
    case CompOp::kPrecedes: return "<<";
    case CompOp::kFollows: return ">>";
  }
  return "?";
}

// Compiles one function body. Registers are allocated monotonically (a
// body is at most a few hundred nodes); loop bodies re-execute over the
// same fixed registers, which is what makes warm iterations
// allocation-free — a register's Sequence keeps its capacity.
class FunctionCompiler {
 public:
  FunctionCompiler(const StaticContext& sctx,
                   const analysis::AnalysisFacts* facts,
                   const ModulePlans& plans, FunctionPlan* fp)
      : sctx_(sctx), facts_(facts), plans_(plans), fp_(fp) {}

  void Compile() {
    const FunctionDecl& decl = *fp_->decl;
    fp_->num_params = static_cast<uint16_t>(decl.params.size());
    fp_->updating = decl.updating;
    for (const Param& p : decl.params) {
      scope_.emplace_back(p.name, AllocReg());
    }
    uint16_t result = CompileExpr(*decl.body);
    if (overflow_) {
      // Register budget exceeded: restart as a trivial whole-body
      // fallback (params into the environment, one tree-walk op).
      ops_.clear();
      notes_.clear();
      next_reg_ = static_cast<uint16_t>(decl.params.size());
      next_iter_ = 0;
      uses_env_ = true;
      for (size_t i = 0; i < decl.params.size(); ++i) {
        Emit(OpCode::kBindEnv, 0, static_cast<uint16_t>(i), 0,
             NameIndex(decl.params[i].name));
      }
      result = AllocReg();
      Emit(OpCode::kEvalExpr, result, 0, 0, ExprIndex(decl.body.get()),
           "whole-body fallback (register budget)");
    }
    Emit(OpCode::kReturn, 0, result, 0, 0);
    fp_->num_regs = next_reg_;
    fp_->num_iters = next_iter_;
    fp_->uses_env = uses_env_;
    RenderListing();
    fp_->bytes = fp_->ops.size() * sizeof(Op) + fp_->consts.size() * 48 +
                 fp_->names.size() * 16 + fp_->exprs.size() * 8;
    for (const std::string& line : fp_->listing) fp_->bytes += line.size();
  }

 private:
  // --- emission ---

  size_t Emit(OpCode code, uint16_t dst, uint16_t a, uint16_t b, int32_t imm,
              std::string note = std::string()) {
    ops_.push_back(Op{code, dst, a, b, imm});
    notes_.push_back(std::move(note));
    return ops_.size() - 1;
  }
  void Patch(size_t op_idx, int32_t target) {
    ops_[op_idx].imm = target;
  }
  int32_t Here() const { return static_cast<int32_t>(ops_.size()); }

  uint16_t AllocReg() {
    if (next_reg_ >= kMaxRegs) {
      overflow_ = true;
      return 0;
    }
    return next_reg_++;
  }
  uint16_t AllocIter() { return next_iter_++; }

  int32_t ConstIndex(Sequence value) {
    fp_->consts.push_back(std::move(value));
    return static_cast<int32_t>(fp_->consts.size() - 1);
  }
  int32_t NameIndex(const xml::QName& name) {
    fp_->names.push_back(name);
    return static_cast<int32_t>(fp_->names.size() - 1);
  }
  int32_t ExprIndex(const Expr* e) {
    fp_->exprs.push_back(e);
    return static_cast<int32_t>(fp_->exprs.size() - 1);
  }

  // --- facts ---

  bool ProvenSingleton(const Expr& e) const {
    if (facts_ == nullptr) return false;
    auto it = facts_->cardinality.find(&e);
    return it != facts_->cardinality.end() && it->second.IsSingleton();
  }
  bool ProvenPure(const xml::QName& name, size_t arity) const {
    return facts_ != nullptr &&
           facts_->pure_functions.count(
               analysis::AnalysisFacts::FunctionKey(name.Clark(), arity)) > 0;
  }

  // --- fallback ---

  // Emits the kBindEnv run that makes every plan-held variable visible
  // to the tree walker for the op that follows it.
  void BindScope() {
    uses_env_ = true;
    for (const auto& [name, reg] : scope_) {
      Emit(OpCode::kBindEnv, 0, reg, 0, NameIndex(name));
    }
  }

  // Re-binds every plan-held variable into the (barrier) environment
  // scope, innermost shadowing last, then tree-walks the subtree.
  uint16_t Fallback(const Expr& e, const char* why) {
    BindScope();
    uint16_t dst = AllocReg();
    std::string note = "eval " + DescribeExpr(e);
    if (why[0] != '\0') note += std::string(" (") + why + ")";
    Emit(OpCode::kEvalExpr, dst, 0, 0, ExprIndex(&e), std::move(note));
    return dst;
  }

  // --- lowering ---

  uint16_t CompileExpr(const Expr& e) {
    if (overflow_) return 0;
    switch (e.kind) {
      case ExprKind::kLiteral: {
        uint16_t dst = AllocReg();
        Emit(OpCode::kLoadConst, dst, 0, 0,
             ConstIndex(Sequence{Item::Atomic(e.atom)}),
             e.atom.ToXPathString().substr(0, 24));
        return dst;
      }
      case ExprKind::kVarRef: {
        const xml::InternedName* token = e.qname.token();
        for (size_t i = scope_.size(); i-- > 0;) {
          if (scope_[i].first.token() == token) return scope_[i].second;
        }
        uses_env_ = true;
        uint16_t dst = AllocReg();
        Emit(OpCode::kLoadGlobal, dst, 0, 0, NameIndex(e.qname),
             "$" + e.qname.Lexical());
        return dst;
      }
      case ExprKind::kContextItem: {
        uint16_t dst = AllocReg();
        Emit(OpCode::kLoadContext, dst, 0, 0, 0);
        return dst;
      }
      case ExprKind::kEnclosed:
        return CompileExpr(*e.kids[0]);
      case ExprKind::kSequence:
        return CompileSequence(e);
      case ExprKind::kRange: {
        uint16_t lo = CompileExpr(*e.kids[0]);
        uint16_t hi = CompileExpr(*e.kids[1]);
        uint16_t dst = AllocReg();
        Emit(OpCode::kRange, dst, lo, hi, 0);
        return dst;
      }
      case ExprKind::kUnary: {
        uint16_t v = CompileExpr(*e.kids[0]);
        uint16_t dst = AllocReg();
        Emit(OpCode::kArithUnary, dst, v, 0,
             static_cast<int32_t>(e.arith_op),
             std::string("unary ") + ArithOpName(e.arith_op));
        return dst;
      }
      case ExprKind::kArith: {
        uint16_t lhs = CompileExpr(*e.kids[0]);
        uint16_t rhs = CompileExpr(*e.kids[1]);
        uint16_t dst = AllocReg();
        bool specialize =
            ProvenSingleton(*e.kids[0]) && ProvenSingleton(*e.kids[1]);
        Emit(specialize ? OpCode::kArithInt : OpCode::kArith, dst, lhs, rhs,
             static_cast<int32_t>(e.arith_op),
             std::string(ArithOpName(e.arith_op)) +
                 (specialize ? " !singleton-int" : ""));
        return dst;
      }
      case ExprKind::kComparison: {
        uint16_t lhs = CompileExpr(*e.kids[0]);
        uint16_t rhs = CompileExpr(*e.kids[1]);
        uint16_t dst = AllocReg();
        bool singleton =
            ProvenSingleton(*e.kids[0]) && ProvenSingleton(*e.kids[1]);
        Emit(OpCode::kCompare, dst, lhs, rhs,
             static_cast<int32_t>(e.comp_op),
             std::string(CompOpName(e.comp_op)) +
                 (singleton ? " card=1:1" : ""));
        return dst;
      }
      case ExprKind::kLogical:
        return CompileLogical(e);
      case ExprKind::kIf:
        return CompileIf(e);
      case ExprKind::kPath:
        return CompilePath(e);
      case ExprKind::kFLWOR:
        return CompileFlwor(e);
      case ExprKind::kFunctionCall:
        return CompileCall(e);
      case ExprKind::kInsert: {
        uint16_t source = CompileExpr(*e.kids[0]);
        uint16_t target = CompileExpr(*e.kids[1]);
        uint16_t dst = AllocReg();
        Emit(OpCode::kInsert, dst, source, target,
             static_cast<int32_t>(e.insert_mode));
        return dst;
      }
      case ExprKind::kDelete: {
        uint16_t targets = CompileExpr(*e.kids[0]);
        uint16_t dst = AllocReg();
        Emit(OpCode::kDelete, dst, targets, 0, 0);
        return dst;
      }
      case ExprKind::kReplace: {
        uint16_t target = CompileExpr(*e.kids[0]);
        uint16_t source = CompileExpr(*e.kids[1]);
        uint16_t dst = AllocReg();
        Emit(OpCode::kReplace, dst, target, source,
             e.replace_value_of ? 1 : 0,
             e.replace_value_of ? "value of" : "node");
        return dst;
      }
      case ExprKind::kRename: {
        uint16_t target = CompileExpr(*e.kids[0]);
        uint16_t name = CompileExpr(*e.kids[1]);
        uint16_t dst = AllocReg();
        Emit(OpCode::kRename, dst, target, name, 0);
        return dst;
      }
      default:
        // Quantified / typeswitch / constructors / casts / set ops /
        // full-text / transform / scripting / browser extensions:
        // correct via the tree walker, one fallback op per subtree.
        return Fallback(e, "");
    }
  }

  uint16_t CompileSequence(const Expr& e) {
    uint16_t dst = AllocReg();
    if (e.kids.empty()) {
      Emit(OpCode::kClear, dst, 0, 0, 0);
      return dst;
    }
    if (e.kids.size() == 1) return CompileExpr(*e.kids[0]);
    std::vector<uint16_t> parts;
    parts.reserve(e.kids.size());
    for (const ExprPtr& kid : e.kids) parts.push_back(CompileExpr(*kid));
    // kConcat reads a consecutive register block; copy the parts in.
    uint16_t base = next_reg_;
    for (uint16_t part : parts) Emit(OpCode::kMove, AllocReg(), part, 0, 0);
    Emit(OpCode::kConcat, dst, base, static_cast<uint16_t>(parts.size()), 0);
    return dst;
  }

  uint16_t CompileLogical(const Expr& e) {
    uint16_t lhs = CompileExpr(*e.kids[0]);
    uint16_t dst = AllocReg();
    size_t shortcut = Emit(e.logical_and ? OpCode::kJumpIfFalse
                                         : OpCode::kJumpIfTrue,
                           0, lhs, 0, 0, e.logical_and ? "and" : "or");
    uint16_t rhs = CompileExpr(*e.kids[1]);
    Emit(OpCode::kEbv, dst, rhs, 0, 0);
    size_t done = Emit(OpCode::kJump, 0, 0, 0, 0);
    Patch(shortcut, Here());
    Emit(OpCode::kLoadConst, dst, 0, 0,
         ConstIndex(Sequence{Item::Boolean(!e.logical_and)}),
         e.logical_and ? "false" : "true");
    Patch(done, Here());
    return dst;
  }

  uint16_t CompileIf(const Expr& e) {
    uint16_t cond = CompileExpr(*e.kids[0]);
    uint16_t dst = AllocReg();
    size_t to_else = Emit(OpCode::kJumpIfFalse, 0, cond, 0, 0, "if");
    uint16_t then_r = CompileExpr(*e.kids[1]);
    Emit(OpCode::kMove, dst, then_r, 0, 0);
    size_t done = Emit(OpCode::kJump, 0, 0, 0, 0);
    Patch(to_else, Here());
    uint16_t else_r = CompileExpr(*e.kids[2]);
    Emit(OpCode::kMove, dst, else_r, 0, 0);
    Patch(done, Here());
    return dst;
  }

  // A path with an exact-name descendant step whose predicates are
  // absent or position-free (//span, local:cached()//article[@id=$aid])
  // lowers to kPathIndexed: its input expression compiles to a
  // register, and the evaluator's path engine answers the step from an
  // order-key range of the element-name index when its context is one
  // attached node. Step predicates run on the tree walker, so the
  // plan-held variables are bound first, as for a fallback. Paths with
  // expression steps, and all others, are tree-walk fallbacks.
  uint16_t CompilePath(const Expr& e) {
    bool indexable = false;
    bool predicated = false;
    bool ordered = true;
    for (const Step& step : e.steps) {
      if (step.expr != nullptr) return Fallback(e, "expression step");
      if (!step.predicates.empty()) predicated = true;
      if (IsExactNameDescendantStep(step) &&
          (step.predicates.empty() || step.position_free)) {
        indexable = true;
      }
      ordered = ordered && step.preserves_order && step.no_duplicates;
    }
    if (!indexable) return Fallback(e, "");
    const bool has_input = !e.kids.empty();
    uint16_t input = has_input ? CompileExpr(*e.kids[0]) : 0;
    if (predicated) BindScope();
    uint16_t dst = AllocReg();
    Emit(OpCode::kPathIndexed, dst, input, has_input ? 1 : 0, ExprIndex(&e),
         DescribeExpr(e) + (ordered ? " [indexed, ordered dup-free]"
                                    : " [indexed]"));
    return dst;
  }

  uint16_t CompileFlwor(const Expr& e) {
    if (!e.order_specs.empty()) return Fallback(e, "order by");
    // Federated loops stay on the tree walker: that is where the
    // scatter-gather prefetch hook lives, and the remote round trips
    // dominate whatever a register loop would save.
    if (federation::ContainsFabricCall(e)) return Fallback(e, "federated");
    for (const Clause& c : e.clauses) {
      if (c.kind != Clause::Kind::kFor && c.kind != Clause::Kind::kLet) {
        return Fallback(e, "clause kind");
      }
    }
    uint16_t acc = AllocReg();
    Emit(OpCode::kClear, acc, 0, 0, 0, "flwor accumulator");
    size_t scope_mark = scope_.size();
    CompileClauses(e, 0, acc);
    scope_.resize(scope_mark);
    return acc;
  }

  // Recursive clause expansion: each `for` opens an iterator loop, each
  // `let` assigns its register per tuple; the innermost body guards on
  // `where` and appends the return expression to the accumulator.
  void CompileClauses(const Expr& e, size_t i, uint16_t acc) {
    if (overflow_) return;
    if (i == e.clauses.size()) {
      size_t skip = 0;
      bool has_where = e.where != nullptr;
      if (has_where) {
        uint16_t w = CompileExpr(*e.where);
        skip = Emit(OpCode::kJumpIfFalse, 0, w, 0, 0, "where");
      }
      uint16_t ret = CompileExpr(*e.kids[0]);
      Emit(OpCode::kAppend, acc, ret, 0, 0);
      if (has_where) Patch(skip, Here());
      return;
    }
    const Clause& c = e.clauses[i];
    if (c.kind == Clause::Kind::kLet) {
      uint16_t value = CompileExpr(*c.expr);
      scope_.emplace_back(c.var, value);
      CompileClauses(e, i + 1, acc);
      scope_.pop_back();
      return;
    }
    uint16_t source = CompileExpr(*c.expr);
    uint16_t it = AllocIter();
    uint16_t var = AllocReg();
    Emit(OpCode::kIterInit, it, source, 0, 0,
         "for $" + c.var.Lexical());
    size_t next = Emit(OpCode::kIterNext, var, it, 0, 0);
    scope_.emplace_back(c.var, var);
    bool positional = !c.pos_var.local().empty();
    if (positional) {
      uint16_t pos = AllocReg();
      Emit(OpCode::kIterPos, pos, it, 0, 0, "at $" + c.pos_var.Lexical());
      scope_.emplace_back(c.pos_var, pos);
    }
    CompileClauses(e, i + 1, acc);
    if (positional) scope_.pop_back();
    scope_.pop_back();
    Emit(OpCode::kJump, 0, 0, 0, static_cast<int32_t>(next));
    Patch(next, Here());
  }

  uint16_t CompileCall(const Expr& e) {
    size_t arity = e.kids.size();
    const FunctionDecl* fn = sctx_.FindFunction(e.qname, arity);
    bool pure = ProvenPure(e.qname, arity);
    std::string label = e.qname.Lexical() + "#" + std::to_string(arity) +
                        (pure ? " [pure]" : "");

    // fn:count over a one-step exact-name descendant path: the size of
    // its index slice when its input is one attached node
    // (kCountIndexed), the evaluated path's size otherwise.
    if (fn == nullptr && e.qname.ns() == xml::kFnNamespace &&
        e.qname.local() == "count" && arity == 1 &&
        Evaluator::IsFastCountPath(*e.kids[0])) {
      const Expr& path = *e.kids[0];
      const bool has_input = !path.kids.empty();
      uint16_t input = has_input ? CompileExpr(*path.kids[0]) : 0;
      uint16_t dst = AllocReg();
      Emit(OpCode::kCountIndexed, dst, input, has_input ? 1 : 0,
           ExprIndex(&e), "count(" + DescribeExpr(path) + ") [indexed]");
      return dst;
    }

    std::vector<uint16_t> parts;
    parts.reserve(arity);
    for (const ExprPtr& kid : e.kids) parts.push_back(CompileExpr(*kid));
    uint16_t base = next_reg_;
    for (uint16_t part : parts) Emit(OpCode::kMove, AllocReg(), part, 0, 0);
    uint16_t dst = AllocReg();

    if (fn != nullptr && !fn->external) {
      auto it = plans_.index.find(
          ModulePlans::Key{e.qname.token(), arity});
      if (it != plans_.index.end()) {
        Emit(OpCode::kCallPlan, dst, base, static_cast<uint16_t>(arity),
             static_cast<int32_t>(it->second), "plan " + label);
        return dst;
      }
    }
    // Builtins, externals, and unresolved names: one dynamic dispatch
    // through Evaluator::CallFunction (itself keyed on interned tokens).
    Emit(OpCode::kCallDyn, dst, base, static_cast<uint16_t>(arity),
         NameIndex(e.qname), "dyn " + label);
    return dst;
  }

  // --- listing ---

  void RenderListing() {
    fp_->ops = std::move(ops_);
    fp_->listing.reserve(fp_->ops.size());
    for (size_t i = 0; i < fp_->ops.size(); ++i) {
      const Op& op = fp_->ops[i];
      char head[64];
      std::snprintf(head, sizeof(head), "%3zu: %-13s ", i, OpName(op.code));
      std::string line = head;
      line += Operands(op);
      if (!notes_[i].empty()) line += "  ; " + notes_[i];
      fp_->listing.push_back(std::move(line));
    }
  }

  static const char* OpName(OpCode code) {
    switch (code) {
      case OpCode::kLoadConst: return "load.const";
      case OpCode::kMove: return "move";
      case OpCode::kLoadGlobal: return "load.global";
      case OpCode::kLoadContext: return "load.ctx";
      case OpCode::kConcat: return "concat";
      case OpCode::kRange: return "range";
      case OpCode::kArith: return "arith";
      case OpCode::kArithInt: return "arith.int";
      case OpCode::kArithUnary: return "arith.unary";
      case OpCode::kCompare: return "compare";
      case OpCode::kEbv: return "ebv";
      case OpCode::kJump: return "jump";
      case OpCode::kJumpIfFalse: return "jump.false";
      case OpCode::kJumpIfTrue: return "jump.true";
      case OpCode::kIterInit: return "iter.init";
      case OpCode::kIterNext: return "iter.next";
      case OpCode::kIterPos: return "iter.pos";
      case OpCode::kAppend: return "append";
      case OpCode::kClear: return "clear";
      case OpCode::kCallPlan: return "call.plan";
      case OpCode::kCallDyn: return "call.dyn";
      case OpCode::kPathIndexed: return "path.indexed";
      case OpCode::kCountIndexed: return "count.indexed";
      case OpCode::kBindEnv: return "bind.env";
      case OpCode::kEvalExpr: return "eval";
      case OpCode::kInsert: return "upd.insert";
      case OpCode::kDelete: return "upd.delete";
      case OpCode::kReplace: return "upd.replace";
      case OpCode::kRename: return "upd.rename";
      case OpCode::kReturn: return "return";
    }
    return "?";
  }

  static std::string Operands(const Op& op) {
    auto r = [](uint16_t reg) { return "r" + std::to_string(reg); };
    switch (op.code) {
      case OpCode::kLoadConst:
        return r(op.dst) + " <- const[" + std::to_string(op.imm) + "]";
      case OpCode::kMove:
      case OpCode::kEbv:
        return r(op.dst) + " <- " + r(op.a);
      case OpCode::kLoadGlobal:
        return r(op.dst) + " <- name[" + std::to_string(op.imm) + "]";
      case OpCode::kLoadContext:
        return r(op.dst) + " <- .";
      case OpCode::kConcat:
        return r(op.dst) + " <- " + r(op.a) + ".." +
               r(static_cast<uint16_t>(op.a + op.b - 1));
      case OpCode::kRange:
        return r(op.dst) + " <- " + r(op.a) + " to " + r(op.b);
      case OpCode::kArith:
      case OpCode::kArithInt:
      case OpCode::kCompare:
        return r(op.dst) + " <- " + r(op.a) + " " + r(op.b);
      case OpCode::kArithUnary:
        return r(op.dst) + " <- " + r(op.a);
      case OpCode::kJump:
        return "-> " + std::to_string(op.imm);
      case OpCode::kJumpIfFalse:
      case OpCode::kJumpIfTrue:
        return r(op.a) + " -> " + std::to_string(op.imm);
      case OpCode::kIterInit:
        return "it" + std::to_string(op.dst) + " <- " + r(op.a);
      case OpCode::kIterNext:
        return r(op.dst) + " <- it" + std::to_string(op.a) + " else -> " +
               std::to_string(op.imm);
      case OpCode::kIterPos:
        return r(op.dst) + " <- pos it" + std::to_string(op.a);
      case OpCode::kAppend:
        return r(op.dst) + " += " + r(op.a);
      case OpCode::kClear:
        return r(op.dst) + " <- ()";
      case OpCode::kCallPlan:
        return r(op.dst) + " <- fns[" + std::to_string(op.imm) + "](" +
               std::to_string(op.b) + " args at " + r(op.a) + ")";
      case OpCode::kCallDyn:
        return r(op.dst) + " <- name[" + std::to_string(op.imm) + "](" +
               std::to_string(op.b) + " args at " + r(op.a) + ")";
      case OpCode::kPathIndexed:
      case OpCode::kCountIndexed:
        return r(op.dst) + " <- expr[" + std::to_string(op.imm) + "]" +
               (op.b != 0 ? " from " + r(op.a) : "");
      case OpCode::kEvalExpr:
        return r(op.dst) + " <- expr[" + std::to_string(op.imm) + "]";
      case OpCode::kBindEnv:
        return "name[" + std::to_string(op.imm) + "] <- " + r(op.a);
      case OpCode::kInsert:
        return r(op.a) + " into " + r(op.b);
      case OpCode::kDelete:
        return r(op.a);
      case OpCode::kReplace:
      case OpCode::kRename:
        return r(op.a) + " with " + r(op.b);
      case OpCode::kReturn:
        return r(op.a);
    }
    return "";
  }

  const StaticContext& sctx_;
  const analysis::AnalysisFacts* facts_;
  const ModulePlans& plans_;
  FunctionPlan* fp_;

  std::vector<Op> ops_;
  std::vector<std::string> notes_;  // parallel to ops_
  std::vector<std::pair<xml::QName, uint16_t>> scope_;
  uint16_t next_reg_ = 0;
  uint16_t next_iter_ = 0;
  bool uses_env_ = false;
  bool overflow_ = false;
};

}  // namespace

std::shared_ptr<const ModulePlans> CompileModulePlans(
    const StaticContext& sctx, const analysis::AnalysisFacts* facts) {
  auto plans = std::make_shared<ModulePlans>();
  // Pass 1: assign indices (AllFunctions is deterministically sorted),
  // so kCallPlan can bind mutually recursive callees by position.
  for (const auto& fn : sctx.AllFunctions()) {
    if (fn->external || fn->body == nullptr) continue;
    auto fp = std::make_unique<FunctionPlan>();
    fp->decl = fn;
    plans->index[ModulePlans::Key{fn->name.token(), fn->params.size()}] =
        plans->fns.size();
    plans->fns.push_back(std::move(fp));
  }
  // Pass 2: lower bodies.
  for (const auto& fp : plans->fns) {
    FunctionCompiler(sctx, facts, *plans, fp.get()).Compile();
    plans->total_bytes += fp->bytes;
  }
  return plans;
}

}  // namespace xqib::xquery::plan
