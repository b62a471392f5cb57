#include "xquery/optimizer.h"

#include <cmath>
#include <limits>
#include <unordered_set>

#include "xml/qname.h"
#include "xquery/analysis/builtins.h"

namespace xqib::xquery {

namespace {

using xdm::AtomicType;
using xdm::AtomicValue;
using IsDeclared = std::function<bool(const std::string& key)>;

// A call the builtin library answers: a known fn: or xs: name that no
// declaration shadows.
bool IsBuiltinCall(const Expr& call, const IsDeclared& is_declared) {
  const std::string& local = call.qname.local();
  if (call.qname.ns() == xml::kFnNamespace) {
    if (analysis::FindFnBuiltin(local) == nullptr) return false;
  } else if (call.qname.ns() != xml::kXsNamespace ||
             !analysis::IsXsConstructor(local)) {
    return false;
  }
  return !is_declared(analysis::AnalysisFacts::FunctionKey(
      call.qname.Clark(), call.kids.size()));
}

// Nothing in `e` that is evaluated on the predicate's own focus reads
// position() or last(), directly or through a call.
bool FocusPositionFree(const Expr& e, const IsDeclared& is_declared) {
  switch (e.kind) {
    case ExprKind::kFunctionCall:
      // User and external functions inherit the focus in this dialect.
      if (!IsBuiltinCall(e, is_declared)) return false;
      if (e.qname.ns() == xml::kFnNamespace &&
          (e.qname.local() == "position" || e.qname.local() == "last")) {
        return false;
      }
      break;
    case ExprKind::kDirectElement:
    case ExprKind::kFtContains:
      return false;  // opaque subtrees (expressions hidden outside kids)
    default:
      break;
  }
  // Path steps and filter predicates set their own focus: they are not
  // scanned. A path's or filter's kids[0] is evaluated on this focus.
  for (const ExprPtr& kid : e.kids) {
    if (kid != nullptr && !FocusPositionFree(*kid, is_declared)) return false;
  }
  for (const Clause& c : e.clauses) {
    if (c.expr != nullptr && !FocusPositionFree(*c.expr, is_declared)) {
      return false;
    }
  }
  for (const OrderSpec& spec : e.order_specs) {
    if (!FocusPositionFree(*spec.key, is_declared)) return false;
  }
  return e.where == nullptr || FocusPositionFree(*e.where, is_declared);
}

}  // namespace

bool PositionFreePredicate(const Expr& pred, const IsDeclared& is_declared) {
  // The predicate's value must never be numeric: a number would select
  // by position.
  switch (pred.kind) {
    case ExprKind::kComparison:
    case ExprKind::kLogical:
      break;
    case ExprKind::kPath:
      for (const Step& step : pred.steps) {
        if (step.expr != nullptr) return false;  // may yield atomics
      }
      break;
    case ExprKind::kFunctionCall: {
      static const std::unordered_set<std::string> kBooleanBuiltins = {
          "not",   "boolean",  "exists",      "empty",    "true",
          "false", "contains", "starts-with", "ends-with"};
      if (pred.qname.ns() != xml::kFnNamespace ||
          kBooleanBuiltins.count(pred.qname.local()) == 0) {
        return false;
      }
      break;
    }
    default:
      return false;
  }
  return FocusPositionFree(pred, is_declared);
}

namespace {

class Rewriter {
 public:
  Rewriter(const OptimizerOptions& options, OptimizerStats* stats,
           const analysis::AnalysisFacts* facts, IsDeclared is_declared)
      : options_(options),
        stats_(stats),
        facts_(facts),
        is_declared_(std::move(is_declared)) {}

  void Rewrite(ExprPtr* slot) {
    if (*slot == nullptr) return;
    Expr& e = **slot;
    // Bottom-up: children first.
    for (ExprPtr& kid : e.kids) Rewrite(&kid);
    for (ExprPtr& pred : e.predicates) Rewrite(&pred);
    for (Clause& clause : e.clauses) Rewrite(&clause.expr);
    for (OrderSpec& spec : e.order_specs) Rewrite(&spec.key);
    if (e.where != nullptr) Rewrite(&e.where);
    for (Step& step : e.steps) {
      for (ExprPtr& pred : step.predicates) Rewrite(&pred);
      if (step.expr != nullptr) Rewrite(&step.expr);
    }
    if (e.ft != nullptr) RewriteFt(e.ft.get());
    if (e.direct != nullptr) RewriteDirect(e.direct.get());

    switch (e.kind) {
      case ExprKind::kArith:
        if (options_.constant_folding) FoldArith(slot);
        break;
      case ExprKind::kUnary:
        if (options_.constant_folding) FoldUnary(slot);
        break;
      case ExprKind::kComparison:
        if (options_.cardinality_rewrites) RewriteCountComparison(slot);
        if (*slot != nullptr && (*slot)->kind == ExprKind::kComparison &&
            options_.constant_folding) {
          FoldComparison(slot);
        }
        break;
      case ExprKind::kLogical:
        if (options_.branch_elimination) FoldLogical(slot);
        break;
      case ExprKind::kIf:
        if (options_.branch_elimination) FoldIf(slot);
        break;
      case ExprKind::kFLWOR:
        if (options_.branch_elimination) FoldWhereFalse(slot);
        break;
      case ExprKind::kFunctionCall:
        if (options_.inferred_rewrites) RewriteInferredCall(slot);
        if (*slot != nullptr && (*slot)->kind == ExprKind::kFunctionCall &&
            options_.boolean_simplification) {
          SimplifyBooleanCalls(slot);
        }
        break;
      case ExprKind::kFilter:
        if (options_.inferred_rewrites) RewriteInferredFilter(slot);
        break;
      case ExprKind::kPath:
        if (options_.path_collapsing) CollapseDescendantSteps(&e);
        if (options_.ordering_elision) AnnotateOrdering(&e);
        break;
      default:
        break;
    }
  }

 private:
  void RewriteFt(FtSelection* sel) {
    if (sel->words != nullptr) Rewrite(&sel->words);
    for (auto& kid : sel->kids) RewriteFt(kid.get());
  }

  void RewriteDirect(DirectNode* node) {
    if (node->expr != nullptr) Rewrite(&node->expr);
    for (auto& attr : node->attrs) {
      for (auto& part : attr.parts) {
        if (part.expr != nullptr) Rewrite(&part.expr);
      }
    }
    for (auto& child : node->children) RewriteDirect(child.get());
  }

  static bool IsLiteral(const ExprPtr& e) {
    return e != nullptr && e->kind == ExprKind::kLiteral;
  }
  static bool IsNumericLiteral(const ExprPtr& e) {
    return IsLiteral(e) && e->atom.is_numeric();
  }
  static bool IsIntegerLiteral(const ExprPtr& e, int64_t value) {
    return IsLiteral(e) && e->atom.type() == AtomicType::kInteger &&
           e->atom.int_value() == value;
  }

  void ReplaceWithLiteral(ExprPtr* slot, AtomicValue value) {
    ExprPtr lit = MakeExpr(ExprKind::kLiteral);
    lit->atom = std::move(value);
    *slot = std::move(lit);
  }

  void FoldArith(ExprPtr* slot) {
    Expr& e = **slot;
    if (!IsNumericLiteral(e.kids[0]) || !IsNumericLiteral(e.kids[1])) return;
    const AtomicValue& a = e.kids[0]->atom;
    const AtomicValue& b = e.kids[1]->atom;
    bool ints = a.type() == AtomicType::kInteger &&
                b.type() == AtomicType::kInteger;
    if (ints) {
      int64_t x = a.int_value(), y = b.int_value();
      int64_t r = 0;
      switch (e.arith_op) {
        case ArithOp::kAdd: r = x + y; break;
        case ArithOp::kSub: r = x - y; break;
        case ArithOp::kMul: r = x * y; break;
        case ArithOp::kIDiv:
          if (y == 0) return;  // leave the runtime error in place
          r = x / y;
          break;
        case ArithOp::kMod:
          if (y == 0) return;
          r = x % y;
          break;
        case ArithOp::kDiv:
          if (y == 0 || x % y != 0) return;  // fold only exact divisions
          r = x / y;
          break;
      }
      ++stats_->folded_constants;
      ReplaceWithLiteral(slot, AtomicValue::Integer(r));
      return;
    }
    Result<double> xr = a.ToDouble();
    Result<double> yr = b.ToDouble();
    if (!xr.ok() || !yr.ok()) return;
    double x = *xr, y = *yr, r = 0;
    switch (e.arith_op) {
      case ArithOp::kAdd: r = x + y; break;
      case ArithOp::kSub: r = x - y; break;
      case ArithOp::kMul: r = x * y; break;
      case ArithOp::kDiv: r = x / y; break;
      case ArithOp::kIDiv:
        if (y == 0) return;
        r = std::trunc(x / y);
        break;
      case ArithOp::kMod: r = std::fmod(x, y); break;
    }
    ++stats_->folded_constants;
    ReplaceWithLiteral(slot, AtomicValue::Double(r));
  }

  void FoldUnary(ExprPtr* slot) {
    Expr& e = **slot;
    if (!IsNumericLiteral(e.kids[0])) return;
    const AtomicValue& v = e.kids[0]->atom;
    ++stats_->folded_constants;
    if (e.arith_op == ArithOp::kAdd) {
      ReplaceWithLiteral(slot, v);
    } else if (v.type() == AtomicType::kInteger) {
      ReplaceWithLiteral(slot, AtomicValue::Integer(-v.int_value()));
    } else {
      ReplaceWithLiteral(slot, AtomicValue::Double(-v.double_value()));
    }
  }

  void FoldComparison(ExprPtr* slot) {
    Expr& e = **slot;
    if (!IsLiteral(e.kids[0]) || !IsLiteral(e.kids[1])) return;
    if (e.comp_op == CompOp::kIs || e.comp_op == CompOp::kPrecedes ||
        e.comp_op == CompOp::kFollows) {
      return;
    }
    Result<int> cmp = e.kids[0]->atom.Compare(e.kids[1]->atom);
    if (!cmp.ok() || *cmp == 2) return;
    bool value = false;
    switch (e.comp_op) {
      case CompOp::kGenEq: case CompOp::kValEq: value = *cmp == 0; break;
      case CompOp::kGenNe: case CompOp::kValNe: value = *cmp != 0; break;
      case CompOp::kGenLt: case CompOp::kValLt: value = *cmp < 0; break;
      case CompOp::kGenLe: case CompOp::kValLe: value = *cmp <= 0; break;
      case CompOp::kGenGt: case CompOp::kValGt: value = *cmp > 0; break;
      case CompOp::kGenGe: case CompOp::kValGe: value = *cmp >= 0; break;
      default: return;
    }
    ++stats_->folded_constants;
    ReplaceWithLiteral(slot, AtomicValue::Boolean(value));
  }

  // Literal boolean value of an expression, if statically known.
  static int StaticBool(const ExprPtr& e) {
    if (!IsLiteral(e)) return -1;
    const AtomicValue& v = e->atom;
    if (v.type() == AtomicType::kBoolean) return v.bool_value() ? 1 : 0;
    return -1;
  }

  void FoldLogical(ExprPtr* slot) {
    Expr& e = **slot;
    int lhs = StaticBool(e.kids[0]);
    int rhs = StaticBool(e.kids[1]);
    if (e.logical_and) {
      if (lhs == 0 || rhs == 0) {
        ++stats_->eliminated_branches;
        ReplaceWithLiteral(slot, AtomicValue::Boolean(false));
      } else if (lhs == 1 && rhs == 1) {
        ++stats_->eliminated_branches;
        ReplaceWithLiteral(slot, AtomicValue::Boolean(true));
      } else if (lhs == 1) {
        ++stats_->eliminated_branches;
        ExprPtr kept = std::move(e.kids[1]);
        *slot = WrapBoolean(std::move(kept));
      }
    } else {
      if (lhs == 1 || rhs == 1) {
        ++stats_->eliminated_branches;
        ReplaceWithLiteral(slot, AtomicValue::Boolean(true));
      } else if (lhs == 0 && rhs == 0) {
        ++stats_->eliminated_branches;
        ReplaceWithLiteral(slot, AtomicValue::Boolean(false));
      } else if (lhs == 0) {
        ++stats_->eliminated_branches;
        ExprPtr kept = std::move(e.kids[1]);
        *slot = WrapBoolean(std::move(kept));
      }
    }
  }

  static ExprPtr WrapBoolean(ExprPtr inner) {
    ExprPtr call = MakeExpr(ExprKind::kFunctionCall);
    call->qname = xml::QName(std::string(xml::kFnNamespace), "", "boolean");
    call->kids.push_back(std::move(inner));
    return call;
  }

  void FoldIf(ExprPtr* slot) {
    Expr& e = **slot;
    int cond = StaticBool(e.kids[0]);
    if (cond < 0) return;
    ++stats_->eliminated_branches;
    ExprPtr kept = std::move(e.kids[cond == 1 ? 1 : 2]);
    *slot = std::move(kept);
  }

  void FoldWhereFalse(ExprPtr* slot) {
    Expr& e = **slot;
    if (e.where == nullptr) return;
    if (StaticBool(e.where) == 0) {
      // The whole FLWOR yields the empty sequence. Binding expressions
      // cannot be updating, so dropping them is safe.
      ++stats_->eliminated_branches;
      *slot = MakeExpr(ExprKind::kSequence);
    } else if (StaticBool(e.where) == 1) {
      e.where = nullptr;
      ++stats_->eliminated_branches;
    }
  }

  static bool IsFnCall(const Expr& e, const char* name, size_t arity) {
    return e.kind == ExprKind::kFunctionCall &&
           e.qname.ns() == xml::kFnNamespace && e.qname.local() == name &&
           e.kids.size() == arity;
  }

  // count(E) = 0 -> empty(E);  count(E) > 0, count(E) != 0, count(E) >= 1
  // -> exists(E). Saves materializing the full sequence when the
  // evaluator only needs emptiness.
  void RewriteCountComparison(ExprPtr* slot) {
    Expr& e = **slot;
    ExprPtr* count_side = nullptr;
    ExprPtr* lit_side = nullptr;
    if (e.kids[0]->kind == ExprKind::kFunctionCall) {
      count_side = &e.kids[0];
      lit_side = &e.kids[1];
    } else if (e.kids[1]->kind == ExprKind::kFunctionCall) {
      count_side = &e.kids[1];
      lit_side = &e.kids[0];
    } else {
      return;
    }
    if (!IsFnCall(**count_side, "count", 1)) return;
    bool count_on_left = count_side == &e.kids[0];

    // Normalize to count(E) OP literal.
    CompOp op = e.comp_op;
    if (!count_on_left) {
      switch (op) {
        case CompOp::kGenLt: op = CompOp::kGenGt; break;
        case CompOp::kGenGt: op = CompOp::kGenLt; break;
        case CompOp::kGenLe: op = CompOp::kGenGe; break;
        case CompOp::kGenGe: op = CompOp::kGenLe; break;
        case CompOp::kValLt: op = CompOp::kValGt; break;
        case CompOp::kValGt: op = CompOp::kValLt; break;
        case CompOp::kValLe: op = CompOp::kValGe; break;
        case CompOp::kValGe: op = CompOp::kValLe; break;
        default: break;
      }
    }
    const char* replacement = nullptr;
    if (IsIntegerLiteral(*lit_side, 0)) {
      if (op == CompOp::kGenEq || op == CompOp::kValEq) {
        replacement = "empty";
      } else if (op == CompOp::kGenNe || op == CompOp::kValNe ||
                 op == CompOp::kGenGt || op == CompOp::kValGt) {
        replacement = "exists";
      }
    } else if (IsIntegerLiteral(*lit_side, 1) &&
               (op == CompOp::kGenGe || op == CompOp::kValGe)) {
      replacement = "exists";
    }
    if (replacement == nullptr) return;
    ++stats_->cardinality_rewritten;
    ExprPtr arg = std::move((*count_side)->kids[0]);
    ExprPtr call = MakeExpr(ExprKind::kFunctionCall);
    call->qname =
        xml::QName(std::string(xml::kFnNamespace), "", replacement);
    call->kids.push_back(std::move(arg));
    *slot = std::move(call);
  }

  // not(not(E)) -> boolean(E); not(empty(E)) -> exists(E);
  // not(exists(E)) -> empty(E).
  void SimplifyBooleanCalls(ExprPtr* slot) {
    Expr& e = **slot;
    if (!IsFnCall(e, "not", 1)) return;
    Expr& inner = *e.kids[0];
    const char* replacement = nullptr;
    if (IsFnCall(inner, "not", 1)) replacement = "boolean";
    else if (IsFnCall(inner, "empty", 1)) replacement = "exists";
    else if (IsFnCall(inner, "exists", 1)) replacement = "empty";
    if (replacement == nullptr) return;
    ++stats_->boolean_simplified;
    ExprPtr arg = std::move(inner.kids[0]);
    ExprPtr call = MakeExpr(ExprKind::kFunctionCall);
    call->qname =
        xml::QName(std::string(xml::kFnNamespace), "", replacement);
    call->kids.push_back(std::move(arg));
    *slot = std::move(call);
  }

  const analysis::Cardinality* CardinalityOf(const Expr* e) const {
    if (facts_ == nullptr) return nullptr;
    auto it = facts_->cardinality.find(e);
    return it == facts_->cardinality.end() ? nullptr : &it->second;
  }

  // Only expressions that can neither fail nor observe evaluation order
  // may be discarded when a fact makes their value statically known.
  static bool IsDiscardable(const Expr& e) {
    return e.kind == ExprKind::kVarRef || e.kind == ExprKind::kLiteral ||
           e.kind == ExprKind::kContextItem;
  }

  // count/exists/empty over an argument whose cardinality the analyzer
  // proved: exists($i) -> true() when $i is bound one-per-iteration by a
  // for clause — a rewrite the purely syntactic rules can never make.
  void RewriteInferredCall(ExprPtr* slot) {
    Expr& e = **slot;
    bool is_count = IsFnCall(e, "count", 1);
    bool is_exists = IsFnCall(e, "exists", 1);
    bool is_empty = IsFnCall(e, "empty", 1);
    if (!is_count && !is_exists && !is_empty) return;
    const Expr* arg = e.kids[0].get();
    if (!IsDiscardable(*arg)) return;
    const analysis::Cardinality* card = CardinalityOf(arg);
    if (card == nullptr) return;
    if (is_count && card->IsExact() &&
        card->min <= static_cast<uint64_t>(
                         std::numeric_limits<int64_t>::max())) {
      ++stats_->inferred_rewrites;
      ReplaceWithLiteral(
          slot, AtomicValue::Integer(static_cast<int64_t>(card->min)));
    } else if (is_exists && card->IsNonEmpty()) {
      ++stats_->inferred_rewrites;
      ReplaceWithLiteral(slot, AtomicValue::Boolean(true));
    } else if (is_exists && card->IsEmpty()) {
      ++stats_->inferred_rewrites;
      ReplaceWithLiteral(slot, AtomicValue::Boolean(false));
    } else if (is_empty && card->IsNonEmpty()) {
      ++stats_->inferred_rewrites;
      ReplaceWithLiteral(slot, AtomicValue::Boolean(false));
    } else if (is_empty && card->IsEmpty()) {
      ++stats_->inferred_rewrites;
      ReplaceWithLiteral(slot, AtomicValue::Boolean(true));
    }
  }

  // $x[1] -> $x when the analyzer proved $x is a singleton.
  void RewriteInferredFilter(ExprPtr* slot) {
    Expr& e = **slot;
    if (e.predicates.size() != 1) return;
    const Expr& pred = *e.predicates[0];
    if (pred.kind != ExprKind::kLiteral ||
        pred.atom.type() != AtomicType::kInteger ||
        pred.atom.int_value() != 1) {
      return;
    }
    const Expr* primary = e.kids[0].get();
    if (!IsDiscardable(*primary)) return;
    const analysis::Cardinality* card = CardinalityOf(primary);
    if (card == nullptr || !card->IsSingleton()) return;
    ++stats_->inferred_rewrites;
    ExprPtr kept = std::move(e.kids[0]);
    *slot = std::move(kept);
  }

  // descendant-or-self::node() (no predicates) followed by child::T
  // selects exactly descendant::T; fusing the steps avoids materializing
  // every node of the subtree as an intermediate sequence and lets the
  // element-name index answer the step. Predicates see per-parent
  // positions on child:: but per-subtree positions on descendant::, so
  // only predicate-free or position-free child steps fuse: "//a[1]"
  // must NOT become "descendant::a[1]", "//a[@id = 'x']" may. The pass
  // records the proof on each predicated step (Step::position_free).
  void CollapseDescendantSteps(Expr* e) {
    auto is_dos_node = [](const Step& s) {
      return s.expr == nullptr && s.axis == Axis::kDescendantOrSelf &&
             s.test.kind == NodeTest::Kind::kAnyKind &&
             s.predicates.empty();
    };
    for (Step& step : e->steps) {
      step.position_free = !step.predicates.empty();
      for (const ExprPtr& pred : step.predicates) {
        if (!PositionFreePredicate(*pred, is_declared_)) {
          step.position_free = false;
          break;
        }
      }
    }
    std::vector<Step> out;
    out.reserve(e->steps.size());
    for (size_t i = 0; i < e->steps.size(); ++i) {
      if (i + 1 < e->steps.size() && is_dos_node(e->steps[i])) {
        const Step& next = e->steps[i + 1];
        if (next.expr == nullptr && next.axis == Axis::kChild &&
            (next.predicates.empty() || next.position_free)) {
          Step fused = std::move(e->steps[i + 1]);
          fused.axis = Axis::kDescendant;
          out.push_back(std::move(fused));
          ++i;
          ++stats_->paths_collapsed;
          continue;
        }
      }
      out.push_back(std::move(e->steps[i]));
    }
    e->steps = std::move(out);
  }

  // Abstract state of the context sequence flowing into a step, for the
  // ordering/dedup elision proof (AnnotateOrdering below).
  enum class PathCtx {
    kSingleton,  // at most one node
    kAntichain,  // doc order, duplicate-free, no node is an ancestor of
                 // another (e.g. a sibling set)
    kOrdered,    // doc order, duplicate-free, ancestor pairs possible
    kUnknown,    // nothing proven
  };

  // Annotates each step with preserves_order/no_duplicates when the raw
  // axis output — context items in order, each item's axis nodes in axis
  // order — is provably already in document order and duplicate-free, so
  // the evaluator can elide the step's sort barrier. In the streaming
  // pipeline this is what keeps a StepStream's output flowing on to the
  // next operator without a SortBarrierStream materializing it first.
  //
  // Soundness hinges on the context-state lattice:
  //   * child::/attribute:: from an antichain: the selected children of
  //     distinct non-nested context nodes occupy disjoint doc-order
  //     ranges, in context order — ordered, duplicate-free. From a
  //     context with ancestor pairs (kOrdered) the same step can
  //     interleave or duplicate, so it must sort.
  //   * descendant::/descendant-or-self:: from an antichain: subtrees of
  //     non-nested nodes are disjoint — ordered. The result may contain
  //     ancestor pairs, hence kOrdered, never kAntichain.
  //   * attribute:: stays elidable even from kOrdered: attribute keys
  //     fall between their element and its first child in the key
  //     assignment (AssignKeysDfs), and attributes of distinct elements
  //     never collide.
  //   * reverse axes (ancestor, preceding, ...) emit nearest-first, the
  //     reverse of doc order — never elidable.
  // Predicates only filter a step's output, so they preserve every
  // property above and do not affect the state transition.
  void AnnotateOrdering(Expr* e) {
    PathCtx state;
    if (e->kids.empty()) {
      // Root-anchored ("/a/b") or relative from the focus: one node.
      state = PathCtx::kSingleton;
    } else {
      const analysis::Cardinality* card = CardinalityOf(e->kids[0].get());
      state = (card != nullptr && card->max <= 1) ? PathCtx::kSingleton
                                                  : PathCtx::kUnknown;
    }
    for (Step& step : e->steps) {
      if (step.expr != nullptr) {
        // An expression step sorts its own node output and may yield
        // atomics: nothing is known about what follows.
        step.preserves_order = false;
        step.no_duplicates = false;
        state = PathCtx::kUnknown;
        continue;
      }
      bool elide = false;
      PathCtx next = PathCtx::kOrdered;  // post-sort state
      bool flat = state == PathCtx::kSingleton ||
                  state == PathCtx::kAntichain;
      switch (step.axis) {
        case Axis::kSelf:
          if (state != PathCtx::kUnknown) {
            elide = true;
            next = state;
          }
          break;
        case Axis::kChild:
          if (flat) {
            elide = true;
            next = PathCtx::kAntichain;
          }
          break;
        case Axis::kAttribute:
          if (state != PathCtx::kUnknown) {
            elide = true;
            next = PathCtx::kAntichain;
          }
          break;
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf:
          if (flat) {
            elide = true;
            next = PathCtx::kOrdered;
          }
          break;
        case Axis::kParent:
          if (state == PathCtx::kSingleton) {
            elide = true;
            next = PathCtx::kSingleton;
          }
          break;
        case Axis::kFollowingSibling:
          if (state == PathCtx::kSingleton) {
            elide = true;
            next = PathCtx::kAntichain;
          }
          break;
        case Axis::kFollowing:
          if (state == PathCtx::kSingleton) {
            elide = true;
            next = PathCtx::kOrdered;
          }
          break;
        case Axis::kAncestor:
        case Axis::kAncestorOrSelf:
        case Axis::kPrecedingSibling:
        case Axis::kPreceding:
          break;  // reverse axes emit nearest-first: always sort
      }
      step.preserves_order = elide;
      step.no_duplicates = elide;
      if (elide) ++stats_->sort_elisions;
      state = next;
    }
  }

  const OptimizerOptions& options_;
  OptimizerStats* stats_;
  const analysis::AnalysisFacts* facts_;
  IsDeclared is_declared_;
};

// Declared-function lookup for the position-free proof: the module's
// own declarations plus every function the analyzer saw (its context
// modules included). Consulted only for calls inside predicates.
IsDeclared DeclaredFunctions(const Module* module,
                             const analysis::AnalysisFacts* facts) {
  return [module, facts](const std::string& key) {
    if (facts != nullptr && facts->function_effects.count(key) != 0) {
      return true;
    }
    if (module == nullptr) return false;
    for (const auto& fn : module->functions) {
      if (analysis::AnalysisFacts::FunctionKey(fn->name.Clark(),
                                               fn->params.size()) == key) {
        return true;
      }
    }
    return false;
  };
}

}  // namespace

OptimizerStats OptimizeExpr(ExprPtr* expr, const OptimizerOptions& options,
                            const analysis::AnalysisFacts* facts) {
  OptimizerStats stats;
  Rewriter rewriter(options, &stats, facts, DeclaredFunctions(nullptr, facts));
  rewriter.Rewrite(expr);
  return stats;
}

OptimizerStats OptimizeModule(Module* module, const OptimizerOptions& options,
                              const analysis::AnalysisFacts* facts) {
  OptimizerStats stats;
  Rewriter rewriter(options, &stats, facts, DeclaredFunctions(module, facts));
  for (VarDecl& decl : module->variables) {
    if (decl.init != nullptr) rewriter.Rewrite(&decl.init);
  }
  for (auto& fn : module->functions) {
    if (fn->body != nullptr) rewriter.Rewrite(&fn->body);
  }
  if (module->body != nullptr) rewriter.Rewrite(&module->body);
  return stats;
}

}  // namespace xqib::xquery
