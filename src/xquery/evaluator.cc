#include "xquery/evaluator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <functional>
#include <type_traits>
#include <unordered_map>

#include "base/strings.h"
#include "xquery/federation.h"
#include "xquery/fulltext.h"
#include "xquery/functions.h"
#include "xquery/profiler.h"
#include "xquery/update.h"
#include "xquery/value_ops.h"

namespace xqib::xquery {

using xdm::AtomicType;
using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;
using valueops::RequireSingleAtomic;

namespace {

bool MatchesNodeTest(const NodeTest& test, const xml::Node* node,
                     Axis axis) {
  using Kind = NodeTest::Kind;
  switch (test.kind) {
    case Kind::kAnyKind:
      return true;
    case Kind::kText:
      return node->kind() == xml::NodeKind::kText;
    case Kind::kComment:
      return node->kind() == xml::NodeKind::kComment;
    case Kind::kDocument:
      return node->kind() == xml::NodeKind::kDocument;
    case Kind::kPI:
      if (node->kind() != xml::NodeKind::kProcessingInstruction) return false;
      return test.any_name || test.name.local().empty() ||
             node->name().local_token() == test.name.local_token();
    case Kind::kElement:
      if (!node->is_element()) return false;
      return test.any_name || node->name() == test.name;
    case Kind::kAttribute:
      if (!node->is_attribute()) return false;
      return test.any_name || node->name() == test.name;
    case Kind::kName: {
      // A name test selects the principal node kind of the axis:
      // attributes on the attribute axis, elements elsewhere.
      bool want_attr = axis == Axis::kAttribute;
      if (want_attr != node->is_attribute()) return false;
      if (!want_attr && !node->is_element()) return false;
      if (test.any_name) return true;
      // Interned tokens: wildcard name tests are pointer compares too.
      if (test.any_ns) {
        return node->name().local_token() == test.name.local_token();
      }
      if (test.any_local) return node->name().ns_token() == test.name.ns_token();
      return node->name() == test.name;
    }
  }
  return false;
}

void CollectDescendants(xml::Node* node, std::vector<xml::Node*>* out) {
  for (xml::Node* c : node->children()) {
    out->push_back(c);
    CollectDescendants(c, out);
  }
}

// Nodes of the axis from `node`, in axis order (reverse axes reversed).
void AxisNodes(Axis axis, xml::Node* node, std::vector<xml::Node*>* out) {
  switch (axis) {
    case Axis::kChild:
      out->assign(node->children().begin(), node->children().end());
      break;
    case Axis::kAttribute:
      out->assign(node->attributes().begin(), node->attributes().end());
      break;
    case Axis::kSelf:
      out->push_back(node);
      break;
    case Axis::kDescendant:
      CollectDescendants(node, out);
      break;
    case Axis::kDescendantOrSelf:
      out->push_back(node);
      CollectDescendants(node, out);
      break;
    case Axis::kParent:
      if (node->parent() != nullptr) out->push_back(node->parent());
      break;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      if (axis == Axis::kAncestorOrSelf) out->push_back(node);
      xml::Node* p = node->parent();
      while (p != nullptr) {
        out->push_back(p);
        p = p->parent();
      }
      break;
    }
    case Axis::kFollowingSibling: {
      xml::Node* parent = node->parent();
      if (parent == nullptr || node->is_attribute()) break;
      size_t idx = parent->ChildIndex(node);
      for (size_t i = idx + 1; i < parent->children().size(); ++i) {
        out->push_back(parent->children()[i]);
      }
      break;
    }
    case Axis::kPrecedingSibling: {
      xml::Node* parent = node->parent();
      if (parent == nullptr || node->is_attribute()) break;
      size_t idx = parent->ChildIndex(node);
      for (size_t i = idx; i > 0; --i) {
        out->push_back(parent->children()[i - 1]);
      }
      break;
    }
    case Axis::kFollowing: {
      // All nodes after this one in document order, minus descendants.
      // An attribute comes before its owner's children.
      xml::Node* n = node;
      if (node->is_attribute() && node->parent() != nullptr) {
        n = node->parent();
        CollectDescendants(n, out);
      }
      while (n != nullptr) {
        xml::Node* parent = n->parent();
        if (parent != nullptr && !n->is_attribute()) {
          size_t idx = parent->ChildIndex(n);
          for (size_t i = idx + 1; i < parent->children().size(); ++i) {
            out->push_back(parent->children()[i]);
            CollectDescendants(parent->children()[i], out);
          }
        }
        n = parent;
      }
      break;
    }
    case Axis::kPreceding: {
      // All nodes before this one, minus ancestors; reverse doc order.
      std::vector<xml::Node*> forward;
      xml::Node* n = node;
      while (n != nullptr) {
        xml::Node* parent = n->parent();
        if (parent != nullptr && !n->is_attribute()) {
          size_t idx = parent->ChildIndex(n);
          std::vector<xml::Node*> level;
          for (size_t i = 0; i < idx; ++i) {
            level.push_back(parent->children()[i]);
            CollectDescendants(parent->children()[i], &level);
          }
          forward.insert(forward.begin(), level.begin(), level.end());
        }
        n = parent;
      }
      out->assign(forward.rbegin(), forward.rend());
      break;
    }
  }
}

}  // namespace

// ----------------------------------------------------- stream operators ---

// Private-access forwarders for the stream operator classes below: the
// classes live in an anonymous namespace and cannot be befriended, so
// this struct is the single friend through which they reach the
// evaluator's internals.
struct EvaluatorStreams {
  static Result<Sequence> Step(Evaluator& ev, const Step& step,
                               xml::Node* node, DynamicContext& ctx) {
    return ev.EvalStep(step, node, ctx);
  }
  static Result<bool> Bool(Evaluator& ev, const Expr& e, DynamicContext& ctx) {
    return ev.EvalBool(e, ctx);
  }
  static Result<xdm::StreamPtr> Stream(Evaluator& ev, const Expr& e,
                                       DynamicContext& ctx, bool ordered) {
    return ev.EvalStreamOrdered(e, ctx, ordered);
  }
  static Result<xdm::StreamPtr> IndexedStep(Evaluator& ev,
                                            const xquery::Step& step,
                                            xml::Node* origin,
                                            DynamicContext& ctx) {
    return ev.IndexedStepStream(step, origin, ctx);
  }
};

namespace {

using xdm::ItemStream;
using xdm::StreamPtr;

// Pull iterator over one axis from one origin node, in axis order. Only
// the forward axes with cheap incremental state stream; everything else
// (reverse axes, following/preceding) goes through the materializing
// EvalStep per origin.
class AxisCursor {
 public:
  static bool CanStream(Axis axis) {
    switch (axis) {
      case Axis::kSelf:
      case Axis::kChild:
      case Axis::kAttribute:
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
      case Axis::kFollowingSibling:
        return true;
      default:
        return false;
    }
  }

  void Reset(Axis axis, xml::Node* origin) {
    axis_ = axis;
    origin_ = origin;
    list_ = nullptr;
    idx_ = 0;
    pending_self_ = false;
    stack_.clear();
    switch (axis) {
      case Axis::kSelf:
      case Axis::kDescendantOrSelf:
        pending_self_ = true;
        break;
      case Axis::kChild:
        list_ = &origin->children();
        break;
      case Axis::kAttribute:
        list_ = &origin->attributes();
        break;
      case Axis::kFollowingSibling: {
        xml::Node* parent = origin->parent();
        if (parent != nullptr && !origin->is_attribute()) {
          list_ = &parent->children();
          idx_ = parent->ChildIndex(origin) + 1;
        }
        break;
      }
      case Axis::kDescendant:
        stack_.push_back({origin, 0});
        break;
      default:
        break;  // CanStream excludes the rest
    }
  }

  // Next node of the axis (node test not yet applied); null at end.
  xml::Node* NextNode() {
    if (pending_self_) {
      pending_self_ = false;
      if (axis_ == Axis::kDescendantOrSelf) stack_.push_back({origin_, 0});
      return origin_;
    }
    if (list_ != nullptr) {
      if (idx_ < list_->size()) return (*list_)[idx_++];
      return nullptr;
    }
    // Explicit-stack preorder walk for the descendant axes.
    while (!stack_.empty()) {
      Frame& top = stack_.back();
      const std::vector<xml::Node*>& kids = top.node->children();
      if (top.next_child < kids.size()) {
        xml::Node* c = kids[top.next_child++];
        stack_.push_back({c, 0});
        return c;
      }
      stack_.pop_back();
    }
    return nullptr;
  }

 private:
  struct Frame {
    xml::Node* node;
    size_t next_child;
  };
  Axis axis_ = Axis::kSelf;
  xml::Node* origin_ = nullptr;
  const std::vector<xml::Node*>* list_ = nullptr;
  size_t idx_ = 0;
  bool pending_self_ = false;
  std::vector<Frame> stack_;
};

// One path step as a stream operator: pulls origin nodes from `input`
// and yields the step's output for each. Predicate-free streamable axes
// walk node by node through an AxisCursor; steps with predicates (or
// exotic axes) buffer one origin's output at a time via EvalStep, so
// peak memory is bounded by per-origin fan-out, never total step output
// — and predicate position()/last() see exactly that origin's axis
// output. kIndexable marks an exact-name descendant step: when its
// input is a single node it is answered from the element-name index
// instead (IndexedStepStream), and the first pull looks one origin
// ahead to tell. Other steps carry none of that state.
template <bool kIndexable>
class StepStream : public ItemStream {
 public:
  StepStream(Evaluator* ev, DynamicContext* ctx, const Step* step,
             StreamPtr input)
      : ev_(ev), ctx_(ctx), step_(step), input_(std::move(input)) {}

  Result<bool> Next(Item* out) override {
    while (true) {
      if constexpr (kIndexable) {
        if (index_.sliced != nullptr) {
          // The single origin's whole answer: nothing follows it.
          XQ_ASSIGN_OR_RETURN(bool more, index_.sliced->Next(out));
          if (more) ++ev_->counters().items_pulled;
          return more;
        }
      }
      if (walking_) {
        while (xml::Node* n = cursor_.NextNode()) {
          if (MatchesNodeTest(step_->test, n, step_->axis)) {
            *out = Item::Node(n);
            ++ev_->counters().items_pulled;
            return true;
          }
        }
        walking_ = false;
      }
      if (buf_pos_ < buffered_.size()) {
        *out = buffered_[buf_pos_++];
        ++ev_->counters().items_pulled;
        return true;
      }
      Item origin;
      XQ_ASSIGN_OR_RETURN(bool more, NextOrigin(&origin));
      if (!more) return false;
      if (!origin.is_node()) {
        return Status::Error("XPTY0019",
                             "path step applied to an atomic value");
      }
      if constexpr (kIndexable) {
        if (index_.single_origin) {
          XQ_ASSIGN_OR_RETURN(index_.sliced,
                              EvaluatorStreams::IndexedStep(
                                  *ev_, *step_, origin.node(), *ctx_));
          if (index_.sliced != nullptr) continue;
        }
      }
      if (step_->predicates.empty() && AxisCursor::CanStream(step_->axis)) {
        cursor_.Reset(step_->axis, origin.node());
        walking_ = true;
      } else {
        XQ_ASSIGN_OR_RETURN(
            buffered_, EvaluatorStreams::Step(*ev_, *step_, origin.node(),
                                              *ctx_));
        buf_pos_ = 0;
        ev_->counters().items_materialized += buffered_.size();
      }
    }
  }

 private:
  // Lookahead state of an indexable step.
  struct IndexState {
    StreamPtr sliced;  // the single origin's index answer, once taken
    xml::Node* ahead = nullptr;  // the second origin (null if atomic)
    bool has_ahead = false;
    bool looked_ahead = false;
    bool single_origin = false;
    bool input_done = false;
  };
  struct NoIndexState {};

  // Next origin. For an indexable step the first pull also pulls the
  // second origin, so a single-node input is known before the step
  // starts.
  Result<bool> NextOrigin(Item* out) {
    if constexpr (!kIndexable) {
      return input_->Next(out);
    } else {
      IndexState& st = index_;
      if (st.has_ahead) {
        // Only a node is kept; an atomic lookahead fails when its turn
        // comes, as it would have without the lookahead.
        if (st.ahead == nullptr) {
          return Status::Error("XPTY0019",
                               "path step applied to an atomic value");
        }
        *out = Item::Node(st.ahead);
        st.has_ahead = false;
        return true;
      }
      if (st.input_done) return false;
      XQ_ASSIGN_OR_RETURN(bool more, input_->Next(out));
      if (!more || st.looked_ahead) {
        st.input_done = !more;
        return more;
      }
      st.looked_ahead = true;
      Item ahead;
      XQ_ASSIGN_OR_RETURN(st.has_ahead, input_->Next(&ahead));
      st.ahead = ahead.node();
      st.single_origin = !st.has_ahead;
      st.input_done = !st.has_ahead;
      return true;
    }
  }

  Evaluator* ev_;
  DynamicContext* ctx_;
  const Step* step_;
  StreamPtr input_;
  AxisCursor cursor_;
  bool walking_ = false;
  Sequence buffered_;
  size_t buf_pos_ = 0;
  [[no_unique_address]] std::conditional_t<kIndexable, IndexState,
                                           NoIndexState> index_;
};

// Mandatory materialization boundary: drains the upstream on first pull,
// sorts into document order and dedups, then serves the buffer. Used
// whenever AnnotateOrdering could not prove a step's raw output ordered
// and duplicate-free.
class SortBarrierStream : public ItemStream {
 public:
  SortBarrierStream(Evaluator* ev, StreamPtr input)
      : ev_(ev), input_(std::move(input)) {}

  Result<bool> Next(Item* out) override {
    if (!sorted_) {
      XQ_ASSIGN_OR_RETURN(buf_, xdm::MaterializeStream(*input_));
      ev_->counters().items_materialized += buf_.size();
      XQ_RETURN_NOT_OK(xdm::SortDocumentOrderDedup(&buf_));
      sorted_ = true;
      input_.reset();
    }
    if (pos_ < buf_.size()) {
      *out = buf_[pos_++];
      return true;
    }
    return false;
  }

 private:
  Evaluator* ev_;
  StreamPtr input_;
  Sequence buf_;
  size_t pos_ = 0;
  bool sorted_ = false;
};

// One filter predicate as a stream operator, for predicates that the
// NeedsLast scan proved cannot observe fn:last(): items stream through
// with an incremental position in the focus (size stays 0 — nothing
// downstream may read it). Numeric predicate values still select by
// position, exactly like ApplyPredicates.
class PredicateStream : public ItemStream {
 public:
  PredicateStream(Evaluator* ev, DynamicContext* ctx, const Expr* pred,
                  StreamPtr input)
      : ev_(ev), ctx_(ctx), pred_(pred), input_(std::move(input)) {}

  Result<bool> Next(Item* out) override {
    Item item;
    while (true) {
      XQ_ASSIGN_OR_RETURN(bool more, input_->Next(&item));
      if (!more) return false;
      ++pos_;
      DynamicContext::Focus saved = ctx_->focus();
      DynamicContext::Focus f;
      f.item = item;
      f.position = pos_;
      f.size = 0;
      f.has_item = true;
      ctx_->set_focus(f);
      Result<bool> keep = Keep();
      ctx_->set_focus(saved);
      if (!keep.ok()) return keep.status();
      if (*keep) {
        *out = std::move(item);
        ++ev_->counters().items_pulled;
        return true;
      }
    }
  }

 private:
  Result<bool> Keep() {
    // Paths yield only nodes, so a path predicate is a pure existence
    // test: stream it and stop at the first witness.
    if (pred_->kind == ExprKind::kPath) {
      return EvaluatorStreams::Bool(*ev_, *pred_, *ctx_);
    }
    XQ_ASSIGN_OR_RETURN(Sequence v, ev_->Eval(*pred_, *ctx_));
    if (v.size() == 1 && !v[0].is_node() && v[0].atomic().is_numeric()) {
      XQ_ASSIGN_OR_RETURN(double d, v[0].atomic().ToDouble());
      return d == static_cast<double>(pos_);
    }
    return xdm::EffectiveBooleanValue(v);
  }

  Evaluator* ev_;
  DynamicContext* ctx_;
  const Expr* pred_;
  StreamPtr input_;
  int64_t pos_ = 0;
};

// E[N] for a literal integer N: pull N items, yield the Nth, stop
// pulling — the stream-native successor of PR 2's ordered EvalLimit.
class TakeNthStream : public ItemStream {
 public:
  TakeNthStream(Evaluator* ev, int64_t n, StreamPtr input)
      : ev_(ev), n_(n), input_(std::move(input)) {}

  Result<bool> Next(Item* out) override {
    if (done_) return false;
    done_ = true;
    if (n_ < 1) return false;
    Item item;
    for (int64_t i = 0; i < n_; ++i) {
      XQ_ASSIGN_OR_RETURN(bool more, input_->Next(&item));
      if (!more) return false;
    }
    input_.reset();
    ++ev_->counters().items_pulled;
    ++ev_->counters().early_exits;
    *out = std::move(item);
    return true;
  }

 private:
  Evaluator* ev_;
  int64_t n_;
  StreamPtr input_;
  bool done_ = false;
};

// E[last()]: drains the input keeping a one-item buffer — O(1) memory
// instead of the whole sequence.
class TakeLastStream : public ItemStream {
 public:
  TakeLastStream(Evaluator* ev, StreamPtr input)
      : ev_(ev), input_(std::move(input)) {}

  Result<bool> Next(Item* out) override {
    if (done_) return false;
    done_ = true;
    Item item;
    Item last;
    bool any = false;
    while (true) {
      XQ_ASSIGN_OR_RETURN(bool more, input_->Next(&item));
      if (!more) break;
      last = std::move(item);
      any = true;
    }
    input_.reset();
    if (!any) return false;
    ++ev_->counters().items_pulled;
    ++ev_->counters().buffers_avoided;
    ++ev_->counters().early_exits;
    *out = std::move(last);
    return true;
  }

 private:
  Evaluator* ev_;
  StreamPtr input_;
  bool done_ = false;
};

// Lazy comma-sequence concatenation: each operand becomes a stream only
// when its turn comes.
class ConcatStream : public ItemStream {
 public:
  ConcatStream(Evaluator* ev, DynamicContext* ctx, const Expr* e,
               bool ordered)
      : ev_(ev), ctx_(ctx), e_(e), ordered_(ordered) {}

  Result<bool> Next(Item* out) override {
    while (true) {
      if (cur_ != nullptr) {
        XQ_ASSIGN_OR_RETURN(bool more, cur_->Next(out));
        if (more) {
          ++ev_->counters().items_pulled;
          return true;
        }
        cur_.reset();
      }
      if (ev_->exited() || ki_ >= e_->kids.size()) return false;
      XQ_ASSIGN_OR_RETURN(
          cur_, EvaluatorStreams::Stream(*ev_, *e_->kids[ki_++], *ctx_,
                                         ordered_));
    }
  }

 private:
  Evaluator* ev_;
  DynamicContext* ctx_;
  const Expr* e_;
  bool ordered_;
  size_t ki_ = 0;
  StreamPtr cur_;
};

// FLWOR for/let/where/return as one composed stream operator (order by
// stays on EvalFLWOR — it is a materialization barrier by nature).
//
// Scope discipline: each bound clause owns one environment scope,
// pushed in clause order. Every Next() call re-establishes the scopes
// of the currently bound clauses on entry and pops them all before
// returning, so (a) the environment looks untouched between pulls, and
// (b) when clause k's lazily evaluated binding stream is pulled, the
// scopes of clauses >= k are popped first — deeper same-named variables
// can never shadow what clause k's expression lexically sees.
//
// With ret == nullptr the stream yields one marker item per qualifying
// tuple ("tuple mode") — that is exactly the engine a quantifier needs:
// some = exists(tuples where test), every = empty(tuples where not
// test) via negate_where.
class FlworStream : public ItemStream {
 public:
  FlworStream(Evaluator* ev, DynamicContext* ctx, const Expr* e,
              const Expr* where, const Expr* ret, bool negate_where)
      : ev_(ev),
        ctx_(ctx),
        e_(e),
        where_(where),
        ret_expr_(ret),
        negate_where_(negate_where),
        states_(e->clauses.size()) {
    // `return $x` — the dominant shape after optimizer rewrites — needs
    // no return-stream machinery at all: the tuple's binding IS the
    // result. NextImpl peeks it in place instead of spinning up an
    // EvalStream (which would copy the sequence and allocate a stream
    // operator per tuple).
    if (ret != nullptr && ret->kind == ExprKind::kVarRef) {
      var_ret_ = &ret->qname;
    }
  }

  Result<bool> Next(Item* out) override {
    if (finished_ || ev_->exited()) return false;
    pushed_ = 0;
    for (size_t i = 0; i < states_.size() && states_[i].bound; ++i) {
      PushClause(i);
    }
    Result<bool> r = NextImpl(out);
    while (pushed_ > 0) {  // unwind only; the bindings stay recorded
      PopClause();
    }
    return r;
  }

 private:
  struct ClauseState {
    StreamPtr stream;  // for-clauses: source of the remaining items
    Sequence value;    // current binding (for: singleton; let: full)
    int64_t pos = 0;   // 1-based "at $i" counter
    bool bound = false;
  };

  // Establishes clause i's scope by MOVING the recorded value into the
  // environment; PopClause moves it back. One tuple's scopes therefore
  // round-trip between states_ and the (flat) environment with zero
  // allocation — this is the per-pull hot path of every FLWOR.
  void PushClause(size_t i) {
    const Clause& c = e_->clauses[i];
    ctx_->env().PushScope();
    ctx_->env().Bind(c.var, std::move(states_[i].value));
    if (c.kind == Clause::Kind::kFor && !c.pos_var.local().empty()) {
      ctx_->env().Bind(c.pos_var, Sequence{Item::Integer(states_[i].pos)});
    }
    ++pushed_;
  }

  // Inverse of PushClause: recovers the binding's buffer into the clause
  // state, then pops the scope.
  void PopClause() {
    --pushed_;
    xdm::Sequence* bound = ctx_->env().TopBinding(e_->clauses[pushed_].var);
    if (bound != nullptr) states_[pushed_].value = std::move(*bound);
    ctx_->env().PopScope();
  }

  // Pops the scopes of clauses >= k and marks them unbound (used while
  // stepping; the end-of-Next unwind must NOT clear bound flags).
  void PopTo(size_t k) {
    while (pushed_ > k) {
      PopClause();
      states_[pushed_].bound = false;
    }
  }

  Result<bool> NextImpl(Item* out) {
    if (var_ret_ != nullptr) return VarRetNext(out);
    while (true) {
      if (ret_ != nullptr) {
        Item item;
        XQ_ASSIGN_OR_RETURN(bool more, ret_->Next(&item));
        if (more) {
          *out = std::move(item);
          ++ev_->counters().items_pulled;
          return true;
        }
        ret_.reset();
        if (ev_->exited()) {
          finished_ = true;
          return false;
        }
      }
      XQ_ASSIGN_OR_RETURN(bool tuple, AdvanceTuple());
      if (!tuple) {
        finished_ = true;
        return false;
      }
      if (ret_expr_ == nullptr) {  // tuple mode
        *out = Item::Boolean(true);
        ++ev_->counters().items_pulled;
        return true;
      }
      XQ_ASSIGN_OR_RETURN(ret_, ev_->EvalStream(*ret_expr_, *ctx_));
    }
  }

  // Fast path for `return $x`: emit the bound items straight out of the
  // environment. Singletons (every for-bound variable) copy one Item;
  // larger let-bound values are staged in pending_ because the Peek
  // pointer dies when Next()'s unwind pops the tuple scopes.
  Result<bool> VarRetNext(Item* out) {
    while (true) {
      if (pending_idx_ < pending_.size()) {
        *out = pending_[pending_idx_++];
        ++ev_->counters().items_pulled;
        return true;
      }
      XQ_ASSIGN_OR_RETURN(bool tuple, AdvanceTuple());
      if (!tuple) {
        finished_ = true;
        return false;
      }
      const Sequence* v = ctx_->env().Peek(*var_ret_);
      if (v == nullptr) {
        // Unbound: route through Lookup for the standard XPDY0002.
        XQ_ASSIGN_OR_RETURN(Sequence unused, ctx_->env().Lookup(*var_ret_));
        (void)unused;
        continue;
      }
      if (v->size() == 1) {
        *out = (*v)[0];
        ++ev_->counters().items_pulled;
        return true;
      }
      pending_.assign(v->begin(), v->end());
      pending_idx_ = 0;
    }
  }

  // Advances to the next tuple satisfying the where clause; the lazy
  // where short-circuit is what stops deeper clause streams from ever
  // being pulled for rejected prefixes.
  Result<bool> AdvanceTuple() {
    while (true) {
      XQ_ASSIGN_OR_RETURN(bool have, AdvanceBindings());
      if (!have || ev_->exited()) return false;
      if (where_ != nullptr) {
        XQ_ASSIGN_OR_RETURN(bool keep,
                            EvaluatorStreams::Bool(*ev_, *where_, *ctx_));
        if (negate_where_) keep = !keep;
        if (!keep) continue;
      }
      return true;
    }
  }

  // Odometer over the clause streams. Invariant: the bound clauses form
  // a prefix 0..pushed_-1, one scope each.
  Result<bool> AdvanceBindings() {
    const std::vector<Clause>& clauses = e_->clauses;
    size_t ci = 0;
    bool stepping = primed_;
    primed_ = true;
    while (true) {
      if (stepping) {
        // Advance the deepest open for-clause; its own scope and every
        // deeper one are popped first so the binding stream pulls
        // against a clean environment (clauses < s only).
        int s = static_cast<int>(pushed_) - 1;
        while (s >= 0 &&
               clauses[static_cast<size_t>(s)].kind == Clause::Kind::kLet) {
          --s;
        }
        if (s < 0) return false;
        PopTo(static_cast<size_t>(s));
        ClauseState& st = states_[static_cast<size_t>(s)];
        Item item;
        XQ_ASSIGN_OR_RETURN(bool more, st.stream->Next(&item));
        if (!more) {
          st.stream.reset();
          continue;  // keep stepping, one clause shallower
        }
        st.value.clear();  // reuses the round-tripped buffer's capacity
        st.value.push_back(std::move(item));
        ++st.pos;
        st.bound = true;
        PushClause(static_cast<size_t>(s));
        ci = static_cast<size_t>(s) + 1;
        stepping = false;
        continue;
      }
      if (ci == clauses.size()) return true;
      const Clause& c = clauses[ci];
      ClauseState& st = states_[ci];
      if (c.kind == Clause::Kind::kLet) {
        // let binds the full value: an (eager) materialization boundary.
        XQ_ASSIGN_OR_RETURN(st.value, ev_->Eval(*c.expr, *ctx_));
        st.pos = 0;
        st.bound = true;
        PushClause(ci);
        ++ci;
        continue;
      }
      XQ_ASSIGN_OR_RETURN(st.stream, ev_->EvalStream(*c.expr, *ctx_));
      ++ev_->counters().buffers_avoided;
      Item item;
      XQ_ASSIGN_OR_RETURN(bool more, st.stream->Next(&item));
      if (!more) {
        st.stream.reset();
        st.bound = false;
        stepping = true;  // empty binding: backtrack below ci
        continue;
      }
      st.value.clear();
      st.value.push_back(std::move(item));
      st.pos = 1;
      st.bound = true;
      PushClause(ci);
      ++ci;
    }
  }

  Evaluator* ev_;
  DynamicContext* ctx_;
  const Expr* e_;
  const Expr* where_;
  const Expr* ret_expr_;
  bool negate_where_;
  std::vector<ClauseState> states_;
  size_t pushed_ = 0;
  bool primed_ = false;
  bool finished_ = false;
  StreamPtr ret_;
  const xml::QName* var_ret_ = nullptr;  // set when ret is a bare $x
  Sequence pending_;  // staged multi-item $x values (capacity reused)
  size_t pending_idx_ = 0;
};

// Allocates a stream operator on the context's dispatch arena,
// accounting the bytes.
template <typename T, typename... Args>
StreamPtr MakeOp(Evaluator* ev, DynamicContext& ctx, Args&&... args) {
  ev->counters().arena_bytes_used += sizeof(T);
  return xdm::MakeStream<T>(ctx.arena(), std::forward<Args>(args)...);
}

}  // namespace

// -------------------------------------------------------------- Eval ---

Result<Sequence> Evaluator::Eval(const Expr& e, DynamicContext& ctx) {
  if (ctx.profiler == nullptr) return EvalImpl(e, ctx);
  // Profiled evaluation: inclusive time via a clock, self time via a
  // running child-time accumulator threaded through the recursion.
  double* slot = ctx.profiler->child_time_slot();
  double saved = *slot;
  *slot = 0;
  auto t0 = std::chrono::steady_clock::now();
  Result<Sequence> result = EvalImpl(e, ctx);
  double inclusive_us =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count()) /
      1000.0;
  ctx.profiler->Record(&e, inclusive_us, *slot);
  *slot = saved + inclusive_us;
  return result;
}

Result<Sequence> Evaluator::EvalImpl(const Expr& e, DynamicContext& ctx) {
  if (exit_flag_) return Sequence{};
  switch (e.kind) {
    case ExprKind::kLiteral:
      return Sequence{Item::Atomic(e.atom)};
    case ExprKind::kVarRef:
      return ctx.env().Lookup(e.qname);
    case ExprKind::kContextItem: {
      if (!ctx.focus().has_item) {
        return Status::Error("XPDY0002", "context item is undefined");
      }
      return Sequence{ctx.focus().item};
    }
    case ExprKind::kSequence: {
      Sequence out;
      for (const ExprPtr& kid : e.kids) {
        XQ_ASSIGN_OR_RETURN(Sequence part, Eval(*kid, ctx));
        out.insert(out.end(), part.begin(), part.end());
        if (exit_flag_) break;
      }
      return out;
    }
    case ExprKind::kRange: {
      XQ_ASSIGN_OR_RETURN(Sequence lo_seq, Eval(*e.kids[0], ctx));
      XQ_ASSIGN_OR_RETURN(Sequence hi_seq, Eval(*e.kids[1], ctx));
      if (lo_seq.empty() || hi_seq.empty()) return Sequence{};
      XQ_ASSIGN_OR_RETURN(AtomicValue lo_a,
                          RequireSingleAtomic(lo_seq, "range"));
      XQ_ASSIGN_OR_RETURN(AtomicValue hi_a,
                          RequireSingleAtomic(hi_seq, "range"));
      XQ_ASSIGN_OR_RETURN(int64_t lo, lo_a.ToInteger());
      XQ_ASSIGN_OR_RETURN(int64_t hi, hi_a.ToInteger());
      Sequence out;
      if (hi >= lo) out.reserve(static_cast<size_t>(hi - lo + 1));
      for (int64_t v = lo; v <= hi; ++v) out.push_back(Item::Integer(v));
      counters_->items_materialized += out.size();
      return out;
    }
    case ExprKind::kArith:
    case ExprKind::kUnary:
      return EvalArith(e, ctx);
    case ExprKind::kComparison:
      return EvalComparison(e, ctx);
    case ExprKind::kLogical: {
      XQ_ASSIGN_OR_RETURN(bool lv, EvalBool(*e.kids[0], ctx));
      if (e.logical_and && !lv) return Sequence{Item::Boolean(false)};
      if (!e.logical_and && lv) return Sequence{Item::Boolean(true)};
      XQ_ASSIGN_OR_RETURN(bool rv, EvalBool(*e.kids[1], ctx));
      return Sequence{Item::Boolean(rv)};
    }
    case ExprKind::kPath: {
      XQ_ASSIGN_OR_RETURN(Sequence current, PathInput(e, ctx));
      return EvalPathFrom(e, std::move(current), ctx);
    }
    case ExprKind::kFilter: {
      XQ_ASSIGN_OR_RETURN(xdm::StreamPtr s, BuildFilterStream(e, ctx));
      return MaterializeFrom(std::move(s));
    }
    case ExprKind::kFLWOR: {
      MaybeScatterFlwor(e, ctx);
      if (e.order_specs.empty()) {
        const Expr* where = e.where == nullptr ? nullptr : e.where.get();
        xdm::StreamPtr s =
            MakeOp<FlworStream>(this, ctx, this, &ctx, &e, where,
                                e.kids[0].get(), /*negate_where=*/false);
        return MaterializeFrom(std::move(s));
      }
      return EvalFLWOR(e, ctx);
    }
    case ExprKind::kQuantified:
      return EvalQuantified(e, ctx);
    case ExprKind::kIf: {
      XQ_ASSIGN_OR_RETURN(bool b, EvalBool(*e.kids[0], ctx));
      return Eval(b ? *e.kids[1] : *e.kids[2], ctx);
    }
    case ExprKind::kFunctionCall:
      return EvalFunctionCall(e, ctx);
    case ExprKind::kCast:
      return EvalCast(e, ctx);
    case ExprKind::kTypeswitch: {
      XQ_ASSIGN_OR_RETURN(Sequence operand, Eval(*e.kids[0], ctx));
      for (size_t i = 0; i < e.clauses.size(); ++i) {
        XQ_ASSIGN_OR_RETURN(bool match,
                            MatchesSequenceType(operand, e.case_types[i]));
        if (!match) continue;
        const Clause& clause = e.clauses[i];
        ctx.env().PushScope();
        if (!clause.var.local().empty()) {
          ctx.env().Bind(clause.var, operand);
        }
        Result<Sequence> r = Eval(*clause.expr, ctx);
        ctx.env().PopScope();
        return r;
      }
      ctx.env().PushScope();
      if (!e.qname.local().empty()) ctx.env().Bind(e.qname, operand);
      Result<Sequence> r = Eval(*e.kids[1], ctx);
      ctx.env().PopScope();
      return r;
    }
    case ExprKind::kSetOp:
      return EvalSetOp(e, ctx);
    case ExprKind::kFtContains:
      return EvalFtContains(e, ctx);
    case ExprKind::kDirectElement:
      return EvalDirectElement(e, ctx);
    case ExprKind::kComputedElement:
    case ExprKind::kComputedAttribute:
    case ExprKind::kComputedText:
    case ExprKind::kComputedComment:
    case ExprKind::kComputedPI:
      return EvalComputedConstructor(e, ctx);
    case ExprKind::kEnclosed:
      return Eval(*e.kids[0], ctx);
    case ExprKind::kInsert:
      return EvalInsert(e, ctx);
    case ExprKind::kDelete:
      return EvalDelete(e, ctx);
    case ExprKind::kReplace:
      return EvalReplace(e, ctx);
    case ExprKind::kRename:
      return EvalRename(e, ctx);
    case ExprKind::kTransform:
      return EvalTransform(e, ctx);
    case ExprKind::kBlock:
      return EvalBlock(e, ctx);
    case ExprKind::kVarDecl: {
      Sequence init;
      if (!e.kids.empty()) {
        XQ_ASSIGN_OR_RETURN(init, Eval(*e.kids[0], ctx));
      }
      ctx.env().Bind(e.qname, std::move(init));
      return Sequence{};
    }
    case ExprKind::kAssign: {
      XQ_ASSIGN_OR_RETURN(Sequence value, Eval(*e.kids[0], ctx));
      XQ_RETURN_NOT_OK(ctx.env().Assign(e.qname, std::move(value)));
      return Sequence{};
    }
    case ExprKind::kWhile:
      return EvalWhile(e, ctx);
    case ExprKind::kExitWith: {
      XQ_ASSIGN_OR_RETURN(Sequence value, Eval(*e.kids[0], ctx));
      exit_value_ = std::move(value);
      exit_flag_ = true;
      return Sequence{};
    }
    case ExprKind::kEventAttach:
    case ExprKind::kEventDetach:
    case ExprKind::kEventTrigger:
    case ExprKind::kSetStyle:
    case ExprKind::kGetStyle:
      return EvalBrowserExtension(e, ctx);
  }
  return Status::NotImplemented("unhandled expression kind");
}

// -------------------------------------------------------------- paths ---

Status Evaluator::ApplyUpdates(DynamicContext& ctx) {
  if (ctx.pul().empty()) return Status();
  xml::DomDelta delta;
  XQ_RETURN_NOT_OK(ctx.pul().ApplyAll(&delta));
  if (!delta.Empty()) ++counters_->delta_emitted;
  return Status();
}

void Evaluator::ResetDispatchArena(DynamicContext& ctx) {
  ctx.arena().Reset();
  ++counters_->arena_resets;
}

Result<Sequence> Evaluator::PathInput(const Expr& e, DynamicContext& ctx) {
  if (!e.kids.empty()) return Eval(*e.kids[0], ctx);
  if (e.root_anchored) {
    if (!ctx.focus().has_item || !ctx.focus().item.is_node()) {
      return Status::Error("XPDY0002",
                           "no context node for a root-anchored path");
    }
    return Sequence{Item::Node(ctx.focus().item.node()->Root())};
  }
  if (!ctx.focus().has_item) {
    return Status::Error("XPDY0002", "no context item for a relative path");
  }
  return Sequence{ctx.focus().item};
}

Result<Sequence> Evaluator::EvalPathFrom(const Expr& e, Sequence current,
                                         DynamicContext& ctx) {
  XQ_ASSIGN_OR_RETURN(
      xdm::StreamPtr s,
      BuildPathStream(e, std::move(current), ctx, /*ordered_required=*/true));
  return MaterializeFrom(std::move(s));
}

Result<xdm::StreamPtr> Evaluator::BuildPathStream(const Expr& e,
                                                  Sequence current,
                                                  DynamicContext& ctx,
                                                  bool ordered_required) {
  // The initial context sequence is small (usually the focus item or a
  // variable) and already evaluated; the steps stream off it. Each
  // indexable StepStream answers an exact-name descendant step from a
  // single node out of the element-name index. A first step whose input
  // is known to be one node needs no operator for that: its slice is
  // the stream, already in document order and duplicate-free whatever
  // the optimizer could prove, so it needs no barrier either.
  xdm::StreamPtr s;
  size_t si = 0;
  if (!e.steps.empty() && current.size() == 1 && current[0].is_node()) {
    XQ_ASSIGN_OR_RETURN(s, IndexedStepStream(e.steps[0], current[0].node(),
                                             ctx));
    if (s != nullptr) {
      ++counters_->sorts_elided;
      si = 1;
    }
  }
  if (s == nullptr) s = xdm::SequenceStream(std::move(current), ctx.arena());
  for (; si < e.steps.size(); ++si) {
    const Step& step = e.steps[si];
    if (step.expr != nullptr) {
      // An expression step evaluates once per context node with the
      // context's size in the focus: it materializes its input.
      XQ_ASSIGN_OR_RETURN(Sequence context, MaterializeFrom(std::move(s)));
      XQ_ASSIGN_OR_RETURN(Sequence out,
                          EvalExprStep(step, std::move(context), ctx));
      s = xdm::SequenceStream(std::move(out), ctx.arena());
      continue;
    }
    const bool last_step = si + 1 == e.steps.size();
    const bool elide = step.preserves_order && step.no_duplicates;
    if (IsExactNameDescendantStep(step)) {
      s = MakeOp<StepStream<true>>(this, ctx, this, &ctx, &step, std::move(s));
    } else {
      s = MakeOp<StepStream<false>>(this, ctx, this, &ctx, &step,
                                    std::move(s));
    }
    // Existence consumers only observe emptiness, so the final step may
    // skip its barrier even without an elision proof. Everything that
    // counts, aggregates or positions must see sorted, deduped output.
    if (elide || (last_step && !ordered_required)) {
      ++counters_->sorts_elided;
      if (!elide) ++counters_->buffers_avoided;
    } else {
      ++counters_->sorts_performed;
      s = MakeOp<SortBarrierStream>(this, ctx, this, std::move(s));
    }
  }
  return s;
}

// E1/E2 with E2 a filter expression: E2 is evaluated once per context
// node, that node being the focus. Node results combine into document
// order without duplicates, atomic results concatenate in context
// order; a mix is XPTY0018. Atomic values reaching a later step raise
// that step's XPTY0019.
Result<Sequence> Evaluator::EvalExprStep(const Step& step, Sequence context,
                                         DynamicContext& ctx) {
  Sequence out;
  const DynamicContext::Focus saved = ctx.focus();
  for (size_t i = 0; i < context.size(); ++i) {
    if (!context[i].is_node()) {
      ctx.set_focus(saved);
      return Status::Error("XPTY0019", "path step applied to an atomic value");
    }
    DynamicContext::Focus f;
    f.item = context[i];
    f.position = static_cast<int64_t>(i + 1);
    f.size = static_cast<int64_t>(context.size());
    f.has_item = true;
    ctx.set_focus(f);
    Result<Sequence> part = Eval(*step.expr, ctx);
    if (!part.ok()) {
      ctx.set_focus(saved);
      return part.status();
    }
    out.insert(out.end(), part->begin(), part->end());
  }
  ctx.set_focus(saved);
  counters_->items_materialized += out.size();
  const size_t nodes = static_cast<size_t>(std::count_if(
      out.begin(), out.end(), [](const Item& i) { return i.is_node(); }));
  if (nodes != 0 && nodes != out.size()) {
    return Status::Error("XPTY0018",
                         "path step yields both nodes and atomic values");
  }
  if (nodes != 0) {
    ++counters_->sorts_performed;
    XQ_RETURN_NOT_OK(xdm::SortDocumentOrderDedup(&out));
  }
  return out;
}

bool Evaluator::IndexedSlice(const Step& step, xml::Node* origin,
                             std::span<xml::Node* const>* out) {
  if (!IsExactNameDescendantStep(step)) return false;
  if (!origin->is_element() && origin->kind() != xml::NodeKind::kDocument) {
    return false;
  }
  xml::Document* doc = origin->document();
  if (origin->Root() != doc->root()) return false;  // detached tree
  *out = doc->ElementsByNameIn(origin, step.test.name,
                               step.axis == Axis::kDescendantOrSelf);
  ++counters_->name_index_hits;
  return true;
}

Result<xdm::StreamPtr> Evaluator::IndexedStepStream(const Step& step,
                                                    xml::Node* origin,
                                                    DynamicContext& ctx) {
  std::span<xml::Node* const> slice;
  if (!IndexedSlice(step, origin, &slice)) return xdm::StreamPtr();
  Sequence hits;
  hits.reserve(slice.size());
  for (xml::Node* n : slice) hits.push_back(Item::Node(n));
  counters_->items_materialized += hits.size();
  // The slice is the step's axis output for this one origin, so its
  // predicates filter it exactly as they filter a sequence.
  return FilterStream(step.predicates,
                      xdm::SequenceStream(std::move(hits), ctx.arena()), ctx);
}

bool Evaluator::IsFastCountPath(const Expr& e) {
  return e.kind == ExprKind::kPath && e.steps.size() == 1 &&
         e.steps[0].predicates.empty() &&
         IsExactNameDescendantStep(e.steps[0]);
}

bool Evaluator::TryFastCount(const Expr& path, const Sequence& input,
                             int64_t* out) {
  std::span<xml::Node* const> slice;
  if (input.size() != 1 || !input[0].is_node() ||
      !IndexedSlice(path.steps[0], input[0].node(), &slice)) {
    return false;
  }
  *out = static_cast<int64_t>(slice.size());
  ++counters_->count_index_hits;
  ++counters_->buffers_avoided;
  return true;
}

Result<int64_t> Evaluator::CountPath(const Expr& path, Sequence input,
                                     DynamicContext& ctx) {
  int64_t n = 0;
  if (TryFastCount(path, input, &n)) return n;
  XQ_ASSIGN_OR_RETURN(Sequence nodes, EvalPathFrom(path, std::move(input), ctx));
  return static_cast<int64_t>(nodes.size());
}

// ------------------------------------------------------------ streams ---

Result<xdm::StreamPtr> Evaluator::EvalStream(const Expr& e,
                                             DynamicContext& ctx) {
  return EvalStreamOrdered(e, ctx, /*ordered_required=*/true);
}

Result<xdm::StreamPtr> Evaluator::EvalStreamOrdered(const Expr& e,
                                                    DynamicContext& ctx,
                                                    bool ordered_required) {
  if (exit_flag_) {
    XQ_ASSIGN_OR_RETURN(Sequence v, Eval(e, ctx));
    return xdm::SequenceStream(std::move(v), ctx.arena());
  }
  switch (e.kind) {
    case ExprKind::kPath: {
      XQ_ASSIGN_OR_RETURN(Sequence current, PathInput(e, ctx));
      return BuildPathStream(e, std::move(current), ctx, ordered_required);
    }
    case ExprKind::kFilter:
      return BuildFilterStream(e, ctx);
    case ExprKind::kFLWOR:
      if (e.order_specs.empty()) {
        MaybeScatterFlwor(e, ctx);
        const Expr* where = e.where == nullptr ? nullptr : e.where.get();
        return MakeOp<FlworStream>(this, ctx, this, &ctx, &e, where,
                                   e.kids[0].get(),
                                   /*negate_where=*/false);
      }
      break;
    case ExprKind::kSequence:
      return MakeOp<ConcatStream>(this, ctx, this, &ctx, &e, ordered_required);
    case ExprKind::kRange: {
      XQ_ASSIGN_OR_RETURN(Sequence lo_seq, Eval(*e.kids[0], ctx));
      XQ_ASSIGN_OR_RETURN(Sequence hi_seq, Eval(*e.kids[1], ctx));
      if (lo_seq.empty() || hi_seq.empty()) return xdm::EmptyStream(ctx.arena());
      XQ_ASSIGN_OR_RETURN(AtomicValue lo_a,
                          RequireSingleAtomic(lo_seq, "range"));
      XQ_ASSIGN_OR_RETURN(AtomicValue hi_a,
                          RequireSingleAtomic(hi_seq, "range"));
      XQ_ASSIGN_OR_RETURN(int64_t lo, lo_a.ToInteger());
      XQ_ASSIGN_OR_RETURN(int64_t hi, hi_a.ToInteger());
      ++counters_->buffers_avoided;
      return xdm::RangeStream(lo, hi, ctx.arena());
    }
    case ExprKind::kIf: {
      XQ_ASSIGN_OR_RETURN(bool b, EvalBool(*e.kids[0], ctx));
      return EvalStreamOrdered(b ? *e.kids[1] : *e.kids[2], ctx,
                               ordered_required);
    }
    case ExprKind::kEnclosed:
      return EvalStreamOrdered(*e.kids[0], ctx, ordered_required);
    case ExprKind::kLiteral:
      return xdm::SingletonStream(Item::Atomic(e.atom), ctx.arena());
    case ExprKind::kContextItem: {
      if (!ctx.focus().has_item) {
        return Status::Error("XPDY0002", "context item is undefined");
      }
      return xdm::SingletonStream(ctx.focus().item, ctx.arena());
    }
    case ExprKind::kVarRef: {
      XQ_ASSIGN_OR_RETURN(Sequence v, ctx.env().Lookup(e.qname));
      return xdm::SequenceStream(std::move(v), ctx.arena());
    }
    default:
      break;
  }
  // Everything else evaluates eagerly and streams the buffer.
  XQ_ASSIGN_OR_RETURN(Sequence v, Eval(e, ctx));
  return xdm::SequenceStream(std::move(v), ctx.arena());
}

Result<Sequence> Evaluator::MaterializeFrom(xdm::StreamPtr s) {
  XQ_ASSIGN_OR_RETURN(Sequence out, xdm::MaterializeStream(*s));
  counters_->items_materialized += out.size();
  return out;
}

Result<bool> StreamEBV(xdm::ItemStream& s, Counters& counters) {
  Item first;
  XQ_ASSIGN_OR_RETURN(bool any, s.Next(&first));
  if (!any) return false;
  if (first.is_node()) {
    // A node witness decides regardless of what follows (§2.4.3).
    ++counters.early_exits;
    return true;
  }
  // Singleton atomic: the EBV of the item itself. A second item would
  // make the sequence erroneous (FORG0006) — pull once more to tell.
  Item second;
  XQ_ASSIGN_OR_RETURN(bool more, s.Next(&second));
  if (more) {
    Sequence two{std::move(first), std::move(second)};
    return xdm::EffectiveBooleanValue(two);
  }
  Sequence one{std::move(first)};
  return xdm::EffectiveBooleanValue(one);
}

Result<xdm::StreamPtr> Evaluator::BuildFilterStream(const Expr& e,
                                                    DynamicContext& ctx) {
  XQ_ASSIGN_OR_RETURN(
      xdm::StreamPtr s,
      EvalStreamOrdered(*e.kids[0], ctx, /*ordered_required=*/true));
  return FilterStream(e.predicates, std::move(s), ctx);
}

Result<xdm::StreamPtr> Evaluator::FilterStream(
    const std::vector<ExprPtr>& predicates, xdm::StreamPtr s,
    DynamicContext& ctx) {
  for (const ExprPtr& pred_ptr : predicates) {
    const Expr& pred = *pred_ptr;
    // E[N]: a literal integer predicate over a (sorted) stream needs N
    // pulls, not the full sequence.
    if (pred.kind == ExprKind::kLiteral &&
        pred.atom.type() == AtomicType::kInteger) {
      s = MakeOp<TakeNthStream>(this, ctx, this, pred.atom.int_value(),
                                std::move(s));
      continue;
    }
    // E[last()]: drain with a one-item buffer.
    const Builtin* builtin = pred.kind == ExprKind::kFunctionCall
                                 ? UnshadowedBuiltin(pred, ctx)
                                 : nullptr;
    if (builtin != nullptr && builtin->Has(kReadsLast) && pred.kids.empty()) {
      s = MakeOp<TakeLastStream>(this, ctx, this, std::move(s));
      continue;
    }
    if (NeedsLast(pred)) {
      // The predicate may observe fn:last(): materialize so the focus
      // carries the true size.
      XQ_ASSIGN_OR_RETURN(Sequence buf, MaterializeFrom(std::move(s)));
      XQ_ASSIGN_OR_RETURN(buf, ApplyOnePredicate(pred, std::move(buf), ctx));
      s = xdm::SequenceStream(std::move(buf), ctx.arena());
      continue;
    }
    s = MakeOp<PredicateStream>(this, ctx, this, &ctx, &pred, std::move(s));
  }
  return s;
}

// Could evaluating `e` observe fn:last()? Conservative: any last() call,
// any call that could reach user/external code (which inherits the focus
// in the XQIB dialect, and may shadow a builtin's name), and opaque
// subtrees answer yes.
bool Evaluator::NeedsLast(const Expr& e) {
  auto it = needs_last_cache_.find(&e);
  if (it != needs_last_cache_.end()) return it->second;
  bool needs = false;
  if (e.kind == ExprKind::kFunctionCall) {
    const Builtin* builtin = FindBuiltin(e.qname);
    needs = builtin == nullptr || builtin->Has(kReadsLast) ||
            sctx_.FindFunction(e.qname, e.kids.size()) != nullptr;
  } else if (e.kind == ExprKind::kDirectElement ||
             e.kind == ExprKind::kFtContains) {
    needs = true;  // opaque subtrees (direct constructors hide exprs)
  }
  if (!needs) {
    for (const ExprPtr& kid : e.kids) {
      if (kid != nullptr && NeedsLast(*kid)) {
        needs = true;
        break;
      }
    }
  }
  if (!needs) {
    for (const ExprPtr& p : e.predicates) {
      if (p != nullptr && NeedsLast(*p)) {
        needs = true;
        break;
      }
    }
  }
  if (!needs && e.where != nullptr && NeedsLast(*e.where)) needs = true;
  if (!needs) {
    for (const Clause& c : e.clauses) {
      if (c.expr != nullptr && NeedsLast(*c.expr)) {
        needs = true;
        break;
      }
    }
  }
  if (!needs) {
    for (const Step& st : e.steps) {
      if (st.expr != nullptr && NeedsLast(*st.expr)) needs = true;
      for (const ExprPtr& p : st.predicates) {
        if (p != nullptr && NeedsLast(*p)) {
          needs = true;
          break;
        }
      }
      if (needs) break;
    }
  }
  if (!needs) {
    for (const OrderSpec& os : e.order_specs) {
      if (os.key != nullptr && NeedsLast(*os.key)) {
        needs = true;
        break;
      }
    }
  }
  needs_last_cache_[&e] = needs;
  return needs;
}

Result<Sequence> Evaluator::EvalStep(const Step& step, xml::Node* node,
                                     DynamicContext& ctx) {
  std::vector<xml::Node*> axis_nodes;
  AxisNodes(step.axis, node, &axis_nodes);
  Sequence result;
  result.reserve(axis_nodes.size());
  for (xml::Node* n : axis_nodes) {
    if (MatchesNodeTest(step.test, n, step.axis)) {
      result.push_back(Item::Node(n));
    }
  }
  if (step.predicates.empty()) return result;
  // Predicates see axis order, which AxisNodes already provides: reverse
  // axes are emitted nearest-first, so position 1 is the nearest node.
  return ApplyPredicates(step.predicates, std::move(result), ctx);
}

Result<bool> Evaluator::EvalBool(const Expr& e, DynamicContext& ctx) {
  // Lazy kinds stream to their first EBV witness: a path yields only
  // nodes, so one pull decides (XQuery §2.3.4 allows skipping the rest
  // of the evaluation); atomic producers need at most two pulls.
  switch (e.kind) {
    case ExprKind::kPath:
    case ExprKind::kFilter:
    case ExprKind::kFLWOR:
    case ExprKind::kSequence:
    case ExprKind::kRange: {
      XQ_ASSIGN_OR_RETURN(
          xdm::StreamPtr s,
          EvalStreamOrdered(e, ctx, /*ordered_required=*/false));
      return StreamEBV(*s, *counters_);
    }
    default:
      break;
  }
  XQ_ASSIGN_OR_RETURN(Sequence v, Eval(e, ctx));
  return xdm::EffectiveBooleanValue(v);
}

Result<Sequence> Evaluator::ApplyPredicates(
    const std::vector<ExprPtr>& predicates, Sequence input,
    DynamicContext& ctx) {
  for (const ExprPtr& pred : predicates) {
    XQ_ASSIGN_OR_RETURN(input,
                        ApplyOnePredicate(*pred, std::move(input), ctx));
  }
  return input;
}

Result<Sequence> Evaluator::ApplyOnePredicate(const Expr& pred,
                                              Sequence input,
                                              DynamicContext& ctx) {
  Sequence output;
  int64_t size = static_cast<int64_t>(input.size());
  DynamicContext::Focus saved = ctx.focus();
  for (int64_t i = 0; i < size; ++i) {
    DynamicContext::Focus f;
    f.item = input[static_cast<size_t>(i)];
    f.position = i + 1;
    f.size = size;
    f.has_item = true;
    ctx.set_focus(f);
    // A path predicate is an existence test (its value can only be
    // nodes, so the numeric-predicate branch below cannot apply): one
    // witness suffices.
    bool keep = false;
    if (pred.kind == ExprKind::kPath) {
      Result<bool> b = EvalBool(pred, ctx);
      if (!b.ok()) {
        ctx.set_focus(saved);
        return b.status();
      }
      keep = *b;
    } else {
      Result<Sequence> value = Eval(pred, ctx);
      if (!value.ok()) {
        ctx.set_focus(saved);
        return value.status();
      }
      // Numeric predicate: positional selection.
      const Sequence& v = *value;
      if (v.size() == 1 && !v[0].is_node() && v[0].atomic().is_numeric()) {
        Result<double> d = v[0].atomic().ToDouble();
        if (!d.ok()) {
          ctx.set_focus(saved);
          return d.status();
        }
        keep = (*d == static_cast<double>(i + 1));
      } else {
        Result<bool> b = xdm::EffectiveBooleanValue(v);
        if (!b.ok()) {
          ctx.set_focus(saved);
          return b.status();
        }
        keep = *b;
      }
    }
    if (keep) output.push_back(input[static_cast<size_t>(i)]);
  }
  ctx.set_focus(saved);
  return output;
}

// ------------------------------------------------ scatter-safe exprs ---

bool Evaluator::ScatterSafe(const Expr& e) {
  auto cached = scatter_safe_cache_.find(&e);
  if (cached != scatter_safe_cache_.end()) return cached->second;

  bool safe = true;
  switch (e.kind) {
    // Anything that mutates, constructs persistent state, or leaves the
    // analyzable world is unsafe to evaluate twice. Node constructors
    // are excluded too: a second evaluation would build fresh node
    // identities.
    case ExprKind::kInsert:
    case ExprKind::kDelete:
    case ExprKind::kReplace:
    case ExprKind::kRename:
    case ExprKind::kTransform:
    case ExprKind::kBlock:
    case ExprKind::kVarDecl:
    case ExprKind::kAssign:
    case ExprKind::kWhile:
    case ExprKind::kExitWith:
    case ExprKind::kEventAttach:
    case ExprKind::kEventDetach:
    case ExprKind::kEventTrigger:
    case ExprKind::kSetStyle:
    case ExprKind::kGetStyle:
    case ExprKind::kDirectElement:
    case ExprKind::kComputedElement:
    case ExprKind::kComputedAttribute:
    case ExprKind::kComputedText:
    case ExprKind::kComputedComment:
    case ExprKind::kComputedPI:
    case ExprKind::kFtContains:
      safe = false;
      break;
    case ExprKind::kFunctionCall: {
      // Builtins minus those that read other documents, the clock or a
      // focus the early evaluation need not share, or that the host or
      // the fabric observes. Declared functions (purity unknown here),
      // browser: dialogs, REST/service stubs and any other external code
      // are out.
      constexpr uint16_t kUnsafe = kReadsPosition | kReadsLast |
                                   kReadsClock | kReadsDocuments |
                                   kObservesHost | kWritesFabric;
      const Builtin* builtin = FindBuiltin(e.qname);
      safe = builtin != nullptr && (builtin->facts & kUnsafe) == 0;
      break;
    }
    default:
      break;
  }
  if (safe) {
    for (const ExprPtr& kid : e.kids) {
      if (kid != nullptr && !ScatterSafe(*kid)) safe = false;
    }
    for (const Step& step : e.steps) {
      if (step.expr != nullptr && !ScatterSafe(*step.expr)) {
        safe = false;
      }
      for (const ExprPtr& pred : step.predicates) {
        if (!ScatterSafe(*pred)) safe = false;
      }
    }
    for (const ExprPtr& pred : e.predicates) {
      if (!ScatterSafe(*pred)) safe = false;
    }
    for (const Clause& clause : e.clauses) {
      if (clause.expr != nullptr && !ScatterSafe(*clause.expr)) {
        safe = false;
      }
    }
    if (e.where != nullptr && !ScatterSafe(*e.where)) safe = false;
    for (const OrderSpec& spec : e.order_specs) {
      if (!ScatterSafe(*spec.key)) safe = false;
    }
  }
  scatter_safe_cache_[&e] = safe;
  return safe;
}

// -------------------------------------------------------------- FLWOR ---

void Evaluator::MaybeScatterFlwor(const Expr& e, DynamicContext& ctx) {
  if (!options_.async_federation || ctx.prefetcher == nullptr) return;
  auto it = scatter_plan_cache_.find(&e);
  if (it == scatter_plan_cache_.end()) {
    auto plan = std::make_shared<federation::FlworScatterPlan>(
        federation::AnalyzeFlworScatter(e, facts_.get()));
    // The scatter pre-evaluates the binding (the tuple loop evaluates it
    // again), so it must be provably free of effects and focus tricks.
    if (plan->applicable && !ScatterSafe(*plan->binding)) {
      plan->applicable = false;
    }
    it = scatter_plan_cache_.emplace(&e, std::move(plan)).first;
  }
  const federation::FlworScatterPlan& plan = *it->second;
  if (!plan.applicable) return;
  Result<Sequence> binding = Eval(*plan.binding, ctx);
  // Errors (and oversized batches) just skip the scatter; the real
  // evaluation reports them with identical semantics.
  constexpr size_t kMaxScatter = 256;
  if (!binding.ok() || binding->empty() || binding->size() > kMaxScatter) {
    return;
  }
  for (const Item& item : *binding) {
    std::string value = item.StringValue();
    for (const federation::UrlTemplate& t : plan.templates) {
      ctx.prefetcher->Prefetch(federation::InstantiateUrl(t, value));
    }
  }
  ++counters_->http_scatter_batches;
}

// A FLWOR with order by: every tuple is built, then stably sorted on
// its keys.
Result<Sequence> Evaluator::EvalFLWOR(const Expr& e, DynamicContext& ctx) {
  struct Tuple {
    std::vector<AtomicValue> keys;
    std::vector<bool> key_empty;
    Sequence value;
  };
  std::vector<Tuple> tuples;
  ctx.env().PushScope();

  // Recursive expansion of for/let clauses.
  std::function<Status(size_t)> expand = [&](size_t ci) -> Status {
    if (exit_flag_) return Status();
    if (ci == e.clauses.size()) {
      if (e.where != nullptr) {
        XQ_ASSIGN_OR_RETURN(bool keep, EvalBool(*e.where, ctx));
        if (!keep) return Status();
      }
      Tuple t;
      for (const OrderSpec& spec : e.order_specs) {
        XQ_ASSIGN_OR_RETURN(Sequence key_seq, Eval(*spec.key, ctx));
        if (key_seq.empty()) {
          t.keys.push_back(AtomicValue());
          t.key_empty.push_back(true);
        } else {
          XQ_ASSIGN_OR_RETURN(AtomicValue key,
                              RequireSingleAtomic(key_seq, "order by key"));
          t.keys.push_back(std::move(key));
          t.key_empty.push_back(false);
        }
      }
      XQ_ASSIGN_OR_RETURN(t.value, Eval(*e.kids[0], ctx));
      tuples.push_back(std::move(t));
      return Status();
    }
    const Clause& clause = e.clauses[ci];
    XQ_ASSIGN_OR_RETURN(Sequence binding_seq, Eval(*clause.expr, ctx));
    if (clause.kind == Clause::Kind::kLet) {
      ctx.env().Bind(clause.var, std::move(binding_seq));
      return expand(ci + 1);
    }
    for (size_t i = 0; i < binding_seq.size(); ++i) {
      ctx.env().Bind(clause.var, Sequence{binding_seq[i]});
      if (!clause.pos_var.local().empty()) {
        ctx.env().Bind(clause.pos_var,
                       Sequence{Item::Integer(static_cast<int64_t>(i + 1))});
      }
      XQ_RETURN_NOT_OK(expand(ci + 1));
      if (exit_flag_) break;
    }
    return Status();
  };
  Status st = expand(0);
  ctx.env().PopScope();
  XQ_RETURN_NOT_OK(st);

  bool cmp_error = false;
  Status cmp_status;
  std::stable_sort(
      tuples.begin(), tuples.end(), [&](const Tuple& a, const Tuple& b) {
        if (cmp_error) return false;
        for (size_t k = 0; k < e.order_specs.size(); ++k) {
          const OrderSpec& spec = e.order_specs[k];
          if (a.key_empty[k] || b.key_empty[k]) {
            if (a.key_empty[k] == b.key_empty[k]) continue;
            bool a_first = a.key_empty[k] != spec.empty_greatest;
            return spec.descending ? !a_first : a_first;
          }
          Result<int> cmp = a.keys[k].Compare(b.keys[k]);
          if (!cmp.ok()) {
            cmp_error = true;
            cmp_status = cmp.status();
            return false;
          }
          if (*cmp == 2) continue;  // unordered (NaN)
          if (*cmp != 0) return spec.descending ? *cmp > 0 : *cmp < 0;
        }
        return false;
      });
  if (cmp_error) return cmp_status;

  Sequence out;
  for (Tuple& t : tuples) {
    out.insert(out.end(), t.value.begin(), t.value.end());
  }
  return out;
}

Result<Sequence> Evaluator::EvalQuantified(const Expr& e,
                                           DynamicContext& ctx) {
  // Quantifiers are FLWOR tuple streams: `some` pulls until a tuple
  // passes the test, `every` until one fails it (negate_where). One
  // pull decides either way — the clause streams never run to
  // exhaustion past the witness.
  const bool every = e.quant_every;
  FlworStream tuples(this, &ctx, &e, /*where=*/e.kids[0].get(),
                     /*ret=*/nullptr, /*negate_where=*/every);
  Item marker;
  XQ_ASSIGN_OR_RETURN(bool witness, tuples.Next(&marker));
  if (witness) ++counters_->early_exits;
  return Sequence{Item::Boolean(every ? !witness : witness)};
}

// -------------------------------------------------- comparisons, arith ---

Result<Sequence> Evaluator::EvalComparison(const Expr& e,
                                           DynamicContext& ctx) {
  XQ_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.kids[0], ctx));
  XQ_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.kids[1], ctx));
  return valueops::CompareSequences(e.comp_op, lhs, rhs);
}

Result<Sequence> Evaluator::EvalArith(const Expr& e, DynamicContext& ctx) {
  if (e.kind == ExprKind::kUnary) {
    XQ_ASSIGN_OR_RETURN(Sequence v, Eval(*e.kids[0], ctx));
    return valueops::ArithUnary(e.arith_op, v);
  }
  XQ_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.kids[0], ctx));
  XQ_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.kids[1], ctx));
  return valueops::ArithSequences(e.arith_op, lhs, rhs);
}

Result<Sequence> Evaluator::EvalSetOp(const Expr& e, DynamicContext& ctx) {
  XQ_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.kids[0], ctx));
  XQ_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.kids[1], ctx));
  if (!xdm::AllNodes(lhs) || !xdm::AllNodes(rhs)) {
    return Status::TypeError("set operations require node sequences");
  }
  Sequence out;
  if (e.str == "union") {
    out = std::move(lhs);
    out.insert(out.end(), rhs.begin(), rhs.end());
  } else {
    std::unordered_map<const xml::Node*, bool> in_rhs;
    for (const Item& i : rhs) in_rhs[i.node()] = true;
    bool keep_if_present = e.str == "intersect";
    for (const Item& i : lhs) {
      if (in_rhs.count(i.node()) == static_cast<size_t>(keep_if_present)) {
        out.push_back(i);
      }
    }
  }
  XQ_RETURN_NOT_OK(xdm::SortDocumentOrderDedup(&out));
  return out;
}

// ----------------------------------------------------------- functions ---

const Builtin* Evaluator::UnshadowedBuiltin(const Expr& call,
                                            DynamicContext& ctx) const {
  const Builtin* builtin = FindBuiltin(call.qname);
  if (builtin == nullptr ||
      sctx_.FindFunction(call.qname, call.kids.size()) != nullptr ||
      ctx.FindExternal(call.qname, call.kids.size()) != nullptr) {
    return nullptr;
  }
  return builtin;
}

Result<Sequence> Evaluator::EvalFunctionCall(const Expr& e,
                                             DynamicContext& ctx) {
  const Builtin* builtin = UnshadowedBuiltin(e, ctx);
  // A builtin that pulls its first argument consumes it as a stream:
  // existence tests stop at one witness, aggregates fold item by item
  // without buffering.
  if (builtin != nullptr && builtin->streaming != nullptr &&
      builtin->AcceptsArity(e.kids.size())) {
    if (builtin->local == "count" && IsFastCountPath(*e.kids[0])) {
      XQ_ASSIGN_OR_RETURN(Sequence input, PathInput(*e.kids[0], ctx));
      XQ_ASSIGN_OR_RETURN(int64_t n,
                          CountPath(*e.kids[0], std::move(input), ctx));
      return Sequence{Item::Integer(n)};
    }
    XQ_ASSIGN_OR_RETURN(
        xdm::StreamPtr arg0,
        EvalStreamOrdered(*e.kids[0], ctx,
                          /*ordered_required=*/!builtin->Has(kEmptinessOnly)));
    std::vector<Sequence> rest;
    rest.reserve(e.kids.size() - 1);
    for (size_t i = 1; i < e.kids.size(); ++i) {
      XQ_ASSIGN_OR_RETURN(Sequence arg, Eval(*e.kids[i], ctx));
      rest.push_back(std::move(arg));
    }
    return builtin->streaming(*builtin, *arg0, rest, *counters_);
  }
  std::vector<Sequence> args;
  args.reserve(e.kids.size());
  for (const ExprPtr& kid : e.kids) {
    XQ_ASSIGN_OR_RETURN(Sequence arg, Eval(*kid, ctx));
    args.push_back(std::move(arg));
  }
  if (builtin != nullptr) return CallBuiltin(*builtin, args, ctx);
  return CallFunction(e.qname, std::move(args), ctx);
}

Result<Sequence> Evaluator::CallFunction(const xml::QName& name,
                                         std::vector<Sequence> args,
                                         DynamicContext& ctx) {
  // 1. user-declared functions
  if (const FunctionDecl* fn = sctx_.FindFunction(name, args.size())) {
    if (fn->external) {
      const ExternalFunction* ext = ctx.FindExternal(name, args.size());
      if (ext == nullptr) {
        return Status::Error("XPDY0002",
                             "external function " + name.Lexical() +
                                 " has no implementation");
      }
      return (*ext)(args, ctx);
    }
    if (++ctx.call_depth > DynamicContext::kMaxCallDepth) {
      --ctx.call_depth;
      return Status::DynamicError("XQIB0002",
                                  "maximum recursion depth exceeded in " +
                                      name.Lexical());
    }
    ctx.env().PushScope(/*barrier=*/true);
    for (size_t i = 0; i < fn->params.size(); ++i) {
      ctx.env().Bind(fn->params[i].name, std::move(args[i]));
    }
    // XQIB deviation from strict XQuery: the page document stays the
    // context item inside function bodies (the paper's listeners run
    // //div[...] paths directly, §4.4), so the focus is inherited.
    Result<Sequence> result = Eval(*fn->body, ctx);
    ctx.env().PopScope();
    --ctx.call_depth;
    if (!result.ok()) return result;
    // "exit with" terminates the function, yielding the exit value.
    if (exit_flag_) return TakeExitValue();
    return result;
  }
  // 2. host externals (browser:*, http:*, imported service stubs)
  if (const ExternalFunction* ext = ctx.FindExternal(name, args.size())) {
    return (*ext)(args, ctx);
  }
  // 3. built-in library
  if (const Builtin* builtin = FindBuiltin(name)) {
    return CallBuiltin(*builtin, args, ctx);
  }
  return Status::Error("XPST0017",
                       "unknown function " + name.Clark() + "#" +
                           std::to_string(args.size()));
}

// ---------------------------------------------------------------- cast ---

Result<bool> Evaluator::MatchesSequenceType(const Sequence& value,
                                            const SequenceType& st) {
  using IK = SequenceType::ItemKind;
  if (st.item == IK::kEmptySequence) return value.empty();
  switch (st.occ) {
    case SequenceType::Occurrence::kOne:
      if (value.size() != 1) return false;
      break;
    case SequenceType::Occurrence::kOptional:
      if (value.size() > 1) return false;
      break;
    case SequenceType::Occurrence::kPlus:
      if (value.empty()) return false;
      break;
    case SequenceType::Occurrence::kStar:
      break;
  }
  for (const Item& item : value) {
    switch (st.item) {
      case IK::kAnyItem:
        break;
      case IK::kAnyNode:
        if (!item.is_node()) return false;
        break;
      case IK::kElement:
        if (!item.is_node() || !item.node()->is_element()) return false;
        break;
      case IK::kAttribute:
        if (!item.is_node() || !item.node()->is_attribute()) return false;
        break;
      case IK::kText:
        if (!item.is_node() || !item.node()->is_text()) return false;
        break;
      case IK::kDocument:
        if (!item.is_node() ||
            item.node()->kind() != xml::NodeKind::kDocument) {
          return false;
        }
        break;
      case IK::kAtomic: {
        if (item.is_node()) return false;
        AtomicType t = item.atomic().type();
        if (st.atomic == AtomicType::kUntypedAtomic) break;  // anyAtomic
        if (t != st.atomic &&
            !(st.atomic == AtomicType::kDouble && item.atomic().is_numeric()) &&
            !(st.atomic == AtomicType::kDecimal &&
              (t == AtomicType::kInteger || t == AtomicType::kDecimal))) {
          return false;
        }
        break;
      }
      case IK::kEmptySequence:
        return false;
    }
  }
  return true;
}

Result<Sequence> Evaluator::EvalCast(const Expr& e, DynamicContext& ctx) {
  XQ_ASSIGN_OR_RETURN(Sequence value, Eval(*e.kids[0], ctx));
  if (e.cast_op == "instance") {
    XQ_ASSIGN_OR_RETURN(bool ok, MatchesSequenceType(value, e.seq_type));
    return Sequence{Item::Boolean(ok)};
  }
  if (e.cast_op == "treat") {
    XQ_ASSIGN_OR_RETURN(bool ok, MatchesSequenceType(value, e.seq_type));
    if (!ok) {
      return Status::Error("XPDY0050", "treat as: value does not match type");
    }
    return value;
  }
  // cast / castable: target must be atomic.
  if (e.seq_type.item != SequenceType::ItemKind::kAtomic) {
    return Status::SyntaxError("cast target must be an atomic type");
  }
  Sequence data = xdm::Atomize(value);
  if (data.empty()) {
    bool optional = e.seq_type.occ == SequenceType::Occurrence::kOptional;
    if (e.cast_op == "castable") {
      return Sequence{Item::Boolean(optional)};
    }
    if (optional) return Sequence{};
    return Status::TypeError("cast of an empty sequence to a non-optional "
                             "type");
  }
  if (data.size() > 1) {
    if (e.cast_op == "castable") return Sequence{Item::Boolean(false)};
    return Status::TypeError("cast applied to a sequence of several items");
  }
  Result<AtomicValue> cast = data[0].atomic().CastTo(e.seq_type.atomic);
  if (e.cast_op == "castable") {
    return Sequence{Item::Boolean(cast.ok())};
  }
  if (!cast.ok()) return cast.status();
  return Sequence{Item::Atomic(std::move(cast).value())};
}

// ------------------------------------------------------------ fulltext ---

Result<Sequence> Evaluator::EvalFtContains(const Expr& e,
                                           DynamicContext& ctx) {
  XQ_ASSIGN_OR_RETURN(Sequence searched, Eval(*e.kids[0], ctx));
  // ftcontains is true if any item in the searched sequence matches.
  for (const Item& item : searched) {
    std::vector<std::string> tokens = TokenizeWords(item.StringValue());
    XQ_ASSIGN_OR_RETURN(bool match, EvalFtSelection(*e.ft, tokens, ctx));
    if (match) return Sequence{Item::Boolean(true)};
  }
  return Sequence{Item::Boolean(false)};
}

Result<bool> Evaluator::EvalFtSelection(const FtSelection& sel,
                                        const std::vector<std::string>& tokens,
                                        DynamicContext& ctx) {
  switch (sel.kind) {
    case FtSelection::Kind::kWords: {
      XQ_ASSIGN_OR_RETURN(Sequence words, Eval(*sel.words, ctx));
      // Any of the word items matching satisfies the selection ("any" is
      // the XQFT default for a sequence of search strings).
      for (const Item& w : words) {
        if (ContainsPhrase(tokens, w.StringValue(), sel.with_stemming)) {
          return true;
        }
      }
      return false;
    }
    case FtSelection::Kind::kAnd: {
      for (const auto& kid : sel.kids) {
        XQ_ASSIGN_OR_RETURN(bool b, EvalFtSelection(*kid, tokens, ctx));
        if (!b) return false;
      }
      return true;
    }
    case FtSelection::Kind::kOr: {
      for (const auto& kid : sel.kids) {
        XQ_ASSIGN_OR_RETURN(bool b, EvalFtSelection(*kid, tokens, ctx));
        if (b) return true;
      }
      return false;
    }
    case FtSelection::Kind::kNot: {
      XQ_ASSIGN_OR_RETURN(bool b, EvalFtSelection(*sel.kids[0], tokens, ctx));
      return !b;
    }
  }
  return false;
}

// --------------------------------------------------------- constructors ---

Status Evaluator::AppendContent(const Sequence& content, xml::Node* parent,
                                xml::Document* doc, bool fresh) {
  // XQuery content semantics: adjacent atomic values join with a space
  // into one text node; nodes are deep-copied, unless `fresh` says they
  // were built in place for this content (in `doc`, never linked);
  // attributes attach to the element (only allowed before other content,
  // relaxed here). `parent` is a fresh constructed node, so every link
  // takes the builder path.
  std::string pending_text;
  bool have_pending = false;
  auto flush = [&]() {
    if (have_pending) {
      doc->BuildAppend(parent, doc->CreateText(pending_text));
      pending_text.clear();
      have_pending = false;
    }
  };
  auto copy = [&](const xml::Node* n) {
    const size_t before = doc->node_count();
    xml::Node* c = doc->ImportCopy(n);
    counters_->nodes_copied += doc->node_count() - before;
    return c;
  };
  for (const Item& item : content) {
    if (!item.is_node()) {
      if (have_pending) pending_text += " ";
      pending_text += item.atomic().ToXPathString();
      have_pending = true;
      continue;
    }
    xml::Node* n = item.node();
    flush();
    if (n->is_attribute()) {
      if (!parent->is_element()) {
        return Status::TypeError("attribute node in non-element content");
      }
      if (parent->FindAttribute(n->name().ns(), n->name().local()) !=
          nullptr) {
        return Status::DynamicError(
            "XQDY0025", "attribute " + n->name().Lexical() +
                            " appears twice on <" + parent->name().Lexical() +
                            ">");
      }
      if (!fresh) {
        n = doc->CreateAttribute(n->name(), n->value());
        ++counters_->nodes_copied;
      }
      doc->BuildAppend(parent, n);
    } else if (fresh) {
      assert(n->document() == doc && n->parent() == nullptr);
      doc->BuildAppend(parent, n);
    } else if (n->kind() == xml::NodeKind::kDocument) {
      for (xml::Node* c : n->children()) doc->BuildAppend(parent, copy(c));
    } else {
      doc->BuildAppend(parent, copy(n));
    }
  }
  flush();
  return Status();
}

Result<xml::Node*> Evaluator::BuildDirectNode(const DirectNode& d,
                                              xml::Document* doc,
                                              DynamicContext& ctx) {
  switch (d.kind) {
    case DirectNode::Kind::kText:
      return doc->CreateText(d.text);
    case DirectNode::Kind::kComment:
      return doc->CreateComment(d.text);
    case DirectNode::Kind::kPI:
      return doc->CreateProcessingInstruction(d.name.local(), d.text);
    case DirectNode::Kind::kEnclosedExpr:
      // Handled by the caller (expands to a sequence).
      return Status::NotImplemented("enclosed expr outside element content");
    case DirectNode::Kind::kElement: {
      xml::Node* element = doc->CreateElement(d.name);
      for (const DirectNode::Attr& attr : d.attrs) {
        std::string value;
        for (const DirectNode::AttrPart& part : attr.parts) {
          if (part.expr != nullptr) {
            XQ_ASSIGN_OR_RETURN(Sequence v, Eval(*part.expr, ctx));
            Sequence data = xdm::Atomize(v);
            for (size_t i = 0; i < data.size(); ++i) {
              if (i > 0) value += " ";
              value += data[i].atomic().ToXPathString();
            }
          } else {
            value += part.literal;
          }
        }
        // The parser rejected repeated names (XQST0040).
        doc->BuildAppend(element,
                         doc->CreateAttribute(attr.name, std::move(value)));
      }
      for (const auto& child : d.children) {
        if (child->kind == DirectNode::Kind::kEnclosedExpr) {
          XQ_ASSIGN_OR_RETURN(
              Sequence content,
              EvalOperand(*child->expr, child->takes_fresh ? doc : nullptr,
                          ctx));
          XQ_RETURN_NOT_OK(
              AppendContent(content, element, doc, child->takes_fresh));
        } else {
          XQ_ASSIGN_OR_RETURN(xml::Node* n,
                              BuildDirectNode(*child, doc, ctx));
          doc->BuildAppend(element, n);
        }
      }
      return element;
    }
  }
  return Status::NotImplemented("unknown direct node kind");
}

Result<Sequence> Evaluator::EvalDirectElement(const Expr& e,
                                              DynamicContext& ctx) {
  xml::Document* doc =
      e.built_in_place ? ctx.build_document() : ctx.scratch_document();
  XQ_ASSIGN_OR_RETURN(xml::Node* node, BuildDirectNode(*e.direct, doc, ctx));
  return Sequence{Item::Node(node)};
}

Result<Sequence> Evaluator::EvalComputedConstructor(const Expr& e,
                                                    DynamicContext& ctx) {
  xml::Document* doc =
      e.built_in_place ? ctx.build_document() : ctx.scratch_document();
  size_t content_idx = 0;
  xml::QName name = e.qname;
  if (e.str == "computed-name") {
    XQ_ASSIGN_OR_RETURN(Sequence name_seq, Eval(*e.kids[0], ctx));
    XQ_ASSIGN_OR_RETURN(AtomicValue nv,
                        RequireSingleAtomic(name_seq, "computed name"));
    if (nv.type() == AtomicType::kQName) {
      name = nv.qname_value();
    } else {
      name = xml::QName(nv.ToXPathString());
    }
    content_idx = 1;
  }
  Sequence content;
  if (e.kids.size() > content_idx) {
    XQ_ASSIGN_OR_RETURN(content, EvalOperand(*e.kids[content_idx],
                                             e.takes_fresh ? doc : nullptr,
                                             ctx));
  }
  switch (e.kind) {
    case ExprKind::kComputedElement: {
      xml::Node* element = doc->CreateElement(name);
      XQ_RETURN_NOT_OK(AppendContent(content, element, doc, e.takes_fresh));
      return Sequence{Item::Node(element)};
    }
    case ExprKind::kComputedAttribute: {
      Sequence data = xdm::Atomize(content);
      std::string value;
      for (size_t i = 0; i < data.size(); ++i) {
        if (i > 0) value += " ";
        value += data[i].atomic().ToXPathString();
      }
      return Sequence{Item::Node(doc->CreateAttribute(name, value))};
    }
    case ExprKind::kComputedText: {
      Sequence data = xdm::Atomize(content);
      std::string value;
      for (size_t i = 0; i < data.size(); ++i) {
        if (i > 0) value += " ";
        value += data[i].atomic().ToXPathString();
      }
      return Sequence{Item::Node(doc->CreateText(value))};
    }
    case ExprKind::kComputedComment:
      return Sequence{
          Item::Node(doc->CreateComment(xdm::SequenceToString(content)))};
    case ExprKind::kComputedPI:
      return Sequence{Item::Node(doc->CreateProcessingInstruction(
          e.str, xdm::SequenceToString(content)))};
    default:
      return Status::NotImplemented("constructor kind");
  }
}

// -------------------------------------------------------------- update ---

Result<Sequence> Evaluator::EvalOperand(const Expr& operand,
                                        xml::Document* build_in,
                                        DynamicContext& ctx) {
  if (build_in == nullptr) return Eval(operand, ctx);
  DynamicContext::BuildScope scope(ctx, build_in);
  return Eval(operand, ctx);
}

namespace {

// Where an update builds its in-place source: the document of its one
// target node. Any other target fails the update's own check, after the
// source has run, as on the copy path.
xml::Document* TargetDocument(const Sequence& target_seq,
                              DynamicContext& ctx) {
  if (target_seq.size() == 1 && target_seq[0].is_node()) {
    return target_seq[0].node()->document();
  }
  return ctx.scratch_document();
}

}  // namespace

Result<Sequence> Evaluator::EvalInsert(const Expr& e, DynamicContext& ctx) {
  Sequence source;
  Sequence target_seq;
  if (e.takes_fresh) {
    // The target first: the source's trees are built in its document.
    XQ_ASSIGN_OR_RETURN(target_seq, Eval(*e.kids[1], ctx));
    XQ_ASSIGN_OR_RETURN(
        source, EvalOperand(*e.kids[0], TargetDocument(target_seq, ctx), ctx));
  } else {
    XQ_ASSIGN_OR_RETURN(source, Eval(*e.kids[0], ctx));
    XQ_ASSIGN_OR_RETURN(target_seq, Eval(*e.kids[1], ctx));
  }
  uint64_t copied = 0;
  Status st = valueops::BuildInsert(e.insert_mode, source, target_seq,
                                    e.takes_fresh, &ctx.pul(), &copied);
  counters_->nodes_copied += copied;
  XQ_RETURN_NOT_OK(st);
  return Sequence{};
}

Result<Sequence> Evaluator::EvalDelete(const Expr& e, DynamicContext& ctx) {
  XQ_ASSIGN_OR_RETURN(Sequence targets, Eval(*e.kids[0], ctx));
  XQ_RETURN_NOT_OK(valueops::BuildDelete(targets, &ctx.pul()));
  return Sequence{};
}

Result<Sequence> Evaluator::EvalReplace(const Expr& e, DynamicContext& ctx) {
  XQ_ASSIGN_OR_RETURN(Sequence target_seq, Eval(*e.kids[0], ctx));
  XQ_ASSIGN_OR_RETURN(
      Sequence source,
      EvalOperand(*e.kids[1],
                  e.takes_fresh ? TargetDocument(target_seq, ctx) : nullptr,
                  ctx));
  uint64_t copied = 0;
  Status st = valueops::BuildReplace(e.replace_value_of, target_seq, source,
                                     e.takes_fresh, &ctx.pul(), &copied);
  counters_->nodes_copied += copied;
  XQ_RETURN_NOT_OK(st);
  return Sequence{};
}

Result<Sequence> Evaluator::EvalRename(const Expr& e, DynamicContext& ctx) {
  XQ_ASSIGN_OR_RETURN(Sequence target_seq, Eval(*e.kids[0], ctx));
  XQ_ASSIGN_OR_RETURN(Sequence name_seq, Eval(*e.kids[1], ctx));
  XQ_RETURN_NOT_OK(
      valueops::BuildRename(target_seq, name_seq, &ctx.pul()));
  return Sequence{};
}

Result<Sequence> Evaluator::EvalTransform(const Expr& e,
                                          DynamicContext& ctx) {
  xml::Document* doc = ctx.scratch_document();
  XQ_ASSIGN_OR_RETURN(
      Sequence source,
      EvalOperand(*e.kids[0], e.takes_fresh ? doc : nullptr, ctx));
  if (source.size() != 1 || !source[0].is_node()) {
    return Status::Error("XUTY0013", "copy source must be a single node");
  }
  // A source built in place for the copy is the copy.
  xml::Node* copy = source[0].node();
  if (!e.takes_fresh) {
    const size_t before = doc->node_count();
    copy = doc->ImportCopy(copy);
    counters_->nodes_copied += doc->node_count() - before;
  }
  ctx.env().PushScope();
  ctx.env().Bind(e.qname, Sequence{Item::Node(copy)});
  // The modify clause updates only the copy: evaluate it with a private
  // PUL and apply immediately.
  auto saved = ctx.pul().Take();
  Result<Sequence> modify = Eval(*e.kids[1], ctx);
  Status apply = modify.ok() ? ctx.pul().ApplyAll() : Status();
  ctx.pul().Restore(std::move(saved));
  if (!modify.ok()) {
    ctx.env().PopScope();
    return modify.status();
  }
  if (!apply.ok()) {
    ctx.env().PopScope();
    return apply;
  }
  Result<Sequence> result = Eval(*e.kids[2], ctx);
  ctx.env().PopScope();
  return result;
}

// ----------------------------------------------------------- scripting ---

Result<Sequence> Evaluator::EvalBlock(const Expr& e, DynamicContext& ctx) {
  ctx.env().PushScope();
  Sequence last;
  for (const ExprPtr& stmt : e.kids) {
    Result<Sequence> r = Eval(*stmt, ctx);
    if (!r.ok()) {
      ctx.env().PopScope();
      return r;
    }
    // Scripting semantics (§3.3): updates become visible at every
    // statement boundary.
    Status apply = ctx.pul().ApplyAll();
    if (!apply.ok()) {
      ctx.env().PopScope();
      return apply;
    }
    last = std::move(r).value();
    if (exit_flag_) break;
  }
  ctx.env().PopScope();
  return last;
}

Result<Sequence> Evaluator::EvalWhile(const Expr& e, DynamicContext& ctx) {
  Sequence last;
  while (true) {
    XQ_ASSIGN_OR_RETURN(bool b, EvalBool(*e.kids[0], ctx));
    if (!b) break;
    XQ_ASSIGN_OR_RETURN(last, Eval(*e.kids[1], ctx));
    XQ_RETURN_NOT_OK(ctx.pul().ApplyAll());
    if (exit_flag_) break;
  }
  return last;
}

// ----------------------------------------------- browser grammar ext. ---

Result<Sequence> Evaluator::EvalBrowserExtension(const Expr& e,
                                                 DynamicContext& ctx) {
  if (ctx.browser_binding == nullptr) {
    return Status::Error("BRWS0001",
                         "browser extension used outside a browser context");
  }
  BrowserBinding& bb = *ctx.browser_binding;
  switch (e.kind) {
    case ExprKind::kEventAttach: {
      XQ_ASSIGN_OR_RETURN(Sequence name_seq, Eval(*e.kids[0], ctx));
      std::string event_name = xdm::SequenceToString(name_seq);
      if (e.behind) {
        XQ_RETURN_NOT_OK(bb.AttachBehind(event_name, *e.kids[1], e.qname,
                                         ctx));
        return Sequence{};
      }
      XQ_ASSIGN_OR_RETURN(Sequence targets, Eval(*e.kids[1], ctx));
      XQ_RETURN_NOT_OK(bb.AttachListener(event_name, targets, e.qname, ctx));
      return Sequence{};
    }
    case ExprKind::kEventDetach: {
      XQ_ASSIGN_OR_RETURN(Sequence name_seq, Eval(*e.kids[0], ctx));
      XQ_ASSIGN_OR_RETURN(Sequence targets, Eval(*e.kids[1], ctx));
      XQ_RETURN_NOT_OK(bb.DetachListener(xdm::SequenceToString(name_seq),
                                         targets, e.qname, ctx));
      return Sequence{};
    }
    case ExprKind::kEventTrigger: {
      XQ_ASSIGN_OR_RETURN(Sequence name_seq, Eval(*e.kids[0], ctx));
      XQ_ASSIGN_OR_RETURN(Sequence targets, Eval(*e.kids[1], ctx));
      XQ_RETURN_NOT_OK(bb.TriggerEvent(xdm::SequenceToString(name_seq),
                                       targets, ctx));
      return Sequence{};
    }
    case ExprKind::kSetStyle: {
      XQ_ASSIGN_OR_RETURN(Sequence prop, Eval(*e.kids[0], ctx));
      XQ_ASSIGN_OR_RETURN(Sequence targets, Eval(*e.kids[1], ctx));
      XQ_ASSIGN_OR_RETURN(Sequence value, Eval(*e.kids[2], ctx));
      XQ_RETURN_NOT_OK(bb.SetStyle(xdm::SequenceToString(prop), targets,
                                   xdm::SequenceToString(value), ctx));
      return Sequence{};
    }
    case ExprKind::kGetStyle: {
      XQ_ASSIGN_OR_RETURN(Sequence prop, Eval(*e.kids[0], ctx));
      XQ_ASSIGN_OR_RETURN(Sequence target, Eval(*e.kids[1], ctx));
      XQ_ASSIGN_OR_RETURN(std::string value,
                          bb.GetStyle(xdm::SequenceToString(prop), target,
                                      ctx));
      return Sequence{Item::String(value)};
    }
    default:
      return Status::NotImplemented("browser extension kind");
  }
}

}  // namespace xqib::xquery
