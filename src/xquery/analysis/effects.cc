#include "xquery/analysis/effects.h"

#include <algorithm>

#include "xml/qname.h"
#include "xquery/analysis/facts.h"

namespace xqib::xquery::analysis {

namespace {

// Render key: lexicographic by (local, ns) so output is stable across
// interning order; attribute and element names share one token space.
std::string NameLabel(const xml::InternedName* name) {
  if (name == nullptr) return "?";
  if (name->ns != nullptr && !name->ns->empty()) {
    return "{" + *name->ns + "}" + *name->local;
  }
  return *name->local;
}

bool TokenValid(const xml::InternedName* name) {
  return name != nullptr && name->local != nullptr && !name->local->empty();
}

}  // namespace

void EffectSet::AddName(const xml::InternedName* name) {
  if (top || !TokenValid(name)) return;
  auto it = std::lower_bound(names.begin(), names.end(), name);
  if (it == names.end() || *it != name) names.insert(it, name);
}

void EffectSet::MakeTop() {
  top = true;
  names.clear();
}

bool EffectSet::AddAll(const EffectSet& other) {
  if (top) return false;
  if (other.top) {
    MakeTop();
    return true;
  }
  bool changed = false;
  for (const xml::InternedName* n : other.names) {
    auto it = std::lower_bound(names.begin(), names.end(), n);
    if (it == names.end() || *it != n) {
      names.insert(it, n);
      changed = true;
    }
  }
  return changed;
}

bool EffectSet::Contains(const xml::InternedName* name) const {
  if (top) return true;
  return std::binary_search(names.begin(), names.end(), name);
}

bool EffectSet::Intersects(const EffectSet& other) const {
  if (top) return other.top || !other.names.empty();
  if (other.top) return !names.empty();
  auto a = names.begin();
  auto b = other.names.begin();
  while (a != names.end() && b != other.names.end()) {
    if (*a == *b) return true;
    if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return false;
}

std::vector<const xml::InternedName*> Effects::ReadNames() const {
  if (reads_top()) return {};
  EffectSet all = child_reads;
  all.AddAll(value_reads);
  return all.names;
}

bool Effects::MergeFrom(const Effects& other) {
  bool changed = child_reads.AddAll(other.child_reads);
  changed |= value_reads.AddAll(other.value_reads);
  changed |= writes.AddAll(other.writes);
  changed |= write_scope.AddAll(other.write_scope);
  changed |= observed_reads.AddAll(other.observed_reads);
  if (other.has_update && !has_update) {
    has_update = true;
    changed = true;
  }
  if (other.interacts && !interacts) {
    interacts = true;
    changed = true;
  }
  return changed;
}

bool Effects::operator==(const Effects& other) const {
  return child_reads == other.child_reads &&
         value_reads == other.value_reads && writes == other.writes &&
         write_scope == other.write_scope &&
         observed_reads == other.observed_reads &&
         has_update == other.has_update && interacts == other.interacts;
}

bool Interferes(const Effects& a, const Effects& b) {
  if (!a.has_update && !b.has_update) return false;
  auto read_write = [](const Effects& r, const Effects& w) {
    if (!w.has_update) return false;
    if (w.writes.top || w.write_scope.top) return true;
    if (r.reads_top()) return true;
    return r.child_reads.Intersects(w.writes) ||
           r.value_reads.Intersects(w.write_scope);
  };
  return read_write(a, b) || read_write(b, a) ||
         a.writes.Intersects(b.writes);
}

bool ReadSetIntersectsWrites(
    const std::vector<const xml::InternedName*>& reads,
    const std::unordered_set<const xml::InternedName*>& written) {
  for (const xml::InternedName* r : reads) {
    if (written.count(r) != 0) return true;
  }
  return false;
}

std::string RenderEffectSet(const EffectSet& set) {
  if (set.top) return "TOP";
  std::vector<std::string> labels;
  labels.reserve(set.names.size());
  for (const xml::InternedName* n : set.names) labels.push_back(NameLabel(n));
  std::sort(labels.begin(), labels.end());
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += " ";
    out += labels[i];
  }
  out += "}";
  return out;
}

std::string RenderEffects(const Effects& effects) {
  EffectSet reads = effects.child_reads;
  reads.AddAll(effects.value_reads);
  std::string out = "reads=" + RenderEffectSet(reads);
  out += " writes=" + RenderEffectSet(effects.writes);
  out += " scope=" + RenderEffectSet(effects.write_scope);
  out += effects.has_update ? " updating" : " pure";
  if (effects.interacts) out += " interactive";
  return out;
}

// ---------------------------------------------------------------------------
// The walker: one pass over an expression under the current function
// summaries. `value_used` says whether the consumer may atomize or
// serialize the result — it only matters at kVarRef / kContextItem
// leaves, where a live node of statically unknown name makes content
// reads untrackable (⊤).

namespace {

struct TargetInfo {
  // True when the target is a root-anchored chain of child/attribute
  // steps with concrete names: its ancestor names are then exactly
  // `chain` and the write's scope stays finite.
  bool chain_ok = false;
  std::vector<const xml::InternedName*> chain;
  const xml::InternedName* last = nullptr;
  enum class LastKind { kNone, kElement, kAttribute, kText } last_kind =
      LastKind::kNone;
};

bool IsGlueStep(const Step& step, bool is_last) {
  return step.axis == Axis::kDescendantOrSelf &&
         step.test.kind == NodeTest::Kind::kAnyKind &&
         step.predicates.empty() && !is_last;
}

bool IsWildcardTest(const NodeTest& test) {
  return test.any_name || test.any_ns || test.any_local ||
         !TokenValid(test.name.token());
}

bool IsForwardNamedAxis(Axis axis) {
  switch (axis) {
    case Axis::kChild:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kSelf:
    case Axis::kAttribute:
      return true;
    default:
      return false;
  }
}

// fn: builtins whose result is always atomic (their output can never
// carry element/attribute nodes into inserted content).
bool IsAtomicBuiltin(const std::string& local) {
  static const std::set<std::string>* kAtomic = new std::set<std::string>{
      "string",      "data",          "number",       "name",
      "local-name",  "namespace-uri", "boolean",      "not",
      "true",        "false",         "count",        "abs",
      "ceiling",     "floor",         "round",        "sum",
      "avg",         "min",           "max",          "concat",
      "string-join", "substring",     "string-length", "length",
      "upper-case",  "lower-case",    "contains",     "starts-with",
      "ends-with",   "substring-before", "substring-after", "translate",
      "normalize-space", "compare",   "codepoints-to-string",
      "string-to-codepoints", "matches", "replace",   "tokenize",
      "encode-for-uri", "empty",      "exists",       "distinct-values",
      "index-of",    "deep-equal",    "position",     "last",
      "serialize",   "string-value"};
  return kAtomic->count(local) > 0;
}

// browser: functions that mutate the BOM or emit into the document.
bool IsBrowserMutator(const std::string& local) {
  return local == "write" || local == "writeln" || local == "windowOpen" ||
         local == "windowClose" || local == "windowMoveBy" ||
         local == "windowMoveTo" || local == "historyBack" ||
         local == "historyForward" || local == "historyGo";
}

}  // namespace

class EffectWalker {
 public:
  EffectWalker(const EffectAnalysis& analysis, const Module* module)
      : analysis_(analysis), module_(module) {}

  Effects WalkBody(const Expr& e, const std::vector<Param>* params) {
    out_ = Effects{};
    params_.clear();
    if (params != nullptr) {
      for (const Param& p : *params) params_.insert(p.name.Clark());
    }
    locals_.clear();
    context_names_.clear();
    Walk(e, true);
    return std::move(out_);
  }

 private:
  void AddChildRead(const xml::InternedName* name) {
    out_.child_reads.AddName(name);
    if (!target_mode_) out_.observed_reads.AddName(name);
  }
  void AddValueRead(const xml::InternedName* name) {
    out_.value_reads.AddName(name);
    if (!target_mode_) out_.observed_reads.AddName(name);
  }
  void ReadsTop() {
    out_.child_reads.MakeTop();
    if (!target_mode_) out_.observed_reads.MakeTop();
  }
  void ValueReadsTop() {
    out_.value_reads.MakeTop();
    if (!target_mode_) out_.observed_reads.MakeTop();
  }
  void WritesTop() {
    out_.writes.MakeTop();
    out_.write_scope.MakeTop();
    out_.has_update = true;
  }
  // Walks an update-target expression: its reads count for interference
  // but not as observations (see Effects::observed_reads).
  void WalkTarget(const Expr& e) {
    const bool saved = target_mode_;
    target_mode_ = true;
    Walk(e, false);
    target_mode_ = saved;
  }

  bool IsLocal(const std::string& clark) const {
    return std::find(locals_.rbegin(), locals_.rend(), clark) !=
           locals_.rend();
  }

  void WalkKids(const Expr& e, bool value_used) {
    for (const ExprPtr& kid : e.kids) {
      if (kid != nullptr) Walk(*kid, value_used);
    }
  }

  void WalkDirect(const DirectNode& node) {
    if (node.expr != nullptr) Walk(*node.expr, true);
    for (const DirectNode::Attr& attr : node.attrs) {
      for (const DirectNode::AttrPart& part : attr.parts) {
        if (part.expr != nullptr) Walk(*part.expr, true);
      }
    }
    for (const auto& child : node.children) WalkDirect(*child);
  }

  void WalkFt(const FtSelection& ft) {
    if (ft.words != nullptr) Walk(*ft.words, true);
    for (const auto& kid : ft.kids) WalkFt(*kid);
  }

  void WalkPath(const Expr& e, bool value_used) {
    (void)value_used;  // final-step value reads are recorded regardless
    if (!e.kids.empty() && e.kids[0] != nullptr) Walk(*e.kids[0], false);
    const xml::InternedName* prev = nullptr;
    for (size_t i = 0; i < e.steps.size(); ++i) {
      const Step& step = e.steps[i];
      const bool is_last = i + 1 == e.steps.size();
      if (step.expr != nullptr) {
        // An expression step may read anything about its context nodes
        // (string(), name(), a further path): untrackable.
        ReadsTop();
        context_names_.push_back(nullptr);
        Walk(*step.expr, true);
        context_names_.pop_back();
        prev = nullptr;
        continue;
      }
      if (IsGlueStep(step, is_last)) continue;  // the // connector
      const xml::InternedName* cur = nullptr;
      if (!IsForwardNamedAxis(step.axis)) {
        // parent / ancestor / sibling / preceding / following: the
        // touched names depend on document shape we cannot see.
        ReadsTop();
      } else {
        switch (step.test.kind) {
          case NodeTest::Kind::kName:
          case NodeTest::Kind::kElement:
          case NodeTest::Kind::kAttribute:
            if (IsWildcardTest(step.test)) {
              ReadsTop();
            } else {
              cur = step.test.name.token();
              AddChildRead(cur);
            }
            break;
          case NodeTest::Kind::kText:
          case NodeTest::Kind::kComment:
          case NodeTest::Kind::kPI:
          case NodeTest::Kind::kAnyKind:
            // Content nodes below the previously named element: their
            // values are that element's content. Without a named
            // anchor the read is untrackable.
            if (prev != nullptr) {
              AddValueRead(prev);
            } else {
              ReadsTop();
            }
            break;
          case NodeTest::Kind::kDocument:
            break;
        }
      }
      context_names_.push_back(cur);
      for (const ExprPtr& pred : step.predicates) Walk(*pred, false);
      context_names_.pop_back();
      if (is_last && cur != nullptr) AddValueRead(cur);
      prev = cur;
    }
  }

  // Classifies an update-target path. Reads performed by the target
  // expression itself are walked separately by the caller.
  TargetInfo ClassifyTarget(const Expr& e) const {
    TargetInfo info;
    if (e.kind != ExprKind::kPath) return info;
    if (!e.root_anchored || (!e.kids.empty() && e.kids[0] != nullptr)) {
      // Not anchored at the document root: the ancestor chain (and for
      // variables, even the target name) is unknown.
      info.chain_ok = false;
    } else {
      info.chain_ok = true;
    }
    const xml::InternedName* prev = nullptr;
    for (size_t i = 0; i < e.steps.size(); ++i) {
      const Step& step = e.steps[i];
      const bool is_last = i + 1 == e.steps.size();
      if (IsGlueStep(step, is_last)) {
        info.chain_ok = false;
        continue;
      }
      const bool named_test = (step.test.kind == NodeTest::Kind::kName ||
                               step.test.kind == NodeTest::Kind::kElement ||
                               step.test.kind == NodeTest::Kind::kAttribute) &&
                              !IsWildcardTest(step.test);
      const xml::InternedName* cur =
          named_test ? step.test.name.token() : nullptr;
      if ((step.axis == Axis::kChild || step.axis == Axis::kAttribute) &&
          named_test) {
        if (info.chain_ok) info.chain.push_back(cur);
      } else if (is_last && step.test.kind == NodeTest::Kind::kText &&
                 step.axis == Axis::kChild && prev != nullptr) {
        // …/name/text(): a value write into `name`.
        info.last = prev;
        info.last_kind = TargetInfo::LastKind::kText;
        return info;
      } else {
        info.chain_ok = false;
      }
      if (is_last) {
        info.last = cur;
        if (cur != nullptr) {
          info.last_kind = step.axis == Axis::kAttribute ||
                                   step.test.kind ==
                                       NodeTest::Kind::kAttribute
                               ? TargetInfo::LastKind::kAttribute
                               : TargetInfo::LastKind::kElement;
        }
      }
      prev = cur;
    }
    return info;
  }

  // The names a constructed sequence can contribute to the live tree
  // when inserted: element and attribute names, recursively.
  EffectSet ContentNames(const Expr& e) const {
    EffectSet set;
    switch (e.kind) {
      case ExprKind::kLiteral:
      case ExprKind::kRange:
      case ExprKind::kArith:
      case ExprKind::kUnary:
      case ExprKind::kComparison:
      case ExprKind::kLogical:
      case ExprKind::kQuantified:
      case ExprKind::kFtContains:
      case ExprKind::kComputedText:
      case ExprKind::kComputedComment:
      case ExprKind::kComputedPI:
        break;
      case ExprKind::kSequence:
        for (const ExprPtr& kid : e.kids) {
          if (kid != nullptr) set.AddAll(ContentNames(*kid));
        }
        break;
      case ExprKind::kIf:
        if (e.kids.size() > 1 && e.kids[1]) set.AddAll(ContentNames(*e.kids[1]));
        if (e.kids.size() > 2 && e.kids[2]) set.AddAll(ContentNames(*e.kids[2]));
        break;
      case ExprKind::kEnclosed:
        if (!e.kids.empty() && e.kids[0]) set.AddAll(ContentNames(*e.kids[0]));
        break;
      case ExprKind::kCast:
        if (e.cast_op == "treat") {
          if (!e.kids.empty() && e.kids[0]) {
            set.AddAll(ContentNames(*e.kids[0]));
          }
        }
        break;
      case ExprKind::kFLWOR:
        if (!e.kids.empty() && e.kids[0]) set.AddAll(ContentNames(*e.kids[0]));
        break;
      case ExprKind::kBlock:
        if (!e.kids.empty() && e.kids.back()) {
          set.AddAll(ContentNames(*e.kids.back()));
        }
        break;
      case ExprKind::kTypeswitch:
        for (const Clause& c : e.clauses) {
          if (c.expr != nullptr) set.AddAll(ContentNames(*c.expr));
        }
        if (e.kids.size() > 1 && e.kids[1]) set.AddAll(ContentNames(*e.kids[1]));
        break;
      case ExprKind::kDirectElement:
        if (e.direct != nullptr) set.AddAll(DirectNames(*e.direct));
        break;
      case ExprKind::kComputedElement:
      case ExprKind::kComputedAttribute:
        if (e.str == "computed-name") {
          set.MakeTop();  // dynamic name: could introduce any name
        } else {
          set.AddName(e.qname.token());
          const size_t content_idx = 0;
          if (e.kind == ExprKind::kComputedElement &&
              e.kids.size() > content_idx && e.kids[content_idx]) {
            set.AddAll(ContentNames(*e.kids[content_idx]));
          }
        }
        break;
      case ExprKind::kFunctionCall:
        if (e.qname.ns() == xml::kXsNamespace ||
            (e.qname.ns() == xml::kFnNamespace &&
             IsAtomicBuiltin(e.qname.local()))) {
          break;  // provably atomic result
        }
        set.MakeTop();
        break;
      default:
        // Paths, variables, set ops, transform copies, …: the nodes
        // flowing through carry names we cannot enumerate.
        set.MakeTop();
        break;
    }
    return set;
  }

  EffectSet DirectNames(const DirectNode& node) const {
    EffectSet set;
    switch (node.kind) {
      case DirectNode::Kind::kElement:
        set.AddName(node.name.token());
        for (const DirectNode::Attr& attr : node.attrs) {
          set.AddName(attr.name.token());
        }
        for (const auto& child : node.children) {
          set.AddAll(DirectNames(*child));
        }
        break;
      case DirectNode::Kind::kEnclosedExpr:
        if (node.expr != nullptr) set.AddAll(ContentNames(*node.expr));
        break;
      case DirectNode::Kind::kText:
      case DirectNode::Kind::kComment:
      case DirectNode::Kind::kPI:
        break;
    }
    return set;
  }

  // Records a write with target info + content names. Covers insert,
  // replace, rename, set-style.
  void RecordWrite(const TargetInfo& target, const EffectSet& content) {
    out_.has_update = true;
    if (target.last == nullptr || content.top) {
      WritesTop();
      return;
    }
    out_.writes.AddName(target.last);
    out_.writes.AddAll(content);
    if (out_.writes.top) {
      out_.write_scope.MakeTop();
      return;
    }
    if (target.chain_ok) {
      out_.write_scope.AddAll(out_.writes);
      for (const xml::InternedName* n : target.chain) {
        out_.write_scope.AddName(n);
      }
      if (target.last_kind == TargetInfo::LastKind::kText) {
        out_.write_scope.AddName(target.last);
      }
    } else {
      out_.write_scope.MakeTop();
    }
  }

  void WalkFunctionCall(const Expr& e) {
    const std::string& ns = e.qname.ns();
    const std::string& local = e.qname.local();
    bool args_value_used = true;
    if (ns == xml::kFnNamespace) {
      if (local == "count" || local == "exists" || local == "empty" ||
          local == "boolean" || local == "not" || local == "zero-or-one" ||
          local == "exactly-one" || local == "one-or-more" ||
          local == "name" || local == "local-name" ||
          local == "namespace-uri" || local == "node-name") {
        args_value_used = false;
      } else if (local == "id" || local == "idref" || local == "root" ||
                 local == "doc" || local == "doc-available") {
        ReadsTop();  // jumps anywhere in the document / other documents
      } else if (local == "put") {
        WritesTop();
      }
    } else if (ns == xml::kBrowserNamespace) {
      if (local == "prompt" || local == "confirm") {
        out_.interacts = true;
      } else if (local != "alert") {
        // BOM access can hand back live document nodes from any window.
        ReadsTop();
        if (IsBrowserMutator(local)) WritesTop();
      }
    } else if (analysis_.declared_ns_.count(ns) > 0) {
      const Effects* summary = analysis_.ForFunction(
          AnalysisFacts::FunctionKey(e.qname.Clark(), e.kids.size()));
      if (summary != nullptr) {
        out_.MergeFrom(*summary);
      } else {
        // Unknown name#arity in a checked namespace (an XQSA002/003
        // error elsewhere); stay sound.
        ReadsTop();
        WritesTop();
      }
    } else if (ns == xml::kXsNamespace || ns == xml::kHttpNamespace ||
               analysis_.imported_ns_.count(ns) > 0) {
      // Constructors, the HTTP client, and imported web-service calls
      // never touch the page DOM (service modules evaluate against the
      // remote store).
    } else {
      ReadsTop();  // unknown external code
      WritesTop();
    }
    WalkKids(e, args_value_used);
  }

  void Walk(const Expr& e, bool value_used) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        break;
      case ExprKind::kVarRef: {
        const std::string clark = e.qname.Clark();
        if (IsLocal(clark)) break;
        if (analysis_.assigned_globals_.count(clark) > 0) {
          // Mutable module state: another listener may rebind it.
          ValueReadsTop();
          break;
        }
        if (params_.count(clark) > 0) {
          // A parameter can be bound to a live node of unknown name
          // ($obj, the attach target): atomizing it reads content we
          // cannot name. Navigation *from* it is covered by the steps.
          if (value_used) ValueReadsTop();
          break;
        }
        auto it = analysis_.globals_.find("var:" + clark);
        if (it != analysis_.globals_.end()) {
          // The init expression's reads stand in for the reference.
          out_.child_reads.AddAll(it->second.child_reads);
          out_.value_reads.AddAll(it->second.value_reads);
          if (!target_mode_) {
            out_.observed_reads.AddAll(it->second.observed_reads);
          }
        } else if (value_used) {
          ValueReadsTop();  // unknown variable (XQSA001 case)
        }
        break;
      }
      case ExprKind::kContextItem:
        if (value_used) {
          if (!context_names_.empty() && context_names_.back() != nullptr) {
            AddValueRead(context_names_.back());
          } else {
            ValueReadsTop();
          }
        }
        break;
      case ExprKind::kSequence:
      case ExprKind::kEnclosed:
      case ExprKind::kExitWith:
      case ExprKind::kSetOp:
        WalkKids(e, value_used);
        break;
      case ExprKind::kRange:
      case ExprKind::kArith:
      case ExprKind::kUnary:
      case ExprKind::kComparison:
      case ExprKind::kCast:
      case ExprKind::kComputedText:
      case ExprKind::kComputedComment:
      case ExprKind::kComputedPI:
        WalkKids(e, true);
        break;
      case ExprKind::kLogical:
        WalkKids(e, false);  // EBV does not read node content
        break;
      case ExprKind::kIf:
        if (!e.kids.empty() && e.kids[0]) Walk(*e.kids[0], false);
        if (e.kids.size() > 1 && e.kids[1]) Walk(*e.kids[1], value_used);
        if (e.kids.size() > 2 && e.kids[2]) Walk(*e.kids[2], value_used);
        break;
      case ExprKind::kPath:
        WalkPath(e, value_used);
        break;
      case ExprKind::kFilter:
        if (!e.kids.empty() && e.kids[0]) Walk(*e.kids[0], value_used);
        context_names_.push_back(nullptr);
        for (const ExprPtr& pred : e.predicates) Walk(*pred, false);
        context_names_.pop_back();
        break;
      case ExprKind::kFLWOR: {
        const size_t mark = locals_.size();
        for (const Clause& c : e.clauses) {
          if (c.expr != nullptr) Walk(*c.expr, true);
          locals_.push_back(c.var.Clark());
          if (!c.pos_var.local().empty()) {
            locals_.push_back(c.pos_var.Clark());
          }
        }
        if (e.where != nullptr) Walk(*e.where, false);
        for (const OrderSpec& spec : e.order_specs) Walk(*spec.key, true);
        if (!e.kids.empty() && e.kids[0]) Walk(*e.kids[0], value_used);
        locals_.resize(mark);
        break;
      }
      case ExprKind::kQuantified: {
        const size_t mark = locals_.size();
        for (const Clause& c : e.clauses) {
          if (c.expr != nullptr) Walk(*c.expr, true);
          locals_.push_back(c.var.Clark());
        }
        if (!e.kids.empty() && e.kids[0]) Walk(*e.kids[0], false);
        locals_.resize(mark);
        break;
      }
      case ExprKind::kTypeswitch: {
        // The operand is bound to the case variables, which the case
        // bodies may atomize: treat it as value-used.
        if (!e.kids.empty() && e.kids[0]) Walk(*e.kids[0], true);
        for (const Clause& c : e.clauses) {
          const size_t mark = locals_.size();
          if (!c.var.local().empty()) locals_.push_back(c.var.Clark());
          if (c.expr != nullptr) Walk(*c.expr, value_used);
          locals_.resize(mark);
        }
        if (e.kids.size() > 1 && e.kids[1]) {
          const size_t mark = locals_.size();
          if (!e.qname.local().empty()) locals_.push_back(e.qname.Clark());
          Walk(*e.kids[1], value_used);
          locals_.resize(mark);
        }
        break;
      }
      case ExprKind::kFunctionCall:
        WalkFunctionCall(e);
        break;
      case ExprKind::kFtContains:
        if (!e.kids.empty() && e.kids[0]) Walk(*e.kids[0], true);
        if (e.ft != nullptr) WalkFt(*e.ft);
        break;
      case ExprKind::kDirectElement:
        if (e.direct != nullptr) WalkDirect(*e.direct);
        break;
      case ExprKind::kComputedElement:
      case ExprKind::kComputedAttribute:
        WalkKids(e, true);
        break;
      case ExprKind::kInsert: {
        Walk(*e.kids[0], true);
        WalkTarget(*e.kids[1]);
        RecordWrite(ClassifyTarget(*e.kids[1]), ContentNames(*e.kids[0]));
        break;
      }
      case ExprKind::kDelete:
        WalkTarget(*e.kids[0]);
        // The deleted subtree's names are whatever lives under the
        // target at run time — statically unbounded.
        WritesTop();
        break;
      case ExprKind::kReplace: {
        WalkTarget(*e.kids[0]);
        Walk(*e.kids[1], true);
        TargetInfo target = ClassifyTarget(*e.kids[0]);
        if (e.replace_value_of &&
            (target.last_kind == TargetInfo::LastKind::kAttribute ||
             target.last_kind == TargetInfo::LastKind::kText)) {
          // Precise: only the attribute's (or text's parent's) value
          // changes; no names appear or disappear.
          RecordWrite(target, EffectSet{});
        } else {
          // Replacing a node (or an element's content) destroys a
          // subtree of statically unknown names.
          WritesTop();
        }
        break;
      }
      case ExprKind::kRename: {
        WalkTarget(*e.kids[0]);
        Walk(*e.kids[1], true);
        TargetInfo target = ClassifyTarget(*e.kids[0]);
        EffectSet new_name;
        const Expr& name_expr = *e.kids[1];
        if (name_expr.kind == ExprKind::kLiteral &&
            (module_ == nullptr || module_->default_element_ns.empty())) {
          const std::string lexical = name_expr.atom.ToXPathString();
          if (lexical.find(':') == std::string::npos && !lexical.empty()) {
            new_name.AddName(xml::InternName("", lexical));
          } else {
            new_name.MakeTop();  // prefix resolution needs static context
          }
        } else {
          new_name.MakeTop();
        }
        RecordWrite(target, new_name);
        break;
      }
      case ExprKind::kTransform: {
        Walk(*e.kids[0], true);  // the copied subtree is fully read
        const size_t mark = locals_.size();
        locals_.push_back(e.qname.Clark());
        // The modify clause only ever updates the copy (XUDY0014):
        // keep its reads, drop its writes from the live-DOM summary.
        Effects saved = std::move(out_);
        out_ = Effects{};
        Walk(*e.kids[1], false);
        Effects modify = std::move(out_);
        out_ = std::move(saved);
        out_.child_reads.AddAll(modify.child_reads);
        out_.value_reads.AddAll(modify.value_reads);
        out_.observed_reads.AddAll(modify.observed_reads);
        out_.interacts |= modify.interacts;
        if (e.kids.size() > 2 && e.kids[2]) Walk(*e.kids[2], value_used);
        locals_.resize(mark);
        break;
      }
      case ExprKind::kBlock: {
        const size_t mark = locals_.size();
        for (size_t i = 0; i < e.kids.size(); ++i) {
          if (e.kids[i] == nullptr) continue;
          Walk(*e.kids[i], i + 1 == e.kids.size() ? value_used : false);
        }
        locals_.resize(mark);
        break;
      }
      case ExprKind::kVarDecl:
        if (!e.kids.empty() && e.kids[0]) Walk(*e.kids[0], true);
        locals_.push_back(e.qname.Clark());
        break;
      case ExprKind::kAssign:
        if (!e.kids.empty() && e.kids[0]) Walk(*e.kids[0], true);
        if (!IsLocal(e.qname.Clark()) &&
            params_.count(e.qname.Clark()) == 0) {
          // Assignment to module state: observable by every listener.
          WritesTop();
        }
        break;
      case ExprKind::kWhile:
        WalkKids(e, false);
        break;
      case ExprKind::kEventAttach:
      case ExprKind::kEventDetach:
      case ExprKind::kEventTrigger:
        // Mutates the listener registry / synthesizes dispatches:
        // affects behavior in ways no name set captures.
        WalkKids(e, false);
        WritesTop();
        break;
      case ExprKind::kSetStyle: {
        Walk(*e.kids[0], true);
        WalkTarget(*e.kids[1]);
        Walk(*e.kids[2], true);
        // Style writes land in the target's `style` attribute.
        TargetInfo target = ClassifyTarget(*e.kids[1]);
        EffectSet style;
        style.AddName(xml::InternName("", "style"));
        RecordWrite(target, style);
        break;
      }
      case ExprKind::kGetStyle:
        Walk(*e.kids[0], true);
        Walk(*e.kids[1], true);  // reads the target's style content
        break;
    }
  }

  const EffectAnalysis& analysis_;
  const Module* module_;
  Effects out_;
  bool target_mode_ = false;
  std::vector<std::string> locals_;
  std::set<std::string> params_;
  std::vector<const xml::InternedName*> context_names_;
};

// ---------------------------------------------------------------------------
// Fixpoint driver.

namespace {

void CollectAssigns(const Expr& e, std::set<std::string>* assigned) {
  if (e.kind == ExprKind::kAssign) assigned->insert(e.qname.Clark());
  for (const ExprPtr& kid : e.kids) {
    if (kid != nullptr) CollectAssigns(*kid, assigned);
  }
  for (const Step& step : e.steps) {
    for (const ExprPtr& pred : step.predicates) {
      CollectAssigns(*pred, assigned);
    }
    if (step.expr != nullptr) CollectAssigns(*step.expr, assigned);
  }
  for (const ExprPtr& pred : e.predicates) CollectAssigns(*pred, assigned);
  for (const Clause& c : e.clauses) {
    if (c.expr != nullptr) CollectAssigns(*c.expr, assigned);
  }
  if (e.where != nullptr) CollectAssigns(*e.where, assigned);
  for (const OrderSpec& spec : e.order_specs) {
    CollectAssigns(*spec.key, assigned);
  }
}

void CollectModuleAssigns(const Module& m, std::set<std::string>* assigned) {
  if (m.body != nullptr) CollectAssigns(*m.body, assigned);
  for (const auto& fn : m.functions) {
    if (fn->body != nullptr) CollectAssigns(*fn->body, assigned);
  }
  for (const VarDecl& v : m.variables) {
    if (v.init != nullptr) CollectAssigns(*v.init, assigned);
  }
}

}  // namespace

void EffectAnalysis::AddContextModule(const Module* module) {
  context_.push_back(module);
}

const Effects* EffectAnalysis::ForFunction(const std::string& key) const {
  auto it = functions_.find(key);
  return it != functions_.end() ? &it->second : nullptr;
}

Effects EffectAnalysis::ExprEffects(const Expr& e) const {
  EffectWalker walker(*this, module_);
  return walker.WalkBody(e, nullptr);
}

void EffectAnalysis::Run(const Module& module) {
  module_ = &module;
  std::vector<const Module*> modules = context_;
  modules.push_back(&module);

  declared_ns_.insert("http://www.w3.org/2005/xquery-local-functions");
  for (const Module* m : modules) {
    if (m->is_library && !m->module_ns.empty()) {
      declared_ns_.insert(m->module_ns);
    }
    for (const Module::Import& imp : m->imports) {
      imported_ns_.insert(imp.ns);
    }
    CollectModuleAssigns(*m, &assigned_globals_);
  }

  // External functions: no body to look at.
  for (const Module* m : modules) {
    for (const auto& fn : m->functions) {
      if (fn->body != nullptr) continue;
      Effects& e = functions_[AnalysisFacts::FunctionKey(
          fn->name.Clark(), fn->params.size())];
      e.child_reads.MakeTop();
      e.observed_reads.MakeTop();
      e.writes.MakeTop();
      e.write_scope.MakeTop();
      e.has_update = true;
    }
  }

  // Seed every declared function at ⊥ so recursive and forward calls
  // merge the in-progress summary instead of taking the unknown-
  // function ⊤ path on the first iteration.
  for (const Module* m : modules) {
    for (const auto& fn : m->functions) {
      if (fn->body == nullptr) continue;
      functions_[AnalysisFacts::FunctionKey(fn->name.Clark(),
                                            fn->params.size())];
    }
  }

  // Bottom-up fixpoint over globals + functions: summaries only grow
  // (every application is a merge), and each set is bounded by the
  // module's finite name alphabet, so this terminates — recursive
  // functions converge without widening to ⊤.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Module* m : modules) {
      for (const VarDecl& v : m->variables) {
        if (v.init == nullptr) continue;
        EffectWalker walker(*this, m);
        Effects e = walker.WalkBody(*v.init, nullptr);
        changed |= globals_["var:" + v.name.Clark()].MergeFrom(e);
      }
      for (const auto& fn : m->functions) {
        if (fn->body == nullptr) continue;
        EffectWalker walker(*this, m);
        Effects e = walker.WalkBody(*fn->body, &fn->params);
        changed |= functions_[AnalysisFacts::FunctionKey(
                                  fn->name.Clark(), fn->params.size())]
                       .MergeFrom(e);
      }
    }
  }

  for (const Module* m : modules) {
    if (m->body == nullptr) continue;
    EffectWalker walker(*this, m);
    Effects body = walker.WalkBody(*m->body, nullptr);
    if (m == &module) body_effects_ = body;
    all_reads_.AddAll(body.observed_reads);
  }
  for (const auto& [key, e] : functions_) {
    all_reads_.AddAll(e.observed_reads);
  }
  for (const auto& [key, e] : globals_) {
    all_reads_.AddAll(e.observed_reads);
  }
}

}  // namespace xqib::xquery::analysis
