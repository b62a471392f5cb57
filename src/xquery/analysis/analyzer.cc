#include "xquery/analysis/analyzer.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/strings.h"
#include "xquery/functions.h"
#include "xquery/optimizer.h"

namespace xqib::xquery::analysis {

namespace {

// ------------------------------------------------------ type lattice ---

bool IsNumeric(ItemClass c) {
  return c == ItemClass::kInteger || c == ItemClass::kDecimal ||
         c == ItemClass::kDouble;
}

// Comparison families: values from different families never compare
// successfully under XPath 2.0 value/general comparison rules.
enum class Family { kUnknown, kNumeric, kString, kBoolean, kDateTime };

Family FamilyOf(ItemClass c) {
  switch (c) {
    case ItemClass::kBoolean: return Family::kBoolean;
    case ItemClass::kInteger:
    case ItemClass::kDecimal:
    case ItemClass::kDouble: return Family::kNumeric;
    case ItemClass::kString: return Family::kString;
    case ItemClass::kDateTime:
    case ItemClass::kDate:
    case ItemClass::kTime: return Family::kDateTime;
    default: return Family::kUnknown;
  }
}

const char* ClassName(ItemClass c) {
  switch (c) {
    case ItemClass::kAnyItem: return "item()";
    case ItemClass::kNode: return "node()";
    case ItemClass::kAnyAtomic: return "xs:anyAtomicType";
    case ItemClass::kUntyped: return "xs:untypedAtomic";
    case ItemClass::kBoolean: return "xs:boolean";
    case ItemClass::kInteger: return "xs:integer";
    case ItemClass::kDecimal: return "xs:decimal";
    case ItemClass::kDouble: return "xs:double";
    case ItemClass::kString: return "xs:string";
    case ItemClass::kDateTime: return "xs:dateTime";
    case ItemClass::kDate: return "xs:date";
    case ItemClass::kTime: return "xs:time";
  }
  return "item()";
}

ItemClass Lub(ItemClass a, ItemClass b) {
  if (a == b) return a;
  if (a == ItemClass::kAnyItem || b == ItemClass::kAnyItem) {
    return ItemClass::kAnyItem;
  }
  if (a == ItemClass::kNode || b == ItemClass::kNode) {
    return ItemClass::kAnyItem;
  }
  if (IsNumeric(a) && IsNumeric(b)) {
    if (a == ItemClass::kDouble || b == ItemClass::kDouble) {
      return ItemClass::kDouble;
    }
    return ItemClass::kDecimal;
  }
  return ItemClass::kAnyAtomic;
}

ItemClass ClassOfAtomicType(xdm::AtomicType t) {
  switch (t) {
    case xdm::AtomicType::kUntypedAtomic: return ItemClass::kUntyped;
    case xdm::AtomicType::kString: return ItemClass::kString;
    case xdm::AtomicType::kBoolean: return ItemClass::kBoolean;
    case xdm::AtomicType::kInteger: return ItemClass::kInteger;
    case xdm::AtomicType::kDecimal: return ItemClass::kDecimal;
    case xdm::AtomicType::kDouble: return ItemClass::kDouble;
    case xdm::AtomicType::kDateTime: return ItemClass::kDateTime;
    case xdm::AtomicType::kDate: return ItemClass::kDate;
    case xdm::AtomicType::kTime: return ItemClass::kTime;
    default: return ItemClass::kAnyAtomic;
  }
}

struct InferredType {
  ItemClass cls = ItemClass::kAnyItem;
  Cardinality card;  // default {0, unbounded}
};

InferredType Any() { return InferredType{}; }

InferredType Exactly(ItemClass cls, uint64_t n) {
  InferredType t;
  t.cls = cls;
  t.card.min = n;
  t.card.max = n;
  return t;
}

InferredType Singleton(ItemClass cls) { return Exactly(cls, 1); }

InferredType Optional(ItemClass cls) {
  InferredType t;
  t.cls = cls;
  t.card.min = 0;
  t.card.max = 1;
  return t;
}

uint64_t SatAdd(uint64_t a, uint64_t b) {
  if (a == Cardinality::kUnbounded || b == Cardinality::kUnbounded) {
    return Cardinality::kUnbounded;
  }
  uint64_t s = a + b;
  return s < a ? Cardinality::kUnbounded : s;
}

// Converts a declared SequenceType: the item class is trusted, but the
// occurrence indicator is not tightened to a singleton because the
// evaluator does not enforce declared types at call boundaries — we
// must not let an unchecked annotation license a semantics-changing
// rewrite. Only "empty-sequence()" (vacuously safe) narrows.
InferredType FromDeclared(const SequenceType& st) {
  InferredType t;
  switch (st.item) {
    case SequenceType::ItemKind::kAtomic:
      t.cls = ClassOfAtomicType(st.atomic);
      break;
    case SequenceType::ItemKind::kAnyNode:
    case SequenceType::ItemKind::kElement:
    case SequenceType::ItemKind::kAttribute:
    case SequenceType::ItemKind::kText:
    case SequenceType::ItemKind::kDocument:
      t.cls = ItemClass::kNode;
      break;
    case SequenceType::ItemKind::kEmptySequence:
      t.card.min = 0;
      t.card.max = 0;
      break;
    case SequenceType::ItemKind::kAnyItem:
      break;
  }
  return t;
}

// ---------------------------------------------------- symbol tables ---

struct VarInfo {
  xml::QName name;
  InferredType type;
  size_t decl_pos = 0;
  bool used = false;
  bool track_unused = false;  // locals only; globals/params exempt
};

struct Scope {
  std::vector<VarInfo> vars;
};

bool IsConstantBoolean(const Expr& e, bool* value) {
  if (e.kind == ExprKind::kLiteral &&
      e.atom.type() == xdm::AtomicType::kBoolean) {
    *value = e.atom.bool_value();
    return true;
  }
  if (e.kind == ExprKind::kFunctionCall && e.kids.empty() &&
      e.qname.ns() == xml::kFnNamespace) {
    if (e.qname.local() == "true") {
      *value = true;
      return true;
    }
    if (e.qname.local() == "false") {
      *value = false;
      return true;
    }
  }
  return false;
}

// True when `e` is a root-only path ("/"): the whole document.
bool IsDocumentRootPath(const Expr& e) {
  return e.kind == ExprKind::kPath && e.root_anchored && e.steps.empty() &&
         e.kids.empty();
}

// ----------------------------------------------------- program walker ---

class ProgramAnalyzer {
 public:
  ProgramAnalyzer(const std::vector<const Module*>& modules,
                  AnalysisResult* result)
      : modules_(modules), result_(result), suppressed_(modules.size()) {
    result_->diagnostics.resize(modules.size());
  }

  void Run() {
    CollectFunctions();
    CollectAssignedVars();
    for (current_ = 0; current_ < modules_.size(); ++current_) {
      CollectSuppressions();
      CheckDuplicateVariables();
      AnalyzeGlobals();
      AnalyzeFunctions();
      AnalyzeBody();
    }
    ComputeEffects();
    LintEffectRules();
  }

 private:
  // ------------------------------------------------------ reporting ---

  const Module& module() const { return *modules_[current_]; }

  // Reports into the current module's list; spans index its source.
  void Report(const char* code, Severity severity, std::string message,
              size_t offset, size_t length) {
    if (severity != Severity::kError &&
        suppressed_[current_].count(code) > 0) {
      return;
    }
    Diagnostic d;
    d.code = code;
    d.severity = severity;
    d.message = std::move(message);
    d.span = SpanAt(module().source_text, offset, length);
    result_->diagnostics[current_].push_back(std::move(d));
  }

  void CollectSuppressions() {
    for (const auto& [key, value] : module().options) {
      size_t brace = key.rfind('}');
      std::string local =
          brace == std::string::npos ? key : key.substr(brace + 1);
      if (local != "lint") continue;
      // Value forms: "suppress:XQSA030 XQSA032" or a bare code list.
      std::string codes = value;
      size_t colon = codes.find(':');
      if (colon != std::string::npos) codes = codes.substr(colon + 1);
      std::string cur;
      for (char c : codes + " ") {
        if (c == ' ' || c == ',' || c == ';') {
          if (!cur.empty()) suppressed_[current_].insert(cur);
          cur.clear();
        } else {
          cur.push_back(c);
        }
      }
    }
  }

  // ------------------------------------------------- symbol collection ---

  // One function table for the program, keyed Clark#arity. A second
  // declaration of the same name and arity, in the same module or a
  // later one, is XQSA004 on the later declaration (which the table
  // keeps, as the static context would).
  void CollectFunctions() {
    checked_fn_namespaces_.insert(
        "http://www.w3.org/2005/xquery-local-functions");
    for (current_ = 0; current_ < modules_.size(); ++current_) {
      const Module& m = module();
      if (m.is_library && !m.module_ns.empty()) {
        checked_fn_namespaces_.insert(m.module_ns);
      }
      for (const auto& fn : m.functions) {
        std::string key =
            AnalysisFacts::FunctionKey(fn->name.Clark(), fn->params.size());
        if (functions_.count(key) > 0) {
          Report("XQSA004", Severity::kError,
                 "duplicate declaration of function " + fn->name.Lexical() +
                     "#" + std::to_string(fn->params.size()),
                 fn->source_pos, fn->name.Lexical().size());
        }
        functions_[key] = fn.get();
        arities_[fn->name.Clark()].insert(fn->params.size());
      }
    }
  }

  void CheckDuplicateVariables() {
    std::unordered_set<std::string> seen_vars;
    for (const VarDecl& v : module().variables) {
      if (!seen_vars.insert(v.name.Clark()).second) {
        Report("XQSA005", Severity::kError,
               "duplicate declaration of variable $" + v.name.Lexical(),
               v.source_pos, v.name.Lexical().size() + 1);
      }
    }
  }

  // Variables that are the target of any `$x := e` assignment. The
  // walker visits loop bodies once, in textual order, so a fact recorded
  // at a use site could be stale on a later iteration; assigned
  // variables therefore never carry an inferred type.
  void CollectAssignedVars() {
    std::vector<const Expr*> stack;
    auto push = [&](const Expr* e) { if (e != nullptr) stack.push_back(e); };
    for (const Module* m : modules_) {
      for (const VarDecl& v : m->variables) push(v.init.get());
      for (const auto& fn : m->functions) push(fn->body.get());
      push(m->body.get());
    }
    while (!stack.empty()) {
      const Expr* e = stack.back();
      stack.pop_back();
      if (e->kind == ExprKind::kAssign) {
        assigned_vars_.insert(e->qname.Clark());
      }
      for (const ExprPtr& kid : e->kids) push(kid.get());
      for (const ExprPtr& pred : e->predicates) push(pred.get());
      for (const Step& step : e->steps) {
        for (const ExprPtr& pred : step.predicates) push(pred.get());
        push(step.expr.get());
      }
      for (const Clause& clause : e->clauses) push(clause.expr.get());
      push(e->where.get());
      for (const OrderSpec& spec : e->order_specs) push(spec.key.get());
      if (e->direct != nullptr) {
        std::vector<const DirectNode*> nodes{e->direct.get()};
        while (!nodes.empty()) {
          const DirectNode* n = nodes.back();
          nodes.pop_back();
          push(n->expr.get());
          for (const auto& attr : n->attrs) {
            for (const auto& part : attr.parts) push(part.expr.get());
          }
          for (const auto& kid : n->children) nodes.push_back(kid.get());
        }
      }
      if (e->ft != nullptr) {
        std::vector<const FtSelection*> sels{e->ft.get()};
        while (!sels.empty()) {
          const FtSelection* s = sels.back();
          sels.pop_back();
          push(s->words.get());
          for (const auto& kid : s->kids) sels.push_back(kid.get());
        }
      }
    }
  }

  // ------------------------------------------------------- var scopes ---

  VarInfo* Lookup(const xml::QName& name) {
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      for (auto var = scope->vars.rbegin(); var != scope->vars.rend();
           ++var) {
        if (var->name == name) return &*var;
      }
    }
    return nullptr;
  }

  void Bind(const xml::QName& name, InferredType type, size_t pos,
            bool track_unused) {
    VarInfo v;
    v.name = name;
    v.type = assigned_vars_.count(name.Clark()) > 0 ? Any() : type;
    v.decl_pos = pos;
    v.track_unused = track_unused;
    scopes_.back().vars.push_back(std::move(v));
  }

  void PushScope() { scopes_.push_back(Scope{}); }

  void PopScope() {
    for (const VarInfo& v : scopes_.back().vars) {
      if (v.track_unused && !v.used) {
        Report("XQSA030", Severity::kWarning,
               "unused variable $" + v.name.Lexical(), v.decl_pos,
               v.name.Lexical().size() + 1);
      }
    }
    scopes_.pop_back();
  }

  // ------------------------------------------------------- top levels ---

  // Binds another module's globals under their declared types.
  void BindOtherModuleGlobals(const Module& m) {
    for (const VarDecl& v : m.variables) {
      Bind(v.name, v.type.declared ? FromDeclared(v.type) : Any(), 0,
           false);
    }
  }

  void AnalyzeGlobals() {
    PushScope();  // the module's global scope, popped after its body
    // A page's scripts share one static context, but the plug-in binds
    // each script's globals just before its body runs: the initializers
    // and the body see the globals of earlier modules only.
    for (size_t i = 0; i < current_; ++i) {
      BindOtherModuleGlobals(*modules_[i]);
    }
    // Own globals: each initializer sees the declarations above it.
    for (const VarDecl& v : module().variables) {
      InferredType init_type = Any();
      if (v.init != nullptr) {
        init_type = Walk(*v.init, UpdateCtx::Forbidden());
      }
      InferredType type =
          v.type.declared ? FromDeclared(v.type) : init_type;
      if (v.init == nullptr && !v.external && !v.type.declared) {
        type = InferredType{};  // declare variable $x; binds ()
        type.card.min = 0;
        type.card.max = 0;
      }
      if (v.external) type = Any();
      Bind(v.name, type, v.source_pos, false);
    }
  }

  void AnalyzeFunctions() {
    // A function runs once the whole program is loaded: it sees every
    // module's globals, later ones too (bound after this one's, so a
    // later module's global shadows one of the same name here, as at
    // run time).
    PushScope();
    for (size_t i = current_ + 1; i < modules_.size(); ++i) {
      BindOtherModuleGlobals(*modules_[i]);
    }
    for (const auto& fn : module().functions) {
      if (fn->body == nullptr) continue;
      PushScope();
      for (const Param& p : fn->params) {
        Bind(p.name, p.type.declared ? FromDeclared(p.type) : Any(),
             p.source_pos, false);
      }
      UpdateCtx ctx = (fn->updating || fn->sequential)
                          ? UpdateCtx::Allowed()
                          : UpdateCtx::NonUpdatingFunction();
      in_function_body_ = true;
      Walk(*fn->body, ctx);
      in_function_body_ = false;
      PopScope();
    }
    PopScope();
  }

  void AnalyzeBody() {
    if (module().body != nullptr) {
      // The main body is a statement context (Scripting Extension):
      // top-level updates are legal and apply at statement boundaries.
      Walk(*module().body, UpdateCtx::Allowed());
    }
    PopScope();  // the module's global scope
  }

  // -------------------------------------------------- update contexts ---

  struct UpdateCtx {
    bool allowed = false;
    // Which code to report when an updating expression appears anyway.
    const char* code = "XQSA020";

    static UpdateCtx Allowed() { return UpdateCtx{true, "XQSA020"}; }
    static UpdateCtx Forbidden() { return UpdateCtx{false, "XQSA020"}; }
    static UpdateCtx NonUpdatingFunction() {
      return UpdateCtx{false, "XQSA022"};
    }
    // Same report code, but updates no longer allowed (e.g. descending
    // from a statement position into an operand).
    UpdateCtx Operand() const { return UpdateCtx{false, code}; }
  };

  void ReportUpdateMisuse(const Expr& e, const UpdateCtx& ctx,
                          const std::string& what) {
    std::string msg = what + " is not allowed in a non-updating context";
    if (std::string(ctx.code) == "XQSA022") {
      msg = what +
            " in a function not declared 'updating' (add `declare "
            "updating function` or `declare sequential function`)";
    }
    Report(ctx.code, Severity::kError, msg, e.source_pos, 1);
  }

  // ------------------------------------------------------ walker core ---

  InferredType Walk(const Expr& e, UpdateCtx ctx) {
    InferredType t = WalkInner(e, ctx);
    result_->facts.cardinality[&e] = t.card;
    return t;
  }

  void WalkKids(const Expr& e, UpdateCtx ctx) {
    for (const ExprPtr& kid : e.kids) {
      if (kid != nullptr) Walk(*kid, ctx);
    }
  }

  InferredType WalkInner(const Expr& e, UpdateCtx ctx) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return Singleton(ClassOfAtomicType(e.atom.type()));

      case ExprKind::kVarRef: {
        VarInfo* var = Lookup(e.qname);
        if (var != nullptr) {
          var->used = true;
          return var->type;
        }
        // Variables in the browser namespace are host-bound at event
        // time ($browser:event, $browser:target, $browser:value).
        if (e.qname.ns() != xml::kBrowserNamespace) {
          Report("XQSA001", Severity::kError,
                 "undefined variable $" + e.qname.Lexical(), e.source_pos,
                 e.qname.Lexical().size() + 1);
        }
        return Any();
      }

      case ExprKind::kContextItem:
        return Singleton(ItemClass::kAnyItem);

      case ExprKind::kSequence: {
        InferredType t;
        t.card.min = 0;
        t.card.max = 0;
        t.cls = ItemClass::kAnyItem;
        bool first = true;
        for (const ExprPtr& kid : e.kids) {
          InferredType kt = Walk(*kid, ctx);  // comma list: statement-ish
          t.card.min = SatAdd(t.card.min, kt.card.min);
          t.card.max = SatAdd(t.card.max, kt.card.max);
          t.cls = first ? kt.cls : Lub(t.cls, kt.cls);
          first = false;
        }
        return t;
      }

      case ExprKind::kRange: {
        InferredType lo = Walk(*e.kids[0], ctx.Operand());
        InferredType hi = Walk(*e.kids[1], ctx.Operand());
        InferredType t;
        t.cls = ItemClass::kInteger;
        // Literal bounds give an exact count (the bench/optimizer case
        // "for $i in 1 to N").
        if (e.kids[0]->kind == ExprKind::kLiteral &&
            e.kids[1]->kind == ExprKind::kLiteral &&
            e.kids[0]->atom.type() == xdm::AtomicType::kInteger &&
            e.kids[1]->atom.type() == xdm::AtomicType::kInteger) {
          int64_t a = e.kids[0]->atom.int_value();
          int64_t b = e.kids[1]->atom.int_value();
          uint64_t n = b < a ? 0 : static_cast<uint64_t>(b - a) + 1;
          t.card.min = n;
          t.card.max = n;
        } else if (lo.card.IsNonEmpty() && hi.card.IsNonEmpty()) {
          t.card.min = 0;  // may still be empty when hi < lo
          t.card.max = Cardinality::kUnbounded;
        }
        return t;
      }

      case ExprKind::kArith: {
        InferredType l = Walk(*e.kids[0], ctx.Operand());
        InferredType r = Walk(*e.kids[1], ctx.Operand());
        InferredType t;
        t.cls = ItemClass::kDouble;
        if (l.cls == ItemClass::kInteger && r.cls == ItemClass::kInteger &&
            e.arith_op != ArithOp::kDiv) {
          t.cls = ItemClass::kInteger;
        } else if (IsNumeric(l.cls) && IsNumeric(r.cls)) {
          t.cls = Lub(l.cls, r.cls);
        }
        t.card.min = (l.card.IsNonEmpty() && r.card.IsNonEmpty()) ? 1 : 0;
        t.card.max = 1;
        return t;
      }

      case ExprKind::kUnary: {
        InferredType op = Walk(*e.kids[0], ctx.Operand());
        InferredType t;
        t.cls = IsNumeric(op.cls) ? op.cls : ItemClass::kDouble;
        t.card.min = op.card.IsNonEmpty() ? 1 : 0;
        t.card.max = 1;
        return t;
      }

      case ExprKind::kComparison: {
        InferredType l = Walk(*e.kids[0], ctx.Operand());
        InferredType r = Walk(*e.kids[1], ctx.Operand());
        CheckComparableFamilies(e, l, r);
        bool general = e.comp_op <= CompOp::kGenGe;
        InferredType t;
        t.cls = ItemClass::kBoolean;
        t.card.min = general ? 1 : 0;  // value comps propagate ()
        t.card.max = 1;
        return t;
      }

      case ExprKind::kLogical:
        WalkKids(e, ctx.Operand());
        return Singleton(ItemClass::kBoolean);

      case ExprKind::kPath: {
        WalkKids(e, ctx.Operand());
        bool nodes = true;
        for (const Step& step : e.steps) {
          for (const ExprPtr& pred : step.predicates) {
            Walk(*pred, ctx.Operand());
          }
          if (step.expr != nullptr) {
            Walk(*step.expr, ctx.Operand());
            nodes = false;  // an expression step may yield atomics
          }
        }
        LintDescendantSteps(e);
        InferredType t;
        if (nodes) t.cls = ItemClass::kNode;
        return t;
      }

      case ExprKind::kFilter: {
        InferredType primary = Walk(*e.kids[0], ctx.Operand());
        for (const ExprPtr& pred : e.predicates) {
          Walk(*pred, ctx.Operand());
        }
        InferredType t;
        t.cls = primary.cls;
        t.card.min = 0;
        t.card.max = primary.card.max;
        return t;
      }

      case ExprKind::kFLWOR: {
        PushScope();
        uint64_t iterations_min = 1;
        uint64_t iterations_max = 1;
        for (const Clause& clause : e.clauses) {
          InferredType in = Walk(*clause.expr, ctx.Operand());
          if (clause.kind == Clause::Kind::kFor) {
            Bind(clause.var, Singleton(in.cls), clause.source_pos, true);
            if (!clause.pos_var.local().empty()) {
              Bind(clause.pos_var, Singleton(ItemClass::kInteger),
                   clause.source_pos, true);
            }
            iterations_min =
                (iterations_min != 0 && in.card.min != 0) ? 1 : 0;
            iterations_max = (in.card.max == 0 || iterations_max == 0)
                                 ? 0
                                 : Cardinality::kUnbounded;
          } else {
            Bind(clause.var, in, clause.source_pos, true);
          }
        }
        if (e.where != nullptr) {
          Walk(*e.where, ctx.Operand());
          iterations_min = 0;
        }
        for (const OrderSpec& spec : e.order_specs) {
          Walk(*spec.key, ctx.Operand());
        }
        InferredType ret = Walk(*e.kids[0], ctx);
        PopScope();
        InferredType t;
        t.cls = ret.cls;
        t.card.min = iterations_min ? ret.card.min : 0;
        t.card.max = iterations_max == 0 ? 0 : Cardinality::kUnbounded;
        if (iterations_max != 0 && iterations_min == 1 &&
            AllLetClauses(e)) {
          t.card = ret.card;  // let-only FLWOR: exactly the return
        }
        return t;
      }

      case ExprKind::kQuantified: {
        PushScope();
        for (const Clause& clause : e.clauses) {
          InferredType in = Walk(*clause.expr, ctx.Operand());
          Bind(clause.var, Singleton(in.cls), clause.source_pos, true);
        }
        Walk(*e.kids[0], ctx.Operand());
        PopScope();
        return Singleton(ItemClass::kBoolean);
      }

      case ExprKind::kIf: {
        Walk(*e.kids[0], ctx.Operand());
        bool cond_value = false;
        bool constant = IsConstantBoolean(*e.kids[0], &cond_value);
        if (constant) {
          const Expr& dead = cond_value ? *e.kids[2] : *e.kids[1];
          Report("XQSA031", Severity::kWarning,
                 std::string("unreachable ") +
                     (cond_value ? "else" : "then") +
                     " branch: condition is always " +
                     (cond_value ? "true" : "false"),
                 dead.source_pos != 0 ? dead.source_pos : e.source_pos, 1);
        }
        InferredType then_t = Walk(*e.kids[1], ctx);
        InferredType else_t = Walk(*e.kids[2], ctx);
        if (constant) return cond_value ? then_t : else_t;
        InferredType t;
        t.cls = Lub(then_t.cls, else_t.cls);
        t.card.min = std::min(then_t.card.min, else_t.card.min);
        t.card.max = std::max(then_t.card.max, else_t.card.max);
        return t;
      }

      case ExprKind::kFunctionCall:
        return WalkCall(e, ctx);

      case ExprKind::kCast: {
        Walk(*e.kids[0], ctx.Operand());
        if (e.cast_op == "instance" || e.cast_op == "castable") {
          return Singleton(ItemClass::kBoolean);
        }
        InferredType t = FromDeclared(e.seq_type);
        t.card.min = 0;
        t.card.max = std::max<uint64_t>(t.card.max, 1);
        return t;
      }

      case ExprKind::kTypeswitch: {
        Walk(*e.kids[0], ctx.Operand());
        InferredType t;
        bool first = true;
        for (size_t i = 0; i < e.clauses.size(); ++i) {
          const Clause& clause = e.clauses[i];
          PushScope();
          if (!clause.var.local().empty()) {
            Bind(clause.var, FromDeclared(e.case_types[i]),
                 clause.source_pos, false);
          }
          InferredType ct = Walk(*clause.expr, ctx);
          PopScope();
          t.cls = first ? ct.cls : Lub(t.cls, ct.cls);
          t.card.min = first ? ct.card.min
                             : std::min(t.card.min, ct.card.min);
          t.card.max = first ? ct.card.max
                             : std::max(t.card.max, ct.card.max);
          first = false;
        }
        PushScope();
        if (!e.qname.local().empty()) {
          Bind(e.qname, Any(), e.source_pos, false);
        }
        InferredType dt = Walk(*e.kids[1], ctx);
        PopScope();
        t.cls = first ? dt.cls : Lub(t.cls, dt.cls);
        t.card.min = first ? dt.card.min : std::min(t.card.min, dt.card.min);
        t.card.max = first ? dt.card.max : std::max(t.card.max, dt.card.max);
        return t;
      }

      case ExprKind::kSetOp: {
        WalkKids(e, ctx.Operand());
        InferredType t;
        t.cls = ItemClass::kNode;
        return t;
      }

      case ExprKind::kFtContains: {
        Walk(*e.kids[0], ctx.Operand());
        WalkFtSelection(e.ft.get(), ctx);
        return Singleton(ItemClass::kBoolean);
      }

      case ExprKind::kDirectElement:
        WalkDirect(e.direct.get(), ctx);
        return Singleton(ItemClass::kNode);

      case ExprKind::kComputedElement:
      case ExprKind::kComputedAttribute:
      case ExprKind::kComputedText:
      case ExprKind::kComputedComment:
      case ExprKind::kComputedPI:
        WalkKids(e, ctx.Operand());
        return Singleton(ItemClass::kNode);

      case ExprKind::kEnclosed:
        if (!e.kids.empty()) return Walk(*e.kids[0], ctx.Operand());
        return Any();

      // --- Update Facility ---
      case ExprKind::kInsert: {
        if (!ctx.allowed) ReportUpdateMisuse(e, ctx, "insert");
        if (in_function_body_) update_sites_.push_back(Site{current_, &e});
        WalkKids(e, ctx.Operand());
        return Exactly(ItemClass::kAnyItem, 0);
      }
      case ExprKind::kDelete: {
        if (!ctx.allowed) ReportUpdateMisuse(e, ctx, "delete");
        CheckNotDocumentRoot(e, "delete");
        WalkKids(e, ctx.Operand());
        return Exactly(ItemClass::kAnyItem, 0);
      }
      case ExprKind::kReplace: {
        if (!ctx.allowed) ReportUpdateMisuse(e, ctx, "replace");
        CheckNotDocumentRoot(e, "replace");
        if (in_function_body_) update_sites_.push_back(Site{current_, &e});
        WalkKids(e, ctx.Operand());
        return Exactly(ItemClass::kAnyItem, 0);
      }
      case ExprKind::kRename: {
        if (!ctx.allowed) ReportUpdateMisuse(e, ctx, "rename");
        if (in_function_body_) update_sites_.push_back(Site{current_, &e});
        WalkKids(e, ctx.Operand());
        return Exactly(ItemClass::kAnyItem, 0);
      }
      case ExprKind::kTransform: {
        // copy $c := src modify m return r — contained updates are legal
        // anywhere; the modify clause targets only the copy.
        Walk(*e.kids[0], ctx.Operand());
        PushScope();
        Bind(e.qname, Singleton(ItemClass::kNode), e.source_pos, false);
        Walk(*e.kids[1], UpdateCtx::Allowed());
        InferredType t = Walk(*e.kids[2], ctx.Operand());
        PopScope();
        return t;
      }

      // --- Scripting Extension ---
      case ExprKind::kBlock: {
        PushScope();
        InferredType t;
        t.card.min = 0;
        t.card.max = 0;
        for (const ExprPtr& kid : e.kids) {
          t = Walk(*kid, ctx);
        }
        PopScope();
        return t;
      }
      case ExprKind::kVarDecl: {
        InferredType init = Any();
        if (!e.kids.empty()) {
          init = Walk(*e.kids[0], ctx.Operand());
        } else {
          init.card.min = 0;
          init.card.max = 0;
        }
        Bind(e.qname, init, e.source_pos, true);
        return Exactly(ItemClass::kAnyItem, 0);
      }
      case ExprKind::kAssign: {
        VarInfo* var = Lookup(e.qname);
        if (var == nullptr) {
          if (e.qname.ns() != xml::kBrowserNamespace) {
            Report("XQSA001", Severity::kError,
                   "assignment to undeclared variable $" +
                       e.qname.Lexical(),
                   e.source_pos, e.qname.Lexical().size() + 1);
          }
        } else {
          var->used = true;
          InferredType value = Walk(*e.kids[0], ctx.Operand());
          var->type.cls = Lub(var->type.cls, value.cls);
          var->type.card.min = std::min(var->type.card.min, value.card.min);
          var->type.card.max = std::max(var->type.card.max, value.card.max);
          return Exactly(ItemClass::kAnyItem, 0);
        }
        if (!e.kids.empty()) Walk(*e.kids[0], ctx.Operand());
        return Exactly(ItemClass::kAnyItem, 0);
      }
      case ExprKind::kWhile: {
        Walk(*e.kids[0], ctx.Operand());
        Walk(*e.kids[1], ctx);
        return Any();
      }
      case ExprKind::kExitWith: {
        Walk(*e.kids[0], ctx.Operand());
        return Exactly(ItemClass::kAnyItem, 0);
      }

      // --- Browser extensions ---
      case ExprKind::kEventAttach:
      case ExprKind::kEventDetach: {
        WalkKids(e, ctx.Operand());
        CheckListener(e);
        if (e.kind == ExprKind::kEventAttach) {
          attach_sites_.push_back(Site{current_, &e});
        }
        return Exactly(ItemClass::kAnyItem, 0);
      }
      case ExprKind::kEventTrigger:
      case ExprKind::kSetStyle:
        WalkKids(e, ctx.Operand());
        return Exactly(ItemClass::kAnyItem, 0);
      case ExprKind::kGetStyle:
        WalkKids(e, ctx.Operand());
        return Singleton(ItemClass::kString);
    }
    return Any();
  }

  static bool AllLetClauses(const Expr& flwor) {
    for (const Clause& c : flwor.clauses) {
      if (c.kind != Clause::Kind::kLet) return false;
    }
    return flwor.where == nullptr;
  }

  void WalkFtSelection(const FtSelection* sel, UpdateCtx ctx) {
    if (sel == nullptr) return;
    if (sel->words != nullptr) Walk(*sel->words, ctx.Operand());
    for (const auto& kid : sel->kids) WalkFtSelection(kid.get(), ctx);
  }

  void WalkDirect(const DirectNode* node, UpdateCtx ctx) {
    if (node == nullptr) return;
    if (node->expr != nullptr) Walk(*node->expr, ctx.Operand());
    for (const auto& attr : node->attrs) {
      for (const auto& part : attr.parts) {
        if (part.expr != nullptr) Walk(*part.expr, ctx.Operand());
      }
    }
    for (const auto& kid : node->children) WalkDirect(kid.get(), ctx);
  }

  // ----------------------------------------------------------- calls ---

  InferredType WalkCall(const Expr& e, UpdateCtx ctx) {
    for (const ExprPtr& arg : e.kids) Walk(*arg, ctx.Operand());
    size_t arity = e.kids.size();
    const std::string& ns = e.qname.ns();
    const std::string& local = e.qname.local();

    const bool xs = ns == xml::kXsNamespace;
    if (xs || ns == xml::kFnNamespace) {
      // The xs: spans take in the prefix.
      const size_t span = xs ? local.size() + 3 : local.size();
      const Builtin* builtin = FindBuiltin(e.qname);
      if (builtin == nullptr) {
        Report("XQSA002", Severity::kError,
               xs ? "unknown type constructor xs:" + local
                  : "unknown function fn:" + local,
               e.source_pos, span);
        return xs ? Optional(ItemClass::kAnyAtomic) : Any();
      }
      if (!builtin->AcceptsArity(arity)) {
        Report("XQSA003", Severity::kError,
               builtin->Lexical() + " expects " + ArityRange(*builtin) +
                   (xs ? " argument, got " : " argument(s), got ") +
                   std::to_string(arity),
               e.source_pos, span);
      }
      return InferredType{builtin->result_class, builtin->result_card};
    }

    if (checked_fn_namespaces_.count(ns) > 0) {
      std::string key = AnalysisFacts::FunctionKey(e.qname.Clark(), arity);
      auto it = functions_.find(key);
      if (it == functions_.end()) {
        auto known = arities_.find(e.qname.Clark());
        if (known == arities_.end()) {
          Report("XQSA002", Severity::kError,
                 "undefined function " + e.qname.Lexical() + "#" +
                     std::to_string(arity),
                 e.source_pos, local.size());
        } else {
          Report("XQSA003", Severity::kError,
                 "function " + e.qname.Lexical() + " called with " +
                     std::to_string(arity) +
                     " argument(s); declared arity: " +
                     AritiesOf(known->second),
                 e.source_pos, local.size());
        }
        return Any();
      }
      const FunctionDecl* decl = it->second;
      if (decl->updating && !ctx.allowed) {
        ReportUpdateMisuse(e, ctx,
                           "call to updating function " + decl->name.Lexical());
      }
      if (decl->return_type.declared) {
        return FromDeclared(decl->return_type);
      }
      return Any();
    }

    // Other namespaces (browser:, http:, imported web services) resolve
    // to host-provided externals at run time; they are not checked.
    return Any();
  }

  static std::string ArityRange(const Builtin& builtin) {
    const std::string min = std::to_string(builtin.min_arity);
    if (builtin.max_arity == Builtin::kVariadic) return min + "+";
    if (builtin.min_arity == builtin.max_arity) return min;
    return min + ".." + std::to_string(builtin.max_arity);
  }

  static std::string AritiesOf(const std::set<size_t>& arities) {
    std::string out;
    for (size_t a : arities) {
      if (!out.empty()) out += ", ";
      out += std::to_string(a);
    }
    return out;
  }

  // ----------------------------------------------------- type checks ---

  void CheckComparableFamilies(const Expr& e, const InferredType& l,
                               const InferredType& r) {
    if (e.comp_op == CompOp::kIs || e.comp_op == CompOp::kPrecedes ||
        e.comp_op == CompOp::kFollows) {
      return;
    }
    Family lf = FamilyOf(l.cls);
    Family rf = FamilyOf(r.cls);
    if (lf == Family::kUnknown || rf == Family::kUnknown) return;
    if (lf == rf) return;
    if (!l.card.IsNonEmpty() || !r.card.IsNonEmpty()) return;
    Report("XQSA010", Severity::kError,
           "comparison of " + std::string(ClassName(l.cls)) + " to " +
               ClassName(r.cls) +
               " can never succeed (raises XPTY0004 at run time)",
           e.source_pos, 1);
  }

  void CheckNotDocumentRoot(const Expr& e, const char* what) {
    const Expr* target = e.kids.empty() ? nullptr : e.kids[0].get();
    if (target != nullptr && IsDocumentRootPath(*target)) {
      Report("XQSA021", Severity::kError,
             std::string(what) + " of the document root is not allowed",
             target->source_pos != 0 ? target->source_pos : e.source_pos, 1);
    }
  }

  void CheckListener(const Expr& e) {
    const std::string& ns = e.qname.ns();
    if (checked_fn_namespaces_.count(ns) == 0) return;
    if (arities_.count(e.qname.Clark()) == 0) {
      Report("XQSA002", Severity::kError,
             "undefined listener function " + e.qname.Lexical(),
             e.source_pos, e.qname.Lexical().size());
    }
  }

  // ------------------------------------------------------------ lint ---

  void LintDescendantSteps(const Expr& path) {
    for (size_t i = 0; i < path.steps.size(); ++i) {
      const Step& step = path.steps[i];
      bool is_dos = step.expr == nullptr &&
                    step.axis == Axis::kDescendantOrSelf &&
                    step.test.kind == NodeTest::Kind::kAnyKind &&
                    step.predicates.empty();
      if (!is_dos) continue;
      // Mirrors the optimizer's CollapseDescendantSteps precondition:
      // the '//' collapses only into a following child step whose
      // predicates are absent or position-free.
      bool collapsible = false;
      if (i + 1 < path.steps.size()) {
        const Step& next = path.steps[i + 1];
        collapsible = next.expr == nullptr && next.axis == Axis::kChild;
        for (const ExprPtr& pred : next.predicates) {
          collapsible = collapsible &&
                        PositionFreePredicate(*pred, [this](const std::string& key) {
                          return functions_.count(key) != 0;
                        });
        }
      }
      if (!collapsible) {
        Report("XQSA032", Severity::kInfo,
               "descendant step '//' cannot be collapsed by the "
               "optimizer here (following step has a positional "
               "predicate or is not a child step); consider an explicit "
               "axis",
               path.source_pos, 2);
      }
    }
  }

  // Anchors a diagnostic span on the listener-name token of an attach/
  // detach site: scan forward from the expression start past the
  // `listener` keyword (the AST does not record the token's own offset).
  void ListenerNameSpan(const Expr& e, size_t* offset, size_t* length) {
    *offset = e.source_pos;
    *length = e.qname.Lexical().size();
    const std::string& src = module().source_text;
    size_t kw = src.find("listener", e.source_pos);
    if (kw == std::string::npos) return;
    size_t name = kw + 8;  // past "listener"
    while (name < src.size() &&
           std::isspace(static_cast<unsigned char>(src[name]))) {
      ++name;
    }
    size_t end = name;
    while (end < src.size() &&
           (std::isalnum(static_cast<unsigned char>(src[end])) ||
            src[end] == ':' || src[end] == '_' || src[end] == '-' ||
            src[end] == '.')) {
      ++end;
    }
    if (end > name) {
      *offset = name;
      *length = end - name;
    }
  }

  // --------------------------------------------------------- effects ---

  // Runs the effect-analysis fixpoint (effects.h) once over the program
  // and publishes the summaries: per-function read/write sets and the
  // program-wide observed-read union.
  void ComputeEffects() {
    effects_.Run(modules_);
    result_->facts.function_effects = effects_.function_effects();
    result_->facts.all_reads = effects_.all_reads();
  }

  // Merged effect summary of a listener function across its declared
  // arities (dispatch may invoke any of them depending on the event
  // payload), and whether any arity is memoizable. False when no arity
  // has a summary.
  bool ListenerEffectSummary(const std::string& clark, Effects* out,
                             bool* memoizable) {
    auto it = arities_.find(clark);
    if (it == arities_.end()) return false;
    bool any = false;
    for (size_t arity : it->second) {
      auto fe = result_->facts.function_effects.find(
          AnalysisFacts::FunctionKey(clark, arity));
      if (fe == result_->facts.function_effects.end()) continue;
      out->MergeFrom(fe->second);
      *memoizable |= fe->second.memoizable();
      any = true;
    }
    return any;
  }

  // XQSA034: same-event listener pairs of one module whose effects
  // interfere (one side writes what the other reads or writes), making
  // registration order semantically load-bearing. XQSA035: memoizable
  // listeners whose read set is ⊤, so every mutation evicts their memo
  // entry. XQSA036: updates whose written names nothing in the program
  // observes.
  void LintEffectRules() {
    struct AttachInfo {
      const Expr* site;
      Effects effects;
    };
    // Keyed on (module, event name).
    std::map<std::pair<size_t, std::string>, std::vector<AttachInfo>>
        by_event;
    for (const Site& site : attach_sites_) {
      const Expr* e = site.expr;
      current_ = site.module;
      // XQSA035 first: applies to every attach of a memoizable listener.
      Effects merged;
      bool memoizable = false;
      if (!ListenerEffectSummary(e->qname.Clark(), &merged, &memoizable)) {
        continue;
      }
      if (memoizable && merged.reads_top()) {
        size_t offset, length;
        ListenerNameSpan(*e, &offset, &length);
        Report("XQSA035", Severity::kWarning,
               "memoizable listener " + e->qname.Lexical() +
                   " has an unanalyzable read set (wildcard step, reverse "
                   "axis, or dynamic access): every DOM mutation "
                   "invalidates its memo entry; name the elements it "
                   "reads so disjoint mutations can skip it",
               offset, length);
      }
      // Group synchronous attaches with literal event names for the
      // XQSA034 interference matrix. A `behind` completion listener is
      // not dispatched with the event's listeners: each completion is
      // its own event-loop task.
      if (e->behind || e->kids.empty() ||
          e->kids[0]->kind != ExprKind::kLiteral) {
        continue;
      }
      by_event[{site.module, e->kids[0]->atom.ToXPathString()}].push_back(
          AttachInfo{e, std::move(merged)});
    }
    for (auto& [key, sites] : by_event) {
      current_ = key.first;
      const std::string& event = key.second;
      for (size_t i = 0; i < sites.size(); ++i) {
        for (size_t j = i + 1; j < sites.size(); ++j) {
          if (!Interferes(sites[i].effects, sites[j].effects)) continue;
          // Anchor on the later site in source order: that's the
          // registration whose placement relative to the other matters.
          const AttachInfo& second =
              sites[i].site->source_pos <= sites[j].site->source_pos
                  ? sites[j]
                  : sites[i];
          const AttachInfo& first = &second == &sites[j] ? sites[i]
                                                         : sites[j];
          size_t offset, length;
          ListenerNameSpan(*second.site, &offset, &length);
          Report("XQSA034", Severity::kWarning,
                 "listeners " + first.site->qname.Lexical() + " and " +
                     second.site->qname.Lexical() + " on event \"" +
                     event +
                     "\" have interfering effects; their registration "
                     "order is semantically load-bearing",
                 offset, length);
        }
      }
    }

    const EffectSet& observed = result_->facts.all_reads;
    for (const Site& site : update_sites_) {
      const Expr* e = site.expr;
      current_ = site.module;
      Effects ue = effects_.ExprEffects(*e, module());
      if (!ue.has_update) continue;
      if (ue.writes.top || ue.write_scope.top) continue;
      if (observed.top || ue.write_scope.Intersects(observed)) continue;
      const char* kw = e->kind == ExprKind::kInsert    ? "insert"
                       : e->kind == ExprKind::kReplace ? "replace"
                                                       : "rename";
      Report("XQSA036", Severity::kWarning,
             std::string(kw) + " writes only to " +
                 RenderEffectSet(ue.write_scope) +
                 ", which no listener or query in this page reads — "
                 "dead update",
             e->source_pos, std::string(kw).size());
    }
  }

  // -------------------------------------------------------- members ---

  const std::vector<const Module*>& modules_;
  AnalysisResult* result_;
  // Per module: the warning and info codes its lint option suppresses.
  std::vector<std::unordered_set<std::string>> suppressed_;
  // The module being walked or reported on.
  size_t current_ = 0;

  std::vector<Scope> scopes_;
  std::unordered_map<std::string, const FunctionDecl*> functions_;
  std::map<std::string, std::set<size_t>> arities_;  // Clark -> arities
  std::unordered_set<std::string> checked_fn_namespaces_;
  std::unordered_set<std::string> assigned_vars_;  // Clark names
  // Every attach site (XQSA034/035) and every insert/replace/rename
  // inside a declared function body (XQSA036), with its module, linted
  // once effect summaries exist.
  struct Site {
    size_t module;
    const Expr* expr;
  };
  std::vector<Site> attach_sites_;
  std::vector<Site> update_sites_;
  bool in_function_body_ = false;
  EffectAnalysis effects_;
};

}  // namespace

Status AnalysisResult::ToStatus() const {
  for (const std::vector<Diagnostic>& module : diagnostics) {
    for (const Diagnostic& d : module) {
      if (d.severity == Severity::kError) return d.ToStatus();
    }
  }
  return Status();
}

AnalysisResult AnalyzeProgram(const std::vector<const Module*>& modules) {
  AnalysisResult result;
  ProgramAnalyzer(modules, &result).Run();
  // Stable order for rendering and golden tests: by source position,
  // then by code.
  for (std::vector<Diagnostic>& module : result.diagnostics) {
    std::stable_sort(module.begin(), module.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       if (a.span.offset != b.span.offset) {
                         return a.span.offset < b.span.offset;
                       }
                       return a.code < b.code;
                     });
  }
  return result;
}

}  // namespace xqib::xquery::analysis
