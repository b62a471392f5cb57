// An independent reference for the XPath core of the XQIB dialect, and a
// seeded generator of queries for it (differential_test).
//
// A query is a small AST (Expr) that renders to XQuery text (Render) and
// that Reference evaluates directly over xml::Node. The reference shares
// nothing with the engine it checks: no XQuery parser, optimizer,
// streams, plans, order keys, CompareDocumentOrder or element-name
// index. Document order is its own preorder numbering of each tree, and
// every axis is a relation between an origin n and the nodes m of n's
// tree, in the declarative style of Almendros-Jiménez et al., "Querying
// XML Documents in Logic Programming": child(n, m) when m's parent is n,
// descendant as its transitive closure, following(n, m) when m comes
// after n and is not its descendant, and so on. Abbreviations evaluate
// as what they abbreviate (`//` is /descendant-or-self::node()/, `..` is
// parent::node()), so whatever the optimizer makes of them is checked
// against their literal meaning.

#ifndef XQIB_TESTS_XPATH_REFERENCE_H_
#define XQIB_TESTS_XPATH_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/result.h"
#include "xml/dom.h"
#include "xml/xml_parser.h"

namespace xqib::xpath_ref {

// ------------------------------------------------------------- the AST ---

enum class Axis {
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kSelf,
  kParent,
  kAncestor,
  kAncestorOrSelf,
  kFollowingSibling,
  kPrecedingSibling,
  kFollowing,
  kPreceding,
  kAttribute,
};

// A name, `*`, node() or text().
enum class Test { kName, kAnyName, kNode, kText };

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Step {
  Axis axis = Axis::kChild;
  Test test = Test::kNode;
  std::string name;  // Test::kName only
  std::vector<ExprPtr> predicates;
  // Rendered `//` (descendant-or-self::node()) or `..` (parent::node()).
  bool abbreviated = false;
};

enum class Kind {
  kPath,      // an origin, then steps
  kFilter,    // (base)[args...]
  kUnion,     // (args[0] | args[1])
  kVar,       // $text
  kFragment,  // the direct element constructor `text`: a detached tree
  kFlwor,     // clauses [where where] return ret
  kSome,      // some clauses[0] satisfies ret
  kEvery,     // every clauses[0] satisfies ret
  kCall,      // text(args...)
  kCompare,   // args[0] text args[1], a general comparison
  kArith,     // args[0] text args[1]: +, - or mod
  kInt,
  kStr,
  kPosition,
  kLast,
};

// Where a path starts: the root of the focus's tree (`/`), the focus
// itself (a relative path), or the value of `base`.
enum class Origin { kRoot, kFocus, kBase };

struct Clause {
  bool let = false;
  std::string var;
  std::string pos_var;  // for $var at $pos_var
  ExprPtr expr;
};

struct Expr {
  Kind kind = Kind::kInt;
  Origin origin = Origin::kRoot;  // kPath
  ExprPtr base;                   // kPath from Origin::kBase, kFilter
  std::vector<Step> steps;        // kPath
  std::vector<ExprPtr> args;      // predicates, operands or arguments
  std::string text;               // name, operator, string or markup
  int64_t value = 0;              // kInt
  std::vector<Clause> clauses;    // kFlwor, kSome, kEvery
  ExprPtr where;                  // kFlwor, may be null
  ExprPtr ret;                    // kFlwor return, quantifier test
};

// --------------------------------------------------------------- builders ---

inline ExprPtr Make(Expr e) {
  return std::make_shared<const Expr>(std::move(e));
}

inline Step AxisStep(Axis axis, Test test, std::string name = "",
                     std::vector<ExprPtr> predicates = {}) {
  Step s;
  s.axis = axis;
  s.test = test;
  s.name = std::move(name);
  s.predicates = std::move(predicates);
  return s;
}
// child::name[predicates]
inline Step Child(std::string name, std::vector<ExprPtr> predicates = {}) {
  return AxisStep(Axis::kChild, Test::kName, std::move(name),
                  std::move(predicates));
}
// axis::name[predicates]
inline Step Named(Axis axis, std::string name,
                  std::vector<ExprPtr> predicates = {}) {
  return AxisStep(axis, Test::kName, std::move(name), std::move(predicates));
}
// The `//` between two steps.
inline Step Dslash() {
  Step s = AxisStep(Axis::kDescendantOrSelf, Test::kNode);
  s.abbreviated = true;
  return s;
}
// `..`
inline Step Up() {
  Step s = AxisStep(Axis::kParent, Test::kNode);
  s.abbreviated = true;
  return s;
}
// @name, or @* for an empty name.
inline Step Attr(std::string name) {
  return name.empty() ? AxisStep(Axis::kAttribute, Test::kAnyName)
                      : AxisStep(Axis::kAttribute, Test::kName,
                                 std::move(name));
}

inline ExprPtr PathFrom(Origin origin, ExprPtr base, std::vector<Step> steps) {
  Expr e;
  e.kind = Kind::kPath;
  e.origin = origin;
  e.base = std::move(base);
  e.steps = std::move(steps);
  return Make(std::move(e));
}
// /steps
inline ExprPtr Root(std::vector<Step> steps) {
  return PathFrom(Origin::kRoot, nullptr, std::move(steps));
}
// steps, relative to the focus
inline ExprPtr Rel(std::vector<Step> steps) {
  return PathFrom(Origin::kFocus, nullptr, std::move(steps));
}
// base/steps
inline ExprPtr From(ExprPtr base, std::vector<Step> steps) {
  return PathFrom(Origin::kBase, std::move(base), std::move(steps));
}
inline ExprPtr Terminal(Kind kind, std::string text = "", int64_t value = 0) {
  Expr e;
  e.kind = kind;
  e.text = std::move(text);
  e.value = value;
  return Make(std::move(e));
}
inline ExprPtr Var(std::string name) {
  return Terminal(Kind::kVar, std::move(name));
}
inline ExprPtr Int(int64_t v) { return Terminal(Kind::kInt, "", v); }
inline ExprPtr Str(std::string s) { return Terminal(Kind::kStr, std::move(s)); }
inline ExprPtr Position() { return Terminal(Kind::kPosition); }
inline ExprPtr Last() { return Terminal(Kind::kLast); }
inline ExprPtr Fragment(std::string markup) {
  return Terminal(Kind::kFragment, std::move(markup));
}
inline ExprPtr Operation(Kind kind, std::string text,
                         std::vector<ExprPtr> args) {
  Expr e;
  e.kind = kind;
  e.text = std::move(text);
  e.args = std::move(args);
  return Make(std::move(e));
}
inline ExprPtr Call(std::string fn, std::vector<ExprPtr> args) {
  return Operation(Kind::kCall, std::move(fn), std::move(args));
}
inline ExprPtr Compare(ExprPtr a, std::string op, ExprPtr b) {
  return Operation(Kind::kCompare, std::move(op), {std::move(a), std::move(b)});
}
inline ExprPtr Arith(ExprPtr a, std::string op, ExprPtr b) {
  return Operation(Kind::kArith, std::move(op), {std::move(a), std::move(b)});
}
inline ExprPtr Union(ExprPtr a, ExprPtr b) {
  return Operation(Kind::kUnion, "", {std::move(a), std::move(b)});
}
inline ExprPtr Filter(ExprPtr base, std::vector<ExprPtr> predicates) {
  Expr e;
  e.kind = Kind::kFilter;
  e.base = std::move(base);
  e.args = std::move(predicates);
  return Make(std::move(e));
}
inline Clause For(std::string var, ExprPtr in, std::string pos_var = "") {
  return Clause{false, std::move(var), std::move(pos_var), std::move(in)};
}
inline Clause Let(std::string var, ExprPtr value) {
  return Clause{true, std::move(var), "", std::move(value)};
}
inline ExprPtr Flwor(std::vector<Clause> clauses, ExprPtr where, ExprPtr ret) {
  Expr e;
  e.kind = Kind::kFlwor;
  e.clauses = std::move(clauses);
  e.where = std::move(where);
  e.ret = std::move(ret);
  return Make(std::move(e));
}
inline ExprPtr Quantified(bool every, Clause binding, ExprPtr test) {
  Expr e;
  e.kind = every ? Kind::kEvery : Kind::kSome;
  e.clauses = {std::move(binding)};
  e.ret = std::move(test);
  return Make(std::move(e));
}

// ------------------------------------------------------------- rendering ---

inline const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild: return "child";
    case Axis::kDescendant: return "descendant";
    case Axis::kDescendantOrSelf: return "descendant-or-self";
    case Axis::kSelf: return "self";
    case Axis::kParent: return "parent";
    case Axis::kAncestor: return "ancestor";
    case Axis::kAncestorOrSelf: return "ancestor-or-self";
    case Axis::kFollowingSibling: return "following-sibling";
    case Axis::kPrecedingSibling: return "preceding-sibling";
    case Axis::kFollowing: return "following";
    case Axis::kPreceding: return "preceding";
    case Axis::kAttribute: return "attribute";
  }
  return "?";
}

inline std::string Render(const Expr& e, bool twin = false);

inline std::string RenderStep(const Step& s, bool twin) {
  if (s.abbreviated) return s.axis == Axis::kParent ? ".." : "";
  std::string out;
  if (s.axis == Axis::kAttribute && s.test != Test::kNode) {
    out = "@";
  } else if (s.axis != Axis::kChild) {
    out = std::string(AxisName(s.axis)) + "::";
  }
  switch (s.test) {
    case Test::kName:
      // The twin selects the same elements through a wildcard and a
      // self:: filter, which no index answers.
      out += twin && s.axis != Axis::kAttribute ? "*[self::" + s.name + "]"
                                                : s.name;
      break;
    case Test::kAnyName: out += "*"; break;
    case Test::kNode: out += "node()"; break;
    case Test::kText: out += "text()"; break;
  }
  for (const ExprPtr& p : s.predicates) out += "[" + Render(*p, twin) + "]";
  return out;
}

// Renders `e` as XQuery text. With `twin`, every element name test
// becomes `*[self::name]`: the same query, kept off the element-name
// index.
inline std::string Render(const Expr& e, bool twin) {
  switch (e.kind) {
    case Kind::kPath: {
      std::string out;
      if (e.origin == Origin::kRoot) {
        out = "/";
      } else if (e.origin == Origin::kBase) {
        const Kind k = e.base->kind;
        const bool primary =
            k == Kind::kVar || k == Kind::kFilter || k == Kind::kUnion;
        out = (primary ? Render(*e.base, twin)
                       : "(" + Render(*e.base, twin) + ")") +
              "/";
      } else if (e.steps.empty()) {
        return ".";
      } else if (e.steps[0].abbreviated &&
                 e.steps[0].axis == Axis::kDescendantOrSelf) {
        out = "./";
      }
      for (size_t i = 0; i < e.steps.size(); ++i) {
        if (i > 0) out += "/";
        out += RenderStep(e.steps[i], twin);
      }
      return out;
    }
    case Kind::kFilter: {
      std::string out = e.base->kind == Kind::kUnion
                            ? Render(*e.base, twin)
                            : "(" + Render(*e.base, twin) + ")";
      for (const ExprPtr& p : e.args) out += "[" + Render(*p, twin) + "]";
      return out;
    }
    case Kind::kUnion:
      return "(" + Render(*e.args[0], twin) + " | " +
             Render(*e.args[1], twin) + ")";
    case Kind::kVar:
      return "$" + e.text;
    case Kind::kFragment:
      return e.text;
    case Kind::kFlwor: {
      std::string out;
      for (size_t i = 0; i < e.clauses.size(); ++i) {
        const Clause& c = e.clauses[i];
        if (c.let) {
          out += (i > 0 ? " let $" : "let $") + c.var + " := " +
                 Render(*c.expr, twin);
          continue;
        }
        const bool continues = i > 0 && !e.clauses[i - 1].let;
        out += continues ? ", $" : (i > 0 ? " for $" : "for $");
        out += c.var;
        if (!c.pos_var.empty()) out += " at $" + c.pos_var;
        out += " in " + Render(*c.expr, twin);
      }
      if (e.where != nullptr) out += " where " + Render(*e.where, twin);
      return out + " return " + Render(*e.ret, twin);
    }
    case Kind::kSome:
    case Kind::kEvery:
      return std::string(e.kind == Kind::kSome ? "some $" : "every $") +
             e.clauses[0].var + " in " + Render(*e.clauses[0].expr, twin) +
             " satisfies " + Render(*e.ret, twin);
    case Kind::kCall: {
      std::string out = e.text + "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += Render(*e.args[i], twin);
      }
      return out + ")";
    }
    case Kind::kCompare:
    case Kind::kArith:
      return Render(*e.args[0], twin) + " " + e.text + " " +
             Render(*e.args[1], twin);
    case Kind::kInt:
      return std::to_string(e.value);
    case Kind::kStr:
      return "\"" + e.text + "\"";
    case Kind::kPosition:
      return "position()";
    case Kind::kLast:
      return "last()";
  }
  return "?";
}

// ------------------------------------------------------------ the values ---

// One item: a node, or an atomic number, string or boolean. A node's
// atomized value is an untyped string.
struct Item {
  enum class Type { kNode, kNumber, kString, kBool };
  Type type = Type::kNode;
  const xml::Node* node = nullptr;
  double number = 0;
  std::string string;
  bool untyped = false;
  bool boolean = false;
};
using Seq = std::vector<Item>;

inline Item NodeItem(const xml::Node* n) {
  Item i;
  i.node = n;
  return i;
}
inline Item NumberItem(double d) {
  Item i;
  i.type = Item::Type::kNumber;
  i.number = d;
  return i;
}
inline Item StringItem(std::string s, bool untyped = false) {
  Item i;
  i.type = Item::Type::kString;
  i.string = std::move(s);
  i.untyped = untyped;
  return i;
}
inline Item BoolItem(bool b) {
  Item i;
  i.type = Item::Type::kBool;
  i.boolean = b;
  return i;
}

// XPath's canonical form of the numbers the queries produce: integral
// values print without a fraction.
inline std::string FormatNumber(double d) {
  if (std::isnan(d)) return "NaN";
  char buf[64];
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", d == 0 ? 0.0 : d);
  } else {
    std::snprintf(buf, sizeof(buf), "%.12g", d);
  }
  return buf;
}

// A node's identity that holds across evaluations and trees built
// alike: its tree's root kind, then the child index or attribute name
// of each node down to it.
inline std::string NodeId(const xml::Node* n) {
  std::string path;
  while (n->parent() != nullptr) {
    const xml::Node* p = n->parent();
    path = (n->is_attribute()
                ? "@" + n->name().local()
                : "/" + std::to_string(p->ChildIndex(n))) +
           path;
    n = p;
  }
  return (n->kind() == xml::NodeKind::kDocument ? "doc" : "frag") + path;
}

// String value of a node: the text of its descendants, or its own value.
inline void AppendText(const xml::Node* n, std::string* out) {
  switch (n->kind()) {
    case xml::NodeKind::kElement:
    case xml::NodeKind::kDocument:
      for (const xml::Node* c : n->children()) {
        if (c->kind() == xml::NodeKind::kText ||
            c->kind() == xml::NodeKind::kElement) {
          AppendText(c, out);
        }
      }
      return;
    default:
      *out += n->value();
  }
}

inline std::string StringOf(const Item& i) {
  switch (i.type) {
    case Item::Type::kNode: {
      std::string s;
      AppendText(i.node, &s);
      return s;
    }
    case Item::Type::kNumber: return FormatNumber(i.number);
    case Item::Type::kString: return i.string;
    case Item::Type::kBool: return i.boolean ? "true" : "false";
  }
  return "";
}

// A result as the differential test compares it: nodes by identity (#
// and NodeId), atomic values by their string value.
inline std::string Describe(const Seq& seq) {
  std::string out;
  for (size_t k = 0; k < seq.size(); ++k) {
    if (k > 0) out += " ";
    out += seq[k].type == Item::Type::kNode ? "#" + NodeId(seq[k].node)
                                            : StringOf(seq[k]);
  }
  return out;
}

// ---------------------------------------------------------- the reference ---

class Reference {
 public:
  // Evaluates `e` with `focus` as the context item (position 1 of 1).
  // On a dynamic error, error() names it and the result is empty.
  Seq Eval(const Expr& e, const xml::Node* focus) {
    error_.clear();
    order_.clear();
    tree_rank_.clear();
    vars_.clear();
    fragments_.clear();
    const Item f = NodeItem(focus);
    Seq out = Evaluate(e, Focus{&f, 1, 1});
    return error_.empty() ? out : Seq{};
  }
  const std::string& error() const { return error_; }

 private:
  struct Focus {
    const Item* item;
    int64_t position;
    int64_t size;
  };

  Seq Fail(const std::string& what) {
    if (error_.empty()) error_ = what;
    return {};
  }

  // ---- document order: one preorder numbering per tree, an element
  // before its attributes before its children.

  static const xml::Node* RootOf(const xml::Node* n) {
    while (n->parent() != nullptr) n = n->parent();
    return n;
  }
  void Number(const xml::Node* n, int64_t* next) {
    order_[n] = (*next)++;
    for (const xml::Node* a : n->attributes()) order_[a] = (*next)++;
    for (const xml::Node* c : n->children()) Number(c, next);
  }
  int64_t Order(const xml::Node* n) {
    auto it = order_.find(n);
    if (it != order_.end()) return it->second;
    const xml::Node* root = RootOf(n);
    tree_rank_.emplace(root, static_cast<int64_t>(tree_rank_.size()));
    int64_t next = 0;
    Number(root, &next);
    return order_.at(n);
  }
  // Nodes of different trees order by the tree first met.
  bool Before(const xml::Node* a, const xml::Node* b) {
    const int64_t oa = Order(a), ob = Order(b);
    const int64_t ta = tree_rank_.at(RootOf(a)), tb = tree_rank_.at(RootOf(b));
    return ta != tb ? ta < tb : oa < ob;
  }
  Seq SortDedup(Seq seq) {
    for (const Item& i : seq) {
      if (i.type != Item::Type::kNode) {
        return Fail("XPTY0004: a node sequence holds an atomic value");
      }
    }
    std::sort(seq.begin(), seq.end(), [this](const Item& a, const Item& b) {
      return Before(a.node, b.node);
    });
    seq.erase(std::unique(seq.begin(), seq.end(),
                          [](const Item& a, const Item& b) {
                            return a.node == b.node;
                          }),
              seq.end());
    return seq;
  }

  // ---- axes: the nodes m standing in the axis relation to n, in axis
  // order (reverse axes nearest first).

  // a is a proper ancestor of n.
  static bool IsAncestor(const xml::Node* a, const xml::Node* n) {
    for (const xml::Node* p = n->parent(); p != nullptr; p = p->parent()) {
      if (p == a) return true;
    }
    return false;
  }
  static void Descendants(const xml::Node* n,
                          std::vector<const xml::Node*>* out) {
    for (const xml::Node* c : n->children()) {
      out->push_back(c);
      Descendants(c, out);
    }
  }
  void AllOf(const xml::Node* n, std::vector<const xml::Node*>* out) {
    out->push_back(n);
    for (const xml::Node* a : n->attributes()) out->push_back(a);
    for (const xml::Node* c : n->children()) AllOf(c, out);
  }
  std::vector<const xml::Node*> AxisNodes(Axis axis, const xml::Node* n) {
    std::vector<const xml::Node*> out;
    switch (axis) {
      case Axis::kChild:
        out.assign(n->children().begin(), n->children().end());
        break;
      case Axis::kAttribute:
        out.assign(n->attributes().begin(), n->attributes().end());
        break;
      case Axis::kSelf:
        out.push_back(n);
        break;
      case Axis::kParent:
        if (n->parent() != nullptr) out.push_back(n->parent());
        break;
      case Axis::kDescendantOrSelf:
        out.push_back(n);
        Descendants(n, &out);
        break;
      case Axis::kDescendant:
        Descendants(n, &out);
        break;
      case Axis::kAncestorOrSelf:
        out.push_back(n);
        [[fallthrough]];
      case Axis::kAncestor:
        for (const xml::Node* p = n->parent(); p != nullptr; p = p->parent()) {
          out.push_back(p);
        }
        break;
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling: {
        if (n->parent() == nullptr || n->is_attribute()) break;
        const bool following = axis == Axis::kFollowingSibling;
        for (const xml::Node* m : n->parent()->children()) {
          if (following ? Order(m) > Order(n) : Order(m) < Order(n)) {
            out.push_back(m);
          }
        }
        if (!following) std::reverse(out.begin(), out.end());
        break;
      }
      case Axis::kFollowing:
      case Axis::kPreceding: {
        const bool following = axis == Axis::kFollowing;
        std::vector<const xml::Node*> tree;
        AllOf(RootOf(n), &tree);
        for (const xml::Node* m : tree) {
          if (m->is_attribute()) continue;
          if (following ? Order(m) > Order(n) && !IsAncestor(n, m)
                        : Order(m) < Order(n) && !IsAncestor(m, n)) {
            out.push_back(m);
          }
        }
        if (!following) std::reverse(out.begin(), out.end());
        break;
      }
    }
    return out;
  }

  // The principal node kind of an axis is the attribute on the
  // attribute axis, the element elsewhere.
  static bool Matches(const Step& s, const xml::Node* m) {
    const bool principal =
        s.axis == Axis::kAttribute ? m->is_attribute() : m->is_element();
    switch (s.test) {
      case Test::kName:
        return principal && m->name().local() == s.name;
      case Test::kAnyName:
        return principal;
      case Test::kNode:
        return true;
      case Test::kText:
        return m->kind() == xml::NodeKind::kText;
    }
    return false;
  }

  // ---- predicates and effective boolean values.

  Result<bool> EBV(const Seq& v) {
    if (v.empty()) return false;
    if (v[0].type == Item::Type::kNode) return true;
    if (v.size() > 1) return Status::Error("FORG0006", "EBV of a sequence");
    switch (v[0].type) {
      case Item::Type::kBool: return v[0].boolean;
      case Item::Type::kString: return !v[0].string.empty();
      case Item::Type::kNumber:
        return v[0].number != 0 && !std::isnan(v[0].number);
      case Item::Type::kNode: break;
    }
    return true;
  }
  bool Truth(const Seq& v) {
    Result<bool> b = EBV(v);
    if (!b.ok()) {
      Fail(b.status().ToString());
      return false;
    }
    return *b;
  }

  // A numeric predicate selects a position, any other its EBV.
  Seq ApplyPredicate(const Expr& p, const Seq& in) {
    Seq out;
    for (size_t k = 0; k < in.size() && error_.empty(); ++k) {
      Seq v = Evaluate(p, Focus{&in[k], static_cast<int64_t>(k + 1),
                                static_cast<int64_t>(in.size())});
      const bool keep = v.size() == 1 && v[0].type == Item::Type::kNumber
                            ? v[0].number == static_cast<double>(k + 1)
                            : Truth(v);
      if (keep) out.push_back(in[k]);
    }
    return out;
  }

  Seq StepFrom(const Step& s, const Seq& input) {
    Seq out;
    for (const Item& origin : input) {
      if (origin.type != Item::Type::kNode) {
        return Fail("XPTY0019: a step from an atomic value");
      }
      Seq hits;
      for (const xml::Node* m : AxisNodes(s.axis, origin.node)) {
        if (Matches(s, m)) hits.push_back(NodeItem(m));
      }
      for (const ExprPtr& p : s.predicates) hits = ApplyPredicate(*p, hits);
      out.insert(out.end(), hits.begin(), hits.end());
    }
    return SortDedup(std::move(out));
  }

  // ---- atomic values.

  static Seq Atomize(const Seq& v) {
    Seq out;
    for (const Item& i : v) {
      out.push_back(i.type == Item::Type::kNode
                        ? StringItem(StringOf(i), /*untyped=*/true)
                        : i);
    }
    return out;
  }
  bool ToNumber(const Item& a, double* out) {
    if (a.type == Item::Type::kNumber) {
      *out = a.number;
      return true;
    }
    if (a.type == Item::Type::kString && a.untyped) {
      char* end = nullptr;
      *out = std::strtod(a.string.c_str(), &end);
      if (!a.string.empty() && *end == '\0') return true;
      Fail("FORG0001: not a number: " + a.string);
      return false;
    }
    Fail("XPTY0004: not a number");
    return false;
  }
  template <typename T>
  static bool Holds(const std::string& op, const T& a, const T& b) {
    if (op == "=") return a == b;
    if (op == "!=") return a != b;
    if (op == "<") return a < b;
    if (op == "<=") return a <= b;
    if (op == ">") return a > b;
    return a >= b;  // ">="
  }
  // General comparison: true when some pair of atoms compares true,
  // untyped atoms taking the other side's type.
  bool CompareSeqs(const std::string& op, const Seq& l, const Seq& r) {
    for (const Item& a : Atomize(l)) {
      for (const Item& b : Atomize(r)) {
        bool holds = false;
        if (a.type == Item::Type::kNumber || b.type == Item::Type::kNumber) {
          double x = 0, y = 0;
          if (!ToNumber(a, &x) || !ToNumber(b, &y)) return false;
          holds = Holds(op, x, y);
        } else if (a.type == Item::Type::kString &&
                   b.type == Item::Type::kString) {
          holds = Holds(op, a.string, b.string);
        } else if (a.type == Item::Type::kBool && b.type == Item::Type::kBool) {
          holds = Holds(op, a.boolean, b.boolean);
        } else {
          Fail("XPTY0004: incomparable atoms");
          return false;
        }
        if (holds) return true;
      }
    }
    return false;
  }
  // The one string an argument of string(), name() or concat() may be.
  bool Single(const Seq& v, const Item** out) {
    if (v.size() > 1) {
      Fail("XPTY0004: more than one item");
      return false;
    }
    *out = v.empty() ? nullptr : &v[0];
    return true;
  }

  Seq CallFn(const Expr& e, const Focus& f) {
    std::vector<Seq> a;
    for (const ExprPtr& arg : e.args) {
      a.push_back(Evaluate(*arg, f));
      if (!error_.empty()) return {};
    }
    const std::string& fn = e.text;
    if (fn == "count") return {NumberItem(static_cast<double>(a[0].size()))};
    if (fn == "exists") return {BoolItem(!a[0].empty())};
    if (fn == "empty") return {BoolItem(a[0].empty())};
    if (fn == "not") return {BoolItem(!Truth(a[0]))};
    if (fn == "boolean") return {BoolItem(Truth(a[0]))};
    if (fn == "sum") {
      double sum = 0;
      for (const Item& atom : Atomize(a[0])) {
        double d = 0;
        if (!ToNumber(atom, &d)) return {};
        sum += d;
      }
      return {NumberItem(sum)};
    }
    if (fn == "string-join") {
      std::string out;
      const Seq atoms = Atomize(a[0]);
      for (size_t k = 0; k < atoms.size(); ++k) {
        if (k > 0) out += StringOf(a[1].at(0));
        out += StringOf(atoms[k]);
      }
      return {StringItem(out)};
    }
    if (fn == "string" || fn == "name" || fn == "concat") {
      std::string out;
      for (const Seq& arg : a) {
        const Item* one = nullptr;
        if (!Single(arg, &one)) return {};
        if (one == nullptr) continue;
        if (fn != "name") {
          out += StringOf(*one);
        } else if (one->type == Item::Type::kNode) {
          out += one->node->name().local();
        } else {
          return Fail("XPTY0004: name() of an atomic value");
        }
      }
      return {StringItem(out)};
    }
    return Fail("XPST0017: no reference for " + fn + "()");
  }

  // Binds each tuple of clauses[k..] in turn and calls `each` on it;
  // `each` returns false to stop.
  template <typename Each>
  bool Tuples(const std::vector<Clause>& clauses, size_t k, const Focus& f,
              const Each& each) {
    if (k == clauses.size()) return each();
    const Clause& c = clauses[k];
    Seq bound = Evaluate(*c.expr, f);
    if (!error_.empty()) return false;
    if (c.let) {
      vars_.emplace_back(c.var, std::move(bound));
      const bool go_on = Tuples(clauses, k + 1, f, each);
      vars_.pop_back();
      return go_on;
    }
    for (size_t i = 0; i < bound.size(); ++i) {
      vars_.emplace_back(c.var, Seq{bound[i]});
      if (!c.pos_var.empty()) {
        vars_.emplace_back(c.pos_var,
                           Seq{NumberItem(static_cast<double>(i + 1))});
      }
      const bool go_on = Tuples(clauses, k + 1, f, each);
      if (!c.pos_var.empty()) vars_.pop_back();
      vars_.pop_back();
      if (!go_on || !error_.empty()) return false;
    }
    return true;
  }

  Seq Evaluate(const Expr& e, const Focus& f) {
    if (!error_.empty()) return {};
    switch (e.kind) {
      case Kind::kPath: {
        Seq current;
        if (e.origin == Origin::kBase) {
          current = Evaluate(*e.base, f);
        } else if (f.item->type != Item::Type::kNode) {
          return Fail("XPTY0020: a path from an atomic focus");
        } else {
          current = {e.origin == Origin::kRoot ? NodeItem(RootOf(f.item->node))
                                               : *f.item};
        }
        for (const Step& s : e.steps) {
          if (!error_.empty()) return {};
          current = StepFrom(s, current);
        }
        return current;
      }
      case Kind::kFilter: {
        Seq v = Evaluate(*e.base, f);
        for (const ExprPtr& p : e.args) v = ApplyPredicate(*p, v);
        return v;
      }
      case Kind::kUnion: {
        Seq v = Evaluate(*e.args[0], f);
        Seq w = Evaluate(*e.args[1], f);
        v.insert(v.end(), w.begin(), w.end());
        return SortDedup(std::move(v));
      }
      case Kind::kVar:
        for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
          if (it->first == e.text) return it->second;
        }
        return Fail("XPST0008: unbound $" + e.text);
      case Kind::kFragment: {
        // A fresh parentless element, as the constructor builds one.
        Result<std::unique_ptr<xml::Document>> doc =
            xml::ParseDocument(e.text);
        if (!doc.ok()) return Fail(doc.status().ToString());
        xml::Node* top = (*doc)->DocumentElement();
        (*doc)->root()->RemoveChild(top);
        fragments_.push_back(std::move(doc).value());
        return {NodeItem(top)};
      }
      case Kind::kFlwor: {
        Seq out;
        Tuples(e.clauses, 0, f, [&]() {
          if (e.where != nullptr && !Truth(Evaluate(*e.where, f))) {
            return true;
          }
          Seq r = Evaluate(*e.ret, f);
          out.insert(out.end(), r.begin(), r.end());
          return true;
        });
        return out;
      }
      case Kind::kSome:
      case Kind::kEvery: {
        const bool every = e.kind == Kind::kEvery;
        bool witness = false;  // a tuple deciding against the default
        Tuples(e.clauses, 0, f, [&]() {
          witness = Truth(Evaluate(*e.ret, f)) != every;
          return !witness;
        });
        return {BoolItem(witness != every)};
      }
      case Kind::kCall:
        return CallFn(e, f);
      case Kind::kCompare: {
        Seq l = Evaluate(*e.args[0], f);
        Seq r = Evaluate(*e.args[1], f);
        return {BoolItem(CompareSeqs(e.text, l, r))};
      }
      case Kind::kArith: {
        const Seq l = Atomize(Evaluate(*e.args[0], f));
        const Seq r = Atomize(Evaluate(*e.args[1], f));
        if (l.empty() || r.empty()) return {};
        double x = 0, y = 0;
        if (l.size() > 1 || r.size() > 1 || !ToNumber(l[0], &x) ||
            !ToNumber(r[0], &y)) {
          return Fail("XPTY0004: arithmetic on a non-number");
        }
        const double v =
            e.text == "+" ? x + y : e.text == "-" ? x - y : std::fmod(x, y);
        return {NumberItem(v)};
      }
      case Kind::kInt:
        return {NumberItem(static_cast<double>(e.value))};
      case Kind::kStr:
        return {StringItem(e.text)};
      case Kind::kPosition:
        return {NumberItem(static_cast<double>(f.position))};
      case Kind::kLast:
        return {NumberItem(static_cast<double>(f.size))};
    }
    return Fail("unknown expression kind");
  }

  std::string error_;
  std::unordered_map<const xml::Node*, int64_t> order_;
  std::unordered_map<const xml::Node*, int64_t> tree_rank_;
  std::vector<std::pair<std::string, Seq>> vars_;  // innermost last
  std::vector<std::unique_ptr<xml::Document>> fragments_;
};

// ------------------------------------------------------------ the pages ---

// Deterministic pseudo-random page: nested sections with repeated
// element names at several depths, so paths produce duplicates,
// out-of-order raw axis output, and ancestor/descendant overlap.
inline std::string RandomPage(uint32_t seed, int sections) {
  uint32_t state = seed;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;  // numerical-recipes LCG
    return (state >> 16) & 0x7fff;
  };
  std::string xml = "<page>";
  for (int s = 0; s < sections; ++s) {
    xml += "<sec id=\"s" + std::to_string(s) + "\">";
    int items = 1 + static_cast<int>(next() % 4);
    for (int i = 0; i < items; ++i) {
      int v = static_cast<int>(next() % 100);
      xml += "<item v=\"" + std::to_string(v) + "\">";
      if (next() % 3 == 0) {
        xml += "<item v=\"" + std::to_string(v + 100) + "\"><leaf/></item>";
      }
      xml += "<leaf/></item>";
    }
    if (next() % 2 == 0) xml += "<note>n" + std::to_string(s) + "</note>";
    xml += "</sec>";
  }
  xml += "</page>";
  return xml;
}

// ---------------------------------------------------------- the generator ---

// Seeded queries over RandomPage's vocabulary: paths over the 11 axes
// plus attribute steps, with name, `*`, node() and text() tests and
// nine predicate forms ([N], [last()], [last() - 1], [position() = N],
// [position() mod 2 = k], [@v op N], [@a], [path], [not(path)]), from
// five origins (`/`, `//`, a filter, a let-bound section and a detached
// fragment), in unions and filters, under count, exists, empty, sum and
// string-join, and bound by for ... [at] [where] return, some and every.
//
// A path may continue after an attribute step: an attribute's parent is
// its owner, and following:: from it starts with the owner's children.
class Generator {
 public:
  explicit Generator(uint32_t seed) : state_(seed) {}

  struct Query {
    ExprPtr query;
    // The node set the query is built around; for the vacuity floor.
    ExprPtr selection;
  };

  Query Next() {
    const uint32_t form = Rand(100);
    if (form < 28) {
      ExprPtr p = RootPath(/*attr_end=*/true);
      return {p, p};
    }
    if (form < 48) {
      ExprPtr p = RootPath(/*attr_end=*/true);
      return {Wrap(p), p};
    }
    if (form < 58) {  // a let-bound section
      ExprPtr s = Filter(Root({Dslash(), Child("sec")}),
                         {Int(1 + static_cast<int64_t>(Rand(6)))});
      return LetOrigin("s", s);
    }
    if (form < 63) {  // a detached fragment
      static const char* const kFragments[] = {
          "<x><item v=\"1\"/><y><item v=\"2\"><leaf/></item></y>"
          "<note>n9</note></x>",
          "<sec id=\"f\"><item v=\"5\"><item v=\"6\"><leaf/></item></item>"
          "<leaf/></sec>",
          "<x><item/><y><item/></y></x>",
      };
      return LetOrigin("d", Fragment(kFragments[Rand(3)]));
    }
    if (form < 71) {  // a filter, maybe stepped from
      ExprPtr f = Filter(RootPath(/*attr_end=*/false), {Predicate(0)});
      ExprPtr q = Rand(2) == 0 ? f : From(f, Steps(1 + Rand(2), true, 0));
      return {Rand(3) == 0 ? Wrap(q) : q, q};
    }
    if (form < 77) {
      ExprPtr u = Union(RootPath(true), RootPath(true));
      if (Rand(2) == 0) u = Filter(u, {Predicate(0)});
      return {u, u};
    }
    if (form < 91) return ForQuery();
    ExprPtr in = RootPath(/*attr_end=*/false);
    return {Quantified(Rand(2) == 0, For("x", in), Condition("x", "")), in};
  }

 private:
  uint32_t Rand(uint32_t n) {
    state_ = state_ * 1664525u + 1013904223u;
    return ((state_ >> 8) & 0xffffff) % n;
  }
  std::string Pick(std::initializer_list<const char*> names) {
    return *(names.begin() + Rand(static_cast<uint32_t>(names.size())));
  }
  std::string ElementName() {
    return Pick({"sec", "sec", "item", "item", "item", "item", "leaf", "leaf",
                 "note", "note", "page", "missing"});
  }

  // One step (two for `//` then a step) on a random axis. From an
  // attribute, the step takes one of the axes that can reach past it.
  void AddStep(std::vector<Step>* out, int depth, bool from_attr = false) {
    static const Axis kAxes[] = {
        Axis::kChild,            Axis::kChild,
        Axis::kChild,            Axis::kDescendant,
        Axis::kDescendant,       Axis::kDescendantOrSelf,
        Axis::kSelf,             Axis::kParent,
        Axis::kAncestor,         Axis::kAncestorOrSelf,
        Axis::kFollowingSibling, Axis::kFollowingSibling,
        Axis::kPrecedingSibling, Axis::kPrecedingSibling,
        Axis::kFollowing,        Axis::kPreceding,
    };
    static const Axis kAttrAxes[] = {
        Axis::kFollowing, Axis::kFollowing, Axis::kPreceding,
        Axis::kParent,    Axis::kAncestor,  Axis::kSelf,
    };
    if (!from_attr && Rand(5) == 0) out->push_back(Dslash());
    const Axis axis = from_attr ? kAttrAxes[Rand(6)] : kAxes[Rand(16)];
    if (axis == Axis::kParent && Rand(2) == 0) {
      out->push_back(Up());
      return;
    }
    Step s;
    const uint32_t t = Rand(20);
    s = t < 12  ? Named(axis, ElementName())
        : t < 16 ? AxisStep(axis, Test::kAnyName)
        : t < 18 ? AxisStep(axis, Test::kNode)
                 : AxisStep(axis, Test::kText);
    // Paths inside a predicate's predicate carry none.
    const uint32_t preds = depth > 1 ? 0 : Rand(10);
    for (uint32_t k = 0; k < (preds < 6 ? 0u : preds < 9 ? 1u : 2u); ++k) {
      s.predicates.push_back(Predicate(depth));
    }
    out->push_back(std::move(s));
  }
  // `n` steps, maybe followed by an attribute step and, sometimes, one
  // more step from the attribute.
  std::vector<Step> Steps(uint32_t n, bool attr_end, int depth) {
    std::vector<Step> out;
    for (uint32_t k = 0; k < n; ++k) AddStep(&out, depth);
    if (attr_end && Rand(5) == 0) {
      out.push_back(Rand(4) == 0 ? Attr("") : Attr(Pick({"v", "v", "id"})));
      if (Rand(3) == 0) AddStep(&out, depth, /*from_attr=*/true);
    }
    return out;
  }
  // A path from the root, usually starting with `//`.
  ExprPtr RootPath(bool attr_end) {
    std::vector<Step> steps;
    if (Rand(4) != 0) {
      steps.push_back(Dslash());
      steps.push_back(Child(ElementName()));
      if (Rand(3) == 0) steps.back().predicates.push_back(Predicate(0));
    } else {
      steps.push_back(Child("page"));
    }
    for (const Step& s : Steps(Rand(3), attr_end, 0)) steps.push_back(s);
    return Root(std::move(steps));
  }
  ExprPtr Predicate(int depth) {
    switch (Rand(9)) {
      case 0: return Int(1 + static_cast<int64_t>(Rand(3)));
      case 1: return Last();
      case 2: return Arith(Last(), "-", Int(1));
      case 3:
        return Compare(Position(), "=", Int(1 + static_cast<int64_t>(Rand(3))));
      case 4:
        return Compare(Arith(Position(), "mod", Int(2)), "=",
                       Int(static_cast<int64_t>(Rand(2))));
      case 5:
        return Compare(Rel({Attr("v")}), Pick({">", "<", ">=", "=", "!="}),
                       Int(static_cast<int64_t>(Rand(120))));
      case 6: return Rel({Attr(Pick({"v", "id"}))});
      case 7: return Rel(Steps(1 + Rand(2), false, depth + 1));
      default:
        return Call("not", {Rel(Steps(1 + Rand(2), false, depth + 1))});
    }
  }
  ExprPtr Wrap(ExprPtr p) {
    auto with_v = [&p]() {
      if (p->kind != Kind::kPath) return From(p, {Attr("v")});
      Expr e = *p;
      e.steps.push_back(Attr("v"));
      return Make(std::move(e));
    };
    switch (Rand(6)) {
      case 0: return Call("count", {p});
      case 1: return Call("exists", {p});
      case 2: return Call("empty", {p});
      case 3: return Call("sum", {with_v()});
      case 4: return Call("string-join", {with_v(), Str(" ")});
      default: return Call("string-join", {p, Str(",")});
    }
  }
  Query LetOrigin(const std::string& var, ExprPtr value) {
    ExprPtr core = From(Var(var), Steps(1 + Rand(3), true, 0));
    if (Rand(3) == 0) core = Filter(core, {Predicate(0)});
    return {Flwor({Let(var, value)}, nullptr, Rand(2) == 0 ? Wrap(core) : core),
            Flwor({Let(var, value)}, nullptr, core)};
  }
  // A where or satisfies condition on $var (and $pos when bound).
  ExprPtr Condition(const std::string& var, const std::string& pos) {
    switch (Rand(pos.empty() ? 3 : 4)) {
      case 0:
        return Compare(From(Var(var), {Attr("v")}), Pick({">", "<", "="}),
                       Int(static_cast<int64_t>(Rand(120))));
      case 1: return Call("exists", {From(Var(var), Steps(1, false, 1))});
      case 2: return Call("not", {From(Var(var), Steps(1, false, 1))});
      default:
        return Compare(Arith(Var(pos), "mod", Int(2)), "=", Int(1));
    }
  }
  Query ForQuery() {
    ExprPtr in = RootPath(/*attr_end=*/false);
    const std::string pos = Rand(3) == 0 ? "p" : "";
    std::vector<Clause> clauses = {For("x", in, pos)};
    std::string var = "x";
    if (Rand(4) == 0) {
      clauses.push_back(For("y", From(Var("x"), Steps(1 + Rand(2), false, 1))));
      var = "y";
    }
    ExprPtr where = Rand(2) == 0 ? Condition(var, pos) : nullptr;
    ExprPtr ret;
    switch (Rand(pos.empty() ? 4 : 5)) {
      case 0: ret = Var(var); break;
      case 1: ret = From(Var(var), Steps(1 + Rand(2), true, 1)); break;
      case 2:
        ret = Call("count", {From(Var(var), Steps(1 + Rand(2), false, 1))});
        break;
      case 3: ret = Call("string", {From(Var(var), {Attr("v")})}); break;
      default: ret = Var(pos); break;
    }
    return {Flwor(std::move(clauses), std::move(where), std::move(ret)), in};
  }

  uint32_t state_;
};

}  // namespace xqib::xpath_ref

#endif  // XQIB_TESTS_XPATH_REFERENCE_H_
