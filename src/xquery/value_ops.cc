#include "xquery/value_ops.h"

#include <cassert>
#include <cmath>
#include <string>

#include "xml/dom.h"

namespace xqib::xquery::valueops {

using xdm::AtomicType;
using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;

Result<AtomicValue> RequireSingleAtomic(const Sequence& seq,
                                        std::string_view what) {
  Sequence data = xdm::Atomize(seq);
  if (data.size() != 1) {
    return Status::TypeError(std::string(what) +
                             " requires a single atomic value, got a "
                             "sequence of " +
                             std::to_string(data.size()));
  }
  return data[0].atomic();
}

namespace {

// Untyped promotion for general comparisons: untyped vs numeric compares
// numerically, untyped vs anything else compares as string.
Result<int> GeneralCompareAtoms(const AtomicValue& a, const AtomicValue& b) {
  if (a.is_untyped() && b.is_numeric()) {
    XQ_ASSIGN_OR_RETURN(AtomicValue pa, a.CastTo(AtomicType::kDouble));
    return pa.Compare(b);
  }
  if (b.is_untyped() && a.is_numeric()) {
    XQ_ASSIGN_OR_RETURN(AtomicValue pb, b.CastTo(AtomicType::kDouble));
    return a.Compare(pb);
  }
  return a.Compare(b);
}

// Whether a three-way comparison result (with 2 = NaN/unordered)
// satisfies the comparison operator.
bool CompareSatisfies(int cmp, CompOp op) {
  switch (op) {
    case CompOp::kGenEq: case CompOp::kValEq: return cmp == 0;
    case CompOp::kGenNe: case CompOp::kValNe: return cmp != 0 && cmp != 2;
    case CompOp::kGenLt: case CompOp::kValLt: return cmp == -1;
    case CompOp::kGenLe: case CompOp::kValLe: return cmp == -1 || cmp == 0;
    case CompOp::kGenGt: case CompOp::kValGt: return cmp == 1;
    case CompOp::kGenGe: case CompOp::kValGe: return cmp == 1 || cmp == 0;
    default: return false;
  }
}

}  // namespace

Result<Sequence> CompareSequences(CompOp op, const Sequence& lhs,
                                  const Sequence& rhs) {
  if (op == CompOp::kIs || op == CompOp::kPrecedes || op == CompOp::kFollows) {
    if (lhs.empty() || rhs.empty()) return Sequence{};
    if (lhs.size() != 1 || rhs.size() != 1 || !lhs[0].is_node() ||
        !rhs[0].is_node()) {
      return Status::TypeError("node comparison requires single nodes");
    }
    int cmp = lhs[0].node()->CompareDocumentOrder(rhs[0].node());
    bool v = op == CompOp::kIs        ? lhs[0].node() == rhs[0].node()
             : op == CompOp::kPrecedes ? cmp < 0
                                       : cmp > 0;
    return Sequence{Item::Boolean(v)};
  }

  bool general = op >= CompOp::kGenEq && op <= CompOp::kGenGe;
  Sequence la = xdm::Atomize(lhs);
  Sequence ra = xdm::Atomize(rhs);
  if (general) {
    for (const Item& a : la) {
      for (const Item& b : ra) {
        XQ_ASSIGN_OR_RETURN(int cmp,
                            GeneralCompareAtoms(a.atomic(), b.atomic()));
        if (CompareSatisfies(cmp, op)) {
          return Sequence{Item::Boolean(true)};
        }
      }
    }
    return Sequence{Item::Boolean(false)};
  }
  // Value comparison: empty operand -> empty result.
  if (la.empty() || ra.empty()) return Sequence{};
  if (la.size() != 1 || ra.size() != 1) {
    return Status::TypeError("value comparison requires singletons");
  }
  AtomicValue a = la[0].atomic();
  AtomicValue b = ra[0].atomic();
  // Untyped operands in value comparisons are treated as strings.
  if (a.is_untyped()) a = AtomicValue::String(a.ToXPathString());
  if (b.is_untyped()) b = AtomicValue::String(b.ToXPathString());
  XQ_ASSIGN_OR_RETURN(int cmp, a.Compare(b));
  return Sequence{Item::Boolean(CompareSatisfies(cmp, op))};
}

Result<Sequence> ArithUnary(ArithOp op, const Sequence& v) {
  if (v.empty()) return Sequence{};
  XQ_ASSIGN_OR_RETURN(AtomicValue a, RequireSingleAtomic(v, "unary"));
  if (op == ArithOp::kAdd) {
    XQ_ASSIGN_OR_RETURN(double d, a.ToDouble());
    if (a.type() == AtomicType::kInteger) {
      return Sequence{Item::Integer(a.int_value())};
    }
    return Sequence{Item::Double(d)};
  }
  if (a.type() == AtomicType::kInteger) {
    return Sequence{Item::Integer(-a.int_value())};
  }
  XQ_ASSIGN_OR_RETURN(double d, a.ToDouble());
  return Sequence{Item::Double(-d)};
}

Result<Sequence> ArithSequences(ArithOp op, const Sequence& lhs,
                                const Sequence& rhs) {
  if (lhs.empty() || rhs.empty()) return Sequence{};
  XQ_ASSIGN_OR_RETURN(AtomicValue a, RequireSingleAtomic(lhs, "arithmetic"));
  XQ_ASSIGN_OR_RETURN(AtomicValue b, RequireSingleAtomic(rhs, "arithmetic"));

  bool int_op = a.type() == AtomicType::kInteger &&
                b.type() == AtomicType::kInteger;
  if (int_op) {
    int64_t x = a.int_value(), y = b.int_value();
    switch (op) {
      case ArithOp::kAdd: return Sequence{Item::Integer(x + y)};
      case ArithOp::kSub: return Sequence{Item::Integer(x - y)};
      case ArithOp::kMul: return Sequence{Item::Integer(x * y)};
      case ArithOp::kDiv: {
        if (y == 0) {
          return Status::Error("FOAR0001", "integer division by zero");
        }
        if (x % y == 0) return Sequence{Item::Integer(x / y)};
        return Sequence{
            Item::Atomic(AtomicValue::Decimal(static_cast<double>(x) /
                                              static_cast<double>(y)))};
      }
      case ArithOp::kIDiv:
        if (y == 0) {
          return Status::Error("FOAR0001", "integer division by zero");
        }
        return Sequence{Item::Integer(x / y)};
      case ArithOp::kMod:
        if (y == 0) {
          return Status::Error("FOAR0001", "integer modulo by zero");
        }
        return Sequence{Item::Integer(x % y)};
    }
  }
  XQ_ASSIGN_OR_RETURN(double x, a.ToDouble());
  XQ_ASSIGN_OR_RETURN(double y, b.ToDouble());
  double r = 0;
  switch (op) {
    case ArithOp::kAdd: r = x + y; break;
    case ArithOp::kSub: r = x - y; break;
    case ArithOp::kMul: r = x * y; break;
    case ArithOp::kDiv: r = x / y; break;
    case ArithOp::kIDiv: {
      if (y == 0) return Status::Error("FOAR0001", "idiv by zero");
      return Sequence{Item::Integer(static_cast<int64_t>(x / y))};
    }
    case ArithOp::kMod: r = std::fmod(x, y); break;
  }
  return Sequence{Item::Double(r)};
}

// ------------------------------------------- XQUF primitive builders ---

namespace {

// `src` in `doc`: itself when fresh (built there, never linked), else a
// deep copy counted into `*copied`.
xml::Node* TakeOrCopy(xml::Document* doc, xml::Node* src, bool fresh,
                      uint64_t* copied) {
  if (fresh) {
    assert(src->document() == doc && src->parent() == nullptr);
    return src;
  }
  const size_t before = doc->node_count();
  xml::Node* copy = doc->ImportCopy(src);
  *copied += doc->node_count() - before;
  return copy;
}

}  // namespace

Status BuildInsert(InsertMode mode, const Sequence& source,
                   const Sequence& target_seq, bool fresh,
                   PendingUpdateList* pul, uint64_t* copied) {
  if (target_seq.size() != 1 || !target_seq[0].is_node()) {
    return Status::Error("XUTY0008", "insert target must be a single node");
  }
  xml::Node* target = target_seq[0].node();
  bool into = mode == InsertMode::kInto || mode == InsertMode::kAsFirstInto ||
              mode == InsertMode::kAsLastInto;
  if (into && !target->is_element() &&
      target->kind() != xml::NodeKind::kDocument) {
    return Status::Error("XUTY0005",
                         "insert into target must be an element or document");
  }
  if (!into && target->parent() == nullptr) {
    return Status::Error("XUDY0029",
                         "insert before/after target has no parent");
  }
  xml::Document* doc = target->document();
  PendingUpdateList::Primitive prim;
  PendingUpdateList::Primitive attr_prim;
  attr_prim.kind = PendingUpdateList::Kind::kInsertAttributes;
  attr_prim.target = into ? target : target->parent();
  for (const Item& item : source) {
    if (!item.is_node()) {
      // Atomic content becomes a text node (convenience extension).
      prim.content.push_back(doc->CreateText(item.atomic().ToXPathString()));
      continue;
    }
    xml::Node* copy = TakeOrCopy(doc, item.node(), fresh, copied);
    if (copy->is_attribute()) {
      attr_prim.content.push_back(copy);
    } else {
      prim.content.push_back(copy);
    }
  }
  switch (mode) {
    case InsertMode::kInto:
    case InsertMode::kAsLastInto:
      prim.kind = PendingUpdateList::Kind::kInsertLast;
      break;
    case InsertMode::kAsFirstInto:
      prim.kind = PendingUpdateList::Kind::kInsertFirst;
      break;
    case InsertMode::kBefore:
      prim.kind = PendingUpdateList::Kind::kInsertBefore;
      break;
    case InsertMode::kAfter:
      prim.kind = PendingUpdateList::Kind::kInsertAfter;
      break;
  }
  prim.target = target;
  if (!attr_prim.content.empty()) {
    if (!attr_prim.target->is_element()) {
      return Status::Error("XUTY0022",
                           "attribute insertion into a non-element");
    }
    pul->Add(std::move(attr_prim));
  }
  if (!prim.content.empty()) pul->Add(std::move(prim));
  return Status();
}

Status BuildDelete(const Sequence& targets, PendingUpdateList* pul) {
  for (const Item& item : targets) {
    if (!item.is_node()) {
      return Status::Error("XUTY0007", "delete target must be nodes");
    }
    PendingUpdateList::Primitive prim;
    prim.kind = PendingUpdateList::Kind::kDelete;
    prim.target = item.node();
    pul->Add(std::move(prim));
  }
  return Status();
}

Status BuildReplace(bool replace_value_of, const Sequence& target_seq,
                    const Sequence& source, bool fresh,
                    PendingUpdateList* pul, uint64_t* copied) {
  if (target_seq.size() != 1 || !target_seq[0].is_node()) {
    return Status::Error("XUTY0008", "replace target must be a single node");
  }
  xml::Node* target = target_seq[0].node();
  PendingUpdateList::Primitive prim;
  prim.target = target;
  if (replace_value_of) {
    // replace value of node T with S: S atomizes to the new string value.
    Sequence data = xdm::Atomize(source);
    std::string value;
    for (size_t i = 0; i < data.size(); ++i) {
      if (i > 0) value += " ";
      value += data[i].atomic().ToXPathString();
    }
    prim.kind = target->is_element()
                    ? PendingUpdateList::Kind::kReplaceElementContent
                    : PendingUpdateList::Kind::kReplaceValue;
    prim.value = std::move(value);
  } else {
    if (target->parent() == nullptr) {
      return Status::Error("XUDY0009", "replace target has no parent");
    }
    prim.kind = PendingUpdateList::Kind::kReplaceNode;
    xml::Document* doc = target->document();
    for (const Item& item : source) {
      if (item.is_node()) {
        prim.content.push_back(TakeOrCopy(doc, item.node(), fresh, copied));
      } else {
        prim.content.push_back(doc->CreateText(item.atomic().ToXPathString()));
      }
    }
  }
  pul->Add(std::move(prim));
  return Status();
}

Status BuildRename(const Sequence& target_seq, const Sequence& name_seq,
                   PendingUpdateList* pul) {
  if (target_seq.size() != 1 || !target_seq[0].is_node()) {
    return Status::Error("XUTY0008", "rename target must be a single node");
  }
  XQ_ASSIGN_OR_RETURN(AtomicValue nv,
                      RequireSingleAtomic(name_seq, "rename name"));
  xml::QName new_name = nv.type() == AtomicType::kQName
                            ? nv.qname_value()
                            : xml::QName(nv.ToXPathString());
  PendingUpdateList::Primitive prim;
  prim.kind = PendingUpdateList::Kind::kRename;
  prim.target = target_seq[0].node();
  prim.name = std::move(new_name);
  pul->Add(std::move(prim));
  return Status();
}

}  // namespace xqib::xquery::valueops
