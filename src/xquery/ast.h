// AST for the XQuery dialect implemented by XQIB: XPath 2.0 core, FLWOR,
// constructors, full-text ftcontains (simplified), the Update Facility,
// the Scripting Extension, and the paper's browser grammar extensions
// (Sections 4.3-4.5: event attach/detach/trigger, behind, set/get style).
//
// The AST is a tagged tree: one Expr node type with a kind discriminator.
// This keeps the evaluator a single dense switch (the idiom used by
// several production query interpreters) at the cost of per-kind field
// documentation, given below.

#ifndef XQIB_XQUERY_AST_H_
#define XQIB_XQUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "xdm/item.h"
#include "xml/qname.h"

namespace xqib::xquery {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kLiteral,      // atom
  kVarRef,       // qname (resolved variable name)
  kContextItem,  // "."
  kSequence,     // kids: comma operands
  kRange,        // kids: [lo, hi]
  kArith,        // op in {+,-,*,div,idiv,mod}; kids: [lhs, rhs]
  kUnary,        // op in {+,-}; kids: [operand]
  kComparison,   // op; kids: [lhs, rhs]
  kLogical,      // op in {and, or}; kids: [lhs, rhs]
  kPath,         // kids[0] optional initial expr; steps; flag root-anchored
  kFilter,       // kids[0] primary; predicates
  kFLWOR,        // clauses; kids[0] = return expr; optional where/order
  kQuantified,   // op in {some, every}; clauses (for-like); kids[0] = test
  kIf,           // kids: [cond, then, else]
  kFunctionCall, // qname; kids: args
  kCast,         // op = "cast"|"castable"|"treat"|"instance"; target type
  kTypeswitch,   // kids[0]=operand, kids[1]=default expr; clauses+case_types
  kSetOp,        // str in {"union","intersect","except"}; kids: [lhs, rhs]
  kFtContains,   // kids[0] = searched expr; ft root in ft
  kDirectElement,    // direct constructor tree (see DirectNode)
  kComputedElement,  // qname or kids[0]=name expr; kids[1] = content
  kComputedAttribute,
  kComputedText,     // kids[0] = content
  kComputedComment,
  kComputedPI,       // literal target in str
  kEnclosed,         // kids[0]: expression enclosed in { } inside content

  // --- XQuery Update Facility ---
  kInsert,   // insert_mode; kids: [source, target]
  kDelete,   // kids: [target]
  kReplace,  // flag value_of; kids: [target, source]
  kRename,   // kids: [target, new-name expr]
  kTransform,  // copy $var := expr modify expr return expr

  // --- Scripting Extension ---
  kBlock,     // kids: statements, executed sequentially
  kVarDecl,   // qname; kids[0] optional init (block-local declare)
  kAssign,    // qname; kids[0] = value ("set $x := e" / "$x := e")
  kWhile,     // kids: [cond, body]
  kExitWith,  // kids: [value]

  // --- Browser extensions (paper Sections 4.3-4.5) ---
  kEventAttach,   // kids: [event-name, target]; listener qname; flag behind
  kEventDetach,   // kids: [event-name, target]; listener qname
  kEventTrigger,  // kids: [event-name, target]
  kSetStyle,      // kids: [property, target, value]
  kGetStyle,      // kids: [property, target]
};

enum class ArithOp { kAdd, kSub, kMul, kDiv, kIDiv, kMod };

enum class CompOp {
  // General comparisons (existential over sequences).
  kGenEq, kGenNe, kGenLt, kGenLe, kGenGt, kGenGe,
  // Value comparisons (singleton).
  kValEq, kValNe, kValLt, kValLe, kValGt, kValGe,
  // Node comparisons.
  kIs, kPrecedes, kFollows,
};

enum class Axis {
  kChild, kDescendant, kDescendantOrSelf, kSelf, kAttribute,
  kParent, kAncestor, kAncestorOrSelf,
  kFollowingSibling, kPrecedingSibling, kFollowing, kPreceding,
};

const char* AxisName(Axis axis);

// A node test within a path step.
struct NodeTest {
  enum class Kind {
    kName,        // element/attribute name test, possibly wildcarded
    kAnyKind,     // node()
    kText,        // text()
    kComment,     // comment()
    kPI,          // processing-instruction([name])
    kElement,     // element() / element(name)
    kAttribute,   // attribute() / attribute(name)
    kDocument,    // document-node()
  };
  Kind kind = Kind::kName;
  xml::QName name;        // for kName/kElement/kAttribute/kPI
  bool any_name = false;  // "*"
  bool any_ns = false;    // "*:local"
  bool any_local = false; // "prefix:*"
};

struct Step {
  Axis axis = Axis::kChild;
  NodeTest test;
  std::vector<ExprPtr> predicates;
  // An expression step (XQuery's StepExpr ::= FilterExpr | AxisStep):
  // `a/name()`, `(x)[1]/@v/string()`. When set, axis, test and
  // predicates are unused; the expression is evaluated once per context
  // node, with that node as the focus.
  ExprPtr expr;
  // Set by the optimizer's ordering pass: the step's raw output (before
  // the evaluator's per-step sort) is statically known to be in document
  // order / duplicate-free given the proven context state. When both
  // hold the evaluator elides SortDocumentOrderDedup for the step.
  bool preserves_order = false;
  bool no_duplicates = false;
  // Set by the optimizer's path pass: the step has predicates and every
  // one is provably position-free (PositionFreePredicate in
  // optimizer.h), so it selects the same nodes whether its predicates
  // see per-parent or per-subtree positions. That is what lets //N[P]
  // fuse into descendant::N[P].
  bool position_free = false;
};

// True for an exact-name element step on the descendant or
// descendant-or-self axis: the steps the element-name index can answer
// (Document::ElementsByNameIn).
bool IsExactNameDescendantStep(const Step& step);

// FLWOR / quantified binding clause.
struct Clause {
  enum class Kind { kFor, kLet };
  Kind kind = Kind::kFor;
  xml::QName var;
  xml::QName pos_var;      // "at $i"; empty local means absent
  ExprPtr expr;
  size_t source_pos = 0;   // byte offset of the bound variable
};

struct OrderSpec {
  ExprPtr key;
  bool descending = false;
  bool empty_greatest = false;
};

// Simplified full-text selection tree (ftand / ftor / ftnot / words).
struct FtSelection {
  enum class Kind { kWords, kAnd, kOr, kNot };
  Kind kind = Kind::kWords;
  ExprPtr words;          // for kWords: evaluates to search string(s)
  bool with_stemming = false;
  std::vector<std::unique_ptr<FtSelection>> kids;
};

// Direct constructor content node.
struct DirectNode {
  enum class Kind { kElement, kText, kEnclosedExpr, kComment, kPI };
  Kind kind = Kind::kElement;
  xml::QName name;    // element name (prefix kept; ns resolved statically)
  std::string text;   // text content / comment text / PI data
  ExprPtr expr;       // enclosed expression
  // Attributes: value is a concatenation of literal and enclosed parts.
  struct AttrPart {
    std::string literal;
    ExprPtr expr;  // set => enclosed part
  };
  struct Attr {
    xml::QName name;
    std::vector<AttrPart> parts;
  };
  std::vector<Attr> attrs;
  std::vector<std::unique_ptr<DirectNode>> children;
};

enum class InsertMode { kInto, kAsFirstInto, kAsLastInto, kBefore, kAfter };

// Minimal sequence-type info used by cast/instance-of and declarations.
struct SequenceType {
  enum class Occurrence { kOne, kOptional, kStar, kPlus };
  Occurrence occ = Occurrence::kOne;
  // Item type: an atomic xs: type, or generic tests.
  enum class ItemKind { kAtomic, kAnyItem, kAnyNode, kElement, kAttribute,
                        kText, kDocument, kEmptySequence };
  ItemKind item = ItemKind::kAnyItem;
  xdm::AtomicType atomic = xdm::AtomicType::kUntypedAtomic;
  // True when the type was written in the source (an `as` clause); the
  // static analyzer only trusts declared types.
  bool declared = false;
};

struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}

  ExprKind kind;
  size_t source_pos = 0;

  // Generic children; meaning depends on kind (see enum comments).
  std::vector<ExprPtr> kids;

  // kLiteral
  xdm::AtomicValue atom;

  // kVarRef / kFunctionCall / kComputed* / kVarDecl / kAssign /
  // kEventAttach/kEventDetach (listener name)
  xml::QName qname;

  // kArith / kUnary
  ArithOp arith_op = ArithOp::kAdd;
  // kComparison
  CompOp comp_op = CompOp::kGenEq;
  // kLogical: true = and, false = or
  bool logical_and = true;

  // kPath
  bool root_anchored = false;
  std::vector<Step> steps;

  // kFilter
  std::vector<ExprPtr> predicates;

  // kFLWOR / kQuantified
  std::vector<Clause> clauses;
  ExprPtr where;
  std::vector<OrderSpec> order_specs;
  bool quant_every = false;

  // kCast
  std::string cast_op;  // "cast" | "castable" | "treat" | "instance"
  SequenceType seq_type;
  // kTypeswitch: one type per case clause (parallel to `clauses`)
  std::vector<SequenceType> case_types;

  // kFtContains
  std::unique_ptr<FtSelection> ft;

  // kDirectElement
  std::unique_ptr<DirectNode> direct;

  // kComputedPI target / kInsert string fields etc.
  std::string str;

  // kInsert
  InsertMode insert_mode = InsertMode::kInto;
  // kReplace
  bool replace_value_of = false;
  // kEventAttach: paper's "behind" (async completion event, §4.4)
  bool behind = false;
  // kVarDecl/kTransform copy var handled via qname + kids.
};

ExprPtr MakeExpr(ExprKind kind);

// Parameter of a user-declared function.
struct Param {
  xml::QName name;
  SequenceType type;
  size_t source_pos = 0;
};

// A user function from the prolog.
struct FunctionDecl {
  xml::QName name;
  std::vector<Param> params;
  SequenceType return_type;
  ExprPtr body;        // null for external functions
  bool updating = false;
  bool sequential = false;
  bool external = false;
  size_t source_pos = 0;  // byte offset of the function name
};

// A prolog variable declaration.
struct VarDecl {
  xml::QName name;
  ExprPtr init;  // null for external
  bool external = false;
  SequenceType type;      // `as` clause; type.declared marks presence
  size_t source_pos = 0;  // byte offset of the variable name
};

// A parsed module: prolog + body (body may be null for library modules).
struct Module {
  // Module declaration (library modules / web-service modules, §3.4).
  bool is_library = false;
  std::string module_ns;
  std::string module_prefix;
  int service_port = 0;  // the paper's "port:2001" extension; 0 = none

  std::vector<std::pair<std::string, std::string>> namespaces;  // prefix,uri
  std::string default_element_ns;
  std::vector<std::pair<std::string, std::string>> options;  // clark,value
  std::vector<VarDecl> variables;
  std::vector<std::shared_ptr<FunctionDecl>> functions;
  // import module namespace p="uri" at "loc";
  struct Import {
    std::string prefix;
    std::string ns;
    std::string location;
  };
  std::vector<Import> imports;

  ExprPtr body;

  // Original query text, retained so diagnostics can map byte offsets
  // (Expr::source_pos) to line/column positions.
  std::string source_text;
};

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_AST_H_
