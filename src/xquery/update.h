// The XQuery Update Facility's Pending Update List (PUL).
//
// Updating expressions do not mutate the tree while an expression
// evaluates; they append primitives here. ApplyAll() merges and applies
// them at the end of the snapshot (paper §3.2: "All modifications are
// performed once the expression is entirely evaluated"). The Scripting
// Extension applies the PUL at every statement boundary instead (§3.3).

#ifndef XQIB_XQUERY_UPDATE_H_
#define XQIB_XQUERY_UPDATE_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "xml/dom.h"
#include "xml/qname.h"

namespace xqib::xquery {

class PendingUpdateList {
 public:
  enum class Kind {
    kInsertInto,
    kInsertFirst,
    kInsertLast,
    kInsertBefore,
    kInsertAfter,
    kInsertAttributes,
    kDelete,
    kReplaceNode,
    kReplaceValue,
    kReplaceElementContent,
    kRename,
  };

  struct Primitive {
    Kind kind;
    xml::Node* target = nullptr;
    std::vector<xml::Node*> content;  // already copied into target's doc
    std::string value;                // kReplaceValue / element content
    xml::QName name;                  // kRename
  };

  bool empty() const { return primitives_.empty(); }
  size_t size() const { return primitives_.size(); }
  void Clear() { primitives_.clear(); }

  void Add(Primitive p) { primitives_.push_back(std::move(p)); }

  // Merge-compatibility checks (XUDY0015/XUDY0016/XUDY0017) and
  // application in the spec's phase order. On success the list is
  // cleared; on failure no primitive has been applied.
  Status ApplyAll();

  // Same, but additionally emits the structured delta of this apply pass
  // into `delta` (per interned name: touched names plus element-index
  // membership ops — see xml::DomDelta). The capture window brackets
  // exactly the primitives of this list, on every document they touch,
  // regardless of the documents' own tracking toggles. A null `delta`
  // degrades to plain ApplyAll().
  Status ApplyAll(xml::DomDelta* delta);

  // Moves the current primitives out / back in (used by the transform
  // expression, which evaluates its modify clause in a nested snapshot).
  std::vector<Primitive> Take() { return std::move(primitives_); }
  void Restore(std::vector<Primitive> saved) { primitives_ = std::move(saved); }

 private:
  Status CheckCompatibility() const;

  std::vector<Primitive> primitives_;
};

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_UPDATE_H_
