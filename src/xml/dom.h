// A mutable DOM, the substrate the XQIB plug-in wraps with an XDM store
// (paper Section 5.2, Figure 1). Nodes are owned by their Document and
// referenced by raw pointers everywhere else; node identity is pointer
// identity, exactly as XDM node identity requires. A Document stores its
// nodes in slabs (DESIGN.md "DOM node storage"): a node never moves and
// lives exactly as long as its document.

#ifndef XQIB_XML_DOM_H_
#define XQIB_XML_DOM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/counters.h"
#include "base/status.h"
#include "xml/qname.h"

namespace xqib::xml {

class Document;

enum class NodeKind {
  kDocument,
  kElement,
  kAttribute,
  kText,
  kComment,
  kProcessingInstruction,
};

const char* NodeKindName(NodeKind kind);

// One DOM node. Created only through Document factory methods.
class Node {
 public:
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind() const { return kind_; }
  const QName& name() const { return name_; }
  // Text content for text/comment/PI/attribute nodes.
  const std::string& value() const { return value_; }
  Node* parent() const { return parent_; }
  Document* document() const { return document_; }

  const std::vector<Node*>& children() const { return children_; }
  const std::vector<Node*>& attributes() const { return attributes_; }

  bool is_element() const { return kind_ == NodeKind::kElement; }
  bool is_attribute() const { return kind_ == NodeKind::kAttribute; }
  bool is_text() const { return kind_ == NodeKind::kText; }

  // The root of the tree this node belongs to (a Document node for
  // attached trees, else the topmost detached node).
  Node* Root();

  // XDM string-value: concatenated descendant text for elements/documents,
  // the literal value otherwise.
  std::string StringValue() const;
  // Appends the string-value to `out`. StringValue() reserves the exact
  // length up front and delegates here; atomization-heavy callers can
  // reuse one buffer across nodes.
  void AppendStringValue(std::string* out) const;

  // Attribute access by expanded name; nullptr if absent.
  Node* FindAttribute(std::string_view ns, std::string_view local) const;
  // Convenience for the common no-namespace case.
  Node* FindAttribute(std::string_view local) const {
    return FindAttribute("", local);
  }
  std::string GetAttributeValue(std::string_view local) const;

  // --- Mutation (drives Document mutation hooks & order invalidation) ---

  // Appends `child` (must be detached, same document, not an attribute).
  void AppendChild(Node* child);
  // Inserts `child` before `ref` (a current child), or appends if ref null.
  void InsertBefore(Node* child, Node* ref);
  void InsertAfter(Node* child, Node* ref);
  void InsertFirst(Node* child);
  // Detaches `child`; it stays owned by the Document.
  void RemoveChild(Node* child);
  // Detaches this node from its parent (no-op if already detached).
  void Detach();

  // Sets/replaces an attribute value; creates the attribute if missing.
  Node* SetAttribute(const QName& name, std::string value);
  void RemoveAttribute(std::string_view ns, std::string_view local);
  // Attaches an existing detached attribute node.
  void AttachAttribute(Node* attr);

  // Replaces the value of a text/comment/PI/attribute node, or for an
  // element: removes all children and inserts a single text node.
  void SetValue(std::string value);

  void Rename(const QName& new_name);

  // Position of `child` among children_, or npos.
  size_t ChildIndex(const Node* child) const;

  // Document-order comparison: -1, 0, +1. Nodes in different trees are
  // ordered by an arbitrary-but-stable tree id.
  int CompareDocumentOrder(const Node* other) const;

  // Stable, doc-order-consistent key (lazily recomputed after mutation).
  uint64_t OrderKey() const;

 private:
  friend class Document;
  Node(Document* doc, NodeKind kind) : document_(doc), kind_(kind) {}

  void CheckAdoptable(const Node* child) const;

  Document* document_;
  NodeKind kind_;
  QName name_;
  std::string value_;
  Node* parent_ = nullptr;
  std::vector<Node*> children_;    // element/document content
  std::vector<Node*> attributes_;  // element attributes
  // Atomics keep concurrent readers race-free. The recompute publishes
  // each key with a release store on order_version_; readers
  // acquire-load the version before touching the key (see OrderKey).
  mutable std::atomic<uint64_t> order_key_{0};
  mutable std::atomic<uint64_t> order_version_{0};
  uint64_t tree_id_ = 0;  // assigned at creation; used as inter-tree order
};

// A structured description of the attached-tree mutations accumulated
// between two sync points (PERFORMANCE.md §8). The update layer emits
// one per PUL application with every field filled. The Document keeps
// two rolling windows of its own, fed by the same recording walk, and
// each records only what its consumer reads: the index window
// element_ops (for the name-index splice), the dispatch window touched
// and mutations (for the plug-in's listener skip).
struct DomDelta {
  // Details stop being recorded past this many touched names / ops in
  // one window; the delta degrades to whole_tree (conservative).
  static constexpr size_t kTrackingCap = 4096;

  // Per element name: nodes whose index-bucket membership changed.
  // Last op wins (true = attached under the name, false = detached), so
  // a node detached and re-attached in one window resolves to `true` and
  // splicing re-inserts it at its new document-order position.
  std::unordered_map<const InternedName*, std::unordered_map<Node*, bool>>
      element_ops;
  // Every name a mutation in the window touched: each mutation's
  // ancestor-chain element/attribute names plus the names inside
  // attached/detached subtrees (value edits included). This is the
  // write-name set dispatch intersects listener read sets against.
  std::unordered_set<const InternedName*> touched;
  // Conservative escape hatch: recording was off for part of the window
  // or the window overflowed kTrackingCap. Consumers must treat every
  // name and every bucket as potentially changed.
  bool whole_tree = false;
  // Attached-tree mutations observed. 0 with !whole_tree means nothing
  // an attached-tree reader can observe has changed (detached
  // construction bumps only the global version).
  uint64_t mutations = 0;
  // Total element_ops entries (cap bookkeeping).
  uint64_t op_entries = 0;

  bool Empty() const { return !whole_tree && mutations == 0; }
  void Clear();
  // Recording primitives (respect kTrackingCap; no-ops once whole_tree).
  void Touch(const InternedName* token);
  void ElementOp(Node* node, const InternedName* token, bool inserted);
  void CountMutation() { ++mutations; }
  void Overflow();
};

// Owns all nodes of one XML tree (plus any detached fragments created
// against it). Tracks id->element for fn:id / getElementById.
class Document {
 public:
  Document();
  ~Document();
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  Node* root() { return root_; }
  const Node* root() const { return root_; }

  // The single element child of the document node, or nullptr.
  Node* DocumentElement() const;

  // --- Node factories (all created detached except the doc root) ---
  Node* CreateElement(const QName& name);
  Node* CreateAttribute(const QName& name, std::string value);
  Node* CreateText(std::string value);
  Node* CreateComment(std::string value);
  Node* CreateProcessingInstruction(std::string target, std::string value);

  // --- Builder path (subtrees that are not attached yet) ---
  //
  // Links the fresh node `child` (created by this document, never
  // linked) under `parent`: as its last attribute when `child` is an
  // attribute, else as its last child. `parent` must not be in the
  // attached tree. Nothing is recorded, keyed or notified, and the
  // caller guarantees attribute names are unique. The parser and
  // ImportCopy build every subtree this way; the one AppendChild /
  // InsertBefore that later attaches the finished subtree records it,
  // gives it order keys and notifies, once.
  void BuildAppend(Node* parent, Node* child);

  // Deep-copies `src` (possibly from another document) into this document;
  // the copy is detached. Implements XQuery Update's copy-on-insert.
  // Built on the builder path: the copy costs no notification.
  Node* ImportCopy(const Node* src);

  // The first attached element in document order whose "id" attribute
  // equals `id`, or nullptr (DOM getElementById). Backed by a cache
  // that any mutation invalidates and the next lookup rebuilds in one
  // preorder walk of the attached tree: lookup bursts between mutations
  // are O(1).
  Node* GetElementById(std::string_view id) const;

  // All attached elements with expanded name `name`, in document order.
  // Backed by a lazily maintained whole-tree index validated against
  // mutation_version(): the first lookup after a mutation splices the
  // pending delta into the touched buckets when the document tracks
  // deltas, and otherwise rebuilds the whole index in one DFS. The
  // evaluator answers descendant name steps (//name, $s//name) from
  // slices of it (ElementsByNameIn), so per-event path evaluation
  // touches only matching nodes.
  const std::vector<Node*>& ElementsByName(const QName& name) const;
  // The elements named `name` inside `origin`'s subtree, in document
  // order: the contiguous slice of the ElementsByName bucket whose
  // order keys lie between `origin`'s key and its last descendant's
  // (preorder keys make every subtree one key interval), found by
  // binary search. `origin` is this document's root node or an element
  // attached under it; `or_self` admits `origin` itself
  // (descendant-or-self). The slice is valid until the next mutation.
  std::span<Node* const> ElementsByNameIn(const Node* origin,
                                          const QName& name,
                                          bool or_self) const;
  // Number of times the name index has been (re)built (tests/benchmarks).
  uint64_t name_index_builds() const { return name_index_builds_; }

  // Checks the two properties the index slices rely on: order keys
  // strictly increase in preorder over the attached tree, and every
  // element-name bucket (after any pending splice) equals a fresh
  // document-order walk, in content and in order. OK or the first
  // violation found.
  Status CheckInvariants() const;

  // The document URI (doc("...") key / page URL).
  const std::string& uri() const { return uri_; }
  void set_uri(std::string uri) { uri_ = std::move(uri); }

  // Mutation observers (the browser event system and BOM hook in here).
  using MutationHook = std::function<void(Node* target)>;
  void AddMutationHook(MutationHook hook) {
    mutation_hooks_.push_back(std::move(hook));
  }

  // Total number of nodes ever created (diagnostics/benchmarks).
  size_t node_count() const { return node_count_; }

  uint64_t order_version() const {
    return order_version_.load(std::memory_order_relaxed);
  }

  // Bumped by every structural or value mutation. External caches keyed
  // on document content (the plugin's pure-listener memo cache) validate
  // against this — the same versioning scheme that guards the id cache
  // and the element-name index. Atomic so worker threads can validate
  // snapshots; mutation itself stays loop-thread-only.
  uint64_t mutation_version() const {
    return mutation_version_.load(std::memory_order_acquire);
  }

  // --- Delta propagation (PERFORMANCE.md §8) --------------------------
  //
  // When enabled, every attached mutation appends structured
  // membership/touch ops to two rolling DomDelta windows: membership
  // ops to one consumed by ElementsByName (bucket splicing instead of
  // full rebuilds; recorded only once an index exists to splice), touched
  // names and the mutation count to one drained by the plug-in's
  // dispatch loop (listener skip). The plug-in turns this on for every
  // page document. Recording is loop-thread-only and gated on
  // AttachedToRoot: detached construction records nothing.
  void set_delta_tracking(bool on);
  // Moves the accumulated dispatch-window delta into `out` and resets
  // the window. Loop-thread-only (the window is written by mutations).
  void TakeDispatchDelta(DomDelta* out);
  // Brackets a PUL application: every recorded op is additionally
  // mirrored into `sink` (regardless of the tracking toggles), so the
  // update layer can emit the structured delta of one apply pass.
  void BeginDeltaCapture(DomDelta* sink) { capture_ = sink; }
  void EndDeltaCapture() { capture_ = nullptr; }
  // Per-bucket splice operations applied in place of index rebuilds,
  // full index rebuilds avoided by consuming a delta, and wholesale
  // document-order recomputations (tests/benchmarks).
  uint64_t index_splices() const { return index_splices_; }
  uint64_t bucket_rebuilds_avoided() const { return bucket_rebuilds_avoided_; }
  uint64_t order_rebuilds() const { return order_rebuilds_; }

 private:
  friend class Node;

  Node* NewNode(NodeKind kind);
  void InvalidateOrder() {
    order_version_.fetch_add(1, std::memory_order_relaxed);
  }
  void NotifyMutation(Node* target);
  // True when `n`'s parent chain reaches this document's root node.
  bool AttachedToRoot(const Node* n) const;

  // --- Unified mutation recording ------------------------------------
  // One shared core for every mutation path: every DomDelta sink is fed
  // from the same walks, so the windows and the capture never drift.
  bool RecordingActive() const {
    return delta_tracking_ || capture_ != nullptr;
  }
  // Touched-set insertion for one name on every delta sink.
  void TouchName(const InternedName* token);
  // Element membership op on every delta sink.
  void RecordElementOp(const Node* node, const InternedName* token,
                       bool inserted);
  // The ancestor-chain walk performed on every mutation: element and
  // attribute names from `site` to the root.
  void RecordSiteNames(const Node* site);
  // The attach/detach walk: every element/attribute name inside
  // `subtree` (inclusive) plus a membership op per element. Call BEFORE
  // detaching a subtree and AFTER attaching one; no-op when the subtree
  // does not hang off the attached tree.
  void RecordSubtree(const Node* subtree, bool inserted);
  // Single-name touch when `site` is attached (attribute value edits,
  // the vacated name of a rename).
  void RecordNameTouch(const Node* site, const InternedName* token);
  // Membership fixup for a rename: the node leaves `old_token`'s bucket
  // and enters its current name's bucket.
  void RecordRenameOps(const Node* node, const InternedName* old_token);
  void CountDeltaMutation();

  // Attempts to assign document-order keys to the just-linked `node`
  // (child or attribute of `parent` at `index`) from the gap between its
  // preorder neighbours, leaving every other key valid. Returns false —
  // caller must InvalidateOrder() — when a neighbour key is stale or the
  // gap is too small. Keeping keys valid across attaches is what lets
  // the index splice inserted entries in document order without a
  // wholesale key recomputation.
  bool TryAssignGapKeys(const Node* parent, const Node* node, size_t index);
  // Brings the name index up to the current mutation version: splices
  // the pending delta when it can, else rebuilds in one DFS.
  void RefreshNameIndex() const;
  // Applies the pending index delta to the touched buckets in place of a
  // full rebuild. Caller holds lazy_mu_. Returns false (nothing changed)
  // when the delta is conservative or insertions lack valid order keys.
  bool TrySpliceNameIndex() const;
  void RecomputeOrder() const;
  void AssignDetachedKeys(const Node* detached_root) const;
  static void AssignKeysDfs(const Node* root, uint64_t next, uint64_t stride,
                            uint64_t version);

  // Node storage. Nodes are constructed in place in slabs: the first
  // holds kFirstSlabNodes, each later one twice its predecessor up to
  // kMaxSlabNodes. Small documents (a session keeps many parsed
  // responses and scratch constructions) stay small; a large one costs
  // one allocation per kMaxSlabNodes nodes instead of one per node. A
  // node never moves and is destroyed with its document. Allocation is
  // a mutation: loop-thread-only, like every other.
  struct Slab {
    Node* nodes;
    size_t capacity;
  };
  static constexpr size_t kFirstSlabNodes = 4;
  static constexpr size_t kMaxSlabNodes = 256;
  std::vector<Slab> slabs_;
  size_t slab_used_ = 0;  // nodes constructed in slabs_.back()
  size_t node_count_ = 0;

  Node* root_;
  std::string uri_;
  mutable std::atomic<uint64_t> order_version_{1};
  mutable uint64_t computed_version_ = 0;
  uint64_t next_tree_id_ = 1;
  std::vector<MutationHook> mutation_hooks_;

  // Delta-propagation state (see the public accessors). The two rolling
  // windows and the capture sink are written only from mutation paths
  // (loop thread); pending_index_delta_ is additionally consumed under
  // lazy_mu_ by the splice, hence mutable.
  bool delta_tracking_ = false;
  mutable DomDelta pending_index_delta_;
  DomDelta pending_dispatch_delta_;
  DomDelta* capture_ = nullptr;
  mutable base::RelaxedCounter index_splices_;
  mutable base::RelaxedCounter bucket_rebuilds_avoided_;
  mutable base::RelaxedCounter order_rebuilds_;

  // Serializes the lazy rebuilds (order keys, id cache, name index) when
  // several readers race to be the first after a mutation. Each rebuild
  // publishes with a release store on its version counter; readers that
  // acquire-load a matching version then use the cache without the lock
  // — mutation is loop-thread-only, so a validated cache cannot change
  // underneath a reader.
  mutable std::mutex lazy_mu_;

  // id -> element cache; valid while mutation_version_ matches.
  std::atomic<uint64_t> mutation_version_{1};
  mutable std::atomic<uint64_t> id_cache_version_{0};
  mutable std::unordered_map<std::string, Node*> id_cache_;
  // Interned name token -> attached elements in doc order; same validity
  // rule. Token keys make each rebuild insertion a pointer hash — no
  // Clark-notation string is built per element.
  mutable std::atomic<uint64_t> name_index_version_{0};
  mutable base::RelaxedCounter name_index_builds_;
  mutable std::unordered_map<const InternedName*, std::vector<Node*>>
      name_index_;
};

// Visits `node` and all descendants (attributes excluded) in doc order.
void VisitSubtree(Node* node, const std::function<void(Node*)>& fn);

}  // namespace xqib::xml

#endif  // XQIB_XML_DOM_H_
