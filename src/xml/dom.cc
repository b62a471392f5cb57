#include "xml/dom.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <new>

namespace xqib::xml {

namespace {

// Attached-tree order keys live in [1, kAttachedKeyLimit); detached
// fragments above, partitioned by tree id (tree_id << 32).
constexpr uint64_t kAttachedKeyLimit = 1ull << 32;

// Last node of `n`'s subtree in preorder (attributes precede children).
const Node* PreorderLast(const Node* n) {
  while (true) {
    if (!n->children().empty()) {
      n = n->children().back();
      continue;
    }
    if (!n->attributes().empty()) return n->attributes().back();
    return n;
  }
}

// First node after `x`'s entire subtree in preorder, or nullptr at the
// end of `x`'s tree.
const Node* PreorderSuccessor(const Node* x) {
  while (x->parent() != nullptr) {
    const Node* p = x->parent();
    if (x->kind() == NodeKind::kAttribute) {
      const auto& attrs = p->attributes();
      for (size_t i = 0; i < attrs.size(); ++i) {
        if (attrs[i] == x) {
          if (i + 1 < attrs.size()) return attrs[i + 1];
          break;
        }
      }
      if (!p->children().empty()) return p->children().front();
    } else {
      const auto& kids = p->children();
      for (size_t i = 0; i < kids.size(); ++i) {
        if (kids[i] == x) {
          if (i + 1 < kids.size()) return kids[i + 1];
          break;
        }
      }
    }
    x = p;
  }
  return nullptr;
}

}  // namespace

// ------------------------------------------------------------- DomDelta ---

void DomDelta::Clear() {
  element_ops.clear();
  touched.clear();
  whole_tree = false;
  mutations = 0;
  op_entries = 0;
}

void DomDelta::Touch(const InternedName* token) {
  if (whole_tree) return;
  if (touched.size() >= kTrackingCap) {
    Overflow();
    return;
  }
  touched.insert(token);
}

void DomDelta::ElementOp(Node* node, const InternedName* token,
                         bool inserted) {
  if (whole_tree) return;
  if (op_entries >= kTrackingCap) {
    Overflow();
    return;
  }
  if (element_ops[token].insert_or_assign(node, inserted).second) {
    ++op_entries;
  }
}

void DomDelta::Overflow() {
  whole_tree = true;
  element_ops.clear();
  touched.clear();
  op_entries = 0;
}

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDocument: return "document";
    case NodeKind::kElement: return "element";
    case NodeKind::kAttribute: return "attribute";
    case NodeKind::kText: return "text";
    case NodeKind::kComment: return "comment";
    case NodeKind::kProcessingInstruction: return "processing-instruction";
  }
  return "unknown";
}

// ---------------------------------------------------------------- Node ---

Node* Node::Root() {
  Node* n = this;
  while (true) {
    Node* up = n->parent_;
    if (up == nullptr) return n;
    n = up;
  }
}

namespace {

// Total length of the text descendants of `node` (string-value size for
// elements/documents), so StringValue can reserve once.
size_t TextLength(const Node* node) {
  size_t total = 0;
  for (const Node* c : node->children()) {
    if (c->is_text()) {
      total += c->value().size();
    } else if (c->is_element()) {
      total += TextLength(c);
    }
  }
  return total;
}

}  // namespace

void Node::AppendStringValue(std::string* out) const {
  switch (kind_) {
    case NodeKind::kText:
    case NodeKind::kComment:
    case NodeKind::kProcessingInstruction:
    case NodeKind::kAttribute:
      out->append(value_);
      return;
    case NodeKind::kElement:
    case NodeKind::kDocument:
      for (const Node* c : children_) {
        if (c->kind_ == NodeKind::kText) {
          out->append(c->value_);
        } else if (c->kind_ == NodeKind::kElement) {
          c->AppendStringValue(out);
        }
      }
      return;
  }
}

std::string Node::StringValue() const {
  if (kind_ == NodeKind::kElement || kind_ == NodeKind::kDocument) {
    std::string out;
    out.reserve(TextLength(this));
    AppendStringValue(&out);
    return out;
  }
  return value_;
}

Node* Node::FindAttribute(std::string_view ns, std::string_view local) const {
  for (Node* a : attributes_) {
    if (a->name_.local() == local && a->name_.ns() == ns) return a;
  }
  return nullptr;
}

std::string Node::GetAttributeValue(std::string_view local) const {
  const Node* a = FindAttribute(local);
  return a ? a->value() : std::string();
}

void Node::CheckAdoptable(const Node* child) const {
  (void)child;
  assert(child != nullptr);
  assert(child->document_ == document_ &&
         "node belongs to a different document; use ImportCopy");
  assert(child->parent_ == nullptr && "node is already attached");
  assert(child->kind_ != NodeKind::kAttribute &&
         "attributes attach via AttachAttribute");
  assert(child->kind_ != NodeKind::kDocument);
}

void Node::AppendChild(Node* child) {
  CheckAdoptable(child);
  child->parent_ = this;
  children_.push_back(child);
  document_->RecordSubtree(child, /*inserted=*/true);
  if (!document_->TryAssignGapKeys(this, child, children_.size() - 1)) {
    document_->InvalidateOrder();
  }
  document_->NotifyMutation(this);
}

void Node::InsertBefore(Node* child, Node* ref) {
  if (ref == nullptr) {
    AppendChild(child);
    return;
  }
  CheckAdoptable(child);
  size_t idx = ChildIndex(ref);
  assert(idx != static_cast<size_t>(-1) && "ref is not a child");
  child->parent_ = this;
  children_.insert(children_.begin() + static_cast<ptrdiff_t>(idx), child);
  document_->RecordSubtree(child, /*inserted=*/true);
  if (!document_->TryAssignGapKeys(this, child, idx)) {
    document_->InvalidateOrder();
  }
  document_->NotifyMutation(this);
}

void Node::InsertAfter(Node* child, Node* ref) {
  if (ref == nullptr) {
    AppendChild(child);
    return;
  }
  size_t idx = ChildIndex(ref);
  assert(idx != static_cast<size_t>(-1) && "ref is not a child");
  if (idx + 1 >= children_.size()) {
    AppendChild(child);
  } else {
    InsertBefore(child, children_[idx + 1]);
  }
}

void Node::InsertFirst(Node* child) {
  InsertBefore(child, children_.empty() ? nullptr : children_.front());
}

void Node::RemoveChild(Node* child) {
  size_t idx = ChildIndex(child);
  assert(idx != static_cast<size_t>(-1) && "not a child of this node");
  document_->RecordSubtree(child, /*inserted=*/false);  // while still attached
  children_.erase(children_.begin() + static_cast<ptrdiff_t>(idx));
  child->parent_ = nullptr;
  child->tree_id_ = document_->next_tree_id_++;
  // Re-keying the detached fragment eagerly (instead of invalidating the
  // whole order) leaves every attached key valid: the vacated key range
  // simply has no occupants, and the fragment's keys move to its fresh
  // tree-id region so they can never collide with a later gap insert.
  document_->AssignDetachedKeys(child);
  document_->NotifyMutation(this);
}

void Node::Detach() {
  if (parent_ == nullptr) return;
  if (kind_ == NodeKind::kAttribute) {
    Node* owner = parent_;
    for (size_t i = 0; i < owner->attributes_.size(); ++i) {
      if (owner->attributes_[i] == this) {
        owner->attributes_.erase(owner->attributes_.begin() +
                                 static_cast<ptrdiff_t>(i));
        break;
      }
    }
    parent_ = nullptr;
    document_->RecordNameTouch(owner, name_.token());
    tree_id_ = document_->next_tree_id_++;
    document_->AssignDetachedKeys(this);
    document_->NotifyMutation(owner);
  } else {
    parent_->RemoveChild(this);
  }
}

Node* Node::SetAttribute(const QName& name, std::string value) {
  assert(kind_ == NodeKind::kElement);
  if (Node* existing = FindAttribute(name.ns(), name.local())) {
    existing->value_ = std::move(value);
    document_->RecordNameTouch(this, name.token());
    document_->NotifyMutation(this);
    return existing;
  }
  Node* attr = document_->CreateAttribute(name, std::move(value));
  attr->parent_ = this;
  attributes_.push_back(attr);
  document_->RecordNameTouch(this, name.token());
  if (!document_->TryAssignGapKeys(this, attr, attributes_.size() - 1)) {
    document_->InvalidateOrder();
  }
  document_->NotifyMutation(this);
  return attr;
}

void Node::RemoveAttribute(std::string_view ns, std::string_view local) {
  if (Node* attr = FindAttribute(ns, local)) attr->Detach();
}

void Node::AttachAttribute(Node* attr) {
  assert(kind_ == NodeKind::kElement);
  assert(attr->kind_ == NodeKind::kAttribute && attr->parent_ == nullptr);
  assert(attr->document_ == document_);
  // Replace any attribute with the same expanded name.
  RemoveAttribute(attr->name_.ns(), attr->name_.local());
  attr->parent_ = this;
  attributes_.push_back(attr);
  document_->RecordNameTouch(this, attr->name_.token());
  if (!document_->TryAssignGapKeys(this, attr, attributes_.size() - 1)) {
    document_->InvalidateOrder();
  }
  document_->NotifyMutation(this);
}

void Node::SetValue(std::string value) {
  if (kind_ == NodeKind::kElement || kind_ == NodeKind::kDocument) {
    for (Node* c : children_) {
      document_->RecordSubtree(c, /*inserted=*/false);  // while still attached
      c->parent_ = nullptr;
      c->tree_id_ = document_->next_tree_id_++;
      document_->AssignDetachedKeys(c);
    }
    children_.clear();
    if (!value.empty()) {
      Node* text = document_->CreateText(std::move(value));
      text->parent_ = this;
      children_.push_back(text);
      if (!document_->TryAssignGapKeys(this, text, 0)) {
        document_->InvalidateOrder();
      }
    }
  } else {
    value_ = std::move(value);
  }
  document_->NotifyMutation(this);
}

void Node::Rename(const QName& new_name) {
  const InternedName* old_name = name_.token();
  name_ = new_name;
  // Both the vacated and the adopted name's node sets change; the
  // site-names walk in NotifyMutation covers the new name (it reads the
  // node's current name), the old name's touch and both index-bucket
  // membership ops need explicit recording.
  document_->RecordRenameOps(this, old_name);
  document_->NotifyMutation(this);
}

size_t Node::ChildIndex(const Node* child) const {
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i] == child) return i;
  }
  return static_cast<size_t>(-1);
}

uint64_t Node::OrderKey() const {
  const uint64_t doc_version = document_->order_version();
  if (order_version_.load(std::memory_order_acquire) != doc_version) {
    // Attached nodes get keys 1..n from one DFS of the document tree;
    // detached subtrees get keys lazily, offset by their tree id, so a
    // session that detaches many fragments (every replaced text node)
    // never pays for them again. Racing readers serialize on the
    // rebuild; the losers re-check under the lock and find their key
    // already published.
    std::lock_guard<std::mutex> lk(document_->lazy_mu_);
    if (order_version_.load(std::memory_order_relaxed) != doc_version) {
      Node* root = const_cast<Node*>(this)->Root();
      if (root == document_->root()) {
        document_->RecomputeOrder();
      } else {
        document_->AssignDetachedKeys(root);
      }
    }
  }
  return order_key_.load(std::memory_order_relaxed);
}

int Node::CompareDocumentOrder(const Node* other) const {
  if (this == other) return 0;
  uint64_t a = OrderKey();
  uint64_t b = other->OrderKey();
  if (a == b) return 0;
  return a < b ? -1 : 1;
}

// ------------------------------------------------------------ Document ---

Document::Document() {
  root_ = NewNode(NodeKind::kDocument);
}

Document::~Document() {
  for (size_t i = 0; i < slabs_.size(); ++i) {
    const Slab& slab = slabs_[i];
    const size_t used = i + 1 == slabs_.size() ? slab_used_ : slab.capacity;
    for (size_t j = 0; j < used; ++j) slab.nodes[j].~Node();
    std::allocator<Node>().deallocate(slab.nodes, slab.capacity);
  }
}

Node* Document::NewNode(NodeKind kind) {
  if (slabs_.empty() || slab_used_ == slabs_.back().capacity) {
    const size_t capacity =
        slabs_.empty() ? kFirstSlabNodes
                       : std::min(2 * slabs_.back().capacity, kMaxSlabNodes);
    slabs_.push_back(Slab{std::allocator<Node>().allocate(capacity), capacity});
    slab_used_ = 0;
  }
  Node* n = new (slabs_.back().nodes + slab_used_) Node(this, kind);
  ++slab_used_;
  ++node_count_;
  n->tree_id_ = next_tree_id_++;
  // No order invalidation: the fresh node starts with a stale key version
  // and is keyed lazily (detached region) or on attach (gap assignment).
  // Invalidating here would poison the attached keys on every allocation
  // and defeat gap assignment during update-content construction.
  return n;
}

Node* Document::DocumentElement() const {
  for (Node* c : root_->children()) {
    if (c->is_element()) return c;
  }
  return nullptr;
}

Node* Document::CreateElement(const QName& name) {
  Node* n = NewNode(NodeKind::kElement);
  n->name_ = name;
  return n;
}

Node* Document::CreateAttribute(const QName& name, std::string value) {
  Node* n = NewNode(NodeKind::kAttribute);
  n->name_ = name;
  n->value_ = std::move(value);
  return n;
}

Node* Document::CreateText(std::string value) {
  Node* n = NewNode(NodeKind::kText);
  n->value_ = std::move(value);
  return n;
}

Node* Document::CreateComment(std::string value) {
  Node* n = NewNode(NodeKind::kComment);
  n->value_ = std::move(value);
  return n;
}

Node* Document::CreateProcessingInstruction(std::string target,
                                            std::string value) {
  Node* n = NewNode(NodeKind::kProcessingInstruction);
  n->name_ = QName(std::move(target));
  n->value_ = std::move(value);
  return n;
}

void Document::BuildAppend(Node* parent, Node* child) {
  assert(parent->document_ == this && child->document_ == this);
  assert(child->parent_ == nullptr && child->kind_ != NodeKind::kDocument);
  assert(!AttachedToRoot(parent) && "the builder path never touches the "
                                    "attached tree; use AppendChild");
  child->parent_ = parent;
  if (child->kind_ == NodeKind::kAttribute) {
    parent->attributes_.push_back(child);
  } else {
    parent->children_.push_back(child);
  }
}

Node* Document::ImportCopy(const Node* src) {
  if (src->kind_ == NodeKind::kDocument) {
    // Copying a document node yields a copy of its children under a new
    // element-less fragment: we model it as a copy of the document
    // element, which is what the update primitives need in practice.
    Node* elem = src->document_->DocumentElement();
    assert(elem != nullptr);
    return ImportCopy(elem);
  }
  // Every kind copies its name (interned already) and value as they are.
  Node* copy = NewNode(src->kind_);
  copy->name_ = src->name_;
  copy->value_ = src->value_;
  copy->attributes_.reserve(src->attributes_.size());
  for (const Node* a : src->attributes_) BuildAppend(copy, ImportCopy(a));
  copy->children_.reserve(src->children_.size());
  for (const Node* c : src->children_) BuildAppend(copy, ImportCopy(c));
  return copy;
}

Node* Document::GetElementById(std::string_view id) const {
  // Ids can change through arbitrary attribute mutation, so the cache is
  // dropped wholesale on every mutation and rebuilt on the next lookup —
  // lookup bursts between mutations (event handlers resolving targets)
  // are O(1), and correctness never depends on tracking which mutation
  // touched which id. The first reader after a mutation rebuilds under
  // lazy_mu_ and publishes with a release store; validated readers skip
  // the lock entirely (mutation cannot interleave while workers read —
  // the loop thread, the only mutator, is barriered).
  const uint64_t mv = mutation_version();
  if (id_cache_version_.load(std::memory_order_acquire) != mv) {
    std::lock_guard<std::mutex> lk(lazy_mu_);
    if (id_cache_version_.load(std::memory_order_relaxed) != mv) {
      static const InternedName* const kId = QName("id").token();
      id_cache_.clear();
      // One preorder walk of the attached tree (detached and discarded
      // nodes are never visited); the first element in document order
      // keeps its id.
      std::vector<const Node*> stack{root_};
      while (!stack.empty()) {
        const Node* n = stack.back();
        stack.pop_back();
        for (const Node* a : n->attributes_) {
          if (a->name_.token() == kId) {
            if (!a->value_.empty()) {
              id_cache_.emplace(a->value_, const_cast<Node*>(n));
            }
            break;
          }
        }
        for (auto it = n->children_.rbegin(); it != n->children_.rend();
             ++it) {
          if ((*it)->kind_ == NodeKind::kElement) stack.push_back(*it);
        }
      }
      id_cache_version_.store(mv, std::memory_order_release);
    }
  }
  auto it = id_cache_.find(std::string(id));
  return it == id_cache_.end() ? nullptr : it->second;
}

const std::vector<Node*>& Document::ElementsByName(const QName& name) const {
  static const std::vector<Node*> kNoNodes;
  RefreshNameIndex();
  auto it = name_index_.find(name.token());
  return it == name_index_.end() ? kNoNodes : it->second;
}

void Document::RefreshNameIndex() const {
  // Renames, inserts, detaches and value edits all bump
  // mutation_version_, so a stale index can never be observed. Lookup
  // bursts between mutations (the plug-in's per-event listener paths) are
  // O(1) plus the size of the answer.
  const uint64_t mv = mutation_version();
  if (name_index_version_.load(std::memory_order_acquire) == mv) return;
  std::lock_guard<std::mutex> lk(lazy_mu_);
  if (name_index_version_.load(std::memory_order_relaxed) == mv) return;
  // Delta splice: when tracking is on and a previous build exists,
  // apply the accumulated membership delta to the touched buckets in
  // place — the whole index becomes exact again without a rebuild.
  const bool spliced =
      delta_tracking_ &&
      name_index_version_.load(std::memory_order_relaxed) != 0 &&
      TrySpliceNameIndex();
  if (!spliced) {
    name_index_.clear();
    std::function<void(const Node*)> visit = [&](const Node* n) {
      for (const Node* c : n->children_) {
        if (c->kind_ == NodeKind::kElement) {
          name_index_[c->name_.token()].push_back(const_cast<Node*>(c));
          visit(c);
        }
      }
    };
    visit(root_);
    ++name_index_builds_;
    // The rebuild observed the current tree; the pending delta is
    // subsumed by it.
    pending_index_delta_.Clear();
  }
  name_index_version_.store(mv, std::memory_order_release);
}

std::span<Node* const> Document::ElementsByNameIn(const Node* origin,
                                                  const QName& name,
                                                  bool or_self) const {
  const std::vector<Node*>& bucket = ElementsByName(name);
  // The whole tree needs no keys: the document node is in no bucket.
  if (origin == root_ || bucket.empty()) return bucket;
  const uint64_t first_key = origin->OrderKey() + (or_self ? 0 : 1);
  const uint64_t last_key = PreorderLast(origin)->OrderKey();
  auto first = std::lower_bound(
      bucket.begin(), bucket.end(), first_key,
      [](const Node* n, uint64_t key) { return n->OrderKey() < key; });
  auto last = std::upper_bound(
      first, bucket.end(), last_key,
      [](uint64_t key, const Node* n) { return key < n->OrderKey(); });
  return {first, last};
}

Status Document::CheckInvariants() const {
  uint64_t prev_key = 0;
  const Node* prev = nullptr;
  std::unordered_map<const InternedName*, std::vector<Node*>> walk;
  Status bad;
  std::function<void(const Node*)> visit = [&](const Node* n) {
    if (!bad.ok()) return;
    const uint64_t key = n->OrderKey();
    if (prev != nullptr && key <= prev_key) {
      bad = Status::Error(
          "XQIB0003", "order key " + std::to_string(key) + " of <" +
                          n->name_.local() + "> does not follow " +
                          std::to_string(prev_key) + " of <" +
                          prev->name_.local() + "> in preorder");
      return;
    }
    prev = n;
    prev_key = key;
    if (n->kind_ == NodeKind::kElement) {
      walk[n->name_.token()].push_back(const_cast<Node*>(n));
    }
    for (const Node* a : n->attributes_) visit(a);
    for (const Node* c : n->children_) visit(c);
  };
  visit(root_);
  if (!bad.ok()) return bad;
  RefreshNameIndex();
  std::lock_guard<std::mutex> lk(lazy_mu_);
  for (const auto& [token, nodes] : name_index_) {
    auto it = walk.find(token);
    if (it == walk.end() || it->second != nodes) {
      return Status::Error("XQIB0003", "element-name bucket <" +
                                           *token->local +
                                           "> differs from a fresh walk");
    }
  }
  for (const auto& [token, nodes] : walk) {
    if (name_index_.count(token) == 0) {
      return Status::Error("XQIB0003", "element-name index has no bucket for <" +
                                           *token->local + ">");
    }
  }
  return Status();
}

bool Document::TrySpliceNameIndex() const {
  const DomDelta& d = pending_index_delta_;
  if (d.whole_tree) return false;
  auto order_of = [](const Node* n) {
    return n->order_key_.load(std::memory_order_relaxed);
  };
  if (!d.element_ops.empty()) {
    // Insertions are merged by document-order key, so every key in every
    // touched bucket must be current. The global check suffices: every
    // attach either gap-assigned keys at the current order version or
    // invalidated it (see TryAssignGapKeys), so computed_version_ ==
    // order_version_ implies every attached key is exact. Removal-only
    // deltas need no keys and always proceed.
    bool have_insertions = false;
    for (const auto& [token, ops] : d.element_ops) {
      (void)token;
      for (const auto& [node, inserted] : ops) {
        if (inserted && AttachedToRoot(node)) {
          have_insertions = true;
          break;
        }
      }
      if (have_insertions) break;
    }
    if (have_insertions &&
        computed_version_ != order_version_.load(std::memory_order_relaxed)) {
      // An attach failed to gap-assign since the last recompute. Refresh
      // the keys here (lazy_mu_ is held by our caller, the same lock
      // discipline as the OrderKey path) — one DFS, after which the
      // splice and every later gap assignment work off current keys.
      // Still cheaper than rebuilding: the recompute is one walk for ALL
      // names, a rebuild walks once per stale lookup window.
      RecomputeOrder();
    }
    for (const auto& [token, ops] : d.element_ops) {
      std::vector<Node*>& bucket = name_index_[token];
      // Drop every op node first (removed, moved, or about to be
      // re-inserted at its new position).
      bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                  [&](Node* n) { return ops.count(n) != 0; }),
                   bucket.end());
      std::vector<Node*> add;
      for (const auto& [node, inserted] : ops) {
        // Guard on the node's CURRENT name: a node renamed twice in one
        // window carries an insert op under an intermediate name it no
        // longer bears.
        if (inserted && node->name_.token() == token && AttachedToRoot(node)) {
          add.push_back(node);
        }
      }
      if (!add.empty()) {
        std::sort(add.begin(), add.end(), [&](Node* a, Node* b) {
          return order_of(a) < order_of(b);
        });
        const auto mid = static_cast<ptrdiff_t>(bucket.size());
        bucket.insert(bucket.end(), add.begin(), add.end());
        std::inplace_merge(bucket.begin(), bucket.begin() + mid, bucket.end(),
                           [&](Node* a, Node* b) {
                             return order_of(a) < order_of(b);
                           });
      }
      if (bucket.empty()) name_index_.erase(token);
      ++index_splices_;
    }
  }
  pending_index_delta_.Clear();
  ++bucket_rebuilds_avoided_;
  return true;
}

void Document::NotifyMutation(Node* target) {
  // One shared recording gate for every mutation path: every delta sink
  // observes exactly the same attached mutations (the site's
  // ancestor-chain names here; subtree names and membership ops at the
  // attach/detach sites).
  if (RecordingActive() && AttachedToRoot(target)) {
    RecordSiteNames(target);
    CountDeltaMutation();
  }
  mutation_version_.fetch_add(1, std::memory_order_release);
  for (const MutationHook& hook : mutation_hooks_) hook(target);
}

void Document::set_delta_tracking(bool on) {
  if (on == delta_tracking_) return;
  delta_tracking_ = on;
  // Mutations made under the previous mode were not (or were partially)
  // recorded; poison both windows so consumers fall back to one full
  // rebuild / full dispatch pass before incremental deltas are trusted.
  pending_index_delta_.Clear();
  pending_index_delta_.whole_tree = true;
  pending_dispatch_delta_.Clear();
  pending_dispatch_delta_.whole_tree = true;
}

void Document::TakeDispatchDelta(DomDelta* out) {
  *out = std::move(pending_dispatch_delta_);
  pending_dispatch_delta_.Clear();
}

bool Document::AttachedToRoot(const Node* n) const {
  while (n != nullptr) {
    if (n == root_) return true;
    n = n->parent_;
  }
  return false;
}

void Document::TouchName(const InternedName* token) {
  // Touched names are read by dispatch only (listener read sets).
  if (delta_tracking_) pending_dispatch_delta_.Touch(token);
  if (capture_ != nullptr) capture_->Touch(token);
}

void Document::RecordElementOp(const Node* node, const InternedName* token,
                               bool inserted) {
  Node* n = const_cast<Node*>(node);
  // Membership ops are read by the index splice only, and only once there
  // is an index to splice: before the first build, RefreshNameIndex
  // rebuilds in full and would discard them.
  if (delta_tracking_ &&
      name_index_version_.load(std::memory_order_relaxed) != 0) {
    pending_index_delta_.ElementOp(n, token, inserted);
  }
  if (capture_ != nullptr) capture_->ElementOp(n, token, inserted);
}

void Document::RecordSiteNames(const Node* site) {
  for (const Node* n = site; n != nullptr; n = n->parent_) {
    if (n->kind_ == NodeKind::kElement || n->kind_ == NodeKind::kAttribute) {
      TouchName(n->name_.token());
    }
  }
}

void Document::RecordSubtree(const Node* subtree, bool inserted) {
  if (!RecordingActive()) return;
  if (!AttachedToRoot(subtree)) return;
  std::function<void(const Node*)> visit = [&](const Node* n) {
    if (n->kind_ == NodeKind::kElement) {
      TouchName(n->name_.token());
      RecordElementOp(n, n->name_.token(), inserted);
    } else if (n->kind_ == NodeKind::kAttribute) {
      TouchName(n->name_.token());
    }
    for (const Node* a : n->attributes_) visit(a);
    for (const Node* c : n->children_) visit(c);
  };
  visit(subtree);
}

void Document::RecordNameTouch(const Node* site, const InternedName* token) {
  if (!RecordingActive()) return;
  if (!AttachedToRoot(site)) return;
  TouchName(token);
}

void Document::RecordRenameOps(const Node* node, const InternedName* old_token) {
  if (!RecordingActive()) return;
  if (!AttachedToRoot(node)) return;
  TouchName(old_token);
  if (node->kind_ == NodeKind::kElement) {
    RecordElementOp(node, old_token, /*inserted=*/false);
    RecordElementOp(node, node->name_.token(), /*inserted=*/true);
  }
}

void Document::CountDeltaMutation() {
  if (delta_tracking_) pending_dispatch_delta_.CountMutation();
  if (capture_ != nullptr) capture_->CountMutation();
}

// Assigns stride-spaced keys starting at `next` across one subtree.
void Document::AssignKeysDfs(const Node* root, uint64_t next, uint64_t stride,
                             uint64_t version) {
  std::function<void(const Node*)> visit = [&](const Node* n) {
    // Key first, then version with release: a reader that acquire-loads
    // a current version is guaranteed to see the matching key.
    n->order_key_.store(next, std::memory_order_relaxed);
    n->order_version_.store(version, std::memory_order_release);
    next += stride;
    for (const Node* a : n->attributes_) {
      a->order_key_.store(next, std::memory_order_relaxed);
      a->order_version_.store(version, std::memory_order_release);
      next += stride;
    }
    for (const Node* c : n->children_) visit(c);
  };
  visit(root);
}

void Document::RecomputeOrder() const {
  // Attached nodes occupy stride-spaced keys in [stride, 2^32); detached
  // fragments live above, partitioned by tree id (AssignDetachedKeys).
  // Mixed comparisons stay stable: attached before detached, detached
  // ordered by creation. The stride leaves gaps so attaches can key new
  // subtrees between existing neighbours (TryAssignGapKeys) without
  // touching any other key — which is what keeps the order globally
  // valid across churn and lets the name index splice by key.
  const uint64_t stride =
      std::max<uint64_t>(1, kAttachedKeyLimit / (node_count_ * 2 + 2));
  AssignKeysDfs(root_, stride, stride, order_version_);
  computed_version_ = order_version_;
  ++order_rebuilds_;
}

void Document::AssignDetachedKeys(const Node* detached_root) const {
  AssignKeysDfs(detached_root, detached_root->tree_id_ << 32, /*stride=*/1,
                order_version_);
}

bool Document::TryAssignGapKeys(const Node* parent, const Node* node,
                                size_t index) {
  const uint64_t cur = order_version_.load(std::memory_order_relaxed);
  auto current_key = [cur](const Node* n, uint64_t* out) {
    if (n->order_version_.load(std::memory_order_relaxed) != cur) return false;
    *out = n->order_key_.load(std::memory_order_relaxed);
    return true;
  };
  // A stale parent in a detached fragment means the whole fragment is
  // unkeyed at the current version: the lazy path will enumerate it
  // (node included) on first read, and no published key exists that the
  // new node could contradict — nothing to do. A stale parent in the
  // attached tree means we cannot key the node consistently; the caller
  // must invalidate.
  uint64_t parent_key = 0;
  if (!current_key(parent, &parent_key)) return !AttachedToRoot(parent);

  const bool is_attr = node->kind_ == NodeKind::kAttribute;

  // Preorder predecessor among the already-keyed nodes (`node` is
  // already linked at `index`, so neighbours read around it).
  const Node* pred;
  if (is_attr) {
    pred = index == 0 ? parent : parent->attributes_[index - 1];
  } else if (index > 0) {
    pred = PreorderLast(parent->children_[index - 1]);
  } else if (!parent->attributes_.empty()) {
    pred = parent->attributes_.back();
  } else {
    pred = parent;
  }
  uint64_t pred_key = 0;
  if (!current_key(pred, &pred_key)) return false;

  // Preorder successor, or the end of the key region when there is none
  // (attached limit / the next detached tree-id region).
  const Node* succ = nullptr;
  if (is_attr) {
    if (index + 1 < parent->attributes_.size()) {
      succ = parent->attributes_[index + 1];
    } else if (!parent->children_.empty()) {
      succ = parent->children_.front();
    } else {
      succ = PreorderSuccessor(parent);
    }
  } else if (index + 1 < parent->children_.size()) {
    succ = parent->children_[index + 1];
  } else {
    succ = PreorderSuccessor(parent);
  }
  uint64_t succ_key = 0;
  if (succ == nullptr) {
    const Node* root = parent;
    while (root->parent_ != nullptr) root = root->parent_;
    succ_key = root == root_ ? kAttachedKeyLimit : (root->tree_id_ + 1) << 32;
  } else if (!current_key(succ, &succ_key)) {
    return false;
  }

  // Preorder slots the new subtree needs (node + attributes +
  // descendants).
  uint64_t slots = 0;
  std::function<void(const Node*)> count = [&](const Node* n) {
    slots += 1 + n->attributes_.size();
    for (const Node* c : n->children_) count(c);
  };
  count(node);

  if (succ_key <= pred_key || succ_key - pred_key <= slots) return false;
  const uint64_t step = (succ_key - pred_key) / (slots + 1);
  AssignKeysDfs(node, pred_key + step, step, cur);
  return true;
}

void VisitSubtree(Node* node, const std::function<void(Node*)>& fn) {
  fn(node);
  for (Node* c : node->children()) VisitSubtree(c, fn);
}

}  // namespace xqib::xml
