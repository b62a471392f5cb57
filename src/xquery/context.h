// Static and dynamic evaluation contexts (XQuery §2.1). The dynamic
// context carries the hooks through which the engine reaches its host:
// the document resolver, the external-function registry (browser:*,
// http:*), the browser binding for the grammar extensions, the pending
// update list, and a controllable clock.

#ifndef XQIB_XQUERY_CONTEXT_H_
#define XQIB_XQUERY_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "xdm/arena.h"
#include "xdm/item.h"
#include "xml/dom.h"
#include "xquery/ast.h"

namespace xqib::xquery {

class DynamicContext;
class PendingUpdateList;
class Profiler;

// Host-provided native function: args are already-evaluated sequences.
using ExternalFunction = std::function<Result<xdm::Sequence>(
    std::vector<xdm::Sequence>& args, DynamicContext& ctx)>;

// Scatter-gather prefetch hook (async federation): the evaluator hands
// statically-known remote GET URLs here before a tuple loop or listener
// body runs, so their simulated round trips overlap on the fabric's
// virtual clock. net::HttpPrefetcher implements it over
// HttpFabric::Fetch; the http:get externals consume the issued futures.
class UrlPrefetcher {
 public:
  virtual ~UrlPrefetcher() = default;
  virtual void Prefetch(const std::string& url) = 0;
};

// Host hooks for the paper's browser grammar extensions (§4.3-4.5).
// Implemented by the plugin; absent outside the browser.
class BrowserBinding {
 public:
  virtual ~BrowserBinding() = default;

  virtual Status AttachListener(const std::string& event_name,
                                const xdm::Sequence& targets,
                                const xml::QName& listener,
                                DynamicContext& ctx) = 0;
  virtual Status DetachListener(const std::string& event_name,
                                const xdm::Sequence& targets,
                                const xml::QName& listener,
                                DynamicContext& ctx) = 0;
  virtual Status TriggerEvent(const std::string& event_name,
                              const xdm::Sequence& targets,
                              DynamicContext& ctx) = 0;
  // "on event E behind <call> attach listener L": schedules the call
  // asynchronously; L fires with ($readyState, $result) signals (§4.4).
  virtual Status AttachBehind(const std::string& event_name,
                              const Expr& call_expr,
                              const xml::QName& listener,
                              DynamicContext& ctx) = 0;
  virtual Status SetStyle(const std::string& property,
                          const xdm::Sequence& targets,
                          const std::string& value, DynamicContext& ctx) = 0;
  virtual Result<std::string> GetStyle(const std::string& property,
                                       const xdm::Sequence& target,
                                       DynamicContext& ctx) = 0;
};

// Compile-time context: user functions and global variables gathered
// from the main module and imported library modules.
class StaticContext {
 public:
  // Registers the declarations of `module`. Later registrations win on
  // name clash (import shadowing is an error in real XQuery; we keep the
  // permissive behaviour browsers favour).
  void AddModule(const Module& module);

  const FunctionDecl* FindFunction(const xml::QName& name,
                                   size_t arity) const;

  // Global variable declarations in registration order.
  const std::vector<const VarDecl*>& global_variables() const {
    return globals_;
  }

  const std::string& option(const std::string& clark) const;

 private:
  // Functions key on the interned name token + arity: no string is
  // built per FindFunction call.
  struct FunctionKey {
    const xml::InternedName* name;
    size_t arity;
    friend bool operator==(const FunctionKey& a, const FunctionKey& b) {
      return a.name == b.name && a.arity == b.arity;
    }
  };
  struct FunctionKeyHash {
    size_t operator()(const FunctionKey& k) const noexcept {
      return std::hash<const void*>{}(k.name) * 31 + k.arity;
    }
  };
  std::unordered_map<FunctionKey, std::shared_ptr<FunctionDecl>,
                     FunctionKeyHash>
      functions_;
  std::vector<const VarDecl*> globals_;
  std::unordered_map<std::string, std::string> options_;
};

// Variable environment: a stack of scopes. Function calls push a barrier
// scope: lookups stop there and fall through only to globals (scope 0).
//
// Representation: one flat vector of (token, value) bindings plus a
// vector of scope marks. PushScope/PopScope are O(1) integer pushes —
// no per-scope hash map is ever built — and lookups compare interned
// name tokens while scanning the (small) open scopes back to front.
// This is the hot path of every FLWOR tuple and function call.
class Environment {
 public:
  Environment() { scopes_.push_back({0, false}); }

  void PushScope(bool barrier = false) {
    scopes_.push_back({bindings_.size(), barrier});
  }
  void PopScope() {
    bindings_.resize(scopes_.back().start);
    scopes_.pop_back();
  }

  void Bind(const xml::QName& name, xdm::Sequence value);
  // Rebinds an existing variable (scripting assignment); error XPDY0002
  // if the variable is not in scope.
  Status Assign(const xml::QName& name, xdm::Sequence value);
  Result<xdm::Sequence> Lookup(const xml::QName& name) const;
  bool IsBound(const xml::QName& name) const;

  // The value bound to `name` in the innermost (top) scope, or null.
  // FlworStream uses this to move a binding's buffer out before popping
  // the scope, so re-establishing tuple scopes allocates nothing.
  xdm::Sequence* TopBinding(const xml::QName& name);

  // Zero-copy view of the innermost binding (same resolution as Lookup),
  // or null if unbound. Invalidated by any Bind/PushScope/PopScope —
  // callers must copy out what they need before touching the
  // environment again.
  const xdm::Sequence* Peek(const xml::QName& name) const {
    return Find(name);
  }

  // Calls fn(value) for every binding of every open scope.
  template <typename Fn>
  void ForEachValue(Fn fn) const {
    for (const Binding& b : bindings_) fn(b.value);
  }

 private:
  struct Binding {
    const xml::InternedName* name;
    xdm::Sequence value;
  };
  struct ScopeMark {
    size_t start;  // index of the scope's first binding in bindings_
    bool barrier;
  };

  const xdm::Sequence* Find(const xml::QName& name) const;
  xdm::Sequence* FindMutable(const xml::QName& name) {
    return const_cast<xdm::Sequence*>(Find(name));
  }

  std::vector<Binding> bindings_;
  std::vector<ScopeMark> scopes_;
};

// The documents a release (DynamicContext::ReleaseUnreached) keeps: each
// root marks the document of every node it holds. A node is placed by
// comparing its address with the candidates' node slabs, never by
// reading it, so a root may hold a node of a document that is gone.
class DocumentMarks {
 public:
  explicit DocumentMarks(
      const std::vector<std::unique_ptr<xml::Document>>& candidates);

  void Mark(const xml::Node* node);
  void Mark(const xdm::Sequence& seq) {
    for (const xdm::Item& item : seq) {
      if (item.is_node()) Mark(item.node());
    }
  }
  // Marks every unmarked candidate `held(doc)` answers true for.
  template <typename Fn>
  void MarkHeld(Fn held) {
    for (size_t i = 0; i < marked_.size(); ++i) {
      if (!marked_[i] && held(candidates_[i].get())) marked_[i] = true;
    }
  }
  bool marked(size_t i) const { return marked_[i]; }

 private:
  struct Range {
    const xml::Node* begin;
    const xml::Node* end;
    size_t doc;  // index into candidates_
  };
  const std::vector<std::unique_ptr<xml::Document>>& candidates_;
  std::vector<Range> ranges_;  // sorted by address
  std::vector<bool> marked_;
};

// Run-time context.
class DynamicContext {
 public:
  DynamicContext();
  ~DynamicContext();

  Environment& env() { return env_; }

  // --- focus (context item / position / size) ---
  struct Focus {
    xdm::Item item;
    int64_t position = 0;
    int64_t size = 0;
    bool has_item = false;
  };
  const Focus& focus() const { return focus_; }
  void set_focus(Focus f) { focus_ = std::move(f); }

  // --- host hooks ---
  using DocResolver =
      std::function<Result<xml::Node*>(const std::string& uri)>;
  // fn:doc. Null (and in the browser profile always) -> error per §4.2.1.
  DocResolver doc_resolver;
  // fn:put (server profile only; blocked in the browser per §4.2.1).
  using DocWriter =
      std::function<Status(const std::string& uri, const xml::Node* node)>;
  DocWriter doc_writer;
  // The browser profile blocks fn:doc / fn:put (paper §4.2.1).
  bool browser_profile = false;

  BrowserBinding* browser_binding = nullptr;

  // fn:current-dateTime etc. Returns ISO-8601 "YYYY-MM-DDThh:mm:ss".
  std::function<std::string()> clock;

  // fn:trace / browser:alert sink (tests capture this).
  std::function<void(const std::string&)> trace_sink;

  // External (native) functions keyed by interned name token + arity.
  void RegisterExternal(const xml::QName& name, size_t arity,
                        ExternalFunction fn);
  const ExternalFunction* FindExternal(const xml::QName& name,
                                       size_t arity) const;

  // The construction document of the current dispatch: constructed
  // nodes, copies, $evt and materialized BOM trees live here. It is
  // never an adopted document, and a release ends it: the next
  // construction starts a fresh one.
  xml::Document* scratch_document();
  // Takes ownership of a document whose nodes flow into results (e.g.
  // REST responses parsed by http:get). Returns its root node.
  xml::Node* AdoptDocument(std::unique_ptr<xml::Document> doc);

  // Ends what the dispatch built: destroys every owned document (the
  // construction document, adopted responses, documents kept from
  // earlier dispatches) that no root reaches. The roots here are the
  // environment's bindings and the focus; `mark_host_roots` marks the
  // host's own (pending work, listener targets). The host discards the
  // pending update list first, so it holds nothing here. A reached
  // document survives whole and is a candidate again at the next
  // release. Without a release (a plain Engine run) every document
  // lives as long as the context.
  void ReleaseUnreached(
      const std::function<void(DocumentMarks&)>& mark_host_roots);
  // True when `node` lies in a document this context owns (by address).
  bool OwnsNode(const xml::Node* node) const;
  // Calls fn(doc) for every document this context owns.
  template <typename Fn>
  void ForEachDocument(Fn fn) const {
    if (construction_ != nullptr) fn(construction_.get());
    for (const auto& doc : documents_) fn(doc.get());
  }
  // Documents this context owns, and the nodes they hold.
  size_t owned_documents() const {
    return documents_.size() + (construction_ != nullptr ? 1 : 0);
  }
  size_t owned_nodes() const;

  // --- pending updates (XQuery Update Facility) ---
  PendingUpdateList& pul() { return *pul_; }

  // Per-dispatch arena for stream operators and other evaluation
  // transients. The host (plugin / engine) calls arena().Reset() after
  // an evaluation round's XQUF apply pass, when no streams are live.
  xdm::Arena& arena() { return arena_; }

  // Optional query profiler (§7 future-work tooling); owned by caller.
  Profiler* profiler = nullptr;

  // Async-federation prefetch sink (owned by the host; null when the
  // ablation is off or no fabric is wired).
  UrlPrefetcher* prefetcher = nullptr;

  // Bounded evaluation note: the PR 2 EvalLimit arm/consume protocol
  // that used to live here is gone — early exit is now a property of
  // the stream operators themselves (a bounded consumer simply stops
  // calling ItemStream::Next), see Evaluator::EvalStream.

  // Recursion guard.
  int call_depth = 0;
  static constexpr int kMaxCallDepth = 512;

 private:
  struct ExternalKey {
    const xml::InternedName* name;
    size_t arity;
    friend bool operator==(const ExternalKey& a, const ExternalKey& b) {
      return a.name == b.name && a.arity == b.arity;
    }
  };
  struct ExternalKeyHash {
    size_t operator()(const ExternalKey& k) const noexcept {
      return std::hash<const void*>{}(k.name) * 31 + k.arity;
    }
  };

  Environment env_;
  Focus focus_;
  std::unordered_map<ExternalKey, ExternalFunction, ExternalKeyHash>
      externals_;
  std::unique_ptr<xml::Document> construction_;
  // Adopted responses and documents kept from earlier dispatches.
  std::vector<std::unique_ptr<xml::Document>> documents_;
  std::unique_ptr<PendingUpdateList> pul_;
  xdm::Arena arena_;
};

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_CONTEXT_H_
