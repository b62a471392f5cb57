#include "xquery/context.h"

#include <algorithm>
#include <ctime>
#include <string_view>

#include "xquery/update.h"

namespace xqib::xquery {

// ------------------------------------------------------- StaticContext ---

namespace {

// FNV-1a, folded incrementally with a field separator so adjacent fields
// cannot collide by concatenation.
void FoldHash(uint64_t* h, std::string_view s) {
  for (unsigned char c : s) {
    *h ^= c;
    *h *= 1099511628211ULL;
  }
  *h ^= 0x1f;
  *h *= 1099511628211ULL;
}

}  // namespace

void StaticContext::AddModule(const Module& module) {
  for (const auto& fn : module.functions) {
    functions_[FunctionKey{fn->name.token(), fn->params.size()}] = fn;
  }
  for (const VarDecl& v : module.variables) {
    globals_.push_back(&v);
  }
  for (const auto& [name, value] : module.options) {
    options_[name] = value;
  }
  // Plan-cache keying (see header): non-library source text is the cache
  // key; everything else that changes what that text means — including
  // library sources, whose function bodies back compiled call targets —
  // goes into the fingerprint.
  if (!module.is_library) FoldHash(&plan_source_hash_, module.source_text);
  FoldHash(&plan_fingerprint_, module.is_library ? "lib" : "main");
  FoldHash(&plan_fingerprint_, module.source_text);
  FoldHash(&plan_fingerprint_, module.module_ns);
  FoldHash(&plan_fingerprint_, module.default_element_ns);
  for (const auto& [p, u] : module.namespaces) {
    FoldHash(&plan_fingerprint_, p);
    FoldHash(&plan_fingerprint_, u);
  }
  for (const auto& [k, v] : module.options) {
    FoldHash(&plan_fingerprint_, k);
    FoldHash(&plan_fingerprint_, v);
  }
}

const FunctionDecl* StaticContext::FindFunction(const xml::QName& name,
                                                size_t arity) const {
  auto it = functions_.find(FunctionKey{name.token(), arity});
  return it == functions_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const FunctionDecl> StaticContext::FindFunctionShared(
    const xml::QName& name, size_t arity) const {
  auto it = functions_.find(FunctionKey{name.token(), arity});
  return it == functions_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<const FunctionDecl>> StaticContext::AllFunctions()
    const {
  std::vector<std::shared_ptr<const FunctionDecl>> out;
  out.reserve(functions_.size());
  for (const auto& [key, fn] : functions_) out.push_back(fn);
  std::sort(out.begin(), out.end(),
            [](const std::shared_ptr<const FunctionDecl>& a,
               const std::shared_ptr<const FunctionDecl>& b) {
              if (a->name.Clark() != b->name.Clark()) {
                return a->name.Clark() < b->name.Clark();
              }
              return a->params.size() < b->params.size();
            });
  return out;
}

const std::string& StaticContext::option(const std::string& clark) const {
  static const std::string* empty = new std::string();
  auto it = options_.find(clark);
  return it == options_.end() ? *empty : it->second;
}

// -------------------------------------------------------- Environment ---

// Lookup semantics: scopes from the top down; the first barrier scope is
// still searched, then only globals (scope 0) remain visible. Within a
// scope, bindings are scanned back to front (Bind overwrites in place,
// so a scope never holds duplicate names).
const xdm::Sequence* Environment::Find(const xml::QName& name) const {
  const xml::InternedName* token = name.token();
  for (size_t i = scopes_.size(); i-- > 0;) {
    size_t begin = scopes_[i].start;
    size_t end =
        (i + 1 < scopes_.size()) ? scopes_[i + 1].start : bindings_.size();
    for (size_t j = end; j-- > begin;) {
      if (bindings_[j].name == token) return &bindings_[j].value;
    }
    if (scopes_[i].barrier) {
      size_t gend = scopes_.size() > 1 ? scopes_[1].start : bindings_.size();
      for (size_t j = gend; j-- > 0;) {
        if (bindings_[j].name == token) return &bindings_[j].value;
      }
      return nullptr;
    }
  }
  return nullptr;
}

void Environment::Bind(const xml::QName& name, xdm::Sequence value) {
  const xml::InternedName* token = name.token();
  for (size_t j = bindings_.size(); j-- > scopes_.back().start;) {
    if (bindings_[j].name == token) {
      bindings_[j].value = std::move(value);
      return;
    }
  }
  bindings_.push_back({token, std::move(value)});
}

Status Environment::Assign(const xml::QName& name, xdm::Sequence value) {
  xdm::Sequence* slot = FindMutable(name);
  if (slot != nullptr) {
    *slot = std::move(value);
    return Status();
  }
  return Status::Error("XPDY0002",
                       "assignment to undeclared variable $" + name.Lexical());
}

Result<xdm::Sequence> Environment::Lookup(const xml::QName& name) const {
  const xdm::Sequence* found = Find(name);
  if (found != nullptr) return *found;
  return Status::Error("XPDY0002",
                       "undefined variable $" + name.Lexical());
}

bool Environment::IsBound(const xml::QName& name) const {
  return Find(name) != nullptr;
}

xdm::Sequence* Environment::TopBinding(const xml::QName& name) {
  const xml::InternedName* token = name.token();
  for (size_t j = bindings_.size(); j-- > scopes_.back().start;) {
    if (bindings_[j].name == token) return &bindings_[j].value;
  }
  return nullptr;
}

// ------------------------------------------------------ DynamicContext ---

DynamicContext::DynamicContext() : pul_(std::make_unique<PendingUpdateList>()) {
  clock = []() {
    std::time_t t = std::time(nullptr);
    std::tm tm_buf;
    gmtime_r(&t, &tm_buf);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &tm_buf);
    return std::string(buf);
  };
}

DynamicContext::~DynamicContext() = default;

void DynamicContext::RegisterExternal(const xml::QName& name, size_t arity,
                                      ExternalFunction fn) {
  externals_[ExternalKey{name.token(), arity}] = std::move(fn);
}

const ExternalFunction* DynamicContext::FindExternal(const xml::QName& name,
                                                     size_t arity) const {
  auto it = externals_.find(ExternalKey{name.token(), arity});
  return it == externals_.end() ? nullptr : &it->second;
}

xml::Document* DynamicContext::scratch_document() {
  if (scratch_docs_.empty()) {
    scratch_docs_.push_back(std::make_unique<xml::Document>());
  }
  return scratch_docs_.front().get();
}

xml::Node* DynamicContext::AdoptDocument(std::unique_ptr<xml::Document> doc) {
  xml::Node* root = doc->root();
  scratch_docs_.push_back(std::move(doc));
  return root;
}

}  // namespace xqib::xquery
