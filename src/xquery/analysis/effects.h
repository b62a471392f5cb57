// Static effect analysis: one summary per declared function of what an
// evaluation may read, write and reach outside the page.
//
// A bottom-up abstract interpretation computes, for every declared
// function (a fixpoint over the call graph) and for every module body,
// which QName tokens an evaluation may touch. It runs once per program:
// AnalyzeProgram hands it every module at once (a page's scripts and
// inline handlers, or a main module and its libraries). The sets:
//
//   child_reads   names examined structurally — a path step naming N
//                 reads N nodes' existence, names and child lists.
//   value_reads   names whose full subtree content may be atomized or
//                 serialized (final path steps, get-style targets).
//   writes        names directly modified by XQUF primitives: the
//                 update target's name plus every element/attribute
//                 name that inserted content or a rename can introduce.
//   write_scope   writes plus the ancestor chain of a root-anchored
//                 target path — every name whose *content* the update
//                 changes. ⊤ when the target is not a root-anchored
//                 child/attribute chain of concrete names.
//
// Each set carries a ⊤ element for the unanalyzable cases: wildcard
// node tests, reverse/sideways axes, computed constructors with dynamic
// names, fn:id/fn:root/browser BOM access, dynamic update targets,
// assignment to module globals. ⊤ is absorbing under union; sets only
// grow during the fixpoint, and the name alphabet of a program is
// finite, so recursion converges without widening.
//
// The same fixpoint carries four facts about the world outside the
// page DOM (see Effects): host observation, outside reads, fabric
// writes and the static fetch URLs; and whether an evaluation runs
// statements (Effects::sequential).
//
// Consumers: the plug-in's per-listener record (memoizable, apply-pass
// skip, delta-skip read names, listener scatter), the evaluator's FLWOR
// scatter (fabric safety), and lints XQSA034/035/036.

#ifndef XQIB_XQUERY_ANALYSIS_EFFECTS_H_
#define XQIB_XQUERY_ANALYSIS_EFFECTS_H_

#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "xml/interning.h"
#include "xquery/ast.h"

namespace xqib::xquery::analysis {

// A set of interned names with a ⊤ element. `names` is kept sorted by
// pointer and deduplicated; ⊤ clears it (⊤ absorbs every name).
struct EffectSet {
  bool top = false;
  std::vector<const xml::InternedName*> names;

  void AddName(const xml::InternedName* name);
  void MakeTop();
  // Union; returns true when this set changed.
  bool AddAll(const EffectSet& other);
  bool Contains(const xml::InternedName* name) const;
  // Set intersection is non-empty. ⊤ ∩ ∅ is empty: ⊤ stands for "all
  // names", and all names intersected with nothing is nothing.
  bool Intersects(const EffectSet& other) const;
  bool empty() const { return !top && names.empty(); }
  bool operator==(const EffectSet& other) const {
    return top == other.top && names == other.names;
  }
};

struct Effects {
  EffectSet child_reads;
  EffectSet value_reads;
  EffectSet writes;
  EffectSet write_scope;
  // child_reads ∪ value_reads minus reads performed only to navigate an
  // update target path. Those still count for interference (reordering a
  // rename against an insert whose target routes through it is visible)
  // but they do not OBSERVE data, so the XQSA036 dead-update lint tests
  // written names against this set, not the full read set.
  EffectSet observed_reads;
  // Performs updates / observable host mutation (XQUF primitives,
  // global assignment, event registry or style mutation, fn:put, BOM
  // mutators, unknown code).
  bool has_update = false;
  // Shows the user something or asks them: browser:alert, prompt,
  // confirm and fn:trace.
  bool observes_host = false;
  // Reads state that is neither the page DOM nor the event: a global
  // that some `set`/`:=` assigns, fn:current-dateTime/-date/-time,
  // fn:doc, http:*, BOM access, and imported or unknown code.
  bool reads_outside = false;
  // May write the HTTP fabric, or run code that might: http:put, fn:put,
  // the other http:* extensions, event triggers, imported or unknown
  // code, body-less declarations, and browser:* other than the three
  // dialogs.
  bool writes_fabric = false;
  // Runs a Scripting Extension statement sequence: a block or while
  // loop, whose statement boundaries apply the pending updates, or
  // `exit with`; or unknown code. Such an expression may not be moved
  // across another one (the optimizer's in-place pass).
  bool sequential = false;
  // URLs of the http:get / http:get-text calls whose argument is a
  // literal or a concat of literals, deduplicated, in discovery order:
  // depth first in ForEachSubExpr order, a call's arguments before its
  // callee's URLs.
  std::vector<std::string> fetch_urls;

  // No update: a call leaves the DOM, the BOM and the globals as found.
  bool pure() const { return !has_update; }
  // Pure, observes nothing on the host and reads nothing outside the
  // page: the result is a function of the document and the event, so
  // the plug-in may replay it from its memo.
  bool memoizable() const {
    return !has_update && !observes_host && !reads_outside;
  }
  // The public ReadSet: everything a cached result may depend on.
  bool reads_top() const { return child_reads.top || value_reads.top; }
  // child_reads ∪ value_reads as a materialized set (empty when ⊤).
  std::vector<const xml::InternedName*> ReadNames() const;
  // Appends `url` unless present; returns true when it was new.
  bool AddFetchUrl(const std::string& url);
  // Union; returns true when anything changed.
  bool MergeFrom(const Effects& other);
  bool operator==(const Effects& other) const;
};

// Whether running `a` and `b` against the same document in either
// order can produce observably different results: some write of one
// may touch something the other reads or writes. Two pure bodies never
// interfere. The write/write clause keeps committed PUL primitives
// from racing on one name; the value_reads × write_scope clause makes
// a serialized ancestor conflict with updates anywhere below it.
bool Interferes(const Effects& a, const Effects& b);

// Whether a listener's recorded read-name list touches any name a
// DomDelta wrote. This is the dispatch-skip test: a memoized listener
// whose reads miss every written name cannot observe the mutation and
// need not re-run. Callers handle the ⊤-read case separately (such
// listeners record no name list and are never skipped).
bool ReadSetIntersectsWrites(
    const std::vector<const xml::InternedName*>& reads,
    const std::unordered_set<const xml::InternedName*>& written);

// Deterministic rendering (names sorted lexicographically, not by
// interning order) for `xq_lint --effects` and tests, e.g.
//   reads={item @v} writes={entry loga} scope={body entry html loga}
//   updating writes-fabric fetches=[http://a/x]
std::string RenderEffectSet(const EffectSet& set);
std::string RenderEffects(const Effects& effects);

// The analysis itself: one fixpoint over the declared functions and
// globals of every module of a program (AnalyzeProgram's modules).
class EffectAnalysis {
 public:
  void Run(const std::vector<const Module*>& modules);

  // Per-function summaries keyed by AnalysisFacts::FunctionKey
  // ("{ns}local#arity"), for every module's functions.
  const std::map<std::string, Effects>& function_effects() const {
    return functions_;
  }

  // Union of every OBSERVING read performed anywhere — all module
  // bodies plus all declared functions, excluding update-target
  // navigation. The XQSA036 dead-update check tests a write's scope
  // against this.
  const EffectSet& all_reads() const { return all_reads_; }

  // Effects of a single expression of `module` under the computed
  // function summaries (no parameter context: free variables are
  // treated as locals). Used by the analyzer for update sites.
  Effects ExprEffects(const Expr& e, const Module& module) const;

 private:
  friend class EffectWalker;

  std::map<std::string, Effects> functions_;
  // Module globals, keyed "var:{ns}local": the init expression's reads
  // stand in for every later reference to the variable.
  std::map<std::string, Effects> globals_;
  // Names targeted by `set $x := …` anywhere: references go ⊤.
  std::set<std::string> assigned_globals_;
  // Namespaces with visible declarations (local + library modules) vs.
  // service-import namespaces (calls evaluate against the remote store).
  std::set<std::string> declared_ns_;
  std::set<std::string> imported_ns_;
  EffectSet all_reads_;
};

// Effects of one expression under summaries computed earlier (an
// AnalysisFacts::function_effects map), for a caller that holds the
// facts but not the analysis: the evaluator asks whether a FLWOR may
// write the fabric before it scatters the loop's fetches. A call with
// no summary counts as unknown code.
Effects ExprEffects(const Expr& e,
                    const std::map<std::string, Effects>& functions);

}  // namespace xqib::xquery::analysis

#endif  // XQIB_XQUERY_ANALYSIS_EFFECTS_H_
