// Process-wide interning pool for namespace URIs, local names, prefixes
// and (namespace, local) QName identities.
//
// Every string handed out is address-stable for the life of the process,
// so two interned strings are equal iff their pointers are equal, and two
// QNames are equal iff their InternedName pointers are equal. This turns
// the hot name comparisons in the evaluator (node tests, name-index
// lookups, variable/function keys) into single pointer compares and
// removes the per-comparison string copies the old value-type QName paid.
//
// The pool is guarded by a shared mutex: lookups of already-interned
// names (the steady state once a page is parsed) take a shared lock only.

#ifndef XQIB_XML_INTERNING_H_
#define XQIB_XML_INTERNING_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace xqib::xml {

// One interned (namespace URI, local name) identity. The pointer itself
// is the token: equal QNames share one InternedName per process.
struct InternedName {
  const std::string* ns;
  const std::string* local;
};

// Interns `s`, returning the stable pointer shared by all equal strings.
const std::string* InternString(std::string_view s);

// Interns the (ns, local) identity of a QName.
const InternedName* InternName(std::string_view ns, std::string_view local);

// Cumulative, process-wide pool statistics. hits/misses are monotone
// counters (benchmarks and the dispatch counters' intern_hits report
// per-window deltas).
struct InternPoolStats {
  uint64_t hits = 0;     // lookups that found an existing entry
  uint64_t misses = 0;   // lookups that had to insert
  uint64_t strings = 0;  // distinct strings currently held
  uint64_t names = 0;    // distinct (ns, local) pairs currently held
};
InternPoolStats GetInternStats();

}  // namespace xqib::xml

#endif  // XQIB_XML_INTERNING_H_
