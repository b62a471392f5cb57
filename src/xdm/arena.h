// Bump/slab arena for per-dispatch transients.
//
// The evaluator allocates its stream operators (and other short-lived
// scaffolding) out of an Arena owned by the DynamicContext instead of
// the heap: Allocate is a pointer bump, and after an evaluation round
// completes (for the plugin: after the XQUF apply pass of one event
// dispatch) the whole arena is Reset wholesale — slabs are kept and
// reused, so steady-state dispatch performs no allocator traffic at all.
//
// Lifetime contract: Reset() does NOT run destructors. Objects with
// non-trivial destructors must be destroyed explicitly before Reset —
// the stream pipeline does this through xdm::StreamPtr's deleter, which
// runs ~ItemStream() but returns the memory to the arena only at Reset.
// The arena is single-threaded, like the DynamicContext that owns it.

#ifndef XQIB_XDM_ARENA_H_
#define XQIB_XDM_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "base/counters.h"

namespace xqib::xdm {

class Arena {
 public:
  static constexpr size_t kDefaultSlabBytes = 64 * 1024;

  explicit Arena(size_t slab_bytes = kDefaultSlabBytes)
      : slab_bytes_(slab_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump-allocates `bytes` with `align` alignment.
  void* Allocate(size_t bytes, size_t align);

  // Placement-constructs a T in the arena. The caller owns destruction
  // (see the lifetime contract above).
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    void* p = Allocate(sizeof(T), alignof(T));
    return new (p) T(std::forward<Args>(args)...);
  }

  // Reclaims every allocation wholesale. Slabs are retained and reused;
  // no destructors run.
  void Reset();

  // Counters are relaxed atomics, like every stats block in the
  // process, so a reader on another thread never sees a torn value; the
  // arena's allocation path itself stays single-threaded per owner.
  struct Stats {
    base::RelaxedCounter bytes_used;  // cumulative bytes handed out
    base::RelaxedCounter resets;      // Reset() calls (monotone)
    base::RelaxedCounter slabs;       // slabs currently held
    base::RelaxedCounter live_bytes;  // bytes handed out since last Reset
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Slab {
    std::unique_ptr<char[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  Slab* SlabFor(size_t bytes);

  size_t slab_bytes_;
  std::vector<Slab> slabs_;
  size_t active_ = 0;  // index of the slab currently being bumped
  Stats stats_;
};

}  // namespace xqib::xdm

#endif  // XQIB_XDM_ARENA_H_
