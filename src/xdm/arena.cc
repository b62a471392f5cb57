#include "xdm/arena.h"

#include <algorithm>

namespace xqib::xdm {

void* Arena::Allocate(size_t bytes, size_t align) {
  Slab* slab = SlabFor(bytes + align);
  size_t base = reinterpret_cast<size_t>(slab->data.get()) + slab->used;
  size_t aligned = (base + align - 1) & ~(align - 1);
  size_t padding = aligned - base;
  slab->used += padding + bytes;
  stats_.bytes_used += bytes;
  stats_.live_bytes += bytes;
  return reinterpret_cast<void*>(aligned);
}

Arena::Slab* Arena::SlabFor(size_t bytes) {
  // Advance through retained slabs before growing.
  while (active_ < slabs_.size()) {
    Slab& s = slabs_[active_];
    if (s.size - s.used >= bytes) return &s;
    ++active_;
  }
  // Each slab doubles its predecessor up to kDefaultSlabBytes; an
  // oversized request gets a slab of its own size.
  const size_t grown = slabs_.empty()
                           ? kFirstSlabBytes
                           : std::min(2 * slabs_.back().size, kDefaultSlabBytes);
  Slab fresh;
  fresh.size = std::max(grown, bytes);
  fresh.data = std::make_unique_for_overwrite<char[]>(fresh.size);
  slabs_.push_back(std::move(fresh));
  stats_.slabs = slabs_.size();
  stats_.slab_bytes += slabs_.back().size;
  active_ = slabs_.size() - 1;
  return &slabs_.back();
}

void Arena::Reset() {
  for (Slab& s : slabs_) s.used = 0;
  active_ = 0;
  ++stats_.resets;
  stats_.live_bytes = 0;
}

}  // namespace xqib::xdm
