// Pull-based item streams — the lazy complement of xdm::Sequence.
//
// An ItemStream produces XDM items one Next() call at a time, so a
// pipeline of composed streams (path steps, FLWOR clauses, sequence
// concatenation) holds O(operators) state instead of materializing a
// full std::vector<Item> between every operator. Materialization stays
// an explicit, well-defined boundary: MaterializeStream drains a stream
// into a Sequence (the evaluator counts the copy as items_materialized);
// variable bindings, document-order sort barriers, XQUF snapshot
// application, serialization and the plugin API surface all live on the
// materialized side.
//
// Contract for implementations:
//   * Next() returns true and fills *out, or returns false at end (or a
//     non-OK Result on a dynamic error). After end/error, further calls
//     keep returning end/error.
//   * Next() must leave any ambient evaluation state it touches (focus,
//     variable scopes) exactly as it found it, so interleaved pulls from
//     sibling streams cannot observe each other's state.

#ifndef XQIB_XDM_STREAM_H_
#define XQIB_XDM_STREAM_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "base/result.h"
#include "xdm/arena.h"
#include "xdm/item.h"

namespace xqib::xdm {

class ItemStream {
 public:
  virtual ~ItemStream() = default;
  virtual Result<bool> Next(Item* out) = 0;
};

// Every stream operator lives in an Arena. The deleter destroys a stream
// promptly (so held resources — input streams, buffers — release at the
// usual unique_ptr points) but its memory returns only at the owning
// Arena's Reset.
struct StreamDeleter {
  void operator()(ItemStream* s) const {
    if (s != nullptr) s->~ItemStream();
  }
};

using StreamPtr = std::unique_ptr<ItemStream, StreamDeleter>;

// Allocates a stream operator on `arena` (bump pointer, reclaimed
// wholesale at Reset).
template <typename T, typename... Args>
StreamPtr MakeStream(Arena& arena, Args&&... args) {
  return StreamPtr(arena.New<T>(std::forward<Args>(args)...));
}

// The empty sequence. The evaluator passes its per-dispatch arena.
StreamPtr EmptyStream(Arena& arena);

// Exactly one item.
StreamPtr SingletonStream(Item item, Arena& arena);

// Streams an owned, already materialized sequence. SequenceStream puts
// one in an arena; a caller that outlives its pulls may keep one on its
// stack instead.
class SequenceCursor : public ItemStream {
 public:
  explicit SequenceCursor(Sequence seq) : seq_(std::move(seq)) {}
  Result<bool> Next(Item* out) override {
    if (pos_ >= seq_.size()) return false;
    *out = seq_[pos_++];
    return true;
  }

 private:
  Sequence seq_;
  size_t pos_ = 0;
};

StreamPtr SequenceStream(Sequence seq, Arena& arena);

// Lazy integer range lo..hi (empty when hi < lo) — `1 to 1000000`
// never materializes unless a consumer buffers it.
StreamPtr RangeStream(int64_t lo, int64_t hi, Arena& arena);

// Materialization boundary: drains `s` into a Sequence.
Result<Sequence> MaterializeStream(ItemStream& s);

}  // namespace xqib::xdm

#endif  // XQIB_XDM_STREAM_H_
