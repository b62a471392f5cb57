#include "xdm/stream.h"

#include <utility>

namespace xqib::xdm {

namespace {

class EmptyStreamImpl : public ItemStream {
 public:
  Result<bool> Next(Item*) override { return false; }
};

class SingletonStreamImpl : public ItemStream {
 public:
  explicit SingletonStreamImpl(Item item) : item_(std::move(item)) {}
  Result<bool> Next(Item* out) override {
    if (done_) return false;
    done_ = true;
    *out = std::move(item_);
    return true;
  }

 private:
  Item item_;
  bool done_ = false;
};

class RangeStreamImpl : public ItemStream {
 public:
  RangeStreamImpl(int64_t lo, int64_t hi) : next_(lo), hi_(hi) {}
  Result<bool> Next(Item* out) override {
    if (next_ > hi_) return false;
    *out = Item::Integer(next_++);
    return true;
  }

 private:
  int64_t next_;
  int64_t hi_;
};

}  // namespace

StreamPtr EmptyStream(Arena& arena) {
  return MakeStream<EmptyStreamImpl>(arena);
}

StreamPtr SingletonStream(Item item, Arena& arena) {
  return MakeStream<SingletonStreamImpl>(arena, std::move(item));
}

StreamPtr SequenceStream(Sequence seq, Arena& arena) {
  return MakeStream<SequenceCursor>(arena, std::move(seq));
}

StreamPtr RangeStream(int64_t lo, int64_t hi, Arena& arena) {
  return MakeStream<RangeStreamImpl>(arena, lo, hi);
}

Result<Sequence> MaterializeStream(ItemStream& s) {
  Sequence out;
  Item item;
  while (true) {
    XQ_ASSIGN_OR_RETURN(bool more, s.Next(&item));
    if (!more) break;
    out.push_back(std::move(item));
  }
  return out;
}

}  // namespace xqib::xdm
