// Statistics counters that stay accurate when bumped from several
// threads. Every stats struct in the tree (EvalStats, StreamStats,
// EventStats, arena / intern-pool / HTTP accounting) holds these instead
// of raw integers. A per-session struct is bumped by one session strand
// at a time, but the process-wide substrates (HTTP fabric, response
// cache, intern pool) count work from every strand the shared pool runs
// concurrently, and a torn or lost increment would silently corrupt the
// benchmark numbers.
//
// All operations use relaxed ordering — the counters carry no
// synchronization duty (each session's strand mutex orders the
// *data*); they only need atomicity. Copying a stats struct
// (the before/after delta idiom all over the plugin) snapshots each
// counter with a relaxed load, which is exactly the old plain-integer
// semantics on the thread that owns the struct.

#ifndef XQIB_BASE_COUNTERS_H_
#define XQIB_BASE_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <ostream>

namespace xqib::base {

class RelaxedCounter {
 public:
  constexpr RelaxedCounter(uint64_t value = 0) : v_(value) {}  // NOLINT
  RelaxedCounter(const RelaxedCounter& o)
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    v_.store(o.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(uint64_t value) {
    v_.store(value, std::memory_order_relaxed);
    return *this;
  }

  // Implicit read keeps the arithmetic call sites (`after.x - before.x`,
  // JSON emission, EXPECT_EQ) unchanged.
  operator uint64_t() const { return v_.load(std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  RelaxedCounter& operator+=(uint64_t n) {
    v_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator-=(uint64_t n) {
    v_.fetch_sub(n, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator++() { return *this += 1; }
  uint64_t operator++(int) {
    return v_.fetch_add(1, std::memory_order_relaxed);
  }

  friend std::ostream& operator<<(std::ostream& os,
                                  const RelaxedCounter& c) {
    return os << c.value();
  }

 private:
  std::atomic<uint64_t> v_;
};

// Same idea for accumulated floating-point totals (simulated latency).
// CAS loop instead of atomic<double>::fetch_add keeps this portable to
// pre-C++20 standard libraries.
class RelaxedDouble {
 public:
  constexpr RelaxedDouble(double value = 0.0) : v_(value) {}  // NOLINT
  RelaxedDouble(const RelaxedDouble& o)
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  RelaxedDouble& operator=(const RelaxedDouble& o) {
    v_.store(o.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }
  RelaxedDouble& operator=(double value) {
    v_.store(value, std::memory_order_relaxed);
    return *this;
  }

  operator double() const { return v_.load(std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

  RelaxedDouble& operator+=(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
    return *this;
  }

  friend std::ostream& operator<<(std::ostream& os, const RelaxedDouble& c) {
    return os << c.value();
  }

 private:
  std::atomic<double> v_;
};

}  // namespace xqib::base

#endif  // XQIB_BASE_COUNTERS_H_
