// A small work-stealing worker pool — the page server's shared pool,
// which runs session strand drains (PERFORMANCE.md §5, §9). Each worker
// owns a deque: its own work pops LIFO (cache-warm), idle workers steal
// FIFO from victims (oldest task first, the classic Chase-Lev
// discipline in mutex-guarded form — task bodies here are whole session
// drains, microseconds to milliseconds, so lock cost is noise).
//
// Wake rule: `pending_` counts tasks queued *or running*, and an idle
// worker sleeps only when it is zero. So while any drain runs, idle
// workers keep re-polling every queue instead of sleeping.
//
// Why the pool stays as it is: two prototypes that changed only the
// pool were slower end to end (perfbench/ with the BENCHMARK.json
// command, alternating pairs against this pool, 4 vCPUs, every run
// correct with 0 failures). Change of event_p50_us (p50) and
// throughput_eps (eps) against this pool:
//
//   variant (pairs)                cart p50  cart eps  mashup eps  browse eps
//   one FIFO, idle workers sleep (5)  +9.3%    -7.8%    -10.9%      -11.7%
//   one FIFO, this wake rule (4)      +6.1%   -12.5%    -11%        -13.4%
//
// (mashup eps of the second row: the 2 pairs without host steal.) The
// FIFO that keeps this wake rule loses too, so sleeping is not the
// whole cost; which part of the per-worker deques wins was not split.

// The pool is deliberately oblivious to XQuery: it runs closures. All
// ordering guarantees (per-session FIFO, one drain at a time) live in
// the caller, server::Session.

#ifndef XQIB_BASE_THREAD_POOL_H_
#define XQIB_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/counters.h"

namespace xqib::base {

class ThreadPool {
 public:
  // A pool of `workers` threads. Zero is legal and means "no threads":
  // Submit runs inline — the serial baseline every determinism oracle
  // compares against.
  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Fire-and-forget. Tasks may themselves Submit; they must not block on
  // other pool tasks.
  void Submit(std::function<void()> task);

  struct Stats {
    RelaxedCounter submitted;
    RelaxedCounter stolen;    // tasks executed by a non-owning worker
  };
  const Stats& stats() const { return stats_; }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerMain(size_t self);
  // Pops own-back or steals a victim's front. Returns false if no work
  // was found anywhere.
  bool FindWork(size_t self, std::function<void()>* out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> next_queue_{0};
  std::atomic<size_t> pending_{0};
  Stats stats_;
};

}  // namespace xqib::base

#endif  // XQIB_BASE_THREAD_POOL_H_
