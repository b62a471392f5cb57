// The browser event loop with simulated time. The browser queues DOM
// event dispatches and asynchronous completions (REST / web-service
// calls behind the paper's "behind" construct) here; benchmarks advance
// simulated time deterministically.
//
// Threading model (PERFORMANCE.md §5): every task executes on the loop
// thread — the only thread that may mutate the DOM. The queue itself is
// MPSC, so any thread may Post. A `behind` completion is just a later
// task (paper §4.4): it runs alone, after every task due before it and
// after the tasks posted before it at the same instant.

#ifndef XQIB_BROWSER_EVENT_LOOP_H_
#define XQIB_BROWSER_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

namespace xqib::browser {

class EventLoop {
 public:
  using Task = std::function<void()>;

  // Schedules `task` to run `delay_ms` of simulated time from now. Tasks
  // with equal due time run in posting order. Thread-safe.
  void Post(Task task, double delay_ms = 0.0);

  // Runs the next due task, advancing simulated time to its deadline.
  // Returns false when the queue is empty. Loop thread only.
  bool RunOne();

  // Drains the queue; returns the number of tasks run. `max_tasks` guards
  // against runaway task chains. Loop thread only.
  size_t RunUntilIdle(size_t max_tasks = 1u << 20);

  bool idle() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.empty();
  }
  size_t pending() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
  }
  double now_ms() const { return now_ms_; }

 private:
  struct Entry {
    double due_ms;
    uint64_t seq;
    Task task;
    bool operator>(const Entry& other) const {
      if (due_ms != other.due_ms) return due_ms > other.due_ms;
      return seq > other.seq;
    }
  };

  mutable std::mutex mu_;  // guards queue_ and next_seq_
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  uint64_t next_seq_ = 0;
  // Loop-thread-only state.
  double now_ms_ = 0.0;
};

}  // namespace xqib::browser

#endif  // XQIB_BROWSER_EVENT_LOOP_H_
