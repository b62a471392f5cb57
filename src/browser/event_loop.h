// The browser event loop with simulated time. The browser queues DOM
// event dispatches and asynchronous completions (REST / web-service
// calls behind the paper's "behind" construct) here; benchmarks advance
// simulated time deterministically.
//
// Threading model (PERFORMANCE.md §5): every task executes on the loop
// thread — the only thread that may mutate the DOM. The queue itself is
// MPSC, so any thread may Post. Off-thread entries (PostOffThread)
// split into a read-only `work` closure and the `commit` task it
// returns. Consecutive off-thread entries due at the same simulated
// instant form one batch: all works run in posting order against the
// state at batch start, then all commits run in posting order.

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
  // Off-thread unit: `work` runs before every commit of its batch (it
  // must only read shared state) and returns the commit to run after
  // the batch's works — or an empty Task for "nothing to commit".
  using OffThreadWork = std::function<Task()>;

  // Schedules `task` to run `delay_ms` of simulated time from now. Tasks
  // with equal due time run in posting order. Thread-safe.
  void Post(Task task, double delay_ms = 0.0);

  // Schedules an off-thread unit (see above). Thread-safe.
  void PostOffThread(OffThreadWork work, double delay_ms = 0.0);

  // Runs the next due task (or the next batch of equal-due off-thread
  // entries), advancing simulated time to its deadline. Returns false
  // when the queue is empty. Loop thread only.
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

  // Off-thread accounting (tests): entries executed through
  // PostOffThread and the batches they were grouped into.
  uint64_t offthread_tasks() const { return offthread_tasks_; }
  uint64_t offthread_batches() const { return offthread_batches_; }

 private:
  struct Entry {
    double due_ms;
    uint64_t seq;
    Task task;            // regular entries
    OffThreadWork work;   // off-thread entries
    bool off_thread = false;
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
  uint64_t offthread_tasks_ = 0;
  uint64_t offthread_batches_ = 0;
};

}  // namespace xqib::browser

#endif  // XQIB_BROWSER_EVENT_LOOP_H_
