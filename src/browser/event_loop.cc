#include "browser/event_loop.h"

namespace xqib::browser {

void EventLoop::Post(Task task, double delay_ms) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry e;
  e.due_ms = now_ms_ + (delay_ms < 0 ? 0 : delay_ms);
  e.seq = next_seq_++;
  e.task = std::move(task);
  queue_.push(std::move(e));
}

void EventLoop::PostOffThread(OffThreadWork work, double delay_ms) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry e;
  e.due_ms = now_ms_ + (delay_ms < 0 ? 0 : delay_ms);
  e.seq = next_seq_++;
  e.work = std::move(work);
  e.off_thread = true;
  queue_.push(std::move(e));
}

bool EventLoop::RunOne() {
  // Pop the next entry — and, when it is off-thread, every further
  // off-thread entry due at the same simulated instant. Entries at a
  // later time never join the batch: a commit may post tasks that are
  // due before them and must observably run first.
  std::vector<Entry> batch;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (queue_.empty()) return false;
    // priority_queue::top() is const; moving the payload out before pop
    // is the standard idiom for move-only members.
    batch.push_back(std::move(const_cast<Entry&>(queue_.top())));
    queue_.pop();
    if (batch.front().off_thread) {
      while (!queue_.empty() && queue_.top().off_thread &&
             queue_.top().due_ms == batch.front().due_ms) {
        batch.push_back(std::move(const_cast<Entry&>(queue_.top())));
        queue_.pop();
      }
    }
  }

  if (batch.front().due_ms > now_ms_) now_ms_ = batch.front().due_ms;

  if (!batch.front().off_thread) {
    batch.front().task();
    return true;
  }

  // Off-thread batch: all works execute against the state at batch
  // start, in posting order, then the commits run in posting order.
  ++offthread_batches_;
  offthread_tasks_ += batch.size();
  std::vector<Task> commits(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].work != nullptr) commits[i] = batch[i].work();
  }
  for (Task& commit : commits) {
    if (commit != nullptr) commit();
  }
  return true;
}

size_t EventLoop::RunUntilIdle(size_t max_tasks) {
  size_t n = 0;
  while (n < max_tasks && RunOne()) ++n;
  return n;
}

}  // namespace xqib::browser
