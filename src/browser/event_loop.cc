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

bool EventLoop::RunOne() {
  Entry next;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (queue_.empty()) return false;
    // priority_queue::top() is const; moving the payload out before pop
    // is the standard idiom for move-only members.
    next = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
  }
  if (next.due_ms > now_ms_) now_ms_ = next.due_ms;
  next.task();
  return true;
}

size_t EventLoop::RunUntilIdle(size_t max_tasks) {
  size_t n = 0;
  while (n < max_tasks && RunOne()) ++n;
  return n;
}

}  // namespace xqib::browser
