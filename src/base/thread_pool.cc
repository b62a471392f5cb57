#include "base/thread_pool.h"

namespace xqib::base {

ThreadPool::ThreadPool(size_t workers) {
  queues_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    // Empty critical section: pairs with the wait's predicate check so a
    // worker between "predicate false" and "sleep" still sees the stop.
    std::lock_guard<std::mutex> lk(wake_mu_);
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  ++stats_.submitted;
  if (workers_.empty()) {
    task();
    return;
  }
  size_t victim =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lk(queues_[victim]->mu);
    queues_[victim]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  wake_cv_.notify_one();
}

bool ThreadPool::FindWork(size_t self, std::function<void()>* out) {
  // Own queue first, newest task (LIFO: it is the cache-warm one).
  {
    WorkerQueue& q = *queues_[self];
    std::lock_guard<std::mutex> lk(q.mu);
    if (!q.tasks.empty()) {
      *out = std::move(q.tasks.back());
      q.tasks.pop_back();
      return true;
    }
  }
  // Steal oldest-first from the others, starting just past ourselves so
  // thieves spread out instead of mobbing queue 0.
  for (size_t i = 1; i < queues_.size(); ++i) {
    WorkerQueue& q = *queues_[(self + i) % queues_.size()];
    std::lock_guard<std::mutex> lk(q.mu);
    if (!q.tasks.empty()) {
      *out = std::move(q.tasks.front());
      q.tasks.pop_front();
      ++stats_.stolen;
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerMain(size_t self) {
  std::function<void()> task;
  while (true) {
    if (FindWork(self, &task)) {
      task();
      task = nullptr;
      pending_.fetch_sub(1, std::memory_order_release);
      continue;
    }
    std::unique_lock<std::mutex> lk(wake_mu_);
    wake_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

}  // namespace xqib::base
