#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/stopwatch.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare {

namespace {
thread_local bool tl_pool_worker = false;
thread_local double tl_helper_cpu = 0.0;

// One caller-participating parallel_for, shared with its helpers by
// shared_ptr. `fn` is read only for a claimed index below n, and the caller
// cannot return before every such index has finished, so a late helper
// never dereferences it.
struct Loop {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t finished = 0;
  std::exception_ptr first;
  double helper_cpu = 0.0;  // CPU-seconds helpers spent on claimed indices

  // Claims and runs indices until none is left. Never throws: a task's
  // exception is kept for the caller. A helper times each index it runs
  // (its own thread CPU plus whatever its nested loops' helpers spent) so
  // the caller can account for it.
  void run(bool helper) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const double cpu0 = helper ? thread_cpu_seconds() + tl_helper_cpu : 0.0;
      std::exception_ptr err;
      try {
        (*fn)(i);
      } catch (...) {
        err = std::current_exception();
      }
      const double cpu =
          helper ? thread_cpu_seconds() + tl_helper_cpu - cpu0 : 0.0;
      std::lock_guard<std::mutex> lock(mu);
      if (err && !first) first = err;
      helper_cpu += cpu;
      if (++finished == n) cv.notify_all();
    }
  }
};

}  // namespace

bool ThreadPool::on_worker_thread() { return tl_pool_worker; }

double ThreadPool::helper_cpu_seconds() { return tl_helper_cpu; }

ThreadPool& ThreadPool::shared() {
  static ThreadPool* const pool = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return new ThreadPool(hw > 1 ? hw - 1 : 1);
  }();
  return *pool;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(packaged));
    depth = tasks_.size();
  }
  TELEM_COUNT("threadpool.tasks_submitted");
  TELEM_GAUGE_SET("threadpool.queue_depth", depth);
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  TELEM_SPAN("threadpool.parallel_for",
             {"tasks", static_cast<long long>(n)});
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  // Every queued task holds a reference to fn (caller stack state), so all
  // futures must be waited on even when one throws; only then is the first
  // exception rethrown.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_parallel) {
  if (n == 0) return;
  const std::size_t helpers =
      std::min({std::max<std::size_t>(1, max_parallel), n, size() + 1}) - 1;
  // No span here: kernel row panels and the training iteration graph call
  // this hundreds of times per iteration and would flood the span rings;
  // the coarse callers (train.finetune, serve.batch, ...) have their own.
  auto loop = std::make_shared<Loop>();
  loop->fn = &fn;
  loop->n = n;
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([loop] { loop->run(true); });
  }
  // Beside helpers the caller counts as a worker too (it may already be
  // one); run() catches every task exception, so the flag is restored.
  const bool was_worker = tl_pool_worker;
  tl_pool_worker = was_worker || helpers > 0;
  loop->run(false);
  tl_pool_worker = was_worker;
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->cv.wait(lock, [&] { return loop->finished == n; });
  tl_helper_cpu += loop->helper_cpu;
  if (loop->first) std::rethrow_exception(loop->first);
}

void ThreadPool::worker_loop() {
  tl_pool_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    std::size_t depth;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      depth = tasks_.size();
    }
    TELEM_GAUGE_SET("threadpool.queue_depth", depth);
    task();
  }
}

}  // namespace netshare
