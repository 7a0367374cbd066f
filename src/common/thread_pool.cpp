#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
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

// Spin budget of a region's waits before parking: long enough to cover the
// serial work between two stages (a clip-norm sum, the loss seeds).
constexpr auto kRegionSpin = std::chrono::microseconds(100);

// Spins on `ready` for up to kRegionSpin; true once it holds.
template <typename Ready>
bool spin_until(const Ready& ready) {
  const auto until = std::chrono::steady_clock::now() + kRegionSpin;
  for (unsigned k = 0;; ++k) {
    if (ready()) return true;
    if ((k & 63) == 63 && std::chrono::steady_clock::now() > until) {
      return false;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

}  // namespace

// Stage hand-off. `ticket` packs the stage number (high 32 bits) with the
// next index to claim (low 32 bits), so a claim names its stage; fn and n
// live in a slot per stage parity. The caller publishes stage s + 1 only
// after stage s has finished and no helper is between its claim and the
// end of the index it claimed (`active` == 0), so the slot a helper reads
// is never the one being rewritten.
struct ThreadPool::Region::State {
  std::atomic<std::uint64_t> ticket{0};
  const std::function<void(std::size_t)>* fn[2] = {nullptr, nullptr};
  std::size_t n[2] = {0, 0};
  std::atomic<std::size_t> finished{0};
  std::atomic<int> active{0};    // helpers between a claim and its end
  std::atomic<int> inside{0};    // helpers that have joined and not left
  std::atomic<int> sleepers{0};  // helpers parked on cv
  std::atomic<bool> caller_parked{false};
  std::atomic<bool> ended{false};
  std::mutex mu;
  std::condition_variable cv, done_cv;
  std::exception_ptr first;  // guarded by mu
  double helper_cpu = 0.0;   // guarded by mu

  static std::uint32_t stage_of(std::uint64_t t) {
    return static_cast<std::uint32_t>(t >> 32);
  }

  // Claims and runs indices of the current stage until none is left.
  void claim_all() {
    for (;;) {
      active.fetch_add(1);
      const std::uint64_t t = ticket.fetch_add(1);
      const std::uint32_t s = stage_of(t);
      const std::size_t i = static_cast<std::uint32_t>(t);
      if (i >= n[s & 1]) {
        active.fetch_sub(1);
        return;
      }
      std::exception_ptr err;
      try {
        (*fn[s & 1])(i);
      } catch (...) {
        err = std::current_exception();
      }
      if (err) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first) first = err;
      }
      const bool last = finished.fetch_add(1) + 1 == n[s & 1];
      active.fetch_sub(1);
      if (last && caller_parked.load()) {
        std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_all();
      }
    }
  }

  void helper() {
    inside.fetch_add(1);
    const double cpu0 = thread_cpu_seconds() + tl_helper_cpu;
    std::uint32_t seen = 0;  // stage 0 is "none yet"
    for (;;) {
      const auto moved = [&] {
        return ended.load() || stage_of(ticket.load()) != seen;
      };
      if (!spin_until(moved)) {
        std::unique_lock<std::mutex> lock(mu);
        sleepers.fetch_add(1);
        cv.wait(lock, moved);
        sleepers.fetch_sub(1);
      }
      if (ended.load()) break;
      seen = stage_of(ticket.load());
      claim_all();
    }
    const double cpu = thread_cpu_seconds() + tl_helper_cpu - cpu0;
    {
      std::lock_guard<std::mutex> lock(mu);
      helper_cpu += cpu;
    }
    inside.fetch_sub(1);
  }
};

ThreadPool::Region::Region(ThreadPool& pool, std::size_t width)
    : state_(std::make_shared<State>()), was_worker_(tl_pool_worker) {
  const std::size_t helpers =
      std::min(std::max<std::size_t>(1, width), pool.size() + 1) - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([st = state_] { st->helper(); });
  }
  // Beside helpers the caller counts as a worker, as in parallel_for.
  tl_pool_worker = was_worker_ || helpers > 0;
}

ThreadPool::Region::~Region() {
  State& st = *state_;
  st.ended.store(true);
  if (st.sleepers.load() > 0) {
    std::lock_guard<std::mutex> lock(st.mu);
    st.cv.notify_all();
  }
  // A helper still queued finds the region ended and leaves at once; one
  // inside is at most finishing its spin.
  while (st.inside.load() > 0) std::this_thread::yield();
  std::lock_guard<std::mutex> lock(st.mu);
  tl_helper_cpu += st.helper_cpu;
  tl_pool_worker = was_worker_;
}

void ThreadPool::Region::run(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  State& st = *state_;
  // The previous stage has finished; wait out helpers still between a
  // claim past its end and their next look at the ticket.
  while (st.active.load() > 0) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  const std::uint32_t s = State::stage_of(st.ticket.load()) + 1;
  st.fn[s & 1] = &fn;
  st.n[s & 1] = n;
  st.finished.store(0);
  st.ticket.store(static_cast<std::uint64_t>(s) << 32);
  if (st.sleepers.load() > 0) {
    std::lock_guard<std::mutex> lock(st.mu);
    st.cv.notify_all();
  }
  st.claim_all();
  const auto done = [&] { return st.finished.load() == n; };
  if (!spin_until(done)) {
    std::unique_lock<std::mutex> lock(st.mu);
    st.caller_parked.store(true);
    st.done_cv.wait(lock, done);
    st.caller_parked.store(false);
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    std::swap(err, st.first);
  }
  if (err) std::rethrow_exception(err);
}

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
  // No span here: the training iteration's stages call this hundreds of
  // times per iteration and would flood the span rings;
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
