// Fixed-size thread pool. One process-wide instance, ThreadPool::shared(),
// is the executor for every parallel phase (DESIGN.md §7): chunk
// fine-tuning and sampling (NetShare Insight 3), the stages of a
// DoppelGANger training iteration, the generation slices of offline and
// served chunk parts, the parallel postprocess ranges, and the per-chunk
// fan-out of served batches.
//
// Tasks are fire-and-forget: submit() returns nothing, and a task must not
// throw (parallel_for and Region catch every exception of the work they
// run and rethrow it on the calling thread). Destruction semantics: the
// destructor drains the queue (all already submitted tasks run) before
// joining the workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace netshare {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task that must not throw.
  void submit(std::function<void()> task);

  // Runs fn(i) for i in [0, n) with at most `max_parallel` indices in flight
  // (0 is read as 1): the calling thread claims indices in ascending order
  // alongside up to max_parallel - 1 pool helpers. The caller only ever
  // waits for indices that have already started, so the call cannot
  // deadlock — when every worker is busy (or blocked, or this is a nested
  // call from a worker) the caller simply runs every index itself. A helper
  // dequeued after the loop has finished finds no index left and touches
  // only ref-counted state. While it runs indices beside helpers the caller
  // counts as a worker for on_worker_thread(). If any invocation throws,
  // every index still runs (they share caller stack state), then the first
  // exception is rethrown.
  //
  // An index may block waiting for a *lower* index of the same call (a task
  // graph whose edges point downwards): indices are claimed in ascending
  // order, so a lower index has always been claimed by a running thread, and
  // the call completes at any max_parallel, 1 included.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t max_parallel);

  // A parallel region for a sequence of short stages (DESIGN.md §7): up to
  // width - 1 pool helpers join the calling thread once and stay until the
  // region ends, so a stage costs no wake-up (on a VM a parked worker can
  // take hundreds of microseconds to answer). run(n, fn) is one stage:
  // fn(i) for i in [0, n), the caller claiming indices beside whichever
  // helpers have joined so far, returning once all n have finished (then
  // rethrowing the first exception). The caller never waits for a helper to
  // arrive, so a region completes at any width and with every worker busy.
  // Between stages the helpers spin briefly, then park. Only the thread
  // that built the region may call run(). Helper CPU — spin included — is
  // credited to that thread like parallel_for's.
  class Region {
   public:
    Region(ThreadPool& pool, std::size_t width);
    ~Region();
    Region(const Region&) = delete;
    Region& operator=(const Region&) = delete;
    void run(std::size_t n, const std::function<void(std::size_t)>& fn);

   private:
    struct State;
    std::shared_ptr<State> state_;
    bool was_worker_;
  };

  // CPU-seconds that pool helpers have spent running indices of the calling
  // thread's caller-participating parallel_for calls (nested calls included,
  // since a helper's own tally is folded into the loop it helped). The
  // caller's own share is already in its thread_cpu_seconds(), so the sum of
  // the two deltas is the whole CPU cost of a fanned-out computation.
  static double helper_cpu_seconds();

  // The process-wide executor: hardware_concurrency() - 1 workers (at least
  // one), built on first use and never destroyed, so it stays valid for
  // work submitted during static destruction.
  static ThreadPool& shared();

  std::size_t size() const { return workers_.size(); }

  // True when the calling thread is a worker of *any* ThreadPool. Lets code
  // that is about to fan out (chunk-parallel sampling, parallel postprocess)
  // detect that it is already running inside a parallel context and clamp
  // its thread budget instead of oversubscribing the machine.
  static bool on_worker_thread();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace netshare
