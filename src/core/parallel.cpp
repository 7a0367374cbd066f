#include "core/parallel.hpp"

#include <algorithm>
#include <thread>

#include "common/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::core {

std::size_t parallel_phase_budget(std::size_t budget) {
  budget = std::max<std::size_t>(1, budget);
  if (budget > 1 && ThreadPool::on_worker_thread()) {
    TELEM_DIAG(::netshare::telemetry::Severity::kWarn,
               "core.parallel.oversubscribed",
               "parallel phase requested %zu threads from inside an "
               "already-parallel context; clamping to 1 to avoid "
               "oversubscription",
               budget);
    return 1;
  }
  // These phases are CPU-bound: threads beyond the physical core count only
  // add dispatch overhead and scheduler churn, so the budget is silently
  // capped at hardware_concurrency (0 = unknown, leave the request alone).
  const std::size_t cores = std::thread::hardware_concurrency();
  if (cores > 0) budget = std::min(budget, cores);
  return budget;
}

PhaseBudget split_phase_budget(std::size_t budget, std::size_t tasks,
                               const ml::kernels::KernelConfig& base) {
  PhaseBudget split;
  budget = std::max<std::size_t>(1, budget);
  split.workers = std::max<std::size_t>(1, std::min(budget, tasks));
  split.kernel_cfg = base;
  if (split.kernel_cfg.threads == 0) split.kernel_cfg.threads = budget;
  split.kernel_cfg.threads =
      std::max<std::size_t>(1, split.kernel_cfg.threads / split.workers);
  return split;
}

void run_parallel_tasks(std::size_t workers, std::size_t tasks,
                        const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  if (workers <= 1 || tasks == 1) {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  ThreadPool::shared().parallel_for(tasks, fn, workers);
}

void largest_first(std::vector<std::size_t>& ids,
                   const std::vector<std::size_t>& size) {
  std::stable_sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
    return size[a] > size[b];
  });
}

std::size_t num_ranges(std::size_t workers, std::size_t n) {
  if (n == 0) return 0;
  return std::max<std::size_t>(1, std::min(workers, n));
}

void parallel_ranges(
    std::size_t workers, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t ntasks = num_ranges(workers, n);
  if (ntasks == 1) {
    fn(0, 0, n);
    return;
  }
  const std::size_t chunk = (n + ntasks - 1) / ntasks;
  ThreadPool::shared().parallel_for(
      ntasks,
      [&](std::size_t t) {
        const std::size_t begin = t * chunk;
        const std::size_t end = std::min(n, begin + chunk);
        if (begin < end) fn(t, begin, end);
      },
      ntasks);
}

}  // namespace netshare::core
