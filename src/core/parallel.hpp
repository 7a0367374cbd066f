// Thread-budget helpers shared by the parallel generation path and the
// parallel preprocess/postprocess stages (DESIGN.md §7).
//
// All of them preserve determinism: the helpers only decide *where* work
// runs, and every parallel loop in core writes disjoint outputs computed
// from per-task state, so results are identical at any worker count.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "ml/kernels.hpp"

namespace netshare::core {

// Thread budget a new parallel phase may actually use: `budget` normally,
// clamped to 1 (printing a one-line oversubscription warning to stderr) when
// the caller is already inside a parallel context — a ThreadPool worker —
// where fanning out the full budget would oversubscribe the machine. At top
// level the budget is additionally capped at
// std::thread::hardware_concurrency() (silently; 0 = unknown leaves the
// request alone): these phases are CPU-bound, so extra threads beyond the
// physical cores only add dispatch overhead.
std::size_t parallel_phase_budget(std::size_t budget);

// Splits `budget` between task-level workers and per-worker widths, as
// ChunkedTrainer does for its training phases: workers = min(budget, tasks),
// and the width (base.threads, or `budget` when that is 0) is divided by the
// worker count so workers x width ~= budget. kernel_cfg.threads is that
// per-worker width; the KernelConfig types belong to the perfbench shim
// (ml/kernels.hpp).
struct PhaseBudget {
  std::size_t workers = 1;
  ml::kernels::KernelConfig kernel_cfg;
};
PhaseBudget split_phase_budget(std::size_t budget, std::size_t tasks,
                               const ml::kernels::KernelConfig& base);

// Runs fn(i) for i in [0, tasks): on the calling thread when workers <= 1,
// otherwise on the shared executor with the calling thread taking part and
// at most `workers` tasks in flight (ThreadPool::parallel_for). fn must
// write disjoint state per index.
void run_parallel_tasks(std::size_t workers, std::size_t tasks,
                        const std::function<void(std::size_t)>& fn);

// Orders task ids by size[id], largest first (ties keep their order). Tasks
// are claimed in index order, so the longest task then starts at once and
// the phase takes about as long as it, not a short task plus it.
void largest_first(std::vector<std::size_t>& ids,
                   const std::vector<std::size_t>& size);

// Runs fn(range_index, begin, end) over up to `workers` contiguous, disjoint
// ranges covering [0, n) on the shared executor; serial when workers <= 1.
// Range boundaries and indices depend only on (workers, n), never on
// scheduling, so per-range partial results indexed by range_index merge
// deterministically.
void parallel_ranges(
    std::size_t workers, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

// Number of ranges parallel_ranges(workers, n, ...) will invoke — the size
// to use for per-range partial-result buffers.
std::size_t num_ranges(std::size_t workers, std::size_t n);

}  // namespace netshare::core
