// Pool of reusable Matrix buffers — the allocation arena for the
// steady-state-zero-allocation training hot path (DESIGN.md §6).
//
// Ownership model: one Workspace per model instance (DoppelGanger owns one;
// so does every chunk model ChunkedTrainer fine-tunes in parallel). There is
// deliberately NO global workspace: per-model pools mean chunk-parallel
// fine-tuning never shares mutable buffers across threads, so the pool needs
// no locks and TSan stays green.
//
// Usage pattern: call reset() at the top of each training update, then
// get(rows, cols) for every temporary. get() returns a buffer of exactly
// that shape whose *contents are unspecified* (stale values from the
// previous iteration) — callers overwrite or fill(). Slots are handed out in
// call order within one reset-epoch: the k-th get() of an epoch always
// returns the k-th pooled buffer, reshaped to the requested shape with a
// capacity-keeping Matrix::resize. So a deterministic call sequence maps
// each temporary to the same buffer every iteration and, once the first
// iteration has warmed the pool, get() performs no heap allocation; a
// sequence whose shapes vary (decode batches of varying size) reuses the
// same slots instead of growing a pool per distinct shape, and the footprint
// stays at the largest epoch's.
#pragma once

#include <memory>
#include <vector>

#include "ml/matrix.hpp"

namespace netshare::ml {

class Workspace {
 public:
  // A rows x cols buffer with unspecified contents, valid until the next
  // reset(). Stable address: pooled matrices live behind unique_ptr, so
  // references survive pool growth.
  Matrix& get(std::size_t rows, std::size_t cols);

  // Marks every pooled buffer reusable. No memory is released; the next
  // epoch's get() calls re-issue the same buffers in call order.
  void reset() { next_ = 0; }

  // Observability (bench / tests): pool footprint — buffers, and the
  // element capacity they hold.
  std::size_t pooled_buffers() const { return slots_.size(); }
  std::size_t pooled_doubles() const;

 private:
  std::vector<std::unique_ptr<Matrix>> slots_;
  std::size_t next_ = 0;  // next slot get() hands out this epoch
};

}  // namespace netshare::ml
