#include "ml/workspace.hpp"

namespace netshare::ml {

Matrix& Workspace::get(std::size_t rows, std::size_t cols) {
  if (next_ == slots_.size()) {
    slots_.push_back(std::make_unique<Matrix>(rows, cols));
    return *slots_[next_++];
  }
  Matrix& m = *slots_[next_++];
  // A slot that must grow is rebuilt at exactly the new size: growing it in
  // place would let std::vector round the capacity up past the largest
  // shape this slot is ever asked for.
  if (rows * cols > m.data().capacity()) {
    m = Matrix(rows, cols);
  } else {
    m.resize(rows, cols);
  }
  return m;
}

kernels::TunePlan Workspace::tune_plan(kernels::TuneOp op, std::size_t rows,
                                       std::size_t inner, std::size_t cols) {
  // Key mixes the op into the packed shape key; collisions only cost an
  // extra delegate call, never a wrong plan, because the global memo is the
  // authority and decided plans are immutable.
  const std::uint64_t key = (static_cast<std::uint64_t>(op) << 60) ^
                            (static_cast<std::uint64_t>(rows) << 40) ^
                            (static_cast<std::uint64_t>(inner) << 20) ^
                            static_cast<std::uint64_t>(cols);
  auto it = plans_.find(key);
  if (it != plans_.end()) return it->second;
  const kernels::TunePlan plan = kernels::tuned_plan(op, rows, inner, cols);
  if (plan.decided) plans_.emplace(key, plan);
  return plan;
}

std::size_t Workspace::pooled_doubles() const {
  std::size_t n = 0;
  for (const auto& m : slots_) n += m->data().capacity();
  return n;
}

}  // namespace netshare::ml
