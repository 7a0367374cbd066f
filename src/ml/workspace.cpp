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

std::size_t Workspace::pooled_doubles() const {
  std::size_t n = 0;
  for (const auto& m : slots_) n += m->data().capacity();
  return n;
}

}  // namespace netshare::ml
