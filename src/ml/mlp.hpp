// Multi-layer perceptron assembled from Linear + activation layers, with an
// optional MixedHead output (for generators emitting one-hot groups +
// bounded continuous fields).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "ml/layers.hpp"

namespace netshare::ml {

class Mlp : public Module {
 public:
  // dims = {in, h1, ..., out}; hidden activations after every layer but the
  // last; `output` optionally appends an activation or mixed head.
  Mlp(const std::vector<std::size_t>& dims, Activation hidden, Rng& rng);
  Mlp(const std::vector<std::size_t>& dims, Activation hidden,
      Activation output, Rng& rng);
  Mlp(const std::vector<std::size_t>& dims, Activation hidden,
      std::vector<OutputSegment> output_segments, Rng& rng);

  const Matrix& forward(const Matrix& x) override;
  const Matrix& backward(const Matrix& grad_out) override;
  // Input gradient only: no layer accumulates parameter gradients.
  const Matrix& backward_input(const Matrix& grad_out) override;
  // Parameter gradients only: backward() without the first layer's input
  // gradient (the product nothing reads when the input is data or noise).
  void backward_params(const Matrix& grad_out) override;
  std::vector<Parameter*> parameters() override;

  // Forward-only pass (ml/layers.hpp) with caller-owned scratch: layer k
  // writes bufs[k % 2] (bufs is resized to two), and the returned reference
  // is the last layer's output, valid until the next call with these bufs.
  // Reads only the parameters, so concurrent callers with distinct `bufs`
  // are safe.
  const Matrix& forward_into(const Matrix& x, std::vector<Matrix>& bufs) const;

 private:
  void build_hidden(const std::vector<std::size_t>& dims, Activation hidden,
                    Rng& rng);
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace netshare::ml
