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

  // Forward-only row form: prepare_forward_into shapes bufs to one output
  // buffer per layer for a rows × cols input (one thread), and
  // forward_rows_into then runs rows [r0, r1) through every layer into them,
  // returning the last. Disjoint ranges may run on several threads at once.
  void prepare_forward_into(std::size_t rows, std::size_t cols,
                            std::vector<Matrix>& bufs) const;
  const Matrix& forward_rows_into(const Matrix& x, std::vector<Matrix>& bufs,
                                  std::size_t r0, std::size_t r1) const;

  // Row-sliced pass over the layer chain (ml/layers.hpp): forward_rows runs
  // rows [r0, r1) through every layer, each reading the previous layer's
  // output() rows. The backward twin forms, for rows [r0, r1), the
  // gradient at every layer's input; backward_delta_rows stops short of the
  // first layer's input gradient (the product backward_params skips), and
  // prepare_backward(false) then leaves that layer unprepared.
  void prepare_forward(std::size_t rows, std::size_t cols) override;
  void forward_rows(const Matrix& x, std::size_t r0, std::size_t r1) override;
  const Matrix& output() const override { return layers_.back()->output(); }
  void prepare_backward() override { prepare_backward(true); }
  void prepare_backward(bool input_grad);
  void backward_input_rows(const Matrix& grad_out, std::size_t r0,
                           std::size_t r1) override;
  void backward_delta_rows(const Matrix& grad_out, std::size_t r0,
                           std::size_t r1);
  const Matrix& input_grad() const override {
    return layers_.front()->input_grad();
  }
  // The parameter gradients once every backward slice has run, as
  // independent tasks: task k (of grad_tasks()) accumulates one parameter
  // over the whole batch — what backward_params(grad_out) accumulates for
  // it, bitwise. Distinct k may run on several threads at once.
  // Rows [r0, r1) of a weight's gradient may run as separate tasks; a
  // bias task takes its single row.
  std::size_t grad_tasks() const { return 2 * linears_.size(); }
  void grad_task(std::size_t k, const Matrix& grad_out, std::size_t r0,
                 std::size_t r1);

 private:
  void build_hidden(const std::vector<std::size_t>& dims, Activation hidden,
                    Rng& rng);
  std::vector<std::unique_ptr<Module>> layers_;
  std::vector<std::size_t> linears_;  // indices of the Linear layers
};

}  // namespace netshare::ml
