// Multi-layer perceptron assembled from Linear + activation layers, with an
// optional MixedHead output (for generators emitting one-hot groups +
// bounded continuous fields). Like every Module it implements each pass once,
// as its row form over the layer chain; forward()/backward() and the other
// whole-batch passes are Module's wrappers (ml/layers.hpp).
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

  std::vector<Parameter*> parameters() override;

  // Forward-only row form (ml/layers.hpp): prepare_forward_into shapes bufs
  // to one output buffer per layer for a rows × cols input (one thread), and
  // forward_rows_into then runs rows [r0, r1) through every layer into them,
  // returning the last. Reads only the parameters, so disjoint ranges, or
  // callers with distinct `bufs`, may run on several threads at once.
  void prepare_forward_into(std::size_t rows, std::size_t cols,
                            std::vector<Matrix>& bufs) const;
  const Matrix& forward_rows_into(const Matrix& x, std::vector<Matrix>& bufs,
                                  std::size_t r0, std::size_t r1) const;

  // The row form over the layer chain (ml/layers.hpp): forward_rows runs
  // rows [r0, r1) through every layer, each reading the previous layer's
  // output() rows. The backward rows form, for rows [r0, r1), the gradient
  // at every layer's input; backward_delta_rows stops short of the first
  // layer's input gradient (the product nothing reads when the input is
  // data or noise), and prepare_backward(false) then leaves it out.
  void prepare_forward(std::size_t rows, std::size_t cols) override;
  void forward_rows(const Matrix& x, std::size_t r0, std::size_t r1) override;
  const Matrix& output() const override { return layers_.back()->output(); }
  void prepare_backward(bool input_grad) override;
  void backward_input_rows(const Matrix& grad_out, std::size_t r0,
                           std::size_t r1) override;
  void backward_delta_rows(const Matrix& grad_out, std::size_t r0,
                           std::size_t r1) override;
  const Matrix& input_grad() const override {
    return layers_.front()->input_grad();
  }
  // Runs every grad_task on the whole of its parameter.
  void accumulate_grads(const Matrix& grad_out) override;
  // The parameter gradients once every backward slice has run, as
  // independent tasks: task k (of grad_tasks()) accumulates one parameter
  // over the whole batch — what accumulate_grads(grad_out) adds to it,
  // bitwise. Distinct k may run on several threads at once.
  // Rows [r0, r1) of a weight's gradient may run as separate tasks; a
  // bias task takes its single row.
  std::size_t grad_tasks() const { return 2 * linears_.size(); }
  void grad_task(std::size_t k, const Matrix& grad_out, std::size_t r0,
                 std::size_t r1);

 private:
  void build_hidden(const std::vector<std::size_t>& dims, Activation hidden,
                    Rng& rng);
  // The gradient at layer k's output: the next layer's input gradient, or
  // grad_out at the last layer.
  const Matrix& delta(std::size_t k, const Matrix& grad_out) const;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<std::size_t> linears_;  // indices of the Linear layers
};

}  // namespace netshare::ml
