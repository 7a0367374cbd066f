#include "ml/mlp.hpp"

#include <stdexcept>

namespace netshare::ml {

void Mlp::build_hidden(const std::vector<std::size_t>& dims, Activation hidden,
                       Rng& rng) {
  if (dims.size() < 2) throw std::invalid_argument("Mlp: need >= 2 dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    linears_.push_back(layers_.size());
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    if (i + 2 < dims.size()) {
      layers_.push_back(std::make_unique<ActivationLayer>(hidden));
    }
  }
}

Mlp::Mlp(const std::vector<std::size_t>& dims, Activation hidden, Rng& rng) {
  build_hidden(dims, hidden, rng);
}

Mlp::Mlp(const std::vector<std::size_t>& dims, Activation hidden,
         Activation output, Rng& rng) {
  build_hidden(dims, hidden, rng);
  layers_.push_back(std::make_unique<ActivationLayer>(output));
}

Mlp::Mlp(const std::vector<std::size_t>& dims, Activation hidden,
         std::vector<OutputSegment> output_segments, Rng& rng) {
  build_hidden(dims, hidden, rng);
  layers_.push_back(std::make_unique<MixedHead>(std::move(output_segments)));
}

void Mlp::prepare_forward_into(std::size_t rows, std::size_t cols,
                               std::vector<Matrix>& bufs) const {
  bufs.resize(layers_.size());
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    cols = layers_[k]->out_cols(cols);
    bufs[k].resize(rows, cols);
  }
}

const Matrix& Mlp::forward_rows_into(const Matrix& x,
                                     std::vector<Matrix>& bufs,
                                     std::size_t r0, std::size_t r1) const {
  const Matrix* cur = &x;
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    layers_[k]->forward_rows_into(*cur, bufs[k], r0, r1);
    cur = &bufs[k];
  }
  return *cur;
}

void Mlp::prepare_forward(std::size_t rows, std::size_t cols) {
  for (auto& layer : layers_) {
    layer->prepare_forward(rows, cols);
    cols = layer->output().cols();
  }
}

void Mlp::forward_rows(const Matrix& x, std::size_t r0, std::size_t r1) {
  const Matrix* cur = &x;
  for (auto& layer : layers_) {
    layer->forward_rows(*cur, r0, r1);
    cur = &layer->output();
  }
}

void Mlp::prepare_backward(bool input_grad) {
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    layers_[k]->prepare_backward(k > 0 || input_grad);
  }
}

const Matrix& Mlp::delta(std::size_t k, const Matrix& grad_out) const {
  return k + 1 < layers_.size() ? layers_[k + 1]->input_grad() : grad_out;
}

void Mlp::backward_delta_rows(const Matrix& grad_out, std::size_t r0,
                              std::size_t r1) {
  for (std::size_t k = layers_.size(); k-- > 1;) {
    layers_[k]->backward_input_rows(delta(k, grad_out), r0, r1);
  }
  layers_.front()->backward_delta_rows(delta(0, grad_out), r0, r1);
}

void Mlp::backward_input_rows(const Matrix& grad_out, std::size_t r0,
                              std::size_t r1) {
  backward_delta_rows(grad_out, r0, r1);
  layers_.front()->backward_input_rows(delta(0, grad_out), r0, r1);
}

void Mlp::accumulate_grads(const Matrix& grad_out) {
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    layers_[k]->accumulate_grads(delta(k, grad_out));
  }
}

void Mlp::grad_task(std::size_t k, const Matrix& grad_out, std::size_t r0,
                    std::size_t r1) {
  const std::size_t at = linears_.at(k / 2);
  auto& lin = static_cast<Linear&>(*layers_[at]);
  if (k % 2 == 0) {
    lin.weight_grad_rows(delta(at, grad_out), r0, r1);
  } else if (r1 > r0) {
    lin.bias_grad(delta(at, grad_out));
  }
}

std::vector<Parameter*> Mlp::parameters() {
  std::vector<Parameter*> params;
  params.reserve(layers_.size() * 2);  // Linear contributes {W, b}
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace netshare::ml
