#include "downstream/mlp_classifier.hpp"

#include <stdexcept>

#include "ml/loss.hpp"
#include "ml/optim.hpp"

namespace netshare::downstream {

void MlpClassifier::fit(const LabeledDataset& data) {
  if (data.size() == 0) throw std::invalid_argument("MlpClassifier: empty");
  std::vector<std::size_t> dims{data.x.cols()};
  dims.insert(dims.end(), config_.hidden.begin(), config_.hidden.end());
  dims.push_back(data.num_classes);
  net_ = std::make_unique<ml::Mlp>(dims, ml::Activation::kRelu, rng_);
  ml::Adam opt(net_->parameters(), config_.lr);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto perm = rng_.permutation(data.size());
    for (std::size_t b = 0; b < perm.size(); b += config_.batch_size) {
      const std::size_t bs = std::min(config_.batch_size, perm.size() - b);
      ml::Matrix x(bs, data.x.cols());
      std::vector<std::size_t> y(bs);
      for (std::size_t i = 0; i < bs; ++i) {
        const double* src = data.x.row_ptr(perm[b + i]);
        std::copy(src, src + data.x.cols(), x.row_ptr(i));
        y[i] = data.y[perm[b + i]];
      }
      const ml::Matrix logits = net_->forward(x);
      ml::Matrix grad;
      ml::softmax_cross_entropy_loss(logits, y, &grad);
      net_->zero_grad();
      net_->backward(grad);
      opt.step();
    }
  }
}

std::size_t MlpClassifier::predict(std::span<const double> x) const {
  if (!net_) throw std::logic_error("MlpClassifier: fit first");
  ml::Matrix row(1, x.size());
  std::copy(x.begin(), x.end(), row.row_ptr(0));
  // The forward-only row form reads only the weights, so concurrent
  // predicts each write their own buffers.
  std::vector<ml::Matrix> bufs;
  net_->prepare_forward_into(1, row.cols(), bufs);
  const ml::Matrix& logits = net_->forward_rows_into(row, bufs, 0, 1);
  std::size_t best = 0;
  for (std::size_t j = 1; j < logits.cols(); ++j) {
    if (logits(0, j) > logits(0, best)) best = j;
  }
  return best;
}

}  // namespace netshare::downstream
