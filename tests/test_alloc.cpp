// Steady-state allocation tests for the training hot path: after a
// one-iteration warm-up, GRU BPTT, MLP forward/backward, and full
// DoppelGanger training iterations must perform zero Matrix heap
// allocations (DESIGN.md §6). The counter in ml/matrix.cpp increments
// whenever a Matrix acquires new backing storage, so these tests fail the
// moment someone reintroduces a per-iteration temporary.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gan/doppelganger.hpp"
#include "ml/gru.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/workspace.hpp"

namespace netshare::ml {
namespace {

TEST(AllocCounter, CountsConstructionCopyAndGrowthOnly) {
  alloc_counter::reset();
  Matrix a(4, 5, 1.0);
  EXPECT_EQ(alloc_counter::count(), 1u);
  Matrix b = a;  // copy construction allocates
  EXPECT_EQ(alloc_counter::count(), 2u);
  alloc_counter::reset();
  b = a;  // same shape: capacity reuse, no allocation
  EXPECT_EQ(alloc_counter::count(), 0u);
  b.resize(2, 3);  // shrink: capacity reuse
  b.resize(4, 5);  // regrow within original capacity
  EXPECT_EQ(alloc_counter::count(), 0u);
  b.resize(6, 7);  // genuine growth
  EXPECT_EQ(alloc_counter::count(), 1u);
  alloc_counter::reset();
  Matrix c;  // empty: no storage
  Matrix d = std::move(a);  // move: steals storage
  (void)c;
  (void)d;
  EXPECT_EQ(alloc_counter::count(), 0u);
}

TEST(Workspace, ReissuesSameBuffersInCallOrderAfterReset) {
  Workspace ws;
  Matrix& a = ws.get(3, 4);
  Matrix& b = ws.get(3, 4);  // same shape within one epoch: distinct buffer
  Matrix& c = ws.get(2, 2);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(ws.pooled_buffers(), 3u);
  EXPECT_EQ(ws.pooled_doubles(), 3u * 4u + 3u * 4u + 2u * 2u);
  ws.reset();
  // Same call sequence maps to the same buffers, with no new allocations.
  alloc_counter::reset();
  EXPECT_EQ(&ws.get(3, 4), &a);
  EXPECT_EQ(&ws.get(3, 4), &b);
  EXPECT_EQ(&ws.get(2, 2), &c);
  EXPECT_EQ(alloc_counter::count(), 0u);
  EXPECT_EQ(ws.pooled_buffers(), 3u);
}

TEST(Workspace, DistinctShapesStayWithinTheLargestEpochFootprint) {
  // The nearest_batch pattern: per epoch a query panel, a capped score
  // panel and per-row minima, all sized by a decode batch n that differs
  // every epoch. Slots are reissued in call order, so 200 distinct sizes
  // leave three buffers holding no more than the largest epoch needed.
  Workspace ws;
  std::size_t largest = 0;
  for (std::size_t k = 0; k < 200; ++k) {
    const std::size_t n = 1 + (k * 77) % 200;  // a permutation of 1..200
    ws.reset();
    ws.get(n, 8);
    ws.get(std::min<std::size_t>(n, 64), 300);
    ws.get(n, 4);
    largest = std::max(largest, n * 8 + std::min<std::size_t>(n, 64) * 300 +
                                    n * 4);
    EXPECT_LE(ws.pooled_doubles(), largest) << "epoch " << k << " n " << n;
  }
  EXPECT_EQ(ws.pooled_buffers(), 3u);
}

TEST(Gru, SteadyStateForwardBackwardAllocatesNothing) {
  Rng rng(11);
  Gru gru(6, 5, 8, rng);
  std::vector<Matrix> xs(5, Matrix::zeros(16, 6));
  for (auto& x : xs) randn_fill(x, rng);
  const Matrix cond = Matrix::randn(16, 5, rng);
  std::vector<Matrix> ghs(5, Matrix::zeros(16, 8));
  for (auto& g : ghs) randn_fill(g, rng, 0.1);
  gru.forward(xs, cond);
  gru.backward(ghs);  // warm-up populates every persistent buffer
  alloc_counter::reset();
  gru.forward(xs, cond);
  gru.backward(ghs);
  EXPECT_EQ(alloc_counter::count(), 0u)
      << "GRU BPTT allocated in steady state";
}

TEST(Mlp, SteadyStateForwardBackwardAllocatesNothing) {
  Rng rng(12);
  Mlp mlp({7, 12, 12, 3}, Activation::kLeakyRelu, rng);
  Matrix x = Matrix::randn(20, 7, rng);
  Matrix g = Matrix::randn(20, 3, rng);
  mlp.forward(x);
  mlp.backward(g);
  alloc_counter::reset();
  mlp.forward(x);
  mlp.backward(g);
  EXPECT_EQ(alloc_counter::count(), 0u)
      << "MLP forward/backward allocated in steady state";
}

gan::TimeSeriesSpec tiny_spec() {
  gan::TimeSeriesSpec spec;
  spec.attribute_segments = {{OutputSegment::Kind::kSoftmax, 3},
                             {OutputSegment::Kind::kSigmoid, 1}};
  spec.feature_segments = {{OutputSegment::Kind::kSigmoid, 1}};
  spec.max_len = 4;
  return spec;
}

gan::TimeSeriesDataset tiny_data(std::size_t n) {
  gan::TimeSeriesDataset data;
  data.spec = tiny_spec();
  data.attributes = Matrix(n, 4);
  data.features.assign(4, Matrix(n, 1));
  data.lengths.resize(n);
  Rng rng(78);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cat = rng.categorical({0.5, 0.3, 0.2});
    data.attributes(i, cat) = 1.0;
    data.attributes(i, 3) = rng.uniform(0.2, 0.8);
    data.lengths[i] = cat + 1;
    for (std::size_t t = 0; t < data.lengths[i]; ++t) {
      data.features[t](i, 0) = rng.uniform(0.1, 0.9);
    }
  }
  return data;
}

void expect_zero_steady_state_allocs(std::size_t width) {
  gan::DgConfig dg;
  dg.attr_noise_dim = 4;
  dg.feat_noise_dim = 4;
  dg.attr_hidden = {16};
  dg.rnn_hidden = 16;
  dg.disc_hidden = {24};
  dg.aux_hidden = {12};
  dg.batch_size = 16;
  gan::DoppelGanger model(tiny_spec(), dg, 4321);
  const gan::TimeSeriesDataset data = tiny_data(64);
  model.fit(data, 1, width);  // warm-up iteration populates pools and caches
  alloc_counter::reset();
  model.fit(data, 2, width);  // iterations 2-3: the steady state
  EXPECT_EQ(alloc_counter::count(), 0u)
      << "DoppelGanger training allocated Matrix storage in steady state at "
      << "width " << width;
}

TEST(DoppelGanger, SteadyStateTrainingAllocatesNothingSerial) {
  expect_zero_steady_state_allocs(1);
}

TEST(DoppelGanger, SteadyStateTrainingAllocatesNothingParallel) {
  expect_zero_steady_state_allocs(4);
}

}  // namespace
}  // namespace netshare::ml
