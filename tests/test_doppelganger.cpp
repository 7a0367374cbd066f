// Tests for the DoppelGANger time-series GAN: shape contracts, determinism
// (including the row-sliced iteration stages at every width), snapshot/restore,
// CPU accounting, and end-to-end learning on a small synthetic dataset.
#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "gan/doppelganger.hpp"
#include "ml/kernels.hpp"

namespace netshare::gan {
namespace {

using ml::Matrix;
using ml::OutputSegment;

// Toy dataset: attribute = categorical(3) one-hot with skew {0.6,0.3,0.1} +
// one continuous in [0,1] centered per category; feature = one continuous
// whose level tracks the attribute category; length grows with category.
TimeSeriesSpec toy_spec() {
  TimeSeriesSpec spec;
  spec.attribute_segments = {{OutputSegment::Kind::kSoftmax, 3},
                             {OutputSegment::Kind::kSigmoid, 1}};
  spec.feature_segments = {{OutputSegment::Kind::kSigmoid, 1}};
  spec.max_len = 4;
  return spec;
}

TimeSeriesDataset toy_data(std::size_t n, std::uint64_t seed) {
  TimeSeriesDataset data;
  data.spec = toy_spec();
  data.attributes = Matrix(n, 4);
  data.features.assign(4, Matrix(n, 1));
  data.lengths.resize(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cat = rng.categorical({0.6, 0.3, 0.1});
    data.attributes(i, cat) = 1.0;
    const double level = 0.2 + 0.3 * static_cast<double>(cat);
    data.attributes(i, 3) = level + rng.normal(0.0, 0.03);
    data.lengths[i] = cat + 1;  // 1..3
    for (std::size_t t = 0; t < data.lengths[i]; ++t) {
      data.features[t](i, 0) =
          std::clamp(level + rng.normal(0.0, 0.05), 0.0, 1.0);
    }
  }
  return data;
}

DgConfig small_config() {
  DgConfig cfg;
  cfg.attr_noise_dim = 4;
  cfg.feat_noise_dim = 4;
  cfg.attr_hidden = {24};
  cfg.rnn_hidden = 24;
  cfg.disc_hidden = {32, 32};
  cfg.aux_hidden = {16};
  cfg.iterations = 120;
  cfg.batch_size = 32;
  return cfg;
}

TEST(DoppelGanger, SampleShapesMatchSpec) {
  DoppelGanger gan(toy_spec(), small_config(), 1);
  Rng rng(2);
  const GeneratedSeries s = gan.sample(10, rng);
  EXPECT_EQ(s.attributes.rows(), 10u);
  EXPECT_EQ(s.attributes.cols(), 4u);
  ASSERT_EQ(s.features.size(), 4u);
  EXPECT_EQ(s.features[0].rows(), 10u);
  EXPECT_EQ(s.features[0].cols(), 1u);
  for (std::size_t len : s.lengths) {
    EXPECT_GE(len, 1u);
    EXPECT_LE(len, 4u);
  }
}

TEST(DoppelGanger, OutputsRespectHeadRanges) {
  DoppelGanger gan(toy_spec(), small_config(), 3);
  Rng rng(4);
  const GeneratedSeries s = gan.sample(32, rng);
  for (std::size_t i = 0; i < 32; ++i) {
    double softmax_sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      const double p = s.attributes(i, j);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      softmax_sum += p;
    }
    EXPECT_NEAR(softmax_sum, 1.0, 1e-9);
    EXPECT_GE(s.attributes(i, 3), 0.0);
    EXPECT_LE(s.attributes(i, 3), 1.0);
  }
}

TEST(DoppelGanger, FitRejectsBadInputs) {
  DoppelGanger gan(toy_spec(), small_config(), 5);
  TimeSeriesDataset empty;
  empty.spec = toy_spec();
  empty.attributes = Matrix(0, 4);
  EXPECT_THROW(gan.fit(empty), std::invalid_argument);

  TimeSeriesDataset wrong = toy_data(8, 6);
  wrong.features.pop_back();
  EXPECT_THROW(gan.fit(wrong), std::invalid_argument);
}

TEST(DoppelGanger, SnapshotRestoreReproducesSamples) {
  DoppelGanger a(toy_spec(), small_config(), 7);
  a.fit(toy_data(64, 8), 10);
  DoppelGanger b(toy_spec(), small_config(), 99);
  b.restore(a.snapshot());
  Rng ra(11), rb(11);
  const GeneratedSeries sa = a.sample(8, ra);
  const GeneratedSeries sb = b.sample(8, rb);
  EXPECT_EQ(sa.attributes, sb.attributes);
  EXPECT_EQ(sa.lengths, sb.lengths);
}

// Kernel budget for a test scope: the width of a training iteration's
// stages.
ml::kernels::KernelConfig width_config(std::size_t width) {
  ml::kernels::KernelConfig kc;
  kc.threads = width;
  return kc;
}

// Parks every worker of the shared executor until release() (or
// destruction), so whatever runs meanwhile must make progress on the calling
// thread alone.
struct ParkedSharedWorkers {
  ParkedSharedWorkers(const ParkedSharedWorkers&) = delete;
  ParkedSharedWorkers& operator=(const ParkedSharedWorkers&) = delete;
  ~ParkedSharedWorkers() { release(); }
  ParkedSharedWorkers() {
    ThreadPool& pool = ThreadPool::shared();
    for (std::size_t w = 0; w < pool.size(); ++w) {
      done.push_back(pool.submit([this] {
        std::unique_lock<std::mutex> lock(mu);
        ++parked;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
      }));
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == ThreadPool::shared().size(); });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (released) return;
      released = true;
    }
    cv.notify_all();
    for (auto& f : done) f.get();
  }
  std::mutex mu;
  std::condition_variable cv;
  std::size_t parked = 0;
  bool released = false;
  std::vector<std::future<void>> done;
};

double fit_cpu_seconds(std::size_t width) {
  ml::kernels::ConfigOverride budget(width_config(width));
  DoppelGanger gan(toy_spec(), small_config(), 12);
  EXPECT_DOUBLE_EQ(gan.train_cpu_seconds(), 0.0);
  gan.fit(toy_data(64, 13), 30);
  return gan.train_cpu_seconds();
}

TEST(DoppelGanger, TrainingTracksCpuTime) {
  const double serial = fit_cpu_seconds(1);
  EXPECT_GT(serial, 0.0);
  // At width 4 the same fit spreads over executor helpers; their CPU counts
  // too, so the total stays near the serial cost instead of dropping to the
  // calling thread's share.
  EXPECT_GE(fit_cpu_seconds(4), 0.8 * serial);
}

std::vector<double> fit_snapshot(std::size_t width, const DgConfig& cfg,
                                 bool park_workers = false,
                                 std::size_t samples = 64) {
  ml::kernels::ConfigOverride budget(width_config(width));
  std::optional<ParkedSharedWorkers> parked;
  if (park_workers) parked.emplace();
  DoppelGanger gan(toy_spec(), cfg, 31);
  gan.fit(toy_data(samples, 32), cfg.iterations);
  if (parked) parked->release();
  return gan.snapshot();
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

TEST(DoppelGanger, RowSlicedStagesBitwiseAtEveryWidth) {
  DgConfig cfg = small_config();
  cfg.iterations = 6;
  cfg.batch_size = 64;
  // 64 samples: every batch is 64 rows, cut into 21/21/22 at width 3.
  // 27 samples: the critic batches are 27 rows (three slices of 9 from
  // width 3 on, 13/14 at width 2) beside a 64-row generator batch.
  for (const std::size_t samples : {std::size_t{64}, std::size_t{27}}) {
    SCOPED_TRACE(samples);
    const std::vector<double> serial = fit_snapshot(1, cfg, false, samples);
    expect_bitwise_equal(serial, fit_snapshot(2, cfg, false, samples),
                         "width 2");
    expect_bitwise_equal(serial, fit_snapshot(3, cfg, false, samples),
                         "width 3");
    expect_bitwise_equal(serial, fit_snapshot(4, cfg, false, samples),
                         "width 4");
    // Every executor worker busy: no helper ever joins the iteration's
    // region, and the caller runs every slice of every stage itself.
    expect_bitwise_equal(serial, fit_snapshot(4, cfg, true, samples),
                         "width 4, shared workers parked");
  }
}

TEST(DoppelGanger, DpFitBitwiseIdenticalAtWidthsOneAndFour) {
  DgConfig cfg = small_config();
  cfg.iterations = 3;
  cfg.batch_size = 8;
  cfg.dp = true;
  cfg.dp_config = {1.0, 1.0};
  expect_bitwise_equal(fit_snapshot(1, cfg), fit_snapshot(4, cfg), "dp");
}

TEST(DoppelGanger, LearnsToyDistribution) {
  const TimeSeriesDataset data = toy_data(400, 14);
  DoppelGanger gan(toy_spec(), small_config(), 15);
  gan.fit(data);
  Rng rng(16);
  const GeneratedSeries s = gan.sample(400, rng);

  // Category marginal: majority class should dominate in the synthetic data.
  std::vector<double> cat_freq(3, 0.0);
  for (std::size_t i = 0; i < s.attributes.rows(); ++i) {
    std::size_t arg = 0;
    for (std::size_t j = 1; j < 3; ++j) {
      if (s.attributes(i, j) > s.attributes(i, arg)) arg = j;
    }
    cat_freq[arg] += 1.0 / 400.0;
  }
  EXPECT_GT(cat_freq[0], cat_freq[2]);

  // Continuous attribute mean within a loose band of the real mean (~0.33).
  double syn_mean = 0.0, real_mean = 0.0;
  for (std::size_t i = 0; i < 400; ++i) {
    syn_mean += s.attributes(i, 3) / 400.0;
    real_mean += data.attributes(i, 3) / 400.0;
  }
  EXPECT_NEAR(syn_mean, real_mean, 0.15);

  // Mean series length in a sane band around the real mean (~1.5).
  double syn_len = 0.0, real_len = 0.0;
  for (std::size_t i = 0; i < 400; ++i) {
    syn_len += static_cast<double>(s.lengths[i]) / 400.0;
    real_len += static_cast<double>(data.lengths[i]) / 400.0;
  }
  EXPECT_NEAR(syn_len, real_len, 1.0);
}

TEST(DoppelGanger, FineTuningFromSnapshotPreservesFit) {
  // Warm start (Insight 3): restoring a trained seed and fine-tuning briefly
  // on the same distribution must not destroy the learned fit.
  const TimeSeriesDataset data = toy_data(300, 17);
  DgConfig cfg = small_config();
  cfg.iterations = 150;
  DoppelGanger seed(toy_spec(), cfg, 18);
  seed.fit(data);

  auto attr_mean_err = [&](DoppelGanger& g) {
    Rng rng(20);
    const GeneratedSeries s = g.sample(300, rng);
    double real_mean = 0.0, syn_mean = 0.0;
    for (std::size_t i = 0; i < 300; ++i) {
      real_mean += data.attributes(i, 3) / 300.0;
      syn_mean += s.attributes(i, 3) / 300.0;
    }
    return std::fabs(real_mean - syn_mean);
  };
  const double seed_err = attr_mean_err(seed);

  DoppelGanger warm(toy_spec(), cfg, 19);
  warm.restore(seed.snapshot());
  warm.fit(data, 30);
  EXPECT_LE(attr_mean_err(warm), seed_err + 0.12);
}

TEST(DoppelGanger, DpModeRunsAndCountsSteps) {
  DgConfig cfg = small_config();
  cfg.iterations = 3;
  cfg.batch_size = 8;
  cfg.dp = true;
  cfg.dp_config = {1.0, 1.0};
  DoppelGanger gan(toy_spec(), cfg, 21);
  gan.fit(toy_data(32, 22));
  EXPECT_EQ(gan.dp_steps(), 3u * 2u);  // iterations * d_steps_per_g
  Rng rng(23);
  const GeneratedSeries s = gan.sample(4, rng);
  EXPECT_EQ(s.attributes.rows(), 4u);
}

}  // namespace
}  // namespace netshare::gan
