// Lockdown suite for the SIMD kernel tier (DESIGN.md §10): randomized
// ragged-shape property sweep against the scalar-tier oracle across thread
// counts, forced-fallback equivalence (NETSHARE_SIMD=off env and
// KernelConfig::simd API), the transcendentals (exp, sigmoid, tanh, softmax) on special and ragged
// inputs, and a per-tier end-to-end DoppelGanger fit+sample bitwise check.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gan/doppelganger.hpp"
#include "ml/kernels.hpp"
#include "ml/matrix.hpp"

namespace netshare::ml {
namespace {

// memcmp, not double ==: even a -0.0 vs +0.0 divergence (a reduction-order
// tell) must fail.
void expect_bitwise(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        got.size() * sizeof(double)),
            0)
      << what << ": SIMD tier diverged from the scalar oracle";
}

bool simd_available() {
  return kernels::supported_tier() == kernels::SimdTier::kAvx2;
}

kernels::KernelConfig tier_cfg(kernels::SimdTier tier, std::size_t threads) {
  kernels::KernelConfig cfg;
  cfg.threads = threads;
  cfg.simd = tier;
  return cfg;
}

// Restores (or clears) an environment variable on scope exit, so a failing
// assertion can never leak NETSHARE_SIMD=off into unrelated tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
    kernels::reload_simd_env();
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

// Random matrix with exact zeros sprinkled in, as one-hot fields and ReLU
// layers hand them to the kernels on both tiers.
Matrix randn_with_zeros(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = Matrix::randn(rows, cols, rng);
  for (auto& v : m.data()) {
    if (rng.bernoulli(0.15)) v = 0.0;
  }
  return m;
}

struct RaggedShape {
  std::size_t m, k, n;
};

// Ragged tails 1..17, primes, tile boundaries around the 16-column register
// block (and the 4-wide and scalar column tails), and empty matrices.
std::vector<RaggedShape> ragged_shapes() {
  std::vector<RaggedShape> shapes = {
      {0, 5, 7}, {5, 0, 7},  {5, 7, 0},  {0, 0, 0},  {1, 1, 1},
      {1, 17, 1}, {2, 3, 5},  {7, 11, 13}, {17, 17, 17}, {3, 1, 31},
      {13, 29, 37}, {9, 16, 33}, {5, 8, 32}, {6, 64, 8}, {11, 5, 16},
      {4, 7, 41},  {23, 13, 64}, {8, 31, 24},
  };
  Rng rng(424242);
  for (int i = 0; i < 24; ++i) {  // randomized ragged sweep
    shapes.push_back(
        {static_cast<std::size_t>(rng.uniform_int(1, 70)),
         static_cast<std::size_t>(rng.uniform_int(1, 70)),
         static_cast<std::size_t>(rng.uniform_int(1, 70))});
  }
  return shapes;
}

// One shape's worth of operands plus the scalar-tier oracle outputs.
struct OracleCase {
  Matrix a, b, at, bt, bias, acc0;
  Matrix want_mm, want_bias, want_ta, want_acc, want_tb;
};

OracleCase make_oracle(const RaggedShape& s, Rng& rng) {
  OracleCase oc;
  oc.a = randn_with_zeros(s.m, s.k, rng);
  oc.b = randn_with_zeros(s.k, s.n, rng);
  oc.at = randn_with_zeros(s.k, s.m, rng);  // trans_a input (k × m)
  oc.bt = randn_with_zeros(s.n, s.k, rng);  // trans_b input (n × k)
  oc.bias = randn_with_zeros(1, s.n, rng);
  oc.acc0 = Matrix::randn(s.m, s.n, rng);   // pre-existing accumulator
  kernels::ConfigOverride guard(tier_cfg(kernels::SimdTier::kScalar, 1));
  kernels::matmul_into(oc.a, oc.b, oc.want_mm);
  kernels::matmul_bias_into(oc.a, oc.b, oc.bias, oc.want_bias);
  kernels::matmul_trans_a_into(oc.at, oc.b, oc.want_ta);
  oc.want_acc = oc.acc0;
  kernels::matmul_trans_a_acc_into(oc.at, oc.b, oc.want_acc);
  kernels::matmul_trans_b_into(oc.a, oc.bt, oc.want_tb);
  return oc;
}

TEST(Simd, PropertySweepRaggedShapesMatchScalarOracle) {
  if (!simd_available()) GTEST_SKIP() << "host has no AVX2";
  Rng rng(9001);
  Matrix got;
  for (const RaggedShape& s : ragged_shapes()) {
    const OracleCase oc = make_oracle(s, rng);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      kernels::ConfigOverride guard(
          tier_cfg(kernels::SimdTier::kAvx2, threads));
      SCOPED_TRACE("shape=" + std::to_string(s.m) + "x" +
                   std::to_string(s.k) + "x" + std::to_string(s.n) +
                   " threads=" + std::to_string(threads));
      kernels::matmul_into(oc.a, oc.b, got);
      expect_bitwise(got, oc.want_mm, "matmul_into");
      kernels::matmul_bias_into(oc.a, oc.b, oc.bias, got);
      expect_bitwise(got, oc.want_bias, "matmul_bias_into");
      kernels::matmul_trans_a_into(oc.at, oc.b, got);
      expect_bitwise(got, oc.want_ta, "matmul_trans_a_into");
      got = oc.acc0;
      kernels::matmul_trans_a_acc_into(oc.at, oc.b, got);
      expect_bitwise(got, oc.want_acc, "matmul_trans_a_acc_into");
      kernels::matmul_trans_b_into(oc.a, oc.bt, got);
      expect_bitwise(got, oc.want_tb, "matmul_trans_b_into");
    }
  }
}

TEST(Simd, FusedGateMatchesScalarOracleAcrossThreads) {
  if (!simd_available()) GTEST_SKIP() << "host has no AVX2";
  Rng rng(9002);
  const RaggedShape gate_shapes[] = {
      {1, 1, 1}, {2, 3, 5}, {17, 13, 17}, {33, 7, 41}, {16, 16, 48},
      {5, 11, 19}, {13, 2, 37},
  };
  Matrix scratch, out, want;
  for (const RaggedShape& s : gate_shapes) {  // batch=m, in=k, hid=n
    const Matrix x = randn_with_zeros(s.m, s.k, rng);
    const Matrix wx = randn_with_zeros(s.k, s.n, rng);
    const Matrix h = randn_with_zeros(s.m, s.n, rng);
    const Matrix wh = randn_with_zeros(s.n, s.n, rng);
    const Matrix bias = randn_with_zeros(1, s.n, rng);
    for (const auto act :
         {kernels::GateAct::kSigmoid, kernels::GateAct::kTanh}) {
      {
        kernels::ConfigOverride guard(
            tier_cfg(kernels::SimdTier::kScalar, 1));
        kernels::gru_gate_into(x, wx, h, wh, bias, act, scratch, want);
      }
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        kernels::ConfigOverride guard(
            tier_cfg(kernels::SimdTier::kAvx2, threads));
        SCOPED_TRACE("gate=" + std::to_string(s.m) + "x" +
                     std::to_string(s.k) + "x" + std::to_string(s.n) +
                     " threads=" + std::to_string(threads));
        kernels::gru_gate_into(x, wx, h, wh, bias, act, scratch, out);
        expect_bitwise(out, want, "gru_gate_into");
      }
    }
  }
}

// Inputs that walk every branch of the repo-owned exp, sigmoid and tanh:
// signed zeros, infinities, NaNs (quiet and signalling, both signs, a
// payload), subnormals, both sides of every clamp and threshold, then
// random values at several scales.
std::vector<double> transcendental_inputs() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v = {
      0.0, -0.0, inf, -inf, nan, -nan,
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000123}),
      std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),  // sNaN
      5e-324, -5e-324, 1e-310, -1e-310, DBL_MIN, -DBL_MIN, 1e-200, -1e-20,
      709.78, 709.782712893384, 709.7827128933841, 709.8, 709.81, 710.0,
      1e300, DBL_MAX, -708.39, -708.4, -745.13, -745.1332191019411,
      -745.14, -746.0, -746.5, -800.0, -1e300, -DBL_MAX,
      36.0, -36.0, std::nextafter(36.0, inf), -std::nextafter(36.0, inf),
      37.5, -37.5, 40.0, -40.0, 19.06, -19.06, 20.0, -20.0,
      std::nextafter(20.0, inf), 25.0, -25.0, 0.34657359027997264,
      -0.34657359027997264, 0.17328679513998632, -0.17328679513998632};
  Rng rng(9005);
  for (const double scale : {1e-8, 0.1, 1.0, 5.0, 30.0, 300.0}) {
    for (int i = 0; i < 61; ++i) v.push_back(rng.normal() * scale);
  }
  for (int i = 0; i < 61; ++i) v.push_back(rng.uniform(-760.0, 760.0));
  return v;
}

void expect_same_bits(const double* got, const double* want, std::size_t n,
                      const std::string& what) {
  EXPECT_EQ(std::memcmp(got, want, n * sizeof(double)), 0)
      << what << ": the vectorized map diverged from the per-element body";
}

using ElementwiseKernel = void (*)(const double*, double*, std::size_t);

// sigmoid per element with its tails spelled out: E − E² below −36 and
// 1 − E above 36 (E = exp(−|x|)), x + x for NaN, one-element calls only for
// the main path in between.
void sigmoid_reference(const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x[i];
    double e = 0.0;
    if (v != v) {
      y[i] = v + v;
    } else if (v < -36.0) {
      kernels::exp_into(&v, &e, 1);
      y[i] = e - e * e;
    } else if (v > 36.0) {
      const double minus = -v;
      kernels::exp_into(&minus, &e, 1);
      y[i] = 1.0 - e;
    } else {
      kernels::sigmoid_into(&v, &y[i], 1);
    }
  }
}

// One call per element: the loop body alone, never the vectorized path
// (and for sigmoid never the block scan either).
std::vector<double> per_element(ElementwiseKernel fn, const double* x,
                                std::size_t n) {
  std::vector<double> y(n);
  if (fn == kernels::sigmoid_into) {
    sigmoid_reference(x, y.data(), n);
    return y;
  }
  for (std::size_t i = 0; i < n; ++i) fn(x + i, &y[i], 1);
  return y;
}

// The transcendentals have one body on every tier, a loop the compiler
// vectorizes (sigmoid's in two passes: a scan for lanes past ±36 or NaN,
// then the clamp-free main path or, in a block with such a lane, the tail
// formulas). Whole-vector calls on either tier must match the per-element
// body bitwise, at every length and offset, in place, and with a tail lane
// on either side of each 64-element sigmoid block boundary.
TEST(Simd, TranscendentalsMatchScalarTierBitwise) {
  const std::vector<double> in = transcendental_inputs();
  const std::pair<const char*, ElementwiseKernel> fns[] = {
      {"exp", kernels::exp_into},
      {"sigmoid", kernels::sigmoid_into},
      {"tanh", kernels::tanh_into}};
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 20; ++n) lengths.push_back(n);  // every tail
  for (const std::size_t n : {37u, 64u, 129u}) lengths.push_back(n);
  lengths.push_back(in.size() - 3);
  // In-range values with one tail lane at each side of a block boundary.
  Rng rng(31);
  std::vector<double> edges(200);
  for (double& v : edges) v = rng.normal() * 4.0;
  edges[63] = 50.0;
  edges[128] = -std::numeric_limits<double>::infinity();
  edges[191] = std::numeric_limits<double>::quiet_NaN();
  for (const auto tier :
       {kernels::SimdTier::kScalar, kernels::SimdTier::kAvx2}) {
    kernels::ConfigOverride guard(tier_cfg(tier, 1));
    const std::string tier_name =
        tier == kernels::SimdTier::kAvx2 ? " avx2" : " scalar";
    for (const auto& [name, fn] : fns) {
      for (const std::size_t n : lengths) {
        for (const std::size_t off : {0u, 1u, 3u}) {  // unaligned starts
          const std::string what = std::string(name) + tier_name + " n=" +
                                   std::to_string(n) +
                                   " off=" + std::to_string(off);
          const std::vector<double> want = per_element(fn, in.data() + off, n);
          std::vector<double> got(n);
          std::vector<double> in_place(in.begin() + off,
                                       in.begin() + off + n);
          fn(in.data() + off, got.data(), n);
          expect_same_bits(got.data(), want.data(), n, what);
          fn(in_place.data(), in_place.data(), n);
          expect_same_bits(in_place.data(), want.data(), n,
                           what + " in place");
        }
      }
      std::vector<double> got = edges;
      fn(got.data(), got.data(), got.size());
      expect_same_bits(got.data(),
                       per_element(fn, edges.data(), edges.size()).data(),
                       edges.size(), std::string(name) + tier_name + " edges");
    }
    // Softmax over ragged segments of the same inputs against the max
    // shift, per-element exp, ascending sum and divides.
    for (std::size_t at = 0, n = 1; at + n <= in.size();
         at += n, n = n % 11 + 1) {
      std::vector<double> got(in.begin() + at, in.begin() + at + n);
      std::vector<double> shifted = got;
      const double mx = *std::max_element(shifted.begin(), shifted.end());
      for (double& v : shifted) v -= mx;
      std::vector<double> want =
          per_element(kernels::exp_into, shifted.data(), n);
      double sum = 0.0;
      for (const double v : want) sum += v;
      for (double& v : want) v /= sum;
      kernels::softmax_inplace(got.data(), n);
      expect_same_bits(got.data(), want.data(), n,
                       "softmax" + tier_name + " at=" + std::to_string(at) +
                           " n=" + std::to_string(n));
    }
  }
}

// The conditioned GRU's seeded gate on the SIMD tier against the unseeded
// gate on the scalar tier, on [cond | x] with Wx's cond rows first: one
// oracle across both the seed and the tier, at the sampler's shape (64
// series, 8 step inputs + 48 hidden, gate width 48) and at ragged ones
// that reach the single-vector tiles and the scalar column tail.
TEST(Simd, SeededGateMatchesUnseededScalarGateOnCondFirstInput) {
  if (!simd_available()) GTEST_SKIP() << "host has no AVX2";
  struct GateShape {
    std::size_t rows, step, cond, gate;
  };
  const GateShape shapes[] = {{64, 8, 48, 48}, {13, 8, 105, 48},
                              {7, 3, 5, 17},   {5, 0, 9, 6}};
  Rng rng(9006);
  for (const GateShape& g : shapes) {
    const std::size_t R = g.rows, S = g.step, A = g.cond, G = g.gate;
    const Matrix x = randn_with_zeros(R, S, rng);
    const Matrix cond = randn_with_zeros(R, A, rng);
    const Matrix wx = Matrix::randn(S + A, G, rng);  // step rows first
    Matrix h = randn_with_zeros(R, G, rng);
    h(0, 0) = std::numeric_limits<double>::quiet_NaN();  // NaN rows survive
    const Matrix wh = Matrix::randn(G, G, rng);
    const Matrix bias = Matrix::randn(1, G, rng);
    Matrix xc(R, A + S), wx_cf(A + S, G);
    for (std::size_t i = 0; i < R; ++i) {
      std::copy(cond.row_ptr(i), cond.row_ptr(i) + A, xc.row_ptr(i));
      std::copy(x.row_ptr(i), x.row_ptr(i) + S, xc.row_ptr(i) + A);
    }
    std::copy(wx.row_ptr(S), wx.row_ptr(S + A), wx_cf.row_ptr(0));
    std::copy(wx.row_ptr(0), wx.row_ptr(S), wx_cf.row_ptr(A));
    for (const auto act :
         {kernels::GateAct::kSigmoid, kernels::GateAct::kTanh}) {
      const std::string what = "gate " + std::to_string(R) + "x(" +
                               std::to_string(S) + "+" + std::to_string(A) +
                               ")->" + std::to_string(G);
      Matrix want, scratch(R, G), seed(R, G), got(R, G);
      {
        kernels::ConfigOverride guard(tier_cfg(kernels::SimdTier::kScalar, 1));
        kernels::gru_gate_into(xc, wx_cf, h, wh, bias, act, scratch, want);
        kernels::matmul_rows(cond, wx, S, seed, 0, R);
      }
      kernels::ConfigOverride guard(tier_cfg(kernels::SimdTier::kAvx2, 1));
      kernels::gru_gate_rows(x, wx, h, wh, bias, act, scratch, got, 0, R,
                             &seed);
      expect_bitwise(got, want, what.c_str());
      EXPECT_TRUE(std::isnan(got(0, 0))) << what;
    }
  }
}

TEST(Simd, EnvForcedFallbackMatchesDispatchedPath) {
  Rng rng(9003);
  const Matrix a = randn_with_zeros(43, 29, rng);
  const Matrix b = randn_with_zeros(29, 37, rng);
  Matrix dispatched, fallback;
  kernels::matmul_into(a, b, dispatched);
  {
    ScopedEnv env("NETSHARE_SIMD", "off");
    kernels::reload_simd_env();
    EXPECT_EQ(kernels::active_tier(), kernels::SimdTier::kScalar)
        << "NETSHARE_SIMD=off must pin the scalar tier";
    kernels::matmul_into(a, b, fallback);
  }
  // ScopedEnv restored + reloaded: dispatch is back to the CPU's best tier.
  EXPECT_EQ(kernels::active_tier(), kernels::supported_tier());
  expect_bitwise(fallback, dispatched, "env-forced scalar fallback");
}

TEST(Simd, ApiForcedFallbackMatchesDispatchedPath) {
  Rng rng(9004);
  const Matrix a = randn_with_zeros(31, 41, rng);
  const Matrix b = randn_with_zeros(41, 23, rng);
  const Matrix bias = randn_with_zeros(1, 23, rng);
  Matrix dispatched, fallback;
  kernels::matmul_bias_into(a, b, bias, dispatched);
  {
    kernels::ConfigOverride guard(tier_cfg(kernels::SimdTier::kScalar, 2));
    EXPECT_EQ(kernels::active_tier(), kernels::SimdTier::kScalar);
    kernels::matmul_bias_into(a, b, bias, fallback);
  }
  expect_bitwise(fallback, dispatched, "API-forced scalar fallback");
}

// --- end-to-end: full DoppelGanger fit+sample per kernel tier -------------

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
  Rng rng(77);
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

std::vector<double> train_and_snapshot(kernels::SimdTier tier,
                                       std::size_t kernel_threads,
                                       gan::GeneratedSeries* sampled) {
  kernels::ConfigOverride guard(tier_cfg(tier, kernel_threads));
  gan::DgConfig dg;
  dg.attr_noise_dim = 4;
  dg.feat_noise_dim = 4;
  dg.attr_hidden = {16};
  dg.rnn_hidden = 16;
  dg.disc_hidden = {24};
  dg.aux_hidden = {12};
  dg.batch_size = 16;
  gan::DoppelGanger model(tiny_spec(), dg, 1234);
  model.fit(tiny_data(64), 25);
  Rng sample_rng(55);
  *sampled = model.sample(12, sample_rng);
  return model.snapshot();
}

TEST(Simd, DoppelGangerFitAndSampleBitwiseIdenticalAcrossTiers) {
  if (!simd_available()) {
    GTEST_SKIP() << "host has no AVX2: only the scalar tier exists";
  }
  gan::GeneratedSeries scalar_out, simd_out, simd_mt_out;
  const std::vector<double> scalar_snap =
      train_and_snapshot(kernels::SimdTier::kScalar, 1, &scalar_out);
  const std::vector<double> simd_snap =
      train_and_snapshot(kernels::SimdTier::kAvx2, 1, &simd_out);
  const std::vector<double> simd_mt_snap =
      train_and_snapshot(kernels::SimdTier::kAvx2, 8, &simd_mt_out);

  ASSERT_EQ(scalar_snap.size(), simd_snap.size());
  EXPECT_EQ(std::memcmp(scalar_snap.data(), simd_snap.data(),
                        scalar_snap.size() * sizeof(double)),
            0)
      << "SIMD-tier training changed the learned weights";
  EXPECT_EQ(std::memcmp(scalar_snap.data(), simd_mt_snap.data(),
                        scalar_snap.size() * sizeof(double)),
            0)
      << "SIMD-tier training is thread-count dependent";

  for (const gan::GeneratedSeries* out : {&simd_out, &simd_mt_out}) {
    expect_bitwise(out->attributes, scalar_out.attributes,
                   "sampled attributes");
    ASSERT_EQ(out->features.size(), scalar_out.features.size());
    for (std::size_t t = 0; t < scalar_out.features.size(); ++t) {
      expect_bitwise(out->features[t], scalar_out.features[t],
                     "sampled features");
    }
    EXPECT_EQ(out->lengths, scalar_out.lengths);
  }
}

}  // namespace
}  // namespace netshare::ml
