// Determinism/regression harness for the kernel layer: bitwise
// equivalence of the register-tiled kernels against the serial reference
// kernels (ml::reference, built without the kernel TU's -march=native, so
// every comparison is a vector body against a scalar chain) across shapes
// and thread counts, the prepacked trans_b and the serial row-range forms
// against the whole-batch entry points, the fused and seeded gates against
// the unfused reference composition, Adam's per-parameter update against
// its serial step, config plumbing, the transcendentals' error against libm
// and their special values, and a seeded end-to-end check that
// DoppelGanger training is bit-for-bit unchanged by kernel parallelism.
// The ragged-shape sweep over every tile edge and the transcendentals'
// vectorized loops against their per-element bodies are in test_simd.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "gan/doppelganger.hpp"
#include "ml/health.hpp"
#include "ml/kernels.hpp"
#include "ml/optim.hpp"
#include "ml/matrix.hpp"
#include "ml/workspace.hpp"

namespace netshare::ml {
namespace {

// Strict bitwise comparison: memcmp, not double ==, so that even a -0.0
// versus +0.0 divergence (a reduction-order tell) fails the test.
void expect_bitwise(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  if (got.size() == 0) return;  // memcmp may not take an empty vector's null
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        got.size() * sizeof(double)),
            0)
      << what << ": blocked kernel diverged from serial reference";
}

struct Shape {
  std::size_t rows, inner, cols;
  const char* label;
};

// Tall, wide, inner-dim 1, tile-aligned, and non-multiple-of-tile shapes.
const Shape kShapes[] = {
    {300, 8, 4, "tall"},
    {6, 7, 301, "wide"},
    {50, 1, 60, "inner-dim-1"},
    {1, 17, 1, "single-row-col"},
    {64, 64, 64, "tile-aligned"},
    {130, 97, 203, "non-multiple-of-tile"},
    {33, 200, 129, "k-spans-tiles"},
};

TEST(Kernels, BitwiseIdenticalToReferenceAcrossShapesAndThreads) {
  Rng rng(101);
  for (const Shape& s : kShapes) {
    const Matrix a = Matrix::randn(s.rows, s.inner, rng);
    const Matrix b = Matrix::randn(s.inner, s.cols, rng);
    const Matrix at = Matrix::randn(s.inner, s.rows, rng);  // for trans_a
    const Matrix bt = Matrix::randn(s.cols, s.inner, rng);  // for trans_b
    const Matrix ref = reference::matmul(a, b);
    const Matrix ref_ta = reference::matmul_trans_a(at, b);
    const Matrix ref_tb = reference::matmul_trans_b(a, bt);
    for (std::size_t threads = 1; threads <= 8; ++threads) {
      kernels::KernelConfig cfg;
      cfg.threads = threads;
      kernels::ConfigOverride guard(cfg);
      SCOPED_TRACE(std::string(s.label) + " threads=" +
                   std::to_string(threads));
      expect_bitwise(matmul(a, b), ref, "matmul");
      expect_bitwise(matmul_trans_a(at, b), ref_ta, "matmul_trans_a");
      expect_bitwise(matmul_trans_b(a, bt), ref_tb, "matmul_trans_b");
    }
  }
}

TEST(Kernels, IntoVariantsMatchAllocatingAndReferenceAcrossThreads) {
  Rng rng(105);
  for (const Shape& s : kShapes) {
    const Matrix a = Matrix::randn(s.rows, s.inner, rng);
    const Matrix b = Matrix::randn(s.inner, s.cols, rng);
    const Matrix at = Matrix::randn(s.inner, s.rows, rng);
    const Matrix bt = Matrix::randn(s.cols, s.inner, rng);
    const Matrix ref = reference::matmul(a, b);
    const Matrix ref_ta = reference::matmul_trans_a(at, b);
    const Matrix ref_tb = reference::matmul_trans_b(a, bt);
    // Start from a deliberately wrong-shaped buffer: the into-kernels must
    // reshape it (capacity reuse) and still produce bitwise-identical output.
    Matrix c(3, 7, 42.0);
    for (std::size_t threads = 1; threads <= 8; ++threads) {
      kernels::KernelConfig cfg;
      cfg.threads = threads;
      kernels::ConfigOverride guard(cfg);
      SCOPED_TRACE(std::string(s.label) + " threads=" +
                   std::to_string(threads));
      kernels::matmul_into(a, b, c);
      expect_bitwise(c, ref, "matmul_into");
      expect_bitwise(c, matmul(a, b), "matmul_into vs allocating");
      kernels::matmul_trans_a_into(at, b, c);
      expect_bitwise(c, ref_ta, "matmul_trans_a_into");
      expect_bitwise(c, matmul_trans_a(at, b),
                     "matmul_trans_a_into vs allocating");
      kernels::matmul_trans_b_into(a, bt, c);
      expect_bitwise(c, ref_tb, "matmul_trans_b_into");
      expect_bitwise(c, matmul_trans_b(a, bt),
                     "matmul_trans_b_into vs allocating");
    }
  }
}

TEST(Kernels, ElementwiseIntoHelpersMatchAllocatingCounterparts) {
  Rng rng(108);
  const Matrix a = Matrix::randn(37, 23, rng);
  const Matrix b = Matrix::randn(37, 23, rng);
  Matrix out(1, 1);  // wrong shape on purpose
  hadamard_into(a, b, out);
  expect_bitwise(out, hadamard(a, b), "hadamard_into");
  sum_rows_into(a, out);
  expect_bitwise(out, sum_rows(a), "sum_rows_into");
  concat_cols_into(a, b, out);
  expect_bitwise(out, concat_cols(a, b), "concat_cols_into");
  slice_rows_into(a, 5, 21, out);
  expect_bitwise(out, slice_rows(a, 5, 21), "slice_rows_into");
  const std::vector<Matrix> pieces{a, b};
  stack_rows_into(pieces, out);
  expect_bitwise(out, stack_rows(pieces), "stack_rows_into");
  Matrix out2(2, 2);
  stack_rows_into({&a, &b}, out2);
  expect_bitwise(out2, out, "stack_rows_into(initializer_list)");
}

// Seeds exact zeros (and a -0.0) among random entries, the operands the
// model's one-hot fields and ReLU layers hand the kernels.
Matrix randn_with_zeros(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = Matrix::randn(rows, cols, rng);
  for (std::size_t i = 0; i < m.size(); i += 7) m.data()[i] = 0.0;
  if (m.size() > 3) m.data()[3] = -0.0;
  return m;
}

// The unfused gate on the reference kernels: act((x·wx + h·wh) + bias).
Matrix reference_gate(const Matrix& x, const Matrix& wx, const Matrix& h,
                      const Matrix& wh, const Matrix& bias,
                      kernels::GateAct act) {
  Matrix out = reference::matmul(x, wx);
  out += reference::matmul(h, wh);
  add_row_broadcast_inplace(out, bias);
  if (act == kernels::GateAct::kSigmoid) {
    sigmoid_inplace(out);
  } else {
    tanh_inplace(out);
  }
  return out;
}

// batch x in -> hid gate shapes: the paper-shaped step (33x29->41) at every
// width 1-8, then ragged ones at widths 1 and 3 that reach the 16-wide and
// 4-wide tiles and the one-column tail.
TEST(Kernels, FusedGruGateMatchesUnfusedCompositionAcrossThreads) {
  struct GateShape {
    std::size_t batch, in, hid, max_threads;
  };
  const GateShape shapes[] = {{33, 29, 41, 8}, {1, 1, 1, 3},   {2, 3, 5, 3},
                              {17, 13, 17, 3}, {33, 7, 41, 3}, {16, 16, 48, 3},
                              {5, 11, 19, 3},  {13, 2, 37, 3}};
  Rng rng(107);
  for (const GateShape& g : shapes) {
    const Matrix x = randn_with_zeros(g.batch, g.in, rng);
    const Matrix wx = randn_with_zeros(g.in, g.hid, rng);
    const Matrix h = randn_with_zeros(g.batch, g.hid, rng);
    const Matrix wh = randn_with_zeros(g.hid, g.hid, rng);
    const Matrix bias = randn_with_zeros(1, g.hid, rng);
    for (const auto act :
         {kernels::GateAct::kSigmoid, kernels::GateAct::kTanh}) {
      const Matrix want = reference_gate(x, wx, h, wh, bias, act);
      Matrix scratch, out;
      for (std::size_t threads = 1; threads <= g.max_threads;
           threads += g.max_threads == 8 ? 1 : 2) {
        kernels::KernelConfig cfg;
        cfg.threads = threads;
        kernels::ConfigOverride guard(cfg);
        SCOPED_TRACE(std::string(act == kernels::GateAct::kSigmoid
                                     ? "sigmoid"
                                     : "tanh") +
                     " gate=" + std::to_string(g.batch) + "x" +
                     std::to_string(g.in) + "x" + std::to_string(g.hid) +
                     " threads=" + std::to_string(threads));
        kernels::gru_gate_into(x, wx, h, wh, bias, act, scratch, out);
        expect_bitwise(out, want, "gru_gate_into");
      }
    }
  }
}

TEST(Kernels, ConfigRoundTripAndOverrideRestore) {
  const kernels::KernelConfig before = kernels::config();
  {
    kernels::KernelConfig cfg;
    cfg.threads = 6;
    kernels::ConfigOverride guard(cfg);
    EXPECT_EQ(kernels::config().threads, 6u);
    EXPECT_EQ(kernels::effective_threads(), 6u);
  }
  EXPECT_EQ(kernels::config().threads, before.threads);
}

// The build facts a bench fingerprint records: the kernel TU's ISA agrees
// with the tier it reports, and its flags keep contraction off.
TEST(Kernels, KernelIsaNamesTheBuild) {
  const std::string isa = kernels::kernel_isa();
  EXPECT_TRUE(isa == "avx512f" || isa == "avx2" || isa == "baseline") << isa;
  EXPECT_EQ(kernels::active_tier() == kernels::SimdTier::kAvx2,
            isa != "baseline")
      << isa;
  EXPECT_NE(std::string(kernels::kernel_flags()).find("-ffp-contract=off"),
            std::string::npos)
      << kernels::kernel_flags();
}

TEST(Kernels, ConcurrentCallersShareThePoolSafely) {
  // Several caller threads issuing matmuls at once, each through its own
  // thread-local scratch and the lock-free config — the situation
  // ChunkedTrainer creates during parallel chunk fine-tuning. Run under
  // NETSHARE_SANITIZE=thread this is the central race check.
  kernels::KernelConfig cfg;
  cfg.threads = 4;
  kernels::ConfigOverride guard(cfg);
  std::vector<std::thread> callers;
  std::vector<int> ok(4, 0);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([t, &ok] {
      Rng rng(200 + static_cast<std::uint64_t>(t));
      const Matrix a = Matrix::randn(90, 70, rng);
      const Matrix b = Matrix::randn(70, 80, rng);
      const Matrix want = reference::matmul(a, b);
      int good = 0;
      for (int rep = 0; rep < 10; ++rep) {
        const Matrix got = matmul(a, b);
        good += std::memcmp(got.data().data(), want.data().data(),
                            got.size() * sizeof(double)) == 0;
      }
      ok[static_cast<std::size_t>(t)] = good;
    });
  }
  for (auto& c : callers) c.join();
  for (int good : ok) EXPECT_EQ(good, 10);
}

// Row ranges of a `rows`-row batch that do not divide it evenly.
std::vector<std::pair<std::size_t, std::size_t>> ragged_slices(
    std::size_t rows) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t at = 0;
  for (std::size_t step = 1; at < rows; step += 4) {
    out.emplace_back(at, std::min(rows, at + step));
    at = out.back().second;
  }
  return out;
}

TEST(Kernels, PrepackedTransBMatchesPerCallPack) {
  Rng rng(811);
  for (const Shape& s : kShapes) {
    const Matrix a = randn_with_zeros(s.rows, s.inner, rng);
    const Matrix b = randn_with_zeros(s.cols, s.inner, rng);
    Matrix per_call, packed;
    kernels::matmul_trans_b_into(a, b, per_call);
    expect_bitwise(per_call, reference::matmul_trans_b(a, b),
                   "per-call pack vs reference");
    kernels::PackedTransB pack;
    kernels::pack_trans_b(b, pack);
    kernels::matmul_trans_b_into(a, pack, packed);
    expect_bitwise(packed, per_call, s.label);
    // Row slices of the same product, each against the one pack.
    Matrix rows(s.rows, s.cols);
    for (const auto& [r0, r1] : ragged_slices(s.rows)) {
      kernels::matmul_trans_b_rows(a, pack, rows, r0, r1);
    }
    expect_bitwise(rows, per_call, "row slices against the pack");
  }
  // A pack is reusable: repacking a smaller B into it keeps the values.
  kernels::PackedTransB pack;
  const Matrix big = Matrix::randn(40, 30, rng);
  const Matrix small = Matrix::randn(5, 3, rng);
  const Matrix a = Matrix::randn(9, 3, rng);
  kernels::pack_trans_b(big, pack);
  kernels::pack_trans_b(small, pack);
  Matrix got;
  kernels::matmul_trans_b_into(a, pack, got);
  expect_bitwise(got, reference::matmul_trans_b(a, small), "repacked");
}

TEST(Kernels, RowFormsMatchWholeBatchEntryPoints) {
  Rng rng(829);
  for (const Shape& s : kShapes) {
    const Matrix a = randn_with_zeros(s.rows, s.inner, rng);
    const Matrix w = randn_with_zeros(s.inner, s.cols, rng);
    const Matrix bias = Matrix::randn(1, s.cols, rng);
    const Matrix h = randn_with_zeros(s.rows, s.cols, rng);
    const Matrix wh = Matrix::randn(s.cols, s.cols, rng);
    Matrix want, scratch;
    kernels::matmul_bias_into(a, w, bias, want);
    Matrix got(s.rows, s.cols);
    for (const auto& [r0, r1] : ragged_slices(s.rows)) {
      kernels::matmul_bias_rows(a, w, bias, got, r0, r1);
    }
    expect_bitwise(got, want, "matmul_bias_rows");
    for (const auto act : {kernels::GateAct::kSigmoid,
                           kernels::GateAct::kTanh}) {
      kernels::gru_gate_into(a, w, h, wh, bias, act, scratch, want);
      Matrix gate(s.rows, s.cols), gate_scratch(s.rows, s.cols);
      for (const auto& [r0, r1] : ragged_slices(s.rows)) {
        kernels::gru_gate_rows(a, w, h, wh, bias, act, gate_scratch, gate,
                               r0, r1);
      }
      expect_bitwise(gate, want, "gru_gate_rows");
    }
    // Weight-gradient products split by output rows.
    const Matrix g = randn_with_zeros(s.rows, s.cols, rng);
    Matrix acc = Matrix::randn(s.inner, s.cols, rng);
    Matrix acc_rows = acc;
    kernels::matmul_trans_a_acc_into(a, g, acc);
    for (const auto& [r0, r1] : ragged_slices(s.inner)) {
      kernels::matmul_trans_a_acc_rows(a, g, acc_rows, r0, r1);
    }
    expect_bitwise(acc_rows, acc, "matmul_trans_a_acc_rows");
  }
}

// Rows [r0, r1) of m as a matrix of their own.
Matrix row_block(const Matrix& m, std::size_t r0, std::size_t r1) {
  Matrix out(r1 - r0, m.cols());
  std::copy(m.row_ptr(r0), m.row_ptr(r1), out.row_ptr(0));
  return out;
}

// The conditioned GRU's gate (DESIGN.md §5): x·Wx's chain seeded with the
// cond projection P = cond·Wx[cond rows] is the unseeded fused gate on the
// concatenation [cond | x] against Wx's rows taken cond-first, and both are
// memcmp-equal to the unfused composition on the reference kernels,
// whole-batch and in ragged row ranges; the 16-wide tiles, the
// single-vector tiles and the one-column tail are all reached, and at the
// sampler's shape (64 series, 8 step inputs + 48 cond, gate width 48) a NaN
// in h's first row survives the seeded path.
TEST(Kernels, SeededGateMatchesFusedGateOnCondFirstConcat) {
  struct GateShape {
    std::size_t rows, step, cond, gate;
  };
  const GateShape shapes[] = {{13, 8, 105, 48}, {7, 3, 5, 17},
                               {40, 1, 64, 33},  {5, 0, 9, 6},
                               {64, 8, 48, 48}};
  Rng rng(907);
  for (const GateShape& g : shapes) {
    const std::size_t R = g.rows, S = g.step, A = g.cond, G = g.gate;
    const Matrix x = randn_with_zeros(R, S, rng);
    const Matrix cond = randn_with_zeros(R, A, rng);
    const Matrix wx = Matrix::randn(S + A, G, rng);  // step rows first
    Matrix h = randn_with_zeros(R, G, rng);
    if (R == 64) h(0, 0) = std::numeric_limits<double>::quiet_NaN();
    const Matrix wh = Matrix::randn(G, G, rng);
    const Matrix bias = Matrix::randn(1, G, rng);
    // The oracle's operands: [cond | x] and Wx's cond rows over its step
    // rows.
    Matrix xc(R, A + S), wx_cf(A + S, G);
    for (std::size_t i = 0; i < R; ++i) {
      std::copy(cond.row_ptr(i), cond.row_ptr(i) + A, xc.row_ptr(i));
      std::copy(x.row_ptr(i), x.row_ptr(i) + S, xc.row_ptr(i) + A);
    }
    std::copy(wx.row_ptr(S), wx.row_ptr(S + A), wx_cf.row_ptr(0));
    std::copy(wx.row_ptr(0), wx.row_ptr(S), wx_cf.row_ptr(A));

    Matrix seed(R, G);
    for (const auto& [r0, r1] : ragged_slices(R)) {
      kernels::matmul_rows(cond, wx, S, seed, r0, r1);
    }
    expect_bitwise(seed, reference::matmul(cond, row_block(wx, S, S + A)),
                   "matmul_rows on Wx's cond rows");
    for (const auto act : {kernels::GateAct::kSigmoid,
                           kernels::GateAct::kTanh}) {
      const Matrix want = reference_gate(xc, wx_cf, h, wh, bias, act);
      Matrix scratch, got;
      kernels::gru_gate_into(xc, wx_cf, h, wh, bias, act, scratch, got);
      expect_bitwise(got, want, "unseeded gru_gate_into on [cond | x]");
      kernels::gru_gate_into(x, wx, h, wh, bias, act, scratch, got, &seed);
      expect_bitwise(got, want, "seeded gru_gate_into");
      if (R == 64) {
        EXPECT_TRUE(std::isnan(got(0, 0)));
      }
      Matrix rows(R, G), rows_scratch(R, G);
      for (const auto& [r0, r1] : ragged_slices(R)) {
        kernels::gru_gate_rows(x, wx, h, wh, bias, act, rows_scratch, rows,
                               r0, r1, &seed);
      }
      expect_bitwise(rows, want, "seeded gru_gate_rows");
    }
    Matrix bad_seed(R, G + 1), out(R, G), scratch(R, G);
    EXPECT_THROW(kernels::gru_gate_rows(x, wx, h, wh, bias,
                                        kernels::GateAct::kTanh, scratch,
                                        out, 0, R, &bad_seed),
                 std::invalid_argument);
  }
}

// The block operands of the conditioned GRU's backward: a pack of B's rows
// [row0, row1), and a weight-gradient product landing in one block of a
// taller accumulator, equal the same products on copied blocks.
TEST(Kernels, RowBlockOperandsMatchCopiedBlocks) {
  Rng rng(911);
  const Matrix b = Matrix::randn(30, 17, rng);
  const Matrix a = randn_with_zeros(11, 17, rng);
  kernels::PackedTransB pack;
  kernels::pack_trans_b(b, 8, 30, pack);
  Matrix got(11, 22);
  for (const auto& [r0, r1] : ragged_slices(11)) {
    kernels::matmul_trans_b_rows(a, pack, got, r0, r1);
  }
  expect_bitwise(got, reference::matmul_trans_b(a, row_block(b, 8, 30)),
                 "pack of a row block");

  const Matrix x = randn_with_zeros(9, 6, rng);
  const Matrix d = randn_with_zeros(9, 13, rng);
  Matrix tall = Matrix::randn(20, 13, rng);
  Matrix block = row_block(tall, 4, 10);
  kernels::matmul_trans_a_acc_into(x, d, block);
  for (const auto& [r0, r1] : ragged_slices(6)) {
    kernels::matmul_trans_a_acc_rows(x, d, tall, r0, r1, 4);
  }
  expect_bitwise(row_block(tall, 4, 10), block, "acc into a row block");
  EXPECT_THROW(kernels::matmul_trans_a_acc_rows(x, d, tall, 0, 6, 15),
               std::invalid_argument);
  kernels::PackedTransB bad;
  EXPECT_THROW(kernels::pack_trans_b(Matrix(4, 3), 2, 5, bad),
               std::invalid_argument);
}

// Random rows x cols operand with an exact zero in every third place and
// `special` in every 33rd place from `first` on.
Matrix with_specials(std::size_t rows, std::size_t cols, double special,
                     std::size_t first, Rng& rng) {
  Matrix m = Matrix::randn(rows, cols, rng);
  for (std::size_t i = 0; i < m.size(); i += 3) m.data()[i] = 0.0;
  for (std::size_t i = first; i < m.size(); i += 33) m.data()[i] = special;
  return m;
}

// A left operand: zeros in every third place and all of row `zero_row`, and
// its one special in the last row, where it meets the right operand's zeros
// without hiding what the zero row meets.
Matrix left_operand(std::size_t rows, std::size_t cols, double special,
                    std::size_t zero_row, Rng& rng) {
  Matrix m = with_specials(rows, cols, special, (rows - 1) * cols + 1, rng);
  std::fill(m.row_ptr(zero_row), m.row_ptr(zero_row) + cols, 0.0);
  return m;
}

// Every reduction chain takes every product (DESIGN.md §10), so a zero
// multiplicand facing inf or NaN puts NaN into the chain. Each kernel, whole
// batch and in row ranges, gives the ml::reference
// oracle's bits. A case carries one special value, so its NaNs share one bit
// pattern whichever operand an add takes it from. The zero rows of the left
// operands meet the right operands' specials in the 16- and 4-wide column
// tiles and the one-column tail; the gate's h zero row (row 1) meets wh's specials
// in columns where row 1 of x·wx stays finite, and x's (row 0) meets wx's
// where row 0 of h·wh does, so restoring a zero-skip in either chain of
// any tile shows.
TEST(Kernels, ZeroMultiplicandsGiveTheSameBitsOnEveryPath) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {kInf, -kInf,
                             std::numeric_limits<double>::quiet_NaN()};
  constexpr std::size_t R = 9, K = 10, C = 23, H = 7, A = 6;
  const auto acts = {kernels::GateAct::kSigmoid, kernels::GateAct::kTanh};
  Rng rng(1203);
  for (const double special : specials) {
    SCOPED_TRACE("special=" + std::to_string(special));
    const Matrix a = left_operand(R, K, special, 0, rng);
    const Matrix at = left_operand(K, R, special, 0, rng);  // trans_a input
    const Matrix h = left_operand(R, H, special, 1, rng);
    const Matrix cond = left_operand(R, A, special, 0, rng);
    const Matrix b = with_specials(K, C, special, 1, rng);
    const Matrix bt = with_specials(C, K, special, 1, rng);  // trans_b input
    const Matrix wx = with_specials(K + A, C, special, 1, rng);  // step rows
    const Matrix wh = with_specials(H, C, special, 2, rng);      // first
    const Matrix bias = Matrix::randn(1, C, rng);
    const Matrix acc0 = Matrix::randn(R, C, rng);

    const Matrix want_mm = reference::matmul(a, row_block(wx, 0, K));
    Matrix want_bias = reference::matmul(a, b);
    add_row_broadcast_inplace(want_bias, bias);
    const Matrix want_ta = reference::matmul_trans_a(at, b);
    Matrix want_acc = acc0;
    want_acc += reference::matmul_trans_a(at, b);
    const Matrix want_tb = reference::matmul_trans_b(a, bt);
    // The seeded gate's oracle: the unseeded gate on [cond | a] against
    // wx's cond rows stacked over its step rows.
    Matrix xc(R, A + K), wx_cf(A + K, C);
    for (std::size_t i = 0; i < R; ++i) {
      std::copy(cond.row_ptr(i), cond.row_ptr(i) + A, xc.row_ptr(i));
      std::copy(a.row_ptr(i), a.row_ptr(i) + K, xc.row_ptr(i) + A);
    }
    std::copy(wx.row_ptr(K), wx.row_ptr(K + A), wx_cf.row_ptr(0));
    std::copy(wx.row_ptr(0), wx.row_ptr(K), wx_cf.row_ptr(A));

    Matrix got, rows(R, C), scratch(R, C);
    kernels::matmul_into(a, row_block(wx, 0, K), got);
    expect_bitwise(got, want_mm, "matmul_into");
    for (const auto& [r0, r1] : ragged_slices(R)) {
      kernels::matmul_rows(a, wx, 0, rows, r0, r1);
    }
    expect_bitwise(rows, want_mm, "matmul_rows");
    kernels::matmul_bias_into(a, b, bias, got);
    expect_bitwise(got, want_bias, "matmul_bias_into");
    for (const auto& [r0, r1] : ragged_slices(R)) {
      kernels::matmul_bias_rows(a, b, bias, rows, r0, r1);
    }
    expect_bitwise(rows, want_bias, "matmul_bias_rows");
    kernels::matmul_trans_a_into(at, b, got);
    expect_bitwise(got, want_ta, "matmul_trans_a_into");
    got = acc0;
    kernels::matmul_trans_a_acc_into(at, b, got);
    expect_bitwise(got, want_acc, "matmul_trans_a_acc_into");
    rows = acc0;
    for (const auto& [r0, r1] : ragged_slices(R)) {
      kernels::matmul_trans_a_acc_rows(at, b, rows, r0, r1);
    }
    expect_bitwise(rows, want_acc, "matmul_trans_a_acc_rows");
    kernels::matmul_trans_b_into(a, bt, got);
    expect_bitwise(got, want_tb, "matmul_trans_b_into");
    kernels::PackedTransB pack;
    kernels::pack_trans_b(bt, pack);
    for (const auto& [r0, r1] : ragged_slices(R)) {
      kernels::matmul_trans_b_rows(a, pack, rows, r0, r1);
    }
    expect_bitwise(rows, want_tb, "matmul_trans_b_rows");

    Matrix seed(R, C);
    for (const auto& [r0, r1] : ragged_slices(R)) {
      kernels::matmul_rows(cond, wx, K, seed, r0, r1);
    }
    for (const auto act : acts) {
      const Matrix want = reference_gate(a, row_block(wx, 0, K), h, wh,
                                         bias, act);
      kernels::gru_gate_into(a, row_block(wx, 0, K), h, wh, bias, act,
                             scratch, got);
      expect_bitwise(got, want, "gru_gate_into");
      for (const auto& [r0, r1] : ragged_slices(R)) {
        kernels::gru_gate_rows(a, row_block(wx, 0, K), h, wh, bias, act,
                               scratch, rows, r0, r1);
      }
      expect_bitwise(rows, want, "gru_gate_rows");
      const Matrix want_seeded = reference_gate(xc, wx_cf, h, wh, bias, act);
      kernels::gru_gate_into(a, wx, h, wh, bias, act, scratch, got, &seed);
      expect_bitwise(got, want_seeded, "seeded gru_gate_into");
      for (const auto& [r0, r1] : ragged_slices(R)) {
        kernels::gru_gate_rows(a, wx, h, wh, bias, act, scratch, rows, r0,
                               r1, &seed);
      }
      expect_bitwise(rows, want_seeded, "seeded gru_gate_rows");
    }
  }
}

// A seeded chain that starts at -0.0 is the one finite case where taking a
// zero product changes a sum: -0 + (+0) is +0. The gate's output cannot
// show it (the h·wh chain starts at +0 and -0 + +0 is +0), but every path
// must still agree: an all-zero x row against a -0.0 seed gives, whole
// batch and in row ranges, the bits of the element chain
// written out — seed, then every product in ascending k.
TEST(Kernels, NegativeZeroSeedGivesTheSameBitsOnEveryPath) {
  constexpr std::size_t R = 5, S = 6, G = 23, H = 4;
  Rng rng(1207);
  const Matrix x(R, S);  // all zero
  const Matrix wx = Matrix::randn(S, G, rng);
  Matrix h = Matrix::randn(R, H, rng);
  std::fill(h.row_ptr(1), h.row_ptr(2), 0.0);
  const Matrix wh = Matrix::randn(H, G, rng);
  Matrix bias = Matrix::randn(1, G, rng);
  bias(0, 3) = -0.0;
  const Matrix seed(R, G, -0.0);
  for (const auto act : {kernels::GateAct::kSigmoid, kernels::GateAct::kTanh}) {
    Matrix want(R, G);
    for (std::size_t i = 0; i < R; ++i) {
      for (std::size_t j = 0; j < G; ++j) {
        double sx = seed(i, j), sh = 0.0;
        for (std::size_t k = 0; k < S; ++k) sx += x(i, k) * wx(k, j);
        for (std::size_t k = 0; k < H; ++k) sh += h(i, k) * wh(k, j);
        want(i, j) = (sx + sh) + bias(0, j);
      }
    }
    if (act == kernels::GateAct::kSigmoid) {
      sigmoid_inplace(want);
    } else {
      tanh_inplace(want);
    }
    Matrix got, scratch(R, G), rows(R, G);
    kernels::gru_gate_into(x, wx, h, wh, bias, act, scratch, got, &seed);
    expect_bitwise(got, want, "-0.0-seeded gru_gate_into");
    for (const auto& [r0, r1] : ragged_slices(R)) {
      kernels::gru_gate_rows(x, wx, h, wh, bias, act, scratch, rows, r0, r1,
                             &seed);
    }
    expect_bitwise(rows, want, "-0.0-seeded gru_gate_rows");
  }
}

TEST(Kernels, RowFormsRejectUnshapedOutputs) {
  const Matrix a(4, 3), b(3, 5), bias(1, 5);
  Matrix c(3, 5);  // one row short of the batch
  EXPECT_THROW(kernels::matmul_bias_rows(a, b, bias, c, 0, 2),
               std::invalid_argument);
  c.resize(4, 5);
  EXPECT_THROW(kernels::matmul_bias_rows(a, b, bias, c, 3, 5),
               std::invalid_argument);
  kernels::PackedTransB pack;
  kernels::pack_trans_b(Matrix(5, 2), pack);  // inner 2, a has 3 columns
  EXPECT_THROW(kernels::matmul_trans_b_rows(a, pack, c, 0, 4),
               std::invalid_argument);
}

// Adam::step before it was split per parameter, verbatim: the oracle for
// the per-parameter tasks and the vectorized update.
void adam_reference_step(std::vector<Matrix>& w, const std::vector<Matrix>& g,
                         std::vector<Matrix>& m, std::vector<Matrix>& v,
                         long t) {
  const double beta1_ = 0.5, beta2_ = 0.999, eps_ = 1e-8, lr_ = 1e-3;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t));
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = 0; j < w[i].size(); ++j) {
      double& mj = m[i].data()[j];
      double& vj = v[i].data()[j];
      const double gj = g[i].data()[j];
      mj = beta1_ * mj + (1.0 - beta1_) * gj;
      vj = beta2_ * vj + (1.0 - beta2_) * gj * gj;
      const double mhat = mj / bc1;
      const double vhat = vj / bc2;
      w[i].data()[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

TEST(Adam, PerParameterTasksMatchSerialStep) {
  Rng rng(853);
  // Ragged sizes, so the vector body and its scalar tail both run.
  const std::size_t shapes[][2] = {{7, 5}, {1, 3}, {16, 4}, {1, 1}};
  std::vector<Parameter> serial, tasks;
  std::vector<Matrix> ref_w, ref_m, ref_v;
  for (const auto& sh : shapes) {
    serial.emplace_back(Matrix::randn(sh[0], sh[1], rng));
    tasks.emplace_back(serial.back().value);
    ref_w.push_back(serial.back().value);
    ref_m.push_back(Matrix::zeros(sh[0], sh[1]));
    ref_v.push_back(Matrix::zeros(sh[0], sh[1]));
  }
  std::vector<Parameter*> ps, pt;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ps.push_back(&serial[i]);
    pt.push_back(&tasks[i]);
  }
  Adam a(ps), b(pt);
  for (long step = 1; step <= 5; ++step) {
    std::vector<Matrix> grads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      grads.push_back(randn_with_zeros(serial[i].value.rows(),
                                       serial[i].value.cols(), rng));
      serial[i].grad = grads.back();
      tasks[i].grad = grads.back();
    }
    a.step();
    b.begin_step();
    // Distinct parameters as concurrent tasks, in no particular order.
    ThreadPool::shared().parallel_for(
        tasks.size(),
        [&](std::size_t k) { b.step_param(tasks.size() - 1 - k); }, 4);
    adam_reference_step(ref_w, grads, ref_m, ref_v, step);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_bitwise(tasks[i].value, serial[i].value, "tasks vs step()");
      expect_bitwise(serial[i].value, ref_w[i], "step() vs reference");
    }
  }
}

TEST(Kernels, IntoKernelsOperateOnAdjacentWorkspaceBuffers) {
  // Pooled buffers come back-to-back from the same arena epoch; the kernels
  // must treat them as fully independent operands (no aliasing between
  // distinct pool slots) and reuse them identically across reset epochs.
  Workspace ws;
  Rng rng(607);
  Matrix expected;
  for (int epoch = 0; epoch < 3; ++epoch) {
    ws.reset();
    Matrix& a = ws.get(19, 23);
    Matrix& b = ws.get(23, 17);
    Matrix& c = ws.get(19, 17);   // output, same epoch as its inputs
    Matrix& d = ws.get(19, 17);   // second slot of the same shape class
    randn_fill(a, rng);
    randn_fill(b, rng);
    kernels::matmul_into(a, b, c);
    expect_bitwise(c, reference::matmul(a, b),
                   "matmul_into on pooled buffers");
    kernels::matmul_trans_b_into(c, b, d);  // pooled output feeds pooled in
    expect_bitwise(d, reference::matmul_trans_b(c, b),
                   "matmul_trans_b_into chained through the pool");
  }
}

// --- end-to-end: GAN training is bitwise independent of kernel threads ----

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

std::vector<double> train_and_snapshot(std::size_t kernel_threads,
                                       gan::GeneratedSeries* sampled) {
  kernels::KernelConfig cfg;
  cfg.threads = kernel_threads;
  kernels::ConfigOverride guard(cfg);

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

TEST(Kernels, DoppelGangerFitAndGenerateBitwiseIdenticalKernelsOnVsOff) {
  gan::GeneratedSeries serial_out, parallel_out;
  const std::vector<double> serial_snap = train_and_snapshot(1, &serial_out);
  const std::vector<double> parallel_snap =
      train_and_snapshot(8, &parallel_out);

  ASSERT_EQ(serial_snap.size(), parallel_snap.size());
  EXPECT_EQ(std::memcmp(serial_snap.data(), parallel_snap.data(),
                        serial_snap.size() * sizeof(double)),
            0)
      << "training with parallel kernels changed the learned weights";

  expect_bitwise(parallel_out.attributes, serial_out.attributes,
                 "sampled attributes");
  ASSERT_EQ(parallel_out.features.size(), serial_out.features.size());
  for (std::size_t t = 0; t < serial_out.features.size(); ++t) {
    expect_bitwise(parallel_out.features[t], serial_out.features[t],
                   "sampled features");
  }
  EXPECT_EQ(parallel_out.lengths, serial_out.lengths);
}

// --- transcendentals ---------------------------------------------------------

// One unit in the last place of `ref` rounded to double (the subnormal
// spacing below DBL_MIN).
long double ulp_at(long double ref) {
  const long double a = std::fabs(ref);
  if (a < DBL_MIN) return std::ldexp(1.0L, -1074);
  int e = 0;
  std::frexp(static_cast<double>(a), &e);
  return std::ldexp(1.0L, e - 53);
}

struct ErrorSweep {
  double max_ulp = 0.0;
  double at = 0.0;
};

// Max error, in ULP of the exact value, of `fn` over [lo, hi) in `points`
// even steps, against the long double libm reference.
ErrorSweep sweep(void (*fn)(const double*, double*, std::size_t),
                 const std::function<long double(long double)>& ref,
                 double lo, double hi, std::size_t points) {
  std::vector<double> x(points), y(points);
  for (std::size_t i = 0; i < points; ++i) {
    x[i] = lo + (hi - lo) * (static_cast<double>(i) /
                             static_cast<double>(points));
  }
  fn(x.data(), y.data(), points);
  ErrorSweep worst;
  for (std::size_t i = 0; i < points; ++i) {
    const long double want = ref(x[i]);
    const double err = static_cast<double>(
        std::fabs(static_cast<long double>(y[i]) - want) / ulp_at(want));
    if (err > worst.max_ulp) worst = {err, x[i]};
  }
  return worst;
}

long double sigmoid_ref(long double x) { return 1.0L / (1.0L + expl(-x)); }

// Dense sweeps of every range a kernel branches on, against libm in long
// double. The documented bound is 2 ULP; the maxima these sweeps measured
// were exp 0.67 on normal
// results and 0.75 with subnormal ones, sigmoid 1.52, tanh 1.41.
TEST(Kernels, TranscendentalsStayWithinTwoUlpOfLibm) {
  struct Range {
    const char* name;
    void (*fn)(const double*, double*, std::size_t);
    std::function<long double(long double)> ref;
    double lo, hi;
  };
  const auto exp_ref = [](long double v) { return expl(v); };
  const auto tanh_ref = [](long double v) { return tanhl(v); };
  const Range ranges[] = {
      {"exp", kernels::exp_into, exp_ref, -745.1, 709.78},
      {"exp", kernels::exp_into, exp_ref, -1.0, 1.0},
      {"sigmoid", kernels::sigmoid_into, sigmoid_ref, -745.1, 45.0},
      {"sigmoid", kernels::sigmoid_into, sigmoid_ref, -3.0, 3.0},
      {"tanh", kernels::tanh_into, tanh_ref, -21.0, 21.0},
      {"tanh", kernels::tanh_into, tanh_ref, -0.7, 0.7},
      {"tanh", kernels::tanh_into, tanh_ref, -1e-6, 1e-6},
  };
  for (const Range& r : ranges) {
    const ErrorSweep e = sweep(r.fn, r.ref, r.lo, r.hi, 400001);
    EXPECT_LE(e.max_ulp, 2.0)
        << r.name << " on [" << r.lo << ", " << r.hi
        << "): worst at x = " << e.at;
  }
}

TEST(Kernels, TranscendentalSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto one = [](void (*fn)(const double*, double*, std::size_t),
                      double x) {
    double y = 0.0;
    fn(&x, &y, 1);
    return y;
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const auto fn : {kernels::exp_into, kernels::sigmoid_into,
                        kernels::tanh_into}) {
    EXPECT_TRUE(std::isnan(one(fn, nan)));
    EXPECT_TRUE(std::isnan(one(fn, -nan)));
  }
  EXPECT_EQ(one(kernels::exp_into, inf), inf);
  EXPECT_EQ(bits(one(kernels::exp_into, -inf)), bits(0.0));
  EXPECT_EQ(one(kernels::exp_into, 0.0), 1.0);
  EXPECT_EQ(one(kernels::exp_into, -0.0), 1.0);
  EXPECT_EQ(one(kernels::exp_into, 710.0), inf);         // overflow
  EXPECT_EQ(one(kernels::exp_into, 709.78), std::exp(709.78));
  EXPECT_EQ(bits(one(kernels::exp_into, -746.0)), bits(0.0));  // underflow
  EXPECT_EQ(one(kernels::exp_into, -745.13), 5e-324);   // least subnormal
  EXPECT_EQ(one(kernels::exp_into, -740.0), std::exp(-740.0));
  EXPECT_EQ(one(kernels::exp_into, 5e-324), 1.0);
  EXPECT_EQ(one(kernels::sigmoid_into, inf), 1.0);
  EXPECT_EQ(bits(one(kernels::sigmoid_into, -inf)), bits(0.0));
  EXPECT_EQ(one(kernels::sigmoid_into, 0.0), 0.5);
  EXPECT_EQ(one(kernels::sigmoid_into, -0.0), 0.5);
  EXPECT_EQ(one(kernels::sigmoid_into, 40.0), 1.0);
  EXPECT_EQ(one(kernels::sigmoid_into, -740.0), std::exp(-740.0));
  EXPECT_EQ(one(kernels::tanh_into, inf), 1.0);
  EXPECT_EQ(one(kernels::tanh_into, -inf), -1.0);
  EXPECT_EQ(one(kernels::tanh_into, 25.0), 1.0);
  EXPECT_EQ(bits(one(kernels::tanh_into, 0.0)), bits(0.0));
  EXPECT_EQ(bits(one(kernels::tanh_into, -0.0)), bits(-0.0));
  EXPECT_EQ(one(kernels::tanh_into, 5e-324), 5e-324);
  EXPECT_EQ(one(kernels::tanh_into, -1e-310), -1e-310);
}

// The relu family and the sigmoid/tanh gradients as flat kernel loops,
// memcmp against the per-element expressions ActivationLayer ran before
// they moved into the kernel layer: forward and backward, out of place and
// in place, on signed zeros, infinities, NaN payloads, subnormals and both
// signs, at every length 0-19 (each vector tail) and at 37/64/129.
TEST(Kernels, ReluFamilyMatchesElementwiseReference) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> pool = {
      0.0, -0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000123}),
      std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),  // sNaN
      std::bit_cast<double>(std::uint64_t{0xfff4000000000042}),
      5e-324, -5e-324, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, 1.0, -1.0};
  Rng rng(77);
  while (pool.size() < 160) pool.push_back(rng.normal() * 3.0);
  std::vector<double> grads(pool.size());
  for (double& g : grads) g = rng.normal();
  grads[3] = -0.0;
  grads[5] = inf;
  grads[7] = std::numeric_limits<double>::quiet_NaN();
  const double slope = 0.2;
  const auto same = [](const std::vector<double>& got,
                       const std::vector<double>& want,
                       const std::string& what) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0)
        << what;
  };
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 20; ++n) lengths.push_back(n);
  for (const std::size_t n : {37u, 64u, 129u}) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    for (const std::size_t off : {0u, 1u, 17u}) {
      const std::string at =
          " n=" + std::to_string(n) + " off=" + std::to_string(off);
      const std::vector<double> x(pool.begin() + off, pool.begin() + off + n);
      const std::vector<double> g(grads.begin() + off,
                                  grads.begin() + off + n);
      // The per-element reference sequences.
      std::vector<double> relu(n), leaky(n), relu_g = g, leaky_g = g;
      std::vector<double> sig_g = g, tanh_g = g;
      for (std::size_t i = 0; i < n; ++i) {
        relu[i] = x[i] > 0 ? x[i] : 0.0;
        leaky[i] = x[i] > 0 ? x[i] : slope * x[i];
        if (x[i] <= 0) relu_g[i] = 0.0;
        if (x[i] <= 0) leaky_g[i] *= slope;
        sig_g[i] *= x[i] * (1.0 - x[i]);  // x stands in for the cached y
        tanh_g[i] *= 1.0 - x[i] * x[i];
      }
      std::vector<double> y(n), in_place = x;
      kernels::relu_into(x.data(), y.data(), n);
      same(y, relu, "relu" + at);
      kernels::relu_into(in_place.data(), in_place.data(), n);
      same(in_place, relu, "relu in place" + at);
      in_place = x;
      kernels::leaky_relu_into(x.data(), y.data(), n, slope);
      same(y, leaky, "leaky_relu" + at);
      kernels::leaky_relu_into(in_place.data(), in_place.data(), n, slope);
      same(in_place, leaky, "leaky_relu in place" + at);
      const auto grad_pair = [&](const std::vector<double>& want,
                                 const auto& fn, const char* name) {
        std::vector<double> out(n), gi = g;
        fn(g.data(), out.data());
        same(out, want, std::string(name) + at);
        fn(gi.data(), gi.data());
        same(gi, want, std::string(name) + " in place" + at);
      };
      grad_pair(relu_g, [&](const double* gin, double* out) {
        kernels::relu_grad_into(x.data(), gin, out, n);
      }, "relu_grad");
      grad_pair(leaky_g, [&](const double* gin, double* out) {
        kernels::leaky_relu_grad_into(x.data(), gin, out, n, slope);
      }, "leaky_relu_grad");
      grad_pair(sig_g, [&](const double* gin, double* out) {
        kernels::sigmoid_grad_into(x.data(), gin, out, n);
      }, "sigmoid_grad");
      grad_pair(tanh_g, [&](const double* gin, double* out) {
        kernels::tanh_grad_into(x.data(), gin, out, n);
      }, "tanh_grad");
    }
  }
}

// A NaN entering any activation leaves it as a NaN, so the health guard's
// non-finite scan sees it: no clamp may swallow it. Covers every call site
// of the transcendentals — the layer activations, each MixedHead segment
// kind, softmax_rows, the matrix ops and both gate epilogues.
TEST(Kernels, NaNReachesHealthGuardThroughEveryActivation) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix x(3, 7, 0.25);
  x(1, 2) = nan;
  x(2, 6) = -nan;
  std::vector<std::pair<std::string, Matrix>> outs;
  for (const Activation a : {Activation::kSigmoid, Activation::kTanh}) {
    ActivationLayer layer(a);
    outs.emplace_back("ActivationLayer", layer.forward(x));
  }
  MixedHead head({{OutputSegment::Kind::kSoftmax, 3},
                  {OutputSegment::Kind::kSigmoid, 2},
                  {OutputSegment::Kind::kTanh, 2}});
  Matrix xh = x;
  xh(0, 1) = nan;  // softmax segment
  xh(0, 3) = nan;  // sigmoid segment
  xh(0, 5) = nan;  // tanh segment
  const Matrix y = head.forward(xh);
  for (const std::size_t col : {1u, 3u, 5u}) {
    EXPECT_TRUE(std::isnan(y(0, col))) << "MixedHead col " << col;
  }
  outs.emplace_back("MixedHead", y);
  outs.emplace_back("softmax_rows", softmax_rows(x));
  Matrix s = x;
  sigmoid_inplace(s);
  outs.emplace_back("sigmoid_inplace", s);
  Matrix th = x;
  tanh_inplace(th);
  outs.emplace_back("tanh_inplace", th);
  const Matrix wx(7, 5, 0.1), h(3, 5, 0.2), wh(5, 5, 0.3), bias(1, 5, 0.0);
  for (const auto act :
       {kernels::GateAct::kSigmoid, kernels::GateAct::kTanh}) {
    Matrix scratch, out;
    kernels::gru_gate_into(x, wx, h, wh, bias, act, scratch, out);
    outs.emplace_back("gru_gate_into", out);
  }
  for (const auto& [what, out] : outs) {
    std::size_t nans = 0;
    for (const double v : out.data()) nans += std::isnan(v) ? 1 : 0;
    EXPECT_GT(nans, 0u) << what << " swallowed the NaN";
    std::vector<Parameter> params{Parameter(out)};
    health::HealthMonitor monitor(health::HealthConfig{}, {&params[0]}, 1);
    EXPECT_FALSE(monitor.check(1, 0.0, 0.0, 0.0, 0.0)) << what;
    EXPECT_NE(monitor.stats().last_issue.find("parameter"), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace netshare::ml
