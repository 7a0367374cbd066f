// Tests for the ML substrate, including finite-difference gradient checks of
// every differentiable module (Linear, activations, MixedHead, MLP, GRU).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>

#include "common/thread_pool.hpp"
#include "ml/gru.hpp"
#include "ml/kernels.hpp"
#include "ml/loss.hpp"
#include "ml/mlp.hpp"
#include "ml/optim.hpp"
#include "ml/serialize.hpp"

namespace netshare::ml {
namespace {

TEST(Matrix, BasicOpsAndShapes) {
  Matrix a(2, 3, 1.0);
  Matrix b(2, 3, 2.0);
  Matrix c = a + b;
  EXPECT_DOUBLE_EQ(c(0, 0), 3.0);
  c *= 2.0;
  EXPECT_DOUBLE_EQ(c(1, 2), 6.0);
  EXPECT_THROW(a += Matrix(3, 2), std::invalid_argument);
}

TEST(Matrix, MatmulMatchesHandComputation) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, TransposedMatmulsAgreeWithExplicitTranspose) {
  Rng rng(7);
  const Matrix a = Matrix::randn(4, 3, rng);
  const Matrix b = Matrix::randn(4, 5, rng);
  const Matrix ta = matmul_trans_a(a, b);  // a^T b: [3,5]
  const Matrix ref_a = matmul(transpose(a), b);
  for (std::size_t i = 0; i < ta.rows(); ++i) {
    for (std::size_t j = 0; j < ta.cols(); ++j) {
      EXPECT_NEAR(ta(i, j), ref_a(i, j), 1e-12);
    }
  }
  const Matrix x = Matrix::randn(2, 3, rng);
  const Matrix y = Matrix::randn(4, 3, rng);
  const Matrix xy = matmul_trans_b(x, y);  // x y^T: [2,4]
  const Matrix ref_xy = matmul(x, transpose(y));
  for (std::size_t i = 0; i < xy.rows(); ++i) {
    for (std::size_t j = 0; j < xy.cols(); ++j) {
      EXPECT_NEAR(xy(i, j), ref_xy(i, j), 1e-12);
    }
  }
}

TEST(Matrix, ConcatSplitRoundTrip) {
  Rng rng(3);
  Matrix a = Matrix::randn(3, 2, rng);
  Matrix b = Matrix::randn(3, 4, rng);
  const Matrix c = concat_cols(a, b);
  auto [l, r] = split_cols(c, 2);
  EXPECT_EQ(l, a);
  EXPECT_EQ(r, b);
}

TEST(Matrix, StackSliceRoundTrip) {
  Rng rng(4);
  std::vector<Matrix> parts{Matrix::randn(2, 3, rng), Matrix::randn(2, 3, rng)};
  const Matrix stacked = stack_rows(parts);
  EXPECT_EQ(slice_rows(stacked, 0, 2), parts[0]);
  EXPECT_EQ(slice_rows(stacked, 2, 4), parts[1]);
}

// --- finite-difference gradient checking helpers ---------------------------

// Checks dLoss/dInput of a module against central differences, where
// Loss = sum(output .* coeff) for a fixed random coeff matrix.
void check_input_gradient(Module& module, const Matrix& x, Rng& rng,
                          double tol = 1e-5) {
  const Matrix y0 = module.forward(x);
  Matrix coeff = Matrix::randn(y0.rows(), y0.cols(), rng);
  const Matrix gin = module.backward(coeff);

  const double h = 1e-6;
  for (std::size_t idx = 0; idx < x.size(); idx += std::max<std::size_t>(1, x.size() / 23)) {
    Matrix xp = x, xm = x;
    xp.data()[idx] += h;
    xm.data()[idx] -= h;
    double fp = 0.0, fm = 0.0;
    {
      const Matrix yp = module.forward(xp);
      for (std::size_t i = 0; i < yp.size(); ++i) fp += yp.data()[i] * coeff.data()[i];
      const Matrix ym = module.forward(xm);
      for (std::size_t i = 0; i < ym.size(); ++i) fm += ym.data()[i] * coeff.data()[i];
    }
    const double numeric = (fp - fm) / (2 * h);
    EXPECT_NEAR(gin.data()[idx], numeric, tol) << "input index " << idx;
  }
}

// Checks dLoss/dParam for every parameter of a module.
void check_param_gradients(Module& module, const Matrix& x, Rng& rng,
                           double tol = 1e-5) {
  const Matrix y0 = module.forward(x);
  Matrix coeff = Matrix::randn(y0.rows(), y0.cols(), rng);
  module.zero_grad();
  module.backward(coeff);

  for (Parameter* p : module.parameters()) {
    for (std::size_t idx = 0; idx < p->value.size();
         idx += std::max<std::size_t>(1, p->value.size() / 11)) {
      const double h = 1e-6;
      const double orig = p->value.data()[idx];
      p->value.data()[idx] = orig + h;
      const Matrix yp = module.forward(x);
      p->value.data()[idx] = orig - h;
      const Matrix ym = module.forward(x);
      p->value.data()[idx] = orig;
      double fp = 0.0, fm = 0.0;
      for (std::size_t i = 0; i < yp.size(); ++i) {
        fp += yp.data()[i] * coeff.data()[i];
        fm += ym.data()[i] * coeff.data()[i];
      }
      const double numeric = (fp - fm) / (2 * h);
      EXPECT_NEAR(p->grad.data()[idx], numeric, tol) << "param index " << idx;
    }
  }
}

TEST(GradCheck, LinearInputAndParams) {
  Rng rng(11);
  Linear lin(4, 3, rng);
  const Matrix x = Matrix::randn(5, 4, rng);
  check_input_gradient(lin, x, rng);
  check_param_gradients(lin, x, rng);
}

TEST(GradCheck, Activations) {
  Rng rng(12);
  for (Activation act : {Activation::kLeakyRelu, Activation::kTanh,
                         Activation::kSigmoid, Activation::kIdentity}) {
    ActivationLayer layer(act);
    const Matrix x = Matrix::randn(4, 6, rng);
    check_input_gradient(layer, x, rng);
  }
}

TEST(GradCheck, MixedHeadAllSegmentKinds) {
  Rng rng(13);
  MixedHead head({{OutputSegment::Kind::kSoftmax, 3},
                  {OutputSegment::Kind::kSigmoid, 2},
                  {OutputSegment::Kind::kTanh, 1},
                  {OutputSegment::Kind::kIdentity, 2}});
  const Matrix x = Matrix::randn(4, 8, rng);
  check_input_gradient(head, x, rng);
}

// MixedHead activates a row block run by run (adjacent sigmoid or tanh
// segments merged, narrow runs gathered through a scratch, softmax's exp in
// one call per block). Each element must come out bitwise as the per-row,
// per-segment calls made it before, on the attribute and feature layouts
// of the caida (bit-encoded ports) and ugr16 (IP2Vec ports) presets, tanh
// runs, softmax widths 1/2/3/12, identity, empty and wider-than-scratch
// segments, over ragged row ranges; so must the backward pass.
TEST(MixedHead, BlockActivationMatchesPerRowSegments) {
  using K = OutputSegment::Kind;
  const std::vector<std::vector<OutputSegment>> layouts = {
      {{K::kSigmoid, 32}, {K::kSigmoid, 32}, {K::kSigmoid, 16},
       {K::kSigmoid, 16}, {K::kSoftmax, 3}, {K::kSigmoid, 11}},  // caida attr
      {{K::kSigmoid, 32}, {K::kSigmoid, 32}, {K::kSigmoid, 4},
       {K::kSigmoid, 4}, {K::kSoftmax, 3}, {K::kSigmoid, 11}},   // ugr16 attr
      {{K::kSigmoid, 1}, {K::kSigmoid, 1}, {K::kSigmoid, 1},
       {K::kSoftmax, 2}},                                         // caida feat
      {{K::kSigmoid, 1}, {K::kSigmoid, 1}, {K::kSigmoid, 1},
       {K::kSigmoid, 1}, {K::kSoftmax, 12}, {K::kSoftmax, 2}},    // ugr16 feat
      {{K::kTanh, 2}, {K::kTanh, 3}, {K::kSigmoid, 1}, {K::kTanh, 1},
       {K::kTanh, 4}},
      {{K::kSoftmax, 1}, {K::kIdentity, 2}, {K::kSoftmax, 2},
       {K::kSigmoid, 0}, {K::kSoftmax, 3}, {K::kIdentity, 1},
       {K::kSoftmax, 12}, {K::kSoftmax, 0}},
      {{K::kSigmoid, 5}},
      {{K::kTanh, 1100}, {K::kSigmoid, 2}, {K::kSoftmax, 3}},
  };
  const std::size_t kRows = 300;
  const std::size_t cuts[] = {0, 1, 17, 150, 299, kRows};
  Rng rng(4321);
  for (const auto& segs : layouts) {
    MixedHead head(segs);
    const std::size_t W = head.width();
    Matrix x = Matrix::randn(kRows, W, rng, 4.0);
    for (std::size_t i = 0; i < x.size(); i += 37) x.data()[i] = 40.0;
    for (std::size_t i = 5; i < x.size(); i += 53) x.data()[i] = -50.0;
    x.data()[W / 2] = std::numeric_limits<double>::quiet_NaN();
    const Matrix g = Matrix::randn(kRows, W, rng);
    // The per-row, per-segment reference.
    Matrix want = x, want_g = g;
    for (std::size_t i = 0; i < kRows; ++i) {
      std::size_t at = 0;
      for (const OutputSegment& seg : segs) {
        double* v = want.row_ptr(i) + at;
        double* gv = want_g.row_ptr(i) + at;
        switch (seg.kind) {
          case K::kSoftmax: {
            kernels::softmax_inplace(v, seg.width);
            double dot = 0.0;
            for (std::size_t j = 0; j < seg.width; ++j) dot += gv[j] * v[j];
            for (std::size_t j = 0; j < seg.width; ++j) {
              gv[j] = v[j] * (gv[j] - dot);
            }
            break;
          }
          case K::kSigmoid:
            kernels::sigmoid_into(v, v, seg.width);
            for (std::size_t j = 0; j < seg.width; ++j) {
              gv[j] *= v[j] * (1.0 - v[j]);
            }
            break;
          case K::kTanh:
            kernels::tanh_into(v, v, seg.width);
            for (std::size_t j = 0; j < seg.width; ++j) {
              gv[j] *= 1.0 - v[j] * v[j];
            }
            break;
          case K::kIdentity:
            break;
        }
        at += seg.width;
      }
    }
    const auto same = [](const Matrix& got, const Matrix& w,
                         const std::string& what) {
      ASSERT_EQ(got.size(), w.size()) << what;
      EXPECT_EQ(std::memcmp(got.data().data(), w.data().data(),
                            got.size() * sizeof(double)),
                0)
          << what;
    };
    const std::string what = "layout of width " + std::to_string(W);
    same(head.forward(x), want, "forward, " + what);
    same(head.backward(g), want_g, "backward, " + what);
    Matrix y;
    head.forward_into(x, y);
    same(y, want, "forward_into, " + what);
    Matrix rows_into(kRows, W);
    head.prepare_forward(kRows, W);
    for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
      head.forward_rows(x, cuts[c], cuts[c + 1]);
      head.forward_rows_into(x, rows_into, cuts[c], cuts[c + 1]);
    }
    same(head.output(), want, "forward_rows, " + what);
    same(rows_into, want, "forward_rows_into, " + what);
    head.prepare_backward(true);
    for (std::size_t c = std::size(cuts) - 1; c > 0; --c) {
      head.backward_input_rows(g, cuts[c - 1], cuts[c]);
    }
    same(head.input_grad(), want_g, "backward_input_rows, " + what);
  }
}

TEST(GradCheck, MlpEndToEnd) {
  Rng rng(14);
  Mlp mlp({5, 8, 7, 2}, Activation::kTanh, rng);
  const Matrix x = Matrix::randn(3, 5, rng);
  check_input_gradient(mlp, x, rng, 1e-4);
  check_param_gradients(mlp, x, rng, 1e-4);
}

// A conditioned GRU's loss f = Σ_t <h_t, coeff_t> on (xs, cond), and the
// central differences of f against its cond inputs and every weight: the
// gradients backward() returns and accumulates must match them.
struct GruCase {
  std::vector<Matrix> xs, coeff;
  Matrix cond;
};

GruCase make_gru_case(Gru& gru, std::size_t T, std::size_t B, Rng& rng) {
  GruCase c;
  for (std::size_t t = 0; t < T; ++t) {
    c.xs.push_back(Matrix::randn(B, gru.step_dim(), rng));
    c.coeff.push_back(Matrix::randn(B, gru.hidden_dim(), rng));
  }
  c.cond = Matrix::randn(B, gru.cond_dim(), rng);
  return c;
}

double gru_loss(Gru& gru, const GruCase& c, const Matrix& cond) {
  const auto& hs = gru.forward(c.xs, cond);
  double f = 0.0;
  for (std::size_t t = 0; t < hs.size(); ++t) {
    for (std::size_t i = 0; i < hs[t].size(); ++i) {
      f += hs[t].data()[i] * c.coeff[t].data()[i];
    }
  }
  return f;
}

// `stride` samples every stride-th entry; 1 checks them all.
void check_gru_gradients(Gru& gru, const GruCase& c, std::size_t stride,
                         double tol) {
  gru.forward(c.xs, c.cond);
  gru.zero_grad();
  const Matrix cond_grad = gru.backward(c.coeff);
  ASSERT_EQ(cond_grad.rows(), c.cond.rows());
  ASSERT_EQ(cond_grad.cols(), gru.cond_dim());
  const double h = 1e-6;
  for (std::size_t idx = 0; idx < c.cond.size(); idx += stride) {
    Matrix cp = c.cond, cm = c.cond;
    cp.data()[idx] += h;
    cm.data()[idx] -= h;
    const double numeric =
        (gru_loss(gru, c, cp) - gru_loss(gru, c, cm)) / (2 * h);
    EXPECT_NEAR(cond_grad.data()[idx], numeric, tol) << "cond " << idx;
  }
  gru.forward(c.xs, c.cond);
  gru.zero_grad();
  gru.backward(c.coeff);
  std::size_t k = 0;
  for (Parameter* p : gru.parameters()) {
    for (std::size_t idx = 0; idx < p->value.size(); idx += stride) {
      const double orig = p->value.data()[idx];
      p->value.data()[idx] = orig + h;
      const double fp = gru_loss(gru, c, c.cond);
      p->value.data()[idx] = orig - h;
      const double fm = gru_loss(gru, c, c.cond);
      p->value.data()[idx] = orig;
      EXPECT_NEAR(p->grad.data()[idx], (fp - fm) / (2 * h), tol)
          << "parameter " << k << " idx " << idx;
    }
    ++k;
  }
}

TEST(GradCheck, GruBptt) {
  Rng rng(15);
  Gru gru(3, 0, 4, rng);  // the plain GRU
  const GruCase c = make_gru_case(gru, 3, 2, rng);
  check_gru_gradients(gru, c, 1, 1e-5);
}

// Every entry of every weight, Wx's cond rows included, and of the cond
// input: the cond rows' gradient comes from one product against the gate
// gradients summed over t, the cond gradient likewise.
TEST(GradCheck, ConditionedGruBptt) {
  Rng rng(17);
  Gru gru(3, 4, 5, rng);
  const GruCase c = make_gru_case(gru, 4, 3, rng);
  check_gru_gradients(gru, c, 1, 1e-5);
}

// The GRU's passes as DoppelGanger::fit runs them: forward_rows and
// backward_rows slices, then grad_task parts (weights cut by output rows,
// biases whole), each as tasks on the shared executor, `width` wide.
const Matrix& gru_passes_on_pool(Gru& gru, const GruCase& c,
                                 std::size_t width) {
  const std::size_t T = c.xs.size(), B = c.cond.rows();
  const auto begin = [&](std::size_t k, std::size_t n) {
    return k * n / width;
  };
  ThreadPool& pool = ThreadPool::shared();
  gru.prepare_forward(T, B);
  pool.parallel_for(
      width,
      [&](std::size_t k) {
        gru.forward_rows(c.xs, c.cond, begin(k, B), begin(k + 1, B));
      },
      width);
  gru.prepare_backward();
  pool.parallel_for(
      width,
      [&](std::size_t k) {
        gru.backward_rows(c.coeff, begin(k, B), begin(k + 1, B));
      },
      width);
  struct Part {
    std::size_t param, r0, r1;
  };
  std::vector<Part> parts;
  const std::vector<Parameter*> params = gru.parameters();
  for (std::size_t p = 0; p < Gru::kGradTasks; ++p) {
    const std::size_t rows = params[p]->grad.rows();
    const std::size_t n = rows == 1 ? 1 : width;
    for (std::size_t k = 0; k < n; ++k) {
      parts.push_back({p, k * rows / n, (k + 1) * rows / n});
    }
  }
  pool.parallel_for(
      parts.size(),
      [&](std::size_t i) {
        gru.grad_task(parts[i].param, parts[i].r0, parts[i].r1);
      },
      width);
  return gru.cond_grad();
}

// Batched BPTT through the row form on the shared executor at widths 2, 5
// and 8: the same finite-difference check (against the whole-batch loss)
// as the single-thread checks above.
TEST(GradCheck, GruBpttRowSlicedOnSharedPool) {
  Rng rng(21);
  Gru gru(5, 3, 7, rng);
  const GruCase c = make_gru_case(gru, 4, 8, rng);
  for (std::size_t width : {2u, 5u, 8u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    gru.zero_grad();
    const Matrix cond_grad = gru_passes_on_pool(gru, c, width);
    const double h = 1e-6, tol = 1e-4;
    for (std::size_t idx = 0; idx < c.cond.size(); idx += 7) {
      Matrix cp = c.cond, cm = c.cond;
      cp.data()[idx] += h;
      cm.data()[idx] -= h;
      const double numeric =
          (gru_loss(gru, c, cp) - gru_loss(gru, c, cm)) / (2 * h);
      EXPECT_NEAR(cond_grad.data()[idx], numeric, tol) << "cond " << idx;
    }
    std::size_t k = 0;
    for (Parameter* p : gru.parameters()) {
      for (std::size_t idx = 0; idx < p->value.size(); idx += 7) {
        const double orig = p->value.data()[idx];
        p->value.data()[idx] = orig + h;
        const double fp = gru_loss(gru, c, c.cond);
        p->value.data()[idx] = orig - h;
        const double fm = gru_loss(gru, c, c.cond);
        p->value.data()[idx] = orig;
        EXPECT_NEAR(p->grad.data()[idx], (fp - fm) / (2 * h), tol)
            << "parameter " << k << " idx " << idx;
      }
      ++k;
    }
  }
}

// The row form on the shared executor must be bitwise independent of its
// width (the GRU is the deepest matmul consumer): hidden states, the cond
// gradient and every parameter gradient at widths 1, 2, 5 and 8.
TEST(GradCheck, GruRowSlicedBitwiseStableAcrossWidths) {
  auto run = [](std::size_t width) {
    Rng rng(22);
    Gru gru(4, 2, 9, rng);
    const GruCase c = make_gru_case(gru, 5, 16, rng);
    gru.zero_grad();
    const Matrix& cond_grad = gru_passes_on_pool(gru, c, width);
    std::vector<double> flat;
    for (const auto& hmat : gru.hidden()) {
      flat.insert(flat.end(), hmat.data().begin(), hmat.data().end());
    }
    flat.insert(flat.end(), cond_grad.data().begin(), cond_grad.data().end());
    for (Parameter* p : gru.parameters()) {
      flat.insert(flat.end(), p->grad.data().begin(), p->grad.data().end());
    }
    return flat;
  };
  const std::vector<double> serial = run(1);
  for (std::size_t width : {2u, 5u, 8u}) {
    const std::vector<double> parallel = run(width);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.size() * sizeof(double)),
              0)
        << "width=" << width;
  }
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

// The row-sliced passes (ml/layers.hpp) fill whole-batch buffers a range at
// a time; in any slicing, and with weight gradients split by output rows,
// the values are the whole-batch passes', bitwise. The GRU runs plain and
// conditioned; Wx's row split then falls inside its step rows, on their
// boundary with the cond rows, and inside the cond rows.
TEST(RowSliced, GruAndMlpMatchWholeBatchPasses) {
  const std::size_t B = 13, T = 4, in = 6, H = 5;
  const std::pair<std::size_t, std::size_t> slices[] = {{0, 4}, {4, 5},
                                                        {5, 13}};
  Rng rng(41);
  std::vector<Matrix> xs, grads;
  for (std::size_t t = 0; t < T; ++t) {
    xs.push_back(Matrix::randn(B, in, rng));
    grads.push_back(Matrix::randn(B, H, rng));
  }
  for (const std::size_t cond_dim : {0u, 3u, 6u, 12u}) {
    SCOPED_TRACE("cond_dim " + std::to_string(cond_dim));
    const Matrix cond = Matrix::randn(B, cond_dim, rng);
    Rng ra(7), rb(7);
    Gru whole(in, cond_dim, H, ra), sliced(in, cond_dim, H, rb);
    const std::vector<Matrix> hs = whole.forward(xs, cond);
    whole.zero_grad();
    const Matrix cond_grad = whole.backward(grads);
    sliced.prepare_forward(T, B);
    for (const auto& [r0, r1] : slices) sliced.forward_rows(xs, cond, r0, r1);
    sliced.prepare_backward();
    for (const auto& [r0, r1] : slices) sliced.backward_rows(grads, r0, r1);
    sliced.zero_grad();
    for (std::size_t k = 0; k < Gru::kGradTasks; ++k) {
      const std::size_t rows = sliced.parameters()[k]->grad.rows();
      // Weights in two output-row parts, biases whole.
      sliced.grad_task(k, 0, rows / 2);
      sliced.grad_task(k, rows / 2, rows);
    }
    for (std::size_t t = 0; t < T; ++t) {
      EXPECT_TRUE(bitwise_equal(sliced.hidden()[t], hs[t])) << "h " << t;
    }
    EXPECT_TRUE(bitwise_equal(sliced.cond_grad(), cond_grad));
    for (std::size_t p = 0; p < Gru::kGradTasks; ++p) {
      EXPECT_TRUE(bitwise_equal(sliced.parameters()[p]->grad,
                                whole.parameters()[p]->grad))
          << "parameter " << p;
    }
  }

  const std::vector<OutputSegment> head = {{OutputSegment::Kind::kSoftmax, 3},
                                           {OutputSegment::Kind::kTanh, 1}};
  Rng ma(9), mb(9);
  Mlp mw({in, 8, 7, 4}, Activation::kLeakyRelu, head, ma);
  Mlp ms({in, 8, 7, 4}, Activation::kLeakyRelu, head, mb);
  const Matrix& x = xs[0];
  const Matrix seed = Matrix::randn(B, 4, rng);
  const Matrix y = mw.forward(x);
  mw.zero_grad();
  const Matrix gx = mw.backward(seed);
  ms.prepare_forward(B, in);
  ms.prepare_backward(true);
  std::vector<Matrix> bufs;
  ms.prepare_forward_into(B, in, bufs);
  for (const auto& [r0, r1] : slices) {
    ms.forward_rows(x, r0, r1);
    ms.forward_rows_into(x, bufs, r0, r1);
  }
  for (const auto& [r0, r1] : slices) ms.backward_input_rows(seed, r0, r1);
  ms.zero_grad();
  for (std::size_t k = 0; k < ms.grad_tasks(); ++k) {
    const std::size_t rows = ms.parameters()[k]->grad.rows();
    ms.grad_task(k, seed, 0, rows);
  }
  EXPECT_TRUE(bitwise_equal(ms.output(), y));
  EXPECT_TRUE(bitwise_equal(bufs.back(), y));
  EXPECT_TRUE(bitwise_equal(ms.input_grad(), gx));
  for (std::size_t p = 0; p < ms.parameters().size(); ++p) {
    EXPECT_TRUE(bitwise_equal(ms.parameters()[p]->grad,
                              mw.parameters()[p]->grad))
        << "mlp parameter " << p;
  }
}

// The forward-only twins read only the weights and write caller-owned
// scratch, with the same kernels in the same order as forward().
TEST(ForwardInto, MatchesForwardBitwise) {
  Rng rng(31);
  const Matrix x = Matrix::randn(7, 6, rng);
  Matrix y;
  Linear lin(6, 5, rng);
  lin.forward_into(x, y);
  EXPECT_TRUE(bitwise_equal(y, lin.forward(x)));
  for (Activation kind : {Activation::kRelu, Activation::kLeakyRelu,
                          Activation::kTanh, Activation::kSigmoid}) {
    ActivationLayer act(kind);
    act.forward_into(x, y);
    EXPECT_TRUE(bitwise_equal(y, act.forward(x)));
  }
  MixedHead head({{OutputSegment::Kind::kSoftmax, 3},
                  {OutputSegment::Kind::kSigmoid, 2},
                  {OutputSegment::Kind::kTanh, 1}});
  head.forward_into(x, y);
  EXPECT_TRUE(bitwise_equal(y, head.forward(x)));
  Mlp mlp({6, 8, 8, 4}, Activation::kRelu,
          {{OutputSegment::Kind::kSoftmax, 3},
           {OutputSegment::Kind::kSigmoid, 1}},
          rng);
  std::vector<Matrix> bufs;
  mlp.prepare_forward_into(x.rows(), x.cols(), bufs);
  EXPECT_TRUE(bitwise_equal(mlp.forward_rows_into(x, bufs, 0, x.rows()),
                            mlp.forward(x)));

  // One GRU step from a zero state equals the first step of the unroll, and
  // leaves a pending forward()/backward() pair's caches alone.
  Rng ra(5), rb(5);
  Gru gru(4, 2, 4, ra), twin(4, 2, 4, rb);
  const Matrix step0 = Matrix::randn(7, 4, rng);
  const Matrix cond = Matrix::randn(7, 2, rng);
  const std::vector<Matrix> xs = {step0, Matrix::randn(7, 4, rng)};
  const Matrix h1 = gru.forward(xs, cond)[0];
  twin.forward(xs, cond);
  Gru::GateRows proj;
  gru.project_cond_into(cond, proj);
  Gru::StepScratch scratch;
  Matrix h_out;
  gru.step_into(step0, proj, Matrix::zeros(7, 4), h_out, scratch);
  EXPECT_TRUE(bitwise_equal(h_out, h1));
  const std::vector<Matrix> grads(2, Matrix(7, 4, 1.0));
  EXPECT_TRUE(bitwise_equal(gru.backward(grads), twin.backward(grads)));
  for (std::size_t p = 0; p < gru.parameters().size(); ++p) {
    EXPECT_TRUE(bitwise_equal(gru.parameters()[p]->grad,
                              twin.parameters()[p]->grad))
        << "parameter " << p;
  }
}

// --- an independent oracle for every layer's passes -------------------------
//
// Each layer implements every pass once, as its row form, and the
// whole-batch passes wrap it; comparing the two only compares the code with
// itself. The oracle below rebuilds each pass from the serial
// ml::reference products, a row-broadcast bias add, column sums and
// one-element activation calls (a value never depends on a call's length),
// and every form of every pass must match it bitwise.

// y = x W + b: the full product chain first, then one bias add.
Matrix oracle_affine(const Matrix& x, const Matrix& w, const Matrix& b) {
  Matrix y = reference::matmul(x, w);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    for (std::size_t j = 0; j < y.cols(); ++j) y(i, j) += b(0, j);
  }
  return y;
}

Matrix oracle_column_sums(const Matrix& g) {
  Matrix s(1, g.cols(), 0.0);
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) s(0, j) += g(i, j);
  }
  return s;
}

Matrix oracle_activate(Activation kind, const Matrix& x) {
  Matrix y(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double* in = &x.data()[i];
    double* out = &y.data()[i];
    switch (kind) {
      case Activation::kRelu: kernels::relu_into(in, out, 1); break;
      case Activation::kLeakyRelu:
        kernels::leaky_relu_into(in, out, 1, 0.2);
        break;
      case Activation::kTanh: kernels::tanh_into(in, out, 1); break;
      case Activation::kSigmoid: kernels::sigmoid_into(in, out, 1); break;
      case Activation::kIdentity: *out = *in; break;
    }
  }
  return y;
}

// The input gradient from the pre-activation x, the activation y and the
// output gradient g.
Matrix oracle_activation_grad(Activation kind, const Matrix& x,
                              const Matrix& y, const Matrix& g) {
  Matrix gx(g.rows(), g.cols());
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double* gi = &g.data()[i];
    double* out = &gx.data()[i];
    switch (kind) {
      case Activation::kRelu:
        kernels::relu_grad_into(&x.data()[i], gi, out, 1);
        break;
      case Activation::kLeakyRelu:
        kernels::leaky_relu_grad_into(&x.data()[i], gi, out, 1, 0.2);
        break;
      case Activation::kTanh:
        kernels::tanh_grad_into(&y.data()[i], gi, out, 1);
        break;
      case Activation::kSigmoid:
        kernels::sigmoid_grad_into(&y.data()[i], gi, out, 1);
        break;
      case Activation::kIdentity: *out = *gi; break;
    }
  }
  return gx;
}

// A MixedHead segment by segment, row by row: softmax through
// kernels::softmax_inplace and its Jacobian-vector product, sigmoid and tanh
// one element at a time.
void oracle_head(const std::vector<OutputSegment>& segs, const Matrix& x,
                 const Matrix& g, Matrix& y, Matrix& gx) {
  using K = OutputSegment::Kind;
  y = x;
  gx = g;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    std::size_t at = 0;
    for (const OutputSegment& seg : segs) {
      double* v = y.row_ptr(i) + at;
      double* gv = gx.row_ptr(i) + at;
      if (seg.kind == K::kSoftmax) {
        kernels::softmax_inplace(v, seg.width);
        double dot = 0.0;
        for (std::size_t j = 0; j < seg.width; ++j) dot += gv[j] * v[j];
        for (std::size_t j = 0; j < seg.width; ++j) {
          gv[j] = v[j] * (gv[j] - dot);
        }
      }
      for (std::size_t j = 0; j < seg.width; ++j) {
        if (seg.kind == K::kSigmoid) {
          kernels::sigmoid_into(v + j, v + j, 1);
          kernels::sigmoid_grad_into(v + j, gv + j, gv + j, 1);
        } else if (seg.kind == K::kTanh) {
          kernels::tanh_into(v + j, v + j, 1);
          kernels::tanh_grad_into(v + j, gv + j, gv + j, 1);
        }
      }
      at += seg.width;
    }
  }
}

// What every pass of a module must produce for input x and output gradient
// g: the output, the input gradient, and each parameter's gradient as added
// to whatever the gradient held before.
struct OraclePasses {
  Matrix y, gx;
  std::vector<Matrix> grads;
};

// A Linear layer's passes on (W, b); `grads` gets {dW, db}.
void oracle_linear(const Matrix& w, const Matrix& b, const Matrix& x,
                   const Matrix& g, OraclePasses& out) {
  out.y = oracle_affine(x, w, b);
  out.gx = reference::matmul_trans_b(g, w);
  out.grads.push_back(reference::matmul_trans_a(x, g));
  out.grads.push_back(oracle_column_sums(g));
}

// Checks every form of every pass of `m` against the oracle: the
// whole-batch wrappers, the row form and (for a single layer or an Mlp) the
// forward-only row form, the row forms over ragged slicings. Parameter
// gradients start from random values, so accumulation is checked too.
void expect_passes(Module& m, const Matrix& x, const Matrix& g,
                   const OraclePasses& want, const std::string& what) {
  const auto same = [&](const Matrix& got, const Matrix& w,
                        const std::string& pass) {
    ASSERT_EQ(got.rows(), w.rows()) << what << ", " << pass;
    ASSERT_EQ(got.cols(), w.cols()) << what << ", " << pass;
    EXPECT_EQ(std::memcmp(got.data().data(), w.data().data(),
                          got.size() * sizeof(double)),
              0)
        << what << ", " << pass;
  };
  const std::vector<Parameter*> params = m.parameters();
  ASSERT_EQ(params.size(), want.grads.size()) << what;
  Rng rng(97);
  std::vector<Matrix> before;
  for (Parameter* p : params) {
    before.push_back(Matrix::randn(p->grad.rows(), p->grad.cols(), rng));
  }
  const auto reset_grads = [&] {
    for (std::size_t k = 0; k < params.size(); ++k) {
      params[k]->grad = before[k];
    }
  };
  const auto grads_are = [&](bool accumulated, const std::string& pass) {
    for (std::size_t k = 0; k < params.size(); ++k) {
      Matrix w = before[k];
      if (accumulated) w += want.grads[k];
      same(params[k]->grad, w, pass + ", parameter " + std::to_string(k));
    }
  };
  const std::size_t B = x.rows();
  const std::vector<std::size_t> cuts = {0, 1, B / 3, B / 3 + 1, B - 1, B};

  // The whole-batch wrappers.
  reset_grads();
  same(m.forward(x), want.y, "forward");
  same(m.backward(g), want.gx, "backward");
  grads_are(true, "backward");
  reset_grads();
  m.forward(x);
  same(m.backward_input(g), want.gx, "backward_input");
  grads_are(false, "backward_input");
  m.forward(x);
  m.backward_params(g);
  grads_are(true, "backward_params");

  // The row form over ragged slices, the forward run last slice first.
  reset_grads();
  m.prepare_forward(B, x.cols());
  for (std::size_t c = cuts.size() - 1; c > 0; --c) {
    m.forward_rows(x, cuts[c - 1], cuts[c]);
  }
  same(m.output(), want.y, "forward_rows");
  m.prepare_backward(true);
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    m.backward_input_rows(g, cuts[c], cuts[c + 1]);
  }
  same(m.input_grad(), want.gx, "backward_input_rows");
  m.accumulate_grads(g);
  grads_are(true, "accumulate_grads");
  reset_grads();
  m.prepare_forward(B, x.cols());
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    m.forward_rows(x, cuts[c], cuts[c + 1]);
  }
  m.prepare_backward(false);
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    m.backward_delta_rows(g, cuts[c], cuts[c + 1]);
  }
  m.accumulate_grads(g);
  grads_are(true, "backward_delta_rows");

  // The forward-only row form.
  if (const auto* layer = dynamic_cast<const Layer*>(&m)) {
    Matrix y;
    layer->forward_into(x, y);
    same(y, want.y, "forward_into");
    Matrix rows(B, want.y.cols());
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      layer->forward_rows_into(x, rows, cuts[c], cuts[c + 1]);
    }
    same(rows, want.y, "forward_rows_into");
  } else if (const auto* mlp = dynamic_cast<const Mlp*>(&m)) {
    std::vector<Matrix> bufs;
    mlp->prepare_forward_into(B, x.cols(), bufs);
    for (std::size_t c = cuts.size() - 1; c > 0; --c) {
      mlp->forward_rows_into(x, bufs, cuts[c - 1], cuts[c]);
    }
    same(bufs.back(), want.y, "forward_rows_into");
  }
}

// Linear at odd shapes (tails of every column tile), each Activation, a
// MixedHead and a 3-layer Mlp with a MixedHead output, all parameters
// random (the biases included).
TEST(Module, PassesMatchReferenceComposition) {
  using K = OutputSegment::Kind;
  const std::vector<OutputSegment> segs = {
      {K::kSoftmax, 3}, {K::kSigmoid, 2}, {K::kTanh, 1},
      {K::kIdentity, 2}, {K::kSigmoid, 1}, {K::kSoftmax, 1}};
  const std::size_t B = 13;
  const auto randomize = [](Module& m, Rng& rng) {
    for (Parameter* p : m.parameters()) {
      p->value = Matrix::randn(p->value.rows(), p->value.cols(), rng);
    }
  };
  Rng rng(71);

  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {7, 17}, {33, 5}, {3, 37}};
  for (const auto& [in, out] : shapes) {
    Linear lin(in, out, rng);
    randomize(lin, rng);
    const Matrix x = Matrix::randn(B, in, rng);
    const Matrix g = Matrix::randn(B, out, rng);
    OraclePasses want;
    oracle_linear(lin.weight().value, lin.bias().value, x, g, want);
    expect_passes(lin, x, g, want,
                  "Linear " + std::to_string(in) + "x" +
                      std::to_string(out));
  }

  for (Activation kind : {Activation::kRelu, Activation::kLeakyRelu,
                          Activation::kTanh, Activation::kSigmoid,
                          Activation::kIdentity}) {
    ActivationLayer act(kind);
    Matrix x = Matrix::randn(B, 11, rng, 3.0);
    x(0, 0) = 0.0;  // the relu family's kink
    const Matrix g = Matrix::randn(B, 11, rng);
    OraclePasses want;
    want.y = oracle_activate(kind, x);
    want.gx = oracle_activation_grad(kind, x, want.y, g);
    expect_passes(act, x, g, want,
                  "Activation " + std::to_string(static_cast<int>(kind)));
  }

  MixedHead head(segs);
  const Matrix hx = Matrix::randn(B, head.width(), rng, 3.0);
  const Matrix hg = Matrix::randn(B, head.width(), rng);
  OraclePasses hwant;
  oracle_head(segs, hx, hg, hwant.y, hwant.gx);
  expect_passes(head, hx, hg, hwant, "MixedHead");

  // Linear → leaky relu → Linear → leaky relu → Linear → MixedHead.
  const std::size_t dims[] = {7, 9, 5, head.width()};
  Mlp mlp({dims[0], dims[1], dims[2], dims[3]}, Activation::kLeakyRelu,
          segs, rng);
  randomize(mlp, rng);
  const std::vector<Parameter*> p = mlp.parameters();
  const Matrix x = Matrix::randn(B, dims[0], rng);
  const Matrix g = Matrix::randn(B, dims[3], rng);
  Matrix a[3], z[3];  // pre-activations and activations per hidden layer
  a[0] = oracle_affine(x, p[0]->value, p[1]->value);
  z[0] = oracle_activate(Activation::kLeakyRelu, a[0]);
  a[1] = oracle_affine(z[0], p[2]->value, p[3]->value);
  z[1] = oracle_activate(Activation::kLeakyRelu, a[1]);
  a[2] = oracle_affine(z[1], p[4]->value, p[5]->value);
  OraclePasses want;
  Matrix d2;  // the gradient at the last Linear's output
  oracle_head(segs, a[2], g, want.y, d2);
  const Matrix gz1 = reference::matmul_trans_b(d2, p[4]->value);
  const Matrix d1 =
      oracle_activation_grad(Activation::kLeakyRelu, a[1], z[1], gz1);
  const Matrix gz0 = reference::matmul_trans_b(d1, p[2]->value);
  const Matrix d0 =
      oracle_activation_grad(Activation::kLeakyRelu, a[0], z[0], gz0);
  want.gx = reference::matmul_trans_b(d0, p[0]->value);
  want.grads = {reference::matmul_trans_a(x, d0), oracle_column_sums(d0),
                reference::matmul_trans_a(z[0], d1),
                oracle_column_sums(d1),
                reference::matmul_trans_a(z[1], d2),
                oracle_column_sums(d2)};
  expect_passes(mlp, x, g, want, "Mlp");
}

TEST(Losses, MseGradientMatchesFiniteDifference) {
  Rng rng(16);
  const Matrix pred = Matrix::randn(3, 2, rng);
  const Matrix target = Matrix::randn(3, 2, rng);
  Matrix grad;
  mse_loss(pred, target, &grad);
  const double h = 1e-6;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    Matrix p = pred;
    p.data()[i] += h;
    const double fp = mse_loss(p, target, nullptr);
    p.data()[i] -= 2 * h;
    const double fm = mse_loss(p, target, nullptr);
    EXPECT_NEAR(grad.data()[i], (fp - fm) / (2 * h), 1e-6);
  }
}

TEST(Losses, BceWithLogitsIsStableAtExtremes) {
  Matrix logits(1, 2);
  logits(0, 0) = 500.0;
  logits(0, 1) = -500.0;
  Matrix target(1, 2);
  target(0, 0) = 1.0;
  target(0, 1) = 0.0;
  Matrix grad;
  const double loss = bce_with_logits_loss(logits, target, &grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-9);
}

TEST(Losses, SoftmaxCrossEntropyGradCheck) {
  Rng rng(17);
  const Matrix logits = Matrix::randn(4, 3, rng);
  const std::vector<std::size_t> labels{0, 2, 1, 2};
  Matrix grad;
  softmax_cross_entropy_loss(logits, labels, &grad);
  const double h = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Matrix l = logits;
    l.data()[i] += h;
    const double fp = softmax_cross_entropy_loss(l, labels, nullptr);
    l.data()[i] -= 2 * h;
    const double fm = softmax_cross_entropy_loss(l, labels, nullptr);
    EXPECT_NEAR(grad.data()[i], (fp - fm) / (2 * h), 1e-6);
  }
}

TEST(Optim, SgdDecreasesQuadratic) {
  // Minimize ||w||^2 by hand-fed gradients.
  Parameter w(Matrix(1, 3, 2.0));
  Sgd opt({&w}, 0.1);
  for (int i = 0; i < 100; ++i) {
    w.zero_grad();
    for (std::size_t j = 0; j < 3; ++j) w.grad(0, j) = 2.0 * w.value(0, j);
    opt.step();
  }
  EXPECT_LT(frobenius_norm(w.value), 1e-5);
}

TEST(Optim, AdamDecreasesQuadratic) {
  Parameter w(Matrix(1, 3, 2.0));
  Adam opt({&w}, 0.05);
  for (int i = 0; i < 400; ++i) {
    w.zero_grad();
    for (std::size_t j = 0; j < 3; ++j) w.grad(0, j) = 2.0 * w.value(0, j);
    opt.step();
  }
  EXPECT_LT(frobenius_norm(w.value), 1e-3);
}

TEST(Optim, ClipGradNormScalesDown) {
  Parameter w(Matrix(1, 4, 0.0));
  w.grad.fill(3.0);  // norm = 6
  const double pre = clip_grad_norm({&w}, 1.0);
  EXPECT_NEAR(pre, 6.0, 1e-12);
  double sq = 0.0;
  for (double g : w.grad.data()) sq += g * g;
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-9);
}

TEST(Optim, ClipGradNormNoOpWhenSmall) {
  Parameter w(Matrix(1, 4, 0.0));
  w.grad.fill(0.1);
  clip_grad_norm({&w}, 10.0);
  EXPECT_DOUBLE_EQ(w.grad(0, 0), 0.1);
}

TEST(Optim, WeightClippingClampsValues) {
  Parameter w(Matrix(2, 2, 0.0));
  w.value(0, 0) = 5.0;
  w.value(1, 1) = -5.0;
  clip_weights({&w}, 0.01);
  EXPECT_DOUBLE_EQ(w.value(0, 0), 0.01);
  EXPECT_DOUBLE_EQ(w.value(1, 1), -0.01);
}

TEST(Serialize, SnapshotRestoreRoundTrip) {
  Rng rng(18);
  Mlp a({3, 5, 2}, Activation::kRelu, rng);
  Mlp b({3, 5, 2}, Activation::kRelu, rng);
  const auto snap = snapshot_parameters(a.parameters());
  restore_parameters(b.parameters(), snap);
  const Matrix x = Matrix::randn(2, 3, rng);
  EXPECT_EQ(a.forward(x), b.forward(x));
}

TEST(Serialize, RestoreRejectsWrongSize) {
  Rng rng(19);
  Mlp a({3, 5, 2}, Activation::kRelu, rng);
  std::vector<double> tiny(3, 0.0);
  EXPECT_THROW(restore_parameters(a.parameters(), tiny), std::invalid_argument);
}

TEST(Serialize, FileRoundTrip) {
  const std::vector<double> snap{1.0, -2.5, 3.25};
  const std::string path = "/tmp/netshare_test_snapshot.bin";
  save_snapshot_file(snap, path);
  EXPECT_EQ(load_snapshot_file(path), snap);
}

TEST(Serialize, SaveRejectsUnwritablePath) {
  EXPECT_THROW(
      save_snapshot_file({1.0}, "/nonexistent_dir/netshare_snapshot.bin"),
      std::runtime_error);
}

TEST(Serialize, LoadRejectsMissingFile) {
  EXPECT_THROW(load_snapshot_file("/tmp/netshare_test_snapshot_missing.bin"),
               std::runtime_error);
}

TEST(Serialize, LoadRejectsTruncatedPayload) {
  // A valid header promising 4 doubles but only 2 present: read must fail
  // loudly, never return a half-restored snapshot.
  const std::string path = "/tmp/netshare_test_snapshot_truncated.bin";
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t n = 4;
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    const double payload[2] = {1.0, 2.0};
    out.write(reinterpret_cast<const char*>(payload), sizeof payload);
  }
  EXPECT_THROW(load_snapshot_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsEmptyFile) {
  const std::string path = "/tmp/netshare_test_snapshot_empty.bin";
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_THROW(load_snapshot_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, RestoreRejectsSnapshotLargerThanModel) {
  Rng rng(23);
  Mlp a({3, 5, 2}, Activation::kRelu, rng);
  std::vector<double> snap = snapshot_parameters(a.parameters());
  snap.push_back(0.0);  // one trailing extra weight
  EXPECT_THROW(restore_parameters(a.parameters(), snap),
               std::invalid_argument);
}

TEST(Serialize, RestoredFileSnapshotDrivesIdenticalModel) {
  Rng rng(29);
  Mlp a({4, 6, 3}, Activation::kRelu, rng);
  Rng rng2(31);
  Mlp b({4, 6, 3}, Activation::kRelu, rng2);
  const std::string path = "/tmp/netshare_test_snapshot_model.bin";
  save_snapshot_file(snapshot_parameters(a.parameters()), path);
  restore_parameters(b.parameters(), load_snapshot_file(path));
  Rng xr(37);
  const Matrix x = Matrix::randn(2, 4, xr);
  EXPECT_EQ(a.forward(x), b.forward(x));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace netshare::ml
