// Serial matmul kernels — the leaves under every GAN training step (GRU
// BPTT, MLP discriminators, baselines). Parallelism lives above them:
// callers cut a batch into row ranges and run each range on one thread.
// Each op has one body: register tiles at the build ISA's vector width (48,
// 32, 16 and 8 output columns of 64-byte vectors where the kernel TU is
// built for AVX-512, 16 columns of 32-byte vectors otherwise), then 4
// columns, then a one-column tail (DESIGN.md §10).
//
// Determinism contract (see DESIGN.md §5): for every output element the
// reduction over the inner dimension runs in ascending-k order with one
// rounding per partial product, exactly as in the serial reference kernels
// in matrix.cpp, and a row's value never depends on the row range it was
// computed in. Results are therefore bitwise identical to the serial
// reference however a caller splits the rows between threads. The kernel
// translation unit is compiled without FP contraction so no FMA fuses the
// multiply-add rounding steps away.
//
// Every chain takes every product: no zero multiplicand is skipped, so
// 0·inf and 0·NaN put NaN into the chain in the kernels and in the
// reference alike. On finite operands a ±0 product leaves a chain that
// started at +0 bitwise unchanged (such a chain never reaches −0), which is
// why taking the zeros costs no value anywhere.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/matrix.hpp"

namespace netshare::ml::kernels {

// What the kernel translation unit was built for (DESIGN.md §10). There is
// one body per op, register tiles of GNU vector types compiled with this
// TU's flags, so the ISA is a build fact, not a run-time choice. The tier
// names are the host fingerprint's spellings.
enum class SimdTier { kScalar = 0, kAvx2 = 1 };

// kAvx2 when the executing CPU supports AVX2 (cached CPUID probe).
SimdTier supported_tier();
// kAvx2 when the kernel TU was compiled with AVX2 (__AVX2__). On a host
// where supported_tier() says kAvx2 and this does not, the kernels run on a
// build that cannot use the host's vector unit.
SimdTier active_tier();
// The widest ISA the kernel TU was compiled for, from its predefined
// macros: "avx512f", "avx2" or "baseline".
const char* kernel_isa();
// The kernel TU's compile flags, space-separated (src/CMakeLists.txt).
const char* kernel_flags();

// --- perfbench shim ---------------------------------------------------------
// Widths are arguments: DoppelGanger::fit(data, iterations, width) takes the
// width of its row-sliced stages, and ChunkedTrainer works out each phase's
// share of NetShareConfig::threads (DESIGN.md §5, *Width*). The kernels
// themselves always run on the calling thread. perfbench/nsbench.cpp, which
// is pinned, still sets widths by override, so the surface it compiles
// against stays, documented here and nowhere else:
//   - KernelConfig, ConfigOverride and effective_threads() below;
//   - NetShareConfig::kernels (core/config.hpp), whose `threads` the trainer
//     also reads as the budget it splits, when non-zero;
//   - PhaseBudget::kernel_cfg and split_phase_budget's KernelConfig argument
//     (core/parallel.hpp);
//   - the width-less DoppelGanger::fit(data[, iterations]), the one reader;
//   - gru_gate_into's `scratch` argument, which the gate ignores.
// The override is thread-local: it sets the width of width-less fits on the
// thread that holds it (0 = hardware concurrency), and no other thread sees
// it.
struct KernelConfig {
  std::size_t threads = 0;
};

// Sets this thread's width for the override's lifetime; the destructor puts
// back the width it replaced.
class ConfigOverride {
 public:
  explicit ConfigOverride(const KernelConfig& cfg);
  ~ConfigOverride();
  ConfigOverride(const ConfigOverride&) = delete;
  ConfigOverride& operator=(const ConfigOverride&) = delete;

 private:
  std::size_t saved_;
};

// The width a width-less fit on this thread runs at (>= 1): the override's
// threads, else std::thread::hardware_concurrency().
std::size_t effective_threads();

// Destination-passing kernels. `c` is reshaped to the product shape via
// Matrix::resize — after a one-iteration warm-up the reshape reuses capacity
// and the call performs no heap allocation. `c` must not alias an input.
// Each whole-matrix entry point is its *_rows form below on [0, rows).
// C = A (r×k) * B (k×c).
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c);
// C = Aᵀ * B with A stored k×r (i.e. matmul(transpose(a), b)).
void matmul_trans_a_into(const Matrix& a, const Matrix& b, Matrix& c);
// C = A * Bᵀ.
void matmul_trans_b_into(const Matrix& a, const Matrix& b, Matrix& c);

// Bᵀ packed once, for every A·Bᵀ product against the same B: a weight read
// by each step of a BPTT pass or by each row slice of a stage. Packing is
// pure data movement, so a product against the pack is bitwise the
// per-call-packing matmul_trans_b_into (ascending k, every product). The
// pack holds a copy: repack after B changes (once per pass).
struct PackedTransB {
  std::size_t rows = 0;     // rows of B = columns of the product
  std::size_t cols = 0;     // columns of B = the inner dimension
  std::vector<double> bt;   // bt[k * rows + j] == B(j, k)
};
// Grow-only: after a warm-up with the same shape it allocates nothing.
void pack_trans_b(const Matrix& b, PackedTransB& out);
// The pack of B's rows [row0, row1) alone: a product against it is
// A·B[row0:row1)ᵀ (a conditioned GRU's cond rows of Wx).
void pack_trans_b(const Matrix& b, std::size_t row0, std::size_t row1,
                  PackedTransB& out);
// C = A * Bᵀ against a pack.
void matmul_trans_b_into(const Matrix& a, const PackedTransB& b, Matrix& c);

// C = A·B + bias (bias is 1 × cols(b), broadcast to every row). Bitwise
// contract: per element, the full ascending-k product sum first, then one
// bias add — exactly matmul_into followed by add_row_broadcast_inplace,
// fused into one pass (Linear::forward's hot path).
void matmul_bias_into(const Matrix& a, const Matrix& b, const Matrix& bias,
                      Matrix& c);

// acc += Aᵀ·B without materializing the product. `acc` must already have
// the product shape (cols(a) × cols(b)) — it is a gradient accumulator, not
// a destination to reshape. Bitwise contract: per element, the full
// ascending-k product sum forms first, then folds into the existing value
// with one add — exactly matmul_trans_a_into into a temporary followed by
// `acc += tmp` (the backward-pass sequence this kernel replaces).
void matmul_trans_a_acc_into(const Matrix& a, const Matrix& b, Matrix& acc);

// Fused GRU gate: out = act(x·wx + h·wh + bias), written into caller-owned
// buffers with no temporaries: x·wx's sums are parked in out's rows and
// h·wh's chains finish them. `scratch` is ignored (it stays for the
// perfbench shim above). Bitwise contract: each product is an ascending-k
// reduction with one rounding per partial product, as in the matmul
// kernels above; the epilogue then applies, per element, exactly
// the rounding sequence of the unfused composition
//   sigmoid/tanh(add_row_broadcast(matmul(x,wx) + matmul(h,wh), bias))
// — one add of the two products, one bias add, then sigmoid_into /
// tanh_into below over each finished row block — so the fused gate is
// memcmp-identical to the composed allocating path and to the
// ml::reference::* kernels at every thread count. Lives in this
// -ffp-contract=off translation unit because the two embedded matmuls need
// the per-partial-product rounding guarantee like every other kernel here.
//
// Seeded gate (`seed` non-null, out's shape): the x·wx chain of element
// (i, j) starts from seed(i, j) instead of zero and continues over x's
// columns in ascending k, reading wx's first cols(x) rows; wx may have more
// rows. With seed = c·W_c this is memcmp-equal to the unseeded gate on
// [c | x] against W_c's rows stacked over wx's: a GRU conditioned on a
// step-invariant c projects it once per batch and seeds every step with it
// (DESIGN.md §5, *Conditioned GRU*).
enum class GateAct { kSigmoid, kTanh };
void gru_gate_into(const Matrix& x, const Matrix& wx, const Matrix& h,
                   const Matrix& wh, const Matrix& bias, GateAct act,
                   Matrix& scratch, Matrix& out,
                   const Matrix* seed = nullptr);

// Row-range forms (DESIGN.md §5, *Row-sliced stages*): rows [r0, r1) of
// exactly the product the entry point of the same name computes, into an
// output the caller has already shaped to the whole batch. Each call reads
// only rows [r0, r1) of the row operands and writes only rows [r0, r1) of
// `c` / `out`, so several threads may fill disjoint row ranges of one
// output at once. A row's value never
// depends on the range it was computed in, which is why slicing a batch
// keeps every result bitwise identical to the whole-batch entry point.
void matmul_bias_rows(const Matrix& a, const Matrix& b, const Matrix& bias,
                      Matrix& c, std::size_t r0, std::size_t r1);
// C = A · B[b_row0, b_row0 + cols(A)): the product against a block of B's
// rows (a conditioned GRU's cond projection, DESIGN.md §5).
void matmul_rows(const Matrix& a, const Matrix& b, std::size_t b_row0,
                 Matrix& c, std::size_t r0, std::size_t r1);
void matmul_trans_b_rows(const Matrix& a, const PackedTransB& b, Matrix& c,
                         std::size_t r0, std::size_t r1);
// acc rows [r0, r1) += Aᵀ·B, where these are OUTPUT rows (columns of A):
// every call still reduces over all of A's and B's rows in ascending order,
// so a weight gradient may be split across tasks by its own rows, never by
// batch rows. Output row i lands in acc row acc_row0 + i, so the product
// may fill one block of a taller gradient.
void matmul_trans_a_acc_rows(const Matrix& a, const Matrix& b, Matrix& acc,
                             std::size_t r0, std::size_t r1,
                             std::size_t acc_row0 = 0);
// A `seed` must have out's shape; rows [r0, r1) of it are read.
void gru_gate_rows(const Matrix& x, const Matrix& wx, const Matrix& h,
                   const Matrix& wh, const Matrix& bias, GateAct act,
                   Matrix& out, std::size_t r0, std::size_t r1,
                   const Matrix* seed = nullptr);

// Elementwise maps (DESIGN.md §10, *Transcendentals*): y[i] = f(x[i]) for
// i < n, y may equal x. One body per function, a flat loop
// the compiler vectorizes; a value never depends on the call's length or
// on its position in it. The transcendentals run one repo-owned exp
// (Cody–Waite reduction, a fixed Horner polynomial, no FMA), with
// sigmoid(x) = 1/(1 + exp(−x)) and tanh built on its reduction. Error
// against the exact value: <= 2 ULP for all three, subnormal results
// included. NaN in gives NaN out; exp(+inf) = +inf, exp(−inf) = +0, exp
// overflows to +inf and underflows to +0; tanh(±inf) = ±1, tanh(−0) = −0.
void exp_into(const double* x, double* y, std::size_t n);
void sigmoid_into(const double* x, double* y, std::size_t n);
void tanh_into(const double* x, double* y, std::size_t n);
// Softmax of one row segment in place: v[j] = exp(v[j] − max) / Σ, the sum
// in ascending j.
void softmax_inplace(double* v, std::size_t n);
// y = x > 0 ? x : 0 (NaN and −0 give +0), and y = x > 0 ? x : slope·x.
void relu_into(const double* x, double* y, std::size_t n);
void leaky_relu_into(const double* x, double* y, std::size_t n, double slope);
// Input gradients from the output gradient g into `out` (which may equal
// g): the relu family reads the pre-activation x, out = x <= 0 ? 0 : g and
// out = x <= 0 ? g·slope : g; sigmoid and tanh read the activation y,
// out = g·(y·(1 − y)) and out = g·(1 − y·y).
void relu_grad_into(const double* x, const double* g, double* out,
                    std::size_t n);
void leaky_relu_grad_into(const double* x, const double* g, double* out,
                          std::size_t n, double slope);
void sigmoid_grad_into(const double* y, const double* g, double* out,
                       std::size_t n);
void tanh_grad_into(const double* y, const double* g, double* out,
                    std::size_t n);

// One Adam update of n elements in place, per element exactly
//   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
//   w -= (lr * (m/bc1)) / (sqrt(v/bc2) + eps)
// with every operation rounded on its own (this TU contracts nothing): a
// flat loop the compiler vectorizes without changing a bit.
struct AdamCoeffs {
  double beta1, beta2, lr, eps, bc1, bc2;
};
void adam_update(double* w, const double* g, double* m, double* v,
                 std::size_t n, const AdamCoeffs& k);

}  // namespace netshare::ml::kernels
