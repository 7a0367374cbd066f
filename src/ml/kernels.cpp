// Serial matmul kernels. This translation unit is compiled with aggressive
// per-file optimization flags (see src/CMakeLists.txt) but with FP
// contraction disabled: every partial product is rounded (mul) and then
// accumulated (add) exactly like the serial reference in matrix.cpp, which
// is what makes the register tiles below bitwise-reproducible.
#include "ml/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

namespace netshare::ml::kernels {
namespace {

// The width this thread's ConfigOverride set (0 = none).
thread_local std::size_t t_threads = 0;

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace

SimdTier supported_tier() {
#if defined(__x86_64__) || defined(__i386__)
  static const SimdTier tier = __builtin_cpu_supports("avx2") != 0
                                   ? SimdTier::kAvx2
                                   : SimdTier::kScalar;
  return tier;
#else
  return SimdTier::kScalar;
#endif
}

SimdTier active_tier() {
#if defined(__AVX2__)
  return SimdTier::kAvx2;
#else
  return SimdTier::kScalar;
#endif
}

const char* kernel_isa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "baseline";
#endif
}

const char* kernel_flags() { return NETSHARE_KERNEL_FLAGS_STR; }

ConfigOverride::ConfigOverride(const KernelConfig& cfg) : saved_(t_threads) {
  t_threads = cfg.threads;
}

ConfigOverride::~ConfigOverride() { t_threads = saved_; }

std::size_t effective_threads() {
  if (t_threads > 0) return t_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

namespace {

// --- register tiles (DESIGN.md §10) ----------------------------------------
//
// Doubles in GNU vectors: lane-wise IEEE mul and add, each rounded on its
// own (no contraction in this TU), so every lane computes bit for bit the
// scalar chain of its column. Loads and stores go through memcpy, so rows
// need no alignment. A tile of NV such vectors, or of one double for the
// column tail, holds its accumulators in registers. The types fix the
// geometry at the build ISA's full width: 64-byte Vec8 where the TU is
// built for AVX-512, 32-byte Vec4 otherwise; plain double arrays would
// leave the vector width to the compiler's SLP pass (DESIGN.md §10 has the
// measurement).
typedef double Vec4 __attribute__((vector_size(32), aligned(8)));
#if defined(__AVX512F__)
typedef double Vec8 __attribute__((vector_size(64), aligned(8)));
#endif

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

template <typename V>
inline V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename V>
inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// Columns [0, C) in tiles. Built for AVX-512: Vec8 tiles 48 wide (six
// vectors) while they fit, then at most one each of 32, 16 and 8 wide, then
// one Vec4, then one column at a time. Otherwise: Vec4 tiles 16 wide, then
// 4 wide, then one column. tile.template operator()<V, NV>(j) fills the
// NV·kLanes<V> columns from j. Tiling splits work between elements only,
// never the k-chain of one element. Inlined into its caller, so the tile's
// captured operands stay in registers across rows instead of being
// reloaded from an out-of-line closure.
template <typename Tile>
__attribute__((always_inline)) inline void column_tiles(std::size_t C,
                                                        const Tile& tile) {
  std::size_t j = 0;
#if defined(__AVX512F__)
  for (; j + 48 <= C; j += 48) tile.template operator()<Vec8, 6>(j);
  if (j + 32 <= C) {
    tile.template operator()<Vec8, 4>(j);
    j += 32;
  }
  if (j + 16 <= C) {
    tile.template operator()<Vec8, 2>(j);
    j += 16;
  }
  if (j + 8 <= C) {
    tile.template operator()<Vec8, 1>(j);
    j += 8;
  }
  if (j + 4 <= C) {
    tile.template operator()<Vec4, 1>(j);
    j += 4;
  }
#else
  for (; j + 16 <= C; j += 16) tile.template operator()<Vec4, 4>(j);
  for (; j + 4 <= C; j += 4) tile.template operator()<Vec4, 1>(j);
#endif
  for (; j < C; ++j) tile.template operator()<double, 1>(j);
}

// acc[v] += a[k·ak] · b[k·ldb + v·lanes] for k in [0, K): each lane one
// chain in ascending k, the product rounded, then the add, every product
// taken (a zero multiplicand included).
template <typename V, int NV>
inline void chain(V (&acc)[NV], const double* a, std::size_t ak,
                  const double* b, std::size_t ldb, std::size_t K) {
  for (std::size_t k = 0; k < K; ++k) {
    const double av = a[k * ak];
    const double* bk = b + k * ldb;
    for (int v = 0; v < NV; ++v) acc[v] += av * load<V>(bk + v * kLanes<V>);
  }
}

// What a product tile does with its finished sums: store them, store them
// plus bias[j] (one rounding), add them into the existing value (one
// rounding, the `acc += product` sequence), or the gate's epilogue: add
// them into the existing value, then add bias[j] (two roundings).
enum class Epilogue { kStore, kBias, kAccumulate, kGate };

// The k-block of the store and bias epilogues: a 48-column tile's B panel
// over 64 k is 24 KiB, so it stays in L1 while the tile walks the rows
// (the critics' K = 96 and 185 and the cond projection's K = 105 do not
// fit whole).
constexpr std::size_t kKBlock = 64;

// Rows [r0, r1) of C = A·B. Element (i, k) of A is a[i·ai + k·ak] (row-major
// A, or with ai = 1 and ak = lda the transpose of a K×R matrix); B is K×C
// with row stride ldb. With `init` (C's shape and stride) each element's
// chain starts from init(i, j) instead of zero.
//
// The store and bias epilogues walk k in blocks of kKBlock, all rows per
// block: between blocks each chain parks its partial sum in C, stored and
// reloaded as the double it is, so the chain and its value are unchanged.
// The gate and accumulate epilogues read C's existing value, so C cannot
// park a partial there; they run unblocked, which costs nothing at the
// workload shapes, where their K is at most 64 (h·W_h's 48, and the batch
// of 64 that weight gradients reduce over).
template <Epilogue E>
void product_rows(const double* a, std::size_t ai, std::size_t ak,
                  const double* b, std::size_t ldb, const double* bias,
                  const double* init, double* c, std::size_t ldc,
                  std::size_t K, std::size_t C, std::size_t r0,
                  std::size_t r1) {
  constexpr bool kBlocked = E == Epilogue::kStore || E == Epilogue::kBias;
  column_tiles(C, [=]<typename V, int NV>(std::size_t j) {
    constexpr std::size_t L = kLanes<V>;
    std::size_t k0 = 0;
    do {
      const std::size_t k1 = kBlocked ? std::min(K, k0 + kKBlock) : K;
      for (std::size_t i = r0; i < r1; ++i) {
        double* cp = c + i * ldc + j;
        V acc[NV] = {};
        if (k0 > 0) {
          for (int v = 0; v < NV; ++v) acc[v] = load<V>(cp + v * L);
        } else if (init != nullptr) {
          for (int v = 0; v < NV; ++v) {
            acc[v] = load<V>(init + i * ldc + j + v * L);
          }
        }
        chain(acc, a + i * ai + k0 * ak, ak, b + k0 * ldb + j, ldb, k1 - k0);
        for (int v = 0; v < NV; ++v) {
          if (k1 < K || E == Epilogue::kStore) {
            store(cp + v * L, acc[v]);
          } else if constexpr (E == Epilogue::kBias) {
            store(cp + v * L, acc[v] + load<V>(bias + j + v * L));
          } else if constexpr (E == Epilogue::kAccumulate) {
            store(cp + v * L, load<V>(cp + v * L) + acc[v]);
          } else {
            store(cp + v * L, (load<V>(cp + v * L) + acc[v]) +
                                  load<V>(bias + j + v * L));
          }
        }
      }
      k0 = k1;
    } while (k0 < K);
  });
}

void require_trans_b(const Matrix& a, const PackedTransB& b) {
  require(a.cols() == b.cols, "kernels::matmul_trans_b: col mismatch");
  require(b.bt.size() >= b.rows * b.cols,
          "kernels::matmul_trans_b: pack is smaller than its shape");
}

}  // namespace

void pack_trans_b(const Matrix& b, PackedTransB& out) {
  pack_trans_b(b, 0, b.rows(), out);
}

void pack_trans_b(const Matrix& b, std::size_t row0, std::size_t row1,
                  PackedTransB& out) {
  require(row0 <= row1 && row1 <= b.rows(),
          "kernels::pack_trans_b: bad row range");
  const std::size_t rows = row1 - row0, cols = b.cols();
  out.rows = rows;
  out.cols = cols;
  if (out.bt.size() < rows * cols) out.bt.resize(rows * cols);
  constexpr std::size_t TB = 32;  // cache-blocked transpose
  for (std::size_t jj = 0; jj < rows; jj += TB) {
    const std::size_t jend = std::min(rows, jj + TB);
    for (std::size_t kk = 0; kk < cols; kk += TB) {
      const std::size_t kend = std::min(cols, kk + TB);
      for (std::size_t j = jj; j < jend; ++j) {
        const double* brow = b.row_ptr(row0 + j);
        for (std::size_t k = kk; k < kend; ++k) out.bt[k * rows + j] = brow[k];
      }
    }
  }
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  require(a.cols() == b.rows(), "kernels::matmul: inner dimension mismatch");
  c.resize(a.rows(), b.cols());
  matmul_rows(a, b, 0, c, 0, a.rows());
}

// The accumulate form from a zeroed C: each element's product chain starts
// at +0 and so never ends at −0, which makes the one add into 0 exact.
void matmul_trans_a_into(const Matrix& a, const Matrix& b, Matrix& c) {
  require(a.rows() == b.rows(), "kernels::matmul_trans_a: row mismatch");
  c.resize(a.cols(), b.cols());
  c.fill(0.0);
  matmul_trans_a_acc_rows(a, b, c, 0, a.cols());
}

void matmul_trans_b_into(const Matrix& a, const PackedTransB& b, Matrix& c) {
  require_trans_b(a, b);
  c.resize(a.rows(), b.rows);
  matmul_trans_b_rows(a, b, c, 0, a.rows());
}

void matmul_trans_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
  require(a.cols() == b.cols(), "kernels::matmul_trans_b: col mismatch");
  // Grow-only thread_local pack: zero steady-state allocations.
  static thread_local PackedTransB tl_pack;
  pack_trans_b(b, tl_pack);
  matmul_trans_b_into(a, tl_pack, c);
}

void matmul_bias_into(const Matrix& a, const Matrix& b, const Matrix& bias,
                      Matrix& c) {
  require(a.cols() == b.rows(),
          "kernels::matmul_bias: inner dimension mismatch");
  require(bias.rows() == 1 && bias.cols() == b.cols(),
          "kernels::matmul_bias: bias must be 1 x cols(b)");
  c.resize(a.rows(), b.cols());
  matmul_bias_rows(a, b, bias, c, 0, a.rows());
}

void matmul_trans_a_acc_into(const Matrix& a, const Matrix& b, Matrix& acc) {
  require(a.rows() == b.rows(), "kernels::matmul_trans_a_acc: row mismatch");
  require(acc.rows() == a.cols() && acc.cols() == b.cols(),
          "kernels::matmul_trans_a_acc: acc shape mismatch");
  matmul_trans_a_acc_rows(a, b, acc, 0, a.cols());
}

// --- elementwise maps (DESIGN.md §10, *Transcendentals*) -------------------
//
// One body per function: flat loops over n elements that gcc
// vectorizes under this TU's -O3 -march=native. Vectorizing keeps each
// element's IEEE op sequence (no contraction, no reassociation), so a value
// never depends on where in a call it sits or how long the call is.
namespace {

namespace expc {  // the constants of the repo-owned exp
// exp's argument clamp: past kHi the result overflows to +inf, below kLo it
// rounds to +0, so ±inf, overflow and underflow all fall out of the main
// path. tanh clamps |x| to kTanhHi, where tanh rounds to exactly 1. sigmoid
// takes its main path for |x| <= kSigmoidHi, where every 1 + 2^k is exact
// (|k| <= 52), and one exp of −|x| past it.
inline constexpr double kHi = 709.8;
inline constexpr double kLo = -746.0;
inline constexpr double kTanhHi = 20.0;
inline constexpr double kSigmoidHi = 36.0;
// Cody–Waite reduction x = k·ln2 + r, |r| <= ln2/2: k = round(x·log2(e))
// by the 1.5·2^52 shifter (round to nearest even, k in t's low bits);
// kLn2Hi has 33 significant bits, so k·kLn2Hi and x − k·kLn2Hi are exact
// for every |k| <= 2^11.
inline constexpr double kLog2e = 0x1.71547652b82fep0;
inline constexpr double kShifter = 0x1.8p52;
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
// expm1(r) = r + r²·s(r) with s(r) = Σ kC[i]·rⁱ, a degree-10 Chebyshev fit
// of (expm1(r) − r)/r² on |r| <= ln2/2; r·|s error| < 2^-60.
inline constexpr double kC[11] = {
    0x1.0000000000000p-1,  0x1.5555555555557p-3,  0x1.5555555555556p-5,
    0x1.11111111100d8p-7,  0x1.6c16c16c162d2p-10, 0x1.a01a01abe9ce8p-13,
    0x1.a01a01a6d9931p-16, 0x1.71de022bd5558p-19, 0x1.27e4db6121beep-22,
    0x1.af4df5750ec30p-26, 0x1.1f730a202ec17p-29};
}  // namespace expc

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

// Cody–Waite reduction of x (already clamped, not NaN) to x = k·ln2 + r and
// expm1(r) = r + r²·s(r), s by Horner in r² on its even and odd
// coefficients (two short chains instead of one long one). Returns
// expm1(r) rounded; `lo` gets what the roundings of r and of the final add
// dropped (two exact two-sums), so a caller adding the result to a larger
// term rounds about once. k lands in `k`, two's complement in a uint64.
double expm1_reduced(double x, std::uint64_t& k, double& lo) {
  const double t = x * expc::kLog2e + expc::kShifter;
  const double kd = t - expc::kShifter;
  k = bits(t) - bits(expc::kShifter);
  const double rh = x - kd * expc::kLn2Hi;  // exact
  const double rl = kd * expc::kLn2Lo;
  const double r = rh - rl;
  const double r2 = r * r;
  double even = expc::kC[10];
  for (int i = 8; i >= 0; i -= 2) even = even * r2 + expc::kC[i];
  double odd = expc::kC[9];
  for (int i = 7; i >= 1; i -= 2) odd = odd * r2 + expc::kC[i];
  const double c = r2 * (even + odd * r);
  const double p = r + c;
  lo = (c - (p - r)) + ((rh - r) - rl);
  return p;
}

// 2^k for k in the normal exponent range.
double pow2(std::uint64_t k) { return from_bits((k + 1023) << 52); }

double exp_elem(double x) {
  if (x != x) return x + x;
  const double xc =
      x > expc::kHi ? expc::kHi : (x < expc::kLo ? expc::kLo : x);
  std::uint64_t k;
  double lo;
  const double p = expm1_reduced(xc, k, lo);
  const double e0 = 1.0 + p;
  const double e = e0 + ((p - (e0 - 1.0)) + lo);
  // 2^k in two steps, k1 = floor(k/2) by integer add into e's exponent
  // (exact), then ×2^(k − k1): one rounding, into the subnormals or to inf.
  const std::uint64_t k1 = ((k + 2048) >> 1) - 1024;
  return from_bits(bits(e) + (k1 << 52)) * pow2(k - k1);
}

// sigmoid(x) = 1/d, d = 1 + exp(−x) = (1 + 2^k) + 2^k·expm1(r), the last
// add an exact two-sum so d rounds about once. The main path, for
// |x| <= kSigmoidHi.
double sigmoid_main(double x) {
  std::uint64_t k;
  double lo;
  const double p = expm1_reduced(-x, k, lo);
  const double two_k = pow2(k);
  const double a = 1.0 + two_k;  // exact
  const double b = two_k * p;
  const double dh = a + b;
  return 1.0 / (dh + ((b - (dh - a)) + two_k * lo));
}

// The tails: past |x| = kSigmoidHi, exp(−|x|) = E < 2^-51, and sigmoid is
// 1 − E above and E − E² below (which also gives the subnormal tail).
double sigmoid_elem(double x) {
  if (x != x) return x + x;
  if (x < -expc::kSigmoidHi) {
    const double e = exp_elem(x);
    return e - e * e;
  }
  if (x > expc::kSigmoidHi) return 1.0 - exp_elem(-x);
  return sigmoid_main(x);
}

// tanh|x| = −em / (em + 2) with em = expm1(−2|x|) = (2^k − 1) + 2^k·expm1(r)
// in (−1, 0], carried as eh + el, and the quotient refined by one
// correction step: no cancellation near 0 (where 1 − 2/(exp(2|x|) + 1)
// would lose the low bits), and no rounding of em + 2 near 1. The
// correction is a few ULP of q, so 1/dh (dh in (1, 2]) is taken as the
// chord 1.5 − dh/2, within 12%. x's sign is put on the magnitude, so
// tanh(−0) = −0.
double tanh_elem(double x) {
  if (x != x) return x + x;
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  double a = from_bits(bits(x) & ~kSign);
  if (a > expc::kTanhHi) a = expc::kTanhHi;
  std::uint64_t k;
  double lo;
  const double p = expm1_reduced(-(a + a), k, lo);
  const double two_k = pow2(k);
  const double am = two_k - 1.0;  // exact
  const double b = two_k * p;
  const double eh = am + b;
  const double el = (b - (eh - am)) + two_k * lo;
  const double dh = 2.0 + eh;
  const double dl = (eh - (dh - 2.0)) + el;
  const double q = -eh / dh;
  const double t = q + (-el - q * dl) * (1.5 - 0.5 * dh);
  return from_bits((bits(t) & ~kSign) | (bits(x) & kSign));
}

// Elements per sigmoid block: the unit the tail check covers.
constexpr std::size_t kSigmoidBlock = 64;

}  // namespace

void exp_into(const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = exp_elem(x[i]);
}

// Two passes per block: a vectorized scan for lanes past ±kSigmoidHi (or
// NaN), then the main path on the whole block when there are none — the
// common case — or sigmoid_elem, tails included, when there are. The scan
// reads x before anything is written, so y may equal x.
void sigmoid_into(const double* x, double* y, std::size_t n) {
  for (std::size_t i0 = 0; i0 < n; i0 += kSigmoidBlock) {
    const std::size_t m = std::min(kSigmoidBlock, n - i0);
    const double* xb = x + i0;
    double* yb = y + i0;
    unsigned far = 0;
    for (std::size_t i = 0; i < m; ++i) {
      far |= !(std::fabs(xb[i]) <= expc::kSigmoidHi);
    }
    if (far != 0) {
      for (std::size_t i = 0; i < m; ++i) yb[i] = sigmoid_elem(xb[i]);
    } else {
      for (std::size_t i = 0; i < m; ++i) yb[i] = sigmoid_main(xb[i]);
    }
  }
}

void tanh_into(const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = tanh_elem(x[i]);
}

void softmax_inplace(double* v, std::size_t n) {
  if (n == 0) return;
  const double mx = *std::max_element(v, v + n);
  for (std::size_t j = 0; j < n; ++j) v[j] -= mx;
  exp_into(v, v, n);
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) sum += v[j];
  for (std::size_t j = 0; j < n; ++j) v[j] /= sum;
}

void relu_into(const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0 ? x[i] : 0.0;
}

void leaky_relu_into(const double* x, double* y, std::size_t n,
                     double slope) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0 ? x[i] : slope * x[i];
}

void relu_grad_into(const double* x, const double* g, double* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] <= 0 ? 0.0 : g[i];
}

void leaky_relu_grad_into(const double* x, const double* g, double* out,
                          std::size_t n, double slope) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = x[i] <= 0 ? g[i] * slope : g[i];
  }
}

void sigmoid_grad_into(const double* y, const double* g, double* out,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = g[i] * (y[i] * (1.0 - y[i]));
}

// When both factors are NaN, which payload a product keeps is up to the
// compiler's operand order; the select fixes it to the (1 − y·y) factor's,
// so a build without -march=native, which orders the mul the other way,
// gives the same bits.
void tanh_grad_into(const double* y, const double* g, double* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t = 1.0 - y[i] * y[i];
    out[i] = t != t ? t : g[i] * t;
  }
}

namespace {
// The gate's operand checks; with a seed, wx may have rows past cols(x).
void require_gate(const Matrix& x, const Matrix& wx, const Matrix& h,
                  const Matrix& wh, const Matrix& bias, const Matrix* seed) {
  require(bias.rows() == 1 && bias.cols() == wx.cols(),
          "kernels::gru_gate: bias must be 1 x cols(wx)");
  require(wx.cols() == wh.cols(), "kernels::gru_gate: gate width mismatch");
  require(seed != nullptr ? x.cols() <= wx.rows() : x.cols() == wx.rows(),
          "kernels::matmul: inner dimension mismatch");
  require(h.cols() == wh.rows(), "kernels::matmul: inner dimension mismatch");
  require(x.rows() == h.rows(), "kernels::gru_gate: x/h batch mismatch");
  require(seed == nullptr ||
              (seed->rows() == x.rows() && seed->cols() == wx.cols()),
          "kernels::gru_gate: seed must have out's shape");
}

// The gate's activation over rows [r0, r1) of `out`, in place: one call on
// the finished block.
void activate_block(GateAct act, Matrix& out, std::size_t r0,
                    std::size_t r1) {
  double* v = out.row_ptr(r0);
  const std::size_t n = (r1 - r0) * out.cols();
  if (act == GateAct::kSigmoid) {
    sigmoid_into(v, v, n);
  } else {
    tanh_into(v, v, n);
  }
}
}  // namespace

void gru_gate_into(const Matrix& x, const Matrix& wx, const Matrix& h,
                   const Matrix& wh, const Matrix& bias, GateAct act,
                   Matrix& /*scratch*/, Matrix& out, const Matrix* seed) {
  require_gate(x, wx, h, wh, bias, seed);
  out.resize(x.rows(), wx.cols());
  gru_gate_rows(x, wx, h, wh, bias, act, out, 0, x.rows(), seed);
}

namespace {
void require_rows(const Matrix& a, const Matrix& c, std::size_t cols,
                  std::size_t r0, std::size_t r1, const char* what) {
  require(c.rows() == a.rows() && c.cols() == cols && r0 <= r1 &&
              r1 <= a.rows(),
          what);
}
}  // namespace

void matmul_bias_rows(const Matrix& a, const Matrix& b, const Matrix& bias,
                      Matrix& c, std::size_t r0, std::size_t r1) {
  require(a.cols() == b.rows() && bias.rows() == 1 && bias.cols() == b.cols(),
          "kernels::matmul_bias_rows: operand shape mismatch");
  require_rows(a, c, b.cols(), r0, r1,
               "kernels::matmul_bias_rows: output not shaped or bad range");
  if (r1 <= r0 || b.cols() == 0) return;
  product_rows<Epilogue::kBias>(a.row_ptr(0), a.cols(), 1, b.row_ptr(0),
                                b.cols(), bias.row_ptr(0), nullptr,
                                c.row_ptr(0), c.cols(), a.cols(), b.cols(),
                                r0, r1);
}

void matmul_rows(const Matrix& a, const Matrix& b, std::size_t b_row0,
                 Matrix& c, std::size_t r0, std::size_t r1) {
  require(b_row0 + a.cols() <= b.rows(),
          "kernels::matmul_rows: B has too few rows");
  require_rows(a, c, b.cols(), r0, r1,
               "kernels::matmul_rows: output not shaped or bad range");
  if (r1 <= r0 || b.cols() == 0) return;
  product_rows<Epilogue::kStore>(a.row_ptr(0), a.cols(), 1,
                                 b.row_ptr(b_row0), b.cols(), nullptr,
                                 nullptr, c.row_ptr(0), c.cols(), a.cols(),
                                 b.cols(), r0, r1);
}

// The pack is K×C, so A·Bᵀ is the plain product against it.
void matmul_trans_b_rows(const Matrix& a, const PackedTransB& b, Matrix& c,
                         std::size_t r0, std::size_t r1) {
  require_trans_b(a, b);
  require_rows(a, c, b.rows, r0, r1,
               "kernels::matmul_trans_b_rows: output not shaped or bad range");
  if (r1 <= r0 || b.rows == 0) return;
  product_rows<Epilogue::kStore>(a.row_ptr(0), a.cols(), 1, b.bt.data(),
                                 b.rows, nullptr, nullptr, c.row_ptr(0),
                                 c.cols(), b.cols, b.rows, r0, r1);
}

// Output row i reduces over column i of A: element (i, k) of Aᵀ is
// a.row_ptr(k)[i].
void matmul_trans_a_acc_rows(const Matrix& a, const Matrix& b, Matrix& acc,
                             std::size_t r0, std::size_t r1,
                             std::size_t acc_row0) {
  require(a.rows() == b.rows() && acc_row0 + a.cols() <= acc.rows() &&
              acc.cols() == b.cols() && r0 <= r1 && r1 <= a.cols(),
          "kernels::matmul_trans_a_acc_rows: shape mismatch or bad range");
  const std::size_t R = a.cols(), K = a.rows(), C = b.cols();
  if (r1 <= r0 || C == 0) return;
  product_rows<Epilogue::kAccumulate>(a.row_ptr(0), 1, R, b.row_ptr(0), C,
                                      nullptr, nullptr, acc.row_ptr(acc_row0),
                                      C, K, C, r0, r1);
}

// Two passes of the product tile over the block: x·wx's chains (from the
// seed when there is one) land in out's rows, then h·wh's chains finish
// each element as (x·wx + h·wh) + bias, and the finished block is
// activated.
void gru_gate_rows(const Matrix& x, const Matrix& wx, const Matrix& h,
                   const Matrix& wh, const Matrix& bias, GateAct act,
                   Matrix& out, std::size_t r0, std::size_t r1,
                   const Matrix* seed) {
  require_gate(x, wx, h, wh, bias, seed);
  require_rows(x, out, wx.cols(), r0, r1,
               "kernels::gru_gate_rows: output not shaped or bad range");
  const std::size_t G = wx.cols();
  if (r1 <= r0 || G == 0) return;
  const double* sp = seed != nullptr ? seed->row_ptr(0) : nullptr;
  product_rows<Epilogue::kStore>(x.row_ptr(0), x.cols(), 1, wx.row_ptr(0), G,
                                 nullptr, sp, out.row_ptr(0), G, x.cols(), G,
                                 r0, r1);
  product_rows<Epilogue::kGate>(h.row_ptr(0), h.cols(), 1, wh.row_ptr(0), G,
                                bias.row_ptr(0), nullptr, out.row_ptr(0), G,
                                h.cols(), G, r0, r1);
  activate_block(act, out, r0, r1);
}

void adam_update(double* w, const double* g, double* m, double* v,
                 std::size_t n, const AdamCoeffs& k) {
  for (std::size_t j = 0; j < n; ++j) {
    m[j] = k.beta1 * m[j] + (1.0 - k.beta1) * g[j];
    v[j] = k.beta2 * v[j] + (1.0 - k.beta2) * g[j] * g[j];
    w[j] -= k.lr * (m[j] / k.bc1) / (std::sqrt(v[j] / k.bc2) + k.eps);
  }
}

}  // namespace netshare::ml::kernels
