// AVX2 bodies for the vectorized kernel tier. Compiled with -mavx2 (no
// -mfma) and -ffp-contract=off — see src/CMakeLists.txt. Every loop below
// vectorizes across independent output columns; the ascending-k reduction
// chain of each output element is never split, reordered, or contracted,
// which is the whole bitwise-identity argument (kernels_simd.hpp,
// DESIGN.md §10).
#include "ml/kernels_simd.hpp"

#if !defined(__AVX2__)

// Toolchain cannot emit AVX2 (src/CMakeLists.txt found no -mavx2): the tier
// reports unsupported and the panel bodies — which dispatch then never
// calls — become unreachable stubs.
namespace netshare::ml::kernels::simd {
bool cpu_supports_avx2() { return false; }
void matmul_panel(const double*, std::size_t, const double*, std::size_t,
                  double*, std::size_t, std::size_t, std::size_t, std::size_t,
                  std::size_t, unsigned) {}
void matmul_bias_panel(const double*, std::size_t, const double*, std::size_t,
                       const double*, double*, std::size_t, std::size_t,
                       std::size_t, std::size_t, std::size_t, unsigned) {}
void matmul_trans_a_panel(const double*, std::size_t, const double*,
                          std::size_t, double*, std::size_t, std::size_t,
                          std::size_t, std::size_t, std::size_t, unsigned) {}
void matmul_trans_a_acc_panel(const double*, std::size_t, const double*,
                              std::size_t, double*, std::size_t, std::size_t,
                              std::size_t, std::size_t, std::size_t,
                              unsigned) {}
void matmul_trans_b_panel(const double*, std::size_t, const double*, double*,
                          std::size_t, std::size_t, std::size_t, std::size_t,
                          std::size_t, unsigned) {}
void adam_update(double*, const double*, double*, double*, std::size_t,
                 double, double, double, double, double, double) {}
void gate_panel(const double*, std::size_t, const double*, std::size_t,
                const double*, std::size_t, const double*, std::size_t,
                const double*, const double*, std::size_t, int, double*,
                std::size_t, std::size_t, std::size_t, std::size_t,
                std::size_t, std::size_t, unsigned) {}
void exp_into(const double*, double*, std::size_t) {}
void sigmoid_into(const double*, double*, std::size_t) {}
void tanh_into(const double*, double*, std::size_t) {}
}  // namespace netshare::ml::kernels::simd

#else  // __AVX2__

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace netshare::ml::kernels::simd {
namespace {

// Processes register tiles of NV 4-wide vectors (4*NV output columns)
// starting at column j0; returns the first unprocessed column. The k loop
// carries one accumulator chain per output column, ascending k, mul rounded
// then add rounded, with the reference a(i,k)==0.0 skip. kBias adds bias[j]
// to the completed sum (one extra rounding, matching
// add_row_broadcast_inplace after matmul_into).
template <int NV, bool kBias>
std::size_t mm_tiles(const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, const double* bias, double* c,
                     std::size_t ldc, std::size_t K, std::size_t C,
                     std::size_t j0, std::size_t r0, std::size_t r1) {
  constexpr std::size_t JT = 4 * NV;
  for (; j0 + JT <= C; j0 += JT) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* arow = a + i * lda;
      __m256d acc[NV];
      for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
      for (std::size_t k = 0; k < K; ++k) {
        const double aik = arow[k];
        if (aik == 0.0) continue;
        const __m256d av = _mm256_set1_pd(aik);
        const double* bp = b + k * ldb + j0;
        for (int v = 0; v < NV; ++v) {
          acc[v] = _mm256_add_pd(
              acc[v], _mm256_mul_pd(av, _mm256_loadu_pd(bp + 4 * v)));
        }
      }
      double* cp = c + i * ldc + j0;
      if constexpr (kBias) {
        for (int v = 0; v < NV; ++v) {
          _mm256_storeu_pd(
              cp + 4 * v,
              _mm256_add_pd(acc[v], _mm256_loadu_pd(bias + j0 + 4 * v)));
        }
      } else {
        for (int v = 0; v < NV; ++v) _mm256_storeu_pd(cp + 4 * v, acc[v]);
      }
    }
  }
  return j0;
}

template <bool kBias>
void mm_panel(const double* a, std::size_t lda, const double* b,
              std::size_t ldb, const double* bias, double* c, std::size_t ldc,
              std::size_t K, std::size_t C, std::size_t r0, std::size_t r1,
              unsigned jtile) {
  std::size_t j0 = 0;
  switch (jtile) {
    case 8:
      j0 = mm_tiles<2, kBias>(a, lda, b, ldb, bias, c, ldc, K, C, 0, r0, r1);
      break;
    case 32:
      j0 = mm_tiles<8, kBias>(a, lda, b, ldb, bias, c, ldc, K, C, 0, r0, r1);
      break;
    default:
      j0 = mm_tiles<4, kBias>(a, lda, b, ldb, bias, c, ldc, K, C, 0, r0, r1);
      break;
  }
  j0 = mm_tiles<1, kBias>(a, lda, b, ldb, bias, c, ldc, K, C, j0, r0, r1);
  for (; j0 < C; ++j0) {  // scalar column tail: same chain, same skip
    for (std::size_t i = r0; i < r1; ++i) {
      const double* arow = a + i * lda;
      double acc = 0.0;
      for (std::size_t k = 0; k < K; ++k) {
        const double aik = arow[k];
        if (aik == 0.0) continue;
        acc += aik * b[k * ldb + j0];
      }
      c[i * ldc + j0] = kBias ? acc + bias[j0] : acc;
    }
  }
}

// Aᵀ·B tiles: output row i reduces over a(k,i) — a scalar strided load
// broadcast across the column lanes. kAcc folds the completed sum into the
// existing c value with one rounding (the `grad += product` sequence).
template <int NV, bool kAcc>
std::size_t ta_tiles(const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, double* c, std::size_t ldc,
                     std::size_t K, std::size_t C, std::size_t j0,
                     std::size_t r0, std::size_t r1) {
  constexpr std::size_t JT = 4 * NV;
  for (; j0 + JT <= C; j0 += JT) {
    for (std::size_t i = r0; i < r1; ++i) {
      __m256d acc[NV];
      for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
      for (std::size_t k = 0; k < K; ++k) {
        const double aki = a[k * lda + i];
        if (aki == 0.0) continue;
        const __m256d av = _mm256_set1_pd(aki);
        const double* bp = b + k * ldb + j0;
        for (int v = 0; v < NV; ++v) {
          acc[v] = _mm256_add_pd(
              acc[v], _mm256_mul_pd(av, _mm256_loadu_pd(bp + 4 * v)));
        }
      }
      double* cp = c + i * ldc + j0;
      if constexpr (kAcc) {
        for (int v = 0; v < NV; ++v) {
          _mm256_storeu_pd(cp + 4 * v,
                           _mm256_add_pd(_mm256_loadu_pd(cp + 4 * v), acc[v]));
        }
      } else {
        for (int v = 0; v < NV; ++v) _mm256_storeu_pd(cp + 4 * v, acc[v]);
      }
    }
  }
  return j0;
}

template <bool kAcc>
void ta_panel(const double* a, std::size_t lda, const double* b,
              std::size_t ldb, double* c, std::size_t ldc, std::size_t K,
              std::size_t C, std::size_t r0, std::size_t r1, unsigned jtile) {
  std::size_t j0 = 0;
  switch (jtile) {
    case 8:
      j0 = ta_tiles<2, kAcc>(a, lda, b, ldb, c, ldc, K, C, 0, r0, r1);
      break;
    case 32:
      j0 = ta_tiles<8, kAcc>(a, lda, b, ldb, c, ldc, K, C, 0, r0, r1);
      break;
    default:
      j0 = ta_tiles<4, kAcc>(a, lda, b, ldb, c, ldc, K, C, 0, r0, r1);
      break;
  }
  j0 = ta_tiles<1, kAcc>(a, lda, b, ldb, c, ldc, K, C, j0, r0, r1);
  for (; j0 < C; ++j0) {
    for (std::size_t i = r0; i < r1; ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k < K; ++k) {
        const double aki = a[k * lda + i];
        if (aki == 0.0) continue;
        acc += aki * b[k * ldb + j0];
      }
      double* cp = c + i * ldc + j0;
      if constexpr (kAcc) {
        *cp += acc;
      } else {
        *cp = acc;
      }
    }
  }
}

// A·Bᵀ tiles over the packed transpose bt (stride C): the ascending-k loop
// reads contiguous lanes, so each of the 4*NV concurrent dot products is a
// plain scalar chain — no zero-skip, matching the scalar trans_b kernel.
template <int NV>
std::size_t tb_tiles(const double* a, std::size_t lda, const double* bt,
                     double* c, std::size_t ldc, std::size_t K, std::size_t C,
                     std::size_t j0, std::size_t r0, std::size_t r1) {
  constexpr std::size_t JT = 4 * NV;
  for (; j0 + JT <= C; j0 += JT) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* arow = a + i * lda;
      __m256d acc[NV];
      for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
      for (std::size_t k = 0; k < K; ++k) {
        const __m256d av = _mm256_set1_pd(arow[k]);
        const double* bp = bt + k * C + j0;
        for (int v = 0; v < NV; ++v) {
          acc[v] = _mm256_add_pd(
              acc[v], _mm256_mul_pd(av, _mm256_loadu_pd(bp + 4 * v)));
        }
      }
      double* cp = c + i * ldc + j0;
      for (int v = 0; v < NV; ++v) _mm256_storeu_pd(cp + 4 * v, acc[v]);
    }
  }
  return j0;
}

}  // namespace

bool cpu_supports_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
}

void matmul_panel(const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc, std::size_t K,
                  std::size_t C, std::size_t r0, std::size_t r1,
                  unsigned jtile) {
  mm_panel<false>(a, lda, b, ldb, nullptr, c, ldc, K, C, r0, r1, jtile);
}

void matmul_bias_panel(const double* a, std::size_t lda, const double* b,
                       std::size_t ldb, const double* bias, double* c,
                       std::size_t ldc, std::size_t K, std::size_t C,
                       std::size_t r0, std::size_t r1, unsigned jtile) {
  mm_panel<true>(a, lda, b, ldb, bias, c, ldc, K, C, r0, r1, jtile);
}

void matmul_trans_a_panel(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, double* c, std::size_t ldc,
                          std::size_t K, std::size_t C, std::size_t r0,
                          std::size_t r1, unsigned jtile) {
  ta_panel<false>(a, lda, b, ldb, c, ldc, K, C, r0, r1, jtile);
}

void matmul_trans_a_acc_panel(const double* a, std::size_t lda,
                              const double* b, std::size_t ldb, double* c,
                              std::size_t ldc, std::size_t K, std::size_t C,
                              std::size_t r0, std::size_t r1, unsigned jtile) {
  ta_panel<true>(a, lda, b, ldb, c, ldc, K, C, r0, r1, jtile);
}

void matmul_trans_b_panel(const double* a, std::size_t lda, const double* bt,
                          double* c, std::size_t ldc, std::size_t K,
                          std::size_t C, std::size_t r0, std::size_t r1,
                          unsigned jtile) {
  std::size_t j0 = 0;
  switch (jtile) {
    case 8:
      j0 = tb_tiles<2>(a, lda, bt, c, ldc, K, C, 0, r0, r1);
      break;
    case 32:
      j0 = tb_tiles<8>(a, lda, bt, c, ldc, K, C, 0, r0, r1);
      break;
    default:
      j0 = tb_tiles<4>(a, lda, bt, c, ldc, K, C, 0, r0, r1);
      break;
  }
  j0 = tb_tiles<1>(a, lda, bt, c, ldc, K, C, j0, r0, r1);
  for (; j0 < C; ++j0) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* arow = a + i * lda;
      double acc = 0.0;
      for (std::size_t k = 0; k < K; ++k) acc += arow[k] * bt[k * C + j0];
      c[i * ldc + j0] = acc;
    }
  }
}

void adam_update(double* w, const double* g, double* m, double* v,
                 std::size_t n, double beta1, double beta2, double lr,
                 double eps, double bc1, double bc2) {
  const __m256d b1 = _mm256_set1_pd(beta1), c1 = _mm256_set1_pd(1.0 - beta1);
  const __m256d b2 = _mm256_set1_pd(beta2), c2 = _mm256_set1_pd(1.0 - beta2);
  const __m256d vlr = _mm256_set1_pd(lr), veps = _mm256_set1_pd(eps);
  const __m256d vbc1 = _mm256_set1_pd(bc1), vbc2 = _mm256_set1_pd(bc2);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d gj = _mm256_loadu_pd(g + j);
    const __m256d mj = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + j)),
                                     _mm256_mul_pd(c1, gj));
    const __m256d vj = _mm256_add_pd(
        _mm256_mul_pd(b2, _mm256_loadu_pd(v + j)),
        _mm256_mul_pd(_mm256_mul_pd(c2, gj), gj));
    _mm256_storeu_pd(m + j, mj);
    _mm256_storeu_pd(v + j, vj);
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(vlr, _mm256_div_pd(mj, vbc1)),
        _mm256_add_pd(_mm256_sqrt_pd(_mm256_div_pd(vj, vbc2)), veps));
    _mm256_storeu_pd(w + j, _mm256_sub_pd(_mm256_loadu_pd(w + j), step));
  }
  for (; j < n; ++j) {
    m[j] = beta1 * m[j] + (1.0 - beta1) * g[j];
    v[j] = beta2 * v[j] + (1.0 - beta2) * g[j] * g[j];
    w[j] -= lr * (m[j] / bc1) / (std::sqrt(v[j] / bc2) + eps);
  }
}

namespace {

// --- transcendentals (DESIGN.md §10, *Transcendentals*) ---------------------
//
// Lane-wise twins of kernels.cpp's scalar exp_elem / sigmoid_elem /
// tanh_elem: the same constants (expc), the same mul/add/div order, no FMA,
// and the same integer exponent arithmetic, so every lane is bit-for-bit
// the scalar result.

// Cody–Waite reduction of x (already clamped, not NaN) to x = k·ln2 + r and
// expm1(r) by Horner in r² on the even and odd coefficients, returned
// rounded with the dropped low part in `lo` (kernels.cpp's expm1_reduced).
// k lands in `k`.
inline __m256d expm1_reduced(__m256d x, __m256i& k, __m256d& lo) {
  const __m256d shifter = _mm256_set1_pd(expc::kShifter);
  const __m256d t =
      _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(expc::kLog2e)), shifter);
  const __m256d kd = _mm256_sub_pd(t, shifter);
  k = _mm256_sub_epi64(_mm256_castpd_si256(t), _mm256_castpd_si256(shifter));
  const __m256d rh =
      _mm256_sub_pd(x, _mm256_mul_pd(kd, _mm256_set1_pd(expc::kLn2Hi)));
  const __m256d rl = _mm256_mul_pd(kd, _mm256_set1_pd(expc::kLn2Lo));
  const __m256d r = _mm256_sub_pd(rh, rl);
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d even = _mm256_set1_pd(expc::kC[10]);
  for (int i = 8; i >= 0; i -= 2) {
    even = _mm256_add_pd(_mm256_mul_pd(even, r2), _mm256_set1_pd(expc::kC[i]));
  }
  __m256d odd = _mm256_set1_pd(expc::kC[9]);
  for (int i = 7; i >= 1; i -= 2) {
    odd = _mm256_add_pd(_mm256_mul_pd(odd, r2), _mm256_set1_pd(expc::kC[i]));
  }
  const __m256d c =
      _mm256_mul_pd(r2, _mm256_add_pd(even, _mm256_mul_pd(odd, r)));
  const __m256d p = _mm256_add_pd(r, c);
  lo = _mm256_add_pd(_mm256_sub_pd(c, _mm256_sub_pd(p, r)),
                     _mm256_sub_pd(_mm256_sub_pd(rh, r), rl));
  return p;
}

// 2^k for k in the normal exponent range.
inline __m256d pow2(__m256i k) {
  return _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_add_epi64(k, _mm256_set1_epi64x(1023)), 52));
}

inline __m256d exp4(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d nan = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
  const __m256d xc =
      _mm256_min_pd(_mm256_max_pd(x, _mm256_set1_pd(expc::kLo)),
                    _mm256_set1_pd(expc::kHi));
  __m256i k;
  __m256d lo;
  const __m256d p = expm1_reduced(xc, k, lo);
  const __m256d e0 = _mm256_add_pd(one, p);
  const __m256d e = _mm256_add_pd(
      e0, _mm256_add_pd(_mm256_sub_pd(p, _mm256_sub_pd(e0, one)), lo));
  // 2^k in two steps, k1 = floor(k/2) by integer add into e's exponent
  // (exact), then ×2^(k − k1): one rounding, into the subnormals or to inf.
  const __m256i k1 = _mm256_sub_epi64(
      _mm256_srli_epi64(_mm256_add_epi64(k, _mm256_set1_epi64x(2048)), 1),
      _mm256_set1_epi64x(1024));
  const __m256d y1 = _mm256_castsi256_pd(_mm256_add_epi64(
      _mm256_castpd_si256(e), _mm256_slli_epi64(k1, 52)));
  const __m256d y = _mm256_mul_pd(y1, pow2(_mm256_sub_epi64(k, k1)));
  return _mm256_blendv_pd(y, _mm256_add_pd(x, x), nan);
}

// sigmoid(x) = 1/((1 + 2^k) + 2^k·expm1(r)) from the reduction of −x
// clamped to ±kSigmoidHi; lanes past it take E = exp(−|x|): 1 − E above,
// E − E² below (kernels.cpp's sigmoid_elem).
inline __m256d sigmoid4(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d hi = _mm256_set1_pd(expc::kSigmoidHi);
  const __m256d z = _mm256_xor_pd(x, sign_bit);
  __m256i k;
  __m256d lo;
  const __m256d p = expm1_reduced(
      _mm256_max_pd(_mm256_min_pd(z, hi), _mm256_set1_pd(-expc::kSigmoidHi)),
      k, lo);
  const __m256d two_k = pow2(k);
  const __m256d a = _mm256_add_pd(one, two_k);
  const __m256d b = _mm256_mul_pd(two_k, p);
  const __m256d dh = _mm256_add_pd(a, b);
  const __m256d dl = _mm256_add_pd(_mm256_sub_pd(b, _mm256_sub_pd(dh, a)),
                                   _mm256_mul_pd(two_k, lo));
  __m256d y = _mm256_div_pd(one, _mm256_add_pd(dh, dl));
  const __m256d far =
      _mm256_cmp_pd(_mm256_andnot_pd(sign_bit, x), hi, _CMP_GT_OQ);
  if (_mm256_movemask_pd(far) != 0) {
    const __m256d e = exp4(_mm256_or_pd(x, sign_bit));  // exp(−|x|)
    const __m256d tail = _mm256_blendv_pd(
        _mm256_sub_pd(one, e), _mm256_sub_pd(e, _mm256_mul_pd(e, e)), x);
    y = _mm256_blendv_pd(y, tail, far);
  }
  const __m256d nan = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
  return _mm256_blendv_pd(y, _mm256_add_pd(x, x), nan);
}

// tanh|x| = −em / (em + 2), em = expm1(−2|x|) carried as eh + el, the
// quotient refined once through the chord 1/dh ≈ 1.5 − dh/2; then x's sign
// on the magnitude (kernels.cpp's tanh_elem).
inline __m256d tanh4(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d nan = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
  const __m256d a = _mm256_min_pd(_mm256_andnot_pd(sign_bit, x),
                                  _mm256_set1_pd(expc::kTanhHi));
  __m256i k;
  __m256d lo;
  const __m256d p =
      expm1_reduced(_mm256_xor_pd(_mm256_add_pd(a, a), sign_bit), k, lo);
  const __m256d two_k = pow2(k);
  const __m256d am = _mm256_sub_pd(two_k, one);
  const __m256d b = _mm256_mul_pd(two_k, p);
  const __m256d eh = _mm256_add_pd(am, b);
  const __m256d el = _mm256_add_pd(_mm256_sub_pd(b, _mm256_sub_pd(eh, am)),
                                   _mm256_mul_pd(two_k, lo));
  const __m256d dh = _mm256_add_pd(two, eh);
  const __m256d dl =
      _mm256_add_pd(_mm256_sub_pd(eh, _mm256_sub_pd(dh, two)), el);
  const __m256d q = _mm256_div_pd(_mm256_xor_pd(eh, sign_bit), dh);
  const __m256d inv = _mm256_sub_pd(_mm256_set1_pd(1.5),
                                    _mm256_mul_pd(_mm256_set1_pd(0.5), dh));
  const __m256d t = _mm256_add_pd(
      q, _mm256_mul_pd(_mm256_sub_pd(_mm256_xor_pd(el, sign_bit),
                                     _mm256_mul_pd(q, dl)),
                       inv));
  const __m256d y = _mm256_or_pd(_mm256_andnot_pd(sign_bit, t),
                                 _mm256_and_pd(x, sign_bit));
  return _mm256_blendv_pd(y, _mm256_add_pd(x, x), nan);
}

// Applies f to n elements, the ragged tail through a zero-padded vector.
template <typename F>
void map4(const double* x, double* y, std::size_t n, F f) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(y + i, f(_mm256_loadu_pd(x + i)));
  if (i == n) return;
  double buf[4] = {0.0, 0.0, 0.0, 0.0};
  std::copy(x + i, x + n, buf);
  _mm256_storeu_pd(buf, f(_mm256_loadu_pd(buf)));
  std::copy(buf, buf + (n - i), y + i);
}

inline void activate_into(int act, const double* x, double* y,
                          std::size_t n) {
  if (act == 0) {
    map4(x, y, n, sigmoid4);
  } else {
    map4(x, y, n, tanh4);
  }
}

}  // namespace

void exp_into(const double* x, double* y, std::size_t n) {
  map4(x, y, n, exp4);
}
void sigmoid_into(const double* x, double* y, std::size_t n) {
  map4(x, y, n, sigmoid4);
}
void tanh_into(const double* x, double* y, std::size_t n) {
  map4(x, y, n, tanh4);
}

namespace {

// Fused-gate register tiles. Both product sums complete in registers (each
// its own ascending-k chain with the reference zero-skip; the x·wx chain
// starts from the seed row when there is one), then the epilogue stores
// (sum_x + sum_h) + bias — the scalar tier's rounding sequence. gate_panel
// applies the activation to each finished row.
template <int NV>
std::size_t gate_tiles(const double* x, std::size_t ldx, const double* wx,
                       std::size_t ldwx, const double* h, std::size_t ldh,
                       const double* wh, std::size_t ldwh, const double* bias,
                       const double* seed, std::size_t lds, double* out,
                       std::size_t ldo, std::size_t in_dim,
                       std::size_t h_dim, std::size_t G, std::size_t j0,
                       std::size_t r0, std::size_t r1) {
  constexpr std::size_t JT = 4 * NV;
  for (; j0 + JT <= G; j0 += JT) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* xrow = x + i * ldx;
      __m256d ax[NV];
      if (seed != nullptr) {
        const double* sp = seed + i * lds + j0;
        for (int v = 0; v < NV; ++v) ax[v] = _mm256_loadu_pd(sp + 4 * v);
      } else {
        for (int v = 0; v < NV; ++v) ax[v] = _mm256_setzero_pd();
      }
      for (std::size_t k = 0; k < in_dim; ++k) {
        const double xik = xrow[k];
        if (xik == 0.0) continue;
        const __m256d av = _mm256_set1_pd(xik);
        const double* wp = wx + k * ldwx + j0;
        for (int v = 0; v < NV; ++v) {
          ax[v] = _mm256_add_pd(ax[v],
                                _mm256_mul_pd(av, _mm256_loadu_pd(wp + 4 * v)));
        }
      }
      const double* hrow = h + i * ldh;
      __m256d ah[NV];
      for (int v = 0; v < NV; ++v) ah[v] = _mm256_setzero_pd();
      for (std::size_t k = 0; k < h_dim; ++k) {
        const double hik = hrow[k];
        if (hik == 0.0) continue;
        const __m256d av = _mm256_set1_pd(hik);
        const double* wp = wh + k * ldwh + j0;
        for (int v = 0; v < NV; ++v) {
          ah[v] = _mm256_add_pd(ah[v],
                                _mm256_mul_pd(av, _mm256_loadu_pd(wp + 4 * v)));
        }
      }
      double* op = out + i * ldo + j0;
      for (int v = 0; v < NV; ++v) {
        _mm256_storeu_pd(
            op + 4 * v,
            _mm256_add_pd(_mm256_add_pd(ax[v], ah[v]),
                          _mm256_loadu_pd(bias + j0 + 4 * v)));
      }
    }
  }
  return j0;
}

}  // namespace

void gate_panel(const double* x, std::size_t ldx, const double* wx,
                std::size_t ldwx, const double* h, std::size_t ldh,
                const double* wh, std::size_t ldwh, const double* bias,
                const double* seed, std::size_t lds, int act, double* out,
                std::size_t ldo, std::size_t in_dim, std::size_t h_dim,
                std::size_t gate_dim, std::size_t r0, std::size_t r1,
                unsigned jtile) {
  std::size_t j0 = 0;
  if (jtile == 8) {
    j0 = gate_tiles<2>(x, ldx, wx, ldwx, h, ldh, wh, ldwh, bias, seed, lds,
                       out, ldo, in_dim, h_dim, gate_dim, 0, r0, r1);
  } else {  // 16 is the widest gate tile: two live accumulator sets
    j0 = gate_tiles<4>(x, ldx, wx, ldwx, h, ldh, wh, ldwh, bias, seed, lds,
                       out, ldo, in_dim, h_dim, gate_dim, 0, r0, r1);
  }
  j0 = gate_tiles<1>(x, ldx, wx, ldwx, h, ldh, wh, ldwh, bias, seed, lds, out,
                     ldo, in_dim, h_dim, gate_dim, j0, r0, r1);
  for (std::size_t i = r0; i < r1; ++i) {
    double* orow = out + i * ldo;
    for (std::size_t j = j0; j < gate_dim; ++j) {  // scalar tail, same chains
      const double* xrow = x + i * ldx;
      double sx = seed != nullptr ? seed[i * lds + j] : 0.0;
      for (std::size_t k = 0; k < in_dim; ++k) {
        const double xik = xrow[k];
        if (xik == 0.0) continue;
        sx += xik * wx[k * ldwx + j];
      }
      const double* hrow = h + i * ldh;
      double sh = 0.0;
      for (std::size_t k = 0; k < h_dim; ++k) {
        const double hik = hrow[k];
        if (hik == 0.0) continue;
        sh += hik * wh[k * ldwh + j];
      }
      orow[j] = (sx + sh) + bias[j];
    }
    activate_into(act, orow, orow, gate_dim);
  }
}

}  // namespace netshare::ml::kernels::simd

#endif  // __AVX2__
