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
                  std::size_t) {}
void matmul_bias_panel(const double*, std::size_t, const double*, std::size_t,
                       const double*, double*, std::size_t, std::size_t,
                       std::size_t, std::size_t, std::size_t) {}
void matmul_trans_a_acc_panel(const double*, std::size_t, const double*,
                              std::size_t, double*, std::size_t, std::size_t,
                              std::size_t, std::size_t, std::size_t) {}
void matmul_trans_b_panel(const double*, std::size_t, const double*, double*,
                          std::size_t, std::size_t, std::size_t, std::size_t,
                          std::size_t) {}
void adam_update(double*, const double*, double*, double*, std::size_t,
                 double, double, double, double, double, double) {}
void gate_panel(const double*, std::size_t, const double*, std::size_t,
                const double*, std::size_t, const double*, std::size_t,
                const double*, const double*, std::size_t, double*,
                std::size_t, std::size_t, std::size_t, std::size_t,
                std::size_t, std::size_t) {}
}  // namespace netshare::ml::kernels::simd

#else  // __AVX2__

#include <immintrin.h>

#include <cmath>

namespace netshare::ml::kernels::simd {
namespace {

// Processes register tiles of NV 4-wide vectors (4*NV output columns)
// starting at column j0; returns the first unprocessed column. The k loop
// carries one accumulator chain per output column, ascending k, mul rounded
// then add rounded, taking every product (a zero a(i,k) included). kBias
// adds bias[j] to the completed sum (one extra rounding, matching
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
        const __m256d av = _mm256_set1_pd(arow[k]);
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
              std::size_t K, std::size_t C, std::size_t r0, std::size_t r1) {
  std::size_t j0 =
      mm_tiles<4, kBias>(a, lda, b, ldb, bias, c, ldc, K, C, 0, r0, r1);
  j0 = mm_tiles<1, kBias>(a, lda, b, ldb, bias, c, ldc, K, C, j0, r0, r1);
  for (; j0 < C; ++j0) {  // scalar column tail: the same chain
    for (std::size_t i = r0; i < r1; ++i) {
      const double* arow = a + i * lda;
      double acc = 0.0;
      for (std::size_t k = 0; k < K; ++k) acc += arow[k] * b[k * ldb + j0];
      c[i * ldc + j0] = kBias ? acc + bias[j0] : acc;
    }
  }
}

// Aᵀ·B tiles: output row i reduces over a(k,i) — a scalar strided load
// broadcast across the column lanes — and the completed sum folds into the
// existing c value with one rounding (the `grad += product` sequence).
template <int NV>
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
        const __m256d av = _mm256_set1_pd(a[k * lda + i]);
        const double* bp = b + k * ldb + j0;
        for (int v = 0; v < NV; ++v) {
          acc[v] = _mm256_add_pd(
              acc[v], _mm256_mul_pd(av, _mm256_loadu_pd(bp + 4 * v)));
        }
      }
      double* cp = c + i * ldc + j0;
      for (int v = 0; v < NV; ++v) {
        _mm256_storeu_pd(cp + 4 * v,
                         _mm256_add_pd(_mm256_loadu_pd(cp + 4 * v), acc[v]));
      }
    }
  }
  return j0;
}

// A·Bᵀ tiles over the packed transpose bt (stride C): the ascending-k loop
// reads contiguous lanes, so each of the 4*NV concurrent dot products is a
// plain scalar chain, matching the scalar trans_b kernel.
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
                  std::size_t C, std::size_t r0, std::size_t r1) {
  mm_panel<false>(a, lda, b, ldb, nullptr, c, ldc, K, C, r0, r1);
}

void matmul_bias_panel(const double* a, std::size_t lda, const double* b,
                       std::size_t ldb, const double* bias, double* c,
                       std::size_t ldc, std::size_t K, std::size_t C,
                       std::size_t r0, std::size_t r1) {
  mm_panel<true>(a, lda, b, ldb, bias, c, ldc, K, C, r0, r1);
}

void matmul_trans_a_acc_panel(const double* a, std::size_t lda,
                              const double* b, std::size_t ldb, double* c,
                              std::size_t ldc, std::size_t K, std::size_t C,
                              std::size_t r0, std::size_t r1) {
  std::size_t j0 = ta_tiles<4>(a, lda, b, ldb, c, ldc, K, C, 0, r0, r1);
  j0 = ta_tiles<1>(a, lda, b, ldb, c, ldc, K, C, j0, r0, r1);
  for (; j0 < C; ++j0) {
    for (std::size_t i = r0; i < r1; ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k < K; ++k) {
        acc += a[k * lda + i] * b[k * ldb + j0];
      }
      c[i * ldc + j0] += acc;
    }
  }
}

void matmul_trans_b_panel(const double* a, std::size_t lda, const double* bt,
                          double* c, std::size_t ldc, std::size_t K,
                          std::size_t C, std::size_t r0, std::size_t r1) {
  std::size_t j0 = tb_tiles<4>(a, lda, bt, c, ldc, K, C, 0, r0, r1);
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

// Fused-gate register tiles. Both product sums complete in registers (each
// its own ascending-k chain over every product; the x·wx chain starts from
// the seed row when there is one), then the epilogue stores
// (sum_x + sum_h) + bias — the scalar tier's rounding sequence.
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
        const __m256d av = _mm256_set1_pd(xrow[k]);
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
        const __m256d av = _mm256_set1_pd(hrow[k]);
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
                const double* seed, std::size_t lds, double* out,
                std::size_t ldo, std::size_t in_dim, std::size_t h_dim,
                std::size_t gate_dim, std::size_t r0, std::size_t r1) {
  std::size_t j0 =
      gate_tiles<4>(x, ldx, wx, ldwx, h, ldh, wh, ldwh, bias, seed, lds, out,
                    ldo, in_dim, h_dim, gate_dim, 0, r0, r1);
  j0 = gate_tiles<1>(x, ldx, wx, ldwx, h, ldh, wh, ldwh, bias, seed, lds, out,
                     ldo, in_dim, h_dim, gate_dim, j0, r0, r1);
  for (std::size_t i = r0; i < r1; ++i) {
    double* orow = out + i * ldo;
    for (std::size_t j = j0; j < gate_dim; ++j) {  // scalar tail, same chains
      const double* xrow = x + i * ldx;
      double sx = seed != nullptr ? seed[i * lds + j] : 0.0;
      for (std::size_t k = 0; k < in_dim; ++k) sx += xrow[k] * wx[k * ldwx + j];
      const double* hrow = h + i * ldh;
      double sh = 0.0;
      for (std::size_t k = 0; k < h_dim; ++k) sh += hrow[k] * wh[k * ldwh + j];
      orow[j] = (sx + sh) + bias[j];
    }
  }
}

}  // namespace netshare::ml::kernels::simd

#endif  // __AVX2__
