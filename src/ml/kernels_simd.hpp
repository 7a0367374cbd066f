// AVX2 panel bodies for the kernel layer — the explicitly vectorized tier
// behind the runtime dispatch in ml/kernels.cpp (DESIGN.md §10).
//
// Determinism contract: every body below vectorizes across INDEPENDENT
// output columns only. For each output element the reduction over the inner
// dimension is one scalar chain in ascending-k order, one rounding per
// partial product (mul, then add — never an FMA), exactly as in the scalar
// kernels and the serial reference in matrix.cpp, taking every product (no
// zero multiplicand is skipped). Since _mm256_add_pd / _mm256_mul_pd /
// _mm256_div_pd are lane-wise IEEE-754 double ops with the same
// round-to-nearest-even behaviour as the corresponding scalar operators,
// every lane computes bit-for-bit the scalar result; the tier is therefore
// memcmp-identical to the scalar tier for all inputs. The
// translation unit is compiled with -mavx2 but WITHOUT -mfma and with
// -ffp-contract=off, so neither intrinsic selection nor the compiler can
// fuse the mul+add rounding steps away.
//
// The interface is raw pointers + strides (in doubles) so this header pulls
// in no SIMD headers and callers need no ISA flags; all functions here must
// only be CALLED after a runtime cpu_supports_avx2() check.
#pragma once

#include <cstddef>

namespace netshare::ml::kernels::simd {

// True when the CPU executing this process supports AVX2 (cached CPUID).
bool cpu_supports_avx2();

// C[r0..r1) = A·B. A is (rows×K, stride lda), B is (K×C, stride ldb),
// C is (rows×C, stride ldc). Register blocks are 16 output columns wide,
// then 4-wide and scalar column tails.
void matmul_panel(const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc, std::size_t K,
                  std::size_t C, std::size_t r0, std::size_t r1);

// Same as matmul_panel plus a fused bias-add epilogue: each element gets
// (full ascending-k sum) + bias[j] — the exact rounding sequence of
// matmul_into followed by add_row_broadcast_inplace.
void matmul_bias_panel(const double* a, std::size_t lda, const double* b,
                       std::size_t ldb, const double* bias, double* c,
                       std::size_t ldc, std::size_t K, std::size_t C,
                       std::size_t r0, std::size_t r1);

// C[r0..r1) += Aᵀ·B with A stored K×rows (stride lda): each output element
// forms the full sum of a(k,i)·b(k,j) in a register first (ascending k),
// then adds it to the existing value with one rounding — the
// `acc += product` sequence.
void matmul_trans_a_acc_panel(const double* a, std::size_t lda,
                              const double* b, std::size_t ldb, double* c,
                              std::size_t ldc, std::size_t K, std::size_t C,
                              std::size_t r0, std::size_t r1);

// C[r0..r1) = A·Bᵀ where `bt` is the pre-packed transpose of B produced by
// kernels::pack_trans_b: bt[k*C + j] == B(j,k), so the ascending-k inner
// loop reads contiguous lanes, matching the scalar trans_b kernel and the
// serial reference.
void matmul_trans_b_panel(const double* a, std::size_t lda, const double* bt,
                          double* c, std::size_t ldc, std::size_t K,
                          std::size_t C, std::size_t r0, std::size_t r1);

// Adam update of n elements in place (kernels::adam_update's per-element
// sequence), four lanes at a time with a scalar tail; every lane runs the
// same IEEE mul/add/div/sqrt sequence as the scalar loop.
void adam_update(double* w, const double* g, double* m, double* v,
                 std::size_t n, double beta1, double beta2, double lr,
                 double eps, double bc1, double bc2);

// Fused GRU gate pre-activations, rows [r0..r1): out = (x·wx + h·wh) + bias
// with both products register-resident. Per element the rounding sequence
// is: full ascending-k sum of x·wx (started from seed(i, j) instead of
// zero when `seed`, stride lds, is non-null), full ascending-k sum of h·wh,
// one add of the two sums, one bias add — identical to the scalar tier's
// matmul_into + matmul_into + epilogue. The caller activates the finished
// block (kernels::gru_gate_rows).
void gate_panel(const double* x, std::size_t ldx, const double* wx,
                std::size_t ldwx, const double* h, std::size_t ldh,
                const double* wh, std::size_t ldwh, const double* bias,
                const double* seed, std::size_t lds, double* out,
                std::size_t ldo, std::size_t in_dim, std::size_t h_dim,
                std::size_t gate_dim, std::size_t r0, std::size_t r1);

}  // namespace netshare::ml::kernels::simd
