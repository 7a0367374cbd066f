// Micro-benchmark of the kernel layer: the serial reference vs the
// register-tiled kernels (trans_b against its reference, and the fused GRU
// gate against the unfused composition, as interleaved pairs), plus
// end-to-end DoppelGANger training throughput. Every row is the median of
// several repetitions, with its IQR recorded beside it. The kernels are serial
// leaves (parallelism lives in the callers' row slices), so kernel rows are
// measured at one width; the DoppelGANger rows sweep the stage width,
// clamped to hardware_concurrency — widths beyond the machine's cores
// measure oversubscription, not scaling — with the requested sweep and the
// clamp recorded in the JSON. The JSON also records the host fingerprint
// (bench/fingerprint.hpp: perfbench's fields plus the kernel TU's ISA and
// compile flags). Emits BENCH_kernels.json (path overridable
// via argv[1]); scripts/check_bench_regression gates it against the
// committed baseline from the same kind of host.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "fingerprint.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "gan/doppelganger.hpp"
#include "ml/kernels.hpp"
#include "ml/layers.hpp"
#include "ml/matrix.hpp"

using namespace netshare;
using bench::MedianIqr;
using bench::rate_reps;
using ml::Matrix;

namespace {

const std::size_t kRequestedThreadCounts[] = {1, 2, 4, 8};

// The benched sweep: requested counts that fit in the machine (always at
// least {1}).
std::vector<std::size_t> clamped_thread_counts() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cores = hw > 0 ? hw : 1;
  std::vector<std::size_t> counts;
  for (std::size_t t : kRequestedThreadCounts) {
    if (t <= cores) counts.push_back(t);
  }
  if (counts.empty()) counts.push_back(1);
  return counts;
}

// Repetitions behind every kernel row: each is a best-of window, and a row
// reports their median with the IQR beside it.
constexpr int kKernelReps = 5;

// One throughput row: serial reference and the kernel.
struct KernelRow {
  MedianIqr reference, kernel;
};

MedianIqr gflops_reps(std::size_t n, const std::function<void()>& fn) {
  return rate_reps(2.0 * n * n * n / 1e9, fn, kKernelReps);
}

std::vector<double> medians(const std::vector<MedianIqr>& v) {
  std::vector<double> out;
  for (const MedianIqr& m : v) out.push_back(m.median);
  return out;
}

std::vector<double> iqrs(const std::vector<MedianIqr>& v) {
  std::vector<double> out;
  for (const MedianIqr& m : v) out.push_back(m.iqr);
  return out;
}

enum class Op { kMatmul, kTransA };

KernelRow bench_op(Op op, std::size_t n) {
  Rng rng(op == Op::kMatmul ? 2 : 3);
  const Matrix a = Matrix::randn(n, n, rng);
  const Matrix b = Matrix::randn(n, n, rng);
  KernelRow row;
  const auto run_ref = [&] {
    switch (op) {
      case Op::kMatmul: ml::reference::matmul(a, b); break;
      case Op::kTransA: ml::reference::matmul_trans_a(a, b); break;
    }
  };
  row.reference = gflops_reps(n, run_ref);
  const auto run_kernel = [&] {
    switch (op) {
      case Op::kMatmul: ml::matmul(a, b); break;
      case Op::kTransA: ml::matmul_trans_a(a, b); break;
    }
  };
  row.kernel = gflops_reps(n, run_kernel);
  return row;
}

// End-to-end: DoppelGANger iterations/sec on a toy trace at each benched
// width. Training is bitwise identical across every row; only
// wall-clock may differ.
gan::TimeSeriesDataset toy_data(std::size_t n) {
  gan::TimeSeriesSpec spec;
  spec.attribute_segments = {{ml::OutputSegment::Kind::kSoftmax, 3},
                             {ml::OutputSegment::Kind::kSigmoid, 1}};
  spec.feature_segments = {{ml::OutputSegment::Kind::kSigmoid, 1}};
  spec.max_len = 8;
  gan::TimeSeriesDataset data;
  data.spec = spec;
  data.attributes = Matrix(n, 4);
  data.features.assign(8, Matrix(n, 1));
  data.lengths.resize(n);
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cat = rng.categorical({0.5, 0.3, 0.2});
    data.attributes(i, cat) = 1.0;
    data.attributes(i, 3) = rng.uniform(0.2, 0.8);
    data.lengths[i] = 2 * cat + 1;
    for (std::size_t t = 0; t < data.lengths[i]; ++t) {
      data.features[t](i, 0) = rng.uniform(0.1, 0.9);
    }
  }
  return data;
}

struct DgResult {
  bench::MedianIqr iters_per_sec;  // over the reps
  double allocs_per_iter;  // worst rep's steady-state Matrix allocs per iter
};

// Each rep trains a fresh model: `warmup` iterations populate its workspace
// pools and module buffers, then `iterations` are timed. A single cold
// sample per row mostly measured which rep the host's scheduler happened to
// favour; the median of several reps, each after its own warm-up, measures
// the width. The reps run in rounds, each round one rep of every width in
// turn (1, 2, 4, 1, 2, 4, ...), so a window in which the host is disturbed
// costs every row one rep instead of costing one row all of its.
std::vector<DgResult> bench_dg_rows(const std::vector<std::size_t>& widths,
                                    int warmup, int iterations, int reps) {
  const gan::TimeSeriesDataset data = toy_data(256);
  const gan::DgConfig dg;  // paper-shaped defaults: rnn 48, disc {96,96}
  std::vector<std::vector<double>> ips(widths.size());
  std::vector<double> allocs(widths.size(), 0.0);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t w = 0; w < widths.size(); ++w) {
      gan::DoppelGanger model(data.spec, dg, 99);
      model.fit(data, warmup, widths[w]);
      ml::alloc_counter::reset();
      Stopwatch sw;
      model.fit(data, iterations, widths[w]);
      ips[w].push_back(iterations / sw.seconds());
      allocs[w] = std::max(
          allocs[w],
          static_cast<double>(ml::alloc_counter::count()) / iterations);
    }
  }
  std::vector<DgResult> rows;
  for (std::size_t w = 0; w < widths.size(); ++w) {
    rows.push_back({bench::median_iqr(ips[w]), allocs[w]});
  }
  return rows;
}

// Two forms of one computation timed as kPairs interleaved pairs: each pair
// takes one best-of window of either form, the pair's first form
// alternating, and gives one throughput ratio. A gate reads the median of
// those ratios: a host that slows down for a while slows both halves of a
// pair, so the ratio keeps a kernel's margin where separate medians of the
// two forms, each measured in its own window, let the drift decide.
constexpr int kPairs = 21;

struct Pairs {
  MedianIqr fast, slow;  // per_call / s, medians of each form's windows
  MedianIqr ratio;       // fast / slow, per pair
};

Pairs interleaved_pairs(double per_call, const std::function<void()>& fast,
                        const std::function<void()>& slow,
                        double min_seconds) {
  std::vector<double> fast_rate, slow_rate, ratio;
  for (int p = 0; p < kPairs; ++p) {
    double f = 0.0, s = 0.0;
    if (p % 2 == 0) {
      f = per_call / bench::time_best(fast, min_seconds);
      s = per_call / bench::time_best(slow, min_seconds);
    } else {
      s = per_call / bench::time_best(slow, min_seconds);
      f = per_call / bench::time_best(fast, min_seconds);
    }
    fast_rate.push_back(f);
    slow_rate.push_back(s);
    ratio.push_back(f / s);
  }
  return {bench::median_iqr(fast_rate), bench::median_iqr(slow_rate),
          bench::median_iqr(ratio)};
}

// The trans_b kernel against its serial reference at 256³, in GFLOP/s, as
// interleaved pairs (gated: kernel / reference >= 2, the pair median).
Pairs bench_trans_b_pairs() {
  constexpr std::size_t n = 256;
  Rng rng(3);
  const Matrix a = Matrix::randn(n, n, rng);
  const Matrix b = Matrix::randn(n, n, rng);
  return interleaved_pairs(
      2.0 * n * n * n / 1e9, [&] { ml::matmul_trans_b(a, b); },
      [&] { ml::reference::matmul_trans_b(a, b); }, 0.06);
}

// Fused GRU gate vs the unfused matmul + add + bias + activation
// composition, at the paper-shaped GRU step (batch 64, input 12, hidden
// 48), in gates/s, as interleaved pairs (gated: fused / unfused >= 1.15,
// the pair median).
Pairs bench_gate_pairs() {
  Rng rng(5);
  const Matrix x = Matrix::randn(64, 12, rng);
  const Matrix wx = Matrix::randn(12, 48, rng);
  const Matrix h = Matrix::randn(64, 48, rng);
  const Matrix wh = Matrix::randn(48, 48, rng);
  const Matrix bias = Matrix::randn(1, 48, rng);
  Matrix scratch, out;
  const auto fused = [&] {
    ml::kernels::gru_gate_into(x, wx, h, wh, bias,
                               ml::kernels::GateAct::kSigmoid, scratch, out);
  };
  const auto unfused = [&] {
    Matrix u = ml::matmul(x, wx) + ml::matmul(h, wh);
    ml::add_row_broadcast_inplace(u, bias);
    ml::sigmoid_inplace(u);
  };
  return interleaved_pairs(1.0, fused, unfused, 0.03);
}

// The repo-owned transcendentals, in elements/s
// over 4096 N(0, 3²) inputs (the range gate pre-activations span) cut into
// calls of each width (the last call takes the remainder): 1 and 3 are
// output-head segment widths, 48 the gate's, 4096 a whole block. Info rows:
// nothing gates them.
constexpr std::size_t kElementwiseN = 4096;
const std::size_t kCallWidths[] = {1, 3, 48, 4096};

std::vector<double> normal_inputs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = 3.0 * rng.normal();
  return x;
}

struct TranscendentalRow {
  const char* name;
  void (*fn)(const double*, double*, std::size_t);
  std::vector<MedianIqr> by_width;
};

std::vector<TranscendentalRow> bench_transcendentals() {
  const std::vector<double> x = normal_inputs(kElementwiseN, 9);
  std::vector<double> y(kElementwiseN);
  std::vector<TranscendentalRow> rows = {
      {"exp", ml::kernels::exp_into, {}},
      {"sigmoid", ml::kernels::sigmoid_into, {}},
      {"tanh", ml::kernels::tanh_into, {}}};
  for (TranscendentalRow& row : rows) {
    for (const std::size_t w : kCallWidths) {
      row.by_width.push_back(rate_reps(kElementwiseN, [&] {
        for (std::size_t i = 0; i < kElementwiseN; i += w) {
          row.fn(x.data() + i, y.data() + i, std::min(w, kElementwiseN - i));
        }
      }, kKernelReps));
    }
  }
  return rows;
}

// A rate per second as ns per unit, its IQR scaled alike.
MedianIqr as_ns(const MedianIqr& rate) {
  return {1e9 / rate.median, 1e9 / rate.median * rate.iqr / rate.median};
}

// ReLU / LeakyReLU forward and backward (the kernel loops ActivationLayer
// calls), ns per element over 4096 inputs of random sign. Info rows.
struct ReluRow {
  const char* name;
  MedianIqr ns;
};

std::vector<ReluRow> bench_relu_family() {
  const std::vector<double> x = normal_inputs(kElementwiseN, 10);
  const std::vector<double> g = normal_inputs(kElementwiseN, 12);
  std::vector<double> y(kElementwiseN);
  const auto ns = [&](const std::function<void()>& fn) {
    return as_ns(rate_reps(kElementwiseN, fn, kKernelReps));
  };
  const double* xp = x.data();
  const double* gp = g.data();
  double* yp = y.data();
  return {
      {"relu_fwd", ns([&] { ml::kernels::relu_into(xp, yp, kElementwiseN); })},
      {"relu_bwd", ns([&] {
         ml::kernels::relu_grad_into(xp, gp, yp, kElementwiseN);
       })},
      {"leaky_relu_fwd", ns([&] {
         ml::kernels::leaky_relu_into(xp, yp, kElementwiseN, 0.2);
       })},
      {"leaky_relu_bwd", ns([&] {
         ml::kernels::leaky_relu_grad_into(xp, gp, yp, kElementwiseN, 0.2);
       })}};
}

// MixedHead's block activation (forward_rows_into) on the caida and ugr16
// presets' attribute and feature heads (feature heads with the generation
// flags' softmax), 64 rows per call as one batch step. ns per row, info.
struct HeadRow {
  const char* name;
  std::vector<ml::OutputSegment> segments;
  MedianIqr ns_per_row;
};

std::vector<HeadRow> bench_mixed_heads() {
  using K = ml::OutputSegment::Kind;
  std::vector<HeadRow> rows = {
      {"caida_attr",
       {{K::kSigmoid, 32}, {K::kSigmoid, 32}, {K::kSigmoid, 16},
        {K::kSigmoid, 16}, {K::kSoftmax, 3}, {K::kSigmoid, 11}},
       {}},
      {"caida_feat",
       {{K::kSigmoid, 1}, {K::kSigmoid, 1}, {K::kSigmoid, 1},
        {K::kSoftmax, 2}},
       {}},
      {"ugr16_attr",
       {{K::kSigmoid, 32}, {K::kSigmoid, 32}, {K::kSigmoid, 4},
        {K::kSigmoid, 4}, {K::kSoftmax, 3}, {K::kSigmoid, 11}},
       {}},
      {"ugr16_feat",
       {{K::kSigmoid, 1}, {K::kSigmoid, 1}, {K::kSigmoid, 1},
        {K::kSigmoid, 1}, {K::kSoftmax, 12}, {K::kSoftmax, 2}},
       {}}};
  constexpr std::size_t kHeadRows = 64;
  Rng rng(13);
  for (HeadRow& row : rows) {
    const ml::MixedHead head(row.segments);
    const Matrix x = Matrix::randn(kHeadRows, head.width(), rng, 3.0);
    Matrix y(kHeadRows, head.width());
    row.ns_per_row = as_ns(rate_reps(kHeadRows, [&] {
      head.forward_rows_into(x, y, 0, kHeadRows);
    }, kKernelReps));
  }
  return rows;
}

// The conditioned GRU's seeded gate at the sampler's shape: 64 series, 8
// step inputs seeded with the cond projection, hidden 48, gate width 48,
// one row-range call per gate as Gru::step_into makes it. Gates/s, info.
MedianIqr bench_seeded_gate(ml::kernels::GateAct act) {
  Rng rng(11);
  const Matrix x = Matrix::randn(64, 8, rng);
  const Matrix wx = Matrix::randn(8 + 48, 48, rng);
  const Matrix h = Matrix::randn(64, 48, rng);
  const Matrix wh = Matrix::randn(48, 48, rng);
  const Matrix bias = Matrix::randn(1, 48, rng);
  const Matrix seed = Matrix::randn(64, 48, rng);
  Matrix out(64, 48);
  return rate_reps(1.0, [&] {
    ml::kernels::gru_gate_rows(x, wx, h, wh, bias, act, out, 0, 64, &seed);
  }, kKernelReps);
}

// Operands as the model hands them to the kernels: about half the entries
// exact zeros (ReLU outputs, one-hot and bit-encoded fields, zero-padded
// steps), kSparseOperands distinct ones rotated call by call so no branch
// predictor can learn where the zeros sit. Info rows: nothing gates them.
constexpr std::size_t kSparseOperands = 16;

std::vector<Matrix> sparse_operands(std::size_t rows, std::size_t cols,
                                    Rng& rng) {
  std::vector<Matrix> out;
  for (std::size_t i = 0; i < kSparseOperands; ++i) {
    Matrix m = Matrix::randn(rows, cols, rng);
    for (double& v : m.data()) {
      if (rng.bernoulli(0.5)) v = 0.0;
    }
    out.push_back(std::move(m));
  }
  return out;
}

// matmul_bias at the attribute MLP's 64x64x64 (a sparse ReLU batch against
// dense weights), or trans_a_acc at the caida critic's first layer: the
// weight gradient of a 64-row batch of 190-wide sparse inputs (110
// attribute columns, 16 steps of 5) against 96 dense hidden-unit gradients.
MedianIqr bench_sparse(bool trans_a) {  // GFLOP/s
  Rng rng(trans_a ? 17 : 15);
  const std::size_t rows = 64, inner = trans_a ? 190 : 64;
  const std::size_t cols = trans_a ? 96 : 64;
  const std::vector<Matrix> ops = sparse_operands(rows, inner, rng);
  const Matrix w = Matrix::randn(trans_a ? rows : inner, cols, rng);
  const Matrix bias = Matrix::randn(1, cols, rng);
  Matrix out(trans_a ? inner : rows, cols);
  std::size_t next = 0;
  const auto run = [&] {
    const Matrix& a = ops[next++ % kSparseOperands];
    if (trans_a) {
      ml::kernels::matmul_trans_a_acc_into(a, w, out);
    } else {
      ml::kernels::matmul_bias_into(a, w, bias, out);
    }
  };
  const double gflop = 2.0 * rows * inner * cols / 1e9;
  return rate_reps(gflop, run, kKernelReps);
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

std::string json_array(const std::vector<std::size_t>& v) {
  std::string s = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%zu", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  const int dg_warmup = 5;
  const int dg_iterations = 40;
  const int dg_reps = 7;

  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<std::size_t> threads = clamped_thread_counts();
  std::size_t max_requested = 0;
  for (std::size_t t : kRequestedThreadCounts) {
    max_requested = std::max(max_requested, t);
  }
  // Bench honesty: the flag records that the requested sweep was clamped so
  // a reader of the JSON knows why thread columns are missing on small boxes.
  const bool clamped = hw > 0 && max_requested > hw;
  if (clamped) {
    std::printf("NOTE: clamping thread sweep to %zu count(s) on %u core(s); "
                "requested up to %zu\n",
                threads.size(), hw, max_requested);
  }
  const bool simd_supported =
      ml::kernels::supported_tier() == ml::kernels::SimdTier::kAvx2;
  const char* simd_active = bench::tier_name(ml::kernels::active_tier());
  std::printf("simd: supported=%s active=%s kernel_isa=%s flags=\"%s\"\n",
              simd_supported ? "true" : "false", simd_active,
              ml::kernels::kernel_isa(), ml::kernels::kernel_flags());

  const std::size_t mm_sizes[] = {128, 256, 512};
  std::vector<KernelRow> mm;
  for (std::size_t n : mm_sizes) {
    mm.push_back(bench_op(Op::kMatmul, n));
    const KernelRow& r = mm.back();
    std::printf("matmul %zu^3: ref %.2f, kernel %.2f (IQR %.2f) GFLOP/s, "
                "median of %d reps\n",
                n, r.reference.median, r.kernel.median, r.kernel.iqr,
                kKernelReps);
  }
  const KernelRow ta = bench_op(Op::kTransA, 256);
  std::printf("matmul_trans_a 256: ref %.2f, kernel %.2f (IQR %.2f) GFLOP/s "
              "(kernel/ref %.2fx)\n",
              ta.reference.median, ta.kernel.median, ta.kernel.iqr,
              ta.kernel.median / ta.reference.median);
  const Pairs tb_pairs = bench_trans_b_pairs();
  const KernelRow tb{tb_pairs.slow, tb_pairs.fast};
  std::printf("matmul_trans_b 256, %d interleaved pairs: kernel / ref "
              "%.3fx (IQR %.3f); ref %.2f (IQR %.2f), kernel %.2f (IQR "
              "%.2f) GFLOP/s\n",
              kPairs, tb_pairs.ratio.median, tb_pairs.ratio.iqr,
              tb.reference.median, tb.reference.iqr, tb.kernel.median,
              tb.kernel.iqr);

  const Pairs gate = bench_gate_pairs();
  std::printf("gru gate 64x12x48, %d interleaved pairs: fused / unfused "
              "%.3fx (IQR %.3f); unfused %.0f/s (IQR %.0f), fused %.0f/s "
              "(IQR %.0f)\n",
              kPairs, gate.ratio.median, gate.ratio.iqr, gate.slow.median,
              gate.slow.iqr, gate.fast.median, gate.fast.iqr);

  const std::vector<TranscendentalRow> trans = bench_transcendentals();
  for (const TranscendentalRow& r : trans) {
    std::printf("%-8s elements/s at call width", r.name);
    for (std::size_t i = 0; i < r.by_width.size(); ++i) {
      std::printf(" %zu: %.1f M (IQR %.1f)%s", kCallWidths[i],
                  r.by_width[i].median / 1e6, r.by_width[i].iqr / 1e6,
                  i + 1 < r.by_width.size() ? "," : "\n");
    }
  }
  const std::vector<ReluRow> relu = bench_relu_family();
  for (const ReluRow& r : relu) {
    std::printf("%-15s %zu elements: %.3f ns/element (IQR %.3f)\n", r.name,
                kElementwiseN, r.ns.median, r.ns.iqr);
  }
  const std::vector<HeadRow> heads = bench_mixed_heads();
  for (const HeadRow& r : heads) {
    std::printf("mixed head %-10s 64 rows: %.1f ns/row (IQR %.1f)\n", r.name,
                r.ns_per_row.median, r.ns_per_row.iqr);
  }
  struct SeededGate {
    const char* name;
    MedianIqr rate;
  };
  std::vector<SeededGate> seeded;
  for (const auto act :
       {ml::kernels::GateAct::kSigmoid, ml::kernels::GateAct::kTanh}) {
    seeded.push_back(
        {act == ml::kernels::GateAct::kSigmoid ? "sigmoid" : "tanh",
         bench_seeded_gate(act)});
    const SeededGate& g = seeded.back();
    std::printf("seeded gate 64x(8+48)->48 %s: %.1f us (IQR %.0f/s)\n",
                g.name, 1e6 / g.rate.median, g.rate.iqr);
  }

  const MedianIqr sparse_mm = bench_sparse(false);
  const MedianIqr sparse_ta = bench_sparse(true);
  for (const auto* row : {&sparse_mm, &sparse_ta}) {
    std::printf("%s, 50%% zeros, %zu rotated operands: %.2f (IQR %.2f) "
                "GFLOP/s\n",
                row == &sparse_mm ? "sparse matmul_bias 64x64x64"
                                  : "sparse trans_a_acc 190x64x96",
                kSparseOperands, row->median, row->iqr);
  }

  std::vector<double> dg_ips, dg_iqr, dg_allocs;
  const std::vector<DgResult> dg_rows =
      bench_dg_rows(threads, dg_warmup, dg_iterations, dg_reps);
  for (std::size_t w = 0; w < threads.size(); ++w) {
    const DgResult& r = dg_rows[w];
    dg_ips.push_back(r.iters_per_sec.median);
    dg_iqr.push_back(r.iters_per_sec.iqr);
    dg_allocs.push_back(r.allocs_per_iter);
    std::printf("doppelganger @%zu threads: %.2f iters/sec (IQR %.2f), "
                "%.1f allocs/iter, median of %d interleaved reps\n",
                threads[w], r.iters_per_sec.median, r.iters_per_sec.iqr,
                r.allocs_per_iter, dg_reps);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"requested_thread_counts\": [1, 2, 4, 8],\n");
  std::fprintf(f, "  \"thread_counts\": %s,\n", json_array(threads).c_str());
  std::fprintf(f, "  \"thread_counts_exceed_cores\": %s,\n",
               clamped ? "true" : "false");
  std::fprintf(f, "  \"simd\": {\"supported\": %s, \"active\": \"%s\"},\n",
               simd_supported ? "true" : "false", simd_active);
  std::fprintf(f, "  \"fingerprint\": %s,\n",
               bench::fingerprint_json(hw).c_str());
  // Kernel rows, at one width: medians, each IQR beside it.
  std::fprintf(f, "  \"kernel_reps\": %d,\n", kKernelReps);
  const auto kernel_row = [&](const KernelRow& r) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"reference\": %.3f, \"reference_iqr\": %.3f, "
                  "\"kernel\": %.3f, \"kernel_iqr\": %.3f",
                  r.reference.median, r.reference.iqr, r.kernel.median,
                  r.kernel.iqr);
    return std::string(buf);
  };
  std::fprintf(f, "  \"matmul_gflops\": [\n");
  for (std::size_t i = 0; i < mm.size(); ++i) {
    std::fprintf(f, "    {\"size\": %zu, %s}%s\n", mm_sizes[i],
                 kernel_row(mm[i]).c_str(), i + 1 < mm.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"matmul_trans_a_256_gflops\": {%s},\n",
               kernel_row(ta).c_str());
  std::fprintf(f,
               "  \"matmul_trans_b_256_gflops\": {%s, \"pairs\": %d, "
               "\"kernel_over_reference\": %.4f, "
               "\"kernel_over_reference_iqr\": %.4f},\n",
               kernel_row(tb).c_str(), kPairs, tb_pairs.ratio.median,
               tb_pairs.ratio.iqr);
  std::fprintf(f,
               "  \"gru_gate_per_sec\": {\"pairs\": %d, "
               "\"fused_over_unfused\": %.4f, "
               "\"fused_over_unfused_iqr\": %.4f, \"unfused\": %.1f, "
               "\"unfused_iqr\": %.1f, \"fused\": %.1f, \"fused_iqr\": %.1f},\n",
               kPairs, gate.ratio.median, gate.ratio.iqr, gate.slow.median,
               gate.slow.iqr, gate.fast.median, gate.fast.iqr);
  std::fprintf(f,
               "  \"transcendentals_per_sec\": {\"n\": %zu, "
               "\"call_widths\": [1, 3, 48, 4096]",
               kElementwiseN);
  for (const TranscendentalRow& r : trans) {
    std::fprintf(f, ", \"%s\": %s, \"%s_iqr\": %s", r.name,
                 json_array(medians(r.by_width)).c_str(), r.name,
                 json_array(iqrs(r.by_width)).c_str());
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"relu_ns_per_element\": {\"n\": %zu", kElementwiseN);
  for (const ReluRow& r : relu) {
    std::fprintf(f, ", \"%s\": %.4f, \"%s_iqr\": %.4f", r.name, r.ns.median,
                 r.name, r.ns.iqr);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"mixed_head_ns_per_row\": {\"rows\": 64");
  for (const HeadRow& r : heads) {
    std::fprintf(f, ", \"%s\": %.2f, \"%s_iqr\": %.2f", r.name,
                 r.ns_per_row.median, r.name, r.ns_per_row.iqr);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"seeded_gate_per_sec\": {\"shape\": [64, 8, 48, 48]");
  for (const SeededGate& g : seeded) {
    std::fprintf(f, ", \"%s\": %.1f, \"%s_iqr\": %.1f", g.name,
                 g.rate.median, g.name, g.rate.iqr);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"sparse_gflops\": {\"zero_frac\": 0.5, \"operands\": %zu",
               kSparseOperands);
  for (const auto* row : {&sparse_mm, &sparse_ta}) {
    const char* name = row == &sparse_mm ? "matmul_bias_64x64x64"
                                         : "trans_a_acc_190x64x96";
    std::fprintf(f, ", \"%s\": %.3f, \"%s_iqr\": %.3f", name, row->median,
                 name, row->iqr);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"doppelganger_iters_per_sec\": {\"iterations\": %d, "
               "\"warmup_iterations\": %d, \"reps\": %d, \"kernel\": %s, "
               "\"kernel_iqr\": %s},\n",
               dg_iterations, dg_warmup, dg_reps, json_array(dg_ips).c_str(),
               json_array(dg_iqr).c_str());
  std::fprintf(f, "  \"doppelganger_allocs_per_iter\": %s\n",
               json_array(dg_allocs).c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
