// End-to-end pipeline benchmark: preprocess -> train -> generate ->
// postprocess on a PCAP-preset trace, timed per stage (preprocess, generate
// and postprocess as the per-call median of repeated calls on inputs large
// enough that one call takes >= 10 ms: an 80k-record trace, 24x the real
// flow counts, and the trace that generates), the seed-chunk fit's per-stage
// iteration profile, plus a gated comparison, on the same 24x inputs, of
// the generate stage on the new path (length-adaptive sampling,
// chunk-parallel on the thread budget) against the serial reference path
// (full-unroll sampler, one chunk at a time, on the calling thread) — bitwise
// identical. Emits BENCH_pipeline.json (path overridable via argv[1]),
// with the host fingerprint of bench/fingerprint.hpp; the committed
// baseline at the repo root is gated by scripts/check_bench_regression
// (see EXPERIMENTS.md), which compares only files of equal fingerprints.
//
// Bench honesty: the requested thread budget is clamped to
// hardware_concurrency() before anything is measured (thread counts above
// the core count measure oversubscription, not scaling); the JSON records
// both the requested and the effective budget. On a 1-core container the
// gated speedup therefore does NOT come from threads. It comes from
// length-adaptive
// early exit: the reference unrolls every series through all max_len RNN
// steps (that was the only sampler before this path existed), while the
// adaptive path stops each series at its sampled length and compacts the
// batch, so compute is proportional to the total emitted length. Generated
// series on this workload are far shorter than max_len, and the two paths
// are bitwise identical (asserted in tests/test_generate.cpp), so the
// speedup holds on any core count.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fingerprint.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/postprocess.hpp"
#include "core/preprocess.hpp"
#include "core/train.hpp"
#include "datagen/presets.hpp"
#include "eval/report.hpp"
#include "gan/doppelganger.hpp"
#include "ml/matrix.hpp"
#include "telemetry/telemetry.hpp"

using namespace netshare;
using bench::time_best;

namespace {

// Per-call median of fn over repetitions totalling at least 10 ms (and at
// least 5 of them). The timed stages are sized so that one call already
// takes >= 10 ms: a stage of a millisecond or less wanders with the
// scheduler by more than the gate's 20% however often it is repeated.
double median_call(const std::function<void()>& fn) {
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < 5 || total < 0.01) {
    Stopwatch sw;
    fn();
    times.push_back(sw.seconds());
    total += times.back();
  }
  return bench::median_iqr(times).median;
}

// The iteration profile DoppelGanger::fit publishes (gan.stage.<stage>.ms
// and .cores, DESIGN.md §7), from the last fit, as one JSON object.
std::string stage_profile_json() {
  const std::string prefix = "gan.stage.";
  std::string out = "{";
  char buf[96];
  for (const auto& [name, value] : telemetry::snapshot_metrics().gauges) {
    if (name.rfind(prefix, 0) != 0) continue;
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.4f",
                  out.size() > 1 ? ", " : "",
                  name.substr(prefix.size()).c_str(), value);
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";
  const std::string telem_path = argc > 2 ? argv[2] : "RUN_telemetry.json";
  const std::size_t kRecords = 2000;
  const std::size_t kSampleBatch = 64;
  // Timed-stage inputs: preprocess encodes a kPreprocessRecords trace,
  // generate samples kGenerateScale times every chunk's real flow count,
  // and postprocess runs on what that generates. Each makes one call take
  // 13-25 ms on a 4-core AVX2 host (>= 10 ms with margin).
  const std::size_t kPreprocessRecords = 80000;
  const std::size_t kGenerateScale = 24;

  core::NetShareConfig config;
  config.use_ip2vec_ports = false;  // keep the bench self-contained & fast
  // The kCaida preset averages ~14.5 packets per flow, so the scaled-down
  // max_seq_len default of 8 truncates nearly every flow; 16 keeps the
  // bench workload representative of real per-flow series lengths.
  config.max_seq_len = 16;
  config.seed_iterations = 40;
  config.finetune_iterations = 15;
  // Like bench/micro_kernels, the requested budget is clamped to the core
  // count before anything is measured: running 4 software threads on 1 core
  // measures oversubscription, not scaling. Both numbers land in the JSON
  // (threads_requested vs threads) so a reader knows why.
  const std::size_t threads_requested = 4;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cores = hw > 0 ? hw : 1;
  config.threads = std::min(threads_requested, cores);
  if (config.threads < threads_requested) {
    std::printf("WARNING: requested a %zu-thread budget on %zu core(s); "
                "clamping to %zu. The gated speedup reflects the "
                "length-adaptive sampler, not thread scaling\n",
                threads_requested, cores, config.threads);
  }

  const auto bundle =
      datagen::make_dataset(datagen::DatasetId::kCaida, kRecords, 42);

  // Stage 1: preprocess (fit normalizers + chunked encode), the median of
  // repeated calls on fresh encoders over the larger timing trace.
  core::PacketEncoder encoder(config, nullptr);
  encoder.fit(bundle.packets);
  const auto datasets = encoder.encode(bundle.packets);
  const auto timing_bundle = datagen::make_dataset(
      datagen::DatasetId::kCaida, kPreprocessRecords, 43);
  const double preprocess_sec = median_call([&] {
    core::PacketEncoder again(config, nullptr);
    again.fit(timing_bundle.packets);
    again.encode(timing_bundle.packets);
  });

  // Stage 2: train (seed chunk + parallel fine-tune).
  Stopwatch sw;
  core::ChunkedTrainer trainer(encoder.spec(), config);
  trainer.fit(datasets);
  const double train_sec = sw.seconds();

  // Health-guard overhead on the train stage, gated at <= 2% by
  // check_bench_regression: one guarded fit of the seed chunk, timed inside
  // DoppelGanger::fit, as the guard work's wall time (begin_run, check,
  // checkpoint: the gan.stage.guard profile stage) over the iteration's.
  // Both come from the same fit, so host drift between two fits cannot
  // masquerade as overhead. The cadence here (check every 5 steps,
  // checkpoint every 10) is 4x denser than the default policy, so the gate
  // bounds the default from above.
  std::size_t seed_c = 0;
  while (seed_c < datasets.size() && datasets[seed_c].num_samples() == 0) {
    ++seed_c;
  }
  const int kProfileIters = 20;
  const int kGuardFitIters = 200;
  double train_guard_ms = 0.0, train_iter_ms = 0.0;
  {
    gan::DgConfig dg = config.dg;
    dg.health.enabled = true;
    dg.health.check_every = 5;
    dg.health.checkpoint_every = 10;
    gan::DoppelGanger model(encoder.spec(), dg, config.seed);
    model.fit(datasets[seed_c], 1);  // warm-up populates pools and caches
    telemetry::set_enabled(true);
    model.fit(datasets[seed_c], kGuardFitIters);
    const auto gauges = telemetry::snapshot_metrics().gauges;
    const auto gauge = [&](const std::string& name) {
      for (const auto& [key, value] : gauges) {
        if (key == name) return value;
      }
      return 0.0;
    };
    train_guard_ms = gauge("gan.stage.guard.ms");
    train_iter_ms = gauge("gan.stage.iteration.ms");
  }
  if (train_iter_ms <= 0.0) {
    std::fprintf(stderr, "ERROR: no gan.stage profile (telemetry compiled "
                         "out?): the guard overhead cannot be measured\n");
    return 1;
  }
  const double train_guard_overhead_frac = train_guard_ms / train_iter_ms;

  // Seed-chunk DoppelGanger::fit throughput at width 1 and at the core
  // count (informational, not gated): how far the iteration's row-sliced
  // stages scale with the width.
  // Each also leaves its last fit's stage profile behind (informational).
  const auto fit_iters_per_s = [&](std::size_t width, std::string& profile) {
    gan::DoppelGanger model(encoder.spec(), config.dg, config.seed);
    model.fit(datasets[seed_c], 1, width);  // warm-up populates pools, caches
    const double rate =
        kProfileIters / time_best([&] {
          model.fit(datasets[seed_c], kProfileIters, width);
        }, 1.2);
    profile = stage_profile_json();
    return rate;
  };
  std::string stage_profile_1t, stage_profile_nt;
  const double dg_fit_iters_per_s_1t = fit_iters_per_s(1, stage_profile_1t);
  const double dg_fit_iters_per_s_nt =
      fit_iters_per_s(cores, stage_profile_nt);

  // Stage 3: generate — chunk-parallel batched sampling, then decode. The
  // first call, at the real flow counts, is the one the train report shows;
  // the gated stage time is the median of repeated calls at kGenerateScale
  // times the counts.
  const auto& chunks = encoder.chunks();
  std::vector<std::size_t> counts(chunks.size(), 0);
  std::vector<std::size_t> timing_counts(chunks.size(), 0);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    counts[c] = chunks[c].real_flows;
    timing_counts[c] = kGenerateScale * counts[c];
  }
  // Decodes every sampled chunk of `s` into `out` and merge-sorts it.
  const auto decode_into = [&](const std::vector<std::size_t>& cnt,
                               const std::vector<gan::GeneratedSeries>& s,
                               net::PacketTrace& out) {
    out.packets.clear();
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      if (cnt[c] == 0 || !trainer.has_model(c)) continue;
      const net::PacketTrace part = encoder.decode(s[c], c);
      out.packets.insert(out.packets.end(), part.packets.begin(),
                         part.packets.end());
    }
    out.sort_by_time();
  };
  sw.reset();
  std::vector<gan::GeneratedSeries> series;
  trainer.sample_chunks(counts, 1234, series);
  const double sample_sec = sw.seconds();
  sw.reset();
  net::PacketTrace synth;
  decode_into(counts, series, synth);
  const double decode_sec = sw.seconds();
  // Printed after generation so the per-chunk gen_s column is populated
  // alongside train_s.
  eval::print_train_report(std::cout, trainer.report());
  std::cout.flush();
  net::PacketTrace timing_synth;
  std::vector<gan::GeneratedSeries> timing_series;
  const double generate_sec = median_call([&] {
    trainer.sample_chunks(timing_counts, 1234, timing_series);
    decode_into(timing_counts, timing_series, timing_synth);
  });

  // Stage 4: postprocess (IP remap + port retrain + header repair, all on
  // the 4-thread budget), the median of repeated calls on the trace the
  // timed generate calls produced.
  core::RepairStats repair;
  const double postprocess_sec = median_call([&] {
    net::PacketTrace post = core::remap_ips(
        timing_synth, core::IpRemapConfig{}, config.threads);
    Rng post_rng(99);
    post = core::retrain_dst_ports(post, {{80, 0.6}, {443, 0.3}, {53, 0.1}},
                                   post_rng, config.threads);
    repair = core::repair_packet_headers(post, config.threads);
  });

  // Gated generate comparison on the timed stage's inputs (kGenerateScale
  // times the counts): the full generate stage (sample every chunk's count +
  // decode + merge-sort) on the new path vs the serial reference. The new
  // path runs in alternating pairs of one call with telemetry on and one
  // with it runtime-disabled (which goes first flips every pair); the
  // instrumentation overhead, gated at <= 3% by
  // scripts/check_bench_regression, is the median of the pairs' overheads,
  // since the host drifts between back-to-back blocks by more than that.
  // (The compile-time switch removes even the disabled-check branch.)
  net::PacketTrace gen_buf;
  const auto time_generate = [&](bool telemetry_on, std::vector<double>& secs) {
    telemetry::set_enabled(telemetry_on);
    Stopwatch call;
    trainer.sample_chunks(timing_counts, 1234, timing_series);
    decode_into(timing_counts, timing_series, gen_buf);
    secs.push_back(call.seconds());
  };
  const int kTelemetryPairs = 81;
  std::vector<double> gen_on_secs, gen_off_secs, telemetry_overheads;
  for (int p = 0; p < kTelemetryPairs; ++p) {
    const bool on_first = p % 2 == 1;
    time_generate(on_first, on_first ? gen_on_secs : gen_off_secs);
    time_generate(!on_first, on_first ? gen_off_secs : gen_on_secs);
    telemetry_overheads.push_back(
        (gen_on_secs.back() - gen_off_secs.back()) / gen_off_secs.back());
  }
  telemetry::set_enabled(true);
  const double parallel_gen_sec = bench::median_iqr(gen_on_secs).median;
  const double telemetry_off_gen_sec = bench::median_iqr(gen_off_secs).median;
  const bench::MedianIqr telemetry_overhead =
      bench::median_iqr(telemetry_overheads);
  const std::size_t parallel_gen_packets = gen_buf.size();

  std::vector<gan::GeneratedSeries> ref_series(chunks.size());
  gan::SampleScratch scratch;
  const double serial_gen_sec = median_call([&] {
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      trainer.sample_chunk_reference_into(c, timing_counts[c], 1234, 0,
                                          ref_series[c], scratch);
    }
    decode_into(timing_counts, ref_series, gen_buf);
  });
  if (gen_buf.size() != parallel_gen_packets) {
    std::fprintf(stderr,
                 "ERROR: serial reference decoded %zu packets, parallel "
                 "path decoded %zu — paths diverged\n",
                 gen_buf.size(), parallel_gen_packets);
    return 1;
  }
  const double speedup = serial_gen_sec / parallel_gen_sec;

  // Informational micro numbers on the seed-chunk model, plus the
  // zero-allocation assertion on the adaptive path.
  std::size_t c0 = 0;
  while (c0 < chunks.size() && !trainer.has_model(c0)) ++c0;
  gan::GeneratedSeries buf;
  double batched_sec = 0.0;
  double allocs_per_batch = 0.0;
  {
    trainer.sample_chunk_into(c0, kSampleBatch, 7, 0, buf, scratch);  // warm-up
    ml::alloc_counter::reset();
    trainer.sample_chunk_into(c0, kSampleBatch, 7, 0, buf, scratch);
    allocs_per_batch = static_cast<double>(ml::alloc_counter::count());
    batched_sec = time_best([&] {
      trainer.sample_chunk_into(c0, kSampleBatch, 7, 0, buf, scratch);
    });
  }
  const double per_series_sec = time_best([&] {
    for (std::size_t i = 0; i < kSampleBatch; ++i) {
      trainer.sample_chunk_into(c0, 1, 7, i, buf, scratch);
    }
  });

  std::printf("preprocess  %.4fs per call (%zu records)\n"
              "train       %.3fs (cpu %.3fs)\n"
              "generate    %.4fs per call (%zux the flow counts, %zu "
              "packets); first call at 1x: sample %.4fs + decode %.4fs, %zu "
              "packets\n"
              "postprocess %.4fs per call (%zu packets, %zu repairs, %zu "
              "checksum failures)\n",
              preprocess_sec, kPreprocessRecords, train_sec,
              trainer.train_cpu_seconds(), generate_sec, kGenerateScale,
              timing_synth.size(), sample_sec, decode_sec, synth.size(),
              postprocess_sec, timing_synth.size(), repair.total_repairs(),
              repair.checksum_failures);
  std::printf("seed-chunk fit: %.1f iters/s at width 1, %.1f at width "
              "%zu (%.2fx)\n",
              dg_fit_iters_per_s_1t, dg_fit_iters_per_s_nt, cores,
              dg_fit_iters_per_s_nt / dg_fit_iters_per_s_1t);
  std::printf("generate stage (%zux the flow counts): serial reference "
              "%.4fs, adaptive+parallel %.4fs (%.2fx), %zu packets\n",
              kGenerateScale, serial_gen_sec, parallel_gen_sec, speedup,
              parallel_gen_packets);
  std::printf("sample %zu series @1t: batched %.4fs, per-series %.4fs, "
              "%.0f allocs/batch\n",
              kSampleBatch, batched_sec, per_series_sec, allocs_per_batch);
  std::printf("train health guards (one %d-iteration fit): %.4f ms of "
              "guard work per %.3f ms iteration (%.2f%%)\n",
              kGuardFitIters, train_guard_ms, train_iter_ms,
              100.0 * train_guard_overhead_frac);
  std::printf("seed-chunk stage profile @1t: %s\n", stage_profile_1t.c_str());
  std::printf("seed-chunk stage profile @%zut: %s\n", cores,
              stage_profile_nt.c_str());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"fingerprint\": %s,\n",
               bench::fingerprint_json(hw).c_str());
  std::fprintf(f, "  \"threads_requested\": %zu,\n", threads_requested);
  std::fprintf(f, "  \"threads\": %zu,\n", config.threads);
  std::fprintf(f, "  \"records\": %zu,\n", kRecords);
  std::fprintf(f, "  \"generated_records\": %zu,\n", synth.size());
  std::fprintf(f,
               "  \"stage_inputs\": {\"preprocess_records\": %zu, "
               "\"generate_scale\": %zu, \"postprocess_records\": %zu},\n",
               kPreprocessRecords, kGenerateScale, timing_synth.size());
  std::fprintf(f,
               "  \"stages_sec\": {\"preprocess\": %.6f, \"train\": %.4f, "
               "\"generate\": %.4f, \"postprocess\": %.6f},\n",
               preprocess_sec, train_sec, generate_sec, postprocess_sec);
  std::fprintf(f, "  \"train_cpu_sec\": %.4f,\n", trainer.train_cpu_seconds());
  std::fprintf(f, "  \"train_guard_ms_per_iter\": %.6f,\n", train_guard_ms);
  std::fprintf(f, "  \"train_iter_ms\": %.6f,\n", train_iter_ms);
  std::fprintf(f, "  \"train_guard_overhead_frac\": %.4f,\n",
               train_guard_overhead_frac);
  std::fprintf(f, "  \"train_guard_fit_iterations\": %d,\n", kGuardFitIters);
  std::fprintf(f, "  \"dg_fit_iters_per_s_1t\": %.2f,\n",
               dg_fit_iters_per_s_1t);
  std::fprintf(f, "  \"dg_fit_iters_per_s_nt\": %.2f,\n",
               dg_fit_iters_per_s_nt);
  std::fprintf(f, "  \"dg_stage_profile_1t\": %s,\n",
               stage_profile_1t.c_str());
  std::fprintf(f, "  \"dg_stage_profile_nt\": %s,\n",
               stage_profile_nt.c_str());
  std::fprintf(f, "  \"generate_serial_sec\": %.6f,\n", serial_gen_sec);
  std::fprintf(f, "  \"generate_parallel_sec\": %.6f,\n", parallel_gen_sec);
  std::fprintf(f, "  \"generate_sample_batched_sec\": %.6f,\n", batched_sec);
  std::fprintf(f, "  \"generate_sample_per_series_sec\": %.6f,\n",
               per_series_sec);
  std::fprintf(f, "  \"generate_decode_sec\": %.4f,\n", decode_sec);
  std::fprintf(f, "  \"generate_adaptive_speedup\": %.3f,\n", speedup);
  std::fprintf(f, "  \"generate_allocs_per_batch\": %.1f,\n", allocs_per_batch);
  std::fprintf(f, "  \"repair_total\": %zu,\n", repair.total_repairs());
  std::fprintf(f, "  \"repair_checksum_failures\": %zu,\n",
               repair.checksum_failures);
  // Honest after the clamp above: the emitted thread budget never exceeds
  // the core count (threads_requested records what was asked for).
  std::fprintf(f, "  \"thread_counts_exceed_cores\": %s\n",
               config.threads > cores ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (telemetry::kCompiledIn) {
    std::printf("telemetry overhead on generate stage (median of %d "
                "pairs): ON %.4fs vs OFF %.4fs (%+.2f%%, IQR %.2f%%)\n",
                kTelemetryPairs, parallel_gen_sec, telemetry_off_gen_sec,
                100.0 * telemetry_overhead.median,
                100.0 * telemetry_overhead.iqr);
    telemetry::OverheadInfo oh;
    oh.telemetry_on_sec = parallel_gen_sec;
    oh.telemetry_off_sec = telemetry_off_gen_sec;
    oh.frac = telemetry_overhead.median;
    if (!telemetry::write_run_json(telem_path, oh)) {
      std::fprintf(stderr, "cannot open %s for writing\n", telem_path.c_str());
      return 1;
    }
    const telemetry::MetricsSnapshot snap = telemetry::snapshot_metrics();
    std::printf("wrote %s (%zu counters, %zu gauges, %zu histograms, "
                "%llu spans recorded, %llu dropped)\n",
                telem_path.c_str(), snap.counters.size(), snap.gauges.size(),
                snap.histograms.size(),
                static_cast<unsigned long long>(snap.spans_recorded),
                static_cast<unsigned long long>(snap.spans_dropped));
  } else {
    std::printf("telemetry compiled out (NETSHARE_TELEMETRY=OFF); "
                "skipping %s\n",
                telem_path.c_str());
  }
  return 0;
}
