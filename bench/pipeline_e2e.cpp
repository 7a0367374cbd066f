// End-to-end pipeline benchmark: preprocess -> train -> generate ->
// postprocess on a PCAP-preset trace, timed per stage, plus a gated
// comparison of the generate stage on the new path (length-adaptive
// sampling, chunk-parallel on the thread budget) against the serial
// reference path (full-unroll sampler, one chunk at a time, one kernel
// thread) — bitwise identical. Emits BENCH_pipeline.json (path overridable
// via argv[1]); the
// committed baseline at the repo root is gated by
// scripts/check_bench_regression (see EXPERIMENTS.md).
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
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/postprocess.hpp"
#include "core/preprocess.hpp"
#include "core/train.hpp"
#include "datagen/presets.hpp"
#include "eval/report.hpp"
#include "gan/doppelganger.hpp"
#include "ml/kernels.hpp"
#include "ml/matrix.hpp"
#include "telemetry/telemetry.hpp"

using namespace netshare;
using bench::time_best;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";
  const std::string telem_path = argc > 2 ? argv[2] : "RUN_telemetry.json";
  const std::size_t kRecords = 2000;
  const std::size_t kSampleBatch = 64;

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

  // Stage 1: preprocess (fit normalizers + chunked encode).
  Stopwatch sw;
  core::PacketEncoder encoder(config, nullptr);
  encoder.fit(bundle.packets);
  const auto datasets = encoder.encode(bundle.packets);
  const double preprocess_sec = sw.seconds();

  // Stage 2: train (seed chunk + parallel fine-tune).
  sw.reset();
  core::ChunkedTrainer trainer(encoder.spec(), config);
  trainer.fit(datasets);
  const double train_sec = sw.seconds();

  // Health-guard overhead on the train stage: same model / seed / data with
  // the numeric guards on vs off, gated at <= 2% by check_bench_regression.
  // The cadence here (check every 5 steps, checkpoint every 10) is 4x denser
  // than the default policy, so the gate bounds the default from above.
  std::size_t seed_c = 0;
  while (seed_c < datasets.size() && datasets[seed_c].num_samples() == 0) {
    ++seed_c;
  }
  const int kGuardIters = 10;
  const auto time_train = [&](bool guards_on) {
    gan::DgConfig dg = config.dg;
    dg.health.enabled = guards_on;
    dg.health.check_every = 5;
    dg.health.checkpoint_every = 10;
    gan::DoppelGanger model(encoder.spec(), dg, config.seed);
    model.fit(datasets[seed_c], 1);  // warm-up populates pools and caches
    // ~3 timed repeats: best-of rides out shared-core noise, which on this
    // container is larger than the gated 2% overhead ceiling.
    return time_best([&] { model.fit(datasets[seed_c], kGuardIters); }, 1.2);
  };
  const double train_guard_off_sec = time_train(false);
  const double train_guard_on_sec = time_train(true);
  const double train_guard_overhead_frac =
      (train_guard_on_sec - train_guard_off_sec) / train_guard_off_sec;

  // Seed-chunk DoppelGanger::fit throughput at kernel budget 1 and at the
  // core count (informational, not gated): how far the iteration's task
  // graph and the kernels' row panels scale with the budget.
  const auto fit_iters_per_s = [&](std::size_t threads) {
    ml::kernels::KernelConfig kc = config.kernels;
    kc.threads = threads;
    ml::kernels::ConfigOverride budget(kc);
    gan::DoppelGanger model(encoder.spec(), config.dg, config.seed);
    model.fit(datasets[seed_c], 1);  // warm-up populates pools and caches
    return kGuardIters /
           time_best([&] { model.fit(datasets[seed_c], kGuardIters); }, 1.2);
  };
  const double dg_fit_iters_per_s_1t = fit_iters_per_s(1);
  const double dg_fit_iters_per_s_nt = fit_iters_per_s(cores);

  // Stage 3: generate — chunk-parallel batched sampling, then decode.
  const auto& chunks = encoder.chunks();
  std::vector<std::size_t> counts(chunks.size(), 0);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    counts[c] = chunks[c].real_flows;
  }
  sw.reset();
  std::vector<gan::GeneratedSeries> series;
  trainer.sample_chunks(counts, 1234, series);
  const double sample_sec = sw.seconds();
  sw.reset();
  net::PacketTrace synth;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (counts[c] == 0 || !trainer.has_model(c)) continue;
    const net::PacketTrace part = encoder.decode(series[c], c);
    synth.packets.insert(synth.packets.end(), part.packets.begin(),
                         part.packets.end());
  }
  synth.sort_by_time();
  const double decode_sec = sw.seconds();
  const double generate_sec = sample_sec + decode_sec;
  // Printed after generation so the per-chunk gen_s column is populated
  // alongside train_s.
  eval::print_train_report(std::cout, trainer.report());
  std::cout.flush();

  // Stage 4: postprocess (IP remap + port retrain + header repair, all on
  // the 4-thread budget).
  sw.reset();
  net::PacketTrace post = core::remap_ips(synth, core::IpRemapConfig{},
                                          config.threads);
  Rng post_rng(99);
  post = core::retrain_dst_ports(post, {{80, 0.6}, {443, 0.3}, {53, 0.1}},
                                 post_rng, config.threads);
  const core::RepairStats repair =
      core::repair_packet_headers(post, config.threads);
  const double postprocess_sec = sw.seconds();

  // Gated generate comparison: the full generate stage (sample every chunk's
  // count + decode + merge-sort) on the new path vs the serial reference.
  net::PacketTrace gen_buf;
  const auto decode_all = [&](const std::vector<gan::GeneratedSeries>& s) {
    gen_buf.packets.clear();
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      if (counts[c] == 0 || !trainer.has_model(c)) continue;
      const net::PacketTrace part = encoder.decode(s[c], c);
      gen_buf.packets.insert(gen_buf.packets.end(), part.packets.begin(),
                             part.packets.end());
    }
    gen_buf.sort_by_time();
  };
  const double parallel_gen_sec = time_best([&] {
    trainer.sample_chunks(counts, 1234, series);
    decode_all(series);
  });
  const std::size_t parallel_gen_packets = gen_buf.size();

  // Same workload with telemetry runtime-disabled: the ON/OFF delta is the
  // instrumentation overhead, gated at <= 3% by scripts/check_bench_regression
  // (the compile-time switch removes even the disabled-check branch).
  telemetry::set_enabled(false);
  const double telemetry_off_gen_sec = time_best([&] {
    trainer.sample_chunks(counts, 1234, series);
    decode_all(series);
  });
  telemetry::set_enabled(true);

  std::vector<gan::GeneratedSeries> ref_series(chunks.size());
  gan::SampleScratch scratch;
  const double serial_gen_sec = time_best([&] {
    ml::kernels::KernelConfig cfg;
    cfg.threads = 1;
    ml::kernels::ConfigOverride guard(cfg);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      trainer.sample_chunk_reference_into(c, counts[c], 1234, 0,
                                          ref_series[c], scratch);
    }
    decode_all(ref_series);
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
    ml::kernels::KernelConfig cfg;
    cfg.threads = 1;
    ml::kernels::ConfigOverride guard(cfg);
    trainer.sample_chunk_into(c0, kSampleBatch, 7, 0, buf, scratch);  // warm-up
    ml::alloc_counter::reset();
    trainer.sample_chunk_into(c0, kSampleBatch, 7, 0, buf, scratch);
    allocs_per_batch = static_cast<double>(ml::alloc_counter::count());
    batched_sec = time_best([&] {
      trainer.sample_chunk_into(c0, kSampleBatch, 7, 0, buf, scratch);
    });
  }
  double per_series_sec = 0.0;
  {
    ml::kernels::KernelConfig cfg;
    cfg.threads = 1;
    ml::kernels::ConfigOverride guard(cfg);
    per_series_sec = time_best([&] {
      for (std::size_t i = 0; i < kSampleBatch; ++i) {
        trainer.sample_chunk_into(c0, 1, 7, i, buf, scratch);
      }
    });
  }

  std::printf("preprocess  %.3fs\ntrain       %.3fs (cpu %.3fs)\n"
              "generate    %.3fs (sample %.3fs + decode %.3fs, %zu packets)\n"
              "postprocess %.3fs (%zu repairs, %zu checksum failures)\n",
              preprocess_sec, train_sec, trainer.train_cpu_seconds(),
              generate_sec, sample_sec, decode_sec, synth.size(),
              postprocess_sec, repair.total_repairs(),
              repair.checksum_failures);
  std::printf("seed-chunk fit: %.1f iters/s at 1 kernel thread, %.1f at "
              "%zu (%.2fx)\n",
              dg_fit_iters_per_s_1t, dg_fit_iters_per_s_nt, cores,
              dg_fit_iters_per_s_nt / dg_fit_iters_per_s_1t);
  std::printf("generate stage: serial reference %.4fs, adaptive+parallel "
              "%.4fs (%.2fx), %zu packets\n",
              serial_gen_sec, parallel_gen_sec, speedup, parallel_gen_packets);
  std::printf("sample %zu series @1t: batched %.4fs, per-series %.4fs, "
              "%.0f allocs/batch\n",
              kSampleBatch, batched_sec, per_series_sec, allocs_per_batch);
  std::printf("train health guards (%d iters): ON %.4fs vs OFF %.4fs "
              "(%+.2f%%)\n",
              kGuardIters, train_guard_on_sec, train_guard_off_sec,
              100.0 * train_guard_overhead_frac);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"threads_requested\": %zu,\n", threads_requested);
  std::fprintf(f, "  \"threads\": %zu,\n", config.threads);
  std::fprintf(f, "  \"records\": %zu,\n", kRecords);
  std::fprintf(f, "  \"generated_records\": %zu,\n", synth.size());
  std::fprintf(f,
               "  \"stages_sec\": {\"preprocess\": %.4f, \"train\": %.4f, "
               "\"generate\": %.4f, \"postprocess\": %.4f},\n",
               preprocess_sec, train_sec, generate_sec, postprocess_sec);
  std::fprintf(f, "  \"train_cpu_sec\": %.4f,\n", trainer.train_cpu_seconds());
  std::fprintf(f, "  \"train_guard_on_sec\": %.6f,\n", train_guard_on_sec);
  std::fprintf(f, "  \"train_guard_off_sec\": %.6f,\n", train_guard_off_sec);
  std::fprintf(f, "  \"train_guard_overhead_frac\": %.4f,\n",
               train_guard_overhead_frac);
  std::fprintf(f, "  \"dg_fit_iters_per_s_1t\": %.2f,\n",
               dg_fit_iters_per_s_1t);
  std::fprintf(f, "  \"dg_fit_iters_per_s_nt\": %.2f,\n",
               dg_fit_iters_per_s_nt);
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
    const double frac =
        (parallel_gen_sec - telemetry_off_gen_sec) / telemetry_off_gen_sec;
    std::printf("telemetry overhead on generate stage: ON %.4fs vs OFF "
                "%.4fs (%+.2f%%)\n",
                parallel_gen_sec, telemetry_off_gen_sec, 100.0 * frac);
    telemetry::OverheadInfo oh;
    oh.telemetry_on_sec = parallel_gen_sec;
    oh.telemetry_off_sec = telemetry_off_gen_sec;
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
