// Generation-service trajectory (DESIGN.md §13, §14): per-tenant latency
// percentiles and throughput under a 1 / 4 / 16-tenant mix at nominal load,
// the admission-control shed rate at 2x overload, and the rate-limiter shed
// rate for a tenant bursting far above its configured class. Each sweep row
// is run kSweepReps times, in rounds that visit every tenant mix in turn,
// and recorded as medians with IQRs beside them. Emits BENCH_service.json
// (path overridable via argv[1]) with the host fingerprint; the `service`
// kind in
// scripts/check_bench_regression gates p99 growth, zero-shed-at-nominal
// (the nominal sweep runs with the resilience layer at its defaults, so a
// rate-limiter or deadline check leaking latency into the nominal path
// shows up against the p99 baseline), that overload actually sheds, and
// that the over-rate burst sheds typed kRateLimited.
//
// The model under service is the scaled-down demo model (tiny DoppelGanger,
// 3 chunks) trained once into a temp snapshot dir — the bench measures the
// serving layer (queueing, coalescing, DRR, streaming merge), not GAN
// training.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "core/netshare.hpp"
#include "datagen/presets.hpp"
#include "fingerprint.hpp"
#include "serve/client.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"

namespace {

using namespace netshare;
using netshare::Stopwatch;

core::NetShareConfig bench_config() {
  core::NetShareConfig cfg;
  cfg.use_ip2vec_ports = false;
  cfg.num_chunks = 3;
  cfg.seed_iterations = 6;
  cfg.finetune_iterations = 3;
  cfg.threads = 4;
  cfg.dg.attr_noise_dim = 4;
  cfg.dg.feat_noise_dim = 4;
  cfg.dg.attr_hidden = {16};
  cfg.dg.rnn_hidden = 16;
  cfg.dg.disc_hidden = {24};
  cfg.dg.aux_hidden = {12};
  cfg.dg.batch_size = 16;
  return cfg;
}

struct SweepRow {
  std::size_t tenants = 0;
  std::size_t jobs = 0;
  std::size_t records_per_job = 0;
  double wall_sec = 0.0;
  double jobs_per_sec = 0.0;
  double records_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double shed_rate = 0.0;
  double batches = 0.0;
  double coalesced_jobs = 0.0;
};

// Aggregates every tenant's latency histogram into one.
std::vector<std::uint64_t> merged_hist(const serve::ServiceStatsSnapshot& s) {
  std::vector<std::uint64_t> hist(serve::kLatencyBuckets, 0);
  for (const auto& t : s.tenants) {
    for (std::size_t i = 0; i < hist.size() && i < t.latency_hist.size(); ++i) {
      hist[i] += t.latency_hist[i];
    }
  }
  return hist;
}

double mean_latency_ms(const serve::ServiceStatsSnapshot& s) {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& t : s.tenants) {
    sum += t.latency_sum_ms;
    n += t.latency_count;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// Fixed total work per row (jobs x records) so rows compare the tenant
// mix, not the workload size. Sized so each row's wall clock clears the
// gate's 0.2 s throughput noise floor on a 4-core host (96 jobs ran in
// about 65 ms there).
constexpr std::size_t kTotalJobs = 384;
constexpr std::size_t kRecordsPerJob = 800;
constexpr int kSweepReps = 5;

// One tenant-sweep row at nominal load on a fresh registry and service.
SweepRow sweep_row(const serve::ModelSpec& spec, const std::string& snap_dir,
                   std::size_t tenants) {
  serve::ModelRegistry registry;
  registry.define("m", spec);
  registry.publish("m", snap_dir);
  serve::ServiceConfig scfg;
  scfg.workers = 2;
  scfg.queue_capacity = kTotalJobs + 8;  // nominal: nothing sheds
  scfg.tenant_inflight_cap = kTotalJobs;
  serve::Service service(registry, scfg);
  serve::ServeClient client(service);

  Stopwatch sw;
  std::vector<std::shared_ptr<serve::ServeClient::PendingJob>> jobs;
  jobs.reserve(kTotalJobs);
  for (std::size_t i = 0; i < kTotalJobs; ++i) {
    const std::string tenant = "tenant" + std::to_string(i % tenants);
    jobs.push_back(client.submit("m", tenant, kRecordsPerJob, 1000 + i));
  }
  std::size_t ok = 0;
  for (auto& job : jobs) ok += job->wait().ok ? 1 : 0;
  service.drain();  // settle the stats counters
  const double wall = sw.seconds();
  const serve::ServiceStatsSnapshot stats = service.stats();

  SweepRow row;
  row.tenants = tenants;
  row.jobs = kTotalJobs;
  row.records_per_job = kRecordsPerJob;
  row.wall_sec = wall;
  row.jobs_per_sec = static_cast<double>(kTotalJobs) / wall;
  row.records_per_sec = static_cast<double>(kTotalJobs * kRecordsPerJob) / wall;
  const std::vector<std::uint64_t> hist = merged_hist(stats);
  row.p50_ms = serve::latency_percentile_ms(hist, 0.5);
  row.p99_ms = serve::latency_percentile_ms(hist, 0.99);
  row.mean_ms = mean_latency_ms(stats);
  row.shed_rate =
      static_cast<double>(stats.shed_overloaded + stats.shed_draining) /
      static_cast<double>(kTotalJobs);
  row.batches = static_cast<double>(stats.batches);
  row.coalesced_jobs = static_cast<double>(stats.coalesced_jobs);
  std::printf(
      "tenants=%2zu: %.3fs wall, %.1f jobs/s, %.0f rec/s, "
      "p50=%.0fms p99=%.0fms, %.0f batches (%.0f coalesced), ok=%zu/%zu\n",
      tenants, wall, row.jobs_per_sec, row.records_per_sec, row.p50_ms,
      row.p99_ms, row.batches, row.coalesced_jobs, ok, kTotalJobs);
  return row;
}

// Median and IQR of one field across a row's repetitions.
bench::MedianIqr across(const std::vector<SweepRow>& reps,
                        double SweepRow::*field) {
  std::vector<double> v;
  for (const SweepRow& r : reps) v.push_back(r.*field);
  return bench::median_iqr(v);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_service.json";

  // --- train + snapshot the demo model once -----------------------------
  const std::string snap_dir =
      (std::filesystem::temp_directory_path() /
       ("netshare_service_bench_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(snap_dir);
  core::NetShareConfig cfg = bench_config();
  cfg.checkpoint_dir = snap_dir;
  const net::FlowTrace reference =
      datagen::make_dataset(datagen::DatasetId::kUgr16, 300, 42).flows;
  {
    Stopwatch sw;
    core::NetShare model(cfg, nullptr);
    model.fit(reference);
    std::printf("trained demo model in %.2fs\n", sw.seconds());
  }

  serve::ModelSpec spec;
  spec.config = cfg;
  spec.reference = reference;

  // --- tenant sweep at nominal load -------------------------------------
  // Rounds visit every tenant mix in turn, so a disturbed window costs each
  // row one rep rather than one row all of them.
  const std::size_t kTenantMixes[] = {1, 4, 16};
  std::vector<std::vector<SweepRow>> reps(std::size(kTenantMixes));
  for (int rep = 0; rep < kSweepReps; ++rep) {
    for (std::size_t k = 0; k < reps.size(); ++k) {
      reps[k].push_back(sweep_row(spec, snap_dir, kTenantMixes[k]));
    }
  }
  // Nominal load must shed nothing in any rep: a row's shed rate is its
  // worst rep's.
  std::vector<double> row_shed(reps.size(), 0.0);
  for (std::size_t k = 0; k < reps.size(); ++k) {
    for (const SweepRow& r : reps[k]) {
      row_shed[k] = std::max(row_shed[k], r.shed_rate);
    }
  }
  const double shed_rate_nominal =
      (row_shed[0] + row_shed[1] + row_shed[2]) / 3.0;

  // --- shed rate at 2x overload -----------------------------------------
  // Capacity bounds sized so the offered burst is twice what admission can
  // hold: 1 worker busy on a fat lead job + queue_capacity queued slots,
  // offered = 2 x (queue + inflight headroom). Typed sheds are the expected
  // behaviour here, not an error.
  double shed_rate_overload = 0.0;
  {
    serve::ModelRegistry registry;
    registry.define("m", spec);
    registry.publish("m", snap_dir);
    serve::ServiceConfig scfg;
    scfg.workers = 1;
    scfg.queue_capacity = 16;
    scfg.max_coalesce = 1;
    scfg.tenant_inflight_cap = 64;
    serve::Service service(registry, scfg);

    std::atomic<std::uint64_t> done{0};
    auto submit_one = [&](std::size_t n, std::uint64_t seed) {
      serve::JobCallbacks cbs;
      cbs.on_done = [&done](std::uint64_t, std::uint64_t) { ++done; };
      cbs.on_error = [](serve::ErrorCode, const std::string&) {};
      return service.submit(serve::GenerateJob{"m", "burst", n, seed},
                            std::move(cbs));
    };
    // The lead occupies the single worker so the burst meets a full queue.
    submit_one(2000, 1);
    const std::size_t offered = 2 * (scfg.queue_capacity + 1);
    std::size_t shed = 0;
    for (std::size_t i = 0; i < offered; ++i) {
      const serve::SubmitResult r = submit_one(kRecordsPerJob, 100 + i);
      if (!r.accepted) {
        ++shed;
        if (r.code != serve::ErrorCode::kOverloaded) {
          std::fprintf(stderr, "unexpected shed code %d\n",
                       static_cast<int>(r.code));
          return 1;
        }
      }
    }
    service.begin_drain();
    service.drain();
    shed_rate_overload =
        static_cast<double>(shed) / static_cast<double>(offered);
    std::printf("overload: offered %zu, shed %zu (rate %.2f), drained %llu\n",
                offered, shed, shed_rate_overload,
                static_cast<unsigned long long>(done.load()));
  }

  // --- shed rate for a tenant bursting over its rate class --------------
  // One tenant capped at 8 jobs/s offers a 64-job burst back-to-back. The
  // burst bucket admits about one second's worth instantly; the rest must
  // shed typed kRateLimited with a retry-after hint. Queue capacity is
  // oversized so nothing here can shed kOverloaded — every shed is the
  // limiter's.
  double shed_rate_rate_limited = 0.0;
  {
    serve::ModelRegistry registry;
    registry.define("m", spec);
    registry.publish("m", snap_dir);
    serve::ServiceConfig scfg;
    scfg.workers = 2;
    scfg.queue_capacity = 256;
    scfg.tenant_inflight_cap = 256;
    scfg.rate_limit.default_class.jobs_per_sec = 8.0;
    serve::Service service(registry, scfg);

    constexpr std::size_t kOffered = 64;
    std::size_t shed = 0;
    std::uint64_t hint_sum_ms = 0;
    for (std::size_t i = 0; i < kOffered; ++i) {
      serve::JobCallbacks cbs;
      cbs.on_done = [](std::uint64_t, std::uint64_t) {};
      cbs.on_error = [](serve::ErrorCode, const std::string&) {};
      const serve::SubmitResult r = service.submit(
          serve::GenerateJob{"m", "overrate", 100, 500 + i}, std::move(cbs));
      if (!r.accepted) {
        ++shed;
        hint_sum_ms += r.retry_after_ms;
        if (r.code != serve::ErrorCode::kRateLimited) {
          std::fprintf(stderr, "unexpected shed code %d\n",
                       static_cast<int>(r.code));
          return 1;
        }
      }
    }
    service.begin_drain();
    service.drain();
    shed_rate_rate_limited =
        static_cast<double>(shed) / static_cast<double>(kOffered);
    std::printf(
        "over-rate: offered %zu at 8 jobs/s cap, shed %zu (rate %.2f), "
        "mean retry-after %.0f ms\n",
        kOffered, shed, shed_rate_rate_limited,
        shed == 0 ? 0.0
                  : static_cast<double>(hint_sum_ms) /
                        static_cast<double>(shed));
  }

  std::filesystem::remove_all(snap_dir);

  // --- JSON ------------------------------------------------------------
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"service\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  // The histogram bucket edges behind every percentile in this file; the
  // regression gate uses them to allow one-bucket jitter.
  std::fprintf(f, "  \"latency_edges_ms\": [");
  for (std::size_t i = 0; i < serve::kLatencyBuckets - 1; ++i) {
    std::fprintf(f, "%s%.0f", i ? ", " : "", serve::kLatencyEdgesMs[i]);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"fingerprint\": %s,\n",
               bench::fingerprint_json(std::thread::hardware_concurrency())
                   .c_str());
  std::fprintf(f, "  \"sweep_reps\": %d,\n", kSweepReps);
  // Each row's timings are medians over its reps with an "_iqr" beside each.
  std::fprintf(f, "  \"tenant_sweep\": [\n");
  for (std::size_t k = 0; k < reps.size(); ++k) {
    const std::vector<SweepRow>& rr = reps[k];
    const auto wall = across(rr, &SweepRow::wall_sec);
    const auto jps = across(rr, &SweepRow::jobs_per_sec);
    const auto rps = across(rr, &SweepRow::records_per_sec);
    const auto p50 = across(rr, &SweepRow::p50_ms);
    const auto p99 = across(rr, &SweepRow::p99_ms);
    const auto mean = across(rr, &SweepRow::mean_ms);
    std::fprintf(
        f,
        "    {\"tenants\": %zu, \"jobs\": %zu, \"records_per_job\": %zu, "
        "\"wall_sec\": %.4f, \"wall_sec_iqr\": %.4f, "
        "\"jobs_per_sec\": %.2f, \"jobs_per_sec_iqr\": %.2f, "
        "\"records_per_sec\": %.1f, \"records_per_sec_iqr\": %.1f, "
        "\"p50_ms\": %.1f, \"p50_ms_iqr\": %.1f, "
        "\"p99_ms\": %.1f, \"p99_ms_iqr\": %.1f, "
        "\"mean_ms\": %.2f, \"mean_ms_iqr\": %.2f, \"shed_rate\": %.4f, "
        "\"batches\": %.0f, \"coalesced_jobs\": %.0f}%s\n",
        kTenantMixes[k], rr[0].jobs, rr[0].records_per_job, wall.median,
        wall.iqr, jps.median, jps.iqr, rps.median, rps.iqr, p50.median,
        p50.iqr, p99.median, p99.iqr, mean.median, mean.iqr, row_shed[k],
        across(rr, &SweepRow::batches).median,
        across(rr, &SweepRow::coalesced_jobs).median,
        k + 1 < reps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"shed_rate_nominal\": %.4f,\n", shed_rate_nominal);
  std::fprintf(f, "  \"shed_rate_overload\": %.4f,\n", shed_rate_overload);
  std::fprintf(f, "  \"shed_rate_rate_limited\": %.4f\n",
               shed_rate_rate_limited);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
