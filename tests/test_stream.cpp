// Streaming-dataflow tests (DESIGN.md §11): the StreamExecutor's scheduling
// contract (per-chunk stage order, admission bound, bounded-queue
// backpressure, dependency edges, error propagation) and — the load-bearing
// property — bitwise identity of the streaming pipeline's output vs the
// batch pipeline at any worker count, including under mid-stream chunk
// faults (seed-snapshot fallback) and checkpoint/resume.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/netshare.hpp"
#include "core/stream.hpp"
#include "core/train.hpp"
#include "datagen/presets.hpp"
#include "eval/report.hpp"
#include "gan/doppelganger.hpp"
#include "ml/health.hpp"

namespace netshare {
namespace {

namespace fs = std::filesystem;
using core::kNumStreamStages;
using core::StreamExecutor;
using core::StreamOptions;
using core::StreamStage;
using ml::health::FaultPlan;
using ml::health::ScopedFaultPlan;

// ---------------------------------------------------------------------------
// Executor scheduling contract (synthetic bodies).
// ---------------------------------------------------------------------------

// Records each chunk's stage sequence. Stages of one chunk never overlap
// (they form a dependency chain), so the per-chunk vectors need no locking.
struct StageLog {
  explicit StageLog(std::size_t chunks) : per_chunk(chunks) {}
  std::array<StreamExecutor::Body, kNumStreamStages> bodies() {
    std::array<StreamExecutor::Body, kNumStreamStages> b;
    for (std::size_t s = 0; s < kNumStreamStages; ++s) {
      b[s] = [this, s](std::size_t c) { per_chunk[c].push_back(s); };
    }
    return b;
  }
  std::vector<std::vector<std::size_t>> per_chunk;
};

TEST(StreamExecutor, RunsEveryStageOfEveryChunkInOrder) {
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const std::size_t M = 5;
    StageLog log(M);
    StreamOptions opts;
    opts.workers = workers;
    StreamExecutor exec(M, log.bodies(), opts);
    exec.run();
    for (std::size_t c = 0; c < M; ++c) {
      ASSERT_EQ(log.per_chunk[c].size(), kNumStreamStages)
          << "chunk " << c << " at " << workers << " workers";
      for (std::size_t s = 0; s < kNumStreamStages; ++s) {
        EXPECT_EQ(log.per_chunk[c][s], s) << "chunk " << c;
      }
    }
    EXPECT_EQ(exec.stats().chunks, M);
    EXPECT_EQ(exec.stats().workers, workers);
    EXPECT_GT(exec.stats().wall_sec, 0.0);
  }
}

TEST(StreamExecutor, HonorsChunksInFlightBound) {
  const std::size_t M = 6;
  StageLog log(M);
  StreamOptions opts;
  opts.workers = 4;
  opts.max_in_flight = 2;
  StreamExecutor exec(M, log.bodies(), opts);
  exec.run();
  for (std::size_t c = 0; c < M; ++c) {
    EXPECT_EQ(log.per_chunk[c].size(), kNumStreamStages);
  }
  EXPECT_GE(exec.stats().peak_in_flight, 1u);
  EXPECT_LE(exec.stats().peak_in_flight, 2u);
}

TEST(StreamExecutor, FullHandoffQueueParksInsteadOfBlocking) {
  // Constructed burst: S3(0) completes only after S1(1) and S1(2), and then
  // unblocks S2(1) and S2(2) at once. With queue_capacity == 1 the second
  // handoff must park (backpressure), and the run must still complete —
  // a blocking producer would deadlock this single-worker schedule.
  const std::size_t M = 3;
  StageLog log(M);
  StreamOptions opts;
  opts.workers = 1;
  opts.max_in_flight = M;
  opts.queue_capacity = 1;
  StreamExecutor exec(M, log.bodies(), opts);
  exec.add_dependency(StreamStage::kExport, 0, StreamStage::kTrain, 1);
  exec.add_dependency(StreamStage::kExport, 0, StreamStage::kTrain, 2);
  exec.add_dependency(StreamStage::kGenerate, 1, StreamStage::kExport, 0);
  exec.add_dependency(StreamStage::kGenerate, 2, StreamStage::kExport, 0);
  exec.run();
  for (std::size_t c = 0; c < M; ++c) {
    ASSERT_EQ(log.per_chunk[c].size(), kNumStreamStages) << "chunk " << c;
  }
  EXPECT_GE(exec.stats().backpressure_parks, 1u);
}

TEST(StreamExecutor, CrossChunkDependencyOrdersTrainStages) {
  // The seed edge of the real pipeline: train(c) waits for train(0).
  const std::size_t M = 5;
  std::atomic<bool> train0_done{false};
  std::atomic<int> violations{0};
  std::array<StreamExecutor::Body, kNumStreamStages> bodies{};
  bodies[static_cast<std::size_t>(StreamStage::kTrain)] = [&](std::size_t c) {
    if (c == 0) {
      train0_done.store(true);
    } else if (!train0_done.load()) {
      violations.fetch_add(1);
    }
  };
  StreamOptions opts;
  opts.workers = 4;
  opts.max_in_flight = M;
  StreamExecutor exec(M, std::move(bodies), opts);
  for (std::size_t c = 1; c < M; ++c) {
    exec.add_dependency(StreamStage::kTrain, c, StreamStage::kTrain, 0);
  }
  exec.run();
  EXPECT_EQ(violations.load(), 0);
}

TEST(StreamExecutor, BodyExceptionCancelsRunAndPropagates) {
  const std::size_t M = 4;
  std::array<StreamExecutor::Body, kNumStreamStages> bodies{};
  bodies[static_cast<std::size_t>(StreamStage::kTrain)] = [](std::size_t c) {
    if (c == 1) throw std::runtime_error("chunk 1 train failed");
  };
  StreamOptions opts;
  opts.workers = 2;
  opts.max_in_flight = 2;
  StreamExecutor exec(M, std::move(bodies), opts);
  try {
    exec.run();
    FAIL() << "run accepted a throwing body";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1 train failed");
  }
}

TEST(StreamExecutor, DetectsStalledGraphInsteadOfHanging) {
  StageLog log(3);
  StreamOptions opts;
  opts.workers = 1;
  opts.max_in_flight = 3;
  StreamExecutor exec(3, log.bodies(), opts);
  exec.add_dependency(StreamStage::kTrain, 1, StreamStage::kTrain, 2);
  exec.add_dependency(StreamStage::kTrain, 2, StreamStage::kTrain, 1);
  EXPECT_THROW(exec.run(), std::logic_error);
}

TEST(StreamExecutor, RejectsSelfDependencyAndReuse) {
  StageLog log(2);
  StreamExecutor exec(2, log.bodies(), StreamOptions{});
  EXPECT_THROW(
      exec.add_dependency(StreamStage::kTrain, 1, StreamStage::kTrain, 1),
      std::invalid_argument);
  EXPECT_THROW(exec.add_dependency(StreamStage::kTrain, 2,
                                   StreamStage::kTrain, 0),
               std::out_of_range);
  exec.run();
  EXPECT_THROW(exec.run(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Streaming pipeline vs batch oracle (bitwise).
// ---------------------------------------------------------------------------

gan::DgConfig tiny_dg() {
  gan::DgConfig dg;
  dg.attr_noise_dim = 4;
  dg.feat_noise_dim = 4;
  dg.attr_hidden = {16};
  dg.rnn_hidden = 16;
  dg.disc_hidden = {24};
  dg.aux_hidden = {12};
  dg.batch_size = 16;
  return dg;
}

core::NetShareConfig tiny_config() {
  core::NetShareConfig cfg;
  cfg.use_ip2vec_ports = false;
  cfg.num_chunks = 3;
  cfg.seed_iterations = 4;
  cfg.finetune_iterations = 2;
  cfg.threads = 4;
  cfg.dg = tiny_dg();
  return cfg;
}

const datagen::DatasetBundle& caida_bundle() {
  static const datagen::DatasetBundle* bundle = new datagen::DatasetBundle(
      datagen::make_dataset(datagen::DatasetId::kCaida, 200, 21));
  return *bundle;
}

net::PacketTrace batch_packets(const core::NetShareConfig& cfg,
                               std::uint64_t rng_seed, std::size_t n) {
  core::NetShare model(cfg, nullptr);
  model.fit(caida_bundle().packets);
  Rng rng(rng_seed);
  return model.generate_packets(n, rng);
}

net::PacketTrace stream_packets(core::NetShareConfig cfg, std::size_t workers,
                                std::uint64_t rng_seed, std::size_t n,
                                core::StreamStats* stats = nullptr) {
  cfg.streaming = true;
  cfg.stream_workers = workers;
  core::NetShare model(cfg, nullptr);
  Rng rng(rng_seed);
  return model.fit_generate_packets(caida_bundle().packets, n, rng, stats);
}

TEST(StreamPipeline, PacketsBitwiseEqualBatchAtAnyWorkerCount) {
  const std::size_t n = 100;
  const net::PacketTrace oracle = batch_packets(tiny_config(), 5, n);
  ASSERT_EQ(oracle.size(), n);
  for (std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    core::StreamStats stats;
    const net::PacketTrace out =
        stream_packets(tiny_config(), workers, 5, n, &stats);
    EXPECT_EQ(out.packets, oracle.packets)
        << "streaming diverged at " << workers << " workers";
    EXPECT_EQ(stats.chunks, 3u);
    EXPECT_EQ(stats.workers, workers);
    EXPECT_GE(stats.peak_in_flight, 1u);
    EXPECT_LE(stats.peak_in_flight, 2u);  // default stream_max_in_flight
    EXPECT_GE(stats.overlap_frac, 0.0);
    EXPECT_LE(stats.overlap_frac, 1.0);
  }
}

TEST(StreamPipeline, PacketsBitwiseEqualBatchAcrossSeeds) {
  const std::size_t n = 80;
  const net::PacketTrace oracle = batch_packets(tiny_config(), 99, n);
  const net::PacketTrace out = stream_packets(tiny_config(), 2, 99, n);
  EXPECT_EQ(out.packets, oracle.packets);
}

TEST(StreamPipeline, FlowsBitwiseEqualBatch) {
  const std::size_t n = 90;
  const datagen::DatasetBundle bundle =
      datagen::make_dataset(datagen::DatasetId::kCidds, 250, 22);
  core::NetShareConfig cfg = tiny_config();
  net::FlowTrace oracle;
  {
    core::NetShare model(cfg, nullptr);
    model.fit(bundle.flows);
    Rng rng(7);
    oracle = model.generate_flows(n, rng);
  }
  cfg.streaming = true;
  cfg.stream_workers = 4;
  core::NetShare model(cfg, nullptr);
  Rng rng(7);
  const net::FlowTrace out = model.fit_generate_flows(bundle.flows, n, rng);
  EXPECT_EQ(out.records, oracle.records);
}

TEST(StreamPipeline, SmallQueueManyChunksStillBitwiseEqual) {
  // Tighter than the defaults: more chunks than in-flight slots and a
  // one-deep handoff queue force admission throttling and backpressure.
  const std::size_t n = 100;
  core::NetShareConfig cfg = tiny_config();
  cfg.num_chunks = 6;
  const net::PacketTrace oracle = batch_packets(cfg, 11, n);
  cfg.streaming = true;
  cfg.stream_workers = 4;
  cfg.stream_max_in_flight = 2;
  cfg.stream_queue_capacity = 1;
  core::StreamStats stats;
  core::NetShare model(cfg, nullptr);
  Rng rng(11);
  const net::PacketTrace out =
      model.fit_generate_packets(caida_bundle().packets, n, rng, &stats);
  EXPECT_EQ(out.packets, oracle.packets);
  EXPECT_EQ(stats.chunks, 6u);
  EXPECT_LE(stats.peak_in_flight, 2u);
}

TEST(StreamPipeline, MidStreamChunkFaultFallsBackAndMatchesBatch) {
  // PR 5's chunk fault isolation must survive the move to streaming: chunk
  // 2's model diverges past its retry budget mid-stream, falls back to the
  // seed snapshot, and the completed run stays bitwise-equal to a batch run
  // under the same fault.
  const std::size_t n = 80;
  core::NetShareConfig cfg = tiny_config();
  cfg.seed = 5000;
  cfg.finetune_iterations = 3;
  cfg.dg.health.check_every = 1;
  cfg.dg.health.checkpoint_every = 2;
  cfg.dg.health.max_retries = 1;
  FaultPlan plan;
  plan.nan_at_step = 2;
  plan.nan_repeats = true;
  plan.nan_model_seed = cfg.seed + 1000 + 2;  // only chunk 2's model
  net::PacketTrace oracle;
  {
    ScopedFaultPlan arm(plan);
    oracle = batch_packets(cfg, 13, n);
  }
  cfg.streaming = true;
  cfg.stream_workers = 2;
  core::NetShare model(cfg, nullptr);
  net::PacketTrace out;
  {
    ScopedFaultPlan arm(plan);
    Rng rng(13);
    ASSERT_NO_THROW(
        out = model.fit_generate_packets(caida_bundle().packets, n, rng));
  }
  EXPECT_EQ(out.packets, oracle.packets);
  const core::TrainReport& report = model.train_report();
  ASSERT_EQ(report.chunks.size(), 3u);
  EXPECT_EQ(report.chunks[2].status,
            core::ChunkTrainReport::Status::kSeedFallback);
  EXPECT_EQ(report.count(core::ChunkTrainReport::Status::kSeedFallback), 1u);
}

TEST(StreamPipeline, CheckpointResumeMidStreamBitwiseIdentical) {
  // Run A checkpoints every chunk; deleting chunk 1's file simulates a run
  // killed before that write. Run B resumes the surviving chunks, retrains
  // chunk 1, and must reproduce run A bitwise.
  const std::size_t n = 80;
  const std::string dir =
      ::testing::TempDir() + "netshare_stream_ckpt";
  fs::remove_all(dir);
  core::NetShareConfig cfg = tiny_config();
  cfg.checkpoint_dir = dir;
  cfg.streaming = true;
  cfg.stream_workers = 4;
  net::PacketTrace a, b;
  {
    core::NetShare model(cfg, nullptr);
    Rng rng(23);
    a = model.fit_generate_packets(caida_bundle().packets, n, rng);
  }
  ASSERT_TRUE(fs::exists(dir + "/chunk_1.ckpt"));
  fs::remove(dir + "/chunk_1.ckpt");
  core::NetShare model(cfg, nullptr);
  {
    Rng rng(23);
    b = model.fit_generate_packets(caida_bundle().packets, n, rng);
  }
  EXPECT_EQ(b.packets, a.packets);
  const core::TrainReport& report = model.train_report();
  EXPECT_EQ(report.chunks[0].status, core::ChunkTrainReport::Status::kResumed);
  EXPECT_EQ(report.chunks[1].status, core::ChunkTrainReport::Status::kTrained);
  EXPECT_EQ(report.chunks[2].status, core::ChunkTrainReport::Status::kResumed);
  fs::remove_all(dir);
}

TEST(StreamPipeline, ReportCarriesPerChunkStageTimings) {
  core::NetShareConfig cfg = tiny_config();
  cfg.streaming = true;
  cfg.stream_workers = 2;
  core::NetShare model(cfg, nullptr);
  Rng rng(31);
  const net::PacketTrace out_trace =
      model.fit_generate_packets(caida_bundle().packets, 60, rng);
  const core::TrainReport& report = model.train_report();
  bool any_train = false, any_generate = false;
  std::size_t kept = 0;
  for (const auto& r : report.chunks) {
    if (r.train_sec > 0.0) any_train = true;
    if (r.generate_sec > 0.0) any_generate = true;
    EXPECT_GE(r.generate_records, r.generate_kept);
    EXPECT_GE(r.generate_records, r.generate_series);
    kept += r.generate_kept;
  }
  EXPECT_TRUE(any_train);
  EXPECT_TRUE(any_generate);
  EXPECT_GE(kept, out_trace.size());
  EXPECT_GT(out_trace.size(), 0u);
  std::ostringstream out;
  eval::print_train_report(out, report);
  EXPECT_NE(out.str().find("train_s"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("gen_s"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("decoded/kept"), std::string::npos) << out.str();
}

}  // namespace
}  // namespace netshare
