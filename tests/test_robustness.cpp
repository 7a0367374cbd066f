// Fault-tolerance tests (DESIGN.md §9): snapshot-file corruption produces
// typed errors and never a partially-restored model; injected numeric faults
// trigger rollback-and-retry (recoverable) or bounded failure (persistent);
// a failed fine-tune chunk falls back to the seed snapshot without failing
// the whole fit; durable checkpoints resume bitwise-identically at any
// worker count; and the guards preserve the healthy-path determinism and
// zero-steady-state-allocation contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/netshare.hpp"
#include "core/train.hpp"
#include "datagen/presets.hpp"
#include "eval/report.hpp"
#include "gan/doppelganger.hpp"
#include "gan/tabular_gan.hpp"
#include "ml/health.hpp"
#include "ml/kernels.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/serialize.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare {
namespace {

namespace fs = std::filesystem;
using ml::SnapshotError;
using ml::health::FaultPlan;
using ml::health::ScopedFaultPlan;
using ml::health::TrainingDivergedError;

// ---------------------------------------------------------------------------
// Fixtures (the tiny DoppelGanger setup shared with test_generate.cpp).
// ---------------------------------------------------------------------------

bool matrix_eq(const ml::Matrix& a, const ml::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c) != b(r, c)) return false;  // bitwise: exact compare
    }
  }
  return true;
}

bool series_eq(const gan::GeneratedSeries& a, const gan::GeneratedSeries& b) {
  if (!matrix_eq(a.attributes, b.attributes)) return false;
  if (a.features.size() != b.features.size()) return false;
  for (std::size_t t = 0; t < a.features.size(); ++t) {
    if (!matrix_eq(a.features[t], b.features[t])) return false;
  }
  return a.lengths == b.lengths;
}

gan::TimeSeriesSpec tiny_spec() {
  gan::TimeSeriesSpec spec;
  spec.attribute_segments = {{ml::OutputSegment::Kind::kSoftmax, 3},
                             {ml::OutputSegment::Kind::kSigmoid, 1}};
  spec.feature_segments = {{ml::OutputSegment::Kind::kSigmoid, 1}};
  spec.max_len = 4;
  return spec;
}

gan::TimeSeriesDataset tiny_data(std::size_t n, std::uint64_t seed) {
  gan::TimeSeriesDataset data;
  data.spec = tiny_spec();
  data.attributes = ml::Matrix(n, 4);
  data.features.assign(4, ml::Matrix(n, 1));
  data.lengths.resize(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cat = rng.categorical({0.5, 0.3, 0.2});
    data.attributes(i, cat) = 1.0;
    data.attributes(i, 3) = rng.uniform(0.2, 0.8);
    data.lengths[i] = cat + 1;
    for (std::size_t t = 0; t < data.lengths[i]; ++t) {
      data.features[t](i, 0) = rng.uniform(0.1, 0.9);
    }
  }
  return data;
}

gan::DgConfig tiny_dg() {
  gan::DgConfig dg;
  dg.attr_noise_dim = 4;
  dg.feat_noise_dim = 4;
  dg.attr_hidden = {16};
  dg.rnn_hidden = 16;
  dg.disc_hidden = {24};
  dg.aux_hidden = {12};
  dg.batch_size = 16;
  dg.health.check_every = 5;
  dg.health.checkpoint_every = 5;
  return dg;
}

core::NetShareConfig tiny_trainer_config() {
  core::NetShareConfig cfg;
  cfg.use_ip2vec_ports = false;
  cfg.num_chunks = 3;
  cfg.seed_iterations = 6;
  cfg.finetune_iterations = 8;
  cfg.threads = 4;
  cfg.seed = 5000;
  cfg.dg = tiny_dg();
  return cfg;
}

std::vector<gan::TimeSeriesDataset> tiny_chunks() {
  // Chunk 1 is empty: exercises the kEmpty report row alongside the others.
  std::vector<gan::TimeSeriesDataset> chunks;
  chunks.push_back(tiny_data(24, 78));
  chunks.push_back(tiny_data(0, 79));
  chunks.push_back(tiny_data(20, 80));
  return chunks;
}

// Fresh per-test scratch directory under the test temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "netshare_robust_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string write_valid_snapshot(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "netshare_robust_" + name + ".ckpt";
  ml::save_snapshot_file({1.0, -2.5, 3.25, 0.125}, path);
  return path;
}

void patch_byte(const std::string& path, std::size_t offset,
                unsigned char value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), 1);
}

SnapshotError::Kind load_kind(const std::string& path) {
  try {
    ml::load_snapshot_file(path);
  } catch (const SnapshotError& e) {
    return e.kind();
  }
  ADD_FAILURE() << path << ": load did not throw SnapshotError";
  return SnapshotError::Kind::kIo;
}

// ---------------------------------------------------------------------------
// Snapshot file corruption → typed errors, no partial restore.
// ---------------------------------------------------------------------------

TEST(SnapshotFile, RoundTripSurvivesCrc) {
  const std::string path = write_valid_snapshot("roundtrip");
  const std::vector<double> back = ml::load_snapshot_file(path);
  EXPECT_EQ(back, (std::vector<double>{1.0, -2.5, 3.25, 0.125}));
  std::remove(path.c_str());
}

TEST(SnapshotFile, TruncatedPayloadIsTyped) {
  const std::string path = write_valid_snapshot("truncated");
  fs::resize_file(path, fs::file_size(path) - 9);  // cuts payload + crc
  EXPECT_EQ(load_kind(path), SnapshotError::Kind::kTruncated);
  std::remove(path.c_str());
}

TEST(SnapshotFile, MissingChecksumIsTruncated) {
  const std::string path = write_valid_snapshot("nocrc");
  fs::resize_file(path, fs::file_size(path) - 2);  // clips the crc field
  EXPECT_EQ(load_kind(path), SnapshotError::Kind::kTruncated);
  std::remove(path.c_str());
}

TEST(SnapshotFile, FlippedPayloadByteIsChecksumError) {
  const std::string path = write_valid_snapshot("flipped");
  // Offset 23 lands inside the first payload double (8 magic + 4 version +
  // 8 count + 3).
  patch_byte(path, 23, 0x7f);
  EXPECT_EQ(load_kind(path), SnapshotError::Kind::kChecksum);
  std::remove(path.c_str());
}

TEST(SnapshotFile, WrongVersionIsTyped) {
  const std::string path = write_valid_snapshot("version");
  patch_byte(path, 8, 99);  // version field follows the 8-byte magic
  try {
    ml::load_snapshot_file(path);
    FAIL() << "load accepted an unknown format version";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kBadVersion);
    EXPECT_NE(std::string(e.what()).find("99"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(SnapshotFile, ZeroLengthFileIsTruncated) {
  const std::string path =
      ::testing::TempDir() + "netshare_robust_empty.ckpt";
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_EQ(load_kind(path), SnapshotError::Kind::kTruncated);
  std::remove(path.c_str());
}

TEST(SnapshotFile, ForeignBytesAreBadMagic) {
  const std::string path =
      ::testing::TempDir() + "netshare_robust_foreign.ckpt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a netshare snapshot at all";
  }
  EXPECT_EQ(load_kind(path), SnapshotError::Kind::kBadMagic);
  std::remove(path.c_str());
}

TEST(SnapshotFile, MissingFileIsIoError) {
  EXPECT_EQ(load_kind(::testing::TempDir() + "netshare_robust_nofile.ckpt"),
            SnapshotError::Kind::kIo);
}

TEST(Restore, MismatchLeavesModelUntouchedAndNamesSizes) {
  Rng rng(41);
  ml::Mlp model({3, 5, 2}, ml::Activation::kRelu, rng);
  const std::vector<double> before =
      ml::snapshot_parameters(model.parameters());
  std::vector<double> wrong(before.size() - 3, 0.5);
  try {
    ml::restore_parameters(model.parameters(), wrong);
    FAIL() << "restore accepted a mismatched snapshot";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(before.size())), std::string::npos)
        << msg;
    EXPECT_NE(msg.find(std::to_string(wrong.size())), std::string::npos)
        << msg;
  }
  // Validation runs before any write: the model is bitwise untouched.
  EXPECT_EQ(ml::snapshot_parameters(model.parameters()), before);
}

// ---------------------------------------------------------------------------
// Numeric health guard: rollback-and-retry inside the train loops.
// ---------------------------------------------------------------------------

TEST(HealthGuard, InjectedNanRollsBackAndRecovers) {
  // The rollback path is the same at every fan-out width: the recovered
  // weights at width 4 match width 1 bit for bit.
  FaultPlan plan;
  plan.nan_at_step = 8;  // detected by the step-10 check (check_every = 5)
  std::vector<double> serial;
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    ml::kernels::KernelConfig kc;
    kc.threads = width;
    ml::kernels::ConfigOverride budget(kc);
    gan::DoppelGanger m(tiny_spec(), tiny_dg(), 4321);
    ScopedFaultPlan arm(plan);
    m.fit(tiny_data(64, 78), 20);
    EXPECT_GE(m.health_stats().rollbacks, 1) << "width " << width;
    const std::vector<double> w = m.snapshot();
    if (width == 1) {
      serial = w;
    } else {
      ASSERT_EQ(w.size(), serial.size());
      EXPECT_EQ(std::memcmp(w.data(), serial.data(),
                            w.size() * sizeof(double)),
                0)
          << "recovered weights differ at width 4";
    }
  }

  gan::DoppelGanger model(tiny_spec(), tiny_dg(), 4321);
  {
    ScopedFaultPlan arm(plan);
    model.fit(tiny_data(64, 78), 20);
  }
  const auto stats = model.health_stats();
  EXPECT_GE(stats.injected, 1);
  EXPECT_GE(stats.rollbacks, 1);
  EXPECT_GE(stats.last_bad_step, plan.nan_at_step);
  EXPECT_FALSE(stats.last_issue.empty());
  // The recovered model is usable: every sampled value is finite.
  gan::SampleScratch scratch;
  gan::GeneratedSeries out;
  model.sample_into(16, 7, 0, out, scratch);
  ASSERT_EQ(out.attributes.rows(), 16u);
  for (std::size_t r = 0; r < out.attributes.rows(); ++r) {
    for (std::size_t c = 0; c < out.attributes.cols(); ++c) {
      EXPECT_TRUE(std::isfinite(out.attributes(r, c)));
    }
  }
}

TEST(HealthGuard, PersistentNanExhaustsRetriesAndThrows) {
  gan::DgConfig dg = tiny_dg();
  dg.health.max_retries = 1;
  gan::DoppelGanger model(tiny_spec(), dg, 4321);
  FaultPlan plan;
  plan.nan_at_step = 2;
  plan.nan_repeats = true;  // re-poisons after every rollback
  ScopedFaultPlan arm(plan);
  EXPECT_THROW(model.fit(tiny_data(64, 78), 20), TrainingDivergedError);
  EXPECT_EQ(model.health_stats().rollbacks, 1);
}

TEST(HealthGuard, HealthyPathBitwiseIdenticalWithGuardsOnOrOff) {
  const gan::TimeSeriesDataset data = tiny_data(64, 78);
  gan::DgConfig off = tiny_dg();
  off.health.enabled = false;
  gan::DgConfig on = tiny_dg();
  on.health.check_every = 3;
  on.health.checkpoint_every = 3;
  gan::DoppelGanger a(tiny_spec(), off, 4321);
  gan::DoppelGanger b(tiny_spec(), on, 4321);
  a.fit(data, 10);
  b.fit(data, 10);
  EXPECT_GT(b.health_stats().checks, 0);
  EXPECT_EQ(b.health_stats().rollbacks, 0);
  // Guards only read on a healthy run: identical weights, bit for bit.
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(HealthGuard, SteadyStateTrainingAllocatesNothingWithGuardsOn) {
  ml::kernels::KernelConfig cfg;
  cfg.threads = 4;
  ml::kernels::ConfigOverride guard(cfg);
  gan::DgConfig dg = tiny_dg();
  dg.health.check_every = 1;  // guard + checkpoint on every iteration
  dg.health.checkpoint_every = 1;
  gan::DoppelGanger model(tiny_spec(), dg, 4321);
  const gan::TimeSeriesDataset data = tiny_data(64, 78);
  model.fit(data, 1);  // warm-up populates pools and the monitor buffer
  ml::alloc_counter::reset();
  model.fit(data, 2);
  EXPECT_EQ(ml::alloc_counter::count(), 0u)
      << "health-guarded training allocated Matrix storage in steady state";
}

TEST(HealthGuard, TabularGanRollsBackAndRecovers) {
  std::vector<ml::OutputSegment> segments = {
      {ml::OutputSegment::Kind::kSoftmax, 3},
      {ml::OutputSegment::Kind::kSigmoid, 2}};
  ml::Matrix rows(64, 5);
  Rng rng(91);
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    rows(i, rng.categorical({0.4, 0.4, 0.2})) = 1.0;
    rows(i, 3) = rng.uniform(0.1, 0.9);
    rows(i, 4) = rng.uniform(0.1, 0.9);
  }
  gan::TabularGanConfig cfg;
  cfg.gen_hidden = {24};
  cfg.disc_hidden = {24};
  cfg.iterations = 20;
  cfg.batch_size = 16;
  cfg.health.check_every = 5;
  cfg.health.checkpoint_every = 5;
  gan::TabularGan model(segments, cfg, 777);
  FaultPlan plan;
  plan.nan_at_step = 8;
  {
    ScopedFaultPlan arm(plan);
    model.fit(rows);
  }
  EXPECT_GE(model.health_stats().rollbacks, 1);
  Rng sample_rng(92);
  const ml::Matrix out = model.sample(8, sample_rng);
  for (std::size_t i = 0; i < out.rows(); ++i) {
    for (std::size_t j = 0; j < out.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(out(i, j)));
    }
  }
}

// ---------------------------------------------------------------------------
// Chunk fault isolation + the training report.
// ---------------------------------------------------------------------------

TEST(ChunkFaults, UnrecoverableChunkFallsBackToSeedSnapshot) {
  core::NetShareConfig cfg = tiny_trainer_config();
  cfg.dg.health.max_retries = 1;
  core::ChunkedTrainer trainer(tiny_spec(), cfg);
  FaultPlan plan;
  plan.nan_at_step = 2;
  plan.nan_repeats = true;
  plan.nan_model_seed = cfg.seed + 1000 + 2;  // only chunk 2's model
  const auto diags_before =
      telemetry::diag_count("core.train.chunk_failed");
  {
    ScopedFaultPlan arm(plan);
    ASSERT_NO_THROW(trainer.fit(tiny_chunks()));  // the run survives
  }
  const core::TrainReport& report = trainer.report();
  ASSERT_EQ(report.chunks.size(), 3u);
  EXPECT_EQ(report.seed_chunk, 0u);
  EXPECT_TRUE(report.chunks[0].is_seed);
  EXPECT_EQ(report.chunks[0].status, core::ChunkTrainReport::Status::kTrained);
  EXPECT_EQ(report.chunks[1].status, core::ChunkTrainReport::Status::kEmpty);
  const core::ChunkTrainReport& failed = report.chunks[2];
  EXPECT_EQ(failed.status, core::ChunkTrainReport::Status::kSeedFallback);
  EXPECT_EQ(failed.rollbacks, 1);
  EXPECT_EQ(failed.attempts, 2);
  // Both attempts trained, and their CPU counts toward the cost axis.
  EXPECT_GT(failed.train_cpu_sec, 0.0);
  EXPECT_NE(failed.error.find("diverged"), std::string::npos) << failed.error;
  EXPECT_EQ(report.count(core::ChunkTrainReport::Status::kSeedFallback), 1u);
  if (telemetry::kCompiledIn) {
    EXPECT_GT(telemetry::diag_count("core.train.chunk_failed"), diags_before);
  }
  // The fallback model is the seed snapshot: present and sampling cleanly.
  ASSERT_TRUE(trainer.has_model(2));
  gan::SampleScratch scratch;
  gan::GeneratedSeries out;
  trainer.sample_chunk_into(2, 10, 7, 0, out, scratch);
  EXPECT_EQ(out.attributes.rows(), 10u);
  gan::GeneratedSeries seed_out;
  gan::DoppelGanger seed_copy(tiny_spec(), cfg.dg, cfg.seed + 1000 + 2);
  seed_copy.restore(trainer.seed_snapshot());
  seed_copy.sample_into(10, mix_seed(7, 2), 0, seed_out, scratch);
  EXPECT_TRUE(series_eq(out, seed_out));
}

TEST(ChunkFaults, ReportRendersEveryStatus) {
  core::TrainReport report;
  report.chunks.resize(4);
  report.chunks[0].is_seed = true;
  report.chunks[0].status = core::ChunkTrainReport::Status::kTrained;
  report.chunks[0].attempts = 2;
  report.chunks[0].rollbacks = 1;
  report.chunks[1].status = core::ChunkTrainReport::Status::kEmpty;
  report.chunks[2].status = core::ChunkTrainReport::Status::kResumed;
  report.chunks[3].status = core::ChunkTrainReport::Status::kSeedFallback;
  report.chunks[3].error = "training diverged";
  std::ostringstream out;
  eval::print_train_report(out, report);
  const std::string text = out.str();
  for (const char* needle :
       {"seed", "fine-tune", "trained", "empty", "resumed", "seed-fallback",
        "training diverged", "1 trained, 1 resumed, 1 seed-fallback, 1 empty"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing: " << needle;
  }

  // A real fit + generate fills the per-chunk stage columns: every trained
  // chunk has its train time, every generated chunk its generate time and
  // deficit-loop counts.
  core::NetShare model(tiny_trainer_config(), nullptr);
  model.fit(datagen::make_dataset(datagen::DatasetId::kCaida, 200, 21).packets);
  Rng rng(31);
  const net::PacketTrace trace = model.generate_packets(60, rng);
  ASSERT_GT(trace.size(), 0u);
  std::size_t generated = 0, kept = 0;
  for (const auto& r : model.train_report().chunks) {
    if (r.status == core::ChunkTrainReport::Status::kTrained) {
      EXPECT_GT(r.train_sec, 0.0);
    }
    if (r.generate_series > 0) {
      ++generated;
      EXPECT_GT(r.generate_sec, 0.0);
    }
    EXPECT_GE(r.generate_records, r.generate_kept);
    EXPECT_GE(r.generate_records, r.generate_series);
    kept += r.generate_kept;
  }
  EXPECT_GT(generated, 0u);
  EXPECT_GE(kept, trace.size());
  std::ostringstream fitted;
  eval::print_train_report(fitted, model.train_report());
  for (const char* needle : {"train_s", "gen_s", "decoded/kept"}) {
    EXPECT_NE(fitted.str().find(needle), std::string::npos) << fitted.str();
  }
}

// ---------------------------------------------------------------------------
// Durable checkpoint / resume.
// ---------------------------------------------------------------------------

TEST(CheckpointResume, ResumedRunsAreBitwiseIdenticalAtAnyWorkerCount) {
  const std::string dir = scratch_dir("resume");
  core::NetShareConfig cfg = tiny_trainer_config();
  cfg.checkpoint_dir = dir;
  const auto chunks = tiny_chunks();
  const std::vector<std::size_t> counts{12, 0, 9};

  core::ChunkedTrainer first(tiny_spec(), cfg);
  first.fit(chunks);
  EXPECT_EQ(first.report().count(core::ChunkTrainReport::Status::kTrained),
            2u);
  EXPECT_TRUE(fs::exists(dir + "/chunk_0.ckpt"));
  EXPECT_FALSE(fs::exists(dir + "/chunk_1.ckpt"));  // empty chunk: no model
  EXPECT_TRUE(fs::exists(dir + "/chunk_2.ckpt"));
  std::vector<gan::GeneratedSeries> baseline;
  first.sample_chunks(counts, 424242, baseline, 1);

  // A new trainer finds every checkpoint valid: nothing retrains, and the
  // sampled output matches the uninterrupted run bit for bit at any worker
  // count.
  core::ChunkedTrainer resumed(tiny_spec(), cfg);
  resumed.fit(chunks);
  EXPECT_EQ(resumed.report().count(core::ChunkTrainReport::Status::kResumed),
            2u);
  EXPECT_EQ(resumed.report().count(core::ChunkTrainReport::Status::kTrained),
            0u);
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    std::vector<gan::GeneratedSeries> out;
    resumed.sample_chunks(counts, 424242, out, workers);
    ASSERT_EQ(out.size(), baseline.size());
    for (std::size_t c = 0; c < out.size(); ++c) {
      EXPECT_TRUE(series_eq(out[c], baseline[c]))
          << "chunk " << c << " differs at " << workers << " workers";
    }
  }

  // Kill-between-chunks simulation: chunk 2's checkpoint is gone, the seed's
  // survives. Only chunk 2 retrains, and because it fine-tunes from the
  // bit-identical restored seed with the same model seed, the result is
  // still bitwise identical to the uninterrupted run.
  fs::remove(dir + "/chunk_2.ckpt");
  core::ChunkedTrainer partial(tiny_spec(), cfg);
  partial.fit(chunks);
  EXPECT_EQ(partial.report().chunks[0].status,
            core::ChunkTrainReport::Status::kResumed);
  EXPECT_EQ(partial.report().chunks[2].status,
            core::ChunkTrainReport::Status::kTrained);
  std::vector<gan::GeneratedSeries> out;
  partial.sample_chunks(counts, 424242, out, 4);
  for (std::size_t c = 0; c < out.size(); ++c) {
    EXPECT_TRUE(series_eq(out[c], baseline[c])) << "chunk " << c;
  }
  fs::remove_all(dir);
}

TEST(CheckpointResume, CorruptCheckpointIsRejectedAndRetrained) {
  const std::string dir = scratch_dir("corrupt");
  core::NetShareConfig cfg = tiny_trainer_config();
  cfg.checkpoint_dir = dir;
  const auto chunks = tiny_chunks();

  core::ChunkedTrainer first(tiny_spec(), cfg);
  first.fit(chunks);
  std::vector<gan::GeneratedSeries> baseline;
  first.sample_chunks({12, 0, 9}, 424242, baseline, 1);

  patch_byte(dir + "/chunk_2.ckpt", 23, 0x7f);  // payload byte: CRC mismatch
  const auto diags_before =
      telemetry::diag_count("core.train.checkpoint_invalid");
  core::ChunkedTrainer second(tiny_spec(), cfg);
  second.fit(chunks);
  if (telemetry::kCompiledIn) {
    EXPECT_GT(telemetry::diag_count("core.train.checkpoint_invalid"),
              diags_before);
  }
  EXPECT_EQ(second.report().chunks[0].status,
            core::ChunkTrainReport::Status::kResumed);
  EXPECT_EQ(second.report().chunks[2].status,
            core::ChunkTrainReport::Status::kTrained);
  std::vector<gan::GeneratedSeries> out;
  second.sample_chunks({12, 0, 9}, 424242, out, 4);
  for (std::size_t c = 0; c < out.size(); ++c) {
    EXPECT_TRUE(series_eq(out[c], baseline[c])) << "chunk " << c;
  }
  fs::remove_all(dir);
}

TEST(CheckpointResume, FailedCheckpointWriteNeverFailsTraining) {
  const std::string dir = scratch_dir("failwrite");
  core::NetShareConfig cfg = tiny_trainer_config();
  cfg.checkpoint_dir = dir;
  FaultPlan plan;
  plan.fail_nth_snapshot_write = 1;  // the seed chunk's checkpoint write
  const auto diags_before =
      telemetry::diag_count("core.train.checkpoint_write_failed");
  core::ChunkedTrainer trainer(tiny_spec(), cfg);
  {
    ScopedFaultPlan arm(plan);
    ASSERT_NO_THROW(trainer.fit(tiny_chunks()));
  }
  if (telemetry::kCompiledIn) {
    EXPECT_GT(telemetry::diag_count("core.train.checkpoint_write_failed"),
              diags_before);
  }
  // Training finished; only the failed write's file is missing, so a later
  // resume retrains exactly that chunk.
  EXPECT_EQ(trainer.report().count(core::ChunkTrainReport::Status::kTrained),
            2u);
  EXPECT_FALSE(fs::exists(dir + "/chunk_0.ckpt"));
  EXPECT_TRUE(fs::exists(dir + "/chunk_2.ckpt"));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// API preconditions.
// ---------------------------------------------------------------------------

TEST(Preconditions, GenerateBeforeFitThrowsWithExactMessage) {
  core::NetShareConfig cfg = tiny_trainer_config();
  core::NetShare model(cfg, nullptr);
  Rng rng(60);
  try {
    model.generate_flows(10, rng);
    FAIL() << "generate_flows accepted an unfit model";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "NetShare::generate_flows: fit a flow trace first");
  }
  try {
    model.generate_packets(10, rng);
    FAIL() << "generate_packets accepted an unfit model";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "NetShare::generate_packets: fit a packet trace first");
  }
  try {
    model.train_report();
    FAIL() << "train_report accepted an unfit model";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "NetShare::train_report: fit a trace first");
  }
}

}  // namespace
}  // namespace netshare
