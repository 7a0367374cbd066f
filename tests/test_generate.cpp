// Tests of the parallel zero-allocation generation path (DESIGN.md §7):
// batched sampling must be bitwise identical to per-series sampling, to any
// partition of the series range, and to any worker count;
// steady-state batched sampling must perform zero Matrix heap allocations;
// and the parallel postprocess passes must match their serial results while
// enforcing the header-validity invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/netshare.hpp"
#include "core/parallel.hpp"
#include "core/postprocess.hpp"
#include "core/train.hpp"
#include "datagen/presets.hpp"
#include "gan/doppelganger.hpp"
#include "ml/matrix.hpp"

namespace netshare {
namespace {

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
  return dg;
}

gan::DoppelGanger& tiny_trained_model() {
  static gan::DoppelGanger* model = [] {
    auto* m = new gan::DoppelGanger(tiny_spec(), tiny_dg(), 4321);
    m->fit(tiny_data(64, 78), 3);
    return m;
  }();
  return *model;
}

TEST(SampleInto, BatchedEqualsPerSeriesBitwise) {
  const gan::DoppelGanger& model = tiny_trained_model();
  gan::SampleScratch scratch;
  gan::GeneratedSeries batched, one;
  model.sample_into(24, 99, 0, batched, scratch);
  ASSERT_EQ(batched.attributes.rows(), 24u);
  for (std::size_t i = 0; i < 24; ++i) {
    model.sample_into(1, 99, i, one, scratch);
    EXPECT_EQ(one.lengths[0], batched.lengths[i]) << "series " << i;
    for (std::size_t c = 0; c < batched.attributes.cols(); ++c) {
      EXPECT_EQ(one.attributes(0, c), batched.attributes(i, c))
          << "series " << i << " attr " << c;
    }
    for (std::size_t t = 0; t < batched.features.size(); ++t) {
      for (std::size_t c = 0; c < batched.features[t].cols(); ++c) {
        EXPECT_EQ(one.features[t](0, c), batched.features[t](i, c))
            << "series " << i << " step " << t;
      }
    }
  }
}

TEST(SampleInto, AdaptiveMatchesFullUnrollReferenceBitwise) {
  // The length-adaptive fast path must reproduce the training-path full
  // unroll exactly: the reference computes every step for every series and
  // discards those at or past the sampled length, the fast path skips them.
  gan::DoppelGanger& model = tiny_trained_model();
  gan::SampleScratch scratch;
  gan::GeneratedSeries fast, reference;
  for (std::uint64_t seed : {3u, 99u, 1234u}) {
    model.sample_into(37, seed, 0, fast, scratch);
    model.sample_reference_into(37, seed, 0, reference, scratch);
    EXPECT_TRUE(series_eq(fast, reference)) << "seed " << seed;
  }
}

TEST(SampleInto, PartitionInvariant) {
  const gan::DoppelGanger& model = tiny_trained_model();
  gan::SampleScratch scratch;
  gan::GeneratedSeries whole, head, tail;
  model.sample_into(5, 7, 0, whole, scratch);
  model.sample_into(3, 7, 0, head, scratch);
  model.sample_into(2, 7, 3, tail, scratch);
  for (std::size_t i = 0; i < 5; ++i) {
    const gan::GeneratedSeries& part = i < 3 ? head : tail;
    const std::size_t j = i < 3 ? i : i - 3;
    EXPECT_EQ(part.lengths[j], whole.lengths[i]);
    for (std::size_t c = 0; c < whole.attributes.cols(); ++c) {
      EXPECT_EQ(part.attributes(j, c), whole.attributes(i, c));
    }
  }
}

TEST(SampleInto, WarmScratchRepeatsTheSeries) {
  const gan::DoppelGanger& model = tiny_trained_model();
  gan::SampleScratch scratch;
  gan::GeneratedSeries cold, warm;
  model.sample_into(32, 5, 0, cold, scratch);
  model.sample_into(32, 5, 0, warm, scratch);
  EXPECT_TRUE(series_eq(cold, warm));
}

TEST(SampleInto, ZeroSteadyStateAllocations) {
  const gan::DoppelGanger& model = tiny_trained_model();
  // Each scratch warms up on its own; a second, fresh scratch must reach
  // the same steady state.
  for (int k = 0; k < 2; ++k) {
    gan::SampleScratch scratch;
    gan::GeneratedSeries out;
    model.sample_into(32, 11, 0, out, scratch);  // warm-up sizes buffers
    ml::alloc_counter::reset();
    model.sample_into(32, 11, 0, out, scratch);
    model.sample_into(32, 12, 0, out, scratch);
    EXPECT_EQ(ml::alloc_counter::count(), 0u)
        << "batched sampling allocated Matrix storage in steady state, "
        << "scratch " << k;
  }
}

TEST(SampleInto, ConcurrentSlicesOfOneModelMatchOneCall) {
  // The sampler is const over caller-owned scratch: threads sampling
  // disjoint series ranges of one model, each with its own scratch, must
  // reproduce one whole call byte for byte.
  const gan::DoppelGanger& model = tiny_trained_model();
  constexpr std::size_t kThreads = 4, kPer = 23;  // not a batch multiple
  gan::SampleScratch whole_scratch;
  gan::GeneratedSeries whole;
  model.sample_into(kThreads * kPer, 77, 5, whole, whole_scratch);
  gan::GeneratedSeries joined;
  joined.reset(model.spec(), kThreads * kPer);
  std::vector<gan::GeneratedSeries> parts(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      gan::SampleScratch scratch;
      for (int rep = 0; rep < 3; ++rep) {
        model.sample_into(kPer, 77, 5 + k * kPer, parts[k], scratch);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t k = 0; k < kThreads; ++k) joined.put_rows(k * kPer, parts[k]);
  const auto same_bytes = [](const ml::Matrix& a, const ml::Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.rows() * a.cols() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same_bytes(joined.attributes, whole.attributes));
  ASSERT_EQ(joined.features.size(), whole.features.size());
  for (std::size_t t = 0; t < whole.features.size(); ++t) {
    EXPECT_TRUE(same_bytes(joined.features[t], whole.features[t])) << t;
  }
  EXPECT_EQ(joined.lengths, whole.lengths);
}

TEST(SampleInto, ZeroSeriesYieldsEmptyOutput) {
  const gan::DoppelGanger& model = tiny_trained_model();
  gan::SampleScratch scratch;
  gan::GeneratedSeries out;
  model.sample_into(0, 1, 0, out, scratch);
  EXPECT_EQ(out.attributes.rows(), 0u);
  EXPECT_EQ(out.lengths.size(), 0u);
  ASSERT_EQ(out.features.size(), tiny_spec().max_len);
  for (const auto& step : out.features) EXPECT_EQ(step.rows(), 0u);
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

core::ChunkedTrainer& tiny_trainer_with_empty_chunk() {
  static core::ChunkedTrainer* trainer = [] {
    core::NetShareConfig cfg = tiny_config();
    auto* t = new core::ChunkedTrainer(tiny_spec(), cfg);
    // Chunk 1 is empty: its dataset has zero samples and gets no model.
    std::vector<gan::TimeSeriesDataset> chunks{
        tiny_data(40, 78), tiny_data(0, 79), tiny_data(32, 80)};
    t->fit(chunks);
    return t;
  }();
  return *trainer;
}

TEST(SampleChunks, BitwiseEqualAcrossWorkerCounts) {
  core::ChunkedTrainer& trainer = tiny_trainer_with_empty_chunk();
  // Chunk 0 spans three slices (the last one partial), chunk 2 one.
  const std::vector<std::size_t> counts{150, 0, 17};
  ASSERT_GT(counts[0], 2 * trainer.slice_series());
  std::vector<gan::GeneratedSeries> baseline;
  trainer.sample_chunks(counts, 424242, baseline, 1);
  ASSERT_EQ(baseline.size(), 3u);
  EXPECT_EQ(baseline[0].attributes.rows(), 150u);
  EXPECT_EQ(baseline[1].attributes.rows(), 0u);
  EXPECT_EQ(baseline[2].attributes.rows(), 17u);
  {
    // Slicing is invisible: one whole call per chunk gives the same series.
    gan::SampleScratch scratch;
    gan::GeneratedSeries whole;
    trainer.sample_chunk_into(0, 150, 424242, 0, whole, scratch);
    EXPECT_TRUE(series_eq(whole, baseline[0]));
  }
  for (std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    std::vector<gan::GeneratedSeries> out;
    trainer.sample_chunks(counts, 424242, out, workers);
    ASSERT_EQ(out.size(), baseline.size());
    for (std::size_t c = 0; c < out.size(); ++c) {
      EXPECT_TRUE(series_eq(out[c], baseline[c]))
          << "chunk " << c << " differs at " << workers << " workers";
    }
  }
}

TEST(SampleChunks, ChunkWithoutModelYieldsEmptySeries) {
  core::ChunkedTrainer& trainer = tiny_trainer_with_empty_chunk();
  EXPECT_FALSE(trainer.has_model(1));
  gan::SampleScratch scratch;
  gan::GeneratedSeries out;
  trainer.sample_chunk_into(1, 10, 7, 0, out, scratch);
  EXPECT_EQ(out.attributes.rows(), 0u);
  EXPECT_EQ(out.lengths.size(), 0u);
}

// A trained chunk model is swapped for one restored from its own weights,
// so the training scratch does not outlive the fit. The swap must be
// invisible: every chunk samples bitwise as the model it trained (rebuilt
// here outside the trainer), and the trainer's CPU-seconds, DP-step and
// rollback counters are the trained models', not the restored ones' zeros.
TEST(ChunkedTrainer, RetiredChunksSampleAsTrainedAndKeepTheirCounters) {
  for (const bool dp : {false, true}) {
    core::NetShareConfig cfg = tiny_config();
    cfg.dp = dp;
    const std::vector<gan::TimeSeriesDataset> chunks{
        tiny_data(40, 78), tiny_data(0, 79), tiny_data(32, 80)};
    core::ChunkedTrainer trainer(tiny_spec(), cfg);
    trainer.fit(chunks);

    gan::DgConfig dg = cfg.dg;
    dg.dp = cfg.dp;
    dg.dp_config = cfg.dp_config;
    gan::DoppelGanger seed_model(tiny_spec(), dg, cfg.seed + 0);
    seed_model.fit(chunks[0], cfg.seed_iterations);
    gan::DoppelGanger tuned(tiny_spec(), dg, cfg.seed + 1000 + 2);
    tuned.restore(seed_model.snapshot());
    tuned.fit(chunks[2], cfg.finetune_iterations);

    const std::pair<std::size_t, gan::DoppelGanger*> trained[] = {
        {0, &seed_model}, {2, &tuned}};
    const core::TrainReport& report = trainer.report();
    gan::SampleScratch scratch;
    double cpu = 0.0;
    std::size_t steps = 0;
    for (const auto& [c, model] : trained) {
      SCOPED_TRACE("chunk " + std::to_string(c) + (dp ? " dp" : ""));
      gan::GeneratedSeries got, want;
      trainer.sample_chunk_into(c, 70, 99, 5, got, scratch);
      model->sample_into(70, mix_seed(99, c), 5, want, scratch);
      EXPECT_TRUE(series_eq(got, want));
      const core::ChunkTrainReport& r = report.chunks[c];
      EXPECT_EQ(r.status, core::ChunkTrainReport::Status::kTrained);
      EXPECT_GT(r.train_cpu_sec, 0.0);
      EXPECT_EQ(r.dp_steps, model->dp_steps());
      EXPECT_EQ(r.rollbacks, model->health_stats().rollbacks);
      cpu += r.train_cpu_sec;
      steps += r.dp_steps;
    }
    EXPECT_EQ(steps > 0, dp);
    EXPECT_EQ(trainer.total_dp_steps(), steps);
    EXPECT_EQ(trainer.train_cpu_seconds(), cpu);
    EXPECT_EQ(trainer.seed_snapshot(), seed_model.snapshot());
  }
}

TEST(SampleChunks, RejectsCountSizeMismatch) {
  core::ChunkedTrainer& trainer = tiny_trainer_with_empty_chunk();
  std::vector<gan::GeneratedSeries> out;
  EXPECT_THROW(trainer.sample_chunks({1, 2}, 7, out), std::invalid_argument);
}

TEST(SampleChunks, ChunkStreamPartitionInvariant) {
  const core::ChunkedTrainer& trainer = tiny_trainer_with_empty_chunk();
  gan::SampleScratch scratch;
  gan::GeneratedSeries whole, head, tail;
  trainer.sample_chunk_into(2, 5, 31, 0, whole, scratch);
  trainer.sample_chunk_into(2, 3, 31, 0, head, scratch);
  trainer.sample_chunk_into(2, 2, 31, 3, tail, scratch);
  for (std::size_t i = 0; i < 5; ++i) {
    const gan::GeneratedSeries& part = i < 3 ? head : tail;
    const std::size_t j = i < 3 ? i : i - 3;
    EXPECT_EQ(part.lengths[j], whole.lengths[i]);
    for (std::size_t c = 0; c < whole.attributes.cols(); ++c) {
      EXPECT_EQ(part.attributes(j, c), whole.attributes(i, c));
    }
  }
}

TEST(GeneratePackets, RepeatDeterministicWithSameSeed) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCaida, 300, 21);
  core::NetShare model(tiny_config(), nullptr);
  model.fit(bundle.packets);
  Rng rng_a(5), rng_b(5);
  const net::PacketTrace a = model.generate_packets(120, rng_a);
  const net::PacketTrace b = model.generate_packets(120, rng_b);
  EXPECT_EQ(a.size(), 120u);
  EXPECT_EQ(a.packets, b.packets);
}

// The deficit loop: top-up rounds sized by the model's observed yield,
// chunks scheduled largest first. A CAIDA packet model at max_seq_len 16
// trained long enough that its series run shorter than the real 7-17
// records per flow: with one series per missing record in every top-up
// round, it decodes 3.3x the records it keeps.
core::NetShareConfig caida16_config(std::size_t threads) {
  core::NetShareConfig cfg = tiny_config();
  cfg.max_seq_len = 16;
  cfg.seed_iterations = 40;
  cfg.finetune_iterations = 15;
  cfg.threads = threads;
  return cfg;
}

const net::PacketTrace& caida16_trace() {
  static const net::PacketTrace* trace = new net::PacketTrace(
      datagen::make_dataset(datagen::DatasetId::kCaida, 2000, 21).packets);
  return *trace;
}

core::NetShare& caida16_model() {
  static core::NetShare* model = [] {
    auto* m = new core::NetShare(caida16_config(4), nullptr);
    m->fit(caida16_trace());
    return m;
  }();
  return *model;
}

std::size_t promised_packets(std::size_t n) {
  const core::NetShareConfig cfg = caida16_config(4);  // enc keeps &cfg
  core::PacketEncoder enc(cfg, nullptr);
  enc.fit(caida16_trace());
  std::size_t sum = 0;
  for (std::size_t t : core::chunk_record_targets(enc.chunks(), n)) sum += t;
  return std::min(n, sum);
}

TEST(DeficitLoop, DecodesAtMostHalfAgainTheTargets) {
  core::NetShare& model = caida16_model();
  Rng rng(9);
  const net::PacketTrace out = model.generate_packets(3000, rng);
  std::size_t decoded = 0, kept = 0, series = 0;
  for (const auto& r : model.train_report().chunks) {
    decoded += r.generate_records;
    kept += r.generate_kept;
    series += r.generate_series;
  }
  EXPECT_EQ(out.size(), promised_packets(3000));
  EXPECT_GE(kept, out.size());
  EXPECT_GT(series, 0u);
  EXPECT_LE(static_cast<double>(decoded), 1.5 * static_cast<double>(kept))
      << decoded << " records decoded to keep " << kept;
}

TEST(DeficitLoop, TinyRequestsTerminateWithThePromisedCount) {
  core::NetShare& model = caida16_model();
  for (std::size_t n : {std::size_t{1}, std::size_t{7}}) {
    Rng rng(3);
    EXPECT_EQ(model.generate_packets(n, rng).size(), promised_packets(n))
        << "n = " << n;
  }
}

TEST(DeficitLoop, PacketsBitwiseEqualAcrossThreadCounts) {
  Rng rng(17);
  const net::PacketTrace base = caida16_model().generate_packets(2000, rng);
  ASSERT_EQ(base.size(), promised_packets(2000));
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    core::NetShare model(caida16_config(threads), nullptr);
    model.fit(caida16_trace());
    Rng r(17);
    EXPECT_EQ(model.generate_packets(2000, r).packets, base.packets)
        << threads << " threads";
  }
}

TEST(DeficitLoop, FlowsBitwiseEqualAcrossThreadCounts) {
  const net::FlowTrace real =
      datagen::make_dataset(datagen::DatasetId::kUgr16, 600, 23).flows;
  net::FlowTrace base;
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    core::NetShareConfig cfg = tiny_config();
    cfg.num_chunks = 5;
    cfg.threads = threads;
    core::NetShare model(cfg, nullptr);
    model.fit(real);
    Rng rng(29);
    const net::FlowTrace out = model.generate_flows(1500, rng);
    if (threads == 1) {
      EXPECT_GT(out.size(), 1400u);
      base = out;
    } else {
      EXPECT_EQ(out.records, base.records) << threads << " threads";
    }
  }
}

// The deficit loop as it ran before rounds were sliced: each round sampled
// and decoded whole on the calling thread, then the part was ordered and
// trimmed. Kept as the oracle of the sliced loop in core/netshare.cpp.
std::size_t oracle_round_series(std::size_t deficit, double rpf,
                                std::size_t sampled, std::size_t decoded) {
  const auto d = static_cast<double>(deficit);
  if (sampled == 0) {
    return std::max<std::size_t>(8, static_cast<std::size_t>(d / rpf) + 1);
  }
  const double yield =
      static_cast<double>(decoded) / static_cast<double>(sampled);
  const auto want = static_cast<std::size_t>(d / yield * 1.1) + 1;
  return std::max<std::size_t>(8, std::min(want, deficit));
}

double oracle_rpf(const core::ChunkInfo& chunk, std::size_t max_seq_len) {
  const double rpf =
      chunk.real_flows == 0
          ? 1.0
          : std::max(1.0, static_cast<double>(chunk.real_records) /
                              static_cast<double>(chunk.real_flows));
  return std::min(rpf, static_cast<double>(max_seq_len));
}

template <typename TraceT, typename Encoder, typename RecordsOf>
TraceT oracle_part(const Encoder& enc, const core::ChunkedTrainer& trainer,
                   std::size_t max_seq_len, std::size_t c, std::size_t target,
                   std::uint64_t seed, const RecordsOf& records_of) {
  const double rpf = oracle_rpf(enc.chunks()[c], max_seq_len);
  TraceT out;
  gan::SampleScratch scratch;
  gan::GeneratedSeries series;
  std::size_t sampled = 0;
  while (out.size() < target) {
    const std::size_t n =
        oracle_round_series(target - out.size(), rpf, sampled, out.size());
    trainer.sample_chunk_into(c, n, seed, sampled, series, scratch);
    sampled += n;
    const TraceT decoded = enc.decode(series, c);
    records_of(out).insert(records_of(out).end(), records_of(decoded).begin(),
                           records_of(decoded).end());
  }
  out.sort_by_time();
  if (out.size() > target) records_of(out).resize(target);
  return out;
}

// Smallest target whose first deficit-loop round asks for exactly `series`
// series of chunk c (0 if none below the search bound).
std::size_t target_for_round(const core::ChunkInfo& chunk,
                             std::size_t max_seq_len, std::size_t series) {
  const double rpf = oracle_rpf(chunk, max_seq_len);
  for (std::size_t t = 1; t < 100 * series; ++t) {
    if (oracle_round_series(t, rpf, 0, 0) == series) return t;
  }
  return 0;
}

TEST(DeficitLoop, SlicedPartsEqualUnslicedOracle) {
  const net::FlowTrace real =
      datagen::make_dataset(datagen::DatasetId::kUgr16, 600, 23).flows;
  core::NetShareConfig cfg = tiny_config();
  cfg.num_chunks = 2;
  core::FlowEncoder enc(cfg, nullptr);
  enc.fit(real);
  core::ChunkedTrainer trainer(enc.spec(), cfg);
  trainer.fit(enc.encode(real));
  const std::size_t S = trainer.slice_series();
  ASSERT_EQ(S, 4 * cfg.dg.batch_size);
  const auto records = [](auto& trace) -> auto& { return trace.records; };
  const std::uint64_t seed = 4141;
  for (std::size_t c = 0; c < enc.chunks().size(); ++c) {
    ASSERT_TRUE(trainer.has_model(c));
    // First rounds of: less than one slice, exactly 2 slices, 2 slices plus
    // one series, one batch plus one series and three batches less five
    // (rounds a width cuts into slices of under a slice, whose boundaries
    // fall inside sampler batches).
    const std::size_t B = cfg.dg.batch_size;
    for (const std::size_t round :
         {S / 2, 2 * S, 2 * S + 1, B + 1, 3 * B - 5}) {
      const std::size_t target =
          target_for_round(enc.chunks()[c], cfg.max_seq_len, round);
      ASSERT_GT(target, 0u) << "round " << round;
      const net::FlowTrace oracle = oracle_part<net::FlowTrace>(
          enc, trainer, cfg.max_seq_len, c, target, seed, records);
      ASSERT_EQ(oracle.size(), target);
      for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
        net::FlowTrace part;
        core::sample_flow_chunk_part(enc.chunks(), c, target, seed, cfg,
                                     trainer, enc, width, part);
        core::export_flow_chunk_part(target, part);
        EXPECT_EQ(part.records, oracle.records)
            << "chunk " << c << ", round " << round << ", width " << width;
      }
    }
  }

  // Packets through the facade, whose slice width is the phase budget.
  const net::PacketTrace packets =
      datagen::make_dataset(datagen::DatasetId::kCaida, 300, 21).packets;
  core::NetShareConfig pcfg = tiny_config();
  core::PacketEncoder penc(pcfg, nullptr);
  penc.fit(packets);
  core::ChunkedTrainer ptrainer(penc.spec(), pcfg);
  ptrainer.fit(penc.encode(packets));
  // Request sizes whose largest chunk's first round is under one slice,
  // exactly 2 slices, 2 slices plus one series, one batch plus one series
  // and three batches less five.
  const auto& pchunks = penc.chunks();
  std::size_t big = 0;
  for (std::size_t c = 0; c < pchunks.size(); ++c) {
    if (pchunks[c].real_records > pchunks[big].real_records) big = c;
  }
  const double big_rpf = oracle_rpf(pchunks[big], pcfg.max_seq_len);
  std::vector<std::size_t> requests;
  const std::size_t PB = pcfg.dg.batch_size;
  for (const std::size_t round :
       {S / 2, 2 * S, 2 * S + 1, PB + 1, 3 * PB - 5}) {
    for (std::size_t n = 1; n < 200 * S; ++n) {
      const std::size_t t = core::chunk_record_targets(pchunks, n)[big];
      if (oracle_round_series(t, big_rpf, 0, 0) == round) {
        requests.push_back(n);
        break;
      }
    }
  }
  ASSERT_EQ(requests.size(), 5u);
  const auto pkts = [](auto& trace) -> auto& { return trace.packets; };
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    core::NetShareConfig mcfg = pcfg;
    mcfg.threads = threads;
    core::NetShare model(mcfg, nullptr);
    model.fit(packets);
    for (const std::size_t n : requests) {
      Rng rng(n);
      const net::PacketTrace got = model.generate_packets(n, rng);
      const std::uint64_t gen_seed = Rng(n).engine()();
      const std::vector<std::size_t> targets =
          core::chunk_record_targets(pchunks, n);
      net::PacketTrace want;
      for (std::size_t c = 0; c < pchunks.size(); ++c) {
        if (targets[c] == 0 || !ptrainer.has_model(c)) continue;
        const net::PacketTrace part = oracle_part<net::PacketTrace>(
            penc, ptrainer, pcfg.max_seq_len, c, targets[c], gen_seed, pkts);
        want.packets.insert(want.packets.end(), part.packets.begin(),
                            part.packets.end());
      }
      want.sort_by_time();
      if (want.size() > n) want.packets.resize(n);
      EXPECT_EQ(got.packets, want.packets)
          << "n " << n << ", " << threads << " threads";
    }
  }
}

TEST(ParallelPhaseBudget, ClampsToOneInsideWorkerThread) {
  // At top level the budget is capped only by the physical core count.
  const std::size_t cores = std::thread::hardware_concurrency();
  const std::size_t expected = cores == 0 ? 4u : std::min<std::size_t>(4, cores);
  EXPECT_EQ(core::parallel_phase_budget(4), expected);
  ThreadPool pool(2);
  std::vector<std::size_t> got(2, 0);
  pool.parallel_for(2, [&](std::size_t i) {
    got[i] = core::parallel_phase_budget(4);
  });
  EXPECT_EQ(got[0], 1u);
  EXPECT_EQ(got[1], 1u);
}

net::PacketTrace dirty_packets() {
  net::PacketTrace trace;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    net::PacketRecord p;
    p.timestamp = i * 0.01;
    p.key.src_ip = net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 24)));
    p.key.dst_ip = net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 24)));
    p.key.src_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    p.key.dst_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    const int proto = static_cast<int>(rng.uniform_int(0, 2));
    p.key.protocol = proto == 0 ? net::Protocol::kTcp
                     : proto == 1 ? net::Protocol::kUdp
                                  : net::Protocol::kIcmp;
    p.size = static_cast<std::uint32_t>(rng.uniform_int(0, 70000));
    p.ttl = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    trace.packets.push_back(p);
  }
  return trace;
}

TEST(Postprocess, RepairPacketHeadersEnforcesInvariants) {
  net::PacketTrace trace = dirty_packets();
  const core::RepairStats stats = core::repair_packet_headers(trace, 4);
  EXPECT_GT(stats.size_clamped, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
  for (const auto& p : trace.packets) {
    EXPECT_GE(p.size, net::min_packet_size(p.key.protocol));
    EXPECT_LE(p.size, net::kMaxPacketSize);
    EXPECT_GE(p.ttl, 1);
    if (p.key.protocol == net::Protocol::kIcmp) {
      EXPECT_EQ(p.key.src_port, 0);
      EXPECT_EQ(p.key.dst_port, 0);
    }
  }
}

TEST(Postprocess, RepairMatchesSerialAtAnyThreadCount) {
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    net::PacketTrace serial = dirty_packets();
    net::PacketTrace parallel = dirty_packets();
    const core::RepairStats s1 = core::repair_packet_headers(serial, 1);
    const core::RepairStats sn = core::repair_packet_headers(parallel, threads);
    EXPECT_EQ(serial.packets, parallel.packets) << threads << " threads";
    EXPECT_EQ(s1.size_clamped, sn.size_clamped);
    EXPECT_EQ(s1.ttl_fixed, sn.ttl_fixed);
    EXPECT_EQ(s1.ports_zeroed, sn.ports_zeroed);
    EXPECT_EQ(s1.checksum_failures, sn.checksum_failures);
  }
}

TEST(Postprocess, RepairFlowFieldsEnforcesInvariants) {
  net::FlowTrace trace;
  Rng rng(23);
  for (int i = 0; i < 300; ++i) {
    net::FlowRecord r;
    r.start_time = i * 0.1;
    r.duration = rng.uniform(-1.0, 2.0);
    r.packets = static_cast<std::uint64_t>(rng.uniform_int(0, 50));
    r.bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 200));
    r.key.protocol =
        rng.uniform_int(0, 1) == 0 ? net::Protocol::kTcp : net::Protocol::kIcmp;
    r.key.src_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    r.key.dst_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    trace.records.push_back(r);
  }
  net::FlowTrace parallel = trace;
  const core::RepairStats s1 = core::repair_flow_fields(trace, 1);
  const core::RepairStats s4 = core::repair_flow_fields(parallel, 4);
  EXPECT_EQ(trace.records, parallel.records);
  EXPECT_EQ(s1.total_repairs(), s4.total_repairs());
  EXPECT_GT(s1.duration_fixed, 0u);
  for (const auto& r : trace.records) {
    EXPECT_GE(r.packets, 1u);
    EXPECT_GE(r.bytes, r.packets * net::min_packet_size(r.key.protocol));
    EXPECT_GE(r.duration, 0.0);
    if (r.key.protocol == net::Protocol::kIcmp) {
      EXPECT_EQ(r.key.src_port, 0);
      EXPECT_EQ(r.key.dst_port, 0);
    }
  }
}

TEST(Postprocess, RemapAndRetrainThreadInvariant) {
  net::PacketTrace trace = dirty_packets();
  const core::IpRemapConfig remap_cfg;
  const net::PacketTrace m1 = core::remap_ips(trace, remap_cfg, 1);
  const net::PacketTrace m4 = core::remap_ips(trace, remap_cfg, 4);
  EXPECT_EQ(m1.packets, m4.packets);
  const std::map<std::uint16_t, double> dist{{80, 0.7}, {443, 0.3}};
  Rng rng_a(31), rng_b(31);
  const net::PacketTrace p1 = core::retrain_dst_ports(m1, dist, rng_a, 1);
  const net::PacketTrace p4 = core::retrain_dst_ports(m4, dist, rng_b, 4);
  EXPECT_EQ(p1.packets, p4.packets);
}

}  // namespace
}  // namespace netshare
