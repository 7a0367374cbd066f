// Tests of the parallel zero-allocation generation path (DESIGN.md §7):
// batched sampling must be bitwise identical to per-series sampling, to any
// partition of the series range, and to any worker / kernel-thread count;
// steady-state batched sampling must perform zero Matrix heap allocations;
// and the parallel postprocess passes must match their serial results while
// enforcing the header-validity invariants.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "ml/kernels.hpp"
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
  gan::DoppelGanger& model = tiny_trained_model();
  gan::GeneratedSeries batched, one;
  model.sample_into(24, 99, 0, batched);
  ASSERT_EQ(batched.attributes.rows(), 24u);
  for (std::size_t i = 0; i < 24; ++i) {
    model.sample_into(1, 99, i, one);
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
  gan::GeneratedSeries fast, reference;
  for (std::uint64_t seed : {3u, 99u, 1234u}) {
    model.sample_into(37, seed, 0, fast);
    model.sample_reference_into(37, seed, 0, reference);
    EXPECT_TRUE(series_eq(fast, reference)) << "seed " << seed;
  }
}

TEST(SampleInto, PartitionInvariant) {
  gan::DoppelGanger& model = tiny_trained_model();
  gan::GeneratedSeries whole, head, tail;
  model.sample_into(5, 7, 0, whole);
  model.sample_into(3, 7, 0, head);
  model.sample_into(2, 7, 3, tail);
  for (std::size_t i = 0; i < 5; ++i) {
    const gan::GeneratedSeries& part = i < 3 ? head : tail;
    const std::size_t j = i < 3 ? i : i - 3;
    EXPECT_EQ(part.lengths[j], whole.lengths[i]);
    for (std::size_t c = 0; c < whole.attributes.cols(); ++c) {
      EXPECT_EQ(part.attributes(j, c), whole.attributes(i, c));
    }
  }
}

TEST(SampleInto, KernelThreadCountInvariant) {
  gan::DoppelGanger& model = tiny_trained_model();
  gan::GeneratedSeries serial, parallel;
  {
    ml::kernels::KernelConfig cfg;
    cfg.threads = 1;
    ml::kernels::ConfigOverride guard(cfg);
    model.sample_into(32, 5, 0, serial);
  }
  {
    ml::kernels::KernelConfig cfg;
    cfg.threads = 4;
    cfg.min_parallel_flops = 0;
    ml::kernels::ConfigOverride guard(cfg);
    model.sample_into(32, 5, 0, parallel);
  }
  EXPECT_TRUE(series_eq(serial, parallel));
}

TEST(SampleInto, ZeroSteadyStateAllocations) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ml::kernels::KernelConfig cfg;
    cfg.threads = threads;
    cfg.min_parallel_flops = 0;
    ml::kernels::ConfigOverride guard(cfg);
    gan::DoppelGanger& model = tiny_trained_model();
    gan::GeneratedSeries out;
    model.sample_into(32, 11, 0, out);  // warm-up populates pools
    ml::alloc_counter::reset();
    model.sample_into(32, 11, 0, out);
    model.sample_into(32, 12, 0, out);
    EXPECT_EQ(ml::alloc_counter::count(), 0u)
        << "batched sampling allocated Matrix storage in steady state at "
        << threads << " kernel thread(s)";
  }
}

TEST(SampleInto, ZeroSeriesYieldsEmptyOutput) {
  gan::DoppelGanger& model = tiny_trained_model();
  gan::GeneratedSeries out;
  model.sample_into(0, 1, 0, out);
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
  const std::vector<std::size_t> counts{20, 0, 17};
  std::vector<gan::GeneratedSeries> baseline;
  trainer.sample_chunks(counts, 424242, baseline, 1);
  ASSERT_EQ(baseline.size(), 3u);
  EXPECT_EQ(baseline[0].attributes.rows(), 20u);
  EXPECT_EQ(baseline[1].attributes.rows(), 0u);
  EXPECT_EQ(baseline[2].attributes.rows(), 17u);
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
  gan::GeneratedSeries out;
  trainer.sample_chunk_into(1, 10, 7, 0, out);
  EXPECT_EQ(out.attributes.rows(), 0u);
  EXPECT_EQ(out.lengths.size(), 0u);
}

TEST(SampleChunks, RejectsCountSizeMismatch) {
  core::ChunkedTrainer& trainer = tiny_trainer_with_empty_chunk();
  std::vector<gan::GeneratedSeries> out;
  EXPECT_THROW(trainer.sample_chunks({1, 2}, 7, out), std::invalid_argument);
}

TEST(SampleChunks, ChunkStreamPartitionInvariant) {
  core::ChunkedTrainer& trainer = tiny_trainer_with_empty_chunk();
  gan::GeneratedSeries whole, head, tail;
  trainer.sample_chunk_into(2, 5, 31, 0, whole);
  trainer.sample_chunk_into(2, 3, 31, 0, head);
  trainer.sample_chunk_into(2, 2, 31, 3, tail);
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
