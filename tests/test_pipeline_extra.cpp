// Extra integration coverage: file-level IO round trips, the thread pool,
// NetShare's ablation configurations (naive parallel, no flow tags, min-max
// counters), Ip2Vec filtered decode, and postprocess edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/netshare.hpp"
#include "datagen/presets.hpp"
#include "metrics/consistency.hpp"
#include "net/netflow_io.hpp"
#include "net/pcap_io.hpp"

namespace netshare {
namespace {

std::shared_ptr<embed::Ip2Vec> test_ip2vec() {
  static std::shared_ptr<embed::Ip2Vec> model =
      core::make_public_ip2vec(99, 2000, 4);
  return model;
}

core::NetShareConfig quick_config() {
  core::NetShareConfig cfg;
  cfg.max_seq_len = 4;
  cfg.num_chunks = 3;
  cfg.seed_iterations = 25;
  cfg.finetune_iterations = 10;
  cfg.threads = 2;
  cfg.dg.attr_hidden = {24};
  cfg.dg.rnn_hidden = 16;
  cfg.dg.disc_hidden = {32};
  cfg.dg.aux_hidden = {16};
  cfg.dg.batch_size = 24;
  return cfg;
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.parallel_for(64, [&](std::size_t) { counter.fetch_add(1); }, 4);
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ParallelResultsMatchSerial) {
  ThreadPool pool(4);
  std::vector<double> out(100, 0.0);
  pool.parallel_for(
      out.size(), [&](std::size_t i) { out[i] = static_cast<double>(i) * 2.0; },
      5);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], i * 2.0);
  }
}

TEST(Stopwatch, CpuClocksAdvanceUnderWork) {
  const double t0 = thread_cpu_seconds();
  const double p0 = process_cpu_seconds();
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(thread_cpu_seconds(), t0);
  EXPECT_GE(process_cpu_seconds(), p0);
}

TEST(FileIo, PcapFileRoundTrip) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kDc, 300, 1);
  const std::string path = "/tmp/netshare_test_roundtrip.pcap";
  net::write_pcap_file(bundle.packets, path);
  const auto back = net::read_pcap_file(path);
  ASSERT_EQ(back.size(), bundle.packets.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.packets[i].key, bundle.packets.packets[i].key);
  }
  std::remove(path.c_str());
}

TEST(FileIo, NetflowCsvFileRoundTrip) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kTon, 300, 2);
  const std::string path = "/tmp/netshare_test_roundtrip.csv";
  net::write_netflow_csv_file(bundle.flows, path);
  const auto back = net::read_netflow_csv_file(path);
  ASSERT_EQ(back.size(), bundle.flows.size());
  EXPECT_EQ(back.records, bundle.flows.records);
  std::remove(path.c_str());
}

TEST(FileIo, MissingFilesThrow) {
  EXPECT_THROW(net::read_pcap_file("/nonexistent/foo.pcap"),
               std::runtime_error);
  EXPECT_THROW(net::read_netflow_csv_file("/nonexistent/foo.csv"),
               std::runtime_error);
}

TEST(Ip2VecFiltered, NearestIfRespectsPredicate) {
  auto model = test_ip2vec();
  const embed::Token t80{embed::TokenKind::kPort, 80};
  const auto v = model->embed(t80);
  // Excluding port 80 must return some other port.
  const auto other = model->nearest_if(
      v, embed::TokenKind::kPort,
      [](const embed::Token& t) { return t.value != 80; });
  EXPECT_NE(other.value, 80u);
  // Accept-all returns port 80 itself.
  EXPECT_EQ(model->nearest(v, embed::TokenKind::kPort).value, 80u);
}

TEST(Ip2VecFiltered, FallsBackWhenNothingQualifies) {
  auto model = test_ip2vec();
  const auto v = model->embed({embed::TokenKind::kPort, 80});
  const auto tok = model->nearest_if(v, embed::TokenKind::kPort,
                                     [](const embed::Token&) { return false; });
  EXPECT_EQ(tok.kind, embed::TokenKind::kPort);  // fallback, not a throw
}

TEST(NetShareAblations, NaiveParallelTrainsAndGenerates) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCidds, 300, 3);
  core::NetShareConfig cfg = quick_config();
  cfg.naive_parallel = true;
  core::NetShare model(cfg, test_ip2vec());
  model.fit(bundle.flows);
  Rng rng(4);
  EXPECT_EQ(model.generate_flows(150, rng).size(), 150u);
}

TEST(NetShareAblations, NoFlowTagsChangesAttributeWidth) {
  core::NetShareConfig with = quick_config();
  core::NetShareConfig without = quick_config();
  without.use_flow_tags = false;
  core::FlowEncoder enc_with(with, test_ip2vec().get());
  core::FlowEncoder enc_without(without, test_ip2vec().get());
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCidds, 200, 5);
  enc_with.fit(bundle.flows);
  enc_without.fit(bundle.flows);
  EXPECT_EQ(enc_with.spec().attribute_dim(),
            enc_without.spec().attribute_dim() + 1 + with.num_chunks);
}

TEST(NetShareAblations, MinMaxCountersStillRoundTrip) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCidds, 300, 6);
  core::NetShareConfig cfg = quick_config();
  cfg.log_transform = false;
  cfg.use_ip2vec_ports = false;
  core::FlowEncoder enc(cfg, nullptr);
  enc.fit(bundle.flows);
  const auto chunks = enc.encode(bundle.flows);
  std::size_t decoded = 0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    decoded += enc.decode(chunks[c], c).size();
  }
  EXPECT_GT(decoded, bundle.flows.size() * 8 / 10);
}

TEST(NetShareJointDecode, SynthesizedTracesAreTest3Compliant) {
  // The joint (port, protocol) NN decode should give near-perfect Test 3.
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kDc, 600, 7);
  core::NetShareConfig cfg = quick_config();
  cfg.max_seq_len = 5;
  core::NetShare model(cfg, test_ip2vec());
  model.fit(bundle.packets);
  Rng rng(8);
  const auto syn = model.generate_packets(400, rng);
  const auto res = metrics::check_packet_consistency(syn);
  EXPECT_GT(res.test3_port_protocol, 0.99);
  EXPECT_GT(res.test4_min_packet_size, 0.99);
}

TEST(PublicIp2Vec, DeterministicForFixedSeed) {
  auto a = core::make_public_ip2vec(123, 800, 4);
  auto b = core::make_public_ip2vec(123, 800, 4);
  const embed::Token t{embed::TokenKind::kPort, 443};
  ASSERT_TRUE(a->contains(t));
  const auto va = a->embed(t);
  const auto vb = b->embed(t);
  for (std::size_t k = 0; k < va.size(); ++k) {
    EXPECT_DOUBLE_EQ(va[k], vb[k]);
  }
}

}  // namespace
}  // namespace netshare
