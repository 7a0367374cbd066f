// Tests for field encodings: bit/byte codecs, transforms, and the scalable
// IP2Vec engine (sharded vocabulary, alias negative sampler, batched
// deterministic training, blocked nearest-neighbour decode).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/netshare.hpp"
#include "core/preprocess.hpp"
#include "datagen/presets.hpp"
#include "embed/alias_sampler.hpp"
#include "embed/bit_encoding.hpp"
#include "embed/ip2vec.hpp"
#include "embed/transforms.hpp"
#include "embed/vocab.hpp"
#include "ml/workspace.hpp"

namespace netshare::embed {
namespace {

TEST(BitEncoding, IpRoundTripExhaustiveOctets) {
  for (std::uint32_t v : {0u, 1u, 0x7f000001u, 0xc0a80101u, 0xffffffffu}) {
    const net::Ipv4Address ip(v);
    EXPECT_EQ(bits_to_ip(ip_to_bits(ip)), ip);
  }
}

TEST(BitEncoding, PortRoundTrip) {
  for (std::uint16_t p : {std::uint16_t{0}, std::uint16_t{1}, std::uint16_t{80},
                          std::uint16_t{1024}, std::uint16_t{65535}}) {
    EXPECT_EQ(bits_to_port(port_to_bits(p)), p);
  }
}

TEST(BitEncoding, SoftBitsDecodeByThreshold) {
  auto bits = port_to_bits(80);
  for (auto& b : bits) b = b > 0.5 ? 0.9 : 0.1;  // GAN-style soft outputs
  EXPECT_EQ(bits_to_port(bits), 80);
}

TEST(BitEncoding, RejectsWrongWidth) {
  std::vector<double> short_vec(5, 0.0);
  EXPECT_THROW(bits_to_ip(short_vec), std::invalid_argument);
  EXPECT_THROW(bits_to_port(short_vec), std::invalid_argument);
}

TEST(ByteEncoding, RoundTrips) {
  const net::Ipv4Address ip(10, 20, 30, 40);
  EXPECT_EQ(bytes_to_ip(ip_to_bytes(ip)), ip);
  EXPECT_EQ(bytes_to_port(port_to_bytes(8080)), 8080);
}

TEST(LogTransform, MapsToUnitIntervalMonotonically) {
  LogTransform t(1e8);
  EXPECT_DOUBLE_EQ(t.encode(0.0), 0.0);
  EXPECT_NEAR(t.encode(1e8), 1.0, 1e-12);
  EXPECT_LT(t.encode(100.0), t.encode(1000.0));
  // Small values occupy a substantial share of the coded range — the whole
  // point of the log transform for large-support fields (Insight 2).
  EXPECT_GT(t.encode(1000.0), 0.3);
}

TEST(LogTransform, RoundTripAccuracy) {
  LogTransform t(1e6);
  for (double x : {0.0, 1.0, 42.0, 9999.0, 1e6}) {
    EXPECT_NEAR(t.decode(t.encode(x)), x, 1e-6 * (1.0 + x));
  }
}

TEST(LogTransform, DecodesClampedInput) {
  LogTransform t(100.0);
  EXPECT_DOUBLE_EQ(t.decode(-0.5), 0.0);
  EXPECT_NEAR(t.decode(1.5), 100.0, 1e-9);
}

TEST(MinMaxTransform, FitAndRoundTrip) {
  const std::vector<double> data{3.0, 7.0, 5.0, 9.0};
  const auto t = MinMaxTransform::fit(data);
  EXPECT_DOUBLE_EQ(t.encode(3.0), 0.0);
  EXPECT_DOUBLE_EQ(t.encode(9.0), 1.0);
  EXPECT_NEAR(t.decode(t.encode(5.0)), 5.0, 1e-12);
}

TEST(MinMaxTransform, DegenerateRangeIsSafe) {
  const std::vector<double> data{4.0, 4.0};
  const auto t = MinMaxTransform::fit(data);
  EXPECT_NO_THROW(t.encode(4.0));
}

TEST(OneHot, RoundTripAndSoftDecode) {
  const auto v = one_hot(2, 5);
  EXPECT_EQ(one_hot_decode(v), 2u);
  const std::vector<double> soft{0.1, 0.2, 0.6, 0.05, 0.05};
  EXPECT_EQ(one_hot_decode(soft), 2u);
  EXPECT_THROW(one_hot(5, 5), std::invalid_argument);
}

class Ip2VecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto pub = datagen::make_dataset(datagen::DatasetId::kCaidaPub, 3000, 21);
    auto sentences = sentences_from_packets(pub.packets);
    Rng rng(22);
    Ip2Vec::Config cfg;
    cfg.dim = 8;
    cfg.epochs = 2;
    model_.train(sentences, cfg, rng);
  }
  Ip2Vec model_;
};

TEST_F(Ip2VecTest, VocabularyCoversCommonServicePorts) {
  for (std::uint32_t port : {53u, 80u, 443u}) {
    EXPECT_TRUE(model_.contains({TokenKind::kPort, port})) << port;
  }
  EXPECT_TRUE(model_.contains(
      {TokenKind::kProtocol, static_cast<std::uint32_t>(net::Protocol::kTcp)}));
}

TEST_F(Ip2VecTest, EmbedNearestRoundTripsInVocabTokens) {
  // The key decode property: the NN of a token's own embedding is the token.
  for (std::uint32_t port : {53u, 80u, 443u}) {
    const Token t{TokenKind::kPort, port};
    const auto v = model_.embed(t);
    EXPECT_EQ(model_.nearest(v, TokenKind::kPort), t);
  }
}

TEST_F(Ip2VecTest, NearestRespectsKind) {
  const Token t{TokenKind::kPort, 80};
  const auto v = model_.embed(t);
  const Token p = model_.nearest(v, TokenKind::kProtocol);
  EXPECT_EQ(p.kind, TokenKind::kProtocol);
}

TEST_F(Ip2VecTest, OovThrows) {
  EXPECT_THROW(model_.embed({TokenKind::kPort, 64999}), std::out_of_range);
}

TEST(Ip2Vec, PortsCooccurringWithSameProtocolClusterTogether) {
  // Two TCP service ports should be closer to each other than a TCP port is
  // to a UDP port, because they share protocol context words.
  net::FlowTrace trace;
  Rng rng(23);
  for (int i = 0; i < 1200; ++i) {
    net::FlowRecord r;
    r.key.src_ip = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i % 17));
    r.key.dst_ip = net::Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(i % 13));
    r.key.src_port = static_cast<std::uint16_t>(1024 + (i * 31) % 1000);
    switch (i % 3) {
      case 0:
        r.key.dst_port = 80;
        r.key.protocol = net::Protocol::kTcp;
        break;
      case 1:
        r.key.dst_port = 443;
        r.key.protocol = net::Protocol::kTcp;
        break;
      default:
        r.key.dst_port = 53;
        r.key.protocol = net::Protocol::kUdp;
        break;
    }
    trace.records.push_back(r);
  }
  Ip2Vec model;
  Ip2Vec::Config cfg;
  cfg.dim = 8;
  cfg.epochs = 6;
  model.train(sentences_from_flows(trace), cfg, rng);

  auto dist = [&](std::uint32_t a, std::uint32_t b) {
    const auto va = model.embed({TokenKind::kPort, a});
    const auto vb = model.embed({TokenKind::kPort, b});
    double d = 0.0;
    for (std::size_t k = 0; k < va.size(); ++k) {
      d += (va[k] - vb[k]) * (va[k] - vb[k]);
    }
    return d;
  };
  EXPECT_LT(dist(80, 443), dist(80, 53));
}

// ---------------------------------------------------------------------------
// TokenHash

TEST(TokenHash, SpreadsStridedIpValues) {
  // Regression for the identity-hash pitfall: libstdc++'s std::hash of an
  // integer is the identity, so IP values sharing low bits (a stride-1024
  // scan here) would all collapse into one power-of-two bucket. The mixed
  // hash must keep the max bucket load near the uniform expectation.
  constexpr std::size_t kBuckets = 1024;
  std::vector<int> load(kBuckets, 0);
  TokenHash h;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    ++load[h(Token{TokenKind::kIp, i * 1024u}) & (kBuckets - 1)];
  }
  // Uniform expectation 4 per bucket; identity hashing would put all 4096
  // into bucket 0.
  EXPECT_LT(*std::max_element(load.begin(), load.end()), 20);
}

TEST(TokenHash, KindParticipatesInHash) {
  TokenHash h;
  EXPECT_NE(h(Token{TokenKind::kIp, 443}), h(Token{TokenKind::kPort, 443}));
}

// ---------------------------------------------------------------------------
// Alias sampler

TEST(AliasSampler, MatchesWeightsApproximately) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 2.0};
  const AliasTable table(weights);
  std::vector<double> freq(weights.size(), 0.0);
  constexpr int kDraws = 200000;
  for (int c = 0; c < kDraws; ++c) {
    freq[table.sample(mix_seed(123, static_cast<std::uint64_t>(c)))] += 1.0;
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / 8.0 * kDraws;
    EXPECT_NEAR(freq[i], expected, 0.05 * expected) << i;
  }
}

TEST(AliasSampler, SampleIsPureInBits) {
  const AliasTable table({0.5, 1.5, 4.0});
  for (std::uint64_t bits : {0ull, 1ull, 0x123456789abcdef0ull, ~0ull}) {
    EXPECT_EQ(table.sample(bits), table.sample(bits));
  }
}

TEST(AliasSampler, DrawNegativeNeverReturnsPositive) {
  // Concentrate nearly all mass on slot 0, then draw with positive == 0:
  // the legacy sampler would silently drop such interactions; the bounded
  // resample must always land elsewhere.
  const AliasTable table({1e9, 1.0, 1.0});
  for (std::uint64_t c = 0; c < 5000; ++c) {
    const std::size_t s = draw_negative(table, 0, 42, c);
    EXPECT_NE(s, 0u);
    EXPECT_EQ(s, draw_negative(table, 0, 42, c));  // counter-deterministic
  }
}

// ---------------------------------------------------------------------------
// Sharded vocabulary

TEST(ShardedVocab, DirectShardsUseFirstOccurrenceOrder) {
  ShardedVocab v;
  v.build({{{TokenKind::kPort, 80}, {TokenKind::kProtocol, 6}},
           {{TokenKind::kPort, 53}, {TokenKind::kPort, 80}}},
          {});
  EXPECT_EQ(v.kind_size(TokenKind::kPort), 2u);
  EXPECT_EQ(v.kind_slot({TokenKind::kPort, 80}), 0u);
  EXPECT_EQ(v.kind_slot({TokenKind::kPort, 53}), 1u);
  EXPECT_EQ(v.kind_slot({TokenKind::kPort, 443}), ShardedVocab::npos);
  EXPECT_EQ(v.token_at(TokenKind::kPort, 1), (Token{TokenKind::kPort, 53}));
  // Global layout is packed in TokenKind order.
  EXPECT_EQ(v.kind_offset(TokenKind::kPort), v.kind_size(TokenKind::kIp));
  EXPECT_EQ(v.size(), 3u);
  // Counts follow slots: port 80 occurred twice.
  EXPECT_EQ(v.slot_counts()[v.lookup({TokenKind::kPort, 80})], 2u);
}

TEST(ShardedVocab, UncappedUnseenIpIsOov) {
  ShardedVocab v;
  v.build({{{TokenKind::kIp, 100}, {TokenKind::kIp, 200}}}, {});
  EXPECT_FALSE(v.ip_capped());
  EXPECT_NE(v.kind_slot({TokenKind::kIp, 100}), ShardedVocab::npos);
  EXPECT_EQ(v.kind_slot({TokenKind::kIp, 999}), ShardedVocab::npos);
}

TEST(ShardedVocab, FrequencyCapFoldsRareIpsIntoTailBuckets) {
  // 64 IPs with strictly decreasing frequency; cap at 8 exact slots.
  std::vector<std::vector<Token>> sentences;
  for (std::uint32_t ip = 0; ip < 64; ++ip) {
    for (std::uint32_t rep = 0; rep < 64 - ip; ++rep) {
      sentences.push_back({{TokenKind::kIp, 1000 + ip}});
    }
  }
  VocabConfig cfg;
  cfg.max_ip_slots = 8;
  cfg.ip_tail_buckets = 16;
  ShardedVocab v;
  v.build(sentences, cfg);
  EXPECT_TRUE(v.ip_capped());
  EXPECT_EQ(v.ip_exact_slots(), 8u);
  EXPECT_LE(v.kind_size(TokenKind::kIp), 8u + 16u);
  EXPECT_GT(v.kind_size(TokenKind::kIp), 8u);
  // The most frequent IPs keep exact slots...
  for (std::uint32_t ip = 0; ip < 8; ++ip) {
    EXPECT_TRUE(v.contains_exact({TokenKind::kIp, 1000 + ip})) << ip;
  }
  // ...rare IPs resolve to shared tail slots (not OOV, not exact).
  for (std::uint32_t ip = 40; ip < 64; ++ip) {
    const Token t{TokenKind::kIp, 1000 + ip};
    EXPECT_FALSE(v.contains_exact(t)) << ip;
    const std::size_t slot = v.kind_slot(t);
    ASSERT_NE(slot, ShardedVocab::npos) << ip;
    EXPECT_GE(slot, v.ip_exact_slots()) << ip;
  }
  // Rebuilding from the same input reproduces the exact layout.
  ShardedVocab w;
  w.build(sentences, cfg);
  ASSERT_EQ(w.size(), v.size());
  for (std::size_t g = 0; g < v.size(); ++g) {
    EXPECT_EQ(w.token_at_global(g), v.token_at_global(g));
  }
}

// ---------------------------------------------------------------------------
// Batched deterministic training

std::vector<std::vector<Token>> small_public_sentences(std::size_t records,
                                                       std::uint64_t seed) {
  const auto pub =
      datagen::make_dataset(datagen::DatasetId::kCaidaPub, records, seed);
  return sentences_from_packets(pub.packets);
}

TEST(Ip2VecTrain, BatchedEngineMatchesReference) {
  const auto sentences = small_public_sentences(600, 11);
  for (std::uint64_t seed : {7ull, 99ull}) {
    Ip2Vec::Config cfg;
    cfg.dim = 6;
    cfg.epochs = 2;
    cfg.batch_interactions = 64;
    Ip2Vec ref;
    {
      Rng rng(seed);
      ref.train_reference(sentences, cfg, rng);
    }
    Ip2Vec m;
    Rng rng(seed);
    m.train(sentences, cfg, rng);
    EXPECT_TRUE(m.bitwise_equal(ref)) << "seed=" << seed;
  }
}

TEST(Ip2VecTrain, IdentityHoldsUnderFrequencyCap) {
  const auto sentences = small_public_sentences(600, 13);
  Ip2Vec::Config cfg;
  cfg.dim = 4;
  cfg.epochs = 1;
  cfg.vocab.max_ip_slots = 32;
  cfg.vocab.ip_tail_buckets = 16;
  Ip2Vec ref;
  {
    Rng rng(3);
    ref.train_reference(sentences, cfg, rng);
  }
  EXPECT_TRUE(ref.vocab().ip_capped());
  Ip2Vec m;
  Rng rng(3);
  m.train(sentences, cfg, rng);
  EXPECT_TRUE(m.bitwise_equal(ref));
}

TEST(Ip2VecTrain, BatchSizeOneIsThePerPairOracle) {
  // batch_interactions == 1 degenerates to classic sequential SGD; the
  // engine and the nested-loop reference must still agree bitwise.
  const auto sentences = small_public_sentences(200, 17);
  Ip2Vec::Config cfg;
  cfg.dim = 4;
  cfg.epochs = 1;
  cfg.batch_interactions = 1;
  Ip2Vec a, b;
  Rng ra(5), rb(5);
  a.train(sentences, cfg, ra);
  b.train_reference(sentences, cfg, rb);
  EXPECT_TRUE(a.bitwise_equal(b));
}

// ---------------------------------------------------------------------------
// Batched nearest-neighbour decode

class NearestBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto sentences = small_public_sentences(1200, 19);
    Rng rng(29);
    Ip2Vec::Config cfg;
    cfg.dim = 6;
    cfg.epochs = 2;
    model_.train(sentences, cfg, rng);
  }

  // Queries spread over the embedding coordinate range.
  ml::Matrix make_queries(std::size_t n, std::uint64_t seed) const {
    ml::Matrix q(n, model_.dim());
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < model_.dim(); ++k) {
        q(i, k) = rng.uniform(-0.8, 0.8);
      }
    }
    return q;
  }

  Ip2Vec model_;
};

TEST_F(NearestBatchTest, MatchesReference) {
  const ml::Matrix q = make_queries(777, 31);
  for (TokenKind kind : {TokenKind::kIp, TokenKind::kPort}) {
    std::vector<Token> ref(q.rows());
    model_.nearest_batch_reference(q, kind, {}, ref);
    ml::Workspace ws;
    std::vector<Token> got(q.rows());
    model_.nearest_batch(q, kind, {}, got, ws);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], ref[i]) << "row=" << i;
    }
  }
}

TEST_F(NearestBatchTest, MatchesTheLinearScanOracle) {
  // Scoring-form equivalence: argmin of ‖e‖² − 2⟨q,e⟩ == argmin of ‖q−e‖²
  // (ties may differ only at exact float equality, which the uniform random
  // queries don't produce).
  const ml::Matrix q = make_queries(64, 37);
  ml::Workspace ws;
  std::vector<Token> got(q.rows());
  model_.nearest_batch(q, TokenKind::kPort, {}, got, ws);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::span<const double> row(q.row_ptr(i), q.cols());
    EXPECT_EQ(got[i], model_.nearest(row, TokenKind::kPort)) << i;
  }
}

TEST_F(NearestBatchTest, MasksRestrictAndFallBack) {
  const ml::Matrix q = make_queries(33, 41);
  const std::size_t nports = model_.vocab().kind_size(TokenKind::kPort);
  // Accept only slot 3 -> every row decodes to that token.
  std::vector<std::uint8_t> only3(nports, 0);
  only3[3] = 1;
  std::vector<const std::uint8_t*> masks(q.rows(), only3.data());
  std::vector<Token> got(q.rows());
  ml::Workspace ws;
  model_.nearest_batch(q, TokenKind::kPort, masks, got, ws);
  const Token expected = model_.vocab().token_at(TokenKind::kPort, 3);
  for (const Token& t : got) EXPECT_EQ(t, expected);
  // All-rejecting mask falls back to the unmasked nearest (nearest_if
  // semantics).
  std::vector<std::uint8_t> none(nports, 0);
  std::fill(masks.begin(), masks.end(), none.data());
  std::vector<Token> fallback(q.rows());
  model_.nearest_batch(q, TokenKind::kPort, masks, fallback, ws);
  std::vector<Token> unmasked(q.rows());
  model_.nearest_batch(q, TokenKind::kPort, {}, unmasked, ws);
  for (std::size_t i = 0; i < fallback.size(); ++i) {
    EXPECT_EQ(fallback[i], unmasked[i]) << i;
  }
}

TEST_F(NearestBatchTest, ZeroSteadyStateAllocationsPerBatch) {
  const ml::Matrix q = make_queries(128, 43);
  ml::Workspace ws;
  std::vector<Token> out(q.rows());
  // Warm the pool, then a steady-state batch must not allocate a single
  // Matrix (the ISSUE's decode gate; also enforced in BENCH_embed.json).
  for (int warm = 0; warm < 2; ++warm) {
    ws.reset();
    model_.nearest_batch(q, TokenKind::kPort, {}, out, ws);
  }
  ml::alloc_counter::reset();
  ws.reset();
  model_.nearest_batch(q, TokenKind::kPort, {}, out, ws);
  EXPECT_EQ(ml::alloc_counter::count(), 0u);
}

TEST(TupleCodecBatch, DecodeBatchMatchesPerRowDecode) {
  core::NetShareConfig cfg;
  const auto ip2vec = core::make_public_ip2vec_for(cfg, 2015, 800);
  core::TupleCodec codec(cfg, ip2vec.get());
  const std::size_t dim = codec.dim(false);
  ml::Matrix attrs(50, dim);
  Rng rng(47);
  for (std::size_t i = 0; i < attrs.rows(); ++i) {
    for (std::size_t k = 0; k < dim; ++k) attrs(i, k) = rng.uniform();
  }
  std::vector<net::FiveTuple> batched(attrs.rows());
  ml::Workspace ws;
  codec.decode_batch(attrs, batched, ws);
  for (std::size_t i = 0; i < attrs.rows(); ++i) {
    EXPECT_EQ(batched[i], codec.decode(attrs.row_ptr(i))) << i;
  }
}

// ---------------------------------------------------------------------------
// Million-token vocabulary support in the data generator

TEST(PresetOverrides, WidenAddressWindowsForLargeIpPools) {
  // Defaults: the legacy 16/18-bit windows (published preset addresses are
  // unchanged bit-for-bit).
  datagen::TraceSimulator legacy(
      datagen::preset_config(datagen::DatasetId::kCidds));
  EXPECT_EQ(legacy.src_address_window(), 1u << 16);
  EXPECT_EQ(legacy.dst_address_window(), 1u << 18);
  // A million-IP override widens each window to the covering power of two,
  // keeping the stride map injective over the pool.
  datagen::PresetOverrides ov;
  ov.num_src_ips = 1'000'000;
  ov.num_dst_ips = 300'000;
  ov.src_zipf_alpha = 0.4;
  const auto cfg = datagen::preset_config(datagen::DatasetId::kCidds, ov);
  EXPECT_EQ(cfg.num_src_ips, 1'000'000u);
  EXPECT_EQ(cfg.src_zipf_alpha, 0.4);
  datagen::TraceSimulator wide(cfg);
  EXPECT_EQ(wide.src_address_window(), 1u << 20);
  EXPECT_EQ(wide.dst_address_window(), 1u << 19);
}

TEST(PresetOverrides, OverriddenPoolYieldsMoreDistinctAddresses) {
  datagen::PresetOverrides ov;
  ov.num_src_ips = 1u << 18;
  ov.src_zipf_alpha = 0.0;  // uniform ranks: maximal distinct addresses
  const auto bundle =
      datagen::make_dataset(datagen::DatasetId::kCidds, 4000, 3, ov);
  std::set<std::uint32_t> src;
  for (const auto& r : bundle.flows.records) src.insert(r.key.src_ip.value());
  // CIDDS defaults to 24 source IPs; the widened pool must blow far past it.
  EXPECT_GT(src.size(), 500u);
}

}  // namespace
}  // namespace netshare::embed
