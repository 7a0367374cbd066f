// google-benchmark micro-benchmarks of the performance-critical substrates:
// checksums, sketch updates, matrix multiply, GRU steps, codecs, pcap IO.
#include <benchmark/benchmark.h>

#include <sstream>

#include "common/rng.hpp"
#include "embed/bit_encoding.hpp"
#include "gan/doppelganger.hpp"
#include "ml/gru.hpp"
#include "ml/matrix.hpp"
#include "net/checksum.hpp"
#include "net/ipv4.hpp"
#include "net/pcap_io.hpp"
#include "sketch/count_min.hpp"
#include "sketch/count_sketch.hpp"
#include "sketch/nitrosketch.hpp"
#include "sketch/univmon.hpp"

using namespace netshare;

static void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1500);

static void BM_Ipv4HeaderSerialize(benchmark::State& state) {
  net::Ipv4Header h;
  h.total_length = 1500;
  h.src = net::Ipv4Address(10, 0, 0, 1);
  h.dst = net::Ipv4Address(10, 0, 0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.serialize());
  }
}
BENCHMARK(BM_Ipv4HeaderSerialize);

template <typename SketchT>
static void sketch_update_bench(benchmark::State& state, SketchT& sketch) {
  Rng rng(1);
  std::vector<std::uint64_t> keys(4096);
  for (auto& k : keys) k = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.update(keys[i++ & 4095]);
  }
  state.SetItemsProcessed(state.iterations());
}

static void BM_CountMinUpdate(benchmark::State& state) {
  sketch::CountMinSketch s(4, 1024);
  sketch_update_bench(state, s);
}
BENCHMARK(BM_CountMinUpdate);

static void BM_CountSketchUpdate(benchmark::State& state) {
  sketch::CountSketch s(4, 1024);
  sketch_update_bench(state, s);
}
BENCHMARK(BM_CountSketchUpdate);

static void BM_NitroSketchUpdate(benchmark::State& state) {
  // The point of NitroSketch: sampled updates are cheaper than CS updates.
  sketch::NitroSketch s(4, 1024, 0.1);
  sketch_update_bench(state, s);
}
BENCHMARK(BM_NitroSketchUpdate);

static void BM_UnivMonUpdate(benchmark::State& state) {
  sketch::UnivMon s(6, 4, 256);
  sketch_update_bench(state, s);
}
BENCHMARK(BM_UnivMonUpdate);

static void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const ml::Matrix a = ml::Matrix::randn(n, n, rng);
  const ml::Matrix b = ml::Matrix::randn(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128);

static void BM_GruForward(benchmark::State& state) {
  Rng rng(3);
  ml::Gru gru(8, 24, 48, rng);
  std::vector<ml::Matrix> xs;
  for (int t = 0; t < 8; ++t) xs.push_back(ml::Matrix::randn(64, 8, rng));
  const ml::Matrix cond = ml::Matrix::randn(64, 24, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gru.forward(xs, cond));
  }
}
BENCHMARK(BM_GruForward);

// Generation path: batched sample_into vs the per-series path (batch 1).
// The model is trained once and shared — sampling throughput does not
// depend on convergence.
static gan::DoppelGanger& trained_sampler() {
  static gan::DoppelGanger* model = [] {
    gan::TimeSeriesSpec spec;
    spec.attribute_segments = {{ml::OutputSegment::Kind::kSoftmax, 3},
                               {ml::OutputSegment::Kind::kSigmoid, 1}};
    spec.feature_segments = {{ml::OutputSegment::Kind::kSigmoid, 1}};
    spec.max_len = 8;
    gan::TimeSeriesDataset data;
    data.spec = spec;
    data.attributes = ml::Matrix(64, 4);
    data.features.assign(8, ml::Matrix(64, 1));
    data.lengths.resize(64);
    Rng rng(78);
    for (std::size_t i = 0; i < 64; ++i) {
      const std::size_t cat = rng.categorical({0.5, 0.3, 0.2});
      data.attributes(i, cat) = 1.0;
      data.attributes(i, 3) = rng.uniform(0.2, 0.8);
      data.lengths[i] = 2 * cat + 1;
      for (std::size_t t = 0; t < data.lengths[i]; ++t) {
        data.features[t](i, 0) = rng.uniform(0.1, 0.9);
      }
    }
    auto* m = new gan::DoppelGanger(spec, gan::DgConfig{}, 4321);
    m->fit(data, 2);
    return m;
  }();
  return *model;
}

static void BM_DoppelGangerSample(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  const gan::DoppelGanger& model = trained_sampler();
  constexpr std::size_t kSeries = 64;
  gan::SampleScratch scratch;
  gan::GeneratedSeries out;
  model.sample_into(batched ? kSeries : 1, 7, 0, out, scratch);  // warm-up
  for (auto _ : state) {
    if (batched) {
      model.sample_into(kSeries, 7, 0, out, scratch);
    } else {
      for (std::size_t i = 0; i < kSeries; ++i) {
        model.sample_into(1, 7, i, out, scratch);
      }
    }
    benchmark::DoNotOptimize(out.lengths.data());
  }
  state.SetItemsProcessed(state.iterations() * kSeries);
  state.SetLabel(batched ? "batched" : "per-series");
}
BENCHMARK(BM_DoppelGangerSample)->Arg(0)->Arg(1);

static void BM_IpBitCodec(benchmark::State& state) {
  const net::Ipv4Address ip(192, 168, 10, 20);
  for (auto _ : state) {
    const auto bits = embed::ip_to_bits(ip);
    benchmark::DoNotOptimize(embed::bits_to_ip(bits));
  }
}
BENCHMARK(BM_IpBitCodec);

static void BM_PcapWrite(benchmark::State& state) {
  net::PacketTrace trace;
  Rng rng(4);
  for (int i = 0; i < 256; ++i) {
    net::PacketRecord p;
    p.timestamp = i * 0.001;
    p.key.src_ip = net::Ipv4Address(static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30)));
    p.key.dst_ip = net::Ipv4Address(static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30)));
    p.key.src_port = 1234;
    p.key.dst_port = 80;
    p.size = 1500;
    trace.packets.push_back(p);
  }
  for (auto _ : state) {
    std::ostringstream out;
    net::write_pcap(trace, out);
    benchmark::DoNotOptimize(out.str());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PcapWrite);

BENCHMARK_MAIN();
