// Benchmark harness for the NetShare library. Runs one named workload
// against the library's public API and writes the raw measurements (per-rep
// timings, per-job serve records, output checks, host fingerprint) as one
// JSON object; perfbench/run.py turns them into metrics. Every layer is
// timed from outside, around calls into its public functions. With
// --trace 1 those calls are recorded as spans in memory and written once at
// the end as a Chrome trace.
//
//   nsbench --workload fit_pcap_caida|fit_flow_ugr16|serve_open --seed N
//           --seconds S --trace 0|1 --workdir DIR --out FILE
//           [--schedule FILE] [--set key=value ...]
//
// Workload parameters arrive as --set pairs (run.py reads them from
// perfbench/workloads.json); serve arrivals arrive as a schedule file that
// run.py generates from the seed.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/netshare.hpp"
#include "core/parallel.hpp"
#include "core/postprocess.hpp"
#include "core/preprocess.hpp"
#include "core/train.hpp"
#include "datagen/presets.hpp"
#include "embed/ip2vec.hpp"
#include "gan/doppelganger.hpp"
#include "metrics/field_metrics.hpp"
#include "ml/kernels.hpp"
#include "ml/workspace.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"

namespace {

using namespace netshare;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - g_epoch)
      .count();
}

void sleep_until_ms(double t_ms) {
  std::this_thread::sleep_until(
      g_epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(t_ms)));
}

// User + system CPU seconds of the whole process (all threads).
double rusage_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Span recorder. Spans live in memory and are written once at exit, so none
// is ever dropped. A span's parent is the innermost open span on the same
// thread unless given explicitly (work fanned out to pool threads).

struct SpanRec {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  long long id = 0;
  long long parent = -1;
  long long tid = 0;
  long long job = -1;
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  long long next_id() { return next_id_.fetch_add(1); }
  static long long thread_lane() {
    static std::atomic<long long> next{1};
    thread_local const long long lane = next.fetch_add(1);
    return lane;
  }
  void add(SpanRec rec) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(rec));
  }
  std::vector<SpanRec> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<long long> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
};

thread_local std::vector<long long> t_open_spans;

class Span {
 public:
  static constexpr long long kInherit = -2;
  explicit Span(const char* name, long long parent = kInherit) {
    Tracer& t = Tracer::get();
    if (t.on()) {
      rec_.name = name;
      rec_.id = t.next_id();
      rec_.parent = parent != kInherit ? parent
                    : t_open_spans.empty() ? -1
                                           : t_open_spans.back();
      rec_.tid = Tracer::thread_lane();
      t_open_spans.push_back(rec_.id);
    }
    rec_.start_ms = now_ms();
  }
  ~Span() {
    if (rec_.id == 0) return;
    rec_.end_ms = now_ms();
    t_open_spans.pop_back();
    Tracer::get().add(std::move(rec_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  long long id() const { return rec_.id; }
  void set_job(long long job) { rec_.job = job; }
  double elapsed_ms() const { return now_ms() - rec_.start_ms; }

 private:
  SpanRec rec_;
};

void write_chrome_trace(const std::string& path) {
  const std::vector<SpanRec> spans = Tracer::get().spans();
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace " + path);
  f << "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"job\":%lld}}%s\n",
                  s.name.c_str(), s.tid, s.start_ms * 1e3,
                  (s.end_ms - s.start_ms) * 1e3, s.id, s.parent, s.job,
                  i + 1 < spans.size() ? "," : "");
    f << buf;
  }
  f << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":"
    << spans.size() << ",\"dropped_spans\":0}}\n";
}

// ---------------------------------------------------------------------------
// Minimal JSON output.

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + value;
    return *this;
  }
  JsonObject& put(const std::string& key, double v) { return raw(key, num(v)); }
  JsonObject& put(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObject& put(const std::string& key, const char* v) {
    return raw(key, quote(v));
  }
  JsonObject& put(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& put(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + num(v[i]);
    return raw(key, s + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Arguments and parameters.

struct Args {
  std::map<std::string, std::string> flags;
  std::map<std::string, std::string> params;

  std::string flag(const std::string& k) const {
    auto it = flags.find(k);
    if (it == flags.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
  std::string flag_or(const std::string& k, const std::string& d) const {
    auto it = flags.find(k);
    return it == flags.end() ? d : it->second;
  }
  double num(const std::string& k) const {
    auto it = params.find(k);
    if (it == params.end()) throw std::invalid_argument("missing param " + k);
    return std::stod(it->second);
  }
  std::size_t count(const std::string& k) const {
    return static_cast<std::size_t>(num(k));
  }
  std::string str(const std::string& k) const {
    auto it = params.find(k);
    if (it == params.end()) throw std::invalid_argument("missing param " + k);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad arg " + key);
    if (key == "--set") {
      const auto eq = val.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("bad --set");
      a.params[val.substr(0, eq)] = val.substr(eq + 1);
    } else {
      a.flags[key.substr(2)] = val;
    }
  }
  return a;
}

datagen::DatasetId preset_id(const std::string& name) {
  if (name == "caida") return datagen::DatasetId::kCaida;
  if (name == "ugr16") return datagen::DatasetId::kUgr16;
  if (name == "cidds") return datagen::DatasetId::kCidds;
  throw std::invalid_argument("unknown preset " + name);
}

std::size_t thread_budget() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// The workload's NetShare configuration: everything not listed here is the
// library default.
core::NetShareConfig make_config(const Args& a) {
  core::NetShareConfig cfg;
  cfg.use_ip2vec_ports = a.num("ip2vec_ports") != 0;
  cfg.max_seq_len = a.count("max_seq_len");
  cfg.seed_iterations = static_cast<int>(a.num("seed_iterations"));
  cfg.finetune_iterations = static_cast<int>(a.num("finetune_iterations"));
  cfg.threads = thread_budget();
  return cfg;
}

std::shared_ptr<embed::Ip2Vec> public_ip2vec(const Args& a,
                                             const core::NetShareConfig& cfg) {
  Span s("embed.ip2vec_train");
  return core::make_public_ip2vec_for(cfg, a.count("ip2vec_seed"),
                                      a.count("ip2vec_records"));
}

// ---------------------------------------------------------------------------
// Output digests (FNV-1a over every field), for byte-identity checks.

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  template <typename T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) h = (h ^ c) * 1099511628211ULL;
  }
  void add(const net::FiveTuple& k) {
    add(k.src_ip.value());
    add(k.dst_ip.value());
    add(k.src_port);
    add(k.dst_port);
    add(static_cast<std::uint8_t>(k.protocol));
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string digest(const net::PacketTrace& t) {
  Fnv f;
  for (const auto& p : t.packets) {
    f.add(p.timestamp);
    f.add(p.key);
    f.add(p.size);
    f.add(p.ttl);
    f.add(p.tcp_flags);
  }
  return hex(f.h);
}

std::string digest(const net::FlowTrace& t) {
  Fnv f;
  for (const auto& r : t.records) {
    f.add(r.key);
    f.add(r.start_time);
    f.add(r.duration);
    f.add(r.packets);
    f.add(r.bytes);
    f.add(r.is_attack);
    f.add(static_cast<std::uint8_t>(r.attack_type));
  }
  return hex(f.h);
}

// Per-trace-kind glue so the fit workloads share one code path.
struct PcapKind {
  using Trace = net::PacketTrace;
  using Encoder = core::PacketEncoder;
  static const Trace& data(const datagen::DatasetBundle& b) {
    return b.packets;
  }
  static Trace generate(core::NetShare& m, std::size_t n, Rng& rng) {
    return m.generate_packets(n, rng);
  }
  static core::RepairStats repair(Trace& t, std::size_t threads) {
    return core::repair_packet_headers(t, threads);
  }
  static double jsd(const Trace& real, const Trace& syn) {
    return metrics::compare_packets(real, syn).mean_jsd();
  }
  static auto& records(Trace& t) { return t.packets; }
};

struct FlowKind {
  using Trace = net::FlowTrace;
  using Encoder = core::FlowEncoder;
  static const Trace& data(const datagen::DatasetBundle& b) { return b.flows; }
  static Trace generate(core::NetShare& m, std::size_t n, Rng& rng) {
    return m.generate_flows(n, rng);
  }
  static core::RepairStats repair(Trace& t, std::size_t threads) {
    return core::repair_flow_fields(t, threads);
  }
  static double jsd(const Trace& real, const Trace& syn) {
    return metrics::compare_flows(real, syn).mean_jsd();
  }
  static auto& records(Trace& t) { return t.records; }
};

// ---------------------------------------------------------------------------
// One untraced fit + generate + postprocess repetition through the facade.

struct FitRep {
  double fit_s = 0.0;
  double fit_cpu_s = 0.0;
  std::vector<double> gen_s;  // one per generate pass
  double records = 0.0;
  double checksum_failures = 0.0;
  double seed_fallbacks = 0.0;
  bool ok = false;
  std::string digest;
  std::string error;
};

// Records the library streams for an n-record request: the per-chunk
// targets summed. core::chunk_record_targets rounds each chunk's share, so
// the sum can differ from n by a few records; the final merge of
// NetShare::generate_* then trims to at most n.
std::size_t streamed_records(const std::vector<core::ChunkInfo>& chunks,
                             std::size_t n) {
  std::size_t sum = 0;
  for (std::size_t t : core::chunk_record_targets(chunks, n)) sum += t;
  return sum;
}

// One fit, then `passes` generate + remap + repair passes with the same
// seed: the short generate phase needs more samples than the fit, and every
// pass must reproduce the first byte for byte.
template <typename K>
FitRep fit_rep(const core::NetShareConfig& cfg,
               const std::shared_ptr<embed::Ip2Vec>& ip2vec,
               const typename K::Trace& real, std::size_t n,
               std::size_t promised, std::uint64_t gen_seed,
               std::size_t passes, typename K::Trace* keep) {
  FitRep r;
  try {
    core::NetShare model(cfg, ip2vec);
    const double cpu0 = rusage_cpu_s();
    const double t0 = now_ms();
    model.fit(real);
    r.fit_s = (now_ms() - t0) / 1e3;
    r.fit_cpu_s = rusage_cpu_s() - cpu0;
    r.seed_fallbacks = static_cast<double>(model.train_report().count(
        core::ChunkTrainReport::Status::kSeedFallback));

    bool repeatable = true;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      const double t1 = now_ms();
      Rng rng(gen_seed);
      typename K::Trace syn = K::generate(model, n, rng);
      syn = core::remap_ips(syn, core::IpRemapConfig{}, cfg.threads);
      const core::RepairStats rs = K::repair(syn, cfg.threads);
      r.gen_s.push_back((now_ms() - t1) / 1e3);
      r.checksum_failures += static_cast<double>(rs.checksum_failures);
      if (pass == 0) {
        r.records = static_cast<double>(syn.size());
        r.digest = digest(syn);
        if (keep) *keep = std::move(syn);
      } else if (digest(syn) != r.digest) {
        repeatable = false;
        r.error = "generate pass differs from the first";
      }
    }
    r.ok = r.seed_fallbacks == 0 && repeatable &&
           static_cast<std::size_t>(r.records) == promised;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

std::string fit_reps_json(const std::vector<FitRep>& reps) {
  std::string s = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const FitRep& r = reps[i];
    JsonObject o;
    o.put("fit_s", r.fit_s).put("fit_cpu_s", r.fit_cpu_s).put("gen_s", r.gen_s);
    o.put("records", r.records).put("checksum_failures", r.checksum_failures);
    o.put("seed_fallbacks", r.seed_fallbacks);
    o.put("ok", r.ok).put("digest", r.digest).put("error", r.error);
    s += (i ? "," : "") + o.str();
  }
  return s + "]";
}

// ---------------------------------------------------------------------------
// Traced cycle: the same fit + generate + postprocess work, composed from the
// layers' public calls (ChunkedTrainer::fit's exact composition, then
// sample_chunks + decode) so each layer gets its own span.

struct Cycle {
  double preprocess_fit_ms = 0.0;
  double encode_s = 0.0;
  double encoded_records = 0.0;
  double seed_s = 0.0;
  double finetune_s = 0.0;
  double retries = 0.0;
  double seed_fallbacks = 0.0;
  double sample_s = 0.0;
  double series = 0.0;
  double decode_s = 0.0;
  double decoded_records = 0.0;
  double remap_s = 0.0;
  double repair_s = 0.0;
  double checksum_failures = 0.0;
  double wall_s = 0.0;
  std::vector<double> seed_snapshot;
  gan::TimeSeriesDataset seed_data;  // carries the encoded spec too
};

template <typename K>
Cycle traced_cycle(const core::NetShareConfig& cfg, const embed::Ip2Vec* ip2vec,
                   const typename K::Trace& real, std::size_t n,
                   std::uint64_t gen_seed) {
  Cycle c;
  const double t_start = now_ms();
  Span cycle("cycle");
  typename K::Encoder enc(cfg, ip2vec);
  std::vector<gan::TimeSeriesDataset> data;
  {
    Span s("core.preprocess.fit");
    enc.fit(real);
    c.preprocess_fit_ms = s.elapsed_ms();
  }
  {
    Span s("core.preprocess.encode");
    data = enc.encode(real);
    c.encode_s = s.elapsed_ms() / 1e3;
  }
  c.encoded_records = static_cast<double>(real.size());

  core::ChunkedTrainer trainer(enc.spec(), cfg);
  const std::size_t budget = std::max<std::size_t>(1, cfg.threads);
  {
    Span s("core.train.seed");
    std::vector<std::size_t> sizes(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      sizes[i] = data[i].num_samples();
    }
    trainer.begin_fit(sizes);
    ml::kernels::KernelConfig kc = cfg.kernels;
    if (kc.threads == 0) kc.threads = budget;
    ml::kernels::ConfigOverride seed_budget(kc);
    trainer.train_seed(data[trainer.seed_chunk()]);
    c.seed_s = s.elapsed_ms() / 1e3;
  }
  {
    Span s("core.train.finetune");
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (i != trainer.seed_chunk() && data[i].num_samples() > 0) {
        todo.push_back(i);
      }
    }
    if (!todo.empty()) {
      const core::PhaseBudget split =
          core::split_phase_budget(budget, todo.size(), cfg.kernels);
      ml::kernels::ConfigOverride ft_budget(split.kernel_cfg);
      const long long parent = s.id();
      core::run_parallel_tasks(split.workers, todo.size(), [&](std::size_t i) {
        Span chunk("core.train.finetune_chunk", parent);
        trainer.train_finetune(todo[i], data[todo[i]]);
      });
    }
    c.finetune_s = s.elapsed_ms() / 1e3;
  }
  for (const auto& ch : trainer.report().chunks) {
    c.retries += std::max(0, ch.attempts - 1);
    if (ch.status == core::ChunkTrainReport::Status::kSeedFallback) {
      c.seed_fallbacks += 1;
    }
  }
  c.seed_snapshot = trainer.seed_snapshot();
  c.seed_data = data[trainer.seed_chunk()];

  typename K::Trace syn;
  {
    Span g("core.generate");
    const auto& chunks = enc.chunks();
    const std::vector<std::size_t> targets =
        core::chunk_record_targets(chunks, n);
    std::vector<std::size_t> counts(chunks.size(), 0);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (!trainer.has_model(i) || chunks[i].real_flows == 0) continue;
      const double rpf = std::clamp(
          static_cast<double>(chunks[i].real_records) /
              static_cast<double>(chunks[i].real_flows),
          1.0, static_cast<double>(cfg.max_seq_len));
      counts[i] = static_cast<std::size_t>(
          std::ceil(static_cast<double>(targets[i]) / rpf));
    }
    std::vector<gan::GeneratedSeries> series;
    {
      Span s("core.generate.sample");
      trainer.sample_chunks(counts, gen_seed, series);
      c.sample_s = s.elapsed_ms() / 1e3;
    }
    for (std::size_t v : counts) c.series += static_cast<double>(v);
    {
      Span s("core.generate.decode");
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        if (counts[i] == 0) continue;
        typename K::Trace part = enc.decode(series[i], i);
        auto& dst = K::records(syn);
        dst.insert(dst.end(), K::records(part).begin(), K::records(part).end());
      }
      syn.sort_by_time();
      c.decode_s = s.elapsed_ms() / 1e3;
    }
    c.decoded_records = static_cast<double>(syn.size());
  }
  {
    Span p("core.postprocess");
    {
      Span s("core.postprocess.remap");
      syn = core::remap_ips(syn, core::IpRemapConfig{}, cfg.threads);
      c.remap_s = s.elapsed_ms() / 1e3;
    }
    {
      Span s("core.postprocess.repair");
      c.checksum_failures =
          static_cast<double>(K::repair(syn, cfg.threads).checksum_failures);
      c.repair_s = s.elapsed_ms() / 1e3;
    }
  }
  c.wall_s = (now_ms() - t_start) / 1e3;
  return c;
}

// Runs fn with span recording paused and records the whole call as one
// opaque span, so the root span's time stays fully accounted for.
template <typename Fn>
double run_untraced(const char* name, Fn&& fn) {
  const long long parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  Tracer::get().set_on(false);
  const double t0 = now_ms();
  fn();
  const double t1 = now_ms();
  Tracer::get().set_on(true);
  SpanRec s;
  s.name = name;
  s.start_ms = t0;
  s.end_ms = t1;
  s.id = Tracer::get().next_id();
  s.parent = parent;
  s.tid = Tracer::thread_lane();
  Tracer::get().add(std::move(s));
  return (t1 - t0) / 1e3;
}

// A warm-up, then alternating untraced / traced cycles; the tracing
// overhead compares the faster of each. Call with tracing on.
template <typename K>
Cycle overhead_cycles(const core::NetShareConfig& cfg,
                      const embed::Ip2Vec* ip2vec,
                      const typename K::Trace& real, std::size_t n,
                      std::uint64_t gen_seed, double* overhead_frac) {
  auto cycle = [&] { return traced_cycle<K>(cfg, ip2vec, real, n, gen_seed); };
  run_untraced("cycle.warmup", cycle);
  double untraced = 1e300, traced = 1e300;
  Cycle c;
  for (int i = 0; i < 2; ++i) {
    untraced = std::min(untraced, run_untraced("cycle.untraced", cycle));
    c = cycle();
    traced = std::min(traced, c.wall_s);
  }
  *overhead_frac = traced / untraced - 1.0;
  return c;
}

std::string cycle_json(const Cycle& c) {
  JsonObject o;
  o.put("preprocess_fit_ms", c.preprocess_fit_ms).put("encode_s", c.encode_s);
  o.put("encoded_records", c.encoded_records).put("seed_s", c.seed_s);
  o.put("finetune_s", c.finetune_s).put("retries", c.retries);
  o.put("seed_fallbacks", c.seed_fallbacks).put("sample_s", c.sample_s);
  o.put("series", c.series).put("decode_s", c.decode_s);
  o.put("decoded_records", c.decoded_records).put("remap_s", c.remap_s);
  o.put("repair_s", c.repair_s).put("checksum_failures", c.checksum_failures);
  o.put("wall_s", c.wall_s);
  return o.str();
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only): each op or layer alone, timed from outside.

// Times fn() repeatedly for at least min_s seconds; returns calls per second.
template <typename Fn>
double calls_per_s(Fn&& fn, double min_s) {
  fn();  // warm-up: pools, autotuner, caches
  std::size_t calls = 0;
  const double t0 = now_ms();
  double el = 0.0;
  do {
    fn();
    ++calls;
    el = (now_ms() - t0) / 1e3;
  } while (el < min_s);
  return static_cast<double>(calls) / el;
}

std::string probes_json(const Cycle& c, const core::NetShareConfig& cfg,
                        const Args& a, std::uint64_t seed) {
  Span probes("probes");
  JsonObject o;
  const double min_s = a.num("probe_seconds");
  Rng rng(seed);
  const gan::DgConfig& dg = cfg.dg;
  const std::size_t B = dg.batch_size;
  const gan::TimeSeriesSpec& spec = c.seed_data.spec;
  const std::size_t A = spec.attribute_dim();
  const std::size_t F = spec.feature_dim() + 2;  // + generation flags
  const std::size_t H = dg.rnn_hidden;
  const std::size_t Din = A + spec.max_len * F;
  const std::size_t D1 = dg.disc_hidden.empty() ? 96 : dg.disc_hidden[0];
  {
    // DoppelGANger training shapes: GRU gate on [z_t | attr], the first
    // discriminator layer forward (matmul_bias), its weight gradient
    // (trans_a_acc) and its input gradient (trans_b); one kernel thread.
    ml::kernels::KernelConfig kc = cfg.kernels;
    kc.threads = 1;
    ml::kernels::ConfigOverride one_thread(kc);
    const std::size_t X = dg.feat_noise_dim + A;
    auto randn = [&](std::size_t r, std::size_t c) {
      return ml::Matrix::randn(r, c, rng);
    };
    const ml::Matrix x = randn(B, X), wx = randn(X, H), h = randn(B, H);
    const ml::Matrix wh = randn(H, H), bh = randn(1, H);
    ml::Matrix scratch, out;
    {
      Span s("ml.kernels.gru_gate");
      const double cps = calls_per_s([&] {
        ml::kernels::gru_gate_into(x, wx, h, wh, bh,
                                   ml::kernels::GateAct::kSigmoid, scratch,
                                   out);
      }, min_s);
      o.put("gru_gate_gflops", cps * 2.0 * B * H * (X + H) / 1e9);
    }
    const ml::Matrix in = randn(B, Din), w = randn(Din, D1), b1 = randn(1, D1);
    const ml::Matrix g = randn(B, D1);
    ml::Matrix y, dx, acc(Din, D1, 0.0);
    const double flops = 2.0 * B * Din * D1;
    {
      Span s("ml.kernels.matmul_bias");
      o.put("matmul_bias_gflops",
            calls_per_s([&] { ml::kernels::matmul_bias_into(in, w, b1, y); },
                        min_s) * flops / 1e9);
    }
    {
      Span s("ml.kernels.trans_a_acc");
      const double cps = calls_per_s(
          [&] { ml::kernels::matmul_trans_a_acc_into(in, g, acc); }, min_s);
      o.put("trans_a_acc_gflops", cps * flops / 1e9);
    }
    {
      Span s("ml.kernels.trans_b");
      o.put("trans_b_gflops",
            calls_per_s([&] { ml::kernels::matmul_trans_b_into(g, w, dx); },
                        min_s) * flops / 1e9);
    }
  }
  // DoppelGanger::fit on the seed chunk at 1 kernel thread and at nproc.
  const int iters = static_cast<int>(a.num("probe_gan_iters"));
  for (std::size_t threads : {std::size_t{1}, thread_budget()}) {
    Span s(threads == 1 ? "gan.fit_1t" : "gan.fit_nt");
    ml::kernels::KernelConfig kc = cfg.kernels;
    kc.threads = threads;
    ml::kernels::ConfigOverride budget(kc);
    gan::DoppelGanger model(spec, dg, seed);
    model.fit(c.seed_data, 1);
    const double t0 = now_ms();
    model.fit(c.seed_data, iters);
    o.put(threads == 1 ? "fit_iters_per_s_1t" : "fit_iters_per_s_nt",
          iters / ((now_ms() - t0) / 1e3));
  }
  // IP2Vec public training and port decode (nearest_batch on kPort).
  core::NetShareConfig ecfg = cfg;
  ecfg.use_ip2vec_ports = true;
  const double t0 = now_ms();
  const auto ip2vec = public_ip2vec(a, ecfg);
  o.put("ip2vec_train_s", (now_ms() - t0) / 1e3);
  {
    Span s("embed.nearest_batch");
    const std::size_t q = 512;
    ml::Matrix queries = ml::Matrix::randn(q, ip2vec->dim(), rng);
    std::vector<embed::Token> out(q);
    ml::Workspace ws;
    const double cps = calls_per_s([&] {
      ip2vec->nearest_batch(queries, embed::TokenKind::kPort, {}, out, ws);
    }, min_s);
    o.put("decode_us_per_query", 1e6 / (cps * q));
  }
  return o.str();
}

// ---------------------------------------------------------------------------
// Host fingerprint.

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

const char* tier_name(ml::kernels::SimdTier t) {
  return t == ml::kernels::SimdTier::kAvx2 ? "avx2" : "scalar";
}

std::string fingerprint_json() {
  JsonObject o;
  o.put("nproc", static_cast<double>(thread_budget()));
  o.put("cpu_model", cpu_model());
  o.put("simd_supported", tier_name(ml::kernels::supported_tier()));
  o.put("simd_active", tier_name(ml::kernels::active_tier()));
  o.put("compiler", NSBENCH_COMPILER);
  o.put("build_type", NSBENCH_BUILD_TYPE);
  o.put("threads", static_cast<double>(thread_budget()));
  return o.str();
}

// ---------------------------------------------------------------------------
// fit_* workloads.

template <typename K>
std::string run_fit(const Args& a, std::uint64_t seed, double seconds,
                    bool trace) {
  const core::NetShareConfig cfg = make_config(a);
  const auto preset = preset_id(a.str("preset"));
  const std::size_t n = a.count("generate_records");
  const std::size_t passes = a.count("generate_passes");
  const std::uint64_t gen_seed = seed;

  // Setup (timed several times): dataset synthesis, public IP2Vec training
  // when ports are embedded, and one warm-up fit + generate.
  std::vector<double> setup_s;
  datagen::DatasetBundle bundle;
  std::shared_ptr<embed::Ip2Vec> ip2vec;
  std::vector<FitRep> warmups;
  std::size_t promised = 0;
  const std::size_t setup_reps = trace ? 1 : a.count("setup_reps");
  for (std::size_t i = 0; i < setup_reps; ++i) {
    const double t0 = now_ms();
    bundle = datagen::make_dataset(preset, a.count("records"),
                                   a.count("dataset_seed"));
    ip2vec = cfg.use_ip2vec_ports ? public_ip2vec(a, cfg) : nullptr;
    typename K::Encoder enc(cfg, ip2vec.get());
    enc.fit(K::data(bundle));
    promised = std::min(n, streamed_records(enc.chunks(), n));
    warmups.push_back(fit_rep<K>(cfg, ip2vec, K::data(bundle), n, promised,
                                 gen_seed, 1, nullptr));
    setup_s.push_back((now_ms() - t0) / 1e3);
  }
  const typename K::Trace& real = K::data(bundle);

  JsonObject o;
  o.put("setup_s", setup_s);
  o.put("promised_records", static_cast<double>(promised));
  o.raw("warmups", fit_reps_json(warmups));
  if (!trace) {
    std::vector<FitRep> reps;
    typename K::Trace first;
    const std::size_t min_reps = a.count("min_reps");
    const double t0 = now_ms();
    while (reps.size() < min_reps || (now_ms() - t0) / 1e3 < seconds) {
      reps.push_back(fit_rep<K>(cfg, ip2vec, real, n, promised, gen_seed,
                                passes, reps.empty() ? &first : nullptr));
    }
    o.raw("reps", fit_reps_json(reps));
    o.put("fidelity_mean_jsd", K::jsd(real, first));
  } else {
    Tracer::get().set_on(true);
    std::string probes;
    Cycle traced;
    double overhead = 0.0;
    {
      Span root("run");
      traced = overhead_cycles<K>(cfg, ip2vec.get(), real, n, gen_seed,
                                  &overhead);
      probes = probes_json(traced, cfg, a, seed);
    }
    Tracer::get().set_on(false);
    // The composed fit must be the facade's fit, weight for weight.
    core::NetShare facade(cfg, ip2vec);
    facade.fit(real);
    o.put("composed_fit_matches_facade",
          facade.snapshot() == traced.seed_snapshot);
    o.put("trace_overhead_frac", overhead);
    o.raw("cycle", cycle_json(traced));
    o.raw("probes", probes);
  }
  o.put("peak_rss_mb", peak_rss_mb());
  return o.str();
}

// ---------------------------------------------------------------------------
// serve_open workload.

struct ScheduledJob {
  double due_ms = 0.0;  // offset from the start of the ladder
  std::size_t step = 0;
  std::string tenant;
  std::string model;
  std::size_t n = 0;
  std::uint64_t seed = 0;
};

std::vector<ScheduledJob> read_schedule(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read schedule " + path);
  std::vector<ScheduledJob> jobs;
  ScheduledJob j;
  while (f >> j.due_ms >> j.step >> j.tenant >> j.model >> j.n >> j.seed) {
    jobs.push_back(j);
  }
  return jobs;
}

struct JobRec {
  double submit_start = -1.0;
  double submit_end = -1.0;
  double first_part = -1.0;
  double done = -1.0;
  int code = 0;  // 0 = completed, else serve::ErrorCode
  std::uint64_t records = 0;
  bool keep_parts = false;
  std::vector<net::FlowTrace> parts;
};

struct ServeModel {
  std::string id;
  datagen::DatasetId preset;
  datagen::DatasetBundle data;
};

// The ladder's length comes from the schedule run.py derived from the run
// length.
std::string run_serve(const Args& a, std::uint64_t seed, bool trace) {
  const core::NetShareConfig base = make_config(a);
  const std::filesystem::path workdir = a.flag("workdir");
  std::vector<ServeModel> models = {{"ugr16", datagen::DatasetId::kUgr16, {}},
                                    {"cidds", datagen::DatasetId::kCidds, {}}};

  // Setup (timed several times): datasets, public IP2Vec, then per model
  // fit with checkpoints, define and publish.
  std::vector<double> setup_s, fit_s, fit_cpu_s, publish_s;
  std::shared_ptr<embed::Ip2Vec> ip2vec;
  std::unique_ptr<serve::ModelRegistry> registry;
  const std::size_t setup_reps = trace ? 1 : a.count("setup_reps");
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    const double t0 = now_ms();
    registry = std::make_unique<serve::ModelRegistry>();
    ip2vec = public_ip2vec(a, base);
    for (std::size_t m = 0; m < models.size(); ++m) {
      ServeModel& sm = models[m];
      sm.data = datagen::make_dataset(sm.preset, a.count("records"),
                                      a.count("dataset_seed") + m);
      const std::filesystem::path dir =
          workdir / ("ckpt_" + sm.id + "_" + std::to_string(rep));
      std::filesystem::remove_all(dir);
      core::NetShareConfig cfg = base;
      cfg.checkpoint_dir = dir.string();
      {
        core::NetShare model(cfg, ip2vec);
        const double cpu0 = rusage_cpu_s();
        const double f0 = now_ms();
        model.fit(sm.data.flows);
        fit_s.push_back((now_ms() - f0) / 1e3);
        fit_cpu_s.push_back(rusage_cpu_s() - cpu0);
        if (model.train_report().count(
                core::ChunkTrainReport::Status::kSeedFallback) != 0) {
          throw std::runtime_error("serve model fell back to the seed model");
        }
      }
      serve::ModelSpec spec;
      spec.config = base;
      spec.reference = sm.data.flows;
      spec.ip2vec = ip2vec;
      registry->define(sm.id, spec);
      const double p0 = now_ms();
      registry->publish(sm.id, dir.string());
      publish_s.push_back((now_ms() - p0) / 1e3);
    }
    setup_s.push_back((now_ms() - t0) / 1e3);
  }

  const std::vector<ScheduledJob> schedule = read_schedule(a.flag("schedule"));
  std::vector<double> step_ends_ms;  // offsets from the ladder start
  {
    std::stringstream ss(a.str("step_ends_ms"));
    for (std::string v; std::getline(ss, v, ',');) {
      step_ends_ms.push_back(std::stod(v));
    }
  }
  const std::size_t steps = step_ends_ms.size();
  serve::ServiceConfig scfg;
  scfg.workers = a.count("workers");
  scfg.queue_capacity = a.count("queue_capacity");
  scfg.tenant_inflight_cap = a.count("tenant_inflight_cap");
  scfg.default_deadline_ms = static_cast<std::uint64_t>(a.num("deadline_ms"));
  const std::size_t keep_every = a.count("check_every");

  std::vector<JobRec> recs(schedule.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    recs[i].keep_parts = i % keep_every == 0;
  }
  std::vector<double> backlog(steps, 0.0);
  serve::ServiceStatsSnapshot stats;
  Tracer::get().set_on(trace);
  std::string probes;
  double ladder_start = 0.0;
  {
    Span root("run");
    {
      serve::Service service(*registry, scfg);
      Span ladder("serve.ladder");
      ladder_start = now_ms() + 20.0;
      std::size_t next_step_end = 0;
      auto note_backlog_until = [&](double t_ms) {
        while (next_step_end < steps &&
               ladder_start + step_ends_ms[next_step_end] <= t_ms) {
          sleep_until_ms(ladder_start + step_ends_ms[next_step_end]);
          const serve::ServiceStatsSnapshot s = service.stats();
          backlog[next_step_end++] =
              static_cast<double>(s.queue_depth + s.running);
        }
      };
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        const ScheduledJob& sj = schedule[i];
        const double due = ladder_start + sj.due_ms;
        note_backlog_until(due);
        sleep_until_ms(due);
        JobRec* rec = &recs[i];
        serve::JobCallbacks cbs;
        cbs.on_chunk = [rec](std::size_t, net::FlowTrace part) {
          if (rec->first_part < 0) rec->first_part = now_ms();
          if (rec->keep_parts) rec->parts.push_back(std::move(part));
        };
        cbs.on_done = [rec](std::uint64_t records, std::uint64_t) {
          rec->done = now_ms();
          rec->records = records;
        };
        cbs.on_error = [rec](serve::ErrorCode code, const std::string&) {
          rec->done = now_ms();
          rec->code = static_cast<int>(code);
        };
        Span admit("serve.submit");
        admit.set_job(static_cast<long long>(i));
        rec->submit_start = now_ms();
        const serve::SubmitResult r = service.submit(
            serve::GenerateJob{sj.model, sj.tenant, sj.n, sj.seed, 0},
            std::move(cbs));
        rec->submit_end = now_ms();
        if (!r.accepted) rec->code = static_cast<int>(r.code);
      }
      note_backlog_until(ladder_start + step_ends_ms.back());
      service.begin_drain();
      service.drain();
      stats = service.stats();
    }
    if (trace) {
      // Per-job spans (due -> done) on one lane per tenant, tagged with the
      // job id, plus the traced cycle and the layer probes.
      for (std::size_t i = 0; i < recs.size(); ++i) {
        if (recs[i].done < 0) continue;
        SpanRec s;
        s.name = "serve.job";
        s.start_ms = ladder_start + schedule[i].due_ms;
        s.end_ms = recs[i].done;
        s.id = Tracer::get().next_id();
        s.tid = 1000 + std::stoll(schedule[i].tenant.substr(1));
        s.job = static_cast<long long>(i);
        Tracer::get().add(s);
      }
      double overhead = 0.0;
      const Cycle c = overhead_cycles<FlowKind>(
          base, ip2vec.get(), models[0].data.flows,
          a.count("cycle_generate_records"), seed, &overhead);
      probes = "{\"trace_overhead_frac\":" + num(overhead) +
               ",\"cycle\":" + cycle_json(c) +
               ",\"probes\":" + probes_json(c, base, a, seed) + "}";
    }
  }
  Tracer::get().set_on(false);

  // Output checks, outside the timed window: sampled jobs must equal the
  // per-job oracle, and completed jobs must carry the promised count.
  std::size_t checked = 0, mismatched = 0, wrong_count = 0, short_of_n = 0;
  std::map<std::pair<std::string, std::size_t>, std::size_t> promised;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const JobRec& r = recs[i];
    const ScheduledJob& sj = schedule[i];
    if (r.code != 0 || r.done < 0) continue;
    auto model = registry->acquire(sj.model);
    auto [it, fresh] = promised.try_emplace({sj.model, sj.n}, 0);
    if (fresh) it->second = streamed_records(model->chunks(), sj.n);
    if (r.records != it->second) ++wrong_count;
    if (r.records != sj.n) ++short_of_n;
    if (!r.keep_parts) continue;
    std::vector<net::FlowTrace> parts = r.parts;
    const net::FlowTrace served = core::merge_flow_chunk_parts(parts, sj.n);
    ++checked;
    if (served.size() != std::min<std::size_t>(sj.n, r.records) ||
        digest(served) != digest(model->generate(sj.n, sj.seed))) {
      ++mismatched;
    }
  }

  // Fidelity of the served models, from the per-job oracle (bitwise equal
  // to served output, checked above).
  double fidelity = 0.0;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const net::FlowTrace syn = registry->acquire(models[m].id)->generate(
        a.count("fidelity_records"), seed + m);
    fidelity += FlowKind::jsd(models[m].data.flows, syn) / models.size();
  }

  std::string jobs = "[";
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const JobRec& r = recs[i];
    const ScheduledJob& sj = schedule[i];
    const double due = ladder_start + sj.due_ms;
    auto rel = [&](double t) {
      return t < 0 ? std::string("null") : num(t - due);
    };
    jobs += (i ? "," : "") + std::string("[") + std::to_string(sj.step) + "," +
            std::to_string(sj.n) + "," + rel(r.submit_start) + "," +
            rel(r.submit_end) + "," + rel(r.first_part) + "," + rel(r.done) +
            "," + std::to_string(r.code) + "," + std::to_string(r.records) +
            "]";
  }
  jobs += "]";

  JsonObject o;
  o.put("setup_s", setup_s).put("fit_s", fit_s).put("fit_cpu_s", fit_cpu_s);
  o.put("publish_s", publish_s);
  o.raw("jobs", jobs);
  o.put("job_columns", std::string("step,n,submit_start,submit_end,first_part,"
                                   "done,code,records (times in ms from due)"));
  o.put("backlog_end", backlog);
  JsonObject st;
  st.put("submitted", static_cast<double>(stats.submitted));
  st.put("completed", static_cast<double>(stats.completed));
  st.put("shed_overloaded", static_cast<double>(stats.shed_overloaded));
  st.put("shed_rate_limited", static_cast<double>(stats.shed_rate_limited));
  st.put("deadline_exceeded", static_cast<double>(stats.deadline_exceeded));
  st.put("errors", static_cast<double>(stats.errors));
  st.put("batches", static_cast<double>(stats.batches));
  st.put("coalesced_jobs", static_cast<double>(stats.coalesced_jobs));
  o.raw("service_stats", st.str());
  o.put("checked_jobs", static_cast<double>(checked));
  o.put("mismatched_jobs", static_cast<double>(mismatched));
  o.put("wrong_count_jobs", static_cast<double>(wrong_count));
  o.put("jobs_short_of_n", static_cast<double>(short_of_n));
  o.put("fidelity_mean_jsd", fidelity);
  if (trace) o.raw("traced", probes);
  o.put("peak_rss_mb", peak_rss_mb());
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const std::string workload = a.flag("workload");
    const std::uint64_t seed = std::stoull(a.flag("seed"));
    const double seconds = std::stod(a.flag("seconds"));
    const bool trace = a.flag_or("trace", "0") == "1";
    std::filesystem::create_directories(a.flag("workdir"));

    std::string body;
    if (workload == "fit_pcap_caida") {
      body = run_fit<PcapKind>(a, seed, seconds, trace);
    } else if (workload == "fit_flow_ugr16") {
      body = run_fit<FlowKind>(a, seed, seconds, trace);
    } else if (workload == "serve_open") {
      body = run_serve(a, seed, trace);
    } else {
      throw std::invalid_argument("unknown workload " + workload);
    }
    if (trace) write_chrome_trace(a.flag("trace-out"));

    JsonObject o;
    o.put("workload", workload).put("seed", static_cast<double>(seed));
    o.raw("fingerprint", fingerprint_json());
    o.raw("result", body);
    std::ofstream f(a.flag("out"));
    f << o.str() << "\n";
    if (!f) throw std::runtime_error("cannot write " + a.flag("out"));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nsbench: %s\n", e.what());
    return 1;
  }
}
