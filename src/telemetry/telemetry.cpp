// Telemetry subsystem implementation (DESIGN.md §8). Only compiled when
// NETSHARE_TELEMETRY=ON; the OFF build links without this TU.
//
// Sharding model: every thread lazily acquires a ThreadState holding its
// counter slots, histogram buckets, and span buffer. Slots are relaxed
// atomics written only by the owning thread (plain load+store, no RMW — a
// shard has exactly one writer) and read by scrapers, so aggregation is
// race-free without any hot-path lock. When a thread exits, its state is
// returned to a free list and the next new thread reuses it (continuing the
// same virtual tid), which caps telemetry memory at the maximum number of
// concurrently live threads instead of growing with every short-lived
// ThreadPool the pipeline spins up.
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#if !defined(NETSHARE_TELEMETRY_ENABLED)
#error "telemetry.cpp must only be compiled with NETSHARE_TELEMETRY_ENABLED"
#endif

namespace netshare::telemetry {

namespace detail {
std::atomic<bool> g_enabled{true};
}  // namespace detail

namespace {

// Fixed capacities: registrations past these return kInvalidMetricId (ops
// become no-ops, counted in registrations_dropped); spans past the buffer
// capacity are dropped and counted. Sized generously for this codebase.
constexpr std::size_t kMaxCounters = 64;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 16;
constexpr std::size_t kMaxBucketEdges = 16;
constexpr std::size_t kSpanCapacity = 4096;

struct TraceEvent {
  const char* name;
  const char* arg_key;  // nullptr when the span carried no Arg
  long long arg_value;
  std::uint64_t t0_ns;
  std::uint64_t t1_ns;
};

struct HistShard {
  std::array<std::atomic<std::uint64_t>, kMaxBucketEdges + 1> counts{};
  std::atomic<double> sum{0.0};
};

struct ThreadState {
  std::uint32_t tid = 0;
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistShard, kMaxHistograms> hists{};
  // Span buffer: single-writer append; count is the publication point
  // (release store after the event words are written, acquire load before a
  // scraper reads them).
  std::atomic<std::uint32_t> span_count{0};
  std::atomic<std::uint64_t> spans_dropped{0};
  std::vector<TraceEvent> span_events;  // sized kSpanCapacity on creation

  ThreadState() { span_events.resize(kSpanCapacity); }
};

struct GaugeSlot {
  std::string name;
  std::atomic<double> value{0.0};
  std::atomic<bool> set{false};
};

struct HistDef {
  std::string name;
  std::vector<double> edges;
};

struct Registry {
  std::mutex mu;  // guards registration tables, state list, diag list
  std::vector<std::unique_ptr<ThreadState>> states;
  std::vector<ThreadState*> free_states;
  std::uint32_t next_tid = 1;

  std::vector<std::string> counter_names;                       // id -> name
  std::array<std::unique_ptr<GaugeSlot>, kMaxGauges> gauges{};  // id -> slot
  std::size_t num_gauges = 0;
  std::array<std::unique_ptr<HistDef>, kMaxHistograms> hists{};  // id -> def
  std::size_t num_hists = 0;
  std::atomic<std::uint64_t> registrations_dropped{0};

  std::vector<DiagSite*> diag_sites;
};

Registry& reg() {
  static Registry* r = new Registry();  // leaked: outlives every TLS dtor
  return *r;
}

ThreadState* acquire_state() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  if (!r.free_states.empty()) {
    ThreadState* s = r.free_states.back();
    r.free_states.pop_back();
    return s;
  }
  r.states.push_back(std::make_unique<ThreadState>());
  r.states.back()->tid = r.next_tid++;
  return r.states.back().get();
}

void release_state(ThreadState* s) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  r.free_states.push_back(s);
}

// TLS handle: acquires lazily on first use, returns the state to the free
// list at thread exit (the registry owns the storage, so recorded spans and
// counts survive the thread).
struct StateHandle {
  ThreadState* s = nullptr;
  ~StateHandle() {
    if (s != nullptr) release_state(s);
  }
};
thread_local StateHandle tl_state;

ThreadState& local_state() {
  if (tl_state.s == nullptr) tl_state.s = acquire_state();
  return *tl_state.s;
}

// Single-writer relaxed bump: the owning thread is the only writer of its
// shard slots, so load+store (no RMW) is race-free and cheapest.
inline void bump(std::atomic<std::uint64_t>& slot, std::uint64_t delta) {
  slot.store(slot.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

const char* severity_label(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
  }
  return "?";
}

// Minimal JSON string escaping for metric/diag names and span labels.
void write_json_escaped(std::FILE* f, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (c < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
}

}  // namespace

namespace detail {

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void span_end(const char* name, Arg arg, std::uint64_t t0_ns) {
  const std::uint64_t t1 = now_ns();
  ThreadState& s = local_state();
  const std::uint32_t n = s.span_count.load(std::memory_order_relaxed);
  if (n >= kSpanCapacity) {
    bump(s.spans_dropped, 1);
    return;
  }
  s.span_events[n] = TraceEvent{name, arg.key, arg.value, t0_ns, t1};
  s.span_count.store(n + 1, std::memory_order_release);
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint32_t register_counter(const char* name) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < r.counter_names.size(); ++i) {
    if (r.counter_names[i] == name) return static_cast<std::uint32_t>(i);
  }
  if (r.counter_names.size() >= kMaxCounters) {
    r.registrations_dropped.fetch_add(1, std::memory_order_relaxed);
    return kInvalidMetricId;
  }
  r.counter_names.emplace_back(name);
  return static_cast<std::uint32_t>(r.counter_names.size() - 1);
}

std::uint32_t register_gauge(const char* name) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < r.num_gauges; ++i) {
    if (r.gauges[i]->name == name) return static_cast<std::uint32_t>(i);
  }
  if (r.num_gauges >= kMaxGauges) {
    r.registrations_dropped.fetch_add(1, std::memory_order_relaxed);
    return kInvalidMetricId;
  }
  r.gauges[r.num_gauges] = std::make_unique<GaugeSlot>();
  r.gauges[r.num_gauges]->name = name;
  return static_cast<std::uint32_t>(r.num_gauges++);
}

std::uint32_t register_histogram(const char* name,
                                 std::initializer_list<double> edges) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < r.num_hists; ++i) {
    if (r.hists[i]->name == name) return static_cast<std::uint32_t>(i);
  }
  if (r.num_hists >= kMaxHistograms || edges.size() == 0 ||
      edges.size() > kMaxBucketEdges) {
    r.registrations_dropped.fetch_add(1, std::memory_order_relaxed);
    return kInvalidMetricId;
  }
  auto def = std::make_unique<HistDef>();
  def->name = name;
  def->edges.assign(edges.begin(), edges.end());
  std::sort(def->edges.begin(), def->edges.end());
  r.hists[r.num_hists] = std::move(def);
  return static_cast<std::uint32_t>(r.num_hists++);
}

void counter_add(std::uint32_t id, std::uint64_t delta) {
  if (!enabled() || id >= kMaxCounters) return;
  bump(local_state().counters[id], delta);
}

void gauge_set(std::uint32_t id, double value) {
  if (!enabled() || id >= kMaxGauges) return;
  // Publication of the slot pointer happens-before any gauge_set with this
  // id: the id came out of register_gauge through a static-local guard.
  GaugeSlot* slot = reg().gauges[id].get();
  slot->value.store(value, std::memory_order_relaxed);
  slot->set.store(true, std::memory_order_relaxed);
}

void histogram_observe(std::uint32_t id, double value) {
  if (!enabled() || id >= kMaxHistograms) return;
  const HistDef& def = *reg().hists[id];
  std::size_t bucket = def.edges.size();  // overflow bucket
  for (std::size_t i = 0; i < def.edges.size(); ++i) {
    if (value <= def.edges[i]) {
      bucket = i;
      break;
    }
  }
  HistShard& shard = local_state().hists[id];
  bump(shard.counts[bucket], 1);
  shard.sum.store(shard.sum.load(std::memory_order_relaxed) + value,
                  std::memory_order_relaxed);
}

DiagSite::DiagSite(const char* id, Severity severity, std::uint32_t print_limit)
    : id_(id), severity_(severity), print_limit_(print_limit) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  r.diag_sites.push_back(this);
}

DiagSite::~DiagSite() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  r.diag_sites.erase(
      std::remove(r.diag_sites.begin(), r.diag_sites.end(), this),
      r.diag_sites.end());
}

void DiagSite::emit(const char* fmt, ...) {
  const std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n > print_limit_) return;  // rate limit: counting continues, printing stops
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  std::fprintf(stderr, "[netshare][%s][%s] %s%s\n", severity_label(severity_),
               id_, buf,
               n == print_limit_
                   ? " (print limit reached; further occurrences are counted "
                     "but not printed)"
                   : "");
}

std::uint64_t diag_count(const char* id) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t total = 0;
  for (const DiagSite* site : r.diag_sites) {
    if (std::strcmp(site->id(), id) == 0) total += site->count();
  }
  return total;
}

MetricsSnapshot snapshot_metrics() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  MetricsSnapshot snap;

  snap.counters.reserve(r.counter_names.size());
  for (std::size_t i = 0; i < r.counter_names.size(); ++i) {
    std::uint64_t total = 0;
    for (const auto& s : r.states) {
      total += s->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.emplace_back(r.counter_names[i], total);
  }

  for (std::size_t i = 0; i < r.num_gauges; ++i) {
    const GaugeSlot& g = *r.gauges[i];
    if (g.set.load(std::memory_order_relaxed)) {
      snap.gauges.emplace_back(g.name, g.value.load(std::memory_order_relaxed));
    }
  }

  for (std::size_t i = 0; i < r.num_hists; ++i) {
    const HistDef& def = *r.hists[i];
    HistogramSnapshot h;
    h.name = def.name;
    h.edges = def.edges;
    h.counts.assign(def.edges.size() + 1, 0);
    for (const auto& s : r.states) {
      const HistShard& shard = s->hists[i];
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        h.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
      }
      h.sum += shard.sum.load(std::memory_order_relaxed);
    }
    for (const std::uint64_t c : h.counts) h.total += c;
    snap.histograms.push_back(std::move(h));
  }

  // Merge diag sites sharing an id (severity from the first registered).
  for (const DiagSite* site : r.diag_sites) {
    bool merged = false;
    for (DiagSnapshot& d : snap.diags) {
      if (d.id == site->id()) {
        d.count += site->count();
        merged = true;
        break;
      }
    }
    if (!merged) {
      snap.diags.push_back(DiagSnapshot{site->id(), site->severity(),
                                        site->count()});
    }
  }

  for (const auto& s : r.states) {
    snap.spans_recorded += s->span_count.load(std::memory_order_acquire);
    snap.spans_dropped += s->spans_dropped.load(std::memory_order_relaxed);
  }
  return snap;
}

std::uint64_t trace_event_count() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t total = 0;
  for (const auto& s : r.states) {
    total += s->span_count.load(std::memory_order_acquire);
  }
  return total;
}

bool write_run_json(const std::string& path, const OverheadInfo& overhead) {
  const MetricsSnapshot snap = snapshot_metrics();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  std::fprintf(f, "{\n  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"displayTimeUnit\": \"ms\",\n");

  // Chrome trace-event array: complete ("X") events, ts/dur in microseconds.
  std::fprintf(f, "  \"traceEvents\": [");
  {
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.mu);
    bool first = true;
    for (const auto& s : r.states) {
      const std::uint32_t n = s->span_count.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < n; ++i) {
        const TraceEvent& e = s->span_events[i];
        std::fprintf(f, "%s\n    {\"name\": \"", first ? "" : ",");
        first = false;
        write_json_escaped(f, e.name);
        std::fprintf(f,
                     "\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                     "\"pid\": 0, \"tid\": %u",
                     static_cast<double>(e.t0_ns) / 1e3,
                     static_cast<double>(e.t1_ns - e.t0_ns) / 1e3, s->tid);
        if (e.arg_key != nullptr) {
          std::fprintf(f, ", \"args\": {\"");
          write_json_escaped(f, e.arg_key);
          std::fprintf(f, "\": %lld}", e.arg_value);
        }
        std::fprintf(f, "}");
      }
    }
  }
  std::fprintf(f, "\n  ],\n");

  std::fprintf(f, "  \"metrics\": {\n    \"counters\": {");
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    std::fprintf(f, "%s\n      \"", i == 0 ? "" : ",");
    write_json_escaped(f, snap.counters[i].first.c_str());
    std::fprintf(f, "\": %llu",
                 static_cast<unsigned long long>(snap.counters[i].second));
  }
  std::fprintf(f, "\n    },\n    \"gauges\": {");
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    std::fprintf(f, "%s\n      \"", i == 0 ? "" : ",");
    write_json_escaped(f, snap.gauges[i].first.c_str());
    std::fprintf(f, "\": %.9g", snap.gauges[i].second);
  }
  std::fprintf(f, "\n    },\n    \"histograms\": {");
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSnapshot& h = snap.histograms[i];
    std::fprintf(f, "%s\n      \"", i == 0 ? "" : ",");
    write_json_escaped(f, h.name.c_str());
    std::fprintf(f, "\": {\"edges\": [");
    for (std::size_t b = 0; b < h.edges.size(); ++b) {
      std::fprintf(f, "%s%.9g", b == 0 ? "" : ", ", h.edges[b]);
    }
    std::fprintf(f, "], \"counts\": [");
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      std::fprintf(f, "%s%llu", b == 0 ? "" : ", ",
                   static_cast<unsigned long long>(h.counts[b]));
    }
    std::fprintf(f, "], \"count\": %llu, \"sum\": %.9g}",
                 static_cast<unsigned long long>(h.total), h.sum);
  }
  std::fprintf(f, "\n    },\n    \"diags\": {");
  for (std::size_t i = 0; i < snap.diags.size(); ++i) {
    std::fprintf(f, "%s\n      \"", i == 0 ? "" : ",");
    write_json_escaped(f, snap.diags[i].id.c_str());
    std::fprintf(f, "\": {\"severity\": \"%s\", \"count\": %llu}",
                 severity_label(snap.diags[i].severity),
                 static_cast<unsigned long long>(snap.diags[i].count));
  }
  std::fprintf(f, "\n    }\n  },\n");

  std::fprintf(f, "  \"spans_recorded\": %llu,\n",
               static_cast<unsigned long long>(snap.spans_recorded));
  std::fprintf(f, "  \"spans_dropped\": %llu",
               static_cast<unsigned long long>(snap.spans_dropped));
  if (overhead.telemetry_on_sec >= 0.0 && overhead.telemetry_off_sec > 0.0) {
    std::fprintf(
        f,
        ",\n  \"overhead\": {\"telemetry_on_sec\": %.6f, "
        "\"telemetry_off_sec\": %.6f, \"frac\": %.6f}",
        overhead.telemetry_on_sec, overhead.telemetry_off_sec, overhead.frac);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return true;
}

void reset_for_testing() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& s : r.states) {
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : s->hists) {
      for (auto& c : h.counts) c.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
    }
    s->span_count.store(0, std::memory_order_relaxed);
    s->spans_dropped.store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < r.num_gauges; ++i) {
    r.gauges[i]->set.store(false, std::memory_order_relaxed);
    r.gauges[i]->value.store(0.0, std::memory_order_relaxed);
  }
  for (DiagSite* site : r.diag_sites) site->reset_count();
}

}  // namespace netshare::telemetry
