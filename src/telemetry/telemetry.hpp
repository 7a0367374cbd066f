// Low-overhead runtime telemetry for the whole NetShare pipeline
// (DESIGN.md §8): a metrics registry (counters / gauges / fixed-bucket
// histograms), scoped trace spans exported as Chrome trace-event JSON
// (loadable in Perfetto), and a rate-limited structured diag channel that
// replaces raw stderr prints.
//
// Overhead contract:
//  - Hot-path metric ops are a relaxed-atomic write into a thread-local
//    shard; shards are aggregated only on scrape. After the first op on a
//    thread (which lazily acquires its shard), counter/gauge/histogram ops
//    and span begin/end perform ZERO heap allocations (asserted in
//    tests/test_telemetry.cpp with a counting operator new).
//  - A runtime kill switch (`set_enabled(false)`) reduces every op to one
//    relaxed atomic load and a branch; spans skip their clock reads.
//  - A compile-time kill switch (CMake -DNETSHARE_TELEMETRY=OFF) compiles
//    every TELEM_* macro to a no-op, turns this header into inline empty
//    stubs, and links the library without the telemetry translation unit.
//
// Determinism contract: telemetry only observes — it never touches an Rng,
// reorders work, or feeds values back into the pipeline, so instrumented
// builds produce bitwise-identical traces to uninstrumented ones
// (tests/test_generate.cpp still passes at every worker count).
//
// Thread-safety of scrape: metric scrapes (snapshot_metrics) are safe at any
// time. Trace export and reset_for_testing read/clear multi-word span
// buffers and must run at a quiescent point (no spans concurrently open on
// other threads) — which is how the benches use them (after pools joined).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#if defined(NETSHARE_TELEMETRY_ENABLED)
#include <atomic>
#endif

namespace netshare::telemetry {

// True when the subsystem is compiled in. Guards for instrumentation-only
// computation (e.g. deriving a loss estimate just to feed a gauge): write
// `if (telemetry::kCompiledIn && telemetry::enabled()) { ... }` and the
// whole block folds away under -DNETSHARE_TELEMETRY=OFF.
#if defined(NETSHARE_TELEMETRY_ENABLED)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

// Id returned when a registration table is full; ops on it are no-ops.
inline constexpr std::uint32_t kInvalidMetricId = 0xffffffffu;

// Optional span annotation: one integer-valued key per span keeps the event
// record POD and the hot path allocation-free. `key` must be a string with
// static storage duration (macro call sites pass literals).
struct Arg {
  const char* key;
  long long value;
};

enum class Severity { kInfo = 0, kWarn = 1, kError = 2 };

// ---------------------------------------------------------------------------
// Scrape results (defined in both modes so benches compile either way).
// ---------------------------------------------------------------------------

struct HistogramSnapshot {
  std::string name;
  std::vector<double> edges;           // ascending upper bucket bounds
  std::vector<std::uint64_t> counts;   // edges.size() + 1 buckets; counts[i]
                                       // = observations in (edge[i-1], edge[i]],
                                       // last bucket = > edges.back()
  std::uint64_t total = 0;
  double sum = 0.0;
};

struct DiagSnapshot {
  std::string id;
  Severity severity = Severity::kInfo;
  std::uint64_t count = 0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;  // only gauges ever set
  std::vector<HistogramSnapshot> histograms;
  std::vector<DiagSnapshot> diags;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;  // ring-buffer overflow, counted not lost
};

// Overhead measurement attached to RUN_telemetry.json by bench/pipeline_e2e:
// the same workload timed with telemetry runtime-enabled and runtime-
// disabled, and the overhead fraction the gate reads (the median of
// alternating ON/OFF pairs). Negative times mean "not measured".
struct OverheadInfo {
  double telemetry_on_sec = -1.0;
  double telemetry_off_sec = -1.0;
  double frac = 0.0;
};

#if defined(NETSHARE_TELEMETRY_ENABLED)

// ---------------------------------------------------------------------------
// Compiled-in API.
// ---------------------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
std::uint64_t now_ns();
void span_end(const char* name, Arg arg, std::uint64_t t0_ns);
}  // namespace detail

// Runtime kill switch; defaults to enabled. Disabling reduces every metric
// op to a relaxed load + branch (the compile-time switch removes even that).
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// Registration dedupes by name (two call sites naming the same metric share
// one id) and returns kInvalidMetricId when the fixed table is full — the
// op functions then no-op, so a full table degrades coverage, never safety.
// For histograms the first registration's bucket edges win.
std::uint32_t register_counter(const char* name);
std::uint32_t register_gauge(const char* name);
std::uint32_t register_histogram(const char* name,
                                 std::initializer_list<double> edges);

void counter_add(std::uint32_t id, std::uint64_t delta);
void gauge_set(std::uint32_t id, double value);
void histogram_observe(std::uint32_t id, double value);

// Scoped trace span: records one Chrome "X" (complete) event into the
// calling thread's fixed-capacity buffer on destruction. Nesting works the
// way Perfetto expects — inner spans have enclosing [begin, end) windows on
// the same tid. Use via TELEM_SPAN.
class Span {
 public:
  explicit Span(const char* name) : Span(name, Arg{nullptr, 0}) {}
  Span(const char* name, Arg arg) {
    if (enabled()) {
      name_ = name;
      arg_ = arg;
      t0_ = detail::now_ns();
      active_ = true;
    }
  }
  ~Span() {
    if (active_) detail::span_end(name_, arg_, t0_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  Arg arg_{nullptr, 0};
  std::uint64_t t0_ = 0;
  bool active_ = false;
};

// One diag call site: severity-tagged, rate-limited stderr line plus an
// always-on occurrence counter (scraped into MetricsSnapshot::diags and
// queryable via diag_count for tests). Deliberately independent of the
// runtime enable switch: diagnostics are control-plane, not data-plane.
// Use via TELEM_DIAG; instances must have static storage duration.
class DiagSite {
 public:
  DiagSite(const char* id, Severity severity, std::uint32_t print_limit = 5);
  ~DiagSite();  // unregisters, so non-static sites (tests) cannot dangle
  DiagSite(const DiagSite&) = delete;
  DiagSite& operator=(const DiagSite&) = delete;
  // printf-style; prints "[netshare][sev][id] msg" to stderr for the first
  // `print_limit` occurrences, then only counts.
  [[gnu::format(printf, 2, 3)]] void emit(const char* fmt, ...);

  const char* id() const { return id_; }
  Severity severity() const { return severity_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void reset_count() { count_.store(0, std::memory_order_relaxed); }

 private:
  const char* id_;
  Severity severity_;
  std::uint32_t print_limit_;
  std::atomic<std::uint64_t> count_{0};
};

// Total occurrences across every DiagSite registered under `id`.
std::uint64_t diag_count(const char* id);

// Aggregates all thread shards + gauges + diag counters. Safe concurrently
// with metric ops (relaxed-atomic slots); cheap enough for periodic scrapes.
MetricsSnapshot snapshot_metrics();

// Number of span events currently recorded across all thread buffers.
std::uint64_t trace_event_count();

// Writes RUN_telemetry.json: a valid Chrome trace-event object
// ({"traceEvents": [...]}, directly loadable in Perfetto) carrying the
// metrics snapshot and overhead numbers as extra top-level metadata keys.
// Returns false if the file cannot be opened. Quiescent-point only.
bool write_run_json(const std::string& path,
                    const OverheadInfo& overhead = OverheadInfo{});

// Zeroes every counter/gauge/histogram shard, span buffer, and diag count
// while keeping registrations (ids held in static locals stay valid).
// Quiescent-point only — tests and benches between phases.
void reset_for_testing();

#else  // !NETSHARE_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// Compiled-out stubs: every entry point is an inline no-op so instrumented
// code compiles unchanged and the optimizer deletes it. No telemetry TU is
// linked in this mode.
// ---------------------------------------------------------------------------

constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}

inline std::uint32_t register_counter(const char*) { return kInvalidMetricId; }
inline std::uint32_t register_gauge(const char*) { return kInvalidMetricId; }
inline std::uint32_t register_histogram(const char*,
                                        std::initializer_list<double>) {
  return kInvalidMetricId;
}
inline void counter_add(std::uint32_t, std::uint64_t) {}
inline void gauge_set(std::uint32_t, double) {}
inline void histogram_observe(std::uint32_t, double) {}

class Span {
 public:
  explicit Span(const char*) {}
  Span(const char*, Arg) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

class DiagSite {
 public:
  constexpr DiagSite(const char*, Severity, std::uint32_t = 5) {}
  DiagSite(const DiagSite&) = delete;
  DiagSite& operator=(const DiagSite&) = delete;
  inline void emit(const char*, ...) {}
};

inline std::uint64_t diag_count(const char*) { return 0; }
inline MetricsSnapshot snapshot_metrics() { return MetricsSnapshot{}; }
inline std::uint64_t trace_event_count() { return 0; }
inline bool write_run_json(const std::string&,
                           const OverheadInfo& = OverheadInfo{}) {
  return false;
}
inline void reset_for_testing() {}

#endif  // NETSHARE_TELEMETRY_ENABLED

}  // namespace netshare::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros — identical in both modes; only the functions and
// classes behind them change. Each metric macro caches its registration in a
// function-local static, so the name lookup happens once per call site.
// ---------------------------------------------------------------------------

#define NETSHARE_TELEM_CONCAT_INNER(a, b) a##b
#define NETSHARE_TELEM_CONCAT(a, b) NETSHARE_TELEM_CONCAT_INNER(a, b)

// Adds `delta` to the named counter.
#define TELEM_COUNT_N(name, delta)                                         \
  do {                                                                     \
    static const std::uint32_t netshare_telem_id =                         \
        ::netshare::telemetry::register_counter(name);                     \
    ::netshare::telemetry::counter_add(                                    \
        netshare_telem_id, static_cast<std::uint64_t>(delta));             \
  } while (0)
#define TELEM_COUNT(name) TELEM_COUNT_N(name, 1)

// Sets the named gauge (last writer wins; one global slot per gauge).
#define TELEM_GAUGE_SET(name, value)                                       \
  do {                                                                     \
    static const std::uint32_t netshare_telem_id =                         \
        ::netshare::telemetry::register_gauge(name);                       \
    ::netshare::telemetry::gauge_set(netshare_telem_id,                    \
                                     static_cast<double>(value));          \
  } while (0)

// Observes `value` in the named fixed-bucket histogram; trailing arguments
// are the ascending bucket edges, e.g. TELEM_HIST("len", n, 1, 2, 4, 8).
#define TELEM_HIST(name, value, ...)                                       \
  do {                                                                     \
    static const std::uint32_t netshare_telem_id =                         \
        ::netshare::telemetry::register_histogram(name, {__VA_ARGS__});    \
    ::netshare::telemetry::histogram_observe(                              \
        netshare_telem_id, static_cast<double>(value));                    \
  } while (0)

// Scoped span covering the rest of the enclosing block:
//   TELEM_SPAN("train.chunk");
//   TELEM_SPAN("train.chunk", {"chunk", static_cast<long long>(c)});
#define TELEM_SPAN(...)                                                    \
  [[maybe_unused]] ::netshare::telemetry::Span NETSHARE_TELEM_CONCAT(      \
      netshare_telem_span_, __COUNTER__)(__VA_ARGS__)

// Structured, rate-limited diagnostic:
//   TELEM_DIAG(::netshare::telemetry::Severity::kWarn, "core.x", "n=%zu", n);
#define TELEM_DIAG(severity, id, ...)                                      \
  do {                                                                     \
    static ::netshare::telemetry::DiagSite netshare_telem_site(id,         \
                                                               severity);  \
    netshare_telem_site.emit(__VA_ARGS__);                                 \
  } while (0)
