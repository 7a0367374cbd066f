// Generation-as-a-service scheduler (DESIGN.md §13): a bounded multi-tenant
// job queue in front of the chunk-part sampling toolkit.
//
//  - Admission control at submit(): typed rejections (Draining, Overloaded,
//    ModelNotFound, BadRequest) before a job ever holds resources; a global
//    queue bound plus per-tenant in-flight caps so one tenant cannot occupy
//    the whole queue.
//  - Deficit-round-robin fairness across tenants: each tenant accrues
//    `drr_quantum` records of credit per scheduler visit (lazy refill — only
//    when it cannot afford its head job, so credit stays bounded) and jobs
//    charge their n_flows against it. Record-weighted fair shares, not
//    job-count shares.
//  - Self-scheduling workers: `workers` threads each take the service lock,
//    reap expired queued jobs, form the next batch and run it themselves,
//    so `workers` bounds the batches in flight with no scheduler thread
//    between submit and sampling.
//  - Coalescing: compatible queued jobs (same LoadedModel instance, i.e.
//    same model_id + version + config hash) dispatch as one batch. The
//    batch fans out one task per chunk on the shared executor
//    (ThreadPool::shared(); the batch's worker thread takes part); each task
//    walks the batch's jobs in order, so every chunk model is driven by one
//    thread at a time. A job's parts stream out in ascending chunk order as
//    soon as each part and all lower ones are exported. Batches for the same
//    model serialize (the sampler reuses per-chunk scratch); different
//    models — including the old and new version across a hot-swap — run
//    concurrently, one batch per worker.
//
// Determinism contract: a job's streamed parts are a pure function of
// (published snapshot, model config, job seed) — each part is sampled from
// the job's own counter-based stream — so output is bitwise independent of
// batch composition, tenant mix, worker count, and scheduling order.
// tests/test_serve.cpp locks this by comparing coalesced-concurrent runs
// against a serial one-job-at-a-time oracle.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/model_registry.hpp"
#include "serve/protocol.hpp"
#include "serve/rate_limiter.hpp"

namespace netshare::serve {

struct ServiceConfig {
  // Batches in flight: each worker thread runs one batch at a time and
  // fans its chunks out on the shared executor, taking part itself.
  std::size_t workers = 2;
  std::size_t queue_capacity = 64;  // queued jobs across all tenants
  std::size_t max_coalesce = 4;     // jobs per dispatched batch
  std::size_t tenant_inflight_cap = 8;  // queued + running jobs per tenant
  std::size_t drr_quantum = 1024;   // records of credit per DRR visit
  // Admission cap on a single job's n_flows (kBadRequest above it).
  // n_flows is wire-supplied, so this bounds scheduler credit math and
  // keeps every kChunk reply frame under FrameReader::kMaxFrame; sanitize
  // clamps it to kMaxChunkRecords.
  std::size_t max_flows_per_job = 1u << 20;

  // --- resilience (DESIGN.md §14) ---
  // Deadline applied to jobs that do not carry one on the wire; 0 = none.
  // Expired jobs fail typed (kDeadlineExceeded): queued jobs are reaped at
  // dequeue, running jobs abandon remaining chunk parts between parts.
  std::uint64_t default_deadline_ms = 0;
  // Per-tenant token buckets consulted at admission, ahead of the DRR
  // scheduler (kRateLimited + retry-after hint on shed).
  RateLimitConfig rate_limit;
  // Watchdog: reports a stall when jobs are queued or running but no chunk
  // part has been exported for watchdog_stall_ms (0 disables). Each poll
  // also reaps queued expired jobs itself, so they fail typed even while
  // every worker is stuck in a batch.
  std::uint64_t watchdog_poll_ms = 200;
  std::uint64_t watchdog_stall_ms = 10000;
  // SO_SNDTIMEO on accepted daemon connections: a reply write blocked this
  // long (stuck reader) fails and drops the connection.
  std::uint64_t socket_send_timeout_ms = 30000;
  // Frame-size bound applied to bytes arriving at the daemon (requests are
  // small; replies are bounded separately via kMaxChunkRecords). 0 = the
  // protocol default FrameReader::kMaxFrame.
  std::size_t max_frame_bytes = 0;
};

struct GenerateJob {
  std::string model_id;
  std::string tenant;
  std::size_t n_flows = 0;
  std::uint64_t seed = 0;
  // Relative deadline budget from admission; 0 = use the config default.
  std::uint64_t deadline_ms = 0;
};

// Per-job result delivery, invoked from worker, watchdog and executor
// threads (never under the service lock, never from inside submit()). on_chunk streams one
// non-empty chunk part; one job's on_chunk calls come in ascending chunk
// index and never overlap, though different jobs' calls may run
// concurrently. A part is delivered once it and every lower chunk's part are
// exported; a part that fails or passes the deadline drops the job's higher
// chunks. Then, after all of the job's chunk tasks have finished, exactly one
// of on_done/on_error. A callback that throws is caught: a throwing on_chunk
// fails the job at that chunk, and a throwing on_done/on_error settles the
// job as if it had returned.
struct JobCallbacks {
  std::function<void(std::size_t chunk_index, net::FlowTrace part)> on_chunk;
  std::function<void(std::uint64_t records, std::uint64_t model_version)>
      on_done;
  std::function<void(ErrorCode code, const std::string& message)> on_error;
};

// Synchronous admission verdict: accepted == false carries the typed shed
// reply and the job's callbacks will never fire.
struct SubmitResult {
  bool accepted = false;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  // kRateLimited sheds: how long until the tenant's buckets would admit the
  // job (0 = no hint).
  std::uint32_t retry_after_ms = 0;
};

// Latency histogram bucket upper edges in milliseconds (last bucket is
// overflow). Shared by the stats surface and bench percentile estimation.
inline constexpr double kLatencyEdgesMs[] = {1,   2,   5,    10,   20,  50,
                                             100, 200, 500,  1000, 2000, 5000};
inline constexpr std::size_t kLatencyBuckets =
    sizeof(kLatencyEdgesMs) / sizeof(double) + 1;

struct TenantStatsSnapshot {
  std::string tenant;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t records = 0;  // records streamed to completed jobs
  std::vector<std::uint64_t> latency_hist;  // kLatencyBuckets counts
  double latency_sum_ms = 0.0;
  std::uint64_t latency_count = 0;
};

struct ServiceStatsSnapshot {
  bool draining = false;
  std::size_t queue_depth = 0;   // queued, not yet dispatched
  std::size_t running = 0;       // dispatched (or expiring), not settled
  std::size_t models_loaded = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed_overloaded = 0;
  std::uint64_t shed_draining = 0;
  std::uint64_t shed_rate_limited = 0;  // kRateLimited admission sheds
  std::uint64_t rejected_other = 0;  // ModelNotFound / BadRequest
  std::uint64_t errors = 0;          // jobs that failed in execution
  std::uint64_t deadline_exceeded = 0;  // accepted jobs whose deadline passed
  std::uint64_t batches = 0;
  std::uint64_t coalesced_jobs = 0;  // jobs that shared a batch with others
  // health (watchdog view; see ServiceConfig::watchdog_stall_ms)
  std::uint64_t watchdog_stalls = 0;   // distinct stall episodes reported
  std::uint64_t progress_age_ms = 0;   // time since last progress while busy
  bool stalled = false;                // currently inside a stall episode
  std::vector<TenantStatsSnapshot> tenants;
};

// Histogram-based percentile estimate (upper edge of the bucket holding the
// q-quantile observation; overflow bucket reports the last edge). Used by
// the stats JSON and bench/service_bench.
double latency_percentile_ms(const std::vector<std::uint64_t>& hist, double q);

// Renders a snapshot as a single JSON object (the kStatsReply payload).
std::string to_json(const ServiceStatsSnapshot& stats);

class Service {
 public:
  Service(ModelRegistry& registry, ServiceConfig config);
  // Drains (completes every accepted job) and joins all threads.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Admission control. On acceptance the job owns a model handle (resolved
  // NOW — a later hot-swap does not retarget it) and its callbacks will fire
  // exactly once with done or error. On rejection nothing fires.
  SubmitResult submit(GenerateJob job, JobCallbacks callbacks);

  // Stops admitting (new submits shed with kDraining); queued and running
  // jobs still complete.
  void begin_drain();
  bool draining() const;

  // Blocks until every accepted job has completed (combine with
  // begin_drain() for shutdown; without it, new submits keep extending the
  // wait).
  void drain();

  ServiceStatsSnapshot stats() const;

  // Socket-layer knobs live in ServiceConfig so one struct configures the
  // whole daemon; SocketServer reads them through here.
  const ServiceConfig& config() const { return config_; }

 private:
  struct Pending {
    GenerateJob job;
    JobCallbacks callbacks;
    std::shared_ptr<LoadedModel> model;
    std::uint64_t submitted_at_ms = 0;  // injected monotonic clock
    std::uint64_t deadline_at_ms = 0;   // absolute; 0 = no deadline
  };
  using PendingPtr = std::unique_ptr<Pending>;

  struct Tenant {
    std::deque<PendingPtr> queue;
    std::int64_t deficit = 0;   // DRR credit in records; may go negative
                                // when coalescing borrows ahead
    std::size_t inflight = 0;   // queued + running
    // stats
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t records = 0;
    std::vector<std::uint64_t> latency_hist =
        std::vector<std::uint64_t>(kLatencyBuckets, 0);
    double latency_sum_ms = 0.0;
    std::uint64_t latency_count = 0;
  };

  // One batch thread: reaps, forms a batch, runs it, and loops until stop.
  void worker_loop();
  void watchdog_loop();
  // Deadline enforcement for queued jobs: removes every one whose deadline
  // has passed and settles it typed kDeadlineExceeded. Called with `lock`
  // held on mu_; drops it around the on_error callbacks. True when any job
  // was reaped.
  bool settle_expired(std::unique_lock<std::mutex>& lock);
  // Forms one batch under the lock; empty only when nothing is dispatchable
  // (queues empty, or every queued model is busy). A queued job on an idle
  // model that merely lacks DRR credit never yields an empty batch: the
  // starved tenants are fast-forwarded the minimum whole-quantum grant that
  // makes one head affordable, so at most two scans dispatch it.
  std::vector<PendingPtr> next_batch_locked();
  void run_batch(std::vector<PendingPtr> batch);
  void finish_job_locked(const Pending& p, ErrorCode code, bool ok,
                         std::uint64_t records);

  ModelRegistry& registry_;
  const ServiceConfig config_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // idle workers: dispatchable work
  std::condition_variable drain_cv_;  // drain(): all jobs settled
  std::condition_variable watchdog_cv_;  // watchdog: poll pacing / stop
  bool draining_ = false;
  bool stopping_ = false;

  std::map<std::string, Tenant> tenants_;
  std::vector<std::string> rr_order_;  // tenant visit order (first-seen)
  std::size_t rr_next_ = 0;  // scan start, taken modulo rr_order_.size()
  std::set<const LoadedModel*> busy_models_;
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
  TenantRateLimiter rate_limiter_;  // consulted under mu_ at admission

  // global stats
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t shed_overloaded_ = 0;
  std::uint64_t shed_draining_ = 0;
  std::uint64_t shed_rate_limited_ = 0;
  std::uint64_t rejected_other_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t coalesced_jobs_ = 0;

  // Progress heartbeat: bumped (without mu_) on every exported chunk part
  // and every settled job; the watchdog compares it across polls.
  std::atomic<std::uint64_t> progress_seq_{0};
  // Watchdog bookkeeping (under mu_).
  std::uint64_t watchdog_seen_seq_ = 0;
  std::uint64_t watchdog_progress_ms_ = 0;
  std::uint64_t watchdog_stalls_ = 0;
  std::uint64_t progress_age_ms_ = 0;
  bool stalled_ = false;

  // ~Service stops and joins these before any member dies.
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace netshare::serve
