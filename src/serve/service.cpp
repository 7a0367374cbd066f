#include "serve/service.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/clock.hpp"
#include "common/thread_pool.hpp"
#include "serve/chaos.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::serve {

namespace {

ServiceConfig sanitize(ServiceConfig cfg) {
  cfg.workers = std::max<std::size_t>(1, cfg.workers);
  cfg.queue_capacity = std::max<std::size_t>(1, cfg.queue_capacity);
  cfg.max_coalesce = std::max<std::size_t>(1, cfg.max_coalesce);
  cfg.tenant_inflight_cap = std::max<std::size_t>(1, cfg.tenant_inflight_cap);
  cfg.drr_quantum = std::max<std::size_t>(1, cfg.drr_quantum);
  // The cap doubles as the frame-size guarantee: a job's largest chunk part
  // is at most n_flows records, so no kChunk reply can exceed kMaxFrame.
  cfg.max_flows_per_job = std::max<std::size_t>(
      1, std::min(cfg.max_flows_per_job, kMaxChunkRecords));
  cfg.watchdog_poll_ms = std::max<std::uint64_t>(10, cfg.watchdog_poll_ms);
  // Anything below one header + a small request is unusable; 0 keeps the
  // protocol default (FrameReader maps 0 to kMaxFrame).
  if (cfg.max_frame_bytes != 0) {
    cfg.max_frame_bytes = std::max<std::size_t>(512, cfg.max_frame_bytes);
  }
  return cfg;
}

// Runs a job's final callback. A throw is reported and goes no further:
// the job then settles exactly as if the callback had returned, since its
// one verdict is already given and the service's accounting must still land.
template <typename Fn, typename... Args>
void final_callback(const Fn& fn, const Args&... args) {
  if (!fn) return;
  try {
    fn(args...);
  } catch (...) {
    TELEM_DIAG(::netshare::telemetry::Severity::kWarn, "serve.callback_threw",
               "a job's on_done/on_error threw; the job settles as if it "
               "had returned");
  }
}

std::size_t latency_bucket(double ms) {
  std::size_t b = 0;
  while (b < kLatencyBuckets - 1 && ms > kLatencyEdgesMs[b]) ++b;
  return b;
}

void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out << ' ';  // control bytes have no business in tenant/model names
    } else {
      out << ch;
    }
  }
  out << '"';
}

}  // namespace

double latency_percentile_ms(const std::vector<std::uint64_t>& hist,
                             double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : hist) total += c;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < hist.size(); ++b) {
    seen += hist[b];
    if (seen > rank) {
      return kLatencyEdgesMs[std::min<std::size_t>(b, kLatencyBuckets - 2)];
    }
  }
  return kLatencyEdgesMs[kLatencyBuckets - 2];
}

std::string to_json(const ServiceStatsSnapshot& stats) {
  std::ostringstream out;
  out << "{\"draining\":" << (stats.draining ? "true" : "false")
      << ",\"queue_depth\":" << stats.queue_depth
      << ",\"running\":" << stats.running
      << ",\"models_loaded\":" << stats.models_loaded
      << ",\"submitted\":" << stats.submitted
      << ",\"completed\":" << stats.completed
      << ",\"shed_overloaded\":" << stats.shed_overloaded
      << ",\"shed_draining\":" << stats.shed_draining
      << ",\"shed_rate_limited\":" << stats.shed_rate_limited
      << ",\"rejected_other\":" << stats.rejected_other
      << ",\"errors\":" << stats.errors
      << ",\"deadline_exceeded\":" << stats.deadline_exceeded
      << ",\"batches\":" << stats.batches
      << ",\"coalesced_jobs\":" << stats.coalesced_jobs
      << ",\"health\":{\"watchdog_stalls\":" << stats.watchdog_stalls
      << ",\"progress_age_ms\":" << stats.progress_age_ms
      << ",\"stalled\":" << (stats.stalled ? "true" : "false") << "}"
      << ",\"tenants\":[";
  for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
    const TenantStatsSnapshot& t = stats.tenants[i];
    if (i) out << ',';
    out << "{\"tenant\":";
    append_json_string(out, t.tenant);
    out << ",\"submitted\":" << t.submitted << ",\"completed\":" << t.completed
        << ",\"shed\":" << t.shed << ",\"records\":" << t.records
        << ",\"latency_p50_ms\":" << latency_percentile_ms(t.latency_hist, 0.5)
        << ",\"latency_p99_ms\":" << latency_percentile_ms(t.latency_hist, 0.99)
        << ",\"latency_mean_ms\":"
        << (t.latency_count
                ? t.latency_sum_ms / static_cast<double>(t.latency_count)
                : 0.0)
        << ",\"latency_hist\":[";
    for (std::size_t b = 0; b < t.latency_hist.size(); ++b) {
      if (b) out << ',';
      out << t.latency_hist[b];
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

Service::Service(ModelRegistry& registry, ServiceConfig config)
    : registry_(registry),
      config_(sanitize(config)),
      rate_limiter_(config_.rate_limit) {
  watchdog_progress_ms_ = mono_now_ms();
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (config_.watchdog_stall_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

Service::~Service() {
  begin_drain();
  drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  if (watchdog_.joinable()) watchdog_.join();
}

SubmitResult Service::submit(GenerateJob job, JobCallbacks callbacks) {
  // Resolve the model handle before taking the service lock (the registry
  // has its own); this is the hot-swap pin — the job keeps this version.
  std::shared_ptr<LoadedModel> model;
  if (!job.model_id.empty()) model = registry_.acquire(job.model_id);

  std::lock_guard<std::mutex> lock(mu_);
  ++submitted_;
  // Admission runs before any per-tenant state is created: tenant names are
  // wire-supplied, and each tenants_/rr_order_ entry costs memory plus an
  // O(T) scheduler-scan slot forever, so only accepted jobs may register
  // one. Rejections still count against a tenant that already exists.
  auto existing = tenants_.find(job.tenant);
  Tenant* known = existing == tenants_.end() ? nullptr : &existing->second;
  if (known) ++known->submitted;
  const auto shed = [&](std::uint64_t& counter, ErrorCode code,
                        std::string message) {
    if (known) ++known->shed;
    ++counter;
    return SubmitResult{false, code, std::move(message)};
  };

  if (draining_) {
    TELEM_COUNT("serve.shed_draining");
    return shed(shed_draining_, ErrorCode::kDraining, "service is draining");
  }
  if (job.n_flows == 0 || job.model_id.empty()) {
    return shed(rejected_other_, ErrorCode::kBadRequest,
                "generate requires a model_id and n_flows > 0");
  }
  if (job.n_flows > config_.max_flows_per_job) {
    // Also caps DRR cost arithmetic: an uncapped u64 n_flows would hold the
    // scheduler in credit accrual for ~n_flows/quantum scans (or overflow
    // the int64 cost outright at 2^63).
    return shed(rejected_other_, ErrorCode::kBadRequest,
                "n_flows " + std::to_string(job.n_flows) +
                    " exceeds the per-job limit of " +
                    std::to_string(config_.max_flows_per_job));
  }
  if (!model) {
    return shed(rejected_other_, ErrorCode::kModelNotFound,
                "no published model '" + job.model_id + "'");
  }
  const std::uint64_t now_ms = mono_now_ms();
  // Rate limiting sits ahead of the queue-occupancy sheds: an over-rate
  // tenant is told kRateLimited (with a computed wait) even when the queue
  // happens to have room, so the retry-after contract holds under light
  // load too.
  {
    const TenantRateLimiter::Verdict v =
        rate_limiter_.admit(job.tenant, job.n_flows, now_ms);
    if (!v.allowed) {
      TELEM_COUNT("serve.shed_rate_limited");
      SubmitResult r = shed(shed_rate_limited_, ErrorCode::kRateLimited,
                            "tenant '" + job.tenant + "' is over its rate cap");
      r.retry_after_ms = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(v.retry_after_ms, 0xffffffffull));
      return r;
    }
  }
  if (queued_ >= config_.queue_capacity) {
    TELEM_COUNT("serve.shed_overloaded");
    return shed(shed_overloaded_, ErrorCode::kOverloaded,
                "job queue is full");
  }
  if (known && known->inflight >= config_.tenant_inflight_cap) {
    TELEM_COUNT("serve.shed_overloaded");
    return shed(shed_overloaded_, ErrorCode::kOverloaded,
                "tenant '" + job.tenant + "' hit its in-flight cap");
  }

  if (!known) {
    known = &tenants_.try_emplace(job.tenant).first->second;
    rr_order_.push_back(job.tenant);
    ++known->submitted;
  }
  auto p = std::make_unique<Pending>();
  p->job = std::move(job);
  p->callbacks = std::move(callbacks);
  p->model = std::move(model);
  p->submitted_at_ms = now_ms;
  const std::uint64_t budget = p->job.deadline_ms != 0
                                   ? p->job.deadline_ms
                                   : config_.default_deadline_ms;
  if (budget != 0) p->deadline_at_ms = now_ms + budget;
  known->queue.push_back(std::move(p));
  ++known->inflight;
  ++queued_;
  TELEM_GAUGE_SET("serve.queue_depth", queued_);
  work_cv_.notify_one();
  return {true, ErrorCode::kInternal, ""};
}

void Service::begin_drain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

bool Service::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void Service::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return queued_ == 0 && running_ == 0; });
}

void Service::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    // Deadline enforcement at dequeue: expired queued jobs never reach a
    // batch.
    if (settle_expired(lock)) continue;  // state changed; re-scan
    std::vector<PendingPtr> batch = next_batch_locked();
    if (batch.empty()) {
      work_cv_.wait(lock);
      continue;
    }
    busy_models_.insert(batch.front()->model.get());
    queued_ -= batch.size();
    running_ += batch.size();
    ++batches_;
    if (batch.size() > 1) coalesced_jobs_ += batch.size();
    TELEM_GAUGE_SET("serve.queue_depth", queued_);
    TELEM_HIST("serve.batch_jobs", batch.size(), 1, 2, 4, 8, 16);
    // Taking these heads may have exposed one on an idle model; pass the
    // look on to an idle worker.
    if (queued_ > 0) work_cv_.notify_one();
    lock.unlock();
    run_batch(std::move(batch));
    lock.lock();
  }
}

bool Service::settle_expired(std::unique_lock<std::mutex>& lock) {
  const std::uint64_t now_ms = mono_now_ms();
  std::vector<PendingPtr> expired;
  for (auto& [name, t] : tenants_) {
    for (auto it = t.queue.begin(); it != t.queue.end();) {
      Pending& p = **it;
      if (p.deadline_at_ms != 0 && now_ms >= p.deadline_at_ms) {
        expired.push_back(std::move(*it));
        it = t.queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (expired.empty()) return false;
  // Counted as running until settled, so drain() cannot return while their
  // callbacks fire and before their accounting lands.
  queued_ -= expired.size();
  running_ += expired.size();
  TELEM_GAUGE_SET("serve.queue_depth", queued_);
  lock.unlock();
  for (const PendingPtr& p : expired) {
    final_callback(p->callbacks.on_error, ErrorCode::kDeadlineExceeded,
                   std::string("deadline expired while queued"));
  }
  lock.lock();
  for (const PendingPtr& p : expired) {
    finish_job_locked(*p, ErrorCode::kDeadlineExceeded, false, 0);
  }
  running_ -= expired.size();
  progress_seq_.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_all();  // a reaped head may have uncovered runnable work
  drain_cv_.notify_all();
  return true;
}

std::vector<Service::PendingPtr> Service::next_batch_locked() {
  std::vector<PendingPtr> batch;
  const std::size_t T = rr_order_.size();
  const auto quantum = static_cast<std::int64_t>(config_.drr_quantum);
  // Pass 1 is one classic DRR scan. If nothing dispatched but some head on
  // an idle model was merely starved for credit, every starved tenant is
  // granted the minimum number of whole quanta that makes one head
  // affordable, and pass 2 dispatches it — the same outcome as that many
  // more scans, without holding mu_ for ceil(cost/quantum) passes.
  for (int pass = 0; pass < 2 && batch.empty(); ++pass) {
    std::vector<Tenant*> starved;
    std::int64_t min_quanta = 0;
    for (std::size_t scan = 0; scan < T; ++scan) {
      const std::size_t ti = (rr_next_ + scan) % T;
      Tenant& t = tenants_.find(rr_order_[ti])->second;
      if (t.queue.empty()) continue;
      Pending& head = *t.queue.front();
      if (busy_models_.count(head.model.get())) continue;
      // Admission caps n_flows at max_flows_per_job, so the cast is exact.
      const auto cost = static_cast<std::int64_t>(head.job.n_flows);
      // Lazy refill: credit accrues only while the tenant cannot afford its
      // head job, so an idle tenant's deficit stays bounded by one quantum
      // above the largest job it ever queued.
      if (t.deficit < cost) t.deficit += quantum;
      if (t.deficit < cost) {
        const std::int64_t quanta = (cost - t.deficit + quantum - 1) / quantum;
        if (starved.empty() || quanta < min_quanta) min_quanta = quanta;
        starved.push_back(&t);
        continue;
      }
      t.deficit -= cost;
      batch.push_back(std::move(t.queue.front()));
      t.queue.pop_front();
      // Unwrapped: tenants only ever append to rr_order_, so when this was
      // the last one the next scan starts at a tenant registered meanwhile
      // instead of wrapping back to the tenant just served.
      rr_next_ = ti + 1;
      break;
    }
    if (!batch.empty() || starved.empty()) break;
    for (Tenant* t : starved) t->deficit += min_quanta * quantum;
  }
  if (batch.empty()) return batch;

  // Coalesce: pull queue heads targeting the same loaded model instance
  // (same model_id + version), in RR order, charging each donor tenant's
  // deficit — possibly below zero, which future refills repay, so borrowed
  // throughput is not free throughput.
  const LoadedModel* key = batch.front()->model.get();
  bool progress = true;
  while (progress && batch.size() < config_.max_coalesce) {
    progress = false;
    for (std::size_t scan = 0;
         scan < T && batch.size() < config_.max_coalesce; ++scan) {
      Tenant& t = tenants_.find(rr_order_[(rr_next_ + scan) % T])->second;
      if (t.queue.empty()) continue;
      Pending& head = *t.queue.front();
      if (head.model.get() != key) continue;
      t.deficit -= static_cast<std::int64_t>(head.job.n_flows);
      batch.push_back(std::move(t.queue.front()));
      t.queue.pop_front();
      progress = true;
    }
  }
  return batch;
}

namespace {

// One job's state inside a running batch, guarded by the batch's mutex.
// Chunk tasks run concurrently, so parts may be exported out of order;
// `next` is the lowest chunk not yet delivered, and whichever task exports
// that chunk delivers it plus every already-exported part after it.
struct JobRun {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::vector<std::size_t> targets;
  std::vector<net::FlowTrace> parts;  // exported, awaiting delivery
  std::vector<char> exported;         // part c is final (maybe empty)
  std::size_t next = 0;
  bool delivering = false;  // one task at a time runs on_chunk for the job
  // Lowest failed chunk: delivery stops before it and higher chunks are
  // not sampled. kNone while the job is healthy.
  std::size_t fail_at = kNone;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  std::uint64_t records = 0;

  void fail(std::size_t c, ErrorCode why, std::string what) {
    if (c >= fail_at) return;
    fail_at = c;
    code = why;
    message = std::move(what);
  }
};

bool past_deadline(std::uint64_t deadline_at_ms) {
  return deadline_at_ms != 0 && mono_now_ms() >= deadline_at_ms;
}

std::string mid_batch_expiry(std::size_t c) {
  return "deadline expired mid-batch at chunk " + std::to_string(c);
}

}  // namespace

void Service::run_batch(std::vector<PendingPtr> batch) {
  LoadedModel& model = *batch.front()->model;
  const std::size_t M = model.num_chunks();
  std::vector<JobRun> runs(batch.size());
  std::vector<std::size_t> chunk_tasks;  // chunks some job needs parts from
  for (std::size_t i = 0; i < batch.size(); ++i) {
    JobRun& r = runs[i];
    r.targets = model.record_targets(batch[i]->job.n_flows);
    r.parts.resize(M);
    r.exported.resize(M);
    for (std::size_t c = 0; c < M; ++c) {
      if (!model.has_chunk_model(c)) r.targets[c] = 0;
      r.exported[c] = r.targets[c] == 0;
    }
  }
  for (std::size_t c = 0; c < M; ++c) {
    for (const JobRun& r : runs) {
      if (r.targets[c] != 0) {
        chunk_tasks.push_back(c);
        break;
      }
    }
  }
  std::mutex mu;  // guards every JobRun

  // Delivers job i's parts in chunk order from `next` up to the first part
  // not yet exported (or the failed chunk). Called with `lock` held; drops
  // it around each on_chunk, and `delivering` keeps a second task from
  // overtaking this one meanwhile.
  const auto deliver = [&](std::size_t i, std::unique_lock<std::mutex>& lock) {
    JobRun& r = runs[i];
    if (r.delivering) return;
    r.delivering = true;
    while (r.next < std::min(M, r.fail_at) && r.exported[r.next]) {
      const std::size_t c = r.next++;
      net::FlowTrace part = std::move(r.parts[c]);
      r.records += part.records.size();
      if (part.records.empty() || !batch[i]->callbacks.on_chunk) continue;
      lock.unlock();
      std::optional<std::string> error;
      try {
        batch[i]->callbacks.on_chunk(c, std::move(part));
      } catch (const std::exception& e) {
        error = e.what();
      }
      lock.lock();
      if (error) r.fail(c, ErrorCode::kInternal, std::move(*error));
    }
    r.delivering = false;
  };

  // One task per chunk: each walks the batch's jobs in order, so a chunk's
  // model is only ever driven by one thread, and distinct chunks share no
  // mutable state. Every part draws only from its job's own seed streams,
  // so neither the interleaving nor the batch composition can leak into any
  // job's bytes.
  const auto chunk_task = [&](std::size_t t) {
    const std::size_t c = chunk_tasks[t];
    net::FlowTrace part;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t target = runs[i].targets[c];
      if (target == 0) continue;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (c > runs[i].fail_at) continue;  // a lower chunk already failed
      }
      // Deadline enforcement around each part: a job whose budget runs out
      // before or while its part is made abandons it and every higher
      // chunk; its batch-mates are untouched (their bytes never depended
      // on it).
      const std::uint64_t dl = batch[i]->deadline_at_ms;
      ErrorCode why = ErrorCode::kDeadlineExceeded;
      std::optional<std::string> error;
      if (past_deadline(dl)) {
        error = mid_batch_expiry(c);
      } else {
        try {
          if (chaos_armed()) chaos_worker_chunk(c, i);
          model.sample_part(c, target, batch[i]->job.seed, part);
          progress_seq_.fetch_add(1, std::memory_order_relaxed);
          if (past_deadline(dl)) error = mid_batch_expiry(c);
        } catch (const std::exception& e) {
          why = ErrorCode::kInternal;
          error = e.what();
        }
      }
      std::unique_lock<std::mutex> lock(mu);
      if (error) {
        runs[i].fail(c, why, std::move(*error));
      } else {
        runs[i].parts[c] = std::move(part);
        part = net::FlowTrace{};
        runs[i].exported[c] = 1;
        deliver(i, lock);
      }
    }
  };

  {
    TELEM_SPAN("serve.batch",
               {"jobs", static_cast<long long>(batch.size())});
    ThreadPool::shared().parallel_for(chunk_tasks.size(), chunk_task,
                                      chunk_tasks.size());
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const JobCallbacks& cb = batch[i]->callbacks;
    const JobRun& r = runs[i];
    if (r.fail_at != JobRun::kNone) {
      final_callback(cb.on_error, r.code, r.message);
    } else {
      final_callback(cb.on_done, r.records, model.version());
    }
  }
  progress_seq_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const JobRun& r = runs[i];
    finish_job_locked(*batch[i], r.code, r.fail_at == JobRun::kNone,
                      r.records);
  }
  busy_models_.erase(&model);
  running_ -= batch.size();
  // The model is free; this worker takes its queued work next.
  drain_cv_.notify_all();
}

void Service::finish_job_locked(const Pending& p, ErrorCode code, bool ok,
                                std::uint64_t records) {
  Tenant& t = tenants_.find(p.job.tenant)->second;
  --t.inflight;
  if (!ok) {
    if (code == ErrorCode::kDeadlineExceeded) {
      ++deadline_exceeded_;
      TELEM_COUNT("serve.deadline_exceeded");
    } else {
      ++errors_;
      TELEM_COUNT("serve.jobs_failed");
    }
    return;
  }
  ++t.completed;
  ++completed_;
  t.records += records;
  const double ms =
      static_cast<double>(mono_now_ms() - p.submitted_at_ms);
  ++t.latency_hist[latency_bucket(ms)];
  t.latency_sum_ms += ms;
  ++t.latency_count;
  TELEM_COUNT("serve.jobs_completed");
  TELEM_HIST("serve.job_latency_ms", ms, 1, 10, 100, 1000, 10000);
}

void Service::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    watchdog_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.watchdog_poll_ms));
    if (stopping_) return;
    const std::uint64_t now = mono_now_ms();
    const std::uint64_t seq = progress_seq_.load(std::memory_order_relaxed);
    if (seq != watchdog_seen_seq_) {
      watchdog_seen_seq_ = seq;
      watchdog_progress_ms_ = now;
      stalled_ = false;
    }
    const bool busy = queued_ > 0 || running_ > 0;
    progress_age_ms_ = busy && now > watchdog_progress_ms_
                           ? now - watchdog_progress_ms_
                           : 0;
    if (!busy) {
      // Idle is never a stall; restart the age window on the next job.
      watchdog_progress_ms_ = now;
      stalled_ = false;
    } else if (progress_age_ms_ >= config_.watchdog_stall_ms && !stalled_) {
      // One report per stall episode; the next progress bump rearms it.
      stalled_ = true;
      ++watchdog_stalls_;
      TELEM_COUNT("serve.watchdog_stalls");
      TELEM_DIAG(::netshare::telemetry::Severity::kWarn, "serve.watchdog",
                 "no scheduler progress for %llu ms (queued=%zu running=%zu)",
                 static_cast<unsigned long long>(progress_age_ms_), queued_,
                 running_);
    }
    // Reap here too: with every worker stuck in a batch, no dequeue would
    // fail a queued job whose deadline has passed.
    settle_expired(lock);
  }
}

ServiceStatsSnapshot Service::stats() const {
  ServiceStatsSnapshot s;
  s.models_loaded = registry_.models_loaded();
  std::lock_guard<std::mutex> lock(mu_);
  s.draining = draining_;
  s.queue_depth = queued_;
  s.running = running_;
  s.submitted = submitted_;
  s.completed = completed_;
  s.shed_overloaded = shed_overloaded_;
  s.shed_draining = shed_draining_;
  s.shed_rate_limited = shed_rate_limited_;
  s.rejected_other = rejected_other_;
  s.errors = errors_;
  s.deadline_exceeded = deadline_exceeded_;
  s.batches = batches_;
  s.coalesced_jobs = coalesced_jobs_;
  s.watchdog_stalls = watchdog_stalls_;
  s.progress_age_ms = progress_age_ms_;
  s.stalled = stalled_;
  s.tenants.reserve(rr_order_.size());
  for (const std::string& name : rr_order_) {
    const Tenant& t = tenants_.find(name)->second;
    TenantStatsSnapshot ts;
    ts.tenant = name;
    ts.submitted = t.submitted;
    ts.completed = t.completed;
    ts.shed = t.shed;
    ts.records = t.records;
    ts.latency_hist = t.latency_hist;
    ts.latency_sum_ms = t.latency_sum_ms;
    ts.latency_count = t.latency_count;
    s.tenants.push_back(std::move(ts));
  }
  TELEM_GAUGE_SET("serve.models_loaded", s.models_loaded);
  return s;
}

}  // namespace netshare::serve
