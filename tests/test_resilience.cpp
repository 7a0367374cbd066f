// Resilience layer tests (DESIGN.md §14): request deadlines, per-tenant
// token-bucket rate limiting, client retry/backoff, socket reconnection,
// the scheduler watchdog, injected registry faults, daemon frame bounds,
// and a protocol fuzz smoke. Time-window behavior is driven through the
// injected ManualClock and fault schedules through the deterministic chaos
// plan, so every scenario replays exactly — no sleeps-as-synchronization.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/rate_limiter.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"
#include "serve_test_util.hpp"

namespace netshare::serve {
namespace {

using namespace serve_test;

// Spins (real time) until `pred` holds or ~5 s pass; returns the verdict.
// Used only where a background thread (watchdog, scheduler) must observe a
// manual-clock step — the observed state itself is deterministic.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Token buckets and the tenant rate limiter (pure state, explicit clock).
// ---------------------------------------------------------------------------

TEST(Resilience, TokenBucketAdmitsDeniesAndRefills) {
  TokenBucket b(10.0, 1.0);  // 10 tokens/s, capacity 10
  std::uint64_t wait = 0;
  EXPECT_TRUE(b.try_take(10.0, 1000, &wait));   // drain the full burst
  EXPECT_FALSE(b.try_take(5.0, 1000, &wait));   // same instant: empty
  EXPECT_EQ(wait, 500u);                        // 5 tokens at 10/s
  EXPECT_FALSE(b.try_take(5.0, 1400, &wait));   // 4 refilled, still short
  EXPECT_EQ(wait, 100u);
  EXPECT_TRUE(b.try_take(5.0, 1500, &wait));    // exactly refilled
}

TEST(Resilience, TokenBucketOversizedCostGoesNegativeNeverWedges) {
  TokenBucket b(10.0, 1.0);  // capacity 10
  std::uint64_t wait = 0;
  // Cost 25 exceeds a full burst: admitted against the full bucket, balance
  // driven to -15 so later refills repay it. An oversized job is throttled,
  // never permanently wedged.
  EXPECT_TRUE(b.try_take(25.0, 1000, &wait));
  EXPECT_DOUBLE_EQ(b.tokens(), -15.0);
  EXPECT_FALSE(b.try_take(1.0, 1000, &wait));
  EXPECT_EQ(wait, 1600u);  // needs 16 tokens at 10/s
  EXPECT_TRUE(b.try_take(1.0, 2600, &wait));
}

TEST(Resilience, TenantLimiterShedChargesNothingAndHintsLargerWait) {
  RateLimitConfig cfg;
  cfg.default_class.records_per_sec = 100.0;  // capacity 100
  cfg.default_class.jobs_per_sec = 2.0;       // capacity 2
  TenantRateLimiter lim(cfg);

  EXPECT_TRUE(lim.admit("t", 100, 1000).allowed);
  EXPECT_TRUE(lim.admit("t", 0, 1000).allowed);  // second job, zero records
  // Both buckets are now empty. A 50-record job needs 500 ms of record
  // refill and 500 ms of job refill; the hint is the larger of the two
  // (here equal), and the shed must charge NEITHER bucket.
  auto v = lim.admit("t", 50, 1000);
  EXPECT_FALSE(v.allowed);
  EXPECT_EQ(v.retry_after_ms, 500u);
  // Repeating the same ask at the same instant reports the same wait —
  // proof the failed admit consumed nothing.
  v = lim.admit("t", 50, 1000);
  EXPECT_FALSE(v.allowed);
  EXPECT_EQ(v.retry_after_ms, 500u);
  EXPECT_TRUE(lim.admit("t", 50, 1500).allowed);
}

TEST(Resilience, TenantLimiterPerTenantOverrideAndUncappedDefault) {
  RateLimitConfig cfg;
  cfg.default_class = {};  // all-zero: uncapped
  cfg.per_tenant["metered"] = RateClass{0.0, 1.0, 1.0};  // 1 job/s
  TenantRateLimiter lim(cfg);

  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(lim.admit("free", 1 << 16, 1000).allowed);
  }
  EXPECT_TRUE(lim.admit("metered", 1, 1000).allowed);
  auto v = lim.admit("metered", 1, 1000);
  EXPECT_FALSE(v.allowed);
  EXPECT_EQ(v.retry_after_ms, 1000u);
  EXPECT_DOUBLE_EQ(lim.class_for("metered").jobs_per_sec, 1.0);
  EXPECT_DOUBLE_EQ(lim.class_for("free").jobs_per_sec, 0.0);
}

// ---------------------------------------------------------------------------
// Rate limiting at service admission (kRateLimited + retry-after).
// ---------------------------------------------------------------------------

ServiceConfig one_job_per_sec_config() {
  ServiceConfig cfg;
  cfg.rate_limit.default_class.jobs_per_sec = 1.0;
  cfg.rate_limit.per_tenant["vip"] = RateClass{};  // uncapped override
  return cfg;
}

TEST(Resilience, ServiceShedsRateLimitedWithRetryAfterHint) {
  ScopedManualClock mc;
  ServiceHarness h(one_job_per_sec_config());

  ClientResult r1 = h.client->generate("m", "t", 40, 7);
  ASSERT_TRUE(r1.ok) << r1.message;

  // Same instant: the tenant's job bucket is empty, shed is typed and the
  // hint is exactly one bucket refill — deterministic under the manual
  // clock.
  ClientResult r2 = h.client->generate("m", "t", 40, 8);
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.code, ErrorCode::kRateLimited);
  EXPECT_EQ(r2.retry_after_ms, 1000u);

  // The vip override is uncapped: back-to-back jobs admit freely.
  EXPECT_TRUE(h.client->generate("m", "vip", 40, 9).ok);
  EXPECT_TRUE(h.client->generate("m", "vip", 40, 10).ok);

  // Honoring the hint admits the retried job.
  mc.clock().advance_ms(1000);
  ClientResult r3 = h.client->generate("m", "t", 40, 8);
  EXPECT_TRUE(r3.ok) << r3.message;

  // Callbacks fire before the service settles its accounting; drain() is
  // the barrier that makes the counters safe to read.
  h.service->drain();
  const ServiceStatsSnapshot s = h.service->stats();
  EXPECT_EQ(s.shed_rate_limited, 1u);
  EXPECT_EQ(s.completed, 4u);
}

TEST(Resilience, RateLimitRetryAfterCrossesTheWire) {
  ScopedManualClock mc;
  SocketHarness h(one_job_per_sec_config());
  SocketClient client(h.path);

  ClientResult r1 = client.generate("m", "t", 30, 5);
  ASSERT_TRUE(r1.ok) << r1.message;
  ClientResult r2 = client.generate("m", "t", 30, 6);
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.code, ErrorCode::kRateLimited);
  EXPECT_EQ(r2.retry_after_ms, 1000u);
}

// ---------------------------------------------------------------------------
// Deadlines: reaped while queued, abandoned mid-batch.
// ---------------------------------------------------------------------------

TEST(Resilience, QueuedJobPastDeadlineIsReapedTyped) {
  ScopedManualClock mc;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_coalesce = 1;       // the second job must queue, not coalesce
  cfg.watchdog_poll_ms = 20;  // the nudge is what reaps with no traffic
  WorkerGate gate;
  ScopedChaosPlan chaos(gate_plan(gate));
  ServiceHarness h(cfg);

  // Job 1 occupies the model, stuck inside the gate.
  auto job1 = h.client->submit("m", "t", 40, 1);
  gate.await_entered();
  // Job 2 queues behind it with a 500 ms budget, which then expires with no
  // submit/finish traffic — only the watchdog nudge wakes the scheduler.
  auto job2 = h.client->submit("m", "t", 40, 2, /*deadline_ms=*/500);
  mc.clock().advance_ms(1000);

  ClientResult r2 = job2->wait();
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.code, ErrorCode::kDeadlineExceeded);
  EXPECT_NE(r2.message.find("queued"), std::string::npos) << r2.message;

  gate.release();
  ClientResult r1 = job1->wait();
  EXPECT_TRUE(r1.ok) << r1.message;

  h.service->drain();  // settle accounting before reading counters
  const ServiceStatsSnapshot s = h.service->stats();
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.errors, 0u);  // a deadline is not an execution error
  EXPECT_EQ(s.completed, 1u);
}

TEST(Resilience, RunningJobPastDeadlineAbandonsRemainingChunks) {
  ScopedManualClock mc;
  ServiceConfig cfg;
  cfg.workers = 1;
  // The hook burns the whole budget "inside" chunk 0; the check after its
  // part fails it, which abandons the rest of the job.
  ChaosPlan plan;
  plan.worker_hook = [&](std::size_t chunk, std::size_t /*job*/) {
    if (chunk == 0) mc.clock().advance_ms(1000);
  };
  ScopedChaosPlan chaos(plan);
  ServiceHarness h(cfg);

  ClientResult r = h.client->generate("m", "t", 90, 3, /*deadline_ms=*/500);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded);
  EXPECT_NE(r.message.find("mid-batch"), std::string::npos) << r.message;
  h.service->drain();  // settle accounting before reading counters
  EXPECT_EQ(h.service->stats().deadline_exceeded, 1u);
}

TEST(Resilience, DeadlineExpiringMidBatchDeliversOnlyAPrefixOfChunks) {
  // Chunks run in parallel, so the budget is burnt inside chunk 1 only once
  // chunk 0 has been delivered: chunk 0 streams, chunk 1 expires, and
  // nothing above it may be delivered even if its part was already made.
  ScopedManualClock mc;
  ServiceConfig cfg;
  cfg.workers = 2;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> delivered;
  bool released = false;
  ChaosPlan plan;
  plan.worker_hook = [&](std::size_t chunk, std::size_t /*job*/) {
    if (chunk != 1) return;
    std::unique_lock<std::mutex> lock(mu);
    released = cv.wait_for(lock, std::chrono::seconds(10),
                           [&] { return !delivered.empty(); });
    mc.clock().advance_ms(1000);
  };
  ScopedChaosPlan chaos(plan);
  ServiceHarness h(cfg);

  std::atomic<int> errors{0};
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  JobCallbacks cbs;
  cbs.on_chunk = [&](std::size_t c, net::FlowTrace) {
    std::lock_guard<std::mutex> lock(mu);
    delivered.push_back(c);
    cv.notify_all();
  };
  cbs.on_done = [](std::uint64_t, std::uint64_t) { ADD_FAILURE(); };
  cbs.on_error = [&](ErrorCode c, const std::string& m) {
    code = c;
    message = m;
    ++errors;
  };
  ASSERT_TRUE(
      h.service->submit({"m", "t", 90, 3, /*deadline_ms=*/500}, std::move(cbs))
          .accepted);
  h.service->drain();

  EXPECT_TRUE(released) << "chunk 0 was never delivered";
  EXPECT_EQ(delivered, std::vector<std::size_t>{0});
  EXPECT_EQ(errors.load(), 1);
  EXPECT_EQ(code, ErrorCode::kDeadlineExceeded);
  EXPECT_NE(message.find("mid-batch at chunk 1"), std::string::npos)
      << message;
  EXPECT_EQ(h.service->stats().deadline_exceeded, 1u);
}

TEST(Resilience, DefaultDeadlineAppliesWhenWireCarriesNone) {
  ScopedManualClock mc;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.default_deadline_ms = 500;
  ChaosPlan plan;
  plan.worker_hook = [&](std::size_t chunk, std::size_t /*job*/) {
    if (chunk == 0) mc.clock().advance_ms(1000);
  };
  ScopedChaosPlan chaos(plan);
  ServiceHarness h(cfg);

  ClientResult r = h.client->generate("m", "t", 90, 3);  // no wire deadline
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Client retry: pure backoff schedule, then end-to-end over both clients.
// ---------------------------------------------------------------------------

TEST(Resilience, RetryBackoffIsPureJitteredExponentialHonoringHints) {
  RetryPolicy p;
  p.base_backoff_ms = 50;
  p.max_backoff_ms = 2000;
  p.seed = 11;

  // Pure function of (seed, attempt, hint): replays exactly.
  for (std::size_t attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(retry_backoff_ms(p, attempt, 0), retry_backoff_ms(p, attempt, 0));
  }
  // Jitter window [b/2, b] with b doubling per attempt, capped.
  const std::uint64_t w1 = retry_backoff_ms(p, 1, 0);
  EXPECT_GE(w1, 25u);
  EXPECT_LE(w1, 50u);
  const std::uint64_t w5 = retry_backoff_ms(p, 5, 0);
  EXPECT_GE(w5, 400u);
  EXPECT_LE(w5, 800u);
  const std::uint64_t w12 = retry_backoff_ms(p, 12, 0);
  EXPECT_GE(w12, 1000u);
  EXPECT_LE(w12, 2000u);
  // A server hint larger than the jittered wait wins outright.
  EXPECT_EQ(retry_backoff_ms(p, 1, 5000), 5000u);
  // Different seeds decorrelate the schedule (not a hard guarantee per
  // attempt, so assert over the whole horizon).
  RetryPolicy q = p;
  q.seed = 12;
  bool differs = false;
  for (std::size_t attempt = 1; attempt <= 8; ++attempt) {
    differs = differs ||
              retry_backoff_ms(p, attempt, 0) != retry_backoff_ms(q, attempt, 0);
  }
  EXPECT_TRUE(differs);

  EXPECT_TRUE(retryable(ErrorCode::kOverloaded));
  EXPECT_TRUE(retryable(ErrorCode::kRateLimited));
  EXPECT_FALSE(retryable(ErrorCode::kModelNotFound));
  EXPECT_FALSE(retryable(ErrorCode::kBadRequest));
  EXPECT_FALSE(retryable(ErrorCode::kDeadlineExceeded));
}

TEST(Resilience, GenerateWithRetryRidesOutRateLimitDeterministically) {
  ScopedManualClock mc;
  ServiceHarness h(one_job_per_sec_config());

  // Burn tenant t's budget, and keep the oracle bytes for the retried job.
  ClientResult first = h.client->generate("m", "t", 40, 7);
  ASSERT_TRUE(first.ok);
  ClientResult oracle = h.client->generate("m", "vip", 40, 8);
  ASSERT_TRUE(oracle.ok);

  std::vector<std::uint64_t> slept;
  RetryPolicy pol;
  pol.seed = 3;
  // The injected sleep advances the manual clock instead of waiting, so the
  // whole retry dance runs in zero real time.
  pol.sleep_fn = [&](std::uint64_t ms) {
    slept.push_back(ms);
    mc.clock().advance_ms(ms);
  };

  ClientResult r = h.client->generate_with_retry("m", "t", 40, 8, pol);
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(r.attempts, 2u);
  ASSERT_EQ(slept.size(), 1u);
  EXPECT_EQ(slept[0], 1000u);  // the server hint dominates the 50 ms jitter
  // Retried output is bitwise the job's bytes — a retry can only repeat,
  // never diverge (pure function of snapshot, config, seed).
  EXPECT_EQ(r.trace.records, oracle.trace.records);
}

TEST(Resilience, GenerateWithRetryExhaustsBudgetTyped) {
  ScopedManualClock mc;
  ServiceHarness h(one_job_per_sec_config());
  ASSERT_TRUE(h.client->generate("m", "t", 40, 7).ok);

  RetryPolicy pol;
  pol.max_attempts = 3;
  pol.sleep_fn = [](std::uint64_t) {};  // never advances the clock
  ClientResult r = h.client->generate_with_retry("m", "t", 40, 8, pol);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kRateLimited);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(h.service->stats().shed_rate_limited, 3u);
}

TEST(Resilience, SocketClientReconnectsAcrossServerRestart) {
  SocketHarness h;
  SocketClient client(h.path);
  ClientResult before = client.generate("m", "t", 50, 21);
  ASSERT_TRUE(before.ok) << before.message;

  // Bounce the daemon front-end: every connection dies, the Service and
  // registry (and thus the published snapshot) survive.
  h.server->stop();
  h.server = std::make_unique<SocketServer>(*h.service, h.registry, h.path);

  RetryPolicy pol;
  pol.sleep_fn = [](std::uint64_t) {};
  ClientResult after = client.generate_with_retry("m", "t", 50, 21, pol);
  ASSERT_TRUE(after.ok) << after.message;
  EXPECT_GE(after.attempts, 2u);  // first attempt died with the old server
  EXPECT_EQ(after.trace.records, before.trace.records);
}

TEST(Resilience, SocketClientRetryExhaustsWhenDaemonStaysDown) {
  std::unique_ptr<SocketClient> client;
  {
    SocketHarness h;
    client = std::make_unique<SocketClient>(h.path);
    ASSERT_TRUE(client->generate("m", "t", 30, 2).ok);
  }  // harness gone: socket closed and unlinked

  RetryPolicy pol;
  pol.max_attempts = 3;
  pol.sleep_fn = [](std::uint64_t) {};
  ClientResult r = client->generate_with_retry("m", "t", 30, 2, pol);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kInternal);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_NE(r.message.find("reconnect"), std::string::npos) << r.message;
}

// ---------------------------------------------------------------------------
// Registry fault injection: a failed publish never disturbs what serves.
// ---------------------------------------------------------------------------

TEST(Resilience, InjectedSnapshotLoadFailureLeavesServingVersionUntouched) {
  ServiceHarness h;
  auto serving = h.registry.acquire("m");
  ASSERT_NE(serving, nullptr);

  {
    ChaosPlan plan;
    plan.p_registry_load_fail = 1.0;
    ScopedChaosPlan chaos(plan);
    try {
      h.registry.publish("m", snapshot_b().dir);
      FAIL() << "publish should have failed under chaos";
    } catch (const ml::SnapshotError& e) {
      EXPECT_EQ(e.kind(), ml::SnapshotError::Kind::kIo);
    }
    // The failed build installed nothing and generation is undisturbed.
    EXPECT_EQ(h.registry.acquire("m").get(), serving.get());
    EXPECT_TRUE(h.client->generate("m", "t", 30, 4).ok);
  }

  // With the plan cleared the same publish succeeds and hot-swaps.
  const std::uint64_t v = h.registry.publish("m", snapshot_b().dir);
  EXPECT_GT(v, serving->version());
  EXPECT_NE(h.registry.acquire("m").get(), serving.get());
}

// ---------------------------------------------------------------------------
// Watchdog: a stuck batch is one reported stall episode, then recovery.
// ---------------------------------------------------------------------------

TEST(Resilience, WatchdogReportsStuckBatchOnceAndRecovers) {
  ScopedManualClock mc;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.watchdog_poll_ms = 20;    // real-time poll pacing
  cfg.watchdog_stall_ms = 300;  // manual-clock stall window
  WorkerGate gate;
  ScopedChaosPlan chaos(gate_plan(gate));
  ServiceHarness h(cfg);

  auto job = h.client->submit("m", "t", 40, 5);
  gate.await_entered();  // batch is running and will export nothing
  mc.clock().advance_ms(400);

  // The watchdog polls on real time but measures the window on the manual
  // clock: within a few polls it must flag the stall, exactly once.
  ASSERT_TRUE(eventually([&] { return h.service->stats().stalled; }));
  ServiceStatsSnapshot s = h.service->stats();
  EXPECT_EQ(s.watchdog_stalls, 1u);
  EXPECT_GE(s.progress_age_ms, 300u);

  // More stalled time within the same episode does not re-report.
  mc.clock().advance_ms(400);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(h.service->stats().watchdog_stalls, 1u);

  gate.release();
  ClientResult r = job->wait();
  EXPECT_TRUE(r.ok) << r.message;  // a stall report never kills the job
  ASSERT_TRUE(eventually([&] { return !h.service->stats().stalled; }));
  s = h.service->stats();
  EXPECT_EQ(s.watchdog_stalls, 1u);
  EXPECT_EQ(s.progress_age_ms, 0u);  // idle: the age window is reset
}

// ---------------------------------------------------------------------------
// Frame bounds: reader-level and daemon-level (ServiceConfig plumbing).
// ---------------------------------------------------------------------------

TEST(Resilience, FrameReaderHonorsConfiguredBound) {
  EXPECT_EQ(FrameReader{}.max_frame(), FrameReader::kMaxFrame);
  EXPECT_EQ(FrameReader{0}.max_frame(), FrameReader::kMaxFrame);

  FrameReader r(600);
  std::vector<std::uint8_t> ok_frame;
  encode(StatsRequest{9}, ok_frame);
  r.feed(ok_frame.data(), ok_frame.size());
  EXPECT_TRUE(r.next().has_value());

  const std::uint8_t oversized[4] = {0xbc, 0x02, 0, 0};  // len = 700
  r.feed(oversized, sizeof(oversized));
  EXPECT_THROW(r.next(), ProtocolError);
}

TEST(Resilience, DaemonDropsOversizedInboundFrameOthersUnaffected) {
  ServiceConfig cfg;
  cfg.max_frame_bytes = 100;  // below the floor: sanitize raises it to 512
  SocketHarness h(cfg);
  EXPECT_EQ(h.service->config().max_frame_bytes, 512u);

  // A raw peer claiming a 1 MiB frame is desynced or hostile; the daemon
  // must drop it at the length prefix, before buffering the body.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, h.path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::uint8_t huge_len[4] = {0, 0, 0x10, 0};  // 1 MiB length prefix
  ASSERT_EQ(::send(fd, huge_len, sizeof(huge_len), MSG_NOSIGNAL), 4);
  std::uint8_t buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // clean EOF: dropped
  ::close(fd);

  // The daemon itself is unharmed: a well-formed client still serves.
  SocketClient client(h.path);
  EXPECT_TRUE(client.generate("m", "t", 30, 6).ok);
}

// ---------------------------------------------------------------------------
// Protocol fuzz smoke: hostile bytes produce typed rejections, never crashes.
// ---------------------------------------------------------------------------

// Feeds `stream` to a FrameReader in randomly sized slices, handing every
// complete frame to the per-type decoders. The only acceptable outcome per
// frame is a decoded message or a ProtocolError; anything else escapes and
// fails the test (and trips asan first, which is the point of the smoke).
void fuzz_stream(const std::vector<std::uint8_t>& stream, std::mt19937_64& rng,
                 std::size_t* frames, std::size_t* rejected) {
  FrameReader reader(1u << 16);
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t n = std::min<std::size_t>(
        stream.size() - off, 1 + static_cast<std::size_t>(rng() % 4096));
    reader.feed(stream.data() + off, n);
    off += n;
    for (;;) {
      std::optional<FrameBody> frame;
      try {
        frame = reader.next();
      } catch (const ProtocolError&) {
        ++*rejected;
        reader = FrameReader(1u << 16);  // desynced stream: start over
        break;
      }
      if (!frame) break;
      ++*frames;
      try {
        switch (frame_type(*frame)) {
          case MsgType::kGenerate: decode_generate(*frame); break;
          case MsgType::kStats: decode_stats(*frame); break;
          case MsgType::kPublish: decode_publish(*frame); break;
          case MsgType::kChunk: decode_chunk(*frame); break;
          case MsgType::kDone: decode_done(*frame); break;
          case MsgType::kError: decode_error(*frame); break;
          case MsgType::kStatsReply: decode_stats_reply(*frame); break;
        }
      } catch (const ProtocolError&) {
        ++*rejected;
      }
    }
  }
}

TEST(Resilience, FuzzSmokeRandomStreamsRejectTyped) {
  std::size_t frames = 0, rejected = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> stream(1u << 20);
    for (auto& b : stream) b = static_cast<std::uint8_t>(rng());
    // Random u32 length prefixes are almost always oversized, so a pure
    // random stream exercises mostly the frame bound; seed some small
    // lengths to reach the decoders too.
    for (std::size_t i = 0; i + 4 < stream.size(); i += 997) {
      stream[i] = static_cast<std::uint8_t>(rng() % 64);
      stream[i + 1] = 0;
      stream[i + 2] = 0;
      stream[i + 3] = 0;
    }
    fuzz_stream(stream, rng, &frames, &rejected);
  }
  EXPECT_GT(rejected, 0u);  // hostile input was actually exercised
}

TEST(Resilience, FuzzSmokeBitFlippedFramesRejectTypedOrDecode) {
  // 10k structurally valid frames, each with one random bit flipped —
  // every corruption either still decodes (benign field flip) or throws
  // ProtocolError; nothing crashes, hangs, or leaks (asan-enforced).
  std::vector<std::uint8_t> pristine;
  GenerateRequest gen;
  gen.request_id = 1;
  gen.model_id = "model-id";
  gen.tenant = "tenant";
  gen.n_flows = 1000;
  gen.seed = 42;
  gen.deadline_ms = 1500;
  encode(gen, pristine);
  encode(PublishRequest{2, "model-id", "/tmp/snapshot"}, pristine);
  encode(StatsRequest{3}, pristine);
  encode(DoneReply{4, 1000, 7}, pristine);
  encode(ErrorReply{5, ErrorCode::kRateLimited, "slow down", 250}, pristine);
  encode(StatsReply{6, "{\"ok\":true}"}, pristine);
  ChunkReply chunk;
  chunk.request_id = 7;
  chunk.chunk_index = 1;
  chunk.part.records.resize(3);
  encode(chunk, pristine);

  std::mt19937_64 rng(2026);
  std::size_t frames = 0, rejected = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<std::uint8_t> stream = pristine;
    const std::size_t bit = rng() % (stream.size() * 8);
    stream[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    fuzz_stream(stream, rng, &frames, &rejected);
  }
  EXPECT_GT(frames, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace netshare::serve
