// Generation-as-a-service tests (DESIGN.md §13): wire protocol round-trips
// and malformed-frame rejection, registry snapshot loading with the typed
// corruption taxonomy, hot-swap under load, admission control / DRR
// fairness / drain semantics, the socket transport — and the load-bearing
// property: a served job's output is bitwise identical to the serial
// per-job oracle and to offline NetShare::generate_flows, at any scheduler
// worker count and under any coalescing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "ml/serialize.hpp"
#include "serve/protocol.hpp"
#include "serve_test_util.hpp"

namespace netshare {
namespace {

namespace fs = std::filesystem;
using namespace serve;
using namespace serve_test;

// ---------------------------------------------------------------------------
// Wire protocol.
// ---------------------------------------------------------------------------

net::FlowTrace sample_trace() {
  net::FlowTrace t;
  for (int i = 0; i < 3; ++i) {
    net::FlowRecord r;
    r.key.src_ip = net::Ipv4Address(0x0a000001u + static_cast<unsigned>(i));
    r.key.dst_ip = net::Ipv4Address(0xc0a80001u);
    r.key.src_port = static_cast<std::uint16_t>(1024 + i);
    r.key.dst_port = 443;
    r.key.protocol = i == 2 ? net::Protocol::kUdp : net::Protocol::kTcp;
    r.start_time = 0.25 * i;
    r.duration = 1.5;
    r.packets = 10 + static_cast<std::uint64_t>(i);
    r.bytes = 4000;
    r.is_attack = i == 1;
    r.attack_type = i == 1 ? net::AttackType::kDos : net::AttackType::kNone;
    t.records.push_back(r);
  }
  return t;
}

TEST(ServeProtocol, GenerateRequestRoundTrip) {
  GenerateRequest req;
  req.request_id = 77;
  req.model_id = "default";
  req.tenant = "acme";
  req.n_flows = 12345;
  req.seed = 0xdeadbeefcafef00dull;
  req.deadline_ms = 2500;
  std::vector<std::uint8_t> bytes;
  encode(req, bytes);

  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame_type(*frame), MsgType::kGenerate);
  const GenerateRequest out = decode_generate(*frame);
  EXPECT_EQ(out.request_id, req.request_id);
  EXPECT_EQ(out.model_id, req.model_id);
  EXPECT_EQ(out.tenant, req.tenant);
  EXPECT_EQ(out.n_flows, req.n_flows);
  EXPECT_EQ(out.seed, req.seed);
  EXPECT_EQ(out.deadline_ms, req.deadline_ms);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(ServeProtocol, ChunkReplyRoundTripPreservesRecordsBitwise) {
  ChunkReply reply;
  reply.request_id = 9;
  reply.chunk_index = 2;
  reply.part = sample_trace();
  std::vector<std::uint8_t> bytes;
  encode(reply, bytes);

  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  const ChunkReply out = decode_chunk(*reader.next());
  EXPECT_EQ(out.request_id, 9u);
  EXPECT_EQ(out.chunk_index, 2u);
  EXPECT_EQ(out.part.records, reply.part.records);
}

TEST(ServeProtocol, AllReplyTypesRoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode(DoneReply{4, 500, 3}, bytes);
  encode(ErrorReply{5, ErrorCode::kOverloaded, "queue full", 750}, bytes);
  encode(StatsReply{6, "{\"queue_depth\":0}"}, bytes);
  encode(PublishRequest{7, "m", "/tmp/snaps"}, bytes);
  encode(StatsRequest{8}, bytes);

  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  const DoneReply done = decode_done(*reader.next());
  EXPECT_EQ(done.request_id, 4u);
  EXPECT_EQ(done.records, 500u);
  EXPECT_EQ(done.model_version, 3u);
  const ErrorReply err = decode_error(*reader.next());
  EXPECT_EQ(err.request_id, 5u);
  EXPECT_EQ(err.code, ErrorCode::kOverloaded);
  EXPECT_EQ(err.message, "queue full");
  EXPECT_EQ(err.retry_after_ms, 750u);
  const StatsReply stats = decode_stats_reply(*reader.next());
  EXPECT_EQ(stats.request_id, 6u);
  EXPECT_EQ(stats.json, "{\"queue_depth\":0}");
  const PublishRequest pub = decode_publish(*reader.next());
  EXPECT_EQ(pub.request_id, 7u);
  EXPECT_EQ(pub.model_id, "m");
  EXPECT_EQ(pub.snapshot_dir, "/tmp/snaps");
  EXPECT_EQ(decode_stats(*reader.next()).request_id, 8u);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(ServeProtocol, FrameReaderReassemblesByteAtATimeFeeds) {
  GenerateRequest req;
  req.request_id = 1;
  req.model_id = "m";
  req.tenant = "t";
  req.n_flows = 10;
  req.seed = 2;
  std::vector<std::uint8_t> bytes;
  encode(req, bytes);
  encode(StatsRequest{2}, bytes);

  FrameReader reader;
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint8_t b : bytes) {
    reader.feed(&b, 1);
    while (auto f = reader.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(decode_generate(frames[0]).request_id, 1u);
  EXPECT_EQ(decode_stats(frames[1]).request_id, 2u);
}

TEST(ServeProtocol, RejectsMalformedFrames) {
  // Truncated payload.
  std::vector<std::uint8_t> bytes;
  encode(StatsRequest{3}, bytes);
  std::vector<std::uint8_t> body(bytes.begin() + 4, bytes.end() - 1);
  EXPECT_THROW(decode_stats(body), ProtocolError);
  // Trailing bytes.
  body.assign(bytes.begin() + 4, bytes.end());
  body.push_back(0);
  EXPECT_THROW(decode_stats(body), ProtocolError);
  // Wrong type for the decoder.
  body.assign(bytes.begin() + 4, bytes.end());
  EXPECT_THROW(decode_generate(body), ProtocolError);
  // Unknown type byte.
  EXPECT_THROW(frame_type(std::vector<std::uint8_t>{250}), ProtocolError);
  EXPECT_THROW(frame_type(std::vector<std::uint8_t>{}), ProtocolError);
  // Oversized length prefix: a desynced peer, not a frame.
  FrameReader reader;
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  reader.feed(huge, 4);
  EXPECT_THROW(reader.next(), ProtocolError);
  // Chunk reply whose record count exceeds its own payload.
  std::vector<std::uint8_t> lying;
  encode(ChunkReply{1, 0, net::FlowTrace{}}, lying);
  lying[4 + 1 + 4 + 4] = 200;  // count field: claims 200 records, carries 0
  std::vector<std::uint8_t> lying_body(lying.begin() + 4, lying.end());
  EXPECT_THROW(decode_chunk(lying_body), ProtocolError);
}

TEST(ServeProtocol, OversizedChunkPartsSplitAcrossFramesAndReassemble) {
  const net::FlowTrace part = sample_trace();  // 3 records
  std::vector<std::uint8_t> bytes;
  encode_chunk_frames(21, 1, part, bytes, 2);  // force a split at 2 records
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  net::FlowTrace joined;
  std::size_t frames = 0;
  while (auto f = reader.next()) {
    const ChunkReply r = decode_chunk(*f);
    EXPECT_EQ(r.request_id, 21u);
    EXPECT_EQ(r.chunk_index, 1u);
    EXPECT_LE(r.part.records.size(), 2u);
    joined.records.insert(joined.records.end(), r.part.records.begin(),
                          r.part.records.end());
    ++frames;
  }
  EXPECT_EQ(frames, 2u);
  EXPECT_EQ(joined.records, part.records);
  // Within the single-frame limit the split path emits one ordinary frame.
  std::vector<std::uint8_t> whole;
  encode_chunk_frames(22, 0, part, whole);
  FrameReader reader2;
  reader2.feed(whole.data(), whole.size());
  EXPECT_EQ(decode_chunk(*reader2.next()).part.records, part.records);
  EXPECT_FALSE(reader2.next().has_value());
}

TEST(ServeProtocol, SnapshotErrorKindsMapOneToOne) {
  using Kind = ml::SnapshotError::Kind;
  EXPECT_EQ(error_code_for(Kind::kIo), ErrorCode::kSnapshotIo);
  EXPECT_EQ(error_code_for(Kind::kTruncated), ErrorCode::kSnapshotTruncated);
  EXPECT_EQ(error_code_for(Kind::kBadMagic), ErrorCode::kSnapshotBadMagic);
  EXPECT_EQ(error_code_for(Kind::kBadVersion), ErrorCode::kSnapshotBadVersion);
  EXPECT_EQ(error_code_for(Kind::kChecksum), ErrorCode::kSnapshotChecksum);
  EXPECT_STREQ(to_string(ErrorCode::kOverloaded), "overloaded");
  EXPECT_STREQ(to_string(ErrorCode::kDraining), "draining");
}

// ---------------------------------------------------------------------------
// Model registry: snapshot loading, corruption taxonomy, hot-swap.
// (Shared fixture — tiny model, snapshots, harnesses — in serve_test_util.hpp.)
// ---------------------------------------------------------------------------

TEST(ServeRegistry, PublishedModelMatchesOfflineGenerateFlowsBitwise) {
  TrainedModel& t = snapshot_a();
  ModelRegistry registry;
  registry.define("m", spec_for(t));
  EXPECT_EQ(registry.models_loaded(), 0u);
  const std::uint64_t v = registry.publish("m", t.dir);
  EXPECT_GE(v, 1u);
  EXPECT_EQ(registry.models_loaded(), 1u);
  auto model = registry.acquire("m");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->version(), v);

  // The offline path derives its sample seed from the Rng engine; serving
  // takes that derived seed directly. Same snapshot + config + seed ==
  // bitwise-identical traces.
  const std::size_t n = 90;
  Rng rng(7);
  const std::uint64_t derived = Rng(7).engine()();
  const net::FlowTrace offline = t.model->generate_flows(n, rng);
  const net::FlowTrace served = model->generate(n, derived);
  ASSERT_EQ(served.size(), offline.size());
  EXPECT_EQ(served.records, offline.records);
}

TEST(ServeRegistry, AcquireUnknownOrUnpublishedReturnsNull) {
  ModelRegistry registry;
  EXPECT_EQ(registry.acquire("nope"), nullptr);
  registry.define("m", spec_for(snapshot_a()));
  EXPECT_EQ(registry.acquire("m"), nullptr);  // defined but never published
  EXPECT_THROW(registry.publish("ghost", snapshot_a().dir),
               std::invalid_argument);
}

TEST(ServeRegistry, PublishRejectsCorruptSnapshotsWithTypedKinds) {
  TrainedModel& t = snapshot_a();
  // Work on a scratch copy so the shared fixture stays intact.
  const std::string dir = t.dir + "_corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& e : fs::directory_iterator(t.dir)) {
    fs::copy_file(e.path(), dir + "/" + e.path().filename().string());
  }
  ModelRegistry registry;
  registry.define("m", spec_for(t));

  auto expect_kind = [&](ml::SnapshotError::Kind kind) {
    try {
      registry.publish("m", dir);
      FAIL() << "publish accepted a corrupt snapshot";
    } catch (const ml::SnapshotError& e) {
      EXPECT_EQ(e.kind(), kind) << e.what();
    }
    EXPECT_EQ(registry.models_loaded(), 0u)
        << "a failed publish must not install anything";
  };

  flip_byte(dir + "/chunk_0.ckpt", -2);  // payload byte vs stored CRC
  expect_kind(ml::SnapshotError::Kind::kChecksum);
  fs::copy_file(t.dir + "/chunk_0.ckpt", dir + "/chunk_0.ckpt",
                fs::copy_options::overwrite_existing);

  flip_byte(dir + "/chunk_1.ckpt", 0);  // magic
  expect_kind(ml::SnapshotError::Kind::kBadMagic);
  fs::copy_file(t.dir + "/chunk_1.ckpt", dir + "/chunk_1.ckpt",
                fs::copy_options::overwrite_existing);

  flip_byte(dir + "/chunk_2.ckpt", 8);  // version word
  expect_kind(ml::SnapshotError::Kind::kBadVersion);
  fs::resize_file(dir + "/chunk_2.ckpt", 10);
  expect_kind(ml::SnapshotError::Kind::kTruncated);
  fs::remove(dir + "/chunk_2.ckpt");
  expect_kind(ml::SnapshotError::Kind::kIo);

  fs::remove_all(dir);
}

TEST(ServeRegistry, PublishRejectsWrongShapeSnapshot) {
  TrainedModel& t = snapshot_a();
  const std::string dir = t.dir + "_shape";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& e : fs::directory_iterator(t.dir)) {
    fs::copy_file(e.path(), dir + "/" + e.path().filename().string());
  }
  // A valid snapshot file of the wrong parameter count.
  ml::save_snapshot_file(std::vector<double>{1.0, 2.0, 3.0},
                         dir + "/chunk_1.ckpt");
  ModelRegistry registry;
  registry.define("m", spec_for(t));
  EXPECT_THROW(registry.publish("m", dir), std::invalid_argument);
  EXPECT_EQ(registry.models_loaded(), 0u);
  fs::remove_all(dir);
}

TEST(ServeRegistry, HotSwapKeepsOldHandlesValid) {
  ModelRegistry registry;
  registry.define("m", spec_for(snapshot_a()));
  const std::uint64_t v1 = registry.publish("m", snapshot_a().dir);
  auto old_handle = registry.acquire("m");
  ASSERT_NE(old_handle, nullptr);

  registry.define("m", spec_for(snapshot_b()));
  const std::uint64_t v2 = registry.publish("m", snapshot_b().dir);
  EXPECT_GT(v2, v1);
  auto new_handle = registry.acquire("m");
  ASSERT_NE(new_handle, nullptr);
  EXPECT_NE(new_handle.get(), old_handle.get());
  EXPECT_EQ(old_handle->version(), v1);
  EXPECT_EQ(new_handle->version(), v2);
  EXPECT_NE(old_handle->config_hash(), new_handle->config_hash());

  // The retained old handle still samples — and produces the old model's
  // bytes, not the new one's.
  const net::FlowTrace from_old = old_handle->generate(40, 5);
  const net::FlowTrace from_new = new_handle->generate(40, 5);
  Rng rng(3);
  (void)rng;
  EXPECT_NE(from_old.records, from_new.records);
  auto fresh = ModelRegistry();
  fresh.define("m", spec_for(snapshot_a()));
  fresh.publish("m", snapshot_a().dir);
  EXPECT_EQ(fresh.acquire("m")->generate(40, 5).records, from_old.records);
}

TEST(ServeRegistry, ConcurrentPublishesNeverRegressTheVersion) {
  // publish() builds outside the registry lock, so two builds of the same
  // model can finish in either order; the install must be version-ordered,
  // never completion-ordered.
  TrainedModel& t = snapshot_a();
  ModelRegistry registry;
  registry.define("m", spec_for(t));
  for (int round = 0; round < 4; ++round) {
    std::uint64_t va = 0;
    std::uint64_t vb = 0;
    std::thread ta([&] { va = registry.publish("m", t.dir); });
    std::thread tb([&] { vb = registry.publish("m", t.dir); });
    ta.join();
    tb.join();
    EXPECT_NE(va, vb);
    EXPECT_EQ(registry.acquire("m")->version(), std::max(va, vb))
        << "a slow older build must not overwrite a newer installed version";
  }
}

// ---------------------------------------------------------------------------
// Service: determinism under coalescing and concurrency.
// ---------------------------------------------------------------------------

struct JobSpec {
  std::string tenant;
  std::size_t n;
  std::uint64_t seed;
};

const std::vector<JobSpec>& job_mix() {
  static const std::vector<JobSpec>* jobs = new std::vector<JobSpec>{
      {"alpha", 60, 101}, {"beta", 35, 102},  {"alpha", 80, 103},
      {"gamma", 50, 104}, {"beta", 45, 105},  {"gamma", 70, 106},
  };
  return *jobs;
}

// The per-job serial oracle: one job at a time, no coalescing, one worker.
std::vector<net::FlowTrace> serial_oracle() {
  static std::vector<net::FlowTrace>* oracle = [] {
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.max_coalesce = 1;
    ServiceHarness h(cfg);
    auto* out = new std::vector<net::FlowTrace>();
    for (const JobSpec& j : job_mix()) {
      ClientResult r = h.client->generate("m", j.tenant, j.n, j.seed);
      EXPECT_TRUE(r.ok) << r.message;
      out->push_back(std::move(r.trace));
    }
    return out;
  }();
  return *oracle;
}

TEST(ServeService, CoalescedConcurrentBitwiseEqualsSerialOracleAtAnyWorkers) {
  const std::vector<net::FlowTrace>& oracle = serial_oracle();
  for (std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.max_coalesce = 4;
    ServiceHarness h(cfg);
    std::vector<std::shared_ptr<ServeClient::PendingJob>> jobs;
    for (const JobSpec& j : job_mix()) {
      jobs.push_back(h.client->submit("m", j.tenant, j.n, j.seed));
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const ClientResult r = jobs[i]->wait();
      ASSERT_TRUE(r.ok) << r.message;
      EXPECT_EQ(r.trace.records, oracle[i].records)
          << "job " << i << " diverged at " << workers << " workers";
    }
    h.service->drain();  // settle the counters (callbacks fire before them)
    const ServiceStatsSnapshot stats = h.service->stats();
    EXPECT_EQ(stats.completed, job_mix().size());
    EXPECT_EQ(stats.errors, 0u);
  }
}

TEST(ServeService, ChunkFanOutEqualsLoadedModelGenerateAtOneAndTwoWorkers) {
  // Each batch samples its chunks in parallel on the shared executor; every
  // job must still equal the serial whole-job oracle on the same handle.
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.max_coalesce = 4;
    ServiceHarness h(cfg);
    // The oracle runs first: sampling one chunk from two threads at once
    // is not allowed, and the service owns the model once jobs are queued.
    const std::shared_ptr<LoadedModel> model = h.registry.acquire("m");
    ASSERT_GT(model->num_chunks(), 1u);
    std::vector<net::FlowTrace> oracle;
    for (const JobSpec& j : job_mix()) {
      oracle.push_back(model->generate(j.n, j.seed));
    }
    std::vector<std::shared_ptr<ServeClient::PendingJob>> jobs;
    for (const JobSpec& j : job_mix()) {
      jobs.push_back(h.client->submit("m", j.tenant, j.n, j.seed));
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const ClientResult r = jobs[i]->wait();
      ASSERT_TRUE(r.ok) << r.message;
      EXPECT_EQ(r.trace.records, oracle[i].records)
          << "job " << i << " at " << workers << " workers";
    }
  }
}

TEST(ServeService, OnChunkIsAscendingAndNeverOverlapsWithinAJob) {
  // Chunk tasks of one batch run on different threads; per job, parts must
  // still arrive one at a time in ascending chunk order. The callback holds
  // an in-callback flag across a short sleep to widen any overlap window.
  struct Seen {
    std::atomic<bool> in_callback{false};
    std::atomic<int> overlaps{0};
    std::atomic<int> out_of_order{0};
    std::atomic<int> parts{0};
    std::atomic<long long> last_chunk{-1};
    std::atomic<bool> done{false};
  };
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_coalesce = 8;
  ServiceHarness h(cfg);
  const std::size_t chunks = h.registry.acquire("m")->num_chunks();
  std::vector<Seen> seen(2 * job_mix().size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    const JobSpec& j = job_mix()[i % job_mix().size()];
    Seen* s = &seen[i];
    JobCallbacks cbs;
    cbs.on_chunk = [s](std::size_t c, net::FlowTrace) {
      if (s->in_callback.exchange(true)) ++s->overlaps;
      if (static_cast<long long>(c) <= s->last_chunk.load()) ++s->out_of_order;
      s->last_chunk = static_cast<long long>(c);
      ++s->parts;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      s->in_callback = false;
    };
    cbs.on_done = [s](std::uint64_t, std::uint64_t) {
      if (s->in_callback.load()) ++s->overlaps;
      s->done = true;
    };
    cbs.on_error = [](ErrorCode, const std::string& m) { ADD_FAILURE() << m; };
    ASSERT_TRUE(h.service->submit({"m", j.tenant, 2 * j.n, j.seed + i, 0},
                                  std::move(cbs))
                    .accepted);
  }
  h.service->drain();
  int multi_part_jobs = 0;
  for (const Seen& s : seen) {
    EXPECT_TRUE(s.done.load());
    EXPECT_EQ(s.overlaps.load(), 0);
    EXPECT_EQ(s.out_of_order.load(), 0);
    EXPECT_LT(s.last_chunk.load(), static_cast<long long>(chunks));
    if (s.parts.load() > 1) ++multi_part_jobs;
  }
  EXPECT_GT(multi_part_jobs, 0) << "jobs must stream more than one part";
}

TEST(ServeService, ForcedCoalescingStillBitwiseEqual) {
  // Pin the single worker with a fat lead job; everything submitted behind
  // it must coalesce (the model goes busy at dispatch, so later jobs queue
  // until the lead batch finishes, then dispatch as one batch).
  const std::vector<net::FlowTrace>& oracle = serial_oracle();
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_coalesce = 8;
  cfg.drr_quantum = 1 << 20;  // credit never the limiting factor here
  ServiceHarness h(cfg);
  auto lead = h.client->submit("m", "lead", 300, 999);
  std::vector<std::shared_ptr<ServeClient::PendingJob>> jobs;
  for (const JobSpec& j : job_mix()) {
    jobs.push_back(h.client->submit("m", j.tenant, j.n, j.seed));
  }
  ASSERT_TRUE(lead->wait().ok);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ClientResult r = jobs[i]->wait();
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_EQ(r.trace.records, oracle[i].records) << "job " << i;
  }
  h.service->drain();
  const ServiceStatsSnapshot stats = h.service->stats();
  EXPECT_EQ(stats.completed, job_mix().size() + 1);
  EXPECT_GT(stats.coalesced_jobs, 0u)
      << "jobs queued behind a busy model must batch";
  EXPECT_LT(stats.batches, job_mix().size() + 1);
}

TEST(ServeService, ServedJobBitwiseEqualsOfflineGenerateFlows) {
  ServiceHarness h;
  const std::size_t n = 75;
  Rng rng(11);
  const std::uint64_t derived = Rng(11).engine()();
  const net::FlowTrace offline = snapshot_a().model->generate_flows(n, rng);
  const ClientResult served = h.client->generate("m", "t", n, derived);
  ASSERT_TRUE(served.ok) << served.message;
  EXPECT_EQ(served.trace.records, offline.records);
}

// ---------------------------------------------------------------------------
// Hot-swap under load.
// ---------------------------------------------------------------------------

TEST(ServeService, HotSwapMidStreamDropsNothingAndRetargetsNewJobs) {
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.tenant_inflight_cap = 16;
  ServiceHarness h(cfg);
  const std::uint64_t v1 = h.registry.acquire("m")->version();

  // Serial per-job oracles, computed on fresh registries so the service
  // under test shares no state with them.
  ModelRegistry oracle_reg;
  oracle_reg.define("a", spec_for(snapshot_a()));
  oracle_reg.define("b", spec_for(snapshot_b()));
  oracle_reg.publish("a", snapshot_a().dir);
  oracle_reg.publish("b", snapshot_b().dir);
  std::vector<net::FlowTrace> want_old, want_new;
  for (std::uint64_t s = 0; s < 4; ++s) {
    want_old.push_back(oracle_reg.acquire("a")->generate(50, 200 + s));
    want_new.push_back(oracle_reg.acquire("b")->generate(50, 300 + s));
  }

  // 4 in-flight jobs pinned to v1...
  std::vector<std::shared_ptr<ServeClient::PendingJob>> old_jobs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    old_jobs.push_back(h.client->submit("m", "t", 50, 200 + s));
  }
  // ... then the swap lands mid-stream ...
  h.registry.define("m", spec_for(snapshot_b()));
  const std::uint64_t v2 = h.registry.publish("m", snapshot_b().dir);
  ASSERT_GT(v2, v1);
  // ... and post-swap jobs resolve the new version.
  std::vector<std::shared_ptr<ServeClient::PendingJob>> new_jobs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    new_jobs.push_back(h.client->submit("m", "t", 50, 300 + s));
  }

  for (std::size_t i = 0; i < old_jobs.size(); ++i) {
    const ClientResult r = old_jobs[i]->wait();
    ASSERT_TRUE(r.ok) << "hot-swap dropped an in-flight job: " << r.message;
    EXPECT_EQ(r.model_version, v1);
    EXPECT_EQ(r.trace.records, want_old[i].records) << "old job " << i;
  }
  for (std::size_t i = 0; i < new_jobs.size(); ++i) {
    const ClientResult r = new_jobs[i]->wait();
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_EQ(r.model_version, v2);
    EXPECT_EQ(r.trace.records, want_new[i].records) << "new job " << i;
  }
  EXPECT_EQ(h.service->stats().errors, 0u);
}

// ---------------------------------------------------------------------------
// Admission control, fairness, drain.
// ---------------------------------------------------------------------------

TEST(ServeService, TypedRejectionsForBadAndUnroutableJobs) {
  ServiceHarness h;
  ClientResult r = h.client->generate("", "t", 10, 1);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kBadRequest);
  r = h.client->generate("m", "t", 0, 1);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kBadRequest);
  r = h.client->generate("ghost", "t", 10, 1);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kModelNotFound);
  EXPECT_EQ(h.service->stats().rejected_other, 3u);
}

TEST(ServeService, OversizedJobsRejectSynchronouslyAndServiceStaysLive) {
  ServiceConfig cfg;
  cfg.max_flows_per_job = 1000;
  ServiceHarness h(cfg);
  // These n_flows values used to hold the scheduler inside the service lock
  // for ~n/quantum credit-accrual scans (and >= 2^63 went negative past DRR
  // entirely); admission now sheds them with a typed verdict.
  const std::uint64_t huge[] = {1001, std::uint64_t{1} << 40, ~std::uint64_t{0}};
  for (std::uint64_t n : huge) {
    const ClientResult r =
        h.client->generate("m", "t", static_cast<std::size_t>(n), 7);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, ErrorCode::kBadRequest) << n;
  }
  EXPECT_EQ(h.service->stats().rejected_other, 3u);
  // A job at the cap is admitted, and the scheduler still runs.
  EXPECT_TRUE(h.client->generate("m", "t", 1000, 8).ok);
  // The cap can never exceed what one kChunk reply frame can carry.
  ServiceConfig wide;
  wide.max_flows_per_job = ~std::size_t{0};
  ServiceHarness w(wide);
  const ClientResult over = w.client->generate(
      "m", "t", kMaxChunkRecords + 1, 9);
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.code, ErrorCode::kBadRequest);
}

TEST(ServeService, StarvedCreditFastForwardsInsteadOfSpinning) {
  // Worst-case quantum: every head job costs hundreds of DRR visits. The
  // scheduler must grant the needed credit in one step, not hold the
  // service mutex for cost/quantum scans — submit/stats stay responsive
  // and both tenants' jobs complete.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_coalesce = 1;
  cfg.drr_quantum = 1;
  ServiceHarness h(cfg);
  auto a = h.client->submit("m", "a", 300, 1);
  auto b = h.client->submit("m", "b", 200, 2);
  EXPECT_GE(h.service->stats().submitted, 2u);  // mu_ not monopolized
  EXPECT_TRUE(a->wait().ok);
  EXPECT_TRUE(b->wait().ok);
  h.service->drain();
  EXPECT_EQ(h.service->stats().completed, 2u);
}

TEST(ServeService, RejectedJobsDoNotRegisterTenantState) {
  ServiceHarness h;
  for (int i = 0; i < 50; ++i) {
    const ClientResult r =
        h.client->generate("ghost", "tenant_" + std::to_string(i), 10, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, ErrorCode::kModelNotFound);
  }
  ServiceStatsSnapshot stats = h.service->stats();
  EXPECT_EQ(stats.tenants.size(), 0u)
      << "wire-supplied tenants on rejected jobs must not grow "
         "tenants_/rr_order_";
  EXPECT_EQ(stats.rejected_other, 50u);
  // Accepted work registers the tenant; its later rejections then count.
  ASSERT_TRUE(h.client->generate("m", "real", 20, 1).ok);
  EXPECT_FALSE(h.client->generate("ghost", "real", 20, 1).ok);
  h.service->drain();  // settle the counters (callbacks fire before them)
  stats = h.service->stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].tenant, "real");
  EXPECT_EQ(stats.tenants[0].shed, 1u);
  EXPECT_EQ(stats.tenants[0].completed, 1u);
}

TEST(ServeService, OverloadShedsWithTypedReplyAndCountsIt) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.max_coalesce = 1;
  cfg.tenant_inflight_cap = 99;
  ServiceHarness h(cfg);
  std::atomic<std::uint64_t> done{0};
  auto submit_one = [&](std::size_t n, std::uint64_t seed) {
    JobCallbacks cbs;
    cbs.on_done = [&done](std::uint64_t, std::uint64_t) { ++done; };
    cbs.on_error = [](ErrorCode, const std::string& m) { ADD_FAILURE() << m; };
    return h.service->submit(GenerateJob{"m", "t", n, seed}, std::move(cbs));
  };
  // A fat lead occupies the single worker (its model goes busy), so later
  // submits pile into the bounded queue until admission must shed — the
  // verdict is synchronous and typed.
  ASSERT_TRUE(submit_one(1500, 1).accepted);
  std::uint64_t accepted = 1;
  SubmitResult shed;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    shed = submit_one(30, 2 + i);
    if (!shed.accepted) break;
    ++accepted;
  }
  ASSERT_FALSE(shed.accepted) << "the queue bound never shed";
  EXPECT_EQ(shed.code, ErrorCode::kOverloaded);
  h.service->drain();
  const ServiceStatsSnapshot stats = h.service->stats();
  EXPECT_EQ(stats.shed_overloaded, 1u);
  EXPECT_EQ(stats.completed, accepted);
  EXPECT_EQ(done.load(), accepted);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServeService, PerTenantInflightCapShedsOnlyTheNoisyTenant) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_coalesce = 1;
  cfg.tenant_inflight_cap = 2;
  WorkerGate gate;  // holds a1 running until the shed is observed
  ScopedChaosPlan chaos(gate_plan(gate));
  ServiceHarness h(cfg);
  auto a1 = h.client->submit("m", "noisy", 150, 1);
  gate.await_entered();
  auto a2 = h.client->submit("m", "noisy", 30, 2);
  const ClientResult shed = h.client->generate("m", "noisy", 30, 3);
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.code, ErrorCode::kOverloaded);
  auto b1 = h.client->submit("m", "quiet", 30, 4);  // other tenants unharmed
  gate.release();
  EXPECT_TRUE(a1->wait().ok);
  EXPECT_TRUE(a2->wait().ok);
  EXPECT_TRUE(b1->wait().ok);
  const ServiceStatsSnapshot stats = h.service->stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].tenant, "noisy");
  EXPECT_EQ(stats.tenants[0].shed, 1u);
  EXPECT_EQ(stats.tenants[1].shed, 0u);
}

TEST(ServeService, DrrInterleavesTenantsInsteadOfFifoWithinOne) {
  // With per-job batches and one worker, DRR must alternate the two tenants
  // once both have queued work — not empty tenant A's backlog first.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_coalesce = 1;
  WorkerGate gate;
  ScopedChaosPlan chaos(gate_plan(gate));
  ServiceHarness h(cfg);
  std::mutex order_mu;
  std::vector<std::string> order;
  auto tracked = [&](const std::string& tenant, std::size_t n,
                     std::uint64_t seed) {
    JobCallbacks cbs;
    cbs.on_done = [&order, &order_mu, tenant](std::uint64_t, std::uint64_t) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tenant);
    };
    cbs.on_error = [](ErrorCode, const std::string&) { FAIL(); };
    const SubmitResult sr =
        h.service->submit(GenerateJob{"m", tenant, n, seed}, std::move(cbs));
    ASSERT_TRUE(sr.accepted) << sr.message;
  };
  // The lead job holds the only worker inside the gate until the whole
  // backlog has queued behind it.
  tracked("A", 20, 1);
  gate.await_entered();
  tracked("A", 20, 2);
  tracked("A", 20, 3);
  tracked("B", 20, 4);
  tracked("B", 20, 5);
  gate.release();
  h.service->drain();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], "A");
  // After the lead, visits alternate: B (rr cursor moved past A), A, B, A.
  const std::vector<std::string> want = {"A", "B", "A", "B", "A"};
  EXPECT_EQ(order, want)
      << "DRR should interleave tenants, not drain one backlog first";
}

TEST(ServeService, DrainCompletesInFlightAndShedsNewWithTyped) {
  ServiceConfig cfg;
  cfg.workers = 2;
  ServiceHarness h(cfg);
  std::vector<std::shared_ptr<ServeClient::PendingJob>> jobs;
  for (std::uint64_t s = 0; s < 3; ++s) {
    jobs.push_back(h.client->submit("m", "t", 60, 400 + s));
  }
  h.service->begin_drain();
  const ClientResult rejected = h.client->generate("m", "t", 10, 9);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, ErrorCode::kDraining);
  h.service->drain();
  for (auto& job : jobs) {
    const ClientResult r = job->wait();
    EXPECT_TRUE(r.ok) << "drain dropped an accepted job: " << r.message;
  }
  const ServiceStatsSnapshot stats = h.service->stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.shed_draining, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0u);
}

// Polls until `done` holds, for at most ten seconds.
template <typename Done>
bool eventually(const Done& done) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(ServeService, ThrowingDoneOrErrorCallbackStillSettles) {
  // A final callback that throws settles its job exactly as if it had
  // returned: the model is freed, the counters land, drain() returns and
  // the service keeps serving.
  ScopedManualClock mc;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_coalesce = 1;
  cfg.watchdog_poll_ms = 20;
  WorkerGate gate;
  ScopedChaosPlan chaos(gate_plan(gate));
  ServiceHarness h(cfg);
  std::atomic<int> threw{0};
  const auto throwing = [&] {
    JobCallbacks cbs;
    cbs.on_done = [&](std::uint64_t, std::uint64_t) {
      ++threw;
      throw std::runtime_error("on_done");
    };
    cbs.on_error = [&](ErrorCode, const std::string&) {
      ++threw;
      throw std::runtime_error("on_error");
    };
    return cbs;
  };

  // Queued expiry: the job waits behind a held batch, its deadline passes,
  // and its on_error throws.
  auto held = h.client->submit("m", "t", 40, 1);
  gate.await_entered();
  ASSERT_TRUE(h.service->submit({"m", "t", 40, 2, /*deadline_ms=*/500},
                                throwing())
                  .accepted);
  mc.clock().advance_ms(1000);
  EXPECT_TRUE(eventually([&] { return threw.load() == 1; }));
  gate.release();
  EXPECT_TRUE(held->wait().ok);

  // A throwing on_done, then a job whose on_chunk throws, which fails it
  // mid-batch into a throwing on_error.
  ASSERT_TRUE(h.service->submit({"m", "t", 40, 3}, throwing()).accepted);
  JobCallbacks failing = throwing();
  failing.on_chunk = [](std::size_t, net::FlowTrace) {
    throw std::runtime_error("on_chunk");
  };
  ASSERT_TRUE(h.service->submit({"m", "t", 40, 4}, std::move(failing)).accepted);
  EXPECT_TRUE(eventually([&] {
    const ServiceStatsSnapshot s = h.service->stats();
    return s.queue_depth == 0 && s.running == 0;
  })) << "a throwing callback left its job unsettled";
  EXPECT_EQ(threw.load(), 3);

  EXPECT_TRUE(h.client->generate("m", "t", 40, 5).ok);
  h.service->drain();
  const ServiceStatsSnapshot s = h.service->stats();
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.completed, 3u);  // held, the throwing on_done, the last job
}

TEST(ServeService, WorkersBoundBatchesInFlight) {
  // The hook holds the first sampled part of the first batch (model "m").
  // A job on a second model then needs a second worker: with one it stays
  // queued until the hold ends, with two it completes meanwhile.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    WorkerGate gate;
    std::atomic<bool> first{true};
    ChaosPlan plan;
    plan.worker_hook = [&](std::size_t c, std::size_t j) {
      if (first.exchange(false)) gate.hook(c, j);
    };
    ScopedChaosPlan chaos(plan);
    ServiceHarness h(cfg);
    h.registry.define("m2", spec_for(snapshot_b()));
    h.registry.publish("m2", snapshot_b().dir);

    auto held = h.client->submit("m", "t", 40, 1);
    gate.await_entered();
    auto other = h.client->submit("m2", "u", 40, 2);
    if (workers == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const ServiceStatsSnapshot s = h.service->stats();
      EXPECT_EQ(s.queue_depth, 1u) << "a second batch ran with one worker";
      EXPECT_EQ(s.completed, 0u);
    } else {
      EXPECT_TRUE(eventually([&] { return h.service->stats().completed == 1; }))
          << "the second model's job waited for the held batch";
    }
    gate.release();
    EXPECT_TRUE(held->wait().ok);
    EXPECT_TRUE(other->wait().ok);
  }
}

TEST(ServeService, StatsJsonCarriesTheOpsSurface) {
  ServiceHarness h;
  ASSERT_TRUE(h.client->generate("m", "acme", 40, 1).ok);
  const ServiceStatsSnapshot stats = h.service->stats();
  EXPECT_EQ(stats.models_loaded, 1u);
  const std::string json = to_json(stats);
  EXPECT_NE(json.find("\"queue_depth\":0"), std::string::npos);
  EXPECT_NE(json.find("\"models_loaded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"acme\""), std::string::npos);
  EXPECT_NE(json.find("latency_p99_ms"), std::string::npos);

  std::vector<std::uint64_t> hist(kLatencyBuckets, 0);
  hist[3] = 98;  // <= 10ms
  hist[7] = 2;   // <= 200ms
  EXPECT_DOUBLE_EQ(latency_percentile_ms(hist, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(latency_percentile_ms(hist, 0.99), 200.0);
  EXPECT_DOUBLE_EQ(latency_percentile_ms(std::vector<std::uint64_t>(
                       kLatencyBuckets, 0), 0.99), 0.0);
}

// ---------------------------------------------------------------------------
// Socket transport.
// ---------------------------------------------------------------------------

TEST(ServeSocket, GenerateOverTheWireBitwiseEqualsInProcess) {
  SocketHarness h;
  const net::FlowTrace want = h.client->generate("m", "t", 66, 55).trace;
  SocketClient wire(h.path);
  const ClientResult got = wire.generate("m", "t", 66, 55);
  ASSERT_TRUE(got.ok) << got.message;
  EXPECT_EQ(got.trace.records, want.records);
}

TEST(ServeSocket, StatsAndTypedErrorsOverTheWire) {
  SocketHarness h;
  SocketClient wire(h.path);
  const ClientResult bad = wire.generate("ghost", "t", 10, 1);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, ErrorCode::kModelNotFound);
  const std::string json = wire.stats();
  EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
}

TEST(ServeSocket, PublishOverTheWireHotSwapsAndRejectsCorruption) {
  SocketHarness h;
  SocketClient wire(h.path);
  const std::uint64_t v1 = h.registry.acquire("m")->version();

  // A corrupt directory first: typed checksum rejection, old version stays.
  const std::string dir = snapshot_a().dir + "_wire";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& e : fs::directory_iterator(snapshot_a().dir)) {
    fs::copy_file(e.path(), dir + "/" + e.path().filename().string());
  }
  flip_byte(dir + "/chunk_0.ckpt", -1);
  const ClientResult rejected = wire.publish("m", dir);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, ErrorCode::kSnapshotChecksum);
  EXPECT_EQ(h.registry.acquire("m")->version(), v1);
  fs::remove_all(dir);

  const ClientResult ok = wire.publish("m", snapshot_a().dir);
  ASSERT_TRUE(ok.ok) << ok.message;
  EXPECT_GT(ok.model_version, v1);
  EXPECT_EQ(h.registry.acquire("m")->version(), ok.model_version);
}

}  // namespace
}  // namespace netshare
