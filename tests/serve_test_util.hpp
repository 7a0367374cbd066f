// Shared serving-test fixture: one tiny offline-trained NetShare model,
// snapshotted to disk, the Service/Socket harnesses built on it, and a
// worker gate that holds a sampling batch at a point a test controls. Used
// by test_serve.cpp (functional), test_resilience.cpp (deadlines, rate
// limits, retry, watchdog, chaos) and test_soak.cpp (chaos soak), so every
// suite serves bitwise-identical models without re-deriving the setup.
//
// Everything here is inline — each test binary instantiates its own statics
// (training happens once per process, on first use).
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/netshare.hpp"
#include "datagen/presets.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"

namespace netshare::serve_test {

inline gan::DgConfig tiny_dg() {
  gan::DgConfig dg;
  dg.attr_noise_dim = 4;
  dg.feat_noise_dim = 4;
  dg.attr_hidden = {16};
  dg.rnn_hidden = 16;
  dg.disc_hidden = {24};
  dg.aux_hidden = {12};
  dg.batch_size = 16;
  return dg;
}

inline core::NetShareConfig tiny_config() {
  core::NetShareConfig cfg;
  cfg.use_ip2vec_ports = false;
  cfg.num_chunks = 3;
  cfg.seed_iterations = 4;
  cfg.finetune_iterations = 2;
  cfg.threads = 4;
  cfg.dg = tiny_dg();
  return cfg;
}

inline const net::FlowTrace& reference_flows() {
  static const net::FlowTrace* trace = new net::FlowTrace(
      datagen::make_dataset(datagen::DatasetId::kCidds, 250, 22).flows);
  return *trace;
}

// One offline-trained NetShare whose checkpoint files every serving test
// loads. Kept alive as the offline oracle for generate_flows identity.
struct TrainedModel {
  std::string dir;
  core::NetShareConfig config;
  std::unique_ptr<core::NetShare> model;
};

inline TrainedModel train_snapshot(std::uint64_t config_seed) {
  namespace fs = std::filesystem;
  TrainedModel t;
  t.dir = (fs::temp_directory_path() /
           ("netshare_serve_" + std::to_string(::getpid()) + "_" +
            std::to_string(config_seed)))
              .string();
  fs::create_directories(t.dir);
  t.config = tiny_config();
  t.config.seed = config_seed;
  t.config.checkpoint_dir = t.dir;
  t.model = std::make_unique<core::NetShare>(t.config, nullptr);
  t.model->fit(reference_flows());
  return t;
}

// Snapshot A/B: same shapes, different weights (training seed differs).
inline TrainedModel& snapshot_a() {
  static TrainedModel* t = new TrainedModel(train_snapshot(42));
  return *t;
}
inline TrainedModel& snapshot_b() {
  static TrainedModel* t = new TrainedModel(train_snapshot(43));
  return *t;
}

inline serve::ModelSpec spec_for(const TrainedModel& t) {
  serve::ModelSpec spec;
  spec.config = t.config;
  spec.reference = reference_flows();
  return spec;
}

// Corrupts one byte of the file at `offset` (negative: from the end).
inline void flip_byte(const std::string& path, std::ptrdiff_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f) << path;
  f.seekg(0, std::ios::end);
  const std::ptrdiff_t size = f.tellg();
  const std::ptrdiff_t pos = offset >= 0 ? offset : size + offset;
  f.seekg(pos);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(pos);
  f.write(&b, 1);
}

// Registry + service + in-process client over snapshot A, published as "m".
struct ServiceHarness {
  explicit ServiceHarness(serve::ServiceConfig cfg = {}) {
    registry.define("m", spec_for(snapshot_a()));
    registry.publish("m", snapshot_a().dir);
    service = std::make_unique<serve::Service>(registry, cfg);
    client = std::make_unique<serve::ServeClient>(*service);
  }
  serve::ModelRegistry registry;
  std::unique_ptr<serve::Service> service;
  std::unique_ptr<serve::ServeClient> client;
};

// A ChaosPlan::worker_hook gate: blocks the first sampling call until
// release(), so tests hold a batch stuck at a point they control.
struct WorkerGate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  void hook(std::size_t /*chunk*/, std::size_t /*job*/) {
    std::unique_lock<std::mutex> lock(mu);
    if (released) return;
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  }
  void await_entered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

// A chaos plan whose only effect is `gate` on the worker hook; arm it with
// serve::ScopedChaosPlan for as long as the gate lives.
inline serve::ChaosPlan gate_plan(WorkerGate& gate) {
  serve::ChaosPlan plan;
  plan.worker_hook = [&gate](std::size_t c, std::size_t j) { gate.hook(c, j); };
  return plan;
}

// ServiceHarness plus the AF_UNIX daemon front-end.
struct SocketHarness : ServiceHarness {
  explicit SocketHarness(serve::ServiceConfig cfg = {}) : ServiceHarness(cfg) {
    path = "/tmp/netshare_serve_test_" + std::to_string(::getpid()) + ".sock";
    server = std::make_unique<serve::SocketServer>(*service, registry, path);
  }
  ~SocketHarness() {
    server->stop();
    std::remove(path.c_str());
  }
  std::string path;
  std::unique_ptr<serve::SocketServer> server;
};

}  // namespace netshare::serve_test
