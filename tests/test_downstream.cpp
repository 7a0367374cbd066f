// Tests for the downstream-task substrate: feature extraction, the five
// classifiers, OCSVM, and NetML modes.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <thread>
#include <vector>

#include "datagen/presets.hpp"
#include "downstream/classifier.hpp"
#include "downstream/netml.hpp"

namespace netshare::downstream {
namespace {

// A cleanly separable 3-class dataset.
LabeledDataset separable_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  LabeledDataset ds;
  ds.num_classes = 3;
  ds.x = ml::Matrix(n, 4);
  ds.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<std::size_t>(rng.uniform_int(0, 2));
    ds.y[i] = cls;
    ds.x(i, 0) = static_cast<double>(cls) + rng.normal(0.0, 0.15);
    ds.x(i, 1) = (cls == 1 ? 1.0 : 0.0) + rng.normal(0.0, 0.15);
    ds.x(i, 2) = rng.normal(0.0, 1.0);  // noise feature
    ds.x(i, 3) = (cls == 2 ? -1.0 : 1.0) + rng.normal(0.0, 0.15);
  }
  return ds;
}

TEST(Features, ShapesAndLabelRange) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kTon, 800, 1);
  const auto ds = traffic_type_features(bundle.flows);
  EXPECT_EQ(ds.size(), bundle.flows.size());
  EXPECT_EQ(ds.num_classes, 12u);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_LT(ds.y[i], ds.num_classes);
    for (std::size_t j = 0; j < ds.x.cols(); ++j) {
      EXPECT_GE(ds.x(i, j), 0.0);
      EXPECT_LE(ds.x(i, j), 1.5);
    }
  }
}

TEST(Features, TimeSplitRespectsOrderAndFraction) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCidds, 500, 2);
  const auto [train, test] = time_split(bundle.flows, 0.8);
  EXPECT_NEAR(static_cast<double>(train.size()),
              0.8 * static_cast<double>(bundle.flows.size()), 2.0);
  EXPECT_EQ(train.size() + test.size(), bundle.flows.size());
  EXPECT_THROW(time_split(bundle.flows, 0.0), std::invalid_argument);
}

class AllClassifiers : public ::testing::TestWithParam<const char*> {};

TEST_P(AllClassifiers, LearnsSeparableData) {
  const auto train = separable_dataset(400, 3);
  const auto test = separable_dataset(200, 4);
  auto clf = make_classifier(GetParam(), 5);
  EXPECT_EQ(clf->name(), GetParam());
  clf->fit(train);
  EXPECT_GT(clf->accuracy(test), 0.85) << GetParam();
}

TEST_P(AllClassifiers, BeatsChanceOnTrafficTypes) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kTon, 900, 6);
  const auto [train, test] = time_split(bundle.flows, 0.8);
  auto clf = make_classifier(GetParam(), 7);
  clf->fit(train);
  // Majority class (benign) is ~50-65%; a real model should beat 0.55.
  EXPECT_GT(clf->accuracy(test), 0.55) << GetParam();
}

// predict() is const: two threads predicting on one const classifier at
// once must each get what serial calls get (and race on nothing, which the
// tsan preset checks).
TEST_P(AllClassifiers, ConcurrentPredictsMatchSerial) {
  const auto train = separable_dataset(300, 8);
  const auto test = separable_dataset(150, 9);
  auto fitted = make_classifier(GetParam(), 10);
  fitted->fit(train);
  const Classifier& clf = *fitted;
  const auto predict_all = [&](std::vector<std::size_t>& out) {
    out.resize(test.size());
    for (std::size_t i = 0; i < test.size(); ++i) {
      out[i] = clf.predict(
          std::span<const double>(test.x.row_ptr(i), test.x.cols()));
    }
  };
  std::vector<std::size_t> serial;
  predict_all(serial);
  std::vector<std::size_t> a, b;
  std::thread ta([&] { predict_all(a); });
  std::thread tb([&] { predict_all(b); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, serial) << GetParam();
  EXPECT_EQ(b, serial) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(FivePaperModels, AllClassifiers,
                         ::testing::Values("DT", "LR", "RF", "GB", "MLP"));

TEST(ClassifierFactory, RejectsUnknownKind) {
  EXPECT_THROW(make_classifier("SVM", 1), std::invalid_argument);
}

TEST(OneClassSvm, FlagsRoughlyNuFractionOnCleanData) {
  Rng rng(8);
  ml::Matrix x(400, 3);
  for (std::size_t i = 0; i < 400; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.normal(5.0, 1.0);
  }
  OneClassSvm svm({0.1, 60, 0.05}, 9);
  svm.fit(x);
  const double ratio = svm.anomaly_ratio(x);
  EXPECT_GT(ratio, 0.0);
  EXPECT_LT(ratio, 0.4);
}

TEST(OneClassSvm, OutliersScoreAnomalous) {
  Rng rng(10);
  ml::Matrix x(400, 2);
  for (std::size_t i = 0; i < 400; ++i) {
    x(i, 0) = rng.normal(1.0, 0.1);
    x(i, 1) = rng.normal(2.0, 0.1);
  }
  OneClassSvm svm({0.05, 60, 0.05}, 11);
  svm.fit(x);
  // A point far outside the training cloud.
  const std::vector<double> outlier{-50.0, 80.0};
  EXPECT_TRUE(svm.is_anomaly(outlier));
}

TEST(NetML, AllModesProduceFeatures) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kDc, 2500, 12);
  for (NetmlMode mode : all_netml_modes()) {
    const ml::Matrix x = netml_features(bundle.packets, mode);
    EXPECT_GT(x.rows(), 0u) << netml_mode_name(mode);
    EXPECT_GT(x.cols(), 0u) << netml_mode_name(mode);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < x.cols(); ++j) {
        EXPECT_TRUE(std::isfinite(x(i, j))) << netml_mode_name(mode);
      }
    }
  }
}

TEST(NetML, ModeNamesAreUnique) {
  std::set<std::string> names;
  for (NetmlMode mode : all_netml_modes()) {
    names.insert(netml_mode_name(mode));
  }
  EXPECT_EQ(names.size(), 6u);
}

TEST(NetML, SingletonFlowsAreExcluded) {
  // A trace of all-distinct 5-tuples has no multi-packet flows.
  net::PacketTrace t;
  for (int i = 0; i < 50; ++i) {
    net::PacketRecord p;
    p.timestamp = i * 0.1;
    p.key.src_ip = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i));
    p.key.dst_ip = net::Ipv4Address(10, 0, 1, 1);
    p.key.src_port = static_cast<std::uint16_t>(2000 + i);
    p.key.dst_port = 80;
    p.key.protocol = net::Protocol::kTcp;
    t.packets.push_back(p);
  }
  const ml::Matrix x = netml_features(t, NetmlMode::kStats);
  EXPECT_EQ(x.rows(), 0u);
  EXPECT_THROW(
      netml_anomaly_ratio(t, NetmlMode::kStats, OcSvmConfig{}, 13),
      std::invalid_argument);
}

TEST(NetML, AnomalyRatioIsStableAcrossSeeds) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kDc, 3000, 14);
  const double r1 =
      netml_anomaly_ratio(bundle.packets, NetmlMode::kStats, OcSvmConfig{}, 15);
  const double r2 =
      netml_anomaly_ratio(bundle.packets, NetmlMode::kStats, OcSvmConfig{}, 16);
  EXPECT_NEAR(r1, r2, 0.15);
  EXPECT_GE(r1, 0.0);
  EXPECT_LE(r1, 1.0);
}

}  // namespace
}  // namespace netshare::downstream
