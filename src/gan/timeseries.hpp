// Time-series dataset representation shared by the DoppelGANger GAN and
// NetShare's preprocessing (Insight 1): each sample has static attributes
// (metadata: encoded 5-tuple + flow tags) and a variable-length sequence of
// per-timestep feature vectors (measurements).
#pragma once

#include <vector>

#include "ml/layers.hpp"

namespace netshare::gan {

// Structural description of one sample, independent of the data.
struct TimeSeriesSpec {
  std::vector<ml::OutputSegment> attribute_segments;
  std::vector<ml::OutputSegment> feature_segments;
  std::size_t max_len = 8;

  std::size_t attribute_dim() const {
    std::size_t d = 0;
    for (const auto& s : attribute_segments) d += s.width;
    return d;
  }
  std::size_t feature_dim() const {
    std::size_t d = 0;
    for (const auto& s : feature_segments) d += s.width;
    return d;
  }
};

// Data in time-major layout: features[t] is [N, F]; steps past a sample's
// length are zero-padded.
struct TimeSeriesDataset {
  TimeSeriesSpec spec;
  ml::Matrix attributes;              // N x A
  std::vector<ml::Matrix> features;   // max_len entries of N x F
  std::vector<std::size_t> lengths;   // per-sample true length in [1, max_len]

  std::size_t num_samples() const { return attributes.rows(); }

  // Row-subset view used for minibatching.
  TimeSeriesDataset take(const std::vector<std::size_t>& rows) const;

  // Reshapes to n samples of `s`, all-zero and of length max_len, keeping
  // the buffers' capacity.
  void reset(const TimeSeriesSpec& s, std::size_t n);
  // Copies every sample of `src` (same spec) into samples
  // [row0, row0 + src.num_samples()).
  void put_rows(std::size_t row0, const TimeSeriesDataset& src);
};

// Generator output in the same shape.
using GeneratedSeries = TimeSeriesDataset;

}  // namespace netshare::gan
