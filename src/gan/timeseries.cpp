#include "gan/timeseries.hpp"

#include <stdexcept>

namespace netshare::gan {

TimeSeriesDataset TimeSeriesDataset::take(
    const std::vector<std::size_t>& rows) const {
  TimeSeriesDataset out;
  out.spec = spec;
  out.attributes = ml::Matrix(rows.size(), attributes.cols());
  out.features.assign(features.size(),
                      ml::Matrix(rows.size(),
                                 features.empty() ? 0 : features[0].cols()));
  out.lengths.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t r = rows[i];
    if (r >= num_samples()) throw std::out_of_range("TimeSeriesDataset::take");
    const double* src = attributes.row_ptr(r);
    std::copy(src, src + attributes.cols(), out.attributes.row_ptr(i));
    for (std::size_t t = 0; t < features.size(); ++t) {
      const double* fsrc = features[t].row_ptr(r);
      std::copy(fsrc, fsrc + features[t].cols(), out.features[t].row_ptr(i));
    }
    out.lengths[i] = lengths[r];
  }
  return out;
}

void TimeSeriesDataset::reset(const TimeSeriesSpec& s, std::size_t n) {
  spec = s;
  attributes.resize(n, s.attribute_dim());
  attributes.fill(0.0);
  features.resize(s.max_len);
  for (ml::Matrix& step : features) {
    step.resize(n, s.feature_dim());
    step.fill(0.0);
  }
  lengths.assign(n, s.max_len);
}

void TimeSeriesDataset::put_rows(std::size_t row0,
                                 const TimeSeriesDataset& src) {
  const std::size_t n = src.num_samples();
  if (row0 + n > num_samples() || src.features.size() != features.size()) {
    throw std::out_of_range("TimeSeriesDataset::put_rows");
  }
  const std::size_t A = attributes.cols();
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(src.attributes.row_ptr(i), src.attributes.row_ptr(i) + A,
              attributes.row_ptr(row0 + i));
    lengths[row0 + i] = src.lengths[i];
  }
  for (std::size_t t = 0; t < features.size(); ++t) {
    const std::size_t F = features[t].cols();
    for (std::size_t i = 0; i < n; ++i) {
      const double* fsrc = src.features[t].row_ptr(i);
      std::copy(fsrc, fsrc + F, features[t].row_ptr(row0 + i));
    }
  }
}

}  // namespace netshare::gan
