#include "eval/report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace netshare::eval {

std::string format_double(double v, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << v;
  return ss.str();
}

TextTable::TextTable(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TextTable::add_row(const std::string& name,
                        std::span<const double> values, int precision) {
  std::vector<std::string> cells{name};
  for (double v : values) cells.push_back(format_double(v, precision));
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& out) const {
  std::vector<std::size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c]) + 2)
          << rows_[r][c];
    }
    out << '\n';
    if (r == 0) {
      std::size_t total = 0;
      for (std::size_t w : widths) total += w + 2;
      out << std::string(total, '-') << '\n';
    }
  }
}

void print_banner(std::ostream& out, const std::string& title) {
  out << "\n=== " << title << " ===\n";
}

void print_train_report(std::ostream& out, const core::TrainReport& report) {
  print_banner(out, "Training report");
  // Per-chunk stage timings: chunks train and generate in parallel, so
  // aggregate stage seconds alone hide the critical path.
  // gen_series / gen_records / gen_kept: the generate deficit loop's
  // sampled series, decoded records and records left after the trim.
  TextTable table({"chunk", "role", "status", "attempts", "rollbacks",
                   "train_s", "gen_s", "gen_series", "gen_records", "gen_kept",
                   "detail"});
  std::size_t decoded = 0, kept = 0;
  for (std::size_t c = 0; c < report.chunks.size(); ++c) {
    const core::ChunkTrainReport& r = report.chunks[c];
    table.add_row({std::to_string(c), r.is_seed ? "seed" : "fine-tune",
                   core::to_string(r.status), std::to_string(r.attempts),
                   std::to_string(r.rollbacks), format_double(r.train_sec, 3),
                   format_double(r.generate_sec, 3),
                   std::to_string(r.generate_series),
                   std::to_string(r.generate_records),
                   std::to_string(r.generate_kept), r.error});
    decoded += r.generate_records;
    kept += r.generate_kept;
  }
  table.print(out);
  if (kept > 0) {
    out << "generate: " << decoded << " records decoded, " << kept
        << " kept (decoded/kept "
        << format_double(static_cast<double>(decoded) /
                             static_cast<double>(kept),
                         2)
        << ")\n";
  }
  const auto fallbacks =
      report.count(core::ChunkTrainReport::Status::kSeedFallback);
  out << report.count(core::ChunkTrainReport::Status::kTrained)
      << " trained, "
      << report.count(core::ChunkTrainReport::Status::kResumed)
      << " resumed, " << fallbacks << " seed-fallback, "
      << report.count(core::ChunkTrainReport::Status::kEmpty) << " empty\n";
}

void print_cdf(std::ostream& out, const std::string& label,
               std::vector<double> samples) {
  if (samples.empty()) {
    out << label << ": (no samples)\n";
    return;
  }
  std::sort(samples.begin(), samples.end());
  out << label << " CDF:";
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const auto idx = std::min(
        samples.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(samples.size())));
    out << "  p" << static_cast<int>(q * 100) << "="
        << format_double(samples[idx], 2);
  }
  out << '\n';
}

}  // namespace netshare::eval
