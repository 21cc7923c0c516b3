// Aligned plain-text table rendering for benchmark and example output.
//
// The benchmark harness reproduces the paper's figures as textual tables and
// histograms; TextTable keeps that output readable and diffable.

#ifndef HYDRA_COMMON_TEXT_TABLE_H_
#define HYDRA_COMMON_TEXT_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hydra {

// Column-aligned text table. Add a header then rows of equal width; Render()
// produces the formatted block.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  // Convenience for mixed cells.
  static std::string Cell(const std::string& s) { return s; }
  static std::string Cell(int64_t v) { return std::to_string(v); }
  static std::string Cell(uint64_t v) { return std::to_string(v); }
  static std::string Cell(double v, int precision = 2);

  std::string Render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Renders a horizontal ASCII bar-chart histogram: one line per bucket with a
// proportional bar, used for the Figure 9/16 cardinality distributions.
std::string RenderHistogram(const std::vector<std::string>& labels,
                            const std::vector<int64_t>& counts,
                            int max_bar_width = 50);

// Formats a byte count with binary units ("1.5 GiB"). A double, so an
// estimate past 2^64 bytes prints too.
std::string FormatBytes(double bytes);

// Formats a duration given in seconds ("58 s", "11 min", "1.6 h").
std::string FormatDuration(double seconds);

// Formats an integer count with thousands of separators ("5,500,000").
std::string FormatCount(uint64_t n);

}  // namespace hydra

#endif  // HYDRA_COMMON_TEXT_TABLE_H_
