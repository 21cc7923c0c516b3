#include "common/text_table.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace hydra {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> row) {
  HYDRA_CHECK_MSG(row.size() == header_.size(),
                  "row width " << row.size() << " != header width "
                               << header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::Cell(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TextTable::Render() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (size_t c = 0; c < row.size(); ++c) {
      line += " " + row[c] + std::string(widths[c] - row[c].size(), ' ') + " |";
    }
    return line + "\n";
  };
  std::string sep = "+";
  for (size_t c = 0; c < widths.size(); ++c) {
    sep += std::string(widths[c] + 2, '-') + "+";
  }
  sep += "\n";

  std::string out = sep + render_row(header_) + sep;
  for (const auto& row : rows_) out += render_row(row);
  out += sep;
  return out;
}

std::string RenderHistogram(const std::vector<std::string>& labels,
                            const std::vector<int64_t>& counts,
                            int max_bar_width) {
  HYDRA_CHECK(labels.size() == counts.size());
  int64_t max_count = 1;
  size_t label_width = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    max_count = std::max(max_count, counts[i]);
    label_width = std::max(label_width, labels[i].size());
  }
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    const int bar =
        static_cast<int>((counts[i] * max_bar_width + max_count - 1) /
                         max_count);
    out += labels[i] + std::string(label_width - labels[i].size(), ' ') +
           " | " + std::string(counts[i] > 0 ? std::max(bar, 1) : 0, '#') +
           " " + std::to_string(counts[i]) + "\n";
  }
  return out;
}

std::string FormatBytes(double bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"};
  double v = bytes;
  int u = 0;
  while (v >= 1024.0 && u < 6) {
    v /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f %s", v, units[u]);
  return buf;
}

std::string FormatDuration(double seconds) {
  char buf[64];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  } else if (seconds < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.1f s", seconds);
  } else if (seconds < 3600.0) {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f h", seconds / 3600.0);
  }
  return buf;
}

std::string FormatCount(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  int c = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (c > 0 && c % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++c;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace hydra
