// Small shared helpers of the benchmark: wall-clock timing, order
// statistics and the metric list printed as the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

inline double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Named metrics in insertion order, printed as the result's "metrics" map.
class MetricList {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  double get(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return e.value;
    }
    return 0.0;
  }
  /// Human-readable table, one metric per line.
  void print_table(std::FILE* out, const char* title) const {
    std::fprintf(out, "%s\n", title);
    for (const Entry& e : entries_) {
      std::fprintf(out, "  %-40s %16.6f %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }
  /// The "metrics" JSON object: {"name": {"value": v, "unit": "u"}, ...}.
  std::string json() const {
    std::string out = "{";
    char buffer[128];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
      std::snprintf(buffer, sizeof(buffer), "%.17g", v);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " + buffer +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
