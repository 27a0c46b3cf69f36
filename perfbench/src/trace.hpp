// In-memory span recorder for the traced run, exported at exit as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto).
//
// Spans are recorded from the benchmark's own files, around calls into the
// program's public functions and from client-side socket timestamps. Two
// time domains share one file as separate processes: pid 1 is the wall
// clock (microseconds since the benchmark started), pid 2 is simulated DES
// time of one representative drain.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

inline constexpr int kWallPid = 1;
inline constexpr int kSimPid = 2;

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double dur_us = 0.0;
  int request = -1;           ///< request id the span belongs to; -1 = none
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  int pid = kWallPid;
  int tid = 0;
};

/// Thread-safe span store. Disabled recorders ignore every call, so the
/// untraced run pays one branch per would-be span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled, std::size_t capacity = 200000)
      : enabled_(enabled), capacity_(capacity), epoch_(SteadyClock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  /// Wall microseconds since the recorder was created.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(SteadyClock::now() - epoch_).count();
  }

  /// Reserves a span id, so children can name a parent recorded later.
  std::uint64_t reserve_id() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }

  /// Records a span (id 0 = allocate one). Returns its id, 0 when disabled.
  std::uint64_t record(Span span) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (span.id == 0) span.id = ++next_id_;
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return span.id;
    }
    spans_.push_back(span);
    return span.id;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  std::size_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool write_chrome_json(const std::string& path) const;

 private:
  const bool enabled_;
  const std::size_t capacity_;
  const SteadyClock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace perfbench
