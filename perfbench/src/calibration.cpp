#include "calibration.hpp"

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kEvents = 40000;

/// A binary-heap event queue of std::function callbacks that schedule
/// follow-up events, with hash-map and vector traffic per event: the shape
/// of sim::Simulator::run() under the serving stack.
double run_kernel() {
  struct Event {
    double at;
    std::uint64_t id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.id > b.id;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::unordered_map<std::uint64_t, double> state;
  std::vector<double> log;
  std::uint64_t next = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double now = 0.0;
  const auto uniform = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  std::function<void(std::uint64_t)> spawn = [&](std::uint64_t key) {
    queue.push({now + uniform(), ++next, [&, key] {
                  state[key % 4096] += now;
                  log.push_back(now);
                  if (next < kEvents) spawn(key * 31 + 7);
                }});
  };
  for (std::uint64_t k = 0; k < 64; ++k) spawn(k);
  while (!queue.empty()) {
    Event event = queue.top();
    queue.pop();
    now = event.at;
    event.fn();
  }
  return now + static_cast<double>(state.size() + log.size());
}

}  // namespace

double calibration_seconds() {
  const auto begin = SteadyClock::now();
  volatile double sink = run_kernel();
  (void)sink;
  return seconds_between(begin, SteadyClock::now());
}

}  // namespace perfbench
