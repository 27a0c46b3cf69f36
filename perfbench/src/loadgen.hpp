// Open-loop load generator for the gateway's line protocol.
//
// One thread drives every connection with ppoll(): requests are sent on a
// precomputed schedule whether or not earlier ones were answered, and every
// request is timed from its *scheduled* send time, so a stall in the
// generator or the gateway is charged to the requests it delays. How late
// the generator itself ran is reported separately.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ScheduledRequest {
  int id = 0;
  double due_s = 0.0;  ///< send time, seconds after the generator starts
  std::string line;    ///< protocol line without the newline
};

/// Client-side timestamps of one request (seconds after the generator
/// started; negative = never seen).
struct RequestTiming {
  double due_s = 0.0;
  double sent_s = -1.0;
  double accepted_s = -1.0;
  double done_s = -1.0;
  double latency_ms = 0.0;  ///< the `done` line's own latency_ms
  std::string outcome;
  int connection = 0;
  int accepted_lines = 0;
  int terminal_lines = 0;  ///< done + error lines carrying this id
};

struct LoadResult {
  std::vector<RequestTiming> requests;  ///< indexed like the schedule
  std::size_t stray_lines = 0;          ///< unparseable / unknown-id / wrong-connection
  bool timed_out = false;
  double elapsed_s = 0.0;
  /// Protocol failures: requests without exactly one accepted and one
  /// terminal line, plus stray lines.
  std::size_t failures() const;
};

/// Connects `connections` sockets to 127.0.0.1:`port` (TCP_NODELAY set) and
/// plays `schedule` (sorted by due time) round-robin over them, then waits
/// up to `drain_timeout_s` for the outstanding terminal lines. Throws
/// std::runtime_error when a connection cannot be opened.
LoadResult drive_load(std::uint16_t port, const std::vector<ScheduledRequest>& schedule,
                      int connections, double drain_timeout_s);

}  // namespace perfbench
