// Shared harness for the figure/table reproduction binaries.
//
// Experimental conventions:
//  * Leader node: Jetson TX2 (cluster index 1) — the paper's motivational
//    board (Fig. 1); requests arrive at the user-facing device, not at the
//    strongest server.
//  * Per-model latency/energy (Fig. 5, Fig. 8): a short periodic stream per
//    model; energy is cluster energy over the stream makespan divided by
//    completed inferences (what on-board sensors integrate).
//  * Throughput (Fig. 7): saturated mixed streams, reported per 100 s.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/disnet.hpp"
#include "baselines/modnn.hpp"
#include "baselines/omniboost.hpp"
#include "core/hidp_strategy.hpp"
#include "runtime/metrics.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"
#include "util/table.hpp"

namespace hidp::bench {

inline constexpr std::size_t kDefaultLeader = 1;  // Jetson TX2

/// Strategy roster in the paper's presentation order.
std::vector<std::string> strategy_names();

/// Fresh strategy instance by name (strategies carry per-run caches/seeds).
std::unique_ptr<runtime::IStrategy> make_strategy(const std::string& name);

/// Result of one measured stream.
struct StreamResult {
  runtime::StreamMetrics metrics;
  std::vector<runtime::RequestRecord> records;
  std::vector<runtime::TaskTrace> traces;
};

/// Runs `requests` under `strategy` on a fresh cluster of `cluster_size`
/// paper nodes with the given leader (replayed through an InferenceService
/// with unlimited admission).
StreamResult run_requests(runtime::IStrategy& strategy,
                          const std::vector<runtime::RequestSpec>& requests,
                          std::size_t cluster_size = 5,
                          std::size_t leader = kDefaultLeader);

/// Convenience: periodic single-model stream.
StreamResult run_model_stream(runtime::IStrategy& strategy, const runtime::ModelSet& models,
                              dnn::zoo::ModelId id, int count, double interval_s,
                              std::size_t cluster_size = 5,
                              std::size_t leader = kDefaultLeader);

}  // namespace hidp::bench
