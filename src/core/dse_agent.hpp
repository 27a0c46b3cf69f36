// The Design Space Exploration agent (paper §III, Fig. 3).
//
// Consulted by both the global and the local partitioner to find the
// optimal partitioning *mode* (model vs. data) and *points* for a workload:
// Theta_omega = DPalg(omega, Psi) and Theta_sigma = DPalg(sigma, Psi) at the
// global level (Alg. 1 lines 4-6); the same search with psi at the local
// level happens inside partition::best_local_config.
//
// Queue-aware objective: a request that arrives while `q` requests are in
// flight will contend for the same resources, so the agent scores a
// candidate decision as   Theta_effective = Theta + q * B
// where Theta is the single-request latency and B the decision's resource
// bottleneck (max pipeline stage for model mode, full occupancy for data
// mode). With an empty queue this reduces to pure latency minimisation;
// under load it prefers decisions that keep nodes free for subsequent
// requests — the behaviour the paper's Fig. 2 motivates.
#pragma once

#include <cstdint>
#include <vector>

#include "partition/cost_model.hpp"
#include "partition/data_partitioner.hpp"
#include "partition/model_partitioner.hpp"

namespace hidp::core {

struct DseConfig {
  /// Search engine for model-partitioning cut points.
  partition::SearchEngine engine = partition::SearchEngine::kExactDp;
  /// Data-partition widths sigma to explore (bounded by available nodes).
  std::vector<int> sigma_candidates{2, 3, 4, 5};
  /// Also consider running everything on the leader (sigma = 1)?
  bool consider_local_only = true;
  /// Weight of the bottleneck term per queued request.
  double queue_weight = 1.0;
};

/// Outcome of one global exploration.
struct GlobalDecision {
  partition::PartitionMode mode = partition::PartitionMode::kNone;
  partition::ModelPartitionResult model;  ///< valid if mode == kModel
  partition::DataPartitionResult data;    ///< valid if mode == kData
  double latency_s = 0.0;                 ///< predicted single-request latency
  double bottleneck_s = 0.0;              ///< resource occupancy per request
  double effective_s = 0.0;               ///< queue-aware score
  std::vector<std::size_t> workers;       ///< nodes considered, Psi order
};

/// Coarse queue-depth bucketing for cross-request decision caches. The
/// queue-aware score Theta + q*B is most decision-sensitive at shallow
/// depths, so those stay exact; deeper queues share log2-width buckets
/// (5-8, 9-16, ...) where the winning decision is stable.
int queue_depth_bucket(int queue_depth) noexcept;

/// Identifies one steady-state planning situation: same model, same leader,
/// same probed availability, same queue-depth bucket => the DSE would
/// return the same decision, so a cross-request cache can skip it. The
/// model is identified by address *and* a structural fingerprint
/// (layer count, total FLOPs), so a different graph recycled onto a freed
/// graph's address cannot be served a stale plan.
struct GlobalDecisionKey {
  const dnn::DnnGraph* model = nullptr;
  std::size_t model_layers = 0;
  double model_flops = 0.0;
  std::size_t leader = 0;
  /// Clusters up to 64 nodes: bit j = node j available. Beyond 64 nodes
  /// this holds an FNV digest of `wide_mask` (fast compare/hash input);
  /// equality still checks the exact words, so a digest collision can
  /// never replay a plan onto the wrong availability set.
  std::uint64_t availability_mask = 0;
  /// Exact availability bit-words for > 64-node clusters; empty otherwise.
  std::vector<std::uint64_t> wide_mask;
  int queue_bucket = 0;
  /// Batch size the plan was priced for (continuous batching): one cold
  /// analysis per (situation, batch) serves every group of that size.
  int batch = 1;
  /// Plan kind (runtime::PlanRequest::PlanKind as int): latency plans and
  /// steady-state pipeline plans coexist per situation without colliding.
  int plan_kind = 0;
  bool operator==(const GlobalDecisionKey& other) const noexcept {
    return model == other.model && model_layers == other.model_layers &&
           model_flops == other.model_flops && leader == other.leader &&
           availability_mask == other.availability_mask && wide_mask == other.wide_mask &&
           queue_bucket == other.queue_bucket && batch == other.batch &&
           plan_kind == other.plan_kind;
  }
};

struct GlobalDecisionKeyHash {
  std::size_t operator()(const GlobalDecisionKey& key) const noexcept;
};

/// Hit/miss counters of a cross-request decision cache (exposed so benches
/// and tests can assert steady-state workloads actually skip the DSE).
struct DecisionCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t invalidations = 0;  ///< wholesale flushes (drift, capacity)
  // Delta re-planning: events repair cached state instead of flushing it.
  std::size_t scoped_invalidations = 0;  ///< entries dropped because their
                                         ///< node set intersected an event
  std::size_t rekeyed_entries = 0;  ///< entries surviving a node-down event
                                    ///< under a re-keyed availability mask
  std::size_t repaired_plans = 0;   ///< fresh plans served off a repaired
                                    ///< (partially re-priced) cost model
  std::size_t cold_replans = 0;     ///< fresh plans that paid a full cost-
                                    ///< model construction
  std::size_t partial_repriced_rows = 0;  ///< per-node repricing: rows built
                                          ///< for newly seen compute states +
                                          ///< entries scrubbed on slot reclaim
};

class DseAgent {
 public:
  explicit DseAgent(DseConfig config = {}) : config_(std::move(config)) {}

  const DseConfig& config() const noexcept { return config_; }

  /// Orders available nodes for pipelining/slicing: leader first, then by
  /// descending computation rate (the global resource vector Psi ordering).
  std::vector<std::size_t> order_workers(const partition::ClusterCostModel& cost,
                                         std::size_t leader,
                                         const std::vector<bool>& available) const;

  /// Explores model and data partitioning over the available nodes and
  /// returns the minimum-(effective-)latency decision (Alg. 1 lines 4-6).
  GlobalDecision explore(const partition::ClusterCostModel& cost, std::size_t leader,
                         const std::vector<bool>& available, int queue_depth) const;

 private:
  DseConfig config_;
};

}  // namespace hidp::core
