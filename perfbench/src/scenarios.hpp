// Workload definitions and the fleets they run on.
//
// Every workload has the same three phases, so every end-to-end metric
// applies to every workload:
//  1. gateway phase (wall clock): an open-loop Poisson stream of the
//     workload's model mix through the TCP gateway in front of the 4-shard
//     gateway fleet;
//  2. DES phase (VirtualClock): gateway_poisson replays the trace the
//     gateway admitted; des_fault_drain and des_storm drain their own long
//     fault / overload scenarios, several seeded sub-streams each;
//  3. SLO ladder (VirtualClock): the highest Poisson rate of the workload's
//     mix that the gateway fleet serves within the workload's p99 limit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/hidp_strategy.hpp"
#include "layers.hpp"
#include "runtime/churn.hpp"
#include "runtime/fleet.hpp"
#include "runtime/netfault.hpp"
#include "runtime/workload.hpp"

namespace perfbench {

using hidp::dnn::zoo::ModelId;

/// Which fleet a rig builds.
enum class FleetConfig {
  /// 8 nodes as four (Orin NX, TX2) shards, least-loaded routing, unbounded
  /// admission: the gateway's fleet, its replay and the SLO ladder.
  kGateway,
  /// Two 4-node shards, bounded admission, failover, delta re-planning and
  /// the transfer watchdog, under MTBF churn, DVFS waves and radio bursts.
  kFaultDrain,
  /// Two 4-node shards, bounded admission with shedding and continuous
  /// batching, fault-free overload.
  kStorm,
};

struct WorkloadSpec {
  std::string name;
  FleetConfig des_config;
  /// Models drawn uniformly per request (repeat an entry to weight it).
  std::vector<ModelId> mix;
  double interactive_share = 0.3;  ///< the rest is standard QoS
  /// Frozen open-loop rate of the gateway phase (about half the gateway
  /// fleet's SLO rate for this mix).
  double gateway_rate_hz = 0.0;
  /// Share of --seconds spent in the gateway phase.
  double gateway_share = 0.5;
  /// p99 limit of the SLO ladder, seconds.
  double slo_p99_s = 0.2;
  /// DES drains (fault / storm): requests per sub-stream, mean arrival
  /// spacing and the number of distinct seeded sub-streams pooled.
  int drain_requests = 0;
  double drain_spacing_s = 0.0;
  int drain_streams = 0;
};

/// The named workload, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Strategy decoration of one rig. With `timings` null the rig plans
/// through plain HidpStrategy instances (the untraced configuration).
struct StrategyHooks {
  PlanTimings* timings = nullptr;
  SituationLog* log = nullptr;
  SpanRecorder* spans = nullptr;
  const std::uint64_t* parent_span = nullptr;
};

/// One fleet and everything it owns: cluster, per-shard strategies,
/// routing and (fault config) the fault injectors.
class FleetRig {
 public:
  FleetRig(FleetConfig config, StrategyHooks hooks);
  FleetRig(const FleetRig&) = delete;
  FleetRig& operator=(const FleetRig&) = delete;

  hidp::runtime::Cluster& cluster() { return *cluster_; }
  hidp::runtime::ServiceFleet& fleet() { return *fleet_; }
  /// The HiDP instances behind the shards (plan-cache counters).
  const std::vector<hidp::core::HidpStrategy*>& hidp() const { return inner_; }

  /// Plans one request per (model, shard) so the run starts on warm caches.
  void warm(const hidp::runtime::ModelSet& models, const std::vector<ModelId>& mix);

  /// Installs the fault trace of the kFaultDrain scenario over [0, horizon).
  void start_faults(double horizon_s, std::uint64_t seed);

 private:
  std::unique_ptr<hidp::runtime::Cluster> cluster_;
  std::vector<std::unique_ptr<hidp::runtime::IStrategy>> strategies_;
  std::vector<hidp::core::HidpStrategy*> inner_;
  hidp::runtime::LeastLoadedRouting routing_;
  std::unique_ptr<hidp::runtime::ServiceFleet> fleet_;
  std::vector<std::unique_ptr<hidp::runtime::ChurnProcess>> churn_;
  std::vector<std::unique_ptr<hidp::runtime::NetDegradationProcess>> degradation_;
  std::vector<std::unique_ptr<hidp::runtime::ChurnInjector>> churn_injectors_;
  std::vector<std::unique_ptr<hidp::runtime::NetFaultInjector>> net_injectors_;
};

/// Builds a HiDP strategy, decorated with a TimedStrategy when hooked.
std::unique_ptr<hidp::runtime::IStrategy> make_strategy(
    const StrategyHooks& hooks, const hidp::core::HidpStrategy::Options& options,
    const char* span_name, int tid, hidp::core::HidpStrategy** inner_out);

/// `count` open-loop Poisson requests of the workload's mix at `rate_hz`,
/// seeded; ids from 0.
std::vector<hidp::runtime::RequestSpec> poisson_requests(const hidp::runtime::ModelSet& models,
                                                         const WorkloadSpec& spec, int count,
                                                         double rate_hz, std::uint64_t seed);

/// The DES drain stream of a fault / storm workload for one sub-seed.
std::vector<hidp::runtime::RequestSpec> drain_stream(const hidp::runtime::ModelSet& models,
                                                     const WorkloadSpec& spec,
                                                     std::uint64_t seed);

/// Order-sensitive digest of every record field the DES determines.
std::uint64_t record_digest(const std::vector<hidp::runtime::RequestRecord>& records);

/// Per-shard and per-class ServiceStats balance: submitted - stolen_away +
/// stolen_in == completed + rejected + dropped + deadline_misses + failed.
bool stats_balance(const hidp::runtime::ServiceFleet& fleet);

/// Mixes a workload seed with a stream index.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
