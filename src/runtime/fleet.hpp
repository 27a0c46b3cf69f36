// Sharded multi-leader serving: several InferenceService shards over
// disjoint node subsets of one Cluster, co-simulated on the shared DES
// clock.
//
// The paper's scheduler is a single-leader loop; the fleet is the topology
// level above it (related work partitions and places DNNs across whole
// edge clusters for throughput). Each shard is an InferenceService whose
// engine is scoped to a ClusterView — its leader plans over its own node
// subset with its own strategy instance, cost models and plan-cache
// epochs. The front end routes submit()ed requests to shards through a
// pluggable RoutingPolicy, and optional cross-shard work stealing migrates
// pending requests from saturated shards to idle ones, subject to QoS
// ordering (the highest-class, earliest-arrival pending request moves
// first). A 1-shard fleet with pass-through routing reproduces a bare
// InferenceService bit-identically (tests/test_service.cpp holds it to
// that).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "runtime/service.hpp"

namespace hidp::runtime {

class ServiceFleet;

/// Pluggable front-end routing: picks the shard that serves a request.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  virtual std::string_view name() const = 0;
  /// Shard index in [0, fleet.shard_count()).
  virtual std::size_t route(const RequestSpec& spec, const ServiceFleet& fleet) = 0;
  /// Load-aware policies route when the request's arrival time is reached,
  /// so they see live queue state; load-independent policies (overriding
  /// this to false) route at submission with no extra event.
  virtual bool routes_on_arrival() const { return true; }
};

/// Cycles shards in submission order.
class RoundRobinRouting final : public RoutingPolicy {
 public:
  std::string_view name() const override { return "round-robin"; }
  std::size_t route(const RequestSpec& spec, const ServiceFleet& fleet) override;
  bool routes_on_arrival() const override { return false; }

 private:
  std::size_t next_ = 0;
};

/// Least pending + in-flight at arrival time; ties go to the lowest index.
class LeastLoadedRouting final : public RoutingPolicy {
 public:
  std::string_view name() const override { return "least-loaded"; }
  std::size_t route(const RequestSpec& spec, const ServiceFleet& fleet) override;
};

/// Stable hash of the model name: every request for a model lands on the
/// same shard, so that shard's plan cache and cost models stay hot for it.
class ModelAffinityRouting final : public RoutingPolicy {
 public:
  std::string_view name() const override { return "model-affinity"; }
  std::size_t route(const RequestSpec& spec, const ServiceFleet& fleet) override;
  bool routes_on_arrival() const override { return false; }

  /// The shard a model's requests land on — the same stable hash route()
  /// uses. Lets a fleet owner pin pipeline streams where the traffic will
  /// arrive: shard_for(model)'s service becomes the stream owner
  /// (InferenceService::pin_stream), making model-affinity shards the
  /// natural per-model-stream targets of ServiceOptions::PipelineMode.
  static std::size_t shard_for(const dnn::DnnGraph& model, std::size_t shard_count);
};

/// Least QoS-weighted load: pending requests count by their class weight
/// (interactive > standard > best-effort), so shards holding high-class
/// backlogs are avoided first. In-flight work counts at standard weight
/// (its class is no longer tracked per shard).
class QosWeightedRouting final : public RoutingPolicy {
 public:
  std::string_view name() const override { return "qos-weighted"; }
  std::size_t route(const RequestSpec& spec, const ServiceFleet& fleet) override;
};

/// Health-aware routing: a deterministic probing round (noise 0) over each
/// shard's slice surfaces members whose links to their leader degraded or
/// partitioned, and that health penalty is weighed alongside queue depth —
/// a shard that looks idle but would plan every transfer over a degraded
/// radio loses to a slightly busier healthy one. The base load signal is
/// either LeastLoadedRouting's flat count or QosWeightedRouting's
/// class-weighted one.
class DegradationAwareRouting final : public RoutingPolicy {
 public:
  enum class Base { kLeastLoaded, kQosWeighted };
  /// `degraded_penalty` / `down_penalty` are in request-load units: how
  /// many queued requests a degraded (resp. unreachable) member is worth.
  explicit DegradationAwareRouting(Base base = Base::kLeastLoaded,
                                   double degraded_penalty = 4.0,
                                   double down_penalty = 8.0)
      : base_(base), degraded_penalty_(degraded_penalty), down_penalty_(down_penalty) {}
  std::string_view name() const override {
    return base_ == Base::kLeastLoaded ? "degradation-aware" : "degradation-aware-qos";
  }
  std::size_t route(const RequestSpec& spec, const ServiceFleet& fleet) override;

 private:
  Base base_;
  double degraded_penalty_;
  double down_penalty_;
};

/// Configuration of one fleet shard.
struct FleetShard {
  /// Per-shard strategy instance (own cost models and plan-cache epochs);
  /// caller owns, must outlive the fleet. Sharing one instance between
  /// shards is rejected.
  IStrategy* strategy = nullptr;
  /// Global node indices this shard plans over. Disjoint across shards.
  /// Empty = the whole cluster, allowed only for a single-shard fleet.
  std::vector<std::size_t> nodes;
  /// Leader node (global index, must be a member). Default: first member.
  std::size_t leader = kAutoLeader;
  ServiceOptions service{};

  static constexpr std::size_t kAutoLeader = static_cast<std::size_t>(-1);
};

/// Shard-failure reaction policy. A shard is *dead* while its leader node
/// is unavailable or its live membership dropped below `min_live_nodes`;
/// a dead shard cannot plan, so its requests park. With failover enabled
/// the fleet instead evacuates them: pending requests migrate to live
/// shards through the stealing plumbing (adopt(), stolen_in/stolen_away
/// accounted so per-shard slices still balance), mid-task failures are
/// re-adopted instead of burning local retries, and new arrivals route
/// around the dead shard. Disabled (default), a zero-churn run is
/// bit-identical to the pre-failover fleet.
struct FailoverPolicy {
  bool enabled = false;
  /// Live-membership floor: a shard with fewer available member nodes
  /// counts as dead even while its leader is up (too little capacity left
  /// to serve its slice).
  std::size_t min_live_nodes = 1;
  /// Permanently reassign a dead shard's surviving non-leader nodes to the
  /// smallest live shard (ClusterView membership is mutable; see
  /// ServiceFleet::reassign). One-way: a later repair of the leader does
  /// not pull them back.
  bool merge_orphans = false;
  /// Front-end routing falls back to the least-loaded live shard when the
  /// policy picks a dead one.
  bool route_around_dead = true;
};

struct FleetOptions {
  /// Migrate pending requests from backlogged shards to shards with free
  /// dispatch slots and empty queues. Effective for shards with bounded
  /// admission (max_in_flight > 0), and for unlimited-admission shards
  /// that opt into cost-aware capacity via ServiceOptions::steal_backlog_s.
  bool work_stealing = false;
  /// A shard only loses work while it has at least this many pending.
  std::size_t steal_min_pending = 1;
  /// Node-churn failover (see FailoverPolicy).
  FailoverPolicy failover;
};

class ServiceFleet {
 public:
  /// Throws std::invalid_argument on empty/overlapping shard node sets,
  /// null or shared strategies, or out-of-scope leaders.
  ServiceFleet(Cluster& cluster, const std::vector<FleetShard>& shards,
               RoutingPolicy& routing, FleetOptions options = {});

  ServiceFleet(const ServiceFleet&) = delete;
  ServiceFleet& operator=(const ServiceFleet&) = delete;
  ~ServiceFleet();

  /// Registers one request with the fleet front end. Routing happens at
  /// submission or at the request's arrival time, per the policy. Request
  /// ids must be unique fleet-wide (records merge by id).
  RequestHandle submit(const RequestSpec& spec);

  /// Attaches a fleet-level arrival source. Terminal outcomes from every
  /// shard feed back to it, so closed-loop pools work across shards.
  void attach(ArrivalProcess* source) { source_ = source; }

  /// Drains the shared simulator and returns the merged records of all
  /// shards, sorted by request id (stolen requests appear once, reported
  /// by the shard that finished them).
  std::vector<RequestRecord> run();

  std::size_t shard_count() const noexcept { return shards_.size(); }
  InferenceService& shard(std::size_t index) { return *shards_.at(index).service; }
  const InferenceService& shard(std::size_t index) const {
    return *shards_.at(index).service;
  }

  /// Fleet-aggregated lifecycle counters: sums over shards (peaks are the
  /// sum of per-shard peaks — an upper bound, not a simultaneous maximum).
  ServiceStats stats() const;

  double makespan_s() const noexcept { return makespan_s_; }
  /// Total cross-shard migrations so far (steals + evacuations).
  std::size_t steals() const;
  /// Failover migrations so far: requests moved off dead shards (pending
  /// evacuations + re-adopted mid-task failures). A subset of steals().
  std::size_t evacuations() const noexcept { return evacuations_; }
  Cluster& cluster() noexcept { return *cluster_; }
  RoutingPolicy& routing() noexcept { return *routing_; }
  const FleetOptions& options() const noexcept { return options_; }

  // ---- dynamic shard membership ---------------------------------------------

  /// Moves `node` from the shard that owns it to `to_shard`, rescoping
  /// both engines (in-flight work keeps its dispatched plan). Bumps
  /// membership_epoch(). Throws std::invalid_argument when `node` is a
  /// shard leader, unassigned, already on `to_shard` is fine (no-op), or
  /// the fleet is a single whole-cluster shard.
  void reassign(std::size_t node, std::size_t to_shard);

  /// Monotonic version of the fleet's shard-membership assignment; bumps
  /// on every effective reassign() (failover orphan merges included).
  std::uint64_t membership_epoch() const noexcept { return membership_epoch_; }

  /// Shard index currently owning `node`, or shard_count() when
  /// unassigned. The whole-cluster single-shard fleet owns every node.
  std::size_t shard_of(std::size_t node) const;

  /// Failover's shard-death predicate: leader down, or live membership
  /// below the policy floor.
  bool shard_dead(std::size_t index) const;

 private:
  struct Shard {
    std::unique_ptr<InferenceService> service;
  };

  void route_now(const RequestSpec& spec);
  void rebalance();
  void pump();
  void on_shard_terminal(const RequestRecord& record, double now_s);
  void on_node_event(const NodeEvent& event);
  /// Live (not dead) shard best suited to absorb one more request, or
  /// shard_count() when none qualifies. `except` is excluded;
  /// `require_room` additionally demands free admission room (evacuation
  /// must not feed a sibling that would immediately shed the request).
  std::size_t best_live_shard(std::size_t except, bool require_room = false) const;
  /// Drains dead shards' parked pending queues onto live shards.
  void evacuate_dead_shards();
  /// Re-adopts a mid-task failure from shard `from` onto a live sibling.
  /// Returns false when local handling (retry / kFailed) should proceed.
  bool failover_take(std::size_t from, const RequestSpec& spec, int attempts);
  /// Reassigns a dead shard's surviving non-leader nodes to live shards.
  void merge_orphans(std::size_t dead_shard);

  Cluster* cluster_;
  RoutingPolicy* routing_;
  FleetOptions options_;
  std::vector<Shard> shards_;
  ArrivalProcess* source_ = nullptr;
  double makespan_s_ = 0.0;
  std::size_t evacuations_ = 0;
  std::uint64_t membership_epoch_ = 0;
  std::size_t observer_id_ = 0;
};

}  // namespace hidp::runtime
