#include "runtime/fleet.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "net/prober.hpp"
#include "util/hash.hpp"

namespace hidp::runtime {

namespace {

std::size_t checked_route(RoutingPolicy& policy, const RequestSpec& spec,
                          const ServiceFleet& fleet) {
  const std::size_t shard = policy.route(spec, fleet);
  if (shard >= fleet.shard_count()) {
    throw std::out_of_range("routing policy returned shard index out of range");
  }
  return shard;
}

}  // namespace

std::size_t RoundRobinRouting::route(const RequestSpec& spec, const ServiceFleet& fleet) {
  (void)spec;
  const std::size_t shard = next_ % fleet.shard_count();
  ++next_;
  return shard;
}

std::size_t LeastLoadedRouting::route(const RequestSpec& spec, const ServiceFleet& fleet) {
  (void)spec;
  std::size_t best = 0;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < fleet.shard_count(); ++i) {
    const InferenceService& shard = fleet.shard(i);
    const std::size_t load = shard.pending() + shard.in_flight() + shard.inbound();
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

std::size_t ModelAffinityRouting::shard_for(const dnn::DnnGraph& model,
                                            std::size_t shard_count) {
  // Hash of the model name: stable across runs and processes (the graph's
  // address is not).
  const std::uint64_t h = util::Fnv1a().mix_bytes(model.name()).digest();
  return static_cast<std::size_t>(h % shard_count);
}

std::size_t ModelAffinityRouting::route(const RequestSpec& spec, const ServiceFleet& fleet) {
  return shard_for(*spec.model, fleet.shard_count());
}

std::size_t QosWeightedRouting::route(const RequestSpec& spec, const ServiceFleet& fleet) {
  (void)spec;
  constexpr std::size_t kWeight[kQosClassCount] = {1, 2, 4};  // BE, standard, interactive
  std::size_t best = 0;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < fleet.shard_count(); ++i) {
    const InferenceService& shard = fleet.shard(i);
    std::size_t load = kWeight[static_cast<std::size_t>(QosClass::kStandard)] *
                       (shard.in_flight() + shard.inbound());
    for (std::size_t c = 0; c < kQosClassCount; ++c) {
      load += kWeight[c] * shard.pending_of(static_cast<QosClass>(c));
    }
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

std::size_t DegradationAwareRouting::route(const RequestSpec& spec,
                                           const ServiceFleet& fleet) {
  (void)spec;
  constexpr std::size_t kWeight[kQosClassCount] = {1, 2, 4};  // BE, standard, interactive
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  util::Rng rng(0);  // noise 0: probing is deterministic, the rng is idle
  for (std::size_t i = 0; i < fleet.shard_count(); ++i) {
    const InferenceService& shard = fleet.shard(i);
    double load = 0.0;
    if (base_ == Base::kQosWeighted) {
      load = static_cast<double>(kWeight[static_cast<std::size_t>(QosClass::kStandard)] *
                                 (shard.in_flight() + shard.inbound()));
      for (std::size_t c = 0; c < kQosClassCount; ++c) {
        load += static_cast<double>(kWeight[c] * shard.pending_of(static_cast<QosClass>(c)));
      }
    } else {
      load = static_cast<double>(shard.pending() + shard.in_flight() + shard.inbound());
    }
    // One deterministic probing round over the shard's slice: a member
    // whose measured rate to the leader fell below the degradation
    // threshold still serves, but every transfer it takes rides the slow
    // link — price that next to the queue depth instead of ignoring it.
    const ExecutionEngine& engine = shard.engine();
    const ClusterView& scope = engine.scope();
    const net::ClusterProber prober(scope.cluster().network().spec(),
                                    /*probe_bytes=*/1024, /*noise_fraction=*/0.0);
    const net::ProbeReport report =
        prober.probe(engine.leader(), scope.visible_availability(), rng);
    double penalty = 0.0;
    for (const std::size_t node : scope.members()) {
      if (node == engine.leader()) continue;
      if (node < report.available.size() && !report.available[node]) {
        penalty += down_penalty_;
      } else if (node < report.degraded.size() && report.degraded[node]) {
        penalty += degraded_penalty_;
      }
    }
    const double score = load + penalty;
    if (score < best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

ServiceFleet::ServiceFleet(Cluster& cluster, const std::vector<FleetShard>& shards,
                           RoutingPolicy& routing, FleetOptions options)
    : cluster_(&cluster), routing_(&routing), options_(options) {
  if (shards.empty()) throw std::invalid_argument("ServiceFleet: no shards");
  std::unordered_set<const IStrategy*> strategies;
  std::vector<bool> claimed(cluster.size(), false);
  for (const FleetShard& config : shards) {
    if (config.strategy == nullptr) {
      throw std::invalid_argument("ServiceFleet: shard without strategy");
    }
    if (!strategies.insert(config.strategy).second) {
      throw std::invalid_argument(
          "ServiceFleet: shards must not share a strategy instance (each leader needs its "
          "own cost models and plan cache)");
    }
    if (config.nodes.empty() && shards.size() > 1) {
      throw std::invalid_argument(
          "ServiceFleet: whole-cluster shards are only valid in a 1-shard fleet");
    }
    const ClusterView view =
        config.nodes.empty() ? cluster.view() : cluster.shard(config.nodes);
    if (!config.nodes.empty()) {
      for (const std::size_t node : view.members()) {
        if (claimed[node]) {
          throw std::invalid_argument("ServiceFleet: shard node sets must be disjoint");
        }
        claimed[node] = true;
      }
    }
    const std::size_t leader =
        config.leader == FleetShard::kAutoLeader ? view.members().front() : config.leader;
    Shard shard;
    shard.service =
        std::make_unique<InferenceService>(view, *config.strategy, leader, config.service);
    shard.service->set_terminal_hook(
        [this](const RequestRecord& record, double now_s) { on_shard_terminal(record, now_s); });
    shards_.push_back(std::move(shard));
  }
  if ((options_.work_stealing || options_.failover.enabled) && shards_.size() > 1) {
    for (Shard& shard : shards_) {
      shard.service->set_state_hook([this] { rebalance(); });
    }
  }
  if (options_.failover.enabled && shards_.size() > 1) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i].service->set_failure_hook(
          [this, i](const RequestSpec& spec, int attempts) {
            return failover_take(i, spec, attempts);
          });
      // Keep the shard's own parking predicate aligned with the fleet's
      // death predicate: a below-floor shard must not dispatch from the
      // same queue the fleet is evacuating.
      shards_[i].service->set_liveness_hook([this, i] { return !shard_dead(i); });
    }
    // Registered after every shard's engine + service observers: by the
    // time the fleet reacts, mid-flight work has already failed over and
    // plan caches are invalidated.
    observer_id_ = cluster_->add_observer([this](const NodeEvent& event) {
      on_node_event(event);
    });
  }
}

ServiceFleet::~ServiceFleet() {
  if (observer_id_ != 0) cluster_->remove_observer(observer_id_);
}

RequestHandle ServiceFleet::submit(const RequestSpec& spec) {
  if (spec.model == nullptr) throw std::invalid_argument("request without model");
  // Pass-through and load-independent policies route immediately (a 1-shard
  // fleet must be event-for-event identical to a bare service); load-aware
  // policies defer to the arrival time so they see live shard state.
  if (shards_.size() == 1 || !routing_->routes_on_arrival()) {
    route_now(spec);
  } else {
    cluster_->simulator().schedule_at(spec.arrival_s, [this, spec] { route_now(spec); });
  }
  return RequestHandle{spec.id};
}

void ServiceFleet::route_now(const RequestSpec& spec) {
  std::size_t shard = shards_.size() == 1 ? 0 : checked_route(*routing_, spec, *this);
  // Failover front end: don't feed a dead shard when a live one exists.
  if (options_.failover.enabled && options_.failover.route_around_dead &&
      shards_.size() > 1 && shard_dead(shard)) {
    const std::size_t fallback = best_live_shard(shard);
    if (fallback < shards_.size()) shard = fallback;
  }
  shards_[shard].service->submit(spec);
}

std::size_t ServiceFleet::shard_of(std::size_t node) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].service->engine().scope().contains(node)) return i;
  }
  return shards_.size();
}

bool ServiceFleet::shard_dead(std::size_t index) const {
  const ExecutionEngine& engine = shards_[index].service->engine();
  const std::size_t leader = engine.leader();
  if (!cluster_->node_available(leader)) return true;
  std::size_t live = 0;
  for (const std::size_t node : engine.scope().members()) {
    // A worker partitioned from its leader is as useless to the shard as a
    // crashed one: the leader cannot ship it work or collect results.
    if (!cluster_->node_available(node)) continue;
    if (node != leader && !cluster_->link_up(leader, node)) continue;
    ++live;
  }
  return live < options_.failover.min_live_nodes;
}

std::size_t ServiceFleet::best_live_shard(std::size_t except, bool require_room) const {
  std::size_t best = shards_.size();
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i == except || shard_dead(i)) continue;
    const InferenceService& service = *shards_[i].service;
    if (require_room && service.admission_room() == 0) continue;
    const std::size_t load = service.pending() + service.in_flight() + service.inbound();
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

void ServiceFleet::on_node_event(const NodeEvent& event) {
  if (shards_.size() < 2) return;
  if (event.kind == NodeEvent::Kind::kDown) {
    evacuate_dead_shards();
    if (options_.failover.merge_orphans) {
      const std::size_t owner = shard_of(event.node);
      if (owner < shards_.size() && shard_dead(owner)) merge_orphans(owner);
    }
  } else if (event.kind == NodeEvent::Kind::kUp) {
    // A repaired shard may have free capacity again: let stealing pull
    // backlog toward it, and drain anything parked meanwhile.
    rebalance();
  } else if (event.kind == NodeEvent::Kind::kLink && event.peer != NodeEvent::kNoPeer) {
    if (!event.link_up) {
      // A partition can starve a shard below min_live_nodes without any
      // node going down — same evacuation as a crash.
      evacuate_dead_shards();
    } else {
      rebalance();
    }
  }
}

void ServiceFleet::evacuate_dead_shards() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!shard_dead(i)) continue;
    InferenceService& victim = *shards_[i].service;
    while (victim.pending() > 0) {
      // Only evacuate into admission room: adopted requests that a bounded
      // sibling would immediately shed are better off parked here, where a
      // repair event can still rescue them.
      const std::size_t target = best_live_shard(i, /*require_room=*/true);
      if (target >= shards_.size()) return;  // nowhere to go; stay parked
      const auto spec = victim.steal_pending();
      if (!spec) break;
      shards_[target].service->adopt(*spec);
      ++evacuations_;
    }
  }
}

bool ServiceFleet::failover_take(std::size_t from, const RequestSpec& spec, int attempts) {
  if (shards_.size() < 2) return false;
  // Take the request only when its own shard can no longer serve it: the
  // shard is dead, or its local retry budget just ran out (a live sibling
  // is a better last chance than terminal kFailed).
  const InferenceService& victim = *shards_[from].service;
  const bool local_retries_left =
      static_cast<std::size_t>(attempts) <= victim.options().max_retries;
  if (!shard_dead(from) && local_retries_left) return false;
  // Same admission gate as pending evacuation: adopting into a full
  // bounded sibling would shed work there (the request's or an innocent
  // displaced one) instead of serving it.
  const std::size_t target = best_live_shard(from, /*require_room=*/true);
  if (target >= shards_.size()) return false;
  shards_[target].service->adopt(spec);
  ++evacuations_;
  return true;
}

void ServiceFleet::merge_orphans(std::size_t dead_shard) {
  const ExecutionEngine& engine = shards_[dead_shard].service->engine();
  const std::size_t leader = engine.leader();
  // Copy: reassign() rescopes the engine, mutating the member list.
  const std::vector<std::size_t> members = engine.scope().members();
  for (const std::size_t node : members) {
    if (node == leader || !cluster_->node_available(node)) continue;
    // Smallest live shard by membership: spread the orphans.
    std::size_t target = shards_.size();
    std::size_t target_size = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (i == dead_shard || shard_dead(i)) continue;
      const std::size_t size = shards_[i].service->engine().scope().members().size();
      if (size < target_size) {
        target = i;
        target_size = size;
      }
    }
    if (target >= shards_.size()) return;  // no live shard to absorb them
    reassign(node, target);
  }
}

void ServiceFleet::reassign(std::size_t node, std::size_t to_shard) {
  if (to_shard >= shards_.size()) {
    throw std::invalid_argument("ServiceFleet::reassign: shard out of range");
  }
  if (node >= cluster_->size()) {
    throw std::invalid_argument("ServiceFleet::reassign: node out of range");
  }
  if (shards_.size() == 1) {
    throw std::invalid_argument(
        "ServiceFleet::reassign: single-shard fleets have no membership to move");
  }
  const std::size_t from = shard_of(node);
  if (from >= shards_.size()) {
    throw std::invalid_argument("ServiceFleet::reassign: node not assigned to any shard");
  }
  if (from == to_shard) return;
  ExecutionEngine& from_engine = shards_[from].service->engine();
  if (from_engine.leader() == node) {
    throw std::invalid_argument("ServiceFleet::reassign: cannot move a shard leader");
  }
  std::vector<std::size_t> from_members = from_engine.scope().members();
  from_members.erase(std::find(from_members.begin(), from_members.end(), node));
  std::vector<std::size_t> to_members =
      shards_[to_shard].service->engine().scope().members();
  to_members.push_back(node);
  from_engine.rescope(cluster_->shard(std::move(from_members)));
  shards_[to_shard].service->engine().rescope(cluster_->shard(std::move(to_members)));
  ++membership_epoch_;
}

void ServiceFleet::pump() {
  if (source_ == nullptr) return;
  while (auto spec = source_->next(cluster_->simulator().now())) submit(*spec);
}

void ServiceFleet::on_shard_terminal(const RequestRecord& record, double now_s) {
  if (source_ != nullptr) {
    source_->on_complete(record, now_s);
    pump();
  }
}

void ServiceFleet::rebalance() {
  if (shards_.size() < 2) return;
  // Failover sweep first: requests parked on shards that died (or were
  // routed there in-flight) move to live shards regardless of steal knobs.
  if (options_.failover.enabled) evacuate_dead_shards();
  if (!options_.work_stealing) return;
  while (true) {
    std::size_t thief = shards_.size();
    std::size_t thief_capacity = 0;
    std::size_t victim = shards_.size();
    std::size_t victim_backlog = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const InferenceService& service = *shards_[i].service;
      const std::size_t capacity = service.steal_capacity();
      if (capacity > thief_capacity) {
        thief = i;
        thief_capacity = capacity;
      }
      const std::size_t backlog = service.steal_backlog();
      if (backlog >= options_.steal_min_pending && backlog > victim_backlog) {
        victim = i;
        victim_backlog = backlog;
      }
    }
    // A thief is live with an empty queue and a free slot; a victim is dead
    // or has every slot busy — never the same shard. Within this loop each
    // adoption books a due arrival on the thief, shrinking its capacity, so
    // the loop ends. Stolen work cannot bounce back at once: its old shard
    // stays dead or busy until one of its runs ends or fails, so every
    // return costs such an event. A request a thief holds for batch peers
    // is committed to it, not backlog (steal_backlog).
    if (thief == shards_.size() || victim == shards_.size()) return;
    // A batching thief takes a coherent same-(model, QoS) group in one
    // migration — up to its batch width — so the stolen work arrives
    // already batchable instead of trickling over one request at a time.
    const std::size_t thief_batch = shards_[thief].service->options().max_batch;
    if (thief_batch > 1) {
      const std::vector<RequestSpec> group = shards_[victim].service->steal_pending_group(
          std::min(thief_capacity, thief_batch));
      if (group.empty()) return;
      for (const RequestSpec& spec : group) shards_[thief].service->adopt(spec);
      continue;
    }
    const auto spec = shards_[victim].service->steal_pending();
    if (!spec) return;
    shards_[thief].service->adopt(*spec);
  }
}

std::vector<RequestRecord> ServiceFleet::run() {
  // Drain loop mirroring InferenceService::run(): finalising requests
  // stranded on dead shards can release closed-loop sources, which then
  // need another drain. One iteration when nothing strands.
  while (true) {
    pump();
    cluster_->simulator().run();
    bool finalized = false;
    for (Shard& shard : shards_) {
      finalized = shard.service->finalize_stranded() || finalized;
    }
    if (!finalized) break;
  }
  std::vector<RequestRecord> out;
  makespan_s_ = 0.0;
  for (Shard& shard : shards_) {
    // The shared simulator is already drained; shard run() just collects.
    std::vector<RequestRecord> records = shard.service->run();
    makespan_s_ = std::max(makespan_s_, shard.service->makespan_s());
    out.insert(out.end(), std::make_move_iterator(records.begin()),
               std::make_move_iterator(records.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) { return a.id < b.id; });
  return out;
}

ServiceStats ServiceFleet::stats() const {
  ServiceStats total;
  for (const Shard& shard : shards_) {
    const ServiceStats& s = shard.service->stats();
    total.submitted += s.submitted;
    total.rejected += s.rejected;
    total.dropped += s.dropped;
    total.completed += s.completed;
    total.deadline_misses += s.deadline_misses;
    total.failed += s.failed;
    total.retries += s.retries;
    total.peak_pending += s.peak_pending;
    total.peak_in_flight += s.peak_in_flight;
    total.stolen_away += s.stolen_away;
    total.stolen_in += s.stolen_in;
    total.groups_dispatched += s.groups_dispatched;
    total.batched_requests += s.batched_requests;
    total.group_joins += s.group_joins;
    total.pipelined_requests += s.pipelined_requests;
    total.pipeline_replans += s.pipeline_replans;
    total.async_plans += s.async_plans;
    total.stale_plans += s.stale_plans;
    total.leader_reelections += s.leader_reelections;
    total.repaired_plans += s.repaired_plans;
    total.cold_replans += s.cold_replans;
    total.partial_repriced_rows += s.partial_repriced_rows;
    for (std::size_t c = 0; c < kQosClassCount; ++c) {
      total.per_class[c].submitted += s.per_class[c].submitted;
      total.per_class[c].completed += s.per_class[c].completed;
      total.per_class[c].rejected += s.per_class[c].rejected;
      total.per_class[c].dropped += s.per_class[c].dropped;
      total.per_class[c].deadline_misses += s.per_class[c].deadline_misses;
      total.per_class[c].failed += s.per_class[c].failed;
      total.per_class[c].stolen_away += s.per_class[c].stolen_away;
      total.per_class[c].stolen_in += s.per_class[c].stolen_in;
    }
  }
  return total;
}

std::size_t ServiceFleet::steals() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.service->stats().stolen_in;
  return total;
}

}  // namespace hidp::runtime
