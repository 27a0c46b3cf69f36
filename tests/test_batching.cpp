// Continuous batching: max_batch=1 bit-identity with the seed paths, group
// formation / hold-timer / FSM-window join mechanics, per-class stats
// balance over grouped outcomes, group-failure retry re-forming smaller
// groups, preemptible reservation reclaim, batch-aware cost-model tables,
// and degradation-aware fleet routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/hidp_strategy.hpp"
#include "partition/cost_model.hpp"
#include "runtime/fleet.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"
#include "sim/resource.hpp"

namespace hidp::runtime {
namespace {

using dnn::zoo::ModelId;

std::vector<platform::NodeModel> uniform_cluster(std::size_t n) {
  std::vector<platform::NodeModel> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(platform::make_device("Jetson TX2"));
  return nodes;
}

/// Plans one 0.5 s compute task on node 0 plus one on node 1 while node 1
/// is up (independent, so they run concurrently); leader-only otherwise.
/// Phase-free, so runs start at the dispatch instant — churn timing in the
/// preemption tests is exact.
class TwoNodeStrategy : public IStrategy {
 public:
  std::string name() const override { return "TwoNode"; }
  PlanResult plan(const PlanRequest& request) override {
    const auto& available = request.snapshot.available;
    Plan plan;
    plan.strategy = name();
    plan.leader = request.snapshot.leader;
    PlanTask a;
    a.kind = PlanTask::Kind::kCompute;
    a.node = 0;
    a.proc = 0;
    a.seconds = 0.5;
    a.flops = 1e9;
    plan.tasks.push_back(a);
    if (available.size() > 1 && available[1]) {
      PlanTask b = a;
      b.node = 1;
      plan.tasks.push_back(b);
      plan.nodes_used = 2;
    } else {
      plan.nodes_used = 1;
    }
    return PlanResult{std::move(plan), false};
  }
};

void expect_bit_identical(const std::vector<RequestRecord>& a,
                          const std::vector<RequestRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].strategy, b[i].strategy);
    EXPECT_EQ(a[i].mode, b[i].mode);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].nodes_used, b[i].nodes_used);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].dispatch_s, b[i].dispatch_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].finish_s, b[i].finish_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].flops, b[i].flops) << "request " << a[i].id;
  }
}

void expect_class_balance(const ServiceStats& stats) {
  for (std::size_t c = 0; c < kQosClassCount; ++c) {
    const QosClassStats& s = stats.per_class[c];
    EXPECT_EQ(s.submitted - s.stolen_away + s.stolen_in,
              s.completed + s.rejected + s.dropped + s.deadline_misses + s.failed)
        << "class " << c;
  }
  EXPECT_EQ(stats.submitted - stats.stolen_away + stats.stolen_in,
            stats.completed + stats.rejected + stats.dropped + stats.deadline_misses +
                stats.failed);
}

/// max_batch=1 must keep the service the same computation as the seed: the
/// whole batching layer (hold knob included) has to be inert, reproducing
/// the closed-world engine run bit for bit on the paper workloads.
TEST(BatchingIdentity, MaxBatchOneReproducesEngineRun) {
  ModelSet models;
  util::Rng mix_rng_a(21), mix_rng_b(21);
  const std::vector<ModelId> mix{ModelId::kEfficientNetB0, ModelId::kVgg19};
  const std::vector<std::vector<RequestSpec>> workloads_a{
      periodic_stream(models.graph(ModelId::kResNet152), 8, 0.2),
      staggered_streams(models, dnn::zoo::all_models(), 0.5, 3, 0.25),
      mixed_stream(models, mix, 10, 0.05, mix_rng_a),
  };
  const std::vector<std::vector<RequestSpec>> workloads_b{
      periodic_stream(models.graph(ModelId::kResNet152), 8, 0.2),
      staggered_streams(models, dnn::zoo::all_models(), 0.5, 3, 0.25),
      mixed_stream(models, mix, 10, 0.05, mix_rng_b),
  };
  for (std::size_t w = 0; w < workloads_a.size(); ++w) {
    Cluster batch_cluster(platform::paper_cluster());
    core::HidpStrategy batch_strategy;
    ExecutionEngine engine(batch_cluster, batch_strategy, 1);
    const auto batch_records = engine.run(workloads_a[w]);

    Cluster service_cluster(platform::paper_cluster());
    core::HidpStrategy service_strategy;
    ServiceOptions options;
    options.max_batch = 1;
    options.max_wait_s = 0.25;  // must be ignored at batch 1
    InferenceService service(service_cluster, service_strategy, 1, options);
    ReplayArrivals arrivals(workloads_b[w]);
    service.attach(&arrivals);
    const auto service_records = service.run();

    expect_bit_identical(batch_records, service_records);
    EXPECT_EQ(service.stats().groups_dispatched, 0u);
    EXPECT_EQ(service.stats().group_joins, 0u);
    EXPECT_EQ(service.stats().batched_requests, 0u);
  }
}

/// Same-model simultaneous arrivals coalesce into one group of max_batch;
/// every member gets its own terminal record off the shared run.
TEST(BatchingFormation, CoalescesSameModelArrivalsIntoOneGroup) {
  ModelSet models;
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy strategy;
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_batch = 4;
  options.max_wait_s = 0.05;
  InferenceService service(cluster, strategy, 1, options);
  ReplayArrivals arrivals(
      periodic_stream(models.graph(ModelId::kEfficientNetB0), 4, 0.0));
  service.attach(&arrivals);
  const auto records = service.run();

  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(service.stats().completed, 4u);
  EXPECT_EQ(service.stats().groups_dispatched, 1u);
  EXPECT_EQ(service.stats().batched_requests, 4u);
  // One shared run: identical dispatch and finish stamps across members.
  for (const RequestRecord& record : records) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(record.dispatch_s, records.front().dispatch_s);
    EXPECT_EQ(record.finish_s, records.front().finish_s);
  }
  expect_class_balance(service.stats());
}

/// An under-full group waits max_wait_s for peers, then dispatches anyway.
TEST(BatchingFormation, HoldTimerDispatchesUnderfullGroupAtExpiry) {
  ModelSet models;
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy strategy;
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_batch = 4;
  options.max_wait_s = 0.05;
  InferenceService service(cluster, strategy, 1, options);
  ReplayArrivals arrivals(
      periodic_stream(models.graph(ModelId::kEfficientNetB0), 2, 0.0));
  service.attach(&arrivals);
  const auto records = service.run();

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(service.stats().completed, 2u);
  EXPECT_EQ(service.stats().groups_dispatched, 1u);
  EXPECT_EQ(service.stats().batched_requests, 2u);
  // Dispatch happened at (or after) the hold expiry, not at arrival.
  for (const RequestRecord& record : records) {
    EXPECT_GE(record.dispatch_s, 0.05);
  }
}

/// An arrival landing inside a dispatched run's FSM-phase window joins the
/// group instead of queueing behind it: continuous batching's storm case.
/// With max_wait_s=0 the first request dispatches alone (as a joinable
/// size-1 group) and HiDP's planning phases keep its window open ~15 ms.
TEST(BatchingJoin, ArrivalInsideFsmWindowJoinsOpenGroup) {
  ModelSet models;
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy strategy;
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_batch = 4;
  InferenceService service(cluster, strategy, 1, options);
  ReplayArrivals arrivals(
      periodic_stream(models.graph(ModelId::kEfficientNetB0), 2, 0.005));
  service.attach(&arrivals);
  const auto records = service.run();

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(service.stats().completed, 2u);
  EXPECT_EQ(service.stats().group_joins, 1u);
  // The join replanned the shared run: both members carry the same (moved)
  // dispatch stamp and finish together.
  EXPECT_EQ(records[0].dispatch_s, records[1].dispatch_s);
  EXPECT_EQ(records[0].finish_s, records[1].finish_s);
  expect_class_balance(service.stats());
}

/// Mixed-class storm through bounded admission, shedding, expiry drops and
/// batching: every per-class slice must still balance submitted against
/// terminal outcomes — grouped outcomes attribute per member, not per run.
TEST(BatchingStats, PerClassBalanceHoldsUnderGroupedOutcomes) {
  ModelSet models;
  std::vector<RequestSpec> storm =
      periodic_stream(models.graph(ModelId::kEfficientNetB0), 60, 0.002);
  const QosClass classes[3] = {QosClass::kBestEffort, QosClass::kStandard,
                               QosClass::kInteractive};
  for (std::size_t i = 0; i < storm.size(); ++i) {
    storm[i].qos = classes[i % 3];
    if (i % 4 == 0) storm[i].deadline_s = storm[i].arrival_s + 0.05;
  }
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy strategy;
  ServiceOptions options;
  options.max_in_flight = 2;
  options.max_pending = 8;
  options.max_batch = 4;
  options.max_wait_s = 0.004;
  options.drop_expired_pending = true;
  options.shed_policy = LoadShedPolicy::kDropOldest;
  InferenceService service(cluster, strategy, 1, options);
  ReplayArrivals arrivals(storm);
  service.attach(&arrivals);
  const auto records = service.run();

  ASSERT_EQ(records.size(), 60u);
  EXPECT_EQ(service.stats().submitted, 60u);
  expect_class_balance(service.stats());
  EXPECT_GT(service.stats().groups_dispatched, 0u);
}

/// Mid-run node churn fails the whole group; every member re-enters the
/// pending queue and the retry re-forms a (possibly smaller) group on the
/// survivors, completing without terminal failures.
TEST(BatchingFailure, GroupFailureRetryReformsAndCompletes) {
  ModelSet models;
  Cluster cluster(uniform_cluster(2));
  TwoNodeStrategy strategy;
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_batch = 2;
  options.max_wait_s = 0.01;
  options.max_retries = 1;
  InferenceService service(cluster, strategy, 0, options);
  ReplayArrivals arrivals(periodic_stream(models.graph(ModelId::kEfficientNetB0), 2, 0.0));
  service.attach(&arrivals);
  cluster.simulator().schedule_at(0.1, [&] { cluster.set_node_available(1, false); });
  const auto records = service.run();

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(service.stats().completed, 2u);
  EXPECT_EQ(service.stats().failed, 0u);
  // Both members burned one retry, and the re-formed group is a second
  // dispatched group (the first fills max_batch at t=0, the retry re-forms
  // at the churn instant).
  EXPECT_EQ(service.stats().retries, 2u);
  EXPECT_EQ(service.stats().groups_dispatched, 2u);
  for (const RequestRecord& record : records) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted);
  }
  expect_class_balance(service.stats());
}

/// The failed run's unexecuted compute reservations are reclaimed at the
/// failure instant: the retry's leader task starts immediately instead of
/// queueing behind the dead run's reservation. Group dispatched at t=0
/// (fills max_batch), churn at 0.1 → retry finishes at 0.1 + 0.5, not at
/// the dead reservation's end (0.5) + 0.5.
TEST(BatchingFailure, FailedRunReservationsAreReclaimedAtFailureInstant) {
  ModelSet models;
  Cluster cluster(uniform_cluster(2));
  TwoNodeStrategy strategy;
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_batch = 2;
  options.max_wait_s = 0.01;
  InferenceService service(cluster, strategy, 0, options);
  ReplayArrivals arrivals(periodic_stream(models.graph(ModelId::kEfficientNetB0), 2, 0.0));
  service.attach(&arrivals);
  cluster.simulator().schedule_at(0.1, [&] { cluster.set_node_available(1, false); });
  const auto records = service.run();

  ASSERT_EQ(records.size(), 2u);
  for (const RequestRecord& record : records) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted);
    EXPECT_DOUBLE_EQ(record.finish_s, 0.6);
  }
}

TEST(PreemptibleReservations, CancelReclaimsRemainderAndRecomputesWatermark) {
  sim::Simulator sim;
  sim::Resource proc(sim, "proc");
  const std::uint64_t job = proc.submit(0.0, 10.0, [](sim::Time) {});
  EXPECT_DOUBLE_EQ(proc.free_at(), 10.0);
  EXPECT_DOUBLE_EQ(proc.busy_time(), 10.0);

  double reclaimed = -1.0;
  double second_job_end = -1.0;
  sim.schedule_at(4.0, [&] {
    reclaimed = proc.cancel(job, 4.0);
    // The window is reusable immediately: a new job starts at the cancel
    // instant instead of queueing behind the dead reservation.
    proc.submit(4.0, 2.0, [&](sim::Time t) { second_job_end = t; });
  });
  sim.run();

  EXPECT_DOUBLE_EQ(reclaimed, 6.0);
  EXPECT_DOUBLE_EQ(second_job_end, 6.0);
  EXPECT_DOUBLE_EQ(proc.free_at(), 6.0);
  EXPECT_DOUBLE_EQ(proc.busy_time(), 6.0);  // 4 executed + 2 new
  ASSERT_EQ(proc.intervals().size(), 2u);
  EXPECT_TRUE(proc.intervals()[0].truncated);
  EXPECT_DOUBLE_EQ(proc.intervals()[0].end, 4.0);
  // Cancelling an ended or unknown job is a harmless no-op.
  EXPECT_DOUBLE_EQ(proc.cancel(job, 7.0), 0.0);
  EXPECT_DOUBLE_EQ(proc.cancel(9999, 7.0), 0.0);
}

/// Batch-aware cost tables: FLOPs and boundary bytes scale with the batch,
/// per-layer dispatch (layer counts) does not — so a batch of n costs less
/// than n solo runs on dispatch-bound work.
TEST(BatchingCostModel, TablesScaleFlopsAndBytesButNotLayerCounts) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  const std::vector<platform::NodeModel> nodes = uniform_cluster(2);
  const net::NetworkSpec network(nodes);
  const partition::ClusterCostModel cost1(model, nodes, network,
                                          partition::NodeExecutionPolicy::kDefaultProcessor);
  const partition::ClusterCostModel cost4(
      model, nodes, network, partition::NodeExecutionPolicy::kDefaultProcessor,
      /*bytes_per_element=*/4, partition::ClusterCostModel::kDefaultMaxCandidates,
      /*batch_size=*/4);
  ASSERT_EQ(cost1.candidates(), cost4.candidates());
  const int last = static_cast<int>(cost1.candidates().size()) - 1;
  const platform::WorkProfile whole1 = cost1.profile_between(0, last);
  const platform::WorkProfile whole4 = cost4.profile_between(0, last);
  EXPECT_DOUBLE_EQ(whole4.total(), 4.0 * whole1.total());
  EXPECT_DOUBLE_EQ(whole4.layer_count(), whole1.layer_count());
  for (int c = 0; c <= last; ++c) {
    EXPECT_EQ(cost4.boundary_bytes(c), 4 * cost1.boundary_bytes(c));
  }
  // Dispatch amortisation: pricing the whole net on one processor, a batch
  // of 4 is strictly cheaper than 4 solo passes (layer launches paid once).
  const double solo = cost1.proc_time(0, 0, 0, last);
  const double batched = cost4.proc_time(0, 0, 0, last);
  EXPECT_LT(batched, 4.0 * solo);
  EXPECT_GT(batched, solo);
}

TEST(BatchingCostModel, WorkProfileBatchedKeepsLayerCount) {
  ModelSet models;
  const platform::WorkProfile profile =
      platform::WorkProfile::from_graph(models.graph(ModelId::kVgg19));
  const platform::WorkProfile batched = profile.batched(3);
  EXPECT_DOUBLE_EQ(batched.total(), 3.0 * profile.total());
  EXPECT_DOUBLE_EQ(batched.layer_count(), profile.layer_count());
}

/// Adaptive hold regression: with no gap sample yet (the very first
/// arrivals of a model) the adaptive window falls back to the fixed
/// max_wait_s, so a single under-full group dispatches identically with
/// the knob on or off — and the knob defaults off.
TEST(AdaptiveWait, NoGapSampleFallsBackToFixedWindow) {
  ModelSet models;
  const auto workload = periodic_stream(models.graph(ModelId::kEfficientNetB0), 2, 0.0);
  std::vector<std::vector<RequestRecord>> runs;
  for (const bool adaptive : {false, true}) {
    Cluster cluster(platform::paper_cluster());
    core::HidpStrategy strategy;
    ServiceOptions options;
    options.max_in_flight = 1;
    options.max_batch = 4;
    options.max_wait_s = 0.05;
    options.adaptive_wait = adaptive;
    InferenceService service(cluster, strategy, 1, options);
    ReplayArrivals arrivals(workload);
    service.attach(&arrivals);
    runs.push_back(service.run());
  }
  expect_bit_identical(runs[0], runs[1]);
  // Both arrive at t=0: the observed gap is 0, no positive EWMA forms, and
  // the hold still runs the full fixed window.
  for (const RequestRecord& record : runs[1]) EXPECT_GE(record.dispatch_s, 0.05);
}

/// Once the stream has trained the gap EWMA, an under-full tail group's
/// hold scales to a few arrival gaps instead of stalling its head for the
/// full fixed knob.
TEST(AdaptiveWait, TrainedGapShortensTailGroupHold) {
  ModelSet models;
  // Six requests at a 0.05 s gap with max_batch 4: the first group fills
  // and dispatches while training the EWMA; the two-member tail group then
  // holds for (max_batch - 2) expected gaps = 0.1 s instead of 0.5 s.
  const std::vector<RequestSpec> workload =
      periodic_stream(models.graph(ModelId::kResNet152), 6, 0.05);
  double dispatch_fixed = 0.0, dispatch_adaptive = 0.0;
  for (const bool adaptive : {false, true}) {
    Cluster cluster(platform::paper_cluster());
    core::HidpStrategy strategy;
    ServiceOptions options;
    options.max_in_flight = 1;
    options.max_batch = 4;
    options.max_wait_s = 0.5;
    options.adaptive_wait = adaptive;
    InferenceService service(cluster, strategy, 1, options);
    ReplayArrivals arrivals(workload);
    service.attach(&arrivals);
    const auto records = service.run();
    ASSERT_EQ(records.size(), 6u);
    EXPECT_EQ(service.stats().completed, 6u);
    (adaptive ? dispatch_adaptive : dispatch_fixed) = records[4].dispatch_s;
  }
  EXPECT_LT(dispatch_adaptive, dispatch_fixed);
}

/// Batch-aware deadline projection: with no execution EWMA yet, the seed
/// filter lets a doomed candidate ride the group (span unknown); pricing
/// the actual batched plan excludes it up front.
TEST(BatchAwareDeadline, PlanProjectionExcludesDoomedCandidate) {
  ModelSet models;
  std::vector<RequestSpec> workload =
      periodic_stream(models.graph(ModelId::kEfficientNetB0), 2, 0.0);
  // The second request could never finish by its deadline (planning phases
  // alone exceed 1 ms); the head has none.
  workload[1].deadline_s = 0.001;
  for (const bool batch_aware : {false, true}) {
    Cluster cluster(platform::paper_cluster());
    core::HidpStrategy strategy;
    ServiceOptions options;
    options.max_in_flight = 1;
    options.max_batch = 2;
    options.max_wait_s = 0.01;
    options.batch_aware_deadline = batch_aware;
    InferenceService service(cluster, strategy, 1, options);
    ReplayArrivals arrivals(workload);
    service.attach(&arrivals);
    const auto records = service.run();
    ASSERT_EQ(records.size(), 2u);
    if (batch_aware) {
      // Projection priced the 2-wide plan, saw the blown deadline and kept
      // the candidate out: no multi-member group forms.
      EXPECT_EQ(service.stats().batched_requests, 0u);
    } else {
      // avg_execution_s_ is still 0 at formation: the EWMA filter is blind
      // and the doomed request rides the batch.
      EXPECT_EQ(service.stats().batched_requests, 2u);
    }
    expect_class_balance(service.stats());
  }
}

/// Degradation-aware routing: with equal queue state, a shard whose worker
/// radio degraded loses to a healthy one; undegraded, the tie falls to the
/// lowest index as in least-loaded routing.
TEST(BatchingFleet, DegradationAwareRoutingAvoidsDegradedShard) {
  ModelSet models;
  for (const bool degrade : {false, true}) {
    Cluster cluster(uniform_cluster(4));
    core::HidpStrategy s0, s1;
    DegradationAwareRouting routing;
    ServiceFleet fleet(cluster,
                       {{&s0, {0, 1}, 0, ServiceOptions{}}, {&s1, {2, 3}, 2, ServiceOptions{}}},
                       routing);
    if (degrade) cluster.set_radio_scale(1, 0.3, 1.0);
    RequestSpec spec;
    spec.id = 0;
    spec.model = &models.graph(ModelId::kEfficientNetB0);
    spec.arrival_s = 0.0;
    fleet.submit(spec);
    fleet.run();
    const std::size_t expected = degrade ? 1u : 0u;
    EXPECT_EQ(fleet.shard(expected).stats().submitted, 1u) << "degrade=" << degrade;
    EXPECT_EQ(fleet.shard(1 - expected).stats().submitted, 0u) << "degrade=" << degrade;
  }
}

/// Group-aware stealing: a batching thief takes a coherent same-model group
/// in one rebalance pass and serves it as a batch.
TEST(BatchingFleet, BatchingThiefStealsWholeGroup) {
  ModelSet models;
  Cluster cluster(uniform_cluster(4));
  core::HidpStrategy s0, s1;
  RoundRobinRouting routing;  // routes at submission; shard 0 gets the burst
  ServiceOptions victim_options;
  victim_options.max_in_flight = 1;
  FleetOptions fleet_options;
  fleet_options.work_stealing = true;
  ServiceOptions thief_options;
  thief_options.max_in_flight = 1;
  thief_options.max_batch = 4;
  thief_options.max_wait_s = 0.005;
  // All requests land on shard 0 (round-robin over a model list of one
  // stream: force with explicit routing below instead).
  ServiceFleet fleet(cluster,
                     {{&s0, {0, 1}, 0, victim_options}, {&s1, {2, 3}, 2, thief_options}},
                     routing, fleet_options);
  // Saturate shard 0 directly so its queue backs up while shard 1 idles.
  std::vector<RequestSpec> burst =
      periodic_stream(models.graph(ModelId::kEfficientNetB0), 6, 0.0);
  for (const RequestSpec& spec : burst) fleet.shard(0).submit(spec);
  const auto records = fleet.run();

  ASSERT_EQ(records.size(), 6u);
  for (const RequestRecord& record : records) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted);
  }
  // The thief adopted pending work from the victim as a group and batched
  // at least part of it.
  EXPECT_GT(fleet.shard(1).stats().stolen_in, 1u);
  EXPECT_GT(fleet.shard(1).stats().batched_requests + fleet.shard(1).stats().group_joins,
            0u);
  expect_class_balance(fleet.stats());
}

/// Steal x batching: a lone request held for batch peers is committed to
/// its shard, not backlog. An idle shard that stole it would hold it in turn
/// and offer it straight back, ping-ponging at one instant forever.
TEST(BatchingFleet, LoneHeldRequestIsNotStolenBackAndForth) {
  ModelSet models;
  Cluster cluster(uniform_cluster(4));
  core::HidpStrategy s0, s1;
  LeastLoadedRouting routing;
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_batch = 2;
  options.max_wait_s = 0.004;
  FleetOptions fleet_options;
  fleet_options.work_stealing = true;
  ServiceFleet fleet(cluster, {{&s0, {0, 1}, 0, options}, {&s1, {2, 3}, 2, options}}, routing,
                     fleet_options);
  RequestSpec spec;
  spec.id = 0;
  spec.model = &models.graph(ModelId::kEfficientNetB0);
  spec.arrival_s = 0.0;
  fleet.submit(spec);
  const auto records = fleet.run();

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(fleet.stats().stolen_in, 0u);
  expect_class_balance(fleet.stats());
}

}  // namespace
}  // namespace hidp::runtime
