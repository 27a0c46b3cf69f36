#include "scenarios.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace hidp;

namespace {

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w;
    w.name = "gateway_poisson";
    w.des_config = FleetConfig::kGateway;
    // Two EfficientNet-B0 per ResNet-152: the median stays inside one
    // model's latency mode instead of flipping between the two.
    w.mix = {ModelId::kEfficientNetB0, ModelId::kEfficientNetB0, ModelId::kResNet152};
    w.gateway_rate_hz = 100.0;
    w.gateway_share = 0.75;
    w.slo_p99_s = 0.2;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "des_fault_drain";
    w.des_config = FleetConfig::kFaultDrain;
    w.mix = {ModelId::kEfficientNetB0, ModelId::kResNet152, ModelId::kInceptionV3,
             ModelId::kVgg19};
    w.gateway_rate_hz = 55.0;
    w.gateway_share = 0.65;
    w.slo_p99_s = 0.5;
    // 16 fault traces: how much re-planning a trace causes varies from seed
    // to seed, and the throughput averages over all of them.
    w.drain_requests = 10000;
    w.drain_spacing_s = 0.04;
    w.drain_streams = 16;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "des_storm";
    w.des_config = FleetConfig::kStorm;
    // Mostly EfficientNet-B0, the dispatch-bound model batching amortises.
    w.mix = {ModelId::kEfficientNetB0, ModelId::kEfficientNetB0, ModelId::kEfficientNetB0,
             ModelId::kResNet152};
    w.gateway_rate_hz = 120.0;
    w.gateway_share = 0.6;
    w.slo_p99_s = 0.15;
    w.drain_requests = 10000;
    w.drain_spacing_s = 0.002;
    w.drain_streams = 8;
    out.push_back(w);
  }
  return out;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> table = make_workloads();
  return table;
}

/// 4x (Orin NX, TX2): every shard of either split gets the same hardware.
std::vector<platform::NodeModel> paired_cluster() {
  std::vector<platform::NodeModel> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(platform::make_device("Jetson Orin NX"));
    nodes.push_back(platform::make_device("Jetson TX2"));
  }
  return nodes;
}

runtime::QosClass draw_qos(util::Rng& rng, double interactive_share) {
  return rng.uniform() < interactive_share ? runtime::QosClass::kInteractive
                                           : runtime::QosClass::kStandard;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : workloads()) out.push_back(w.name);
  return out;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return util::Fnv1a().mix(seed).mix(stream).digest();
}

std::unique_ptr<runtime::IStrategy> make_strategy(const StrategyHooks& hooks,
                                                  const core::HidpStrategy::Options& options,
                                                  const char* span_name, int tid,
                                                  core::HidpStrategy** inner_out) {
  auto inner = std::make_unique<core::HidpStrategy>(options);
  if (inner_out != nullptr) *inner_out = inner.get();
  if (hooks.timings == nullptr) return inner;
  return std::make_unique<TimedStrategy>(std::move(inner), *hooks.timings, *hooks.log,
                                         *hooks.spans, span_name, tid, hooks.parent_span);
}

FleetRig::FleetRig(FleetConfig config, StrategyHooks hooks)
    : cluster_(std::make_unique<runtime::Cluster>(paired_cluster())) {
  const std::size_t shard_count = config == FleetConfig::kGateway ? 4 : 2;
  const std::size_t span = cluster_->size() / shard_count;
  core::HidpStrategy::Options strategy_options;
  strategy_options.delta_replanning = config == FleetConfig::kFaultDrain;
  std::vector<runtime::FleetShard> shards;
  for (std::size_t s = 0; s < shard_count; ++s) {
    core::HidpStrategy* inner = nullptr;
    strategies_.push_back(make_strategy(hooks, strategy_options, "strategy.plan",
                                        static_cast<int>(10 + s), &inner));
    inner_.push_back(inner);
    runtime::FleetShard shard;
    shard.strategy = strategies_.back().get();
    for (std::size_t n = 0; n < span; ++n) shard.nodes.push_back(s * span + n);
    shard.leader = s * span + 1;  // the shard's TX2, as in the paper's set-up
    if (config != FleetConfig::kGateway) {
      shard.service.max_in_flight = 2;
      shard.service.max_pending = 16;
      shard.service.shed_policy = runtime::LoadShedPolicy::kRejectNewest;
    }
    if (config == FleetConfig::kFaultDrain) {
      shard.service.transfer_timeout_factor = 4.0;
      shard.service.max_retries = 3;
      shard.service.delta_replanning = true;
    }
    if (config == FleetConfig::kStorm) {
      shard.service.max_batch = 8;
      shard.service.max_wait_s = 0.004;
    }
    shards.push_back(std::move(shard));
  }
  runtime::FleetOptions options;
  options.failover.enabled = config == FleetConfig::kFaultDrain;
  // Work stealing stays off in the storm: combined with continuous batching
  // it exhausts memory in the fleet (see perfbench/README.md).
  fleet_ = std::make_unique<runtime::ServiceFleet>(*cluster_, shards, routing_, options);
  // Task traces grow with every task of a long drain; the benchmark reads
  // request records only.
  for (std::size_t s = 0; s < shard_count; ++s) fleet_->shard(s).engine().set_trace_capacity(0);
}

void FleetRig::warm(const runtime::ModelSet& models, const std::vector<ModelId>& mix) {
  for (std::size_t s = 0; s < fleet_->shard_count(); ++s) {
    runtime::ExecutionEngine& engine = fleet_->shard(s).engine();
    std::vector<ModelId> seen;
    for (const ModelId id : mix) {
      if (std::find(seen.begin(), seen.end(), id) != seen.end()) continue;
      seen.push_back(id);
      const runtime::PlanRequest request =
          engine.make_plan_request(models.graph(id), runtime::QosClass::kStandard, 0.0, 0);
      // Straight into HiDP, past any timing decorator: warm-up is set-up.
      if (inner_[s]->plan(request).plan.empty()) {
        throw std::runtime_error("perfbench: warm-up plan came back empty");
      }
    }
  }
}

void FleetRig::start_faults(double horizon_s, std::uint64_t seed) {
  // MTBF churn over all of shard 0 (its leader included, so the shard dies
  // outright and failover evacuates it), closed by a repair wave.
  runtime::MtbfChurn::Options churn;
  churn.mtbf_s = 2.0;
  churn.mttr_s = 1.5;
  churn.horizon_s = horizon_s;
  churn.seed = sub_seed(seed, 101);
  churn.nodes = {0, 1, 2, 3};
  churn_.push_back(std::make_unique<runtime::MtbfChurn>(churn));
  std::vector<runtime::ChurnEvent> scripted;
  for (std::size_t node = 0; node < 4; ++node) {
    scripted.push_back({horizon_s, node, runtime::ChurnEvent::Action::kRepair, 1.0});
  }
  // DVFS throttle waves on one Orin per shard, every 5 simulated seconds.
  const int waves = static_cast<int>(horizon_s / 5.0);
  for (int k = 1; k <= waves; ++k) {
    const double t = horizon_s * static_cast<double>(k) / static_cast<double>(waves + 1);
    const double scale = (k % 2 != 0) ? 0.7 : 1.0;
    scripted.push_back({t, 0, runtime::ChurnEvent::Action::kDvfs, scale});
    scripted.push_back({t, 4, runtime::ChurnEvent::Action::kDvfs, scale});
  }
  churn_.push_back(std::make_unique<runtime::ScriptedChurn>(std::move(scripted)));
  // Gilbert-Elliott radio bursts on both shards' workers (leaders healthy),
  // closed by a heal wave.
  runtime::GilbertElliottDegradation::Options burst;
  burst.nodes = {0, 2, 3, 4, 6, 7};
  burst.good_s = 1.0;
  burst.bad_s = 1.5;
  burst.bad_bw_scale = 0.005;
  burst.bad_latency_scale = 2.0;
  burst.horizon_s = horizon_s;
  burst.seed = sub_seed(seed, 102);
  degradation_.push_back(std::make_unique<runtime::GilbertElliottDegradation>(burst));
  std::vector<runtime::NetEvent> heals;
  for (const std::size_t node : burst.nodes) {
    runtime::NetEvent heal;
    heal.time_s = horizon_s;
    heal.action = runtime::NetEvent::Action::kRadioScale;
    heal.node = node;
    heals.push_back(heal);
  }
  degradation_.push_back(std::make_unique<runtime::ScriptedDegradation>(std::move(heals)));
  for (const auto& process : churn_) {
    churn_injectors_.push_back(std::make_unique<runtime::ChurnInjector>(*cluster_, *process));
    churn_injectors_.back()->start();
  }
  for (const auto& process : degradation_) {
    net_injectors_.push_back(std::make_unique<runtime::NetFaultInjector>(*cluster_, *process));
    net_injectors_.back()->start();
  }
}

std::vector<runtime::RequestSpec> poisson_requests(const runtime::ModelSet& models,
                                                   const WorkloadSpec& spec, int count,
                                                   double rate_hz, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<runtime::RequestSpec> out;
  out.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += rng.exponential(rate_hz);
    runtime::RequestSpec r;
    r.id = i;
    r.arrival_s = t;
    r.model = &models.graph(spec.mix[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.mix.size()) - 1))]);
    r.qos = draw_qos(rng, spec.interactive_share);
    out.push_back(r);
  }
  return out;
}

std::vector<runtime::RequestSpec> drain_stream(const runtime::ModelSet& models,
                                               const WorkloadSpec& spec, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<runtime::RequestSpec> out =
      runtime::mixed_stream(models, spec.mix, spec.drain_requests, spec.drain_spacing_s, rng);
  // mixed_stream cycles the mix in order; shuffle which model each arrival
  // carries so the seed also varies the model sequence.
  for (runtime::RequestSpec& r : out) {
    r.model = &models.graph(spec.mix[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.mix.size()) - 1))]);
    r.qos = draw_qos(rng, spec.interactive_share);
  }
  return out;
}

std::uint64_t record_digest(const std::vector<runtime::RequestRecord>& records) {
  util::Fnv1a h;
  for (const runtime::RequestRecord& r : records) {
    h.mix(static_cast<std::uint64_t>(r.id))
        .mix_bytes(r.model)
        .mix(static_cast<std::uint64_t>(r.outcome))
        .mix(static_cast<std::uint64_t>(r.mode))
        .mix_double(r.arrival_s)
        .mix_double(r.dispatch_s)
        .mix_double(r.finish_s)
        .mix_double(r.flops)
        .mix(static_cast<std::uint64_t>(r.nodes_used));
  }
  return h.digest();
}

bool stats_balance(const runtime::ServiceFleet& fleet) {
  const auto balanced = [](std::size_t submitted, std::size_t away, std::size_t in,
                           std::size_t terminal) { return submitted - away + in == terminal; };
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    const runtime::ServiceStats& st = fleet.shard(s).stats();
    if (!balanced(st.submitted, st.stolen_away, st.stolen_in,
                  st.completed + st.rejected + st.dropped + st.deadline_misses + st.failed)) {
      return false;
    }
    for (const runtime::QosClassStats& c : st.per_class) {
      if (!balanced(c.submitted, c.stolen_away, c.stolen_in,
                    c.completed + c.rejected + c.dropped + c.deadline_misses + c.failed)) {
        return false;
      }
    }
  }
  const runtime::ServiceStats total = fleet.stats();
  return total.stolen_away == total.stolen_in &&
         total.submitted ==
             total.completed + total.rejected + total.dropped + total.deadline_misses +
                 total.failed;
}

}  // namespace perfbench
