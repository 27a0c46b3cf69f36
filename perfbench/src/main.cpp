// End-to-end benchmark of the serving path and the planner.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// Workloads: gateway_poisson, des_fault_drain, des_storm (scenarios.hpp).
// With --trace 0 one untraced pass prints the end-to-end metrics. With
// --trace 1 an untraced pass is followed by a traced pass (timing
// decorators and spans on), which prints the per-layer metrics plus the
// tracing overhead: traced minus untraced value of every end-to-end metric.
// The last stdout line is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The run exits 1 when any output check fails and 2 on bad arguments.
#include <sys/resource.h>

#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "calibration.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "runtime/gateway.hpp"
#include "runtime/metrics.hpp"
#include "scenarios.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace hidp;

constexpr int kSetupRepeats = 3;
constexpr int kLadderRequests = 8000;
constexpr double kLadderBase = 10.0;   ///< req/s, rung 0
constexpr double kLadderStep = 1.025;  ///< rung k = base * step^k
constexpr int kLadderRungs = 200;
constexpr std::size_t kSimSpanRequests = 5000;
/// Calibration-kernel time of the nominal machine des_req_per_s is quoted
/// for: the median on the 4-vCPU x86-64 VM the benchmark was set up on.
constexpr double kNominalCalibrationS = 0.0065;

/// Everything one pass measures, plus its checks.
struct PassResult {
  MetricList e2e;
  MetricList layers;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Layer hooks and decorator state of one pass.
struct PassContext {
  PassContext(const WorkloadSpec& spec, std::uint64_t seed, double seconds, bool traced,
              SpanRecorder& spans)
      : spec(spec), seed(seed), seconds(seconds), traced(traced), spans(spans) {}

  const WorkloadSpec& spec;
  std::uint64_t seed;
  double seconds;
  bool traced;
  SpanRecorder& spans;
  PlanTimings des_timings;    ///< plans of the drains / replays that feed metrics
  PlanTimings extra_timings;  ///< plans of the timing-only repeat drains
  SituationLog situations;
  std::uint64_t run_span = 0;  ///< parent of strategy spans inside fleet.run()
  SpanRecorder no_spans{false};  ///< repeat drains are timed but leave no spans

  /// Decorators of a DES fleet: the metric drains record spans and planning
  /// situations, the repeat drains only pay the timing decorator.
  StrategyHooks hooks(bool metric_drain) {
    if (!traced) return {};
    if (!metric_drain) return {&extra_timings, &situations, &no_spans, &run_span};
    return {&des_timings, &situations, &spans, &run_span};
  }
};

/// One complete set-up of a workload: model zoo, gateway fleet with its
/// started gateway and 1-worker planner pool, and the DES fleet. Member
/// order is destruction order in reverse: the gateway stops and joins its
/// threads before the fleets it serves go away.
struct Setup {
  std::unique_ptr<runtime::ModelSet> models;
  runtime::Gateway::ModelRegistry registry;
  PlanTimings pool_timings;
  std::unique_ptr<FleetRig> gateway_rig;
  std::unique_ptr<runtime::Gateway> gateway;
  std::unique_ptr<FleetRig> des_rig;
  int warmup_requests = 0;
};

std::vector<ModelId> distinct(const std::vector<ModelId>& mix) {
  std::vector<ModelId> out;
  for (const ModelId id : mix) {
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
  return out;
}

/// Sends one request per (model, shard) through the gateway — one model at
/// a time, all shards at once so least-loaded routing spreads them — and
/// waits for every terminal outcome.
int warm_gateway(runtime::Gateway& gateway, const runtime::ModelSet& models,
                 const std::vector<ModelId>& mix, std::size_t shards) {
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  int sent = 0;
  for (const ModelId id : distinct(mix)) {
    for (std::size_t s = 0; s < shards; ++s) {
      runtime::GatewayRequest request;
      request.model = &models.graph(id);
      gateway.submit(request, [&](const runtime::RequestRecord&) {
        std::lock_guard<std::mutex> lock(mu);
        ++done;
        cv.notify_all();
      });
      ++sent;
    }
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(30), [&] { return done == sent; })) {
      throw std::runtime_error("perfbench: gateway warm-up timed out");
    }
  }
  return sent;
}

std::unique_ptr<Setup> build_setup(PassContext& ctx) {
  auto setup = std::make_unique<Setup>();
  setup->models = std::make_unique<runtime::ModelSet>();
  for (const ModelId id : distinct(ctx.spec.mix)) {
    setup->registry[dnn::zoo::model_name(id)] = &setup->models->graph(id);
  }
  setup->gateway_rig = std::make_unique<FleetRig>(FleetConfig::kGateway, StrategyHooks{});
  setup->gateway_rig->warm(*setup->models, ctx.spec.mix);
  runtime::GatewayOptions options;
  options.planner_workers = 1;
  StrategyHooks pool_hooks;
  if (ctx.traced) pool_hooks = {&setup->pool_timings, &ctx.situations, &ctx.spans, nullptr};
  setup->gateway = std::make_unique<runtime::Gateway>(
      setup->gateway_rig->fleet(), setup->registry, options, [pool_hooks] {
        return make_strategy(pool_hooks, core::HidpStrategy::Options{}, "planner_pool.plan",
                             2, nullptr);
      });
  setup->gateway->start();
  setup->warmup_requests = warm_gateway(*setup->gateway, *setup->models, ctx.spec.mix,
                                        setup->gateway_rig->fleet().shard_count());
  setup->des_rig = std::make_unique<FleetRig>(ctx.spec.des_config, ctx.hooks(true));
  setup->des_rig->warm(*setup->models, ctx.spec.mix);
  return setup;
}

// ---- gateway phase -----------------------------------------------------------

/// Runs the gateway phase; returns the fleet records of the measured
/// (non-warm-up) requests, the trace the gateway admitted.
std::vector<runtime::RequestRecord> run_gateway_phase(PassContext& ctx, Setup& setup, PassResult& out) {
  const WorkloadSpec& spec = ctx.spec;
  const double window_s = std::max(1.0, spec.gateway_share * ctx.seconds);
  std::vector<ScheduledRequest> schedule;
  util::Rng rng(sub_seed(ctx.seed, 7));
  double t = 0.05;
  for (int id = 1;; ++id) {
    t += rng.exponential(spec.gateway_rate_hz);
    if (t >= window_s) break;
    const ModelId model = spec.mix[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.mix.size()) - 1))];
    const bool interactive = rng.uniform() < spec.interactive_share;
    char line[160];
    std::snprintf(line, sizeof(line), "{\"id\":%d,\"model\":\"%s\",\"qos\":\"%s\"}", id,
                  dnn::zoo::model_name(model).c_str(),
                  interactive ? "interactive" : "standard");
    schedule.push_back({id, t, line});
  }
  const int connections =
      static_cast<int>(std::max(1u, std::min(2u, std::thread::hardware_concurrency())));

  const double phase_start_us = ctx.spans.now_us();
  const LoadResult load = drive_load(setup.gateway->port(), schedule, connections, 30.0);
  setup.gateway->stop();
  const runtime::GatewayStats stats = setup.gateway->stats();
  runtime::ServiceFleet& fleet = setup.gateway_rig->fleet();
  const runtime::ServiceStats fleet_stats = fleet.stats();
  const std::uint64_t planned = setup.gateway->planner_pool()->planned();
  std::vector<runtime::RequestRecord> admitted;
  for (runtime::RequestRecord& r : fleet.run()) {  // drained: run() only collects
    if (r.id > setup.warmup_requests) admitted.push_back(std::move(r));
  }

  out.attempted += schedule.size();
  out.failed += load.failures();
  out.check(load.failures() == 0,
            "gateway: a request lacks exactly one accepted and one terminal line");
  out.check(!load.timed_out, "gateway: terminal lines missing after the drain timeout");
  out.check(stats.received == stats.submitted && stats.submitted == stats.responded,
            "gateway: received/submitted/responded disagree");
  out.check(stats.bad_lines == 0, "gateway: bad_lines != 0");
  out.check(stats.responded == schedule.size() + static_cast<std::size_t>(setup.warmup_requests),
            "gateway: responded != requests sent");
  out.check(admitted.size() == schedule.size(), "gateway: fleet records != requests sent");
  out.check(stats_balance(fleet), "gateway: fleet ServiceStats do not balance");

  std::vector<double> wall, overhead, ingress, residual, late;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < load.requests.size(); ++i) {
    const RequestTiming& r = load.requests[i];
    if (r.sent_s >= 0.0) late.push_back((r.sent_s - r.due_s) * 1e3);
    if (r.done_s < 0.0 || r.accepted_s < 0.0) continue;
    if (r.outcome == "completed") ++completed;
    const double wall_ms = (r.done_s - r.due_s) * 1e3;
    const double ingress_ms = (r.accepted_s - r.due_s) * 1e3;
    wall.push_back(wall_ms);
    overhead.push_back(wall_ms - r.latency_ms);
    ingress.push_back(ingress_ms);
    residual.push_back(wall_ms - ingress_ms - r.latency_ms);
    if (ctx.spans.enabled()) {
      const double base_us = phase_start_us + r.due_s * 1e6;
      Span request;
      request.name = "gateway.request";
      request.request = schedule[i].id;
      request.start_us = base_us;
      request.dur_us = wall_ms * 1e3;
      request.tid = 20 + r.connection;
      request.id = ctx.spans.record(request);
      Span child = request;
      child.parent = request.id;
      child.id = 0;
      child.name = "gateway.ingress";
      child.dur_us = ingress_ms * 1e3;
      ctx.spans.record(child);
      child.name = "gateway.residual";
      child.start_us = base_us + child.dur_us;
      child.dur_us = (wall_ms - ingress_ms - r.latency_ms) * 1e3;
      ctx.spans.record(child);
      child.name = "gateway.des_latency";
      child.start_us = base_us + (wall_ms - r.latency_ms) * 1e3;
      child.dur_us = r.latency_ms * 1e3;
      ctx.spans.record(child);
    }
  }
  out.e2e.add("gw_wall_p50_ms", quantile(wall, 0.5), "ms");
  out.e2e.add("gw_wall_p99_ms", quantile(wall, 0.99), "ms");
  out.e2e.add("gw_overhead_p50_ms", quantile(overhead, 0.5), "ms");
  out.e2e.add("gw_overhead_p99_ms", quantile(overhead, 0.99), "ms");
  if (spec.des_config == FleetConfig::kGateway) {
    out.e2e.add("completed_frac",
                static_cast<double>(completed) / static_cast<double>(schedule.size()), "ratio");
  }

  out.layers.add("gateway.ingress_ms.p50", quantile(ingress, 0.5), "ms");
  out.layers.add("gateway.ingress_ms.p99", quantile(ingress, 0.99), "ms");
  out.layers.add("gateway.residual_ms.p50", quantile(residual, 0.5), "ms");
  out.layers.add("gateway.residual_ms.p99", quantile(residual, 0.99), "ms");
  out.layers.add("gateway.bad_lines", static_cast<double>(stats.bad_lines), "count");
  out.layers.add("gateway.responded", static_cast<double>(stats.responded), "count");
  const double late_max = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  out.layers.add("gen.late_ms.max", late_max, "ms");
  out.layers.add("gen.late_ms.p99", quantile(late, 0.99), "ms");
  const std::vector<double> pool_us = setup.pool_timings.all_us();
  out.layers.add("planner_pool.plan_us.p50", quantile(pool_us, 0.5), "us");
  out.layers.add("planner_pool.plan_us.p99", quantile(pool_us, 0.99), "us");
  out.layers.add("planner_pool.planned", static_cast<double>(planned), "count");
  out.layers.add("service.stale_plans", static_cast<double>(fleet_stats.stale_plans), "count");

  std::vector<double> des_ms;
  for (const RequestTiming& r : load.requests) des_ms.push_back(r.latency_ms);
  std::printf("gateway phase: %zu requests at %.1f req/s over %d connection(s), %.2f s\n",
              schedule.size(), spec.gateway_rate_hz, connections, load.elapsed_s);
  // Sim-vs-real reconciliation: wall = ingress + DES latency + residual.
  std::printf("  per request (ms)       p50        p99\n");
  const auto row = [](const char* label, const std::vector<double>& v) {
    std::printf("  %-16s %9.3f  %9.3f\n", label, quantile(v, 0.5), quantile(v, 0.99));
  };
  row("wall", wall);
  row("ingress", ingress);
  row("DES latency", des_ms);
  row("residual", residual);
  row("overhead", overhead);
  row("generator late", late);
  return admitted;
}

// ---- DES phase -----------------------------------------------------------------

/// One VirtualClock drain.
struct Drain {
  std::vector<runtime::RequestRecord> records;
  double wall_s = 0.0;  ///< fleet.run() only
  std::uint64_t digest = 0;
};

Drain drain(PassContext& ctx, FleetRig& rig, std::vector<runtime::RequestSpec> requests,
            bool faults, std::uint64_t fault_seed, PassResult& out) {
  const double horizon_s = requests.empty() ? 0.0 : requests.back().arrival_s;
  const std::size_t count = requests.size();
  runtime::ReplayArrivals arrivals(std::move(requests));
  runtime::ServiceFleet& fleet = rig.fleet();
  fleet.attach(&arrivals);
  if (faults) rig.start_faults(horizon_s, fault_seed);
  Drain d;
  ctx.run_span = ctx.spans.reserve_id();
  const double start_us = ctx.spans.now_us();
  const auto begin = SteadyClock::now();
  d.records = fleet.run();
  d.wall_s = seconds_between(begin, SteadyClock::now());
  fleet.attach(nullptr);
  Span span;
  span.name = "fleet.run";
  span.id = ctx.run_span;
  span.start_us = start_us;
  span.dur_us = d.wall_s * 1e6;
  span.tid = 1;
  ctx.spans.record(span);

  d.digest = record_digest(d.records);
  out.attempted += count;
  out.failed += count - std::min(count, d.records.size());
  out.check(d.records.size() == count, "des: records != requests drained");
  out.check(stats_balance(fleet), "des: fleet ServiceStats do not balance");
  return d;
}

/// DES spans of one drain in simulated time (pid 2): request, split into
/// pre-dispatch (queue, batching hold, FSM phases) and execution.
void record_sim_spans(SpanRecorder& spans, const std::vector<runtime::RequestRecord>& records) {
  if (!spans.enabled()) return;
  std::size_t n = 0;
  for (const runtime::RequestRecord& r : records) {
    if (!r.executed() || n++ >= kSimSpanRequests) continue;
    Span request;
    request.name = "request";
    request.pid = kSimPid;
    request.tid = static_cast<int>(r.qos);
    request.request = r.id;
    request.start_us = r.arrival_s * 1e6;
    request.dur_us = r.latency_s() * 1e6;
    request.id = spans.record(request);
    Span child = request;
    child.id = 0;
    child.parent = request.id;
    child.name = "pre_dispatch";
    child.dur_us = (r.dispatch_s - r.arrival_s) * 1e6;
    spans.record(child);
    child.name = "exec";
    child.start_us = r.dispatch_s * 1e6;
    child.dur_us = (r.finish_s - r.dispatch_s) * 1e6;
    spans.record(child);
  }
}

/// Highest rung of the fixed Poisson ladder at which the gateway fleet
/// serves the workload's mix with DES p99 <= the limit and completed_frac
/// >= 0.99 (coarse steps of 8 rungs, then rung by rung).
double slo_rate(PassContext& ctx, const runtime::ModelSet& models, PassResult& out) {
  const auto passes = [&](int rung) {
    const double rate = kLadderBase * std::pow(kLadderStep, rung);
    FleetRig rig(FleetConfig::kGateway, StrategyHooks{});
    rig.warm(models, ctx.spec.mix);
    const auto requests =
        poisson_requests(models, ctx.spec, kLadderRequests, rate, sub_seed(ctx.seed, 3000));
    runtime::ReplayArrivals arrivals(requests);
    rig.fleet().attach(&arrivals);
    const auto records = rig.fleet().run();
    rig.fleet().attach(nullptr);
    out.check(records.size() == requests.size(), "ladder: records != requests");
    const runtime::StreamMetrics m = runtime::summarize_run(records, rig.cluster());
    return m.p99_latency_s <= ctx.spec.slo_p99_s &&
           static_cast<double>(m.completed) >= 0.99 * static_cast<double>(records.size());
  };
  const double start_us = ctx.spans.now_us();
  int best = -1;
  int rung = 0;
  while (rung < kLadderRungs && passes(rung)) {
    best = rung;
    rung += 8;
  }
  for (rung = best + 1; rung < kLadderRungs && passes(rung); ++rung) best = rung;
  Span span;
  span.name = "slo.ladder";
  span.start_us = start_us;
  span.dur_us = ctx.spans.now_us() - start_us;
  span.tid = 3;
  ctx.spans.record(span);
  out.check(best >= 0, "ladder: the lowest rung misses the p99 limit");
  return kLadderBase * std::pow(kLadderStep, std::max(best, 0));
}

/// Long-run DES statistics over the metric drains.
struct DesSummary {
  std::vector<double> latencies_ms, pre_dispatch_ms, exec_ms;
  std::size_t records = 0, completed = 0, executed = 0;
  double energy_j = 0.0, wall_s = 0.0;
  std::uint64_t events = 0;
  runtime::ServiceStats stats;
  runtime::PlannerDeltaStats delta;
  std::size_t hits = 0, misses = 0, steals = 0, evacuations = 0;

  /// Folds in drain `d` of `rig` (the rig's counters still cover only it).
  void add(const Drain& d, FleetRig& rig) {
    for (const runtime::RequestRecord& r : d.records) {
      ++records;
      if (r.outcome == runtime::RequestOutcome::kCompleted) ++completed;
      if (!r.executed()) continue;
      ++executed;
      latencies_ms.push_back(r.latency_s() * 1e3);
      pre_dispatch_ms.push_back((r.dispatch_s - r.arrival_s) * 1e3);
      exec_ms.push_back((r.finish_s - r.dispatch_s) * 1e3);
    }
    energy_j += runtime::summarize_run(d.records, rig.cluster()).energy_j;
    wall_s += d.wall_s;
    events += rig.cluster().simulator().events_executed();
    const runtime::ServiceStats s = rig.fleet().stats();
    stats.rejected += s.rejected;
    stats.dropped += s.dropped;
    stats.failed += s.failed;
    stats.retries += s.retries;
    stats.groups_dispatched += s.groups_dispatched;
    stats.batched_requests += s.batched_requests;
    stats.group_joins += s.group_joins;
    stats.peak_pending = std::max(stats.peak_pending, s.peak_pending);
    steals += rig.fleet().steals();
    evacuations += rig.fleet().evacuations();
    for (const core::HidpStrategy* strategy : rig.hidp()) {
      const runtime::PlannerDeltaStats p = strategy->planner_stats();
      delta.repaired_plans += p.repaired_plans;
      delta.cold_replans += p.cold_replans;
      delta.partial_repriced_rows += p.partial_repriced_rows;
      delta.scoped_invalidations += p.scoped_invalidations;
      delta.rekeyed_entries += p.rekeyed_entries;
      hits += strategy->plan_cache_stats().hits;
      misses += strategy->plan_cache_stats().misses;
    }
  }
};

void run_des_phase(PassContext& ctx, Setup& setup,
                   const std::vector<runtime::RequestRecord>& admitted,
                   SteadyClock::time_point deadline, PassResult& out) {
  const WorkloadSpec& spec = ctx.spec;
  const bool replay = spec.des_config == FleetConfig::kGateway;
  const bool faults = spec.des_config == FleetConfig::kFaultDrain;
  const runtime::ModelSet& models = *setup.models;

  // The inputs of each metric drain: the admitted gateway trace (replay),
  // or the workload's seeded sub-streams.
  std::vector<std::vector<runtime::RequestSpec>> streams;
  if (replay) {
    std::vector<runtime::RequestSpec> trace;
    const double t0 = admitted.empty() ? 0.0 : admitted.front().arrival_s;
    for (const runtime::RequestRecord& r : admitted) {
      runtime::RequestSpec s;
      s.id = r.id;
      s.model = setup.registry.at(r.model);
      s.qos = r.qos;
      s.arrival_s = r.arrival_s - t0;
      trace.push_back(s);
    }
    std::sort(trace.begin(), trace.end(), [](const auto& a, const auto& b) {
      return a.arrival_s < b.arrival_s || (a.arrival_s == b.arrival_s && a.id < b.id);
    });
    streams.push_back(std::move(trace));
  } else {
    for (int k = 0; k < spec.drain_streams; ++k) {
      streams.push_back(drain_stream(models, spec, sub_seed(ctx.seed, 1000 + k)));
    }
  }

  DesSummary summary;
  std::vector<std::uint64_t> digests;
  // Per stream, every drain: wall time, and wall time over the calibration
  // kernel's time measured right before it.
  std::vector<std::vector<double>> walls(streams.size());
  std::vector<std::vector<double>> calibrated(streams.size());
  std::vector<double> calibration_s;
  std::size_t drains = 0;
  std::size_t mismatches = 0;
  std::unique_ptr<FleetRig> rig = std::move(setup.des_rig);
  for (std::size_t i = 0;; ++i) {
    const std::size_t k = i % streams.size();
    const bool metric_drain = i < streams.size();
    if (!rig) {
      rig = std::make_unique<FleetRig>(spec.des_config, ctx.hooks(metric_drain));
      rig->warm(models, spec.mix);
    }
    calibration_s.push_back(calibration_seconds());
    const Drain d = drain(ctx, *rig, streams[k], faults, sub_seed(ctx.seed, 2000 + k), out);
    walls[k].push_back(d.wall_s);
    calibrated[k].push_back(d.wall_s / calibration_s.back());
    ++drains;
    if (metric_drain) {
      digests.push_back(d.digest);
      summary.add(d, *rig);
      if (i == 0) record_sim_spans(ctx.spans, d.records);
    } else if (d.digest != digests[k]) {
      ++mismatches;
    }
    rig.reset();
    // Drain on until the deadline, but at least once more than there are
    // streams: the repeat of stream 0 checks that a seed reproduces its digest.
    if (i + 1 > streams.size() && SteadyClock::now() >= deadline) break;
  }
  out.check(mismatches == 0, "des: a repeated drain of the same seed changed its record digest");
  // Requests of every stream over the sum of each stream's lower-quartile
  // drain time, in seconds of the nominal machine. A shared machine runs the
  // same drain up to 2x slower in one process than in the next; the
  // calibration kernel slows with it, so calibrated times cancel that out.
  // The lower quartile of a stream's repeats skips short bursts of
  // interference, and summing over the streams averages out their content.
  double raw_wall_s = 0.0;
  double nominal_wall_s = 0.0;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    raw_wall_s += quantile(walls[k], 0.25);
    nominal_wall_s += quantile(calibrated[k], 0.25) * kNominalCalibrationS;
  }
  const double records = static_cast<double>(summary.records);
  const double req_per_s = records / nominal_wall_s;

  const double des_mean = mean(summary.latencies_ms);
  const double des_p99 = quantile(summary.latencies_ms, 0.99);
  if (!replay) {
    out.e2e.add("completed_frac",
                static_cast<double>(summary.completed) / static_cast<double>(summary.records),
                "ratio");
  }
  out.e2e.add("des_mean_ms", des_mean, "ms");
  out.e2e.add("des_p99_ms", des_p99, "ms");
  out.e2e.add("des_energy_mj_per_inf",
              summary.executed
                  ? 1e3 * summary.energy_j / static_cast<double>(summary.executed)
                  : 0.0,
              "mJ");
  out.e2e.add("des_req_per_s", req_per_s, "req/s");

  const double busy_s = ctx.des_timings.busy_s();
  const std::vector<double> hit_us = ctx.des_timings.hit_us();
  const std::vector<double> miss_us = ctx.des_timings.miss_us();
  const auto count = [&out](const char* name, std::size_t n) {
    out.layers.add(name, static_cast<double>(n), "count");
  };
  count("strategy.plan_calls", ctx.des_timings.calls());
  out.layers.add("strategy.busy_s", busy_s, "s");
  const std::size_t lookups = summary.hits + summary.misses;
  out.layers.add("plan_cache.hit_ratio",
                 lookups ? static_cast<double>(summary.hits) / static_cast<double>(lookups) : 0.0,
                 "ratio");
  out.layers.add("plan_cache.hit_us.p50", quantile(hit_us, 0.5), "us");
  out.layers.add("strategy.miss_us.p50", quantile(miss_us, 0.5), "us");
  out.layers.add("strategy.miss_us.p99", quantile(miss_us, 0.99), "us");
  count("plan_cache.repaired_plans", summary.delta.repaired_plans);
  count("plan_cache.cold_replans", summary.delta.cold_replans);
  count("plan_cache.scoped_invalidations", summary.delta.scoped_invalidations);
  count("plan_cache.rekeyed_entries", summary.delta.rekeyed_entries);
  count("cost_model.partial_repriced_rows", summary.delta.partial_repriced_rows);
  count("service.rejected", summary.stats.rejected);
  count("service.dropped", summary.stats.dropped);
  count("service.failed", summary.stats.failed);
  count("service.retries", summary.stats.retries);
  count("service.groups", summary.stats.groups_dispatched);
  count("service.batched", summary.stats.batched_requests);
  count("service.group_joins", summary.stats.group_joins);
  count("fleet.steals", summary.steals);
  count("fleet.evacuations", summary.evacuations);
  count("service.peak_pending", summary.stats.peak_pending);
  out.layers.add("service.pre_dispatch_ms.mean", mean(summary.pre_dispatch_ms), "ms");
  out.layers.add("service.pre_dispatch_ms.p99", quantile(summary.pre_dispatch_ms, 0.99), "ms");
  out.layers.add("engine.exec_ms.mean", mean(summary.exec_ms), "ms");
  out.layers.add("engine.exec_ms.p99", quantile(summary.exec_ms, 0.99), "ms");
  count("sim.events", summary.events);
  out.layers.add("serving.self_s", summary.wall_s - busy_s, "s");
  out.layers.add("sim.events_per_s", static_cast<double>(summary.events) / summary.wall_s, "1/s");
  out.layers.add("des.raw_req_per_s", records / raw_wall_s, "req/s");
  out.layers.add("machine.calibration_ms", 1e3 * median(calibration_s), "ms");

  std::printf("DES phase: %zu metric drain(s) of %zu requests, %zu drains in all (%s)\n",
              streams.size(), summary.records, drains,
              replay ? "VirtualClock replay of the admitted gateway trace" : spec.name.c_str());
  std::printf("  DES latency p50 %.3f ms, mean %.3f ms, p99 %.3f ms; completed %zu of %zu\n",
              quantile(summary.latencies_ms, 0.5), des_mean, des_p99, summary.completed,
              summary.records);
  std::printf("  drained %.0f req/s (%.0f req/s raw; calibration kernel %.3f ms, nominal %.3f)\n",
              req_per_s, records / raw_wall_s, 1e3 * median(calibration_s),
              1e3 * kNominalCalibrationS);
}

PassResult run_pass(const WorkloadSpec& spec, std::uint64_t seed, double seconds, bool traced,
                    SpanRecorder& spans) {
  PassResult out;
  PassContext ctx(spec, seed, seconds, traced, spans);
  const auto pass_start = SteadyClock::now();

  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.reset();  // stops the previous repetition's gateway
    const double start_us = spans.now_us();
    const auto begin = SteadyClock::now();
    setup = build_setup(ctx);
    setup_s.push_back(seconds_between(begin, SteadyClock::now()));
    Span span;
    span.name = "setup";
    span.start_us = start_us;
    span.dur_us = setup_s.back() * 1e6;
    span.tid = 1;
    spans.record(span);
  }
  out.e2e.add("setup_s", median(setup_s), "s");

  const std::vector<runtime::RequestRecord> admitted = run_gateway_phase(ctx, *setup, out);
  out.e2e.add("des_slo_rate_per_s", slo_rate(ctx, *setup->models, out), "req/s");
  const auto deadline = pass_start + std::chrono::duration_cast<SteadyClock::duration>(
                                         std::chrono::duration<double>(seconds));
  run_des_phase(ctx, *setup, admitted, deadline, out);

  if (traced) {
    const DseLayerTimes dse =
        replay_situations(ctx.situations.situations(), setup->registry, 3, spans);
    out.layers.add("dse.replayed_situations", static_cast<double>(dse.situations), "count");
    out.layers.add("cut_analysis.us", dse.cut_analysis_us, "us");
    out.layers.add("cost_model.build_ms", dse.cost_model_build_ms, "ms");
    out.layers.add("local_config.us", dse.local_config_us, "us");
    out.layers.add("dse.explore_us", dse.dse_explore_us, "us");
    out.layers.add("model_partitioner.us", dse.model_partitioner_us, "us");
    out.layers.add("data_partitioner.us", dse.data_partitioner_us, "us");
    out.layers.add("cost_model.reprice_us", dse.cost_model_reprice_us, "us");
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.e2e.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  return out;
}

/// The end-to-end metrics, in BENCHMARK.json order.
const char* const kEndToEnd[] = {
    "setup_s",          "peak_rss_mb",        "completed_frac",     "gw_wall_p50_ms",
    "gw_wall_p99_ms",   "gw_overhead_p50_ms", "gw_overhead_p99_ms",
    "des_mean_ms",      "des_p99_ms",         "des_energy_mj_per_inf", "des_req_per_s",
    "des_slo_rate_per_s"};

const std::map<std::string, const char*> kUnits = {
      {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"completed_frac", "ratio"},
      {"gw_wall_p50_ms", "ms"}, {"gw_wall_p99_ms", "ms"}, {"gw_overhead_p50_ms", "ms"},
      {"gw_overhead_p99_ms", "ms"}, {"des_mean_ms", "ms"}, {"des_p99_ms", "ms"},
      {"des_energy_mj_per_inf", "mJ"}, {"des_req_per_s", "req/s"},
      {"des_slo_rate_per_s", "req/s"}};

const char* const kWallClockMetrics[] = {"setup_s",           "peak_rss_mb",
                                         "gw_wall_p50_ms",    "gw_wall_p99_ms",
                                         "gw_overhead_p50_ms", "gw_overhead_p99_ms",
                                         "des_req_per_s"};

MetricList ordered(const MetricList& from) {
  MetricList out;
  for (const char* name : kEndToEnd) out.add(name, from.get(name), kUnits.at(name));
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_file;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value);
      } else if (key == "--trace-file") {
        args.trace_file = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds >= 1 &&
         (args.trace == 0 || args.trace == 1);
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-file <path>]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:", args.workload.c_str());
    for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("perfbench %s seed=%llu seconds=%d trace=%d\n", spec->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);

  SpanRecorder untraced_spans(false);
  PassResult base = run_pass(*spec, args.seed, args.seconds, false, untraced_spans);
  const MetricList e2e = ordered(base.e2e);
  e2e.print_table(stdout, "end-to-end (untraced)");
  MetricList metrics = e2e;

  PassResult traced_pass;
  if (args.trace == 1) {
    SpanRecorder spans(true);
    std::printf("-- traced pass --\n");
    traced_pass = run_pass(*spec, args.seed, args.seconds, true, spans);
    metrics = traced_pass.layers;
    const MetricList traced_e2e = ordered(traced_pass.e2e);
    // Overhead of the wall-clock metrics only: the DES metrics of a seed do
    // not depend on tracing.
    for (const char* name : kWallClockMetrics) {
      metrics.add(std::string("trace_overhead.") + name, traced_e2e.get(name) - e2e.get(name),
                  kUnits.at(name));
    }
    metrics.add("trace.spans", static_cast<double>(spans.size()), "count");
    metrics.add("trace.dropped_spans", static_cast<double>(spans.dropped()), "count");
    metrics.print_table(stdout, "per layer (traced)");
    if (!args.trace_file.empty()) {
      traced_pass.check(spans.write_chrome_json(args.trace_file), "trace: cannot write trace file");
      std::printf("trace written to %s\n", args.trace_file.c_str());
    }
  }

  std::vector<std::string> errors = base.errors;
  errors.insert(errors.end(), traced_pass.errors.begin(), traced_pass.errors.end());
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  const bool correct = errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", base.attempted + traced_pass.attempted,
              base.failed + traced_pass.failed, metrics.json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
