#include "layers.hpp"

#include "core/dse_agent.hpp"
#include "dnn/cut_analysis.hpp"
#include "partition/data_partitioner.hpp"
#include "partition/local_config.hpp"
#include "partition/model_partitioner.hpp"
#include "util/hash.hpp"

namespace perfbench {

using namespace hidp;

void SituationLog::capture(const runtime::PlanRequest& request) {
  const runtime::ClusterSnapshot& snap = request.snapshot;
  if (snap.nodes == nullptr) return;
  util::Fnv1a key;
  key.mix_bytes(request.model->name())
      .mix(static_cast<std::uint64_t>(request.batch))
      .mix(static_cast<std::uint64_t>(request.kind))
      .mix(snap.leader)
      .mix(static_cast<std::uint64_t>(core::queue_depth_bucket(snap.queue_depth)))
      .mix(core::cluster_compute_fingerprint(*snap.nodes));
  for (std::size_t j = 0; j < snap.available.size(); ++j) key.mix(snap.available[j] ? 1 : 0);
  for (std::size_t j = 0; j < snap.network.size(); ++j) {
    key.mix_double(snap.network.radio_bw_bps(j));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (situations_.size() >= kCapacity) return;
  for (const std::uint64_t k : keys_) {
    if (k == key.digest()) return;
  }
  keys_.push_back(key.digest());
  auto situation = std::make_shared<Situation>();
  situation->model = request.model->name();
  situation->batch = request.batch;
  situation->leader = snap.leader;
  situation->queue_depth = snap.queue_depth;
  situation->available = snap.available;
  situation->nodes = *snap.nodes;
  situation->network = snap.network;
  situations_.push_back(std::move(situation));
}

runtime::PlanResult TimedStrategy::plan(const runtime::PlanRequest& request) {
  const double start_us = spans_->now_us();
  const auto begin = SteadyClock::now();
  runtime::PlanResult result = inner_->plan(request);
  const double us = std::chrono::duration<double, std::micro>(SteadyClock::now() - begin).count();
  timings_->add(us, result.cache_hit);
  if (spans_->enabled()) {
    if (!result.cache_hit && request.kind == runtime::PlanRequest::PlanKind::kLatency) {
      log_->capture(request);
    }
    Span span;
    span.name = result.cache_hit ? "plan_cache.hit" : span_name_;
    span.start_us = start_us;
    span.dur_us = us;
    span.parent = parent_ != nullptr ? *parent_ : 0;
    span.tid = tid_;
    spans_->record(span);
  }
  return result;
}

namespace {

/// Times one call of `fn` in microseconds, recording a replay span.
template <typename Fn>
double timed_us(SpanRecorder& spans, const char* name, std::uint64_t parent, Fn&& fn) {
  const double start_us = spans.now_us();
  const auto begin = SteadyClock::now();
  fn();
  const double us = std::chrono::duration<double, std::micro>(SteadyClock::now() - begin).count();
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.dur_us = us;
  span.parent = parent;
  span.tid = 90;
  spans.record(span);
  return us;
}

}  // namespace

DseLayerTimes replay_situations(const std::vector<std::shared_ptr<const Situation>>& situations,
                                const std::map<std::string, const dnn::DnnGraph*>& models,
                                int reps, SpanRecorder& spans) {
  std::vector<double> cuts, build_ms, local, explore, model_dp, data_dp, reprice;
  const core::HidpStrategy::Options defaults;
  for (const auto& situation : situations) {
    const dnn::DnnGraph& graph = *models.at(situation->model);
    for (int rep = 0; rep < reps; ++rep) {
      const std::uint64_t parent = spans.reserve_id();
      const double start_us = spans.now_us();
      cuts.push_back(timed_us(spans, "replay.cut_analysis", parent, [&] {
        (void)dnn::analyze_cuts(graph, defaults.bytes_per_element);
      }));
      std::unique_ptr<partition::ClusterCostModel> cost;
      build_ms.push_back(1e-3 * timed_us(spans, "replay.cost_model_build", parent, [&] {
        cost = std::make_unique<partition::ClusterCostModel>(
            graph, situation->nodes, situation->network,
            partition::NodeExecutionPolicy::kHierarchicalLocal, defaults.bytes_per_element,
            partition::ClusterCostModel::kDefaultMaxCandidates, situation->batch);
        cost->set_local_search_space(defaults.local_search);
      }));
      // Whole-network local DSE on every available node: the search the
      // cost model runs per (node, block) on a cold row.
      const int last = static_cast<int>(cost->segment_count());
      const platform::WorkProfile whole = cost->profile_between(0, last);
      const std::int64_t io = cost->boundary_bytes(0) + cost->boundary_bytes(last);
      for (std::size_t j = 0; j < situation->nodes.size(); ++j) {
        if (j < situation->available.size() && !situation->available[j]) continue;
        local.push_back(timed_us(spans, "replay.local_config", parent, [&] {
          (void)partition::best_local_config(situation->nodes[j], whole, io,
                                             defaults.local_search);
        }));
      }
      const core::DseAgent agent(defaults.dse);
      // First explore fills the lazily built memo rows; the timed one is warm.
      (void)agent.explore(*cost, situation->leader, situation->available, situation->queue_depth);
      explore.push_back(timed_us(spans, "replay.dse_explore", parent, [&] {
        (void)agent.explore(*cost, situation->leader, situation->available,
                            situation->queue_depth);
      }));
      const std::vector<std::size_t> workers =
          agent.order_workers(*cost, situation->leader, situation->available);
      model_dp.push_back(timed_us(spans, "replay.model_partitioner", parent, [&] {
        (void)partition::plan_model_partition(*cost, workers, situation->leader,
                                              partition::PartitionObjective::kMinimizeSum,
                                              defaults.dse.engine);
      }));
      if (workers.size() >= 2) {
        const std::size_t sigma = std::min<std::size_t>(4, workers.size());
        const std::vector<std::size_t> subset(workers.begin(),
                                              workers.begin() + static_cast<std::ptrdiff_t>(sigma));
        data_dp.push_back(timed_us(spans, "replay.data_partitioner", parent, [&] {
          (void)partition::plan_best_data_partition(*cost, subset, situation->leader);
        }));
        // Re-price the last (slowest) worker, as a DVFS event on it would.
        reprice.push_back(timed_us(spans, "replay.cost_model_reprice", parent, [&] {
          (void)cost->reprice_node(workers.back());
        }));
      }
      Span span;
      span.name = "replay.situation";
      span.id = parent;
      span.start_us = start_us;
      span.dur_us = spans.now_us() - start_us;
      span.tid = 90;
      spans.record(span);
    }
  }
  DseLayerTimes out;
  out.situations = situations.size();
  out.cut_analysis_us = median(cuts);
  out.cost_model_build_ms = median(build_ms);
  out.local_config_us = median(local);
  out.dse_explore_us = median(explore);
  out.model_partitioner_us = median(model_dp);
  out.data_partitioner_us = median(data_dp);
  out.cost_model_reprice_us = median(reprice);
  return out;
}

}  // namespace perfbench
