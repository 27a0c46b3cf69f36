// Layer decorators of the traced run. Every layer is timed from outside,
// through its public functions:
//
//  - TimedStrategy wraps a shard's (or a planner-pool worker's) HiDP
//    strategy and times every plan() call, split into plan-cache hits and
//    misses, and logs the distinct planning situations that missed;
//  - replay_situations() feeds those logged situations back into the
//    public partition/, dnn/ and core/ entry points one layer at a time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/hidp_strategy.hpp"
#include "runtime/engine.hpp"
#include "trace.hpp"

namespace perfbench {

/// Plan-call timings of one group of strategies (thread-safe: planner-pool
/// workers record from their own threads).
class PlanTimings {
 public:
  void add(double us, bool hit) {
    std::lock_guard<std::mutex> lock(mu_);
    (hit ? hit_us_ : miss_us_).push_back(us);
    busy_s_ += us * 1e-6;
  }
  std::vector<double> hit_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hit_us_;
  }
  std::vector<double> miss_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return miss_us_;
  }
  std::vector<double> all_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out = hit_us_;
    out.insert(out.end(), miss_us_.begin(), miss_us_.end());
    return out;
  }
  std::size_t calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hit_us_.size() + miss_us_.size();
  }
  double busy_s() const {
    std::lock_guard<std::mutex> lock(mu_);
    return busy_s_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> hit_us_;
  std::vector<double> miss_us_;
  double busy_s_ = 0.0;
};

/// One captured planning situation: the model, a deep copy of the cluster
/// state the strategy saw, and the request's planning context.
struct Situation {
  std::string model;  ///< by name: the graph that planned it may be gone
  int batch = 1;
  std::size_t leader = 0;
  int queue_depth = 0;
  std::vector<bool> available;
  std::vector<hidp::platform::NodeModel> nodes;
  hidp::net::NetworkSpec network;
};

/// Distinct situations that missed the plan cache, up to a cap.
class SituationLog {
 public:
  void capture(const hidp::runtime::PlanRequest& request);
  std::vector<std::shared_ptr<const Situation>> situations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return situations_;
  }

 private:
  static constexpr std::size_t kCapacity = 24;
  mutable std::mutex mu_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::shared_ptr<const Situation>> situations_;
};

/// IStrategy decorator: forwards everything to a HidpStrategy and times
/// plan(). Optional span recording (parent span read from `parent`).
class TimedStrategy final : public hidp::runtime::IStrategy {
 public:
  TimedStrategy(std::unique_ptr<hidp::core::HidpStrategy> inner, PlanTimings& timings,
                SituationLog& log, SpanRecorder& spans, const char* span_name, int tid,
                const std::uint64_t* parent = nullptr)
      : inner_(std::move(inner)), timings_(&timings), log_(&log), spans_(&spans),
        span_name_(span_name), tid_(tid), parent_(parent) {}

  std::string name() const override { return inner_->name(); }
  hidp::runtime::PlanResult plan(const hidp::runtime::PlanRequest& request) override;
  bool supports_pipeline() const override { return inner_->supports_pipeline(); }
  void on_node_event(const hidp::runtime::NodeEvent& event) override {
    inner_->on_node_event(event);
  }
  hidp::runtime::PlannerDeltaStats planner_stats() const override {
    return inner_->planner_stats();
  }

 private:
  std::unique_ptr<hidp::core::HidpStrategy> inner_;
  PlanTimings* timings_;
  SituationLog* log_;
  SpanRecorder* spans_;
  const char* span_name_;
  int tid_;
  const std::uint64_t* parent_;
};

/// Medians (and counts) of the DSE sub-layers over replayed situations.
struct DseLayerTimes {
  std::size_t situations = 0;
  double cut_analysis_us = 0.0;
  double cost_model_build_ms = 0.0;
  double local_config_us = 0.0;
  double dse_explore_us = 0.0;
  double model_partitioner_us = 0.0;
  double data_partitioner_us = 0.0;
  double cost_model_reprice_us = 0.0;
};

/// Replays every situation `reps` times into dnn::analyze_cuts, the
/// ClusterCostModel constructor, best_local_config, DseAgent::explore
/// (warm), plan_model_partition, plan_best_data_partition and
/// ClusterCostModel::reprice_node, timing each call.
DseLayerTimes replay_situations(const std::vector<std::shared_ptr<const Situation>>& situations,
                                const std::map<std::string, const hidp::dnn::DnnGraph*>& models,
                                int reps, SpanRecorder& spans);

}  // namespace perfbench
