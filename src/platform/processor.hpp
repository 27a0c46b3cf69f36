// Processor-level performance and power models.
//
// The paper (§III, System Model) characterises a processor ρ_k by its
// computation frequency f_k and the DNN's compute intensity δ (cycles/FLOP),
// giving the computation rate λ = f_k / δ. This module realises that model
// with two refinements the paper's motivation (§I, Fig. 1) depends on:
//
//  * per-(processor-kind × layer-kind) efficiency factors — depthwise
//    convolutions and element-wise ops sustain a far lower fraction of GPU
//    peak than dense convolutions, while CPUs degrade more gracefully;
//  * a single-stream utilisation curve — the default framework placement
//    (one execution stream, config P1) leaves a GPU partially idle; running
//    σ >= 2 local data partitions overlaps streams and raises utilisation.
//
// Together these reproduce the paper's observation that the best local
// configuration (σ, CPU/GPU split) is model-dependent.
#pragma once

#include <array>
#include <string>

#include "dnn/graph.hpp"

namespace hidp::platform {

/// Processor classes found on the paper's boards (Table II).
enum class ProcKind { kCpuBig, kCpuLittle, kGpu };

std::string_view proc_kind_name(ProcKind kind) noexcept;

/// Work classes capture the GPU-unfriendliness dimensions beyond the layer
/// kind: small feature maps leave SIMT lanes idle and are launch-bound;
/// asymmetric (1x7/7x1) kernels vectorise poorly. CPUs degrade far less on
/// either, which is what makes the optimal CPU/GPU split model-dependent
/// (paper Fig. 1).
enum class WorkClass { kRegular = 0, kSmallSpatial = 1, kAwkwardKernel = 2 };
inline constexpr int kWorkClassCount = 3;

/// Classifies one layer: awkward if the kernel is asymmetric, small if the
/// output feature map has <= 200 spatial positions (14x14 and below).
WorkClass classify_layer(const dnn::Layer& layer) noexcept;

/// FLOPs of a workload broken down by layer kind; the unit every cost-model
/// query is expressed in. Profiles are additive and scalable so partitioners
/// can reason about fractions of a network.
class WorkProfile {
 public:
  WorkProfile() = default;

  /// Profile of layers [begin, end) of a graph; end < 0 means all layers.
  static WorkProfile from_graph(const dnn::DnnGraph& graph, int begin = 0, int end = -1);

  void add(dnn::LayerKind kind, double flops,
           WorkClass work_class = WorkClass::kRegular, double layers = 1.0) noexcept {
    flops_[bucket(kind, work_class)] += flops;
    total_ += flops;
    layer_count_ += layers;
  }
  void merge(const WorkProfile& other) noexcept;

  double total() const noexcept { return total_; }
  /// Number of layers (kernel launches) this work represents; fractional
  /// after scaling.
  double layer_count() const noexcept { return layer_count_; }
  /// FLOPs of a kind summed over all work classes.
  double flops_of(dnn::LayerKind kind) const noexcept {
    double sum = 0.0;
    for (int c = 0; c < kWorkClassCount; ++c) {
      sum += flops_[bucket(kind, static_cast<WorkClass>(c))];
    }
    return sum;
  }
  double flops_of(dnn::LayerKind kind, WorkClass work_class) const noexcept {
    return flops_[bucket(kind, work_class)];
  }

  static std::size_t bucket(dnn::LayerKind kind, WorkClass work_class) noexcept {
    return static_cast<std::size_t>(dnn::layer_kind_index(kind)) * kWorkClassCount +
           static_cast<std::size_t>(work_class);
  }

  /// Profile scaled by a factor in [0, inf): `fraction` of this work.
  WorkProfile scaled(double fraction) const noexcept;

  /// Profile of `n` batched instances of this work: FLOPs scale with the
  /// batch, but the kernel launches (layer_count) do not — the whole point
  /// of batching is to amortise per-layer dispatch across the batch.
  WorkProfile batched(int n) const noexcept;

  /// Element-wise difference a - b (clamped at 0); used to derive the
  /// profile of a layer range from prefix profiles.
  static WorkProfile difference(const WorkProfile& a, const WorkProfile& b) noexcept;

 private:
  std::array<double, dnn::kLayerKindCount * kWorkClassCount> flops_{};
  double total_ = 0.0;
  double layer_count_ = 0.0;
};

/// Sustained-fraction-of-peak per layer kind (and per work class) for one
/// processor kind.
struct EfficiencyTable {
  std::array<double, dnn::kLayerKindCount> fraction{};
  /// Multiplier applied on top of `fraction` per work class.
  std::array<double, kWorkClassCount> class_multiplier{1.0, 1.0, 1.0};
  double of(dnn::LayerKind kind) const noexcept {
    return fraction[static_cast<std::size_t>(dnn::layer_kind_index(kind))];
  }
  double of(dnn::LayerKind kind, WorkClass work_class) const noexcept {
    return of(kind) * class_multiplier[static_cast<std::size_t>(work_class)];
  }
  bool operator==(const EfficiencyTable& other) const noexcept = default;
  /// Reference tables used by the device DB.
  static EfficiencyTable for_kind(ProcKind kind);
};

/// One processor (CPU cluster or GPU) of an edge node.
class ProcessorModel {
 public:
  ProcessorModel() = default;
  ProcessorModel(std::string name, ProcKind kind, int cores, double freq_ghz,
                 double flops_per_cycle_per_core, double idle_w, double peak_w,
                 double util_single, double util_max, double dispatch_s = 0.0);

  const std::string& name() const noexcept { return name_; }
  ProcKind kind() const noexcept { return kind_; }
  int cores() const noexcept { return cores_; }
  double freq_ghz() const noexcept { return freq_ghz_; }

  /// DVFS-style frequency change (runtime::Cluster::set_dvfs_scale drives
  /// this). Scales peak_gflops linearly; throws nothing, clamps nothing —
  /// callers own sanity checks.
  void set_freq_ghz(double freq_ghz) noexcept { freq_ghz_ = freq_ghz; }

  /// Theoretical peak GFLOPS (cores * frequency * FLOPs/cycle).
  double peak_gflops() const noexcept;

  /// Stream-overlap utilisation with `partitions` concurrent local
  /// partitions: u(sigma) = u1 + (umax - u1) * (1 - 1/sigma).
  double utilization(int partitions) const noexcept;

  /// Seconds to execute `work` with `partitions` concurrent partitions.
  /// This is the paper's  t = work / lambda  with lambda = f/delta realised
  /// through the efficiency table.
  double time_for(const WorkProfile& work, int partitions = 1) const noexcept;

  /// Partition-independent part of time_for: the raw efficiency-weighted
  /// seconds of `work` at utilisation 1 (1e30 when the processor cannot run
  /// a represented kind). time_for(work, s) == time_from_base(
  /// base_seconds(work), work.layer_count(), s) bit-for-bit, so searches
  /// probing many partition counts pay the 33-bucket walk once.
  double base_seconds(const WorkProfile& work) const noexcept;
  double time_from_base(double base_s, double layer_count, int partitions) const noexcept;

  /// Effective computation rate lambda [GFLOPS] for a workload — the
  /// paper's lambda_k = f_k / delta.
  double lambda_gflops(const WorkProfile& work, int partitions = 1) const noexcept;

  double idle_w() const noexcept { return idle_w_; }
  double peak_w() const noexcept { return peak_w_; }

  /// Per-layer kernel dispatch/launch overhead charged by time_for()
  /// (exposed so range-cost tables can decompose time_for exactly).
  double dispatch_s() const noexcept { return dispatch_s_; }

  /// Energy (J) for executing `work` busy for `busy_s` seconds (dynamic
  /// part only; idle power is integrated by the metrics module).
  double active_energy_j(double busy_s) const noexcept { return (peak_w_ - idle_w_) * busy_s; }

  EfficiencyTable& efficiency() noexcept { return efficiency_; }
  const EfficiencyTable& efficiency() const noexcept { return efficiency_; }

  /// Field-by-field equality of everything a latency estimate reads: kind,
  /// cores, frequency, FLOPs/cycle, the utilisation curve, dispatch overhead
  /// and the efficiency table. The name and the power envelope price no
  /// time, so two processors differing only there compute identically.
  bool same_compute(const ProcessorModel& other) const noexcept;

 private:
  std::string name_ = "proc";
  ProcKind kind_ = ProcKind::kCpuBig;
  int cores_ = 1;
  double freq_ghz_ = 1.0;
  double flops_per_cycle_per_core_ = 8.0;
  double idle_w_ = 0.2;
  double peak_w_ = 2.0;
  double util_single_ = 0.9;
  double util_max_ = 0.95;
  /// Per-layer kernel dispatch/launch overhead; concurrent data partitions
  /// overlap launches across streams, amortising it (the dominant cost of
  /// framework-default execution for many-layer, low-FLOP networks like
  /// EfficientNet-B0 — the Fig. 1 mechanism).
  double dispatch_s_ = 0.0;
  EfficiencyTable efficiency_{};
};

}  // namespace hidp::platform
