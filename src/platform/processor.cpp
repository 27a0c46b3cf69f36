#include "platform/processor.hpp"

#include <algorithm>

namespace hidp::platform {

using dnn::LayerKind;

std::string_view proc_kind_name(ProcKind kind) noexcept {
  switch (kind) {
    case ProcKind::kCpuBig: return "CPU-big";
    case ProcKind::kCpuLittle: return "CPU-little";
    case ProcKind::kGpu: return "GPU";
  }
  return "?";
}

WorkClass classify_layer(const dnn::Layer& layer) noexcept {
  if ((layer.kind == dnn::LayerKind::kConv2D ||
       layer.kind == dnn::LayerKind::kDepthwiseConv2D) &&
      layer.params.kernel_w > 0 && layer.params.kernel_w != layer.params.kernel) {
    return WorkClass::kAwkwardKernel;
  }
  if (layer.output.height * layer.output.width <= 200) return WorkClass::kSmallSpatial;
  return WorkClass::kRegular;
}

WorkProfile WorkProfile::from_graph(const dnn::DnnGraph& graph, int begin, int end) {
  WorkProfile profile;
  const int n = static_cast<int>(graph.size());
  const int lo = std::max(begin, 0);
  const int hi = end < 0 ? n : std::min(end, n);
  for (int i = lo; i < hi; ++i) {
    const dnn::Layer& layer = graph.layers()[static_cast<std::size_t>(i)];
    if (layer.flops > 0.0) {
      profile.add(layer.kind, layer.flops, classify_layer(layer), 1.0);
    }
  }
  return profile;
}

void WorkProfile::merge(const WorkProfile& other) noexcept {
  for (std::size_t i = 0; i < flops_.size(); ++i) flops_[i] += other.flops_[i];
  total_ += other.total_;
  layer_count_ += other.layer_count_;
}

WorkProfile WorkProfile::difference(const WorkProfile& a, const WorkProfile& b) noexcept {
  WorkProfile out;
  for (std::size_t i = 0; i < a.flops_.size(); ++i) {
    const double d = a.flops_[i] - b.flops_[i];
    if (d > 0.0) {
      out.flops_[i] = d;
      out.total_ += d;
    }
  }
  out.layer_count_ = std::max(a.layer_count_ - b.layer_count_, 0.0);
  return out;
}

WorkProfile WorkProfile::scaled(double fraction) const noexcept {
  WorkProfile out;
  for (std::size_t i = 0; i < flops_.size(); ++i) out.flops_[i] = flops_[i] * fraction;
  out.total_ = total_ * fraction;
  out.layer_count_ = layer_count_ * fraction;
  return out;
}

WorkProfile WorkProfile::batched(int n) const noexcept {
  WorkProfile out;
  const double factor = static_cast<double>(n);
  for (std::size_t i = 0; i < flops_.size(); ++i) out.flops_[i] = flops_[i] * factor;
  out.total_ = total_ * factor;
  out.layer_count_ = layer_count_;
  return out;
}

EfficiencyTable EfficiencyTable::for_kind(ProcKind kind) {
  EfficiencyTable t;
  auto set = [&t](LayerKind k, double v) {
    t.fraction[static_cast<std::size_t>(dnn::layer_kind_index(k))] = v;
  };
  switch (kind) {
    case ProcKind::kGpu:
      // Dense convolutions map well onto GPU SIMT; depthwise and
      // element-wise kernels are launch/memory bound. Small feature maps
      // under-fill the SIMT lanes; asymmetric kernels vectorise poorly.
      t.class_multiplier = {1.0, 0.55, 0.12};
      set(LayerKind::kConv2D, 0.45);
      set(LayerKind::kDepthwiseConv2D, 0.04);
      set(LayerKind::kDense, 0.30);
      set(LayerKind::kMaxPool2D, 0.10);
      set(LayerKind::kAvgPool2D, 0.10);
      set(LayerKind::kGlobalAvgPool, 0.08);
      set(LayerKind::kBatchNorm, 0.08);
      set(LayerKind::kActivation, 0.08);
      set(LayerKind::kAdd, 0.08);
      set(LayerKind::kSoftmax, 0.10);
      set(LayerKind::kSqueezeExcite, 0.03);
      break;
    case ProcKind::kCpuBig:
      t.class_multiplier = {1.0, 0.95, 0.85};
      set(LayerKind::kConv2D, 0.50);
      set(LayerKind::kDepthwiseConv2D, 0.45);
      set(LayerKind::kDense, 0.35);
      set(LayerKind::kMaxPool2D, 0.25);
      set(LayerKind::kAvgPool2D, 0.25);
      set(LayerKind::kGlobalAvgPool, 0.20);
      set(LayerKind::kBatchNorm, 0.20);
      set(LayerKind::kActivation, 0.20);
      set(LayerKind::kAdd, 0.20);
      set(LayerKind::kSoftmax, 0.20);
      set(LayerKind::kSqueezeExcite, 0.30);
      break;
    case ProcKind::kCpuLittle:
      t.class_multiplier = {1.0, 0.95, 0.85};
      set(LayerKind::kConv2D, 0.42);
      set(LayerKind::kDepthwiseConv2D, 0.38);
      set(LayerKind::kDense, 0.30);
      set(LayerKind::kMaxPool2D, 0.22);
      set(LayerKind::kAvgPool2D, 0.22);
      set(LayerKind::kGlobalAvgPool, 0.18);
      set(LayerKind::kBatchNorm, 0.18);
      set(LayerKind::kActivation, 0.18);
      set(LayerKind::kAdd, 0.18);
      set(LayerKind::kSoftmax, 0.18);
      set(LayerKind::kSqueezeExcite, 0.26);
      break;
  }
  return t;
}

ProcessorModel::ProcessorModel(std::string name, ProcKind kind, int cores, double freq_ghz,
                               double flops_per_cycle_per_core, double idle_w, double peak_w,
                               double util_single, double util_max, double dispatch_s)
    : name_(std::move(name)),
      kind_(kind),
      cores_(cores),
      freq_ghz_(freq_ghz),
      flops_per_cycle_per_core_(flops_per_cycle_per_core),
      idle_w_(idle_w),
      peak_w_(peak_w),
      util_single_(util_single),
      util_max_(util_max),
      dispatch_s_(dispatch_s),
      efficiency_(EfficiencyTable::for_kind(kind)) {}

bool ProcessorModel::same_compute(const ProcessorModel& other) const noexcept {
  return kind_ == other.kind_ && cores_ == other.cores_ && freq_ghz_ == other.freq_ghz_ &&
         flops_per_cycle_per_core_ == other.flops_per_cycle_per_core_ &&
         util_single_ == other.util_single_ && util_max_ == other.util_max_ &&
         dispatch_s_ == other.dispatch_s_ && efficiency_ == other.efficiency_;
}

double ProcessorModel::peak_gflops() const noexcept {
  return static_cast<double>(cores_) * freq_ghz_ * flops_per_cycle_per_core_;
}

double ProcessorModel::utilization(int partitions) const noexcept {
  const int sigma = std::max(partitions, 1);
  return util_single_ + (util_max_ - util_single_) * (1.0 - 1.0 / static_cast<double>(sigma));
}

double ProcessorModel::base_seconds(const WorkProfile& work) const noexcept {
  const double peak = peak_gflops() * 1e9;
  if (peak <= 0.0) return work.total() > 0.0 ? 1e30 : 0.0;
  double seconds = 0.0;
  for (int k = 0; k < dnn::kLayerKindCount; ++k) {
    const auto kind = static_cast<LayerKind>(k);
    for (int c = 0; c < kWorkClassCount; ++c) {
      const auto work_class = static_cast<WorkClass>(c);
      const double flops = work.flops_of(kind, work_class);
      if (flops <= 0.0) continue;
      const double eff = efficiency_.of(kind, work_class);
      if (eff <= 0.0) return 1e30;  // processor cannot run this kind
      seconds += flops / (peak * eff);
    }
  }
  return seconds;
}

double ProcessorModel::time_from_base(double base_s, double layer_count,
                                      int partitions) const noexcept {
  if (base_s >= 1e30) return 1e30;
  if (peak_gflops() <= 0.0) return base_s;
  double seconds = base_s / utilization(partitions);
  // Kernel launches serialise on the submission queue; sigma concurrent
  // partitions overlap launch gaps across streams (capped amortisation).
  const double streams = std::min(std::max(partitions, 1), 4);
  seconds += layer_count * dispatch_s_ / streams;
  return seconds;
}

double ProcessorModel::time_for(const WorkProfile& work, int partitions) const noexcept {
  return time_from_base(base_seconds(work), work.layer_count(), partitions);
}

double ProcessorModel::lambda_gflops(const WorkProfile& work, int partitions) const noexcept {
  const double t = time_for(work, partitions);
  if (t <= 0.0) return peak_gflops();
  if (t >= 1e29) return 0.0;
  return work.total() / t / 1e9;
}

}  // namespace hidp::platform
