#include "platform/node.hpp"

#include <algorithm>

namespace hidp::platform {

NodeModel::NodeModel(std::string name, std::vector<ProcessorModel> processors, double dram_gb,
                     double dram_bw_gbps, double board_static_w, double radio_bw_bps,
                     double radio_latency_s)
    : name_(std::move(name)),
      processors_(std::move(processors)),
      dram_gb_(dram_gb),
      dram_bw_gbps_(dram_bw_gbps),
      board_static_w_(board_static_w),
      radio_bw_bps_(radio_bw_bps),
      radio_latency_s_(radio_latency_s) {}

double NodeModel::lambda_total_gflops(const WorkProfile& work, int partitions) const noexcept {
  double total = 0.0;
  for (const ProcessorModel& p : processors_) total += p.lambda_gflops(work, partitions);
  return total;
}

std::size_t NodeModel::fastest_processor(const WorkProfile& work) const noexcept {
  std::size_t best = 0;
  double best_lambda = -1.0;
  for (std::size_t i = 0; i < processors_.size(); ++i) {
    const double lambda = processors_[i].lambda_gflops(work, 1);
    if (lambda > best_lambda) {
      best_lambda = lambda;
      best = i;
    }
  }
  return best;
}

std::size_t NodeModel::gpu_index() const noexcept {
  for (std::size_t i = 0; i < processors_.size(); ++i) {
    if (processors_[i].kind() == ProcKind::kGpu) return i;
  }
  return processors_.size();
}

double NodeModel::local_exchange_s(std::int64_t bytes) const noexcept {
  if (bytes <= 0) return 0.0;
  const double bw = dram_bw_gbps_ * 1e9 / 2.0;  // write + read through DRAM
  return static_cast<double>(bytes) / bw;
}

bool NodeModel::same_compute(const NodeModel& other) const noexcept {
  if (dram_bw_gbps_ != other.dram_bw_gbps_ || processors_.size() != other.processors_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < processors_.size(); ++i) {
    if (!processors_[i].same_compute(other.processors_[i])) return false;
  }
  return true;
}

std::vector<double> NodeModel::psi(const WorkProfile& work) const {
  std::vector<double> ratios;
  ratios.reserve(processors_.size());
  // mu_k: bytes/s a processor can exchange locally; identical DRAM path for
  // all local processors, so psi ordering is driven by lambda_k.
  const double mu = dram_bw_gbps_ * 1e9 / 2.0;
  for (const ProcessorModel& p : processors_) {
    ratios.push_back(p.lambda_gflops(work, 1) * 1e9 / mu);
  }
  return ratios;
}

}  // namespace hidp::platform
