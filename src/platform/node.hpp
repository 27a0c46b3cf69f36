// Edge-node model: a set of heterogeneous processors plus memory and radio
// characteristics (the paper's phi = {rho_1..rho_k} with per-node
// communication rate beta).
#pragma once

#include <string>
#include <vector>

#include "platform/processor.hpp"

namespace hidp::platform {

class NodeModel {
 public:
  NodeModel() = default;
  NodeModel(std::string name, std::vector<ProcessorModel> processors, double dram_gb,
            double dram_bw_gbps, double board_static_w, double radio_bw_bps,
            double radio_latency_s);

  const std::string& name() const noexcept { return name_; }
  const std::vector<ProcessorModel>& processors() const noexcept { return processors_; }
  std::vector<ProcessorModel>& processors() noexcept { return processors_; }
  std::size_t processor_count() const noexcept { return processors_.size(); }
  const ProcessorModel& processor(std::size_t i) const { return processors_.at(i); }

  double dram_gb() const noexcept { return dram_gb_; }
  double dram_bw_gbps() const noexcept { return dram_bw_gbps_; }
  double board_static_w() const noexcept { return board_static_w_; }

  /// Radio bandwidth in bytes/second (paper: 80 MB/s wireless).
  double radio_bw_bps() const noexcept { return radio_bw_bps_; }
  double radio_latency_s() const noexcept { return radio_latency_s_; }

  /// Node computation rate Lambda_j = sum_k lambda_k for a workload
  /// (paper Eq. 2), with `partitions` concurrent local partitions.
  double lambda_total_gflops(const WorkProfile& work, int partitions = 1) const noexcept;

  /// Index of the fastest single processor for a workload (framework
  /// default = the GPU on every board that has one; this computes it).
  std::size_t fastest_processor(const WorkProfile& work) const noexcept;

  /// Index of the GPU processor, or processor_count() if none.
  std::size_t gpu_index() const noexcept;

  /// Seconds to move `bytes` between two local processors through DRAM
  /// (the paper's local communication rate mu_k).
  double local_exchange_s(std::int64_t bytes) const noexcept;

  /// Paper Eq. 1: local computation-to-communication ratio vector
  /// psi = { lambda_k / mu_k } for the given workload.
  std::vector<double> psi(const WorkProfile& work) const;

  /// True when every processor (ProcessorModel::same_compute, in order) and
  /// the DRAM bandwidth are exactly equal: the two nodes then price every
  /// workload identically, whatever their names, memory size, power or
  /// radio. The cost model shares its compute-derived memos on this.
  bool same_compute(const NodeModel& other) const noexcept;

 private:
  std::string name_ = "node";
  std::vector<ProcessorModel> processors_;
  double dram_gb_ = 4.0;
  double dram_bw_gbps_ = 10.0;
  double board_static_w_ = 2.0;
  double radio_bw_bps_ = 80e6;
  double radio_latency_s_ = 2e-3;
};

}  // namespace hidp::platform
