#include "partition/cost_model.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "partition/data_partitioner.hpp"
#include "util/hash.hpp"

namespace hidp::partition {

using platform::WorkProfile;

std::string_view partition_mode_name(PartitionMode mode) noexcept {
  switch (mode) {
    case PartitionMode::kNone: return "none";
    case PartitionMode::kModel: return "model";
    case PartitionMode::kData: return "data";
  }
  return "?";
}

ClusterCostModel::ClusterCostModel(const dnn::DnnGraph& graph,
                                   const std::vector<platform::NodeModel>& nodes,
                                   net::NetworkSpec network, NodeExecutionPolicy policy,
                                   int bytes_per_element, int max_candidates, int batch_size)
    : graph_(&graph),
      nodes_(&nodes),
      network_(std::move(network)),
      policy_(policy),
      bytes_per_element_(bytes_per_element),
      batch_(batch_size < 1 ? 1 : batch_size) {
  clean_cuts_ = dnn::clean_cut_positions(graph);
  std::vector<int> cuts = clean_cuts_;
  if (max_candidates > 2 && static_cast<int>(cuts.size()) > max_candidates - 2) {
    std::vector<int> thinned;
    const int keep = max_candidates - 2;
    if (keep <= 1) {
      // A one-slot interior budget cannot be stepped evenly (the even-step
      // divisor would be zero); keep the middle clean cut so the candidate
      // list stays within max_candidates.
      thinned.push_back(cuts[cuts.size() / 2]);
    } else {
      const double step = static_cast<double>(cuts.size() - 1) / static_cast<double>(keep - 1);
      for (int i = 0; i < keep; ++i) {
        thinned.push_back(cuts[static_cast<std::size_t>(i * step + 0.5)]);
      }
      thinned.back() = cuts.back();
    }
    cuts = std::move(thinned);
  }
  candidates_.push_back(0);
  for (int cut : cuts) {
    if (cut != candidates_.back()) candidates_.push_back(cut);
  }
  const int n = static_cast<int>(graph.size());
  if (candidates_.back() != n) candidates_.push_back(n);

  prefix_profiles_.reserve(candidates_.size());
  boundary_bytes_.reserve(candidates_.size());
  for (int candidate : candidates_) {
    prefix_profiles_.push_back(WorkProfile::from_graph(graph, 0, candidate));
    if (candidate == 0) {
      boundary_bytes_.push_back(graph.input_shape().bytes(bytes_per_element_));
    } else if (candidate == n) {
      boundary_bytes_.push_back(graph.output_shape().bytes(bytes_per_element_));
    } else {
      boundary_bytes_.push_back(dnn::cut_bytes(graph, candidate, bytes_per_element_));
    }
  }
  if (batch_ > 1) {
    // Batch the tables before anything downstream (proc prefix tables,
    // layer prefixes) is derived from them: FLOPs and boundary activations
    // scale with the batch, layer counts (dispatch overhead) do not.
    for (WorkProfile& prefix : prefix_profiles_) prefix = prefix.batched(batch_);
    for (std::int64_t& bytes : boundary_bytes_) bytes *= batch_;
  }

  // Layer counts for dispatch overhead are model-derived; everything else a
  // range query reads is per compute class.
  layer_prefix_.reserve(candidates_.size());
  for (const WorkProfile& prefix : prefix_profiles_) {
    layer_prefix_.push_back(prefix.layer_count());
  }
  classes_.reserve(nodes.size());
  class_of_.reserve(nodes.size());
  for (const platform::NodeModel& node : nodes) {
    std::size_t cls = 0;
    while (cls < classes_.size() && !classes_[cls].state.same_compute(node)) ++cls;
    if (cls == classes_.size()) {
      classes_.emplace_back();
      build_class(cls, node);
    }
    class_of_.push_back(cls);
  }
}

std::size_t ClusterCostModel::build_class(std::size_t cls, const platform::NodeModel& state) {
  // Apply the efficiency factors to the candidate prefix profiles once, so
  // every proc_time() range query is two table reads instead of a 33-bucket
  // walk. peak_gflops is the DVFS-scaled quantity these tables bake in.
  ComputeClass& slot = classes_[cls];
  slot.state = state;
  slot.procs.assign(state.processor_count(), ProcPrefix{});
  for (std::size_t p = 0; p < state.processor_count(); ++p) {
    const platform::ProcessorModel& proc = state.processor(p);
    ProcPrefix& table = slot.procs[p];
    const double peak = proc.peak_gflops() * 1e9;
    table.has_peak = peak > 0.0;
    table.inv_util1 = 1.0 / proc.utilization(1);
    table.dispatch_s = proc.dispatch_s();
    table.base_s.reserve(candidates_.size());
    table.bad_flops.reserve(candidates_.size());
    for (const WorkProfile& prefix : prefix_profiles_) {
      double base = 0.0;
      double bad = 0.0;
      for (int k = 0; k < dnn::kLayerKindCount; ++k) {
        const auto kind = static_cast<dnn::LayerKind>(k);
        for (int c = 0; c < platform::kWorkClassCount; ++c) {
          const auto work_class = static_cast<platform::WorkClass>(c);
          const double flops = prefix.flops_of(kind, work_class);
          if (flops <= 0.0) continue;
          const double eff = proc.efficiency().of(kind, work_class);
          if (eff <= 0.0) {
            bad += flops;
          } else {
            base += flops / (peak * eff);
          }
        }
      }
      table.base_s.push_back(base);
      table.bad_flops.push_back(bad);
    }
  }
  return state.processor_count();
}

void ClusterCostModel::set_local_search_space(LocalSearchSpace space) {
  local_search_ = std::move(space);
  for (std::size_t cls = 0; cls < classes_.size(); ++cls) scrub_class(cls);
}

std::size_t ClusterCostModel::scrub_class(std::size_t cls) {
  std::size_t rows = 0;
  BlockDecisionRow& row = classes_[cls].row;
  if (!row.filled.empty()) {
    for (const std::uint8_t filled : row.filled) rows += filled;
    row.decisions.clear();
    row.decisions.shrink_to_fit();
    row.filled.clear();
    row.filled.shrink_to_fit();
  }
  if (!std::isnan(classes_[cls].rate)) {
    classes_[cls].rate = std::numeric_limits<double>::quiet_NaN();
    ++rows;
  }
  for (auto it = profile_decision_cache_.begin(); it != profile_decision_cache_.end();) {
    if (it->first.cls == cls) {
      it = profile_decision_cache_.erase(it);
      ++rows;
    } else {
      ++it;
    }
  }
  if (data_) {
    // Slice/head geometry is compute independent; only the memoised local
    // decisions belong to the class.
    const auto scrub = [&](std::vector<std::pair<std::size_t, LocalDecision>>& memo) {
      for (std::size_t i = 0; i < memo.size(); ++i) {
        if (memo[i].first != cls) continue;
        // Order within a memo is probe order, not meaningful: swap-erase.
        memo[i] = std::move(memo.back());
        memo.pop_back();
        ++rows;
        return;
      }
    };
    for (auto& [key, slice] : data_->slices) scrub(slice.decisions);
    for (auto& [split, head] : data_->heads) scrub(head.decisions);
  }
  return rows;
}

std::size_t ClusterCostModel::reprice_node(std::size_t node) {
  const platform::NodeModel& model = (*nodes_)[node];
  for (std::size_t cls = 0; cls < classes_.size(); ++cls) {
    if (classes_[cls].state.same_compute(model)) {
      class_of_[node] = cls;  // seen before: re-join its warm memos
      return 0;
    }
  }
  // A state not seen before. Below the cap it gets a fresh slot; at the cap
  // the node's own departure leaves at least one slot unreferenced (each
  // node references one), and the lowest-index such slot is reclaimed.
  std::size_t rows = 0;
  std::size_t cls = classes_.size();
  if (cls < nodes_->size()) {
    classes_.emplace_back();
  } else {
    class_of_[node] = classes_.size();
    cls = 0;
    while (std::find(class_of_.begin(), class_of_.end(), cls) != class_of_.end()) ++cls;
    rows += scrub_class(cls);
  }
  rows += build_class(cls, model);
  class_of_[node] = cls;
  return rows;
}

WorkProfile ClusterCostModel::profile_between(int ci, int cj) const {
  return WorkProfile::difference(prefix_profiles_.at(static_cast<std::size_t>(cj)),
                                 prefix_profiles_.at(static_cast<std::size_t>(ci)));
}

std::int64_t ClusterCostModel::boundary_bytes(int ci) const {
  return boundary_bytes_.at(static_cast<std::size_t>(ci));
}

LocalDecision ClusterCostModel::compute_decision(std::size_t cls,
                                                 const platform::WorkProfile& work,
                                                 std::int64_t io_bytes) const {
  ++decisions_computed_;
  const platform::NodeModel& model = classes_[cls].state;
  LocalDecision decision;
  if (policy_ == NodeExecutionPolicy::kHierarchicalLocal) {
    decision = best_local_config(model, work, io_bytes, local_search_);
  } else {
    decision.config = default_processor_config(model, work);
    decision.latency_s = estimate_local_latency(model, work, decision.config, io_bytes);
  }
  return decision;
}

const LocalDecision& ClusterCostModel::block_decision(std::size_t node, int ci, int cj) const {
  const std::size_t cls = class_of_[node];
  BlockDecisionRow& row = classes_[cls].row;
  if (row.filled.empty()) {
    const std::size_t cells = candidates_.size() * candidates_.size();
    row.decisions.resize(cells);
    row.filled.assign(cells, 0);
  }
  const std::size_t index = block_index(ci, cj);
  if (!row.filled[index]) {
    const WorkProfile work = profile_between(ci, cj);
    row.decisions[index] = compute_decision(cls, work, boundary_bytes(ci) + boundary_bytes(cj));
    row.filled[index] = 1;
  }
  return row.decisions[index];
}

double ClusterCostModel::node_time(std::size_t node, int ci, int cj,
                                   LocalDecision* decision_out) const {
  if (cj <= ci) {
    if (decision_out != nullptr) *decision_out = LocalDecision{};
    return 0.0;
  }
  const LocalDecision& decision = block_decision(node, ci, cj);
  if (decision_out != nullptr) *decision_out = decision;
  return decision.latency_s;
}

std::size_t ClusterCostModel::ProfileKeyHash::operator()(const ProfileKey& key) const noexcept {
  util::Fnv1a h(key.cls);
  for (std::size_t i = 0; i < key.flops.size(); ++i) {
    const double f = key.flops[i];
    if (f > 0.0) h.mix(std::bit_cast<std::uint64_t>(f) ^ (i + 1));
  }
  h.mix(static_cast<std::uint64_t>(key.io_bytes));
  h.mix(std::bit_cast<std::uint64_t>(key.layers));
  return static_cast<std::size_t>(h.digest());
}

const LocalDecision& ClusterCostModel::local_decision(std::size_t node,
                                                      const platform::WorkProfile& work,
                                                      std::int64_t io_bytes) const {
  ProfileKey key;
  key.cls = class_of_[node];
  key.io_bytes = io_bytes;
  key.layers = work.layer_count();
  for (int k = 0; k < dnn::kLayerKindCount; ++k) {
    for (int c = 0; c < platform::kWorkClassCount; ++c) {
      key.flops[WorkProfile::bucket(static_cast<dnn::LayerKind>(k),
                                    static_cast<platform::WorkClass>(c))] =
          work.flops_of(static_cast<dnn::LayerKind>(k), static_cast<platform::WorkClass>(c));
    }
  }
  auto it = profile_decision_cache_.find(key);
  if (it == profile_decision_cache_.end()) {
    const std::size_t cls = key.cls;
    it = profile_decision_cache_.emplace(std::move(key), compute_decision(cls, work, io_bytes))
             .first;
  }
  return it->second;
}

double ClusterCostModel::proc_time(std::size_t node, std::size_t proc, int ci, int cj) const {
  if (cj <= ci) return 0.0;
  const ProcPrefix& table = classes_[class_of_[node]].procs[proc];
  const auto i = static_cast<std::size_t>(ci);
  const auto j = static_cast<std::size_t>(cj);
  const double total =
      prefix_profiles_[j].total() - prefix_profiles_[i].total();
  if (!table.has_peak) return total > 0.0 ? 1e30 : 0.0;
  if (table.bad_flops[j] - table.bad_flops[i] > 0.0) return 1e30;
  const double base = table.base_s[j] - table.base_s[i];
  const double layers = layer_prefix_[j] - layer_prefix_[i];
  return base * table.inv_util1 + layers * table.dispatch_s;
}

double ClusterCostModel::transfer_s(std::size_t from, std::size_t to,
                                    std::int64_t bytes) const {
  return network_.link(from, to).transfer_s(bytes);
}

double ClusterCostModel::node_rate_gflops(std::size_t node) const {
  const ComputeClass& cls = classes_[class_of_[node]];
  double& slot = cls.rate;
  if (!std::isnan(slot)) return slot;
  const WorkProfile whole = prefix_profiles_.back();
  const platform::NodeModel& model = cls.state;
  if (policy_ == NodeExecutionPolicy::kHierarchicalLocal) {
    slot = model.lambda_total_gflops(whole, /*partitions=*/4);
  } else {
    const LocalConfig config = default_processor_config(model, whole);
    slot = model.processor(config.shares.front().proc).lambda_gflops(whole, 1);
  }
  return slot;
}

ClusterCostModel::DataTables::DataTables(const dnn::DnnGraph& graph) : backprop(graph) {
  const std::size_t n = graph.size();
  row_flops.reserve(n);
  kind.reserve(n);
  work_class.reserve(n);
  has_flops.reserve(n);
  se_sync_bytes.reserve(n);
  for (std::size_t l = 0; l < n; ++l) {
    const dnn::Layer& layer = graph.layer(static_cast<int>(l));
    row_flops.push_back(dnn::layer_flops_per_row(layer));
    kind.push_back(layer.kind);
    work_class.push_back(platform::classify_layer(layer));
    has_flops.push_back(layer.flops > 0.0 ? 1 : 0);
    se_sync_bytes.push_back(layer.kind == dnn::LayerKind::kSqueezeExcite
                                ? 2L * layer.output.channels
                                : 0);
  }
}

ClusterCostModel::DataTables& ClusterCostModel::data_tables() const {
  if (!data_) {
    data_ = std::make_unique<DataTables>(*graph_);
    if (batch_ > 1) {
      // Per-row FLOPs and SqueezeExcite sync traffic scale with the batch;
      // the receptive-field geometry itself is batch-invariant.
      for (double& flops : data_->row_flops) flops *= static_cast<double>(batch_);
      for (std::int64_t& bytes : data_->se_sync_bytes) bytes *= batch_;
    }
  }
  return *data_;
}

const std::vector<int>& ClusterCostModel::data_split_candidate_list(int max_candidates) const {
  DataTables& tables = data_tables();
  auto it = tables.candidate_lists.find(max_candidates);
  if (it == tables.candidate_lists.end()) {
    it = tables.candidate_lists
             .emplace(max_candidates,
                      data_split_candidates_from_cuts(*graph_, clean_cuts_, max_candidates))
             .first;
  }
  return it->second;
}

namespace {

std::uint64_t slice_key(int split, dnn::RowRange band) noexcept {
  // 22/21/21-bit packing: callers clamp bands to the split layer's height,
  // so fields only overflow on >4M-layer graphs or >2M-row images — fail
  // loudly rather than alias two bands onto one memo key.
  assert(split >= 0 && split < (1 << 22));
  assert(band.begin >= 0 && band.begin < (1 << 21));
  assert(band.end >= 0 && band.end < (1 << 21));
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(split)) << 42) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(band.begin)) << 21) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(band.end));
}

}  // namespace

void ClusterCostModel::data_slice_profiles(int split, const std::vector<dnn::RowRange>& bands,
                                           std::vector<const DataSliceProfile*>& out) const {
  DataTables& tables = data_tables();
  // Availability churn shifts band boundaries per request, so the memo is
  // bounded like the plan cache: wholesale flush at capacity (before any
  // lookup — returned pointers must survive the call).
  constexpr std::size_t kSliceMemoCapacity = 4096;
  if (tables.slices.size() >= kSliceMemoCapacity) tables.slices.clear();
  out.assign(bands.size(), nullptr);
  // Collect the bands this sweep still needs geometry for, then resolve
  // them in one batched receptive-field walk. Bands are clamped to the
  // split layer's height before keying (exactly what the backprop does)
  // so out-of-contract bands cannot alias another band's 21-bit key.
  const int target_height = graph_->layer(split - 1).output.height;
  auto& missing = tables.missing_scratch;
  auto& missing_bands = tables.missing_band_scratch;
  missing.clear();
  missing_bands.clear();
  for (std::size_t i = 0; i < bands.size(); ++i) {
    const dnn::RowRange band{std::clamp(bands[i].begin, 0, target_height),
                             std::clamp(bands[i].end, 0, target_height)};
    if (band.empty()) continue;
    const std::uint64_t key = slice_key(split, band);
    auto it = tables.slices.find(key);
    if (it != tables.slices.end()) {
      out[i] = &it->second;
    } else {
      missing.push_back(i);
      missing_bands.push_back(band);
    }
  }
  if (missing.empty()) return;
  const std::vector<dnn::RowRange>& needed =
      tables.backprop.run_batch(split, missing_bands.data(), missing_bands.size());
  for (std::size_t j = 0; j < missing.size(); ++j) {
    const std::uint64_t key = slice_key(split, missing_bands[j]);
    out[missing[j]] = &tables.slices
                           .emplace(key, build_slice(tables, split, missing_bands[j],
                                                     needed.data() + j, missing_bands.size()))
                           .first->second;
  }
}

ClusterCostModel::DataSliceProfile ClusterCostModel::build_slice(
    DataTables& tables, int split, dnn::RowRange band, const dnn::RowRange* needed,
    std::size_t stride) const {
  DataSliceProfile entry;
  for (int l = 0; l < split; ++l) {
    const dnn::RowRange rows = needed[static_cast<std::size_t>(l) * stride];
    if (rows.empty()) continue;
    if (tables.has_flops[static_cast<std::size_t>(l)]) {
      entry.work.add(tables.kind[static_cast<std::size_t>(l)],
                     tables.row_flops[static_cast<std::size_t>(l)] * rows.size(),
                     tables.work_class[static_cast<std::size_t>(l)]);
    }
    // Partial-sum all-reduce: C floats up, C scale factors down.
    entry.sync_bytes += tables.se_sync_bytes[static_cast<std::size_t>(l)] * bytes_per_element_;
  }
  if (tables.input_row_bytes == 0) {
    const dnn::Shape& input_shape = graph_->input_shape();
    tables.input_row_bytes = static_cast<std::int64_t>(input_shape.channels) *
                             input_shape.width * bytes_per_element_ * batch_;
  }
  entry.input_bytes = needed[0].size() * tables.input_row_bytes;
  const dnn::Layer& boundary = graph_->layer(split - 1);
  const std::int64_t target_row_bytes = static_cast<std::int64_t>(boundary.output.channels) *
                                        boundary.output.width * bytes_per_element_ * batch_;
  entry.output_bytes = band.size() * target_row_bytes;
  return entry;
}

const LocalDecision& ClusterCostModel::decide(
    const platform::WorkProfile& work, std::int64_t io_bytes, std::size_t node,
    std::vector<std::pair<std::size_t, LocalDecision>>& memo) const {
  const std::size_t cls = class_of_[node];
  for (const auto& [cached_cls, decision] : memo) {
    if (cached_cls == cls) return decision;
  }
  // At most one entry per class slot, and never more slots than nodes;
  // reserving up front keeps previously returned references valid across
  // later queries on the same profile.
  if (memo.empty()) memo.reserve(nodes_->size());
  memo.emplace_back(cls, compute_decision(cls, work, io_bytes));
  return memo.back().second;
}

const LocalDecision& ClusterCostModel::data_slice_decision(const DataSliceProfile& slice,
                                                           std::size_t node) const {
  return decide(slice.work, slice.input_bytes + slice.output_bytes, node, slice.decisions);
}

const ClusterCostModel::DataHeadProfile& ClusterCostModel::data_head_profile(int split) const {
  DataTables& tables = data_tables();
  auto it = tables.heads.find(split);
  if (it != tables.heads.end()) return it->second;
  DataHeadProfile head;
  head.work = WorkProfile::from_graph(*graph_, split, -1);
  if (batch_ > 1) head.work = head.work.batched(batch_);
  const dnn::Layer& boundary = graph_->layer(split - 1);
  const std::int64_t target_row_bytes = static_cast<std::int64_t>(boundary.output.channels) *
                                        boundary.output.width * bytes_per_element_ * batch_;
  head.io_bytes = static_cast<std::int64_t>(boundary.output.height) * target_row_bytes +
                  graph_->output_shape().bytes(bytes_per_element_) * batch_;
  return tables.heads.emplace(split, std::move(head)).first->second;
}

const LocalDecision& ClusterCostModel::data_head_decision(int split, std::size_t node) const {
  const DataHeadProfile& head = data_head_profile(split);
  return decide(head.work, head.io_bytes, node, head.decisions);
}

std::vector<double> ClusterCostModel::psi(std::size_t leader) const {
  std::vector<double> out;
  out.reserve(nodes_->size());
  for (std::size_t j = 0; j < nodes_->size(); ++j) {
    const double lambda_bps = node_rate_gflops(j) * 1e9;
    const double beta = network_.beta_bps(leader, j);
    out.push_back(beta > 0.0 ? lambda_bps / beta : 0.0);
  }
  return out;
}

}  // namespace hidp::partition
