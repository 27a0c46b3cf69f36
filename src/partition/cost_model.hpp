// Cluster-level cost model: the quantities the paper's DSE agent consults.
//
// Wraps one DNN, the node models and the network spec, and answers
// "how long does node j take to run layers [a, b)" under a node-execution
// policy (framework default vs. HiDP's hierarchical local partitioning) and
// "what does the handoff at cut c cost". Block queries are expressed over
// the clean-cut candidate list and memoised — not in a hash map, but in
// dense flat tables indexed by (compute class, ci, cj) over the candidate-
// cut grid, lazily filled, because the DP probes the same ranges repeatedly
// and the grid is small and known up front. A compute class is shared by
// every node whose processors and DRAM bandwidth are exactly equal
// (platform::NodeModel::same_compute): identical boards share one set of
// decisions, since a decision depends only on the node's compute, the work
// and the search space.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dnn/cut_analysis.hpp"
#include "dnn/graph.hpp"
#include "dnn/receptive_field.hpp"
#include "net/link.hpp"
#include "partition/local_config.hpp"
#include "platform/node.hpp"

namespace hidp::partition {

/// How a node executes a block it was assigned.
enum class NodeExecutionPolicy {
  kDefaultProcessor,  ///< framework default: GPU single stream (paper's P1)
  kHierarchicalLocal, ///< HiDP: local DSE picks the best intra-node config
};

/// Partitioning modes of the paper (§II-A).
enum class PartitionMode { kNone, kModel, kData };

std::string_view partition_mode_name(PartitionMode mode) noexcept;

class ClusterCostModel {
 public:
  static constexpr int kDefaultMaxCandidates = 26;

  /// `max_candidates` bounds the cut-candidate list (clean cuts are thinned
  /// evenly); coarser lists keep the DP within the paper's ~15 ms budget.
  /// `batch_size` prices a batched execution of the network: per-stage FLOPs
  /// and boundary/sync bytes scale with the batch while per-layer dispatch
  /// overhead does not (layer counts are batch-invariant) — the amortisation
  /// continuous batching exists to exploit. batch_size == 1 builds tables
  /// bit-identical to the pre-batching model.
  ClusterCostModel(const dnn::DnnGraph& graph, const std::vector<platform::NodeModel>& nodes,
                   net::NetworkSpec network, NodeExecutionPolicy policy,
                   int bytes_per_element = 4, int max_candidates = kDefaultMaxCandidates,
                   int batch_size = 1);

  const dnn::DnnGraph& graph() const noexcept { return *graph_; }
  const std::vector<platform::NodeModel>& nodes() const noexcept { return *nodes_; }
  const net::NetworkSpec& network() const noexcept { return network_; }

  /// Re-points transfer pricing (transfer_s, the beta term of psi) at a new
  /// NetworkSpec — the granular reaction to link degradation. Every
  /// memoised table (class rates, prefix profiles, local-DSE decisions)
  /// is compute- or model-derived and prices no link, so it stays valid;
  /// only a *compute* change warrants rebuilding the model.
  void set_network(net::NetworkSpec network) { network_ = std::move(network); }

  /// Re-prices exactly one node after its compute characteristics changed
  /// (a DVFS rescale mutates the live NodeModel's processor frequencies in
  /// place) by re-pointing it at the compute class of its new state. A
  /// state some slot already holds — an identical board, or a DVFS level
  /// seen before — re-joins that slot with its memos warm and costs
  /// nothing. Only a state not seen before builds a slot: a fresh one while
  /// fewer than nodes().size() exist, else the lowest-index slot no node
  /// references, whose memoised decisions (block rows, rate, profile
  /// decisions, data-partition slice/head decisions) are scrubbed first.
  /// A subsequent plan is bit-identical to one from a freshly built model.
  /// Returns the rows built for a newly seen state (one prefix table per
  /// processor) plus the memo entries scrubbed on reclaim — the
  /// partial_repriced_rows observability signal; 0 on a warm re-join.
  std::size_t reprice_node(std::size_t node);
  NodeExecutionPolicy policy() const noexcept { return policy_; }
  int bytes_per_element() const noexcept { return bytes_per_element_; }
  /// Batch size this model's tables are priced for.
  int batch_size() const noexcept { return batch_; }

  /// Search-space bounds handed to every local DSE this model runs. Setting
  /// a new space clears the memoised decisions.
  const LocalSearchSpace& local_search_space() const noexcept { return local_search_; }
  void set_local_search_space(LocalSearchSpace space);

  /// Cut candidates: layer positions {0, clean cuts..., n}. All block
  /// queries are indexed into this list.
  const std::vector<int>& candidates() const noexcept { return candidates_; }
  std::size_t segment_count() const noexcept { return candidates_.size() - 1; }

  /// FLOP profile of layers [candidates()[ci], candidates()[cj]).
  platform::WorkProfile profile_between(int ci, int cj) const;

  /// Activation bytes crossing candidate boundary ci (0 and n cross the
  /// network input / final logits respectively).
  std::int64_t boundary_bytes(int ci) const;

  /// Seconds for node `j` to execute candidate range [ci, cj) under the
  /// policy. With kHierarchicalLocal the local decision is DSE-searched and
  /// memoised; `decision_out` receives it when non-null.
  double node_time(std::size_t node, int ci, int cj,
                   LocalDecision* decision_out = nullptr) const;

  /// Seconds for one specific processor of a node to execute candidate
  /// range [ci, cj) single-stream (no local DSE) — the granularity
  /// OmniBoost-style per-processor pipelining plans at. O(1): served from
  /// per-(node, processor) prefix tables that bake the efficiency factors
  /// in at construction.
  double proc_time(std::size_t node, std::size_t proc, int ci, int cj) const;

  /// Seconds to move `bytes` from node `from` to node `to` over the air.
  double transfer_s(std::size_t from, std::size_t to, std::int64_t bytes) const;

  /// Policy-appropriate local decision for an arbitrary work profile on a
  /// node (used by the data partitioner), memoised on the full
  /// (compute class, profile, io_bytes) key — a hash collision can never
  /// alias two different workloads onto one decision.
  const LocalDecision& local_decision(std::size_t node, const platform::WorkProfile& work,
                                      std::int64_t io_bytes) const;

  /// Node computation rate Lambda_j for the whole network (paper Eq. 2)
  /// under the policy (default policy: the default processor's rate).
  /// Memoised per compute class — worker ordering sorts on it repeatedly.
  double node_rate_gflops(std::size_t node) const;

  /// Compute-class slots currently held; never more than nodes().size().
  std::size_t compute_class_slots() const noexcept { return classes_.size(); }
  /// Local decisions computed (not served from a memo) since construction.
  std::size_t decisions_computed() const noexcept { return decisions_computed_; }

  // ---- data-partition planning tables -------------------------------------
  // The data partitioner's hot path: everything below is lazily built per
  // graph and memoised, so a plan sweep re-probing the same (split, band)
  // geometry — MoDNN/DisNet every request, HiDP's sigma loop — costs hash
  // lookups instead of receptive-field backprops and local DSE searches.

  /// Thinned data-split candidate list (see data_split_candidates in
  /// data_partitioner.hpp), memoised per max_candidates.
  const std::vector<int>& data_split_candidate_list(int max_candidates) const;

  /// One slice's exact work and traffic for rows `band` of the split layer's
  /// output, halo recompute included — bit-identical to the per-candidate
  /// loop over dnn::backpropagate_rows.
  struct DataSliceProfile {
    platform::WorkProfile work;     ///< exact FLOPs incl. halo recompute
    std::int64_t input_bytes = 0;   ///< network-input rows shipped in
    std::int64_t output_bytes = 0;  ///< split-layer rows gathered back
    std::int64_t sync_bytes = 0;    ///< SqueezeExcite all-reduce traffic
    /// Per-compute-class local decisions (lazily filled; tiny, so linear
    /// scan).
    mutable std::vector<std::pair<std::size_t, LocalDecision>> decisions;
  };
  /// Memoised local decision for `slice` on `node`. The reference stays
  /// valid until the slice memo flushes, set_local_search_space runs or
  /// reprice_node reclaims the node's class slot — copy it (as the planner
  /// does) if retained beyond the current sweep.
  const LocalDecision& data_slice_decision(const DataSliceProfile& slice,
                                           std::size_t node) const;

  /// Batched lookup for one planning sweep: profiles for all of a split's
  /// bands at once, misses backpropagated in a single batched walk. `out`
  /// is aligned with `bands`; empty bands yield nullptr. The memo is
  /// bounded (wholesale flush at capacity, never mid-call), so pointers are
  /// only guaranteed until the next data_slice_profiles call — consume or
  /// copy within the sweep.
  void data_slice_profiles(int split, const std::vector<dnn::RowRange>& bands,
                           std::vector<const DataSliceProfile*>& out) const;

  /// Classifier-head (layers [split, n)) work, io volume and per-node local
  /// decisions, memoised per split.
  struct DataHeadProfile {
    platform::WorkProfile work;
    std::int64_t io_bytes = 0;
    mutable std::vector<std::pair<std::size_t, LocalDecision>> decisions;
  };
  const DataHeadProfile& data_head_profile(int split) const;
  const LocalDecision& data_head_decision(int split, std::size_t node) const;

  /// Global resource vector Psi{Lambda, beta} from `leader` (paper Eq. 3).
  std::vector<double> psi(std::size_t leader) const;

 private:
  /// Full memoisation key for local_decision(): the compute class and the
  /// complete class-mix FLOP vector, not a 64-bit digest of it.
  struct ProfileKey {
    std::size_t cls = 0;
    std::int64_t io_bytes = 0;
    double layers = 0.0;  ///< dispatch overhead scales with layer count
    std::array<double, dnn::kLayerKindCount * platform::kWorkClassCount> flops{};
    bool operator==(const ProfileKey& other) const noexcept {
      return cls == other.cls && io_bytes == other.io_bytes && layers == other.layers &&
             flops == other.flops;
    }
  };
  struct ProfileKeyHash {
    std::size_t operator()(const ProfileKey& key) const noexcept;
  };

  std::size_t block_index(int ci, int cj) const noexcept {
    return static_cast<std::size_t>(ci) * candidates_.size() + static_cast<std::size_t>(cj);
  }
  const LocalDecision& block_decision(std::size_t node, int ci, int cj) const;

  const dnn::DnnGraph* graph_;
  const std::vector<platform::NodeModel>* nodes_;
  net::NetworkSpec network_;
  NodeExecutionPolicy policy_;
  int bytes_per_element_;
  int batch_ = 1;
  LocalSearchSpace local_search_;
  std::vector<int> clean_cuts_;  ///< unthinned clean cuts (graph analysis)
  std::vector<int> candidates_;
  std::vector<platform::WorkProfile> prefix_profiles_;  ///< per candidate
  std::vector<std::int64_t> boundary_bytes_;            ///< per candidate

  /// Dense per-processor prefix tables over the candidate grid: base
  /// seconds (efficiency factors applied), FLOPs that land in buckets the
  /// processor cannot run, and layer counts for dispatch overhead.
  struct ProcPrefix {
    std::vector<double> base_s;     ///< per candidate
    std::vector<double> bad_flops;  ///< per candidate
    double inv_util1 = 1.0;
    double dispatch_s = 0.0;
    bool has_peak = false;
  };
  std::vector<double> layer_prefix_;  ///< per candidate

  /// Dense lazily-filled (ci × cj) decision table, allocated on the first
  /// block query: cold construction does not pay the whole (class × ci ×
  /// cj) allocation up front, and a class no plan touches never allocates
  /// its row. The DSE hot path stays O(1) per probe.
  struct BlockDecisionRow {
    std::vector<LocalDecision> decisions;  ///< ci * candidates + cj
    std::vector<std::uint8_t> filled;      ///< empty until the row's first use
  };
  /// One compute-class slot: everything derived from a node's compute,
  /// shared by every node whose state matches `state`.
  struct ComputeClass {
    platform::NodeModel state;      ///< the compute the slot was built from
    std::vector<ProcPrefix> procs;  ///< per processor of `state`
    mutable BlockDecisionRow row;
    mutable double rate = std::numeric_limits<double>::quiet_NaN();  ///< NaN = not yet
  };
  /// At most nodes().size() slots, reserved up front: each node references
  /// exactly one, so a newly seen state always finds a slot to build in.
  std::vector<ComputeClass> classes_;
  std::vector<std::size_t> class_of_;  ///< per node: its slot in classes_
  mutable std::unordered_map<ProfileKey, LocalDecision, ProfileKeyHash>
      profile_decision_cache_;
  mutable std::size_t decisions_computed_ = 0;

  /// Lazily-built flattened tables + memos for data-partition planning.
  struct DataTables {
    dnn::RowBackprop backprop;             ///< flat receptive-field walker
    std::vector<double> row_flops;         ///< per layer: FLOPs per output row
    std::vector<dnn::LayerKind> kind;      ///< per layer
    std::vector<platform::WorkClass> work_class;  ///< per layer
    std::vector<std::uint8_t> has_flops;   ///< per layer: layer.flops > 0
    std::vector<std::int64_t> se_sync_bytes;  ///< per layer: 0 unless SE gate
    std::int64_t input_row_bytes = 0;
    std::unordered_map<int, std::vector<int>> candidate_lists;  ///< per max
    std::unordered_map<std::uint64_t, DataSliceProfile> slices;
    std::unordered_map<int, DataHeadProfile> heads;
    std::vector<std::size_t> missing_scratch;
    std::vector<dnn::RowRange> missing_band_scratch;
    explicit DataTables(const dnn::DnnGraph& graph);
  };
  DataTables& data_tables() const;
  DataSliceProfile build_slice(DataTables& tables, int split, dnn::RowRange band,
                               const dnn::RowRange* needed, std::size_t stride) const;
  /// (Re)builds slot `cls` for `state`: copies the state and rebuilds its
  /// per-processor prefix tables. Returns the tables built.
  std::size_t build_class(std::size_t cls, const platform::NodeModel& state);
  /// Drops every memoised decision of slot `cls`; returns the entries
  /// dropped.
  std::size_t scrub_class(std::size_t cls);
  /// The one policy dispatch every decision path funnels through.
  LocalDecision compute_decision(std::size_t cls, const platform::WorkProfile& work,
                                 std::int64_t io_bytes) const;
  const LocalDecision& decide(const platform::WorkProfile& work, std::int64_t io_bytes,
                              std::size_t node,
                              std::vector<std::pair<std::size_t, LocalDecision>>& memo) const;
  mutable std::unique_ptr<DataTables> data_;
};

}  // namespace hidp::partition
