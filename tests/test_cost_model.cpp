// Cluster cost model: candidates, profiles, boundary bytes, policies, Psi,
// and the compute classes its memos are keyed by.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dnn/zoo/zoo.hpp"
#include "partition/cost_model.hpp"
#include "platform/device_db.hpp"

namespace hidp::partition {
namespace {

struct Fixture {
  dnn::DnnGraph graph = dnn::zoo::build_efficientnet_b0();
  std::vector<platform::NodeModel> nodes = platform::paper_cluster();
  net::NetworkSpec network{nodes};
};

TEST(CostModel, CandidatesBracketTheGraph) {
  Fixture f;
  ClusterCostModel cost(f.graph, f.nodes, f.network, NodeExecutionPolicy::kHierarchicalLocal);
  const auto& c = cost.candidates();
  ASSERT_GE(c.size(), 3u);
  EXPECT_EQ(c.front(), 0);
  EXPECT_EQ(c.back(), static_cast<int>(f.graph.size()));
  for (std::size_t i = 1; i < c.size(); ++i) EXPECT_GT(c[i], c[i - 1]);
  EXPECT_EQ(cost.segment_count(), c.size() - 1);
}

TEST(CostModel, ProfilesAreConsistentWithGraph) {
  Fixture f;
  ClusterCostModel cost(f.graph, f.nodes, f.network, NodeExecutionPolicy::kHierarchicalLocal);
  const int last = static_cast<int>(cost.segment_count());
  const auto whole = cost.profile_between(0, last);
  EXPECT_NEAR(whole.total(), f.graph.total_flops(), f.graph.total_flops() * 1e-9);
  // Additivity over an interior split.
  const int mid = last / 2;
  EXPECT_NEAR(cost.profile_between(0, mid).total() + cost.profile_between(mid, last).total(),
              whole.total(), whole.total() * 1e-9);
}

TEST(CostModel, BoundaryBytesEndpoints) {
  Fixture f;
  ClusterCostModel cost(f.graph, f.nodes, f.network, NodeExecutionPolicy::kHierarchicalLocal);
  EXPECT_EQ(cost.boundary_bytes(0), f.graph.input_shape().bytes(4));
  EXPECT_EQ(cost.boundary_bytes(static_cast<int>(cost.segment_count())),
            f.graph.output_shape().bytes(4));
}

TEST(CostModel, HierarchicalNeverSlowerThanDefault) {
  Fixture f;
  ClusterCostModel dflt(f.graph, f.nodes, f.network, NodeExecutionPolicy::kDefaultProcessor);
  ClusterCostModel hier(f.graph, f.nodes, f.network, NodeExecutionPolicy::kHierarchicalLocal);
  const int last = static_cast<int>(dflt.segment_count());
  for (std::size_t node = 0; node < f.nodes.size(); ++node) {
    EXPECT_LE(hier.node_time(node, 0, last), dflt.node_time(node, 0, last) + 1e-12)
        << f.nodes[node].name();
  }
}

TEST(CostModel, NodeTimeMemoisedAndDecisionExposed) {
  Fixture f;
  ClusterCostModel cost(f.graph, f.nodes, f.network, NodeExecutionPolicy::kHierarchicalLocal);
  LocalDecision d1, d2;
  const double t1 = cost.node_time(1, 0, 5, &d1);
  const double t2 = cost.node_time(1, 0, 5, &d2);
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_EQ(d1.config.mode, d2.config.mode);
  EXPECT_DOUBLE_EQ(d1.latency_s, t1);
}

TEST(CostModel, EmptyRangeIsFree) {
  Fixture f;
  ClusterCostModel cost(f.graph, f.nodes, f.network, NodeExecutionPolicy::kDefaultProcessor);
  EXPECT_DOUBLE_EQ(cost.node_time(0, 3, 3), 0.0);
  EXPECT_DOUBLE_EQ(cost.node_time(0, 5, 2), 0.0);
}

TEST(CostModel, ProcTimeMatchesProcessorModel) {
  Fixture f;
  ClusterCostModel cost(f.graph, f.nodes, f.network, NodeExecutionPolicy::kDefaultProcessor);
  const auto profile = cost.profile_between(0, 4);
  EXPECT_DOUBLE_EQ(cost.proc_time(1, 0, 0, 4), f.nodes[1].processor(0).time_for(profile, 1));
}

TEST(CostModel, TransferUsesLinkSpec) {
  Fixture f;
  ClusterCostModel cost(f.graph, f.nodes, f.network, NodeExecutionPolicy::kDefaultProcessor);
  EXPECT_DOUBLE_EQ(cost.transfer_s(0, 1, 80'000'000), 1.0 + 4e-3);
  EXPECT_LT(cost.transfer_s(2, 2, 80'000'000), 1e-3);  // loopback
}

TEST(CostModel, DefaultPolicyRateIsDefaultProcessor) {
  Fixture f;
  ClusterCostModel cost(f.graph, f.nodes, f.network, NodeExecutionPolicy::kDefaultProcessor);
  // For the RPi5, default placement (GPU) is much slower than the node's
  // aggregate capability — the rate must reflect the default placement.
  const double rpi5_rate = cost.node_rate_gflops(3);
  ClusterCostModel hier(f.graph, f.nodes, f.network, NodeExecutionPolicy::kHierarchicalLocal);
  EXPECT_LT(rpi5_rate, hier.node_rate_gflops(3));
}

TEST(CostModel, PsiPositiveAndLeaderDominates) {
  Fixture f;
  ClusterCostModel cost(f.graph, f.nodes, f.network, NodeExecutionPolicy::kHierarchicalLocal);
  const auto psi = cost.psi(0);
  ASSERT_EQ(psi.size(), f.nodes.size());
  for (std::size_t j = 1; j < psi.size(); ++j) EXPECT_GT(psi[j], 0.0);
  // The leader's loopback beta is huge -> psi ~ 0 for itself.
  EXPECT_LT(psi[0], psi[1]);
}

TEST(CostModel, ModeNames) {
  EXPECT_EQ(partition_mode_name(PartitionMode::kNone), "none");
  EXPECT_EQ(partition_mode_name(PartitionMode::kModel), "model");
  EXPECT_EQ(partition_mode_name(PartitionMode::kData), "data");
}

TEST(CostModel, CandidateThinningBoundsList) {
  Fixture f;
  ClusterCostModel coarse(f.graph, f.nodes, f.network,
                          NodeExecutionPolicy::kHierarchicalLocal, 4, /*max_candidates=*/10);
  EXPECT_LE(coarse.candidates().size(), 10u);
  EXPECT_EQ(coarse.candidates().front(), 0);
  EXPECT_EQ(coarse.candidates().back(), static_cast<int>(f.graph.size()));
  // Whole-network profile must be unaffected by thinning.
  const auto whole =
      coarse.profile_between(0, static_cast<int>(coarse.segment_count()));
  EXPECT_NEAR(whole.total(), f.graph.total_flops(), f.graph.total_flops() * 1e-9);
}

TEST(CostModel, TinyCandidateBudgetDoesNotDivideByZero) {
  // max_candidates == 3 leaves a one-slot interior budget; the even-step
  // thinning divisor used to be (keep - 1) == 0.
  Fixture f;
  for (const int max_candidates : {3, 4}) {
    ClusterCostModel cost(f.graph, f.nodes, f.network,
                          NodeExecutionPolicy::kHierarchicalLocal, 4, max_candidates);
    ASSERT_GE(cost.candidates().size(), 3u);
    EXPECT_LE(cost.candidates().size(), static_cast<std::size_t>(max_candidates));
    EXPECT_EQ(cost.candidates().front(), 0);
    EXPECT_EQ(cost.candidates().back(), static_cast<int>(f.graph.size()));
    const auto whole =
        cost.profile_between(0, static_cast<int>(cost.segment_count()));
    EXPECT_NEAR(whole.total(), f.graph.total_flops(), f.graph.total_flops() * 1e-9);
  }
}

TEST(CostModel, LocalDecisionMemoised) {
  Fixture f;
  ClusterCostModel cost(f.graph, f.nodes, f.network, NodeExecutionPolicy::kHierarchicalLocal);
  const auto work = platform::WorkProfile::from_graph(f.graph, 0, 30);
  const auto& d1 = cost.local_decision(1, work, 1 << 20);
  const auto& d2 = cost.local_decision(1, work, 1 << 20);
  EXPECT_EQ(&d1, &d2);  // same cached entry
  EXPECT_GT(d1.latency_s, 0.0);
  // Different node -> different decision slot.
  const auto& d3 = cost.local_decision(2, work, 1 << 20);
  EXPECT_NE(&d1, &d3);
}

// ---- compute classes --------------------------------------------------------

std::vector<platform::NodeModel> orin_tx2_fleet() {
  std::vector<platform::NodeModel> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(platform::make_jetson_orin_nx());
  for (int i = 0; i < 4; ++i) nodes.push_back(platform::make_jetson_tx2());
  return nodes;
}

/// DVFS as the runtime applies it: every processor at its board frequency
/// times `scale`, mutated in place.
void set_scale(std::vector<platform::NodeModel>& nodes, std::size_t node, double scale) {
  const platform::NodeModel board = platform::make_device(nodes[node].name());
  for (std::size_t p = 0; p < nodes[node].processor_count(); ++p) {
    nodes[node].processors()[p].set_freq_ghz(board.processor(p).freq_ghz() * scale);
  }
}

/// Queries every block on every node; returns the decisions this computed.
std::size_t warm_blocks(const ClusterCostModel& cost) {
  const std::size_t before = cost.decisions_computed();
  const int c = static_cast<int>(cost.candidates().size());
  for (std::size_t node = 0; node < cost.nodes().size(); ++node) {
    for (int ci = 0; ci < c; ++ci) {
      for (int cj = ci + 1; cj < c; ++cj) cost.node_time(node, ci, cj);
    }
  }
  return cost.decisions_computed() - before;
}

/// Every compute-derived answer of `cost` — block times, per-processor
/// times, rates, Psi, profile, data-slice and data-head decisions — equals,
/// bit for bit, that of a model freshly built on the same node state.
void expect_matches_fresh(const ClusterCostModel& cost) {
  const ClusterCostModel fresh(cost.graph(), cost.nodes(), cost.network(), cost.policy());
  const int c = static_cast<int>(cost.candidates().size());
  for (std::size_t node = 0; node < cost.nodes().size(); ++node) {
    SCOPED_TRACE(node);
    EXPECT_EQ(cost.node_rate_gflops(node), fresh.node_rate_gflops(node));
    for (int ci = 0; ci < c; ++ci) {
      for (int cj = ci + 1; cj < c; ++cj) {
        ASSERT_EQ(cost.node_time(node, ci, cj), fresh.node_time(node, ci, cj))
            << "block [" << ci << ", " << cj << ")";
        for (std::size_t p = 0; p < cost.nodes()[node].processor_count(); ++p) {
          ASSERT_EQ(cost.proc_time(node, p, ci, cj), fresh.proc_time(node, p, ci, cj))
              << "proc " << p << " block [" << ci << ", " << cj << ")";
        }
      }
    }
    const auto work = platform::WorkProfile::from_graph(cost.graph(), 0, 30);
    EXPECT_EQ(cost.local_decision(node, work, 1 << 20).latency_s,
              fresh.local_decision(node, work, 1 << 20).latency_s);
    const int split = cost.data_split_candidate_list(8).at(1);
    const int height = cost.graph().layer(split - 1).output.height;
    const std::vector<dnn::RowRange> bands{{0, height / 2}, {height / 2, height}};
    std::vector<const ClusterCostModel::DataSliceProfile*> slices;
    std::vector<const ClusterCostModel::DataSliceProfile*> fresh_slices;
    cost.data_slice_profiles(split, bands, slices);
    fresh.data_slice_profiles(split, bands, fresh_slices);
    for (std::size_t b = 0; b < bands.size(); ++b) {
      EXPECT_EQ(cost.data_slice_decision(*slices[b], node).latency_s,
                fresh.data_slice_decision(*fresh_slices[b], node).latency_s);
    }
    EXPECT_EQ(cost.data_head_decision(split, node).latency_s,
              fresh.data_head_decision(split, node).latency_s);
  }
  EXPECT_EQ(cost.psi(0), fresh.psi(0));
}

TEST(ComputeClass, IdenticalBoardsShareDecisionRows) {
  Fixture f;
  f.nodes = orin_tx2_fleet();
  const net::NetworkSpec network{f.nodes};
  const ClusterCostModel cost(f.graph, f.nodes, network,
                              NodeExecutionPolicy::kHierarchicalLocal);
  const std::size_t c = cost.candidates().size();
  const std::size_t blocks = c * (c - 1) / 2;
  EXPECT_EQ(cost.compute_class_slots(), 2u);
  EXPECT_EQ(warm_blocks(cost), 2 * blocks);
  EXPECT_EQ(warm_blocks(cost), 0u);  // every query now hits
}

TEST(ComputeClass, DvfsReturnRejoinsWarmClassBitIdentical) {
  Fixture f;
  f.nodes = orin_tx2_fleet();
  const net::NetworkSpec network{f.nodes};
  ClusterCostModel cost(f.graph, f.nodes, network, NodeExecutionPolicy::kHierarchicalLocal);
  const std::size_t c = cost.candidates().size();
  const std::size_t blocks = c * (c - 1) / 2;
  warm_blocks(cost);
  expect_matches_fresh(cost);
  const std::vector<std::pair<double, std::size_t>> cycle{
      {0.7, blocks}, {1.0, 0}, {0.7, 0}, {1.0, 0}, {0.7, 0}};
  for (const auto& [scale, expected] : cycle) {
    SCOPED_TRACE(scale);
    set_scale(f.nodes, 0, scale);
    cost.reprice_node(0);
    // Only the first visit to 0.7 is a state not seen before.
    EXPECT_EQ(warm_blocks(cost), expected);
    expect_matches_fresh(cost);
  }
  EXPECT_EQ(cost.compute_class_slots(), 3u);
}

TEST(ComputeClass, OneDifferingComputeFieldSplitsTheClass) {
  const dnn::DnnGraph graph = dnn::zoo::build_efficientnet_b0();
  const auto pair_model = [&](const platform::NodeModel& a, const platform::NodeModel& b) {
    std::vector<platform::NodeModel> nodes{a, b};
    const net::NetworkSpec network{nodes};
    const ClusterCostModel pair(graph, nodes, network, NodeExecutionPolicy::kHierarchicalLocal);
    // The second node must be priced as itself, exactly as when alone.
    std::vector<platform::NodeModel> alone{b};
    const net::NetworkSpec alone_network{alone};
    const ClusterCostModel single(graph, alone, alone_network,
                                  NodeExecutionPolicy::kHierarchicalLocal);
    const int c = static_cast<int>(pair.candidates().size());
    for (int ci = 0; ci < c; ++ci) {
      for (int cj = ci + 1; cj < c; ++cj) {
        EXPECT_EQ(pair.node_time(1, ci, cj), single.node_time(0, ci, cj));
      }
    }
    EXPECT_EQ(pair.node_rate_gflops(1), single.node_rate_gflops(0));
    return pair.compute_class_slots();
  };
  const platform::NodeModel tx2 = platform::make_jetson_tx2();
  const auto rebuilt = [&](std::vector<platform::ProcessorModel> procs, double dram_bw_gbps,
                           std::string name) {
    return platform::NodeModel(std::move(name), std::move(procs), tx2.dram_gb(), dram_bw_gbps,
                               tx2.board_static_w(), tx2.radio_bw_bps(),
                               tx2.radio_latency_s());
  };

  // Names, memory size, power and radio price no compute: one class.
  EXPECT_EQ(pair_model(tx2, rebuilt(tx2.processors(), tx2.dram_bw_gbps(), "another TX2")), 1u);

  auto efficiency = tx2.processors();
  efficiency[0].efficiency().fraction[static_cast<std::size_t>(
      dnn::layer_kind_index(dnn::LayerKind::kConv2D))] *= 0.5;
  EXPECT_EQ(pair_model(tx2, rebuilt(efficiency, tx2.dram_bw_gbps(), tx2.name())), 2u);

  auto multiplier = tx2.processors();
  multiplier.back().efficiency().class_multiplier[1] *= 0.9;
  EXPECT_EQ(pair_model(tx2, rebuilt(multiplier, tx2.dram_bw_gbps(), tx2.name())), 2u);

  auto frequency = tx2.processors();
  frequency[1].set_freq_ghz(frequency[1].freq_ghz() * 0.9);
  EXPECT_EQ(pair_model(tx2, rebuilt(frequency, tx2.dram_bw_gbps(), tx2.name())), 2u);

  EXPECT_EQ(pair_model(tx2, rebuilt(tx2.processors(), tx2.dram_bw_gbps() * 0.5, tx2.name())),
            2u);

  const auto cpu = [](double dispatch_s) {
    return platform::ProcessorModel("cpu", platform::ProcKind::kCpuBig, 4, 2.0, 8.0, 0.5, 4.0,
                                    0.8, 0.95, dispatch_s);
  };
  EXPECT_EQ(pair_model(rebuilt({cpu(2e-5)}, 10.0, "a"), rebuilt({cpu(2e-5)}, 10.0, "b")), 1u);
  EXPECT_EQ(pair_model(rebuilt({cpu(2e-5)}, 10.0, "a"), rebuilt({cpu(3e-5)}, 10.0, "a")), 2u);
}

TEST(ComputeClass, SlotsCappedAtNodeCountAndReclaimStaysBitIdentical) {
  Fixture f;
  f.nodes = {platform::make_jetson_tx2(), platform::make_jetson_tx2()};
  const net::NetworkSpec network{f.nodes};
  ClusterCostModel cost(f.graph, f.nodes, network, NodeExecutionPolicy::kHierarchicalLocal);
  EXPECT_EQ(cost.compute_class_slots(), 1u);
  expect_matches_fresh(cost);
  // Three distinct scales on both nodes in turn: states keep appearing that
  // no slot holds, so the cap forces reclaims of warm, unreferenced slots.
  const double scales[] = {0.7, 0.5, 0.85};
  std::size_t reprices_with_work = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t node = 0; node < 2; ++node) {
      for (const double scale : scales) {
        SCOPED_TRACE(::testing::Message() << "round " << round << " node " << node << " scale "
                                          << scale);
        set_scale(f.nodes, node, scale);
        if (cost.reprice_node(node) > 0) ++reprices_with_work;
        EXPECT_LE(cost.compute_class_slots(), 2u);
        expect_matches_fresh(cost);
      }
    }
  }
  EXPECT_EQ(cost.compute_class_slots(), 2u);
  EXPECT_GT(reprices_with_work, 0u);
}

}  // namespace
}  // namespace hidp::partition
