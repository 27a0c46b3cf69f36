// §IV-A middleware overhead: "The overhead of using DP algorithm-based
// exploration including both global and local partitioning is 15 ms on
// average" (measured on Jetson-class CPUs).
//
// This google-benchmark binary measures OUR DSE on this machine: the global
// exploration (model DP + data split sweep) including the hierarchical
// local searches, per model. The absolute numbers land well under 15 ms on
// a workstation CPU.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/dse_agent.hpp"

namespace {

using namespace hidp;

struct DseFixture {
  DseFixture()
      : nodes(platform::paper_cluster()), network(nodes) {}
  std::vector<platform::NodeModel> nodes;
  net::NetworkSpec network;
  runtime::ModelSet models;
  std::vector<bool> available = std::vector<bool>(5, true);
};

DseFixture& fixture() {
  static DseFixture f;
  return f;
}

void BM_GlobalAndLocalDse(benchmark::State& state) {
  auto& f = fixture();
  const auto id = dnn::zoo::all_models()[static_cast<std::size_t>(state.range(0))];
  const auto& graph = f.models.graph(id);
  core::DseAgent agent;
  for (auto _ : state) {
    // Fresh cost model per iteration: include the local-DSE searches the
    // paper's 15 ms figure covers (no warm caches).
    partition::ClusterCostModel cost(graph, f.nodes, f.network,
                                     partition::NodeExecutionPolicy::kHierarchicalLocal);
    auto decision = agent.explore(cost, bench::kDefaultLeader, f.available, 0);
    benchmark::DoNotOptimize(decision);
  }
  state.SetLabel(dnn::zoo::model_name(id));
}

void BM_GlobalDseWarmCache(benchmark::State& state) {
  auto& f = fixture();
  const auto id = dnn::zoo::all_models()[static_cast<std::size_t>(state.range(0))];
  const auto& graph = f.models.graph(id);
  core::DseAgent agent;
  partition::ClusterCostModel cost(graph, f.nodes, f.network,
                                   partition::NodeExecutionPolicy::kHierarchicalLocal);
  for (auto _ : state) {
    auto decision = agent.explore(cost, bench::kDefaultLeader, f.available, 0);
    benchmark::DoNotOptimize(decision);
  }
  state.SetLabel(dnn::zoo::model_name(id) + " (memoised)");
}

void BM_LocalDseOnly(benchmark::State& state) {
  auto& f = fixture();
  const auto id = dnn::zoo::all_models()[static_cast<std::size_t>(state.range(0))];
  const auto& graph = f.models.graph(id);
  const auto work = platform::WorkProfile::from_graph(graph);
  const auto tx2 = platform::make_jetson_tx2();
  const std::int64_t io = graph.input_shape().bytes(4);
  for (auto _ : state) {
    auto decision = partition::best_local_config(tx2, work, io);
    benchmark::DoNotOptimize(decision);
  }
  state.SetLabel(dnn::zoo::model_name(id));
}

}  // namespace

BENCHMARK(BM_GlobalAndLocalDse)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GlobalDseWarmCache)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LocalDseOnly)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
