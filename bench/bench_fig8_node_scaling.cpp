// Figure 8: inference latency with varying number of worker edge nodes
// (2-5), per model and strategy.
//
// Paper claim: HiDP lowest at every cluster size, averaging ~30/46/38%
// lower latency than DisNet/OmniBoost/MoDNN, with the gap widening as the
// cluster shrinks.
//
// What this bench prints: HiDP is lowest in every cell, and its latency is
// flat from 2 to 5 nodes. OmniBoost is roughly flat too. DisNet and MoDNN
// get slower as nodes are added, so the gap to them grows with the cluster
// rather than as it shrinks.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main() {
  using namespace hidp;
  runtime::ModelSet models;
  constexpr int kRequests = 6;
  constexpr double kInterval = 0.3;

  util::CsvWriter csv({"model", "nodes", "strategy", "latency_ms"});
  std::map<std::string, std::vector<double>> reductions;  // per baseline

  for (const auto id : models.ids()) {
    util::Table table("Fig. 8 — " + dnn::zoo::model_name(id) +
                      ": latency [ms] vs cluster size (leader = Jetson TX2)");
    table.set_header({"strategy", "2 nodes", "3 nodes", "4 nodes", "5 nodes"});
    std::map<std::string, std::map<std::size_t, double>> latency;
    for (const std::string& name : bench::strategy_names()) {
      std::vector<std::string> row{name};
      for (std::size_t nodes = 2; nodes <= 5; ++nodes) {
        auto strategy = bench::make_strategy(name);
        const auto metrics =
            bench::run_model_stream(*strategy, models, id, kRequests, kInterval, nodes).metrics;
        latency[name][nodes] = metrics.mean_latency_s;
        row.push_back(util::fmt(metrics.mean_latency_s * 1e3, 1));
        csv.add_row({dnn::zoo::model_name(id), std::to_string(nodes), name,
                     util::fmt(metrics.mean_latency_s * 1e3, 3)});
      }
      table.add_row(row);
    }
    std::printf("%s\n", table.to_string().c_str());
    for (const std::string& name : bench::strategy_names()) {
      if (name == "HiDP") continue;
      for (std::size_t nodes = 2; nodes <= 5; ++nodes) {
        reductions[name].push_back(
            util::relative_reduction(latency[name][nodes], latency["HiDP"][nodes]));
      }
    }
  }

  util::Table avg("HiDP average latency reduction across models and cluster sizes");
  avg.set_header({"baseline", "avg reduction", "paper"});
  avg.add_row({"DisNet", util::fmt_pct(util::mean(reductions["DisNet"])), "30%"});
  avg.add_row({"OmniBoost", util::fmt_pct(util::mean(reductions["OmniBoost"])), "46%"});
  avg.add_row({"MoDNN", util::fmt_pct(util::mean(reductions["MoDNN"])), "38%"});
  std::printf("%s\n", avg.to_string().c_str());
  csv.write_file("fig8_node_scaling.csv");
  return 0;
}
