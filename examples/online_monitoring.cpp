// Online traffic monitoring with incremental NEAT (paper §III-C):
// trajectory batches arrive over time; Phases 1-2 run per batch and the
// new flow clusters are merged with the accumulated ones after every batch
// (only the pairs that touch a new flow are measured), so the operator
// always has a fresh picture of the city's major flows.
//
//   $ ./online_monitoring
#include <iostream>

#include "core/incremental.h"
#include "eval/flow_diff.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"

using namespace neat;

int main() {
  roadnet::CityParams params;
  params.rows = 24;
  params.cols = 24;
  params.spacing_m = 135.0;
  params.seed = 31;
  const roadnet::RoadNetwork net = roadnet::make_city(params);

  const sim::SimConfig sim_cfg = sim::default_config(net, 3, 3);
  const sim::MobilitySimulator simulator(net, sim_cfg);

  Config config;
  config.refine.epsilon = 1200.0;
  IncrementalClusterer monitor(net, config);

  // Six five-minute batches arrive; ids must be globally unique, so each
  // batch re-tags its trajectories with a disjoint id range.
  constexpr std::size_t kBatchSize = 60;
  for (int batch = 0; batch < 6; ++batch) {
    const traj::TrajectoryDataset raw =
        simulator.generate(kBatchSize, 1000 + static_cast<std::uint64_t>(batch));
    traj::TrajectoryDataset tagged;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      traj::Trajectory tr(TrajectoryId(batch * 10000 + static_cast<std::int64_t>(i)),
                          raw[i].points());
      tagged.add(std::move(tr));
    }

    const std::vector<FlowCluster> before = monitor.flows();
    const auto& clusters = monitor.add_batch(tagged);

    double longest = 0.0;
    for (const FlowCluster& f : monitor.flows()) {
      longest = std::max(longest, f.route_length);
    }
    // What changed since the previous picture?
    const eval::FlowDiff diff = eval::diff_flows(before, monitor.flows(), 0.5);
    std::cout << "after batch " << batch + 1 << ": " << monitor.flows().size()
              << " accumulated flows, " << clusters.size()
              << " merged traffic clusters, longest corridor " << longest / 1000.0
              << " km (" << diff.appeared.size() << " new corridors, "
              << diff.matched_count() << " persisting)\n";
  }

  // Final situation report: the merged clusters, largest first.
  std::cout << "\nfinal traffic picture:\n";
  for (std::size_t i = 0; i < monitor.clusters().size(); ++i) {
    const FinalCluster& c = monitor.clusters()[i];
    std::cout << "  cluster " << i + 1 << ": " << c.flows.size() << " flows, "
              << c.total_route_length / 1000.0 << " km of corridor, "
              << c.cardinality() << " distinct vehicles\n";
  }
  return 0;
}
