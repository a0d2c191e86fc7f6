#include "core/incremental.h"

#include <algorithm>

#include "common/error.h"
#include "common/string_util.h"
#include "obs/log/log.h"

namespace neat {

IncrementalClusterer::IncrementalClusterer(const roadnet::RoadNetwork& net, Config config,
                                           IncrementalOptions options)
    : net_(net), config_(config), options_(options), refiner_(net, config.refine) {
  // Online operation always needs all three phases.
  config_.mode = Mode::kOpt;
}

const std::vector<FinalCluster>& IncrementalClusterer::add_batch(
    const traj::TrajectoryDataset& batch) {
  for (const traj::Trajectory& tr : batch) {
    NEAT_EXPECT(seen_ids_.insert(tr.id()).second,
                str_cat("trajectory id ", tr.id().value(),
                        " appeared in an earlier batch; ids must be globally unique"));
  }

  // Phases 1–2 on the new batch only.
  Config batch_cfg = config_;
  batch_cfg.mode = Mode::kFlow;
  const NeatClusterer clusterer(net_, batch_cfg);
  Result res = clusterer.run(batch);

  // Sliding window: evict flows from batches older than the window. Flows
  // are kept in batch order, so the evicted ones are a prefix.
  if (options_.window_batches > 0 && batches_ + 1 > options_.window_batches) {
    const std::size_t oldest_kept = batches_ + 1 - options_.window_batches;
    const auto evicted = static_cast<std::size_t>(
        std::partition_point(flow_batch_.begin(), flow_batch_.end(),
                             [&](std::size_t b) { return b < oldest_kept; }) -
        flow_batch_.begin());
    if (evicted > 0) {
      flows_.erase(flows_.begin(), flows_.begin() + static_cast<std::ptrdiff_t>(evicted));
      flow_batch_.erase(flow_batch_.begin(),
                        flow_batch_.begin() + static_cast<std::ptrdiff_t>(evicted));
      graph_.drop_front(evicted);
      NEAT_LOG(kInfo, "core")
          .msg("sliding window evicted flows")
          .kv("evicted", evicted)
          .kv("kept", flows_.size())
          .kv("window_batches", options_.window_batches);
    }
  }

  // Member/base-cluster indices refer to the batch-local Phase 1 output,
  // which is not retained; clear them so stale indices cannot be misused.
  const std::size_t first_new = flows_.size();
  for (FlowCluster& f : res.flow_clusters) {
    f.members.clear();
    flows_.push_back(std::move(f));
    flow_batch_.push_back(batches_);
  }

  // Phase 3: only the pairs that touch a new flow are evaluated; every
  // retained pair keeps its edge in the ε-graph. The refiner member persists
  // across batches so the landmark tables and the hierarchy are built once.
  try {
    static_cast<void>(refiner_.extend_epsilon_graph(flows_, first_new, graph_));
    clusters_ = refiner_.cluster_epsilon_graph(flows_, graph_);
  } catch (...) {
    // Drop this batch's flows and edges so the next batch starts from a
    // consistent window; the clusters are recomputed by that batch.
    flows_.resize(first_new);
    flow_batch_.resize(first_new);
    graph_.rows.resize(first_new);
    const std::size_t end = graph_.first + first_new;
    for (std::vector<std::size_t>& row : graph_.rows) {
      row.erase(std::lower_bound(row.begin(), row.end(), end), row.end());
    }
    clusters_.clear();
    throw;
  }
  ++batches_;
  return clusters_;
}

}  // namespace neat
