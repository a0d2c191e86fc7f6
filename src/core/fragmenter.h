// NEAT Phase 1 — base cluster formation (paper §III-A).
//
// Step 1: each trajectory is partitioned into t-fragments. Consecutive
// samples either share a segment, sit on adjacent segments (a junction point
// is inserted between them, the paper's trajectory splitting points), or sit
// on non-contiguous segments — in which case the junction sequence connecting
// them along the travel path is recovered with a (bounded) shortest-path
// search, mirroring the paper's map-matching-based gap repair, and a
// zero-sample fragment is emitted for every intermediate segment.
//
// Step 2: fragments are grouped by segment id into base clusters, which are
// returned sorted by density (descending) so the first element is the
// dense-core the Phase 2 merge starts from.
//
// Phase 1 runs as one algorithm whatever the deployment: the trajectories
// are walked in contiguous batches, each batch is fragmented and grouped on
// its own, and the per-batch outputs are combined by merge_phase1_outputs.
// That merge is exact, so a batch is equally a memory bound (out-of-core
// streaming) or a data node's shard (the paper's §II-C deployment, where
// data nodes run Phase 1 locally and ship only base clusters). An in-memory
// dataset is the same walk over a DatasetSource in one batch.
#pragma once

#include <cstddef>
#include <vector>

#include "core/base_cluster.h"
#include "core/fragment.h"
#include "roadnet/road_network.h"
#include "traj/dataset.h"

namespace neat {

/// Abstract random-access trajectory source for the out-of-core Phase 1
/// walk. Implementations materialize trajectories on demand (e.g. from an
/// mmap-backed columnar file), so the dataset never has to fit in memory.
/// The interface lives in core (not store) because the fragmenter consumes
/// it; store provides the columnar-backed implementation.
class TrajectorySource {
 public:
  virtual ~TrajectorySource() = default;

  /// Number of trajectories.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Materializes trajectory `i`. Must be safe to call concurrently for
  /// distinct indices (Phase 1 workers pull from one batch in parallel).
  [[nodiscard]] virtual traj::Trajectory at(std::size_t i) const = 0;

  /// Called serially after trajectories [begin, end) have been consumed —
  /// a paging source can drop the range's backing pages here.
  virtual void batch_done(std::size_t begin, std::size_t end);
};

/// TrajectorySource over an in-memory dataset. Keeps a reference to the
/// dataset; do not outlive it.
class DatasetSource final : public TrajectorySource {
 public:
  explicit DatasetSource(const traj::TrajectoryDataset& data) : data_(data) {}

  [[nodiscard]] std::size_t size() const override { return data_.size(); }
  [[nodiscard]] traj::Trajectory at(std::size_t i) const override { return data_[i]; }

 private:
  const traj::TrajectoryDataset& data_;
};

/// Tuning of the streaming (out-of-core) Phase 1 overload.
struct StreamingPhase1Options {
  /// Trajectories materialized per batch; bounds peak memory. Values of 0
  /// are treated as 1.
  std::size_t batch_size{4096};
};

/// Result of Phase 1 over a dataset.
struct Phase1Output {
  /// Base clusters sorted by (density desc, sid asc); index 0 is the
  /// dense-core. Every cluster is finalized.
  std::vector<BaseCluster> base_clusters;
  std::size_t num_fragments{0};    ///< Total t-fragments extracted.
  std::size_t num_gap_repairs{0};  ///< Non-contiguous sample pairs repaired.
};

/// Extracts t-fragments and forms base clusters over one road network.
/// Keeps a reference to the network; do not outlive it.
class Fragmenter {
 public:
  explicit Fragmenter(const roadnet::RoadNetwork& net);

  /// Partitions one trajectory into its t-fragment sequence (travel order).
  /// Throws neat::NotFoundError when a sample references a segment that
  /// does not exist. `gap_repairs` (optional) is incremented per repaired
  /// non-contiguous sample pair.
  [[nodiscard]] std::vector<TFragment> fragment(const traj::Trajectory& tr,
                                                std::size_t* gap_repairs = nullptr) const;

  /// The trajectory with the Phase 1 junction points inserted between
  /// samples that change segments (flagged `junction_point`), as described
  /// in §III-A.1. Mainly for inspection and tests.
  [[nodiscard]] traj::Trajectory augmented(const traj::Trajectory& tr) const;

  /// Runs both Phase 1 steps over a dataset: the streaming overload over a
  /// DatasetSource in one batch.
  [[nodiscard]] Phase1Output build_base_clusters(const traj::TrajectoryDataset& data,
                                                 unsigned n_threads = 1) const;

  /// Runs both Phase 1 steps over `source` in batches of
  /// `options.batch_size` trajectories. Each batch is fragmented across
  /// `n_threads` workers (0 and 1 both mean serial), grouped serially and
  /// handed to `source.batch_done`; the per-batch outputs are combined with
  /// merge_phase1_outputs. The result is bit-identical at any batch size
  /// and thread count, while peak memory stays bounded by one batch. A
  /// sample on a missing segment throws neat::NotFoundError on the calling
  /// thread, whatever the thread count; a trajectory id repeated across
  /// batches throws neat::PreconditionError.
  [[nodiscard]] Phase1Output build_base_clusters(TrajectorySource& source,
                                                 unsigned n_threads = 1,
                                                 const StreamingPhase1Options& options = {}) const;

 private:
  const roadnet::RoadNetwork& net_;
};

/// Merges Phase 1 outputs of consecutive batches (or shards) into one,
/// combining base clusters of the same segment and re-sorting by (density
/// desc, sid asc). Fragments of a shared segment are concatenated in batch
/// order, so batches that partition a dataset contiguously reproduce the
/// single-batch output exactly. Trajectory ids must not repeat across
/// batches — a duplicate would silently deflate trajectory cardinalities
/// (two batches' fragments of "different" trajectories collapsing into one
/// participant), so the merge checks and throws neat::PreconditionError
/// naming the offending id.
[[nodiscard]] Phase1Output merge_phase1_outputs(std::vector<Phase1Output> batches);

}  // namespace neat
