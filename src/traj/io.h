// CSV persistence for trajectory datasets.
//
// Format: one row per location sample, grouped by trajectory and ordered by
// sequence number:
//   <trid>,<seq>,<sid>,<x>,<y>,<t>,<junction 0|1>
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "traj/dataset.h"

namespace neat::traj {

/// Writes the dataset to a stream.
void save_dataset(const TrajectoryDataset& data, std::ostream& out);

/// Writes the dataset to a file. Throws neat::Error when the file cannot be
/// opened.
void save_dataset(const TrajectoryDataset& data, const std::string& path);

/// Streams a trajectory CSV, invoking `fn` once per completed trajectory in
/// file order — the bounded-memory primitive behind load_dataset and the
/// CSV -> columnar converter (only one trajectory is in flight at a time).
/// Rows come from the one CsvReader as views and are parsed with
/// std::from_chars, with no per-field allocation. Throws neat::ParseError,
/// naming the line, on malformed data, including an x, y or t that is not
/// finite (nan, inf) and a segment id outside [0, roadnet::kMaxNetworkId].
void for_each_trajectory(std::istream& in, const std::function<void(Trajectory&&)>& fn);

/// Reads a dataset from a stream. Throws neat::ParseError on malformed data.
[[nodiscard]] TrajectoryDataset load_dataset(std::istream& in);

/// Reads a dataset from a file. Throws neat::Error / neat::ParseError.
[[nodiscard]] TrajectoryDataset load_dataset(const std::string& path);

}  // namespace neat::traj
