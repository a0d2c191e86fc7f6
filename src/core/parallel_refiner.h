// Former name of the threaded Phase 3 refiner. Refiner::refine honors
// RefineConfig::threads itself; this alias remains only because the
// end-to-end benchmark under perfbench/ still spells the old name.
#pragma once

#include "core/refiner.h"

namespace neat {

using ParallelRefiner = Refiner;

}  // namespace neat
