#pragma once
// The benchmark's workloads. Each returns every end-to-end metric (untraced
// run) or the per-layer metrics it measures (traced run, Options::trace),
// plus the outcome of its correctness checks.

#include "src/common.hpp"

namespace perfbench {

/// `crowd-full` and `walk-local`: simulated device fleets (device.cpp).
bool is_device_workload(const std::string& name);
Result run_device_workload(const Options& opt);

/// One-off paper headline row: `nocache` against `full` on the same
/// crowd-full seed (device.cpp). Prints a report; it is not a metric.
int print_headline(const Options& opt);

/// `edge-region`: one EdgeCacheService under concurrent load (edge.cpp).
Result run_edge_workload(const Options& opt);

}  // namespace perfbench
