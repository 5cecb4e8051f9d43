// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--out DIR] [--headline]
//
// Prints a machine stamp, a per-metric table and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics of an untraced run; --trace 1 the per-layer metrics
// of a traced run. Exit status 0 means the run completed (its correctness
// verdict is in the JSON); anything else means it could not run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "src/workloads.hpp"

namespace perfbench {
namespace {

/// The per-layer metrics in report order, with their units. Every workload
/// reports all of them: 0 for a layer the workload does not run.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"video.next_frame_us", "us"},
      {"imu.estimate_us", "us"},
      {"features.extract_calls", "count"},
      {"features.extract_us_p50", "us"},
      {"features.extract_us_p99", "us"},
      {"features.gmac_per_s", "GMAC/s"},
      {"dnn.infer_calls", "count"},
      {"core.rung_visits.imu", "count"},
      {"core.rung_hits.imu", "count"},
      {"core.rung_visits.temporal", "count"},
      {"core.rung_hits.temporal", "count"},
      {"core.rung_visits.local", "count"},
      {"core.rung_hits.local", "count"},
      {"core.rung_visits.p2p", "count"},
      {"core.rung_hits.p2p", "count"},
      {"core.rung_visits.dnn", "count"},
      {"core.rung_hits.dnn", "count"},
      {"core.self_us_per_frame", "us"},
      {"cache.hit_ratio", "fraction"},
      {"cache.lookup_us", "us"},
      {"cache.inserts", "count"},
      {"cache.evictions", "count"},
      {"cache.evict_scored_per_evict", "count"},
      {"ann.candidates_mean", "count"},
      {"ann.rebuilds", "count"},
      {"p2p.pull_hit_ratio", "fraction"},
      {"p2p.round_ms_mean", "ms"},
      {"p2p.merge_dup_ratio", "fraction"},
      {"net.events", "count"},
      {"net.messages", "count"},
      {"edge.query_us_p50", "us"},
      {"edge.query_us_p99", "us"},
      {"edge.feed_us_p50", "us"},
      {"edge.feed_us_p99", "us"},
      {"edge.sweep_ms", "ms"},
      {"edge.swept", "count"},
      {"edge.admit_ratio", "fraction"},
      {"edge.queue_wait_us_p99", "us"},
      {"edge.shard_skew", "ratio"},
      {"bench.gen_late_us_p99", "us"},
      {"bench.trace_overhead_pct", "%"},
  };
  return kMetrics;
}

/// Puts the per-layer metrics in report order, adding the missing ones as 0.
void complete_per_layer(Result& result) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    ordered.push_back({name, 0.0, unit});
  }
  for (const Metric& have : result.metrics) {
    const auto it =
        std::find_if(ordered.begin(), ordered.end(),
                     [&](const Metric& m) { return m.name == have.name; });
    result.check(it != ordered.end() && it->unit == have.unit,
                 "unlisted per-layer metric " + have.name);
    if (it != ordered.end()) it->value = have.value;
  }
  result.metrics = std::move(ordered);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload crowd-full|walk-local|edge-region "
               "--seed N --seconds S --trace 0|1 [--smoke] [--out DIR] "
               "[--headline]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool headline = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") return usage();
        opt.trace = v == "1";
        have_trace = true;
      } else if (arg == "--out" && has_value) {
        opt.out_dir = argv[++i];
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--headline") {
        headline = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (headline) return print_headline(opt);
  const bool device = is_device_workload(opt.workload);
  if ((!device && opt.workload != "edge-region") || !have_trace ||
      !(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    return usage();
  }

  std::printf("# stamp: workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
              "nproc=%u cpu=\"%s\" compiler=\"gcc %s\" build=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? 1 : 0,
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              __VERSION__, PERFBENCH_BUILD_TYPE);
  Result res;
  try {
    res = device ? run_device_workload(opt) : run_edge_workload(opt);
    if (opt.trace) complete_per_layer(res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : res.metrics) {
    res.check(std::isfinite(m.value), m.name + " is not a finite number");
  }
  for (const std::string& p : res.problems) {
    std::printf("# CHECK FAILED: %s\n", p.c_str());
  }
  for (const Metric& m : res.metrics) {
    std::printf("# %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    char value[40];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + json_escape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
