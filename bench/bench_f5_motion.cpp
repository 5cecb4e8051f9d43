// F5 (Figure 5) — sensitivity to device motion: latency, accuracy, and
// reuse-source mix as the mobility mix sweeps from fully stationary to
// fully major-motion. Expected shape: graceful degradation — reuse falls
// as motion grows (fast path and temporal reuse vanish first), accuracy
// holds because the IMU gate disables the unsafe paths instead of letting
// them reuse stale results.

#include "bench/common.hpp"

int main() {
  using namespace apx;
  using namespace apx::bench;

  banner("F5", "latency / accuracy / source mix vs motion intensity",
         "reuse falls gracefully with motion; accuracy stays flat because "
         "gating disables unsafe paths");

  struct Mix {
    const char* name;
    double stationary, minor, major;
  };
  const Mix mixes[] = {
      {"all-stationary", 1.00, 0.00, 0.00},
      {"mostly-still", 0.70, 0.25, 0.05},
      {"mixed", 0.40, 0.40, 0.20},
      {"mostly-moving", 0.15, 0.45, 0.40},
      {"all-major", 0.00, 0.00, 1.00},
  };

  TextTable table;
  table.header({"mobility", "mean ms", "reuse", "accuracy", "fastpath",
                "temporal", "cache", "inference"});
  for (const Mix& mix : mixes) {
    ScenarioConfig cfg = evaluation_scenario();
    cfg.p_stationary = mix.stationary;
    cfg.p_minor = mix.minor;
    cfg.p_major = mix.major;
    cfg.pipeline = make_full_system_config();
    const ExperimentMetrics m = run_seeds(cfg);
    table.row({mix.name, TextTable::num(m.mean_latency_ms()),
               TextTable::num(m.reuse_ratio(), 3),
               TextTable::num(m.accuracy(), 3),
               TextTable::num(m.source_fraction(ResultSource::kImuFastPath), 3),
               TextTable::num(m.source_fraction(ResultSource::kTemporalReuse), 3),
               TextTable::num(m.source_fraction(ResultSource::kLocalCacheHit),
                              3),
               TextTable::num(m.source_fraction(ResultSource::kFullInference),
                              3)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
