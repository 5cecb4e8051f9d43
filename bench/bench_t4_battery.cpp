// T4 (Table 4) — battery lifetime: hours of continuous recognition on one
// charge per configuration, derived from each configuration's measured
// per-frame energy (compute + radio) plus the phone's baseline idle+camera
// rails. Expected shape: lifetime extends substantially down the ladder,
// but sub-linearly in the energy saving (the baseline rails dominate once
// recognition energy is small) — the honest version of "saves battery".

#include "bench/common.hpp"
#include "src/device/battery.hpp"

int main() {
  using namespace apx;
  using namespace apx::bench;

  banner("T4", "battery lifetime per configuration",
         "lifetime grows down the ladder, saturating at the idle+camera "
         "floor");

  const BatteryParams battery;  // 3000 mAh @ 3.85 V, ~1.35 W baseline
  const double fps = 10.0;
  {
    // The ceiling nothing can beat: recognition for free.
    const double ceiling = continuous_recognition_hours(battery, 0.0, fps);
    std::printf("baseline rails only (idle+camera): %.2f h ceiling\n\n",
                ceiling);
  }

  TextTable table;
  table.header({"configuration", "mJ/frame", "recognition W", "lifetime h",
                "vs no-cache"});
  double nocache_hours = 0.0;
  for (const auto& [name, pipeline] : configuration_ladder()) {
    ScenarioConfig cfg = evaluation_scenario();
    cfg.pipeline = pipeline;
    const ExperimentMetrics m = run_seeds(cfg);
    const double per_frame = m.mean_total_energy_mj();
    const double hours =
        continuous_recognition_hours(battery, per_frame, fps);
    if (name == "no-cache") nocache_hours = hours;
    const double delta_pct =
        nocache_hours > 0.0 ? 100.0 * (hours / nocache_hours - 1.0) : 0.0;
    table.row({name, TextTable::num(per_frame, 1),
               TextTable::num(per_frame * fps / 1000.0, 2),
               TextTable::num(hours, 2),
               std::string(delta_pct >= 0.0 ? "+" : "")
                   .append(TextTable::num(delta_pct, 1))
                   .append("%")});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
