// F4 (Figure 4) — per-frame latency CDF per configuration. Expected shape:
// the full system's CDF is sharply bimodal — a large fast mode (reuse paths
// at ~0.1-10 ms) and a small slow mode (DNN fallback), while no-cache is a
// single mode around the model latency.

#include "bench/common.hpp"

int main() {
  using namespace apx;
  using namespace apx::bench;

  banner("F4", "per-frame latency CDF per configuration",
         "full system bimodal: big fast mode + small inference mode; "
         "no-cache unimodal at the model latency");

  const double percentiles[] = {0.01, 0.05, 0.10, 0.25, 0.50,
                                0.75, 0.90, 0.95, 0.99};

  TextTable table;
  {
    std::vector<std::string> header{"configuration"};
    for (const double p : percentiles) {
      header.push_back(
          std::string("p").append(std::to_string(static_cast<int>(p * 100))));
    }
    table.header(std::move(header));
  }

  for (const auto& [name, pipeline] : configuration_ladder()) {
    ScenarioConfig cfg = evaluation_scenario();
    cfg.pipeline = pipeline;
    const ExperimentMetrics m = run_seeds(cfg);
    std::vector<std::string> row{name};
    for (const double p : percentiles) {
      row.push_back(TextTable::num(m.latency_quantile_ms(p), 2));
    }
    table.row(std::move(row));
  }
  std::printf("%s", table.render().c_str());
  std::printf("\n(all values in ms; read each row as the latency CDF of one "
              "configuration)\n");
  return 0;
}
