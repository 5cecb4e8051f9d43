// F1 (Figure 1) — collaboration scaling: mean latency, reuse ratio, and
// P2P traffic as the number of co-located devices grows from 1 to 8.
// Expected shape: latency falls and reuse rises with more peers (shared
// results arrive before the local device has to infer), saturating once
// the popular objects are covered.

#include "bench/common.hpp"

int main() {
  using namespace apx;
  using namespace apx::bench;

  banner("F1", "latency & reuse vs number of nearby devices",
         "latency falls / reuse rises with peers, then saturates");

  TextTable table;
  table.header({"devices", "mean ms", "p95 ms", "reuse", "adverts",
                "merged entries"});
  for (const int devices : {1, 2, 3, 4, 6, 8}) {
    // Churn-heavy regime: devices keep encountering objects they have not
    // personally seen, which is where collaboration pays — a peer's entry
    // (merged from a pushed advert) replaces a full inference.
    ScenarioConfig cfg = evaluation_scenario();
    // Static-image workload (the abstract's other headline case): a photo
    // app snapping a different object every couple of seconds. No temporal
    // locality exists, so reuse must come from recognition history — own
    // or, crucially, nearby devices'.
    cfg.scene.num_classes = 192;
    cfg.zipf_s = 1.0;
    cfg.duration = 120 * kSecond;
    cfg.video.fps = 0.5;                    // one photo per 2 s
    cfg.video.change_rate_stationary = 2.0; // every photo: a new object
    cfg.video.change_rate_minor = 2.0;
    cfg.video.change_rate_major = 2.0;
    cfg.p_stationary = 0.2;
    cfg.p_minor = 0.6;
    cfg.p_major = 0.2;
    cfg.num_devices = devices;
    cfg.model = resnet50_profile();  // collaboration pays when inference is dear
    // Co-located people physically see the same object from similar
    // vantage points; without view overlap no feature scheme can match
    // another device's entry.
    cfg.video.view_pan_sigma = 0.15f;
    cfg.video.view_zoom_min = 0.95f;
    cfg.video.view_zoom_max = 1.15f;
    cfg.pipeline = make_full_system_config();
    cfg.seed = 2000;
    ExperimentRunner runner{cfg};
    const ExperimentMetrics m = runner.run();
    const Counter p2p = runner.p2p_counters();
    table.row({std::to_string(devices), TextTable::num(m.mean_latency_ms()),
               TextTable::num(m.latency_quantile_ms(0.95)),
               TextTable::num(m.reuse_ratio(), 3),
               std::to_string(p2p.get("advert_sent")),
               std::to_string(p2p.get("merged"))});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nNote: peers collaborate through pushed adverts only; "
              "merged entries answer later frames as local-cache hits.\n");
  return 0;
}
