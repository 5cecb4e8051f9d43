// T2 (Table 2) — recognition accuracy per configuration, on the easy
// (well-separated classes) and hard (confusable classes) worlds.
// Reproduces "minimal loss of recognition accuracy": the full system must
// stay within a few points of the no-cache DNN accuracy, with H-kNN doing
// the protecting on the confusable world.

#include "bench/common.hpp"

int main() {
  using namespace apx;
  using namespace apx::bench;

  banner("T2", "accuracy per configuration",
         "full-system accuracy within a few points of no-cache, on both the "
         "separable and the confusable world");

  struct World {
    const char* name;
    float confusion;
  };
  for (const World world : {World{"separable", 0.0f},
                            World{"confusable", 0.4f}}) {
    std::printf("--- world: %s (class_confusion=%.1f) ---\n", world.name,
                world.confusion);
    TextTable table;
    table.header({"configuration", "accuracy", "delta vs no-cache", "reuse",
                  "acc@reuse-paths", "acc@inference"});
    double baseline_acc = 0.0;
    for (const auto& [name, pipeline] : configuration_ladder()) {
      ScenarioConfig cfg = evaluation_scenario();
      cfg.scene.class_confusion = world.confusion;
      cfg.scene.group_size = 4;
      cfg.pipeline = pipeline;
      const ExperimentMetrics m = run_seeds(cfg);
      if (name == "no-cache") baseline_acc = m.accuracy();
      // Attribute correctness to paths: reuse-path accuracy vs DNN-path
      // accuracy shows whether reuse, not the model, loses the points.
      double reuse_correct = 0.0, reuse_answered = 0.0;
      for (const ResultSource source :
           {ResultSource::kImuFastPath, ResultSource::kTemporalReuse,
            ResultSource::kLocalCacheHit}) {
        const double fraction = m.source_fraction(source);
        reuse_answered += fraction;
        reuse_correct += fraction * m.accuracy_by_source(source);
      }
      const double reuse_acc =
          reuse_answered > 0.0 ? reuse_correct / reuse_answered : 0.0;
      table.row({name, TextTable::num(m.accuracy(), 4),
                 TextTable::num(m.accuracy() - baseline_acc, 4),
                 TextTable::num(m.reuse_ratio(), 3),
                 reuse_answered > 0.0 ? TextTable::num(reuse_acc, 4) : "-",
                 TextTable::num(
                     m.accuracy_by_source(ResultSource::kFullInference), 4)});
    }
    std::printf("%s\n", table.render().c_str());
  }
  return 0;
}
