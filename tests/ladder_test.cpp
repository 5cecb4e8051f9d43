// Ladder composition: spec parsing/round-tripping, rejection of malformed
// specs, spec-built vs preset-built equivalence, the warm-tier rung end to
// end, and the ablation property that adding rungs never increases the
// fraction of frames answered by full DNN inference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cache/eviction.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/rungs/ladder.hpp"
#include "src/dnn/oracle.hpp"
#include "src/dnn/zoo.hpp"
#include "src/obs/report.hpp"
#include "src/sim/runner.hpp"

namespace apx {
namespace {

// ------------------------------------------------------- parse / round-trip

TEST(LadderSpecTest, ParsesAndRoundTripsCanonicalSpecs) {
  const char* specs[] = {
      "dnn",
      "exact,dnn",
      "local,dnn",
      "imu,local,dnn",
      "imu,temporal,local,dnn",
      "imu,temporal,local,p2p,dnn",
      "imu,temporal,warm,local,p2p,dnn",
      "warm,dnn",
      "temporal,exact,dnn",
  };
  for (const char* text : specs) {
    SCOPED_TRACE(text);
    const LadderSpec spec = LadderSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_EQ(LadderSpec::parse(spec.to_string()).to_string(), text);
    EXPECT_TRUE(spec.has("dnn"));
  }
}

TEST(LadderSpecTest, TrimsWhitespaceAroundTokens) {
  const LadderSpec spec = LadderSpec::parse(" imu , temporal ,local, dnn ");
  EXPECT_EQ(spec.to_string(), "imu,temporal,local,dnn");
}

TEST(LadderSpecTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                    // empty spec
      ",dnn",                // empty token
      "imu,,dnn",            // empty token
      "bogus,dnn",           // unknown rung
      "local,local,dnn",     // duplicate rung
      "imu,local",           // must end with dnn
      "dnn,local",           // out of ladder order
      "local,temporal,dnn",  // out of ladder order
      "local,exact,dnn",     // two cache rungs (shared rank)
      "exact,local,dnn",     // two cache rungs (shared rank)
      "p2p,dnn",             // p2p requires local
      "imu,temporal,p2p,dnn",  // p2p requires local
      "dnn,dnn",             // duplicate + order
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)LadderSpec::parse(text), std::invalid_argument);
  }
}

TEST(LadderSpecTest, ParsesAndRoundTripsRungArguments) {
  const char* specs[] = {
      "local(q8),dnn",
      "imu,local(q8),dnn",
      "imu,temporal,local(q8),p2p,dnn",
  };
  for (const char* text : specs) {
    SCOPED_TRACE(text);
    const LadderSpec spec = LadderSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_EQ(LadderSpec::parse(spec.to_string()).to_string(), text);
    // has() matches the base rung name, argument or not.
    EXPECT_TRUE(spec.has("local"));
    EXPECT_EQ(spec.arg("local"), "q8");
    EXPECT_EQ(spec.arg("dnn"), "");
  }
  EXPECT_EQ(LadderSpec::parse("local,dnn").arg("local"), "");
}

TEST(LadderSpecTest, RejectsMalformedRungArguments) {
  const char* bad[] = {
      "local(q9),dnn",      // unknown argument
      "local(),dnn",        // empty argument
      "local(q8,dnn",       // unterminated parenthesis
      "local(q8)x,dnn",     // trailing junk after ')'
      "(q8),dnn",           // argument without a rung name
      "dnn(q8)",            // rung that takes no arguments
      "imu(q8),local,dnn",  // likewise
      "local(q8),local,dnn",  // still a duplicate of the base rung
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)LadderSpec::parse(text), std::invalid_argument);
  }
}

TEST(LadderSpecTest, ParsesAndRoundTripsEdgeArguments) {
  const char* specs[] = {
      "imu,temporal,local,p2p,edge,dnn",
      "local,edge,dnn",
      "imu,temporal,local,p2p,edge(shards=8),dnn",
      "imu,temporal,local,p2p,"
      "edge(shards=4,capacity=1024,ttl=30s,error_budget=0.25),dnn",
      "local,edge(ttl=1500ms),dnn",
  };
  for (const char* text : specs) {
    SCOPED_TRACE(text);
    const LadderSpec spec = LadderSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_EQ(LadderSpec::parse(spec.to_string()).to_string(), text);
    EXPECT_TRUE(spec.has("edge"));
  }
  const LadderSpec spec =
      LadderSpec::parse("local,edge(shards=8,ttl=45s,error_budget=0.5),dnn");
  EXPECT_EQ(spec.arg_value("edge", "shards"), "8");
  EXPECT_EQ(spec.arg_value("edge", "ttl"), "45s");
  EXPECT_EQ(spec.arg_value("edge", "error_budget"), "0.5");
  EXPECT_TRUE(spec.has_arg("edge", "shards"));
  EXPECT_FALSE(spec.has_arg("edge", "capacity"));
}

TEST(LadderSpecTest, RejectsMalformedEdgeArguments) {
  const char* bad[] = {
      "local,edge(shards=0),dnn",           // zero shard count
      "local,edge(shards=abc),dnn",         // non-numeric count
      "local,edge(shards),dnn",             // missing value
      "local,edge(ttl=abc),dnn",            // malformed duration
      "local,edge(ttl=30m),dnn",            // unknown duration unit
      "local,edge(ttl=0s),dnn",             // zero duration
      "local,edge(error_budget=1.5),dnn",   // fraction out of [0, 1]
      "local,edge(error_budget=x),dnn",     // non-numeric fraction
      "local,edge(bogus=1),dnn",            // unknown argument key
      "local,edge(shards=4,shards=8),dnn",  // duplicate key
      "local,edge(ttl=30s,),dnn",           // trailing comma
      "local,edge(shards=4,dnn",            // unterminated parenthesis
      "local(q8=1),dnn",                    // flag argument takes no value
      "edge,local,dnn",                     // out of ladder order
      "local,p2p,edge",                     // must still end with dnn
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)LadderSpec::parse(text), std::invalid_argument);
  }
}

TEST(LadderSpecTest, EdgeArgsSyncEdgeParams) {
  const PipelineConfig cfg = make_ladder_config(
      "imu,temporal,local,p2p,edge(shards=8,ttl=45s,error_budget=0.5),dnn");
  EXPECT_TRUE(cfg.enable_edge);
  EXPECT_EQ(cfg.edge.shards, 8u);
  EXPECT_EQ(cfg.edge.capacity, EdgeParams{}.capacity);  // omitted -> default
  EXPECT_EQ(cfg.edge.ttl, 45 * kSecond);
  EXPECT_FLOAT_EQ(cfg.edge.error_budget, 0.5f);
  // Non-default fields round-trip through from_config; defaults are elided.
  EXPECT_EQ(LadderSpec::from_config(cfg).to_string(),
            "imu,temporal,local,p2p,edge(shards=8,ttl=45s,error_budget=0.5),"
            "dnn");
  EXPECT_EQ(LadderSpec::from_config(make_edge_config()).to_string(),
            "imu,temporal,local,p2p,edge,dnn");

  const PipelineConfig bare = make_ladder_config("local,dnn");
  EXPECT_FALSE(bare.enable_edge);
}

TEST(LadderSpecTest, ParsesAndRoundTripsRegionsArguments) {
  const char* specs[] = {
      "imu,temporal,regions,local,dnn",
      "regions,dnn",
      "imu,temporal,regions(grid=8),warm,local,p2p,dnn",
      "regions(grid=8,max_changed=0.25,ttl=5s),dnn",
      "imu,regions(ttl=750ms),local,dnn",
  };
  for (const char* text : specs) {
    SCOPED_TRACE(text);
    const LadderSpec spec = LadderSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_EQ(LadderSpec::parse(spec.to_string()).to_string(), text);
    EXPECT_TRUE(spec.has("regions"));
  }
  const LadderSpec spec =
      LadderSpec::parse("regions(grid=2,max_changed=0.75,ttl=3s),dnn");
  EXPECT_EQ(spec.arg_value("regions", "grid"), "2");
  EXPECT_EQ(spec.arg_value("regions", "max_changed"), "0.75");
  EXPECT_EQ(spec.arg_value("regions", "ttl"), "3s");
  EXPECT_FALSE(spec.has_arg("regions", "q8"));
}

TEST(LadderSpecTest, RejectsMalformedRegionsArguments) {
  const char* bad[] = {
      "warm,regions,dnn",                    // out of ladder order
      "local,regions,dnn",                   // out of ladder order
      "regions,regions,dnn",                 // duplicate rung
      "regions(grid=0),dnn",                 // zero grid
      "regions(grid=abc),dnn",               // non-numeric grid
      "regions(grid),dnn",                   // missing value
      "regions(max_changed=1.5),dnn",        // fraction out of [0, 1]
      "regions(max_changed=x),dnn",          // non-numeric fraction
      "regions(ttl=0s),dnn",                 // zero duration
      "regions(ttl=30m),dnn",                // unknown duration unit
      "regions(q8),dnn",                     // unknown argument key
      "regions(grid=4,grid=8),dnn",          // duplicate key
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)LadderSpec::parse(text), std::invalid_argument);
  }
}

TEST(LadderSpecTest, RegionsArgsSyncRegionParams) {
  const PipelineConfig cfg = make_ladder_config(
      "imu,temporal,regions(grid=8,max_changed=0.25,ttl=5s),local,dnn");
  EXPECT_TRUE(cfg.enable_regions);
  EXPECT_EQ(cfg.regions.grid, 8);
  EXPECT_FLOAT_EQ(cfg.regions.max_changed, 0.25f);
  EXPECT_EQ(cfg.regions.ttl, 5 * kSecond);
  // Non-grammar knobs stay at their defaults.
  EXPECT_FLOAT_EQ(cfg.regions.block_diff_threshold,
                  RegionReuseParams{}.block_diff_threshold);
  EXPECT_EQ(LadderSpec::from_config(cfg).to_string(),
            "imu,temporal,regions(grid=8,max_changed=0.25,ttl=5s),local,dnn");

  // Default arguments are elided on the way back out.
  const PipelineConfig plain =
      make_ladder_config("imu,temporal,regions,local,dnn");
  EXPECT_TRUE(plain.enable_regions);
  EXPECT_EQ(plain.regions.grid, RegionReuseParams{}.grid);
  EXPECT_EQ(LadderSpec::from_config(plain).to_string(),
            "imu,temporal,regions,local,dnn");

  const PipelineConfig bare = make_ladder_config("local,dnn");
  EXPECT_FALSE(bare.enable_regions);
}

TEST(LadderSpecTest, QuantizedArgSyncsQuantizeFlags) {
  const PipelineConfig q8 = make_ladder_config("imu,local(q8),dnn");
  EXPECT_TRUE(q8.enable_quantized_scan);
  EXPECT_TRUE(q8.cache.alsh.lsh.quantize.enabled);
  EXPECT_EQ(LadderSpec::from_config(q8).to_string(), "imu,local(q8),dnn");

  const PipelineConfig plain = make_ladder_config("imu,local,dnn");
  EXPECT_FALSE(plain.enable_quantized_scan);
  EXPECT_FALSE(plain.cache.alsh.lsh.quantize.enabled);
  EXPECT_EQ(LadderSpec::from_config(plain).to_string(), "imu,local,dnn");

  // Flag-driven configs derive the argumented spec.
  PipelineConfig flagged = make_approx_local_config();
  flagged.enable_quantized_scan = true;
  EXPECT_EQ(LadderSpec::from_config(flagged).to_string(), "local(q8),dnn");
}

TEST(LadderSpecTest, QalshArgsSelectAndRoundTrip) {
  // Bare flag: QALSH backend at its guarantee defaults.
  const PipelineConfig basic = make_ladder_config("imu,local(qalsh),dnn");
  EXPECT_EQ(basic.cache.index, IndexKind::kQalsh);
  EXPECT_FLOAT_EQ(basic.cache.qalsh.c, QalshParams{}.c);
  EXPECT_FLOAT_EQ(basic.cache.qalsh.delta, QalshParams{}.delta);
  EXPECT_FLOAT_EQ(basic.cache.qalsh.beta, QalshParams{}.beta);
  EXPECT_FALSE(basic.cache.qalsh.quantize.enabled);
  EXPECT_EQ(LadderSpec::from_config(basic).to_string(),
            "imu,local(qalsh),dnn");

  // Tuned guarantee knobs survive a config round trip.
  const char* tuned_text = "imu,local(qalsh,c=1.5,delta=0.25,beta=0.05),dnn";
  const PipelineConfig tuned = make_ladder_config(tuned_text);
  EXPECT_EQ(tuned.cache.index, IndexKind::kQalsh);
  EXPECT_FLOAT_EQ(tuned.cache.qalsh.c, 1.5f);
  EXPECT_FLOAT_EQ(tuned.cache.qalsh.delta, 0.25f);
  EXPECT_FLOAT_EQ(tuned.cache.qalsh.beta, 0.05f);
  EXPECT_EQ(LadderSpec::from_config(tuned).to_string(), tuned_text);

  // q8 composes: the SQ8 sidecar follows the selected backend.
  const PipelineConfig q8 = make_ladder_config("imu,local(q8,qalsh),dnn");
  EXPECT_EQ(q8.cache.index, IndexKind::kQalsh);
  EXPECT_TRUE(q8.enable_quantized_scan);
  EXPECT_TRUE(q8.cache.qalsh.quantize.enabled);
  EXPECT_EQ(LadderSpec::from_config(q8).to_string(),
            "imu,local(q8,qalsh),dnn");

  // Dropping the flag reverts the backend to the A-LSH default.
  PipelineConfig reverted = make_ladder_config("imu,local(qalsh),dnn");
  apply_ladder(reverted, LadderSpec::parse("imu,local,dnn"));
  EXPECT_EQ(reverted.cache.index, IndexKind::kAdaptiveLsh);
}

TEST(LadderSpecTest, RejectsBadQalshArgs) {
  const char* bad[] = {
      // Guarantee knobs demand the qalsh flag on the same rung.
      "local(c=2),dnn",
      "local(delta=0.3),dnn",
      "local(beta=0.1),dnn",
      "local(q8,c=2),dnn",
      // Ratio must sit in (1, 64]; delta in (0, 1); beta in (0, 1].
      "local(qalsh,c=1),dnn",
      "local(qalsh,c=0.5),dnn",
      "local(qalsh,c=100),dnn",
      "local(qalsh,delta=0),dnn",
      "local(qalsh,delta=1),dnn",
      "local(qalsh,beta=0),dnn",
      // qalsh is a flag, not a valued argument.
      "local(qalsh=1),dnn",
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)LadderSpec::parse(text), std::invalid_argument);
  }
}

TEST(LadderSpecTest, ErrorsNameTheSpecAndTheViolation) {
  try {
    (void)LadderSpec::parse("p2p,dnn");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("p2p,dnn"), std::string::npos) << what;
  }
}

// ------------------------------------------------ flags <-> spec duality

TEST(LadderSpecTest, ApplyLadderThenFromConfigRoundTrips) {
  const char* specs[] = {
      "dnn",       "exact,dnn",
      "local,dnn", "imu,temporal,warm,local,p2p,dnn",
  };
  for (const char* text : specs) {
    SCOPED_TRACE(text);
    const PipelineConfig cfg = make_ladder_config(text);
    EXPECT_EQ(cfg.ladder, text);
    EXPECT_EQ(LadderSpec::from_config(cfg).to_string(), text);
  }
}

TEST(LadderSpecTest, ApplyLadderSyncsProvisioningFlags) {
  const PipelineConfig warm =
      make_ladder_config("imu,temporal,warm,local,p2p,dnn");
  EXPECT_TRUE(warm.enable_imu_gate);
  EXPECT_TRUE(warm.enable_temporal);
  EXPECT_TRUE(warm.enable_warm_tier);
  EXPECT_TRUE(warm.enable_p2p);
  EXPECT_TRUE(warm.enable_local_cache);
  EXPECT_FALSE(warm.enable_exact_cache);

  const PipelineConfig exact = make_ladder_config("exact,dnn");
  EXPECT_FALSE(exact.enable_imu_gate);
  EXPECT_FALSE(exact.enable_temporal);
  EXPECT_FALSE(exact.enable_warm_tier);
  EXPECT_FALSE(exact.enable_p2p);
  EXPECT_FALSE(exact.enable_local_cache);
  EXPECT_TRUE(exact.enable_exact_cache);

  const PipelineConfig bare = make_ladder_config("dnn");
  EXPECT_FALSE(bare.enable_local_cache);
  EXPECT_FALSE(bare.enable_exact_cache);
  EXPECT_FALSE(bare.enable_p2p);
}

TEST(LadderSpecTest, PresetsDeriveTheirDocumentedSpecs) {
  EXPECT_EQ(LadderSpec::from_config(make_nocache_config()).to_string(),
            "dnn");
  EXPECT_EQ(LadderSpec::from_config(make_exactcache_config()).to_string(),
            "exact,dnn");
  EXPECT_EQ(LadderSpec::from_config(make_approx_local_config()).to_string(),
            "local,dnn");
  EXPECT_EQ(LadderSpec::from_config(make_approx_imu_config()).to_string(),
            "imu,local,dnn");
  EXPECT_EQ(LadderSpec::from_config(make_approx_video_config()).to_string(),
            "imu,temporal,local,dnn");
  EXPECT_EQ(LadderSpec::from_config(make_full_system_config()).to_string(),
            "imu,temporal,local,p2p,dnn");
}

// -------------------------------------------------- registry introspection

TEST(RungRegistryTest, NamesComeBackInRankOrder) {
  const std::vector<std::string> names = RungRegistry::instance().names();
  ASSERT_GE(names.size(), 8u);
  EXPECT_EQ(names.front(), "imu");
  EXPECT_EQ(names.back(), "dnn");
  bool has_regions = false;
  for (const std::string& n : names) has_regions |= (n == "regions");
  EXPECT_TRUE(has_regions);
  const auto rank = [&](std::string_view n) {
    return RungRegistry::instance().find(n)->rank;
  };
  for (std::size_t i = 0; i + 1 < names.size(); ++i) {
    EXPECT_LE(rank(names[i]), rank(names[i + 1]));
  }
}

// ------------------------------------- spec-built == preset-built property

ScenarioConfig small_scenario(std::uint64_t seed) {
  ScenarioConfig cfg = default_scenario();
  cfg.num_devices = 2;
  cfg.duration = 5 * kSecond;
  cfg.scene.num_classes = 8;
  cfg.seed = seed;
  return cfg;
}

std::string run_to_json(const ScenarioConfig& cfg) {
  ExperimentRunner runner{cfg};
  runner.run();
  return runner.metrics().to_json();
}

TEST(LadderEquivalenceTest, SpecBuiltMatchesPresetBuiltByteForByte) {
  struct Pair {
    const char* spec;
    PipelineConfig (*preset)();
  };
  const Pair pairs[] = {
      {"dnn", make_nocache_config},
      {"exact,dnn", make_exactcache_config},
      {"local,dnn", make_approx_local_config},
      {"imu,local,dnn", make_approx_imu_config},
      {"imu,temporal,local,dnn", make_approx_video_config},
      {"imu,temporal,local,p2p,dnn", make_full_system_config},
  };
  for (const Pair& p : pairs) {
    SCOPED_TRACE(p.spec);
    ScenarioConfig via_preset = small_scenario(3);
    via_preset.pipeline = p.preset();
    ScenarioConfig via_spec = small_scenario(3);
    via_spec.pipeline = make_ladder_config(p.spec);
    EXPECT_EQ(run_to_json(via_preset), run_to_json(via_spec));
  }
}

// ------------------------------------------------------- invalid ladders

TEST(LadderEquivalenceTest, RunnerRejectsMalformedLadderStrings) {
  ScenarioConfig cfg = small_scenario(1);
  cfg.pipeline.ladder = "local";  // missing dnn
  EXPECT_THROW((void)ExperimentRunner{cfg}, std::invalid_argument);
}

// ------------------------------------------------------- warm tier, e2e

TEST(WarmTierTest, WarmLadderExportsItsOwnCountersAndHistogram) {
  ScenarioConfig cfg = small_scenario(7);
  cfg.pipeline = make_ladder_config("imu,temporal,warm,local,p2p,dnn");
  ExperimentRunner runner{cfg};
  runner.run();
  const MetricsRegistry& m = runner.metrics();
  const std::uint64_t hits =
      m.counter_value(rung_outcome_metric("warm", RungOutcome::kHit));
  const std::uint64_t misses =
      m.counter_value(rung_outcome_metric("warm", RungOutcome::kMiss));
  EXPECT_GT(hits + misses, 0u) << "warm rung never ran";
  const auto* hist = m.find_histogram(rung_latency_metric("warm"));
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, hits + misses);
  // The source counter exists (equal to the rung's hits by construction).
  EXPECT_EQ(m.counter_value(source_metric("warm-cache")), hits);
  // And the baseline schema is still present alongside the extras.
  EXPECT_GT(m.counter_value(source_metric("inference")), 0u);
}

TEST(WarmTierTest, BaselineExportsCarryNoWarmKeys) {
  ScenarioConfig cfg = small_scenario(7);
  cfg.pipeline = make_full_system_config();
  ExperimentRunner runner{cfg};
  runner.run();
  const std::string json = runner.metrics().to_json();
  EXPECT_EQ(json.find("warm"), std::string::npos)
      << "warm metrics leaked into a ladder without the warm rung";
}

// Single-device harness driving frames straight into a pipeline, so the
// warm tier's learn-then-answer cycle is observable deterministically.
struct WarmHarness {
  static constexpr int kClasses = 8;

  EventSimulator sim;
  SceneGenerator scenes;
  std::unique_ptr<FeatureExtractor> extractor;
  std::unique_ptr<RecognitionModel> model;
  std::unique_ptr<ApproxCache> cache;
  std::unique_ptr<ReusePipeline> pipeline;

  explicit WarmHarness(PipelineConfig cfg)
      : scenes([] {
          SceneGenerator::Config sc;
          sc.num_classes = kClasses;
          sc.image_size = 24;
          sc.seed = 7;
          return sc;
        }()),
        extractor(make_downsample_extractor(8)) {
    ModelProfile profile = mobilenet_v2_profile();
    profile.top1_accuracy = 1.0;
    model = make_oracle_model(profile, kClasses);
    cfg.cache.index = IndexKind::kExact;
    cfg.cache.hknn.max_distance = 0.3f;
    cache = std::make_unique<ApproxCache>(extractor->dim(), cfg.cache,
                                          make_lru_policy());
    pipeline = std::make_unique<ReusePipeline>(sim, cfg, *extractor, *model,
                                               cache.get(), nullptr, nullptr,
                                               /*seed=*/11);
  }

  RecognitionResult run_one(int class_id) {
    Frame f;
    f.t = sim.now();
    f.true_label = class_id;
    f.image = scenes.render(class_id, ViewParams{});
    std::optional<RecognitionResult> out;
    EXPECT_TRUE(pipeline->process(
        f, MotionState::kMajor, [&](const RecognitionResult& r) { out = r; }));
    while (!out.has_value() && sim.step()) {
    }
    return out.value_or(RecognitionResult{});
  }
};

TEST(WarmTierTest, LearnsFromInferenceThenAnswersBeforeLocalCache) {
  PipelineConfig cfg = make_ladder_config("warm,local,dnn");
  cfg.warm.min_support = 1;  // answer after a single validated observation
  WarmHarness h{cfg};
  // Cold frame: warm has no prototypes, local cache is empty -> full DNN;
  // the result trains the warm tier's class prototype.
  const RecognitionResult cold = h.run_one(3);
  EXPECT_EQ(cold.source, ResultSource::kFullInference);
  // Same view again: the quantized prototype answers before the cache does.
  const RecognitionResult warm = h.run_one(3);
  EXPECT_EQ(warm.source, ResultSource::kWarmCacheHit);
  EXPECT_EQ(warm.label, 3);
  // An untrained class still falls through past the warm rung.
  const RecognitionResult other = h.run_one(5);
  EXPECT_EQ(other.source, ResultSource::kFullInference);
}

TEST(WarmTierTest, MinSupportGatesAnswering) {
  PipelineConfig cfg = make_ladder_config("warm,dnn");
  cfg.warm.min_support = 100;  // unreachable in this test
  WarmHarness h{cfg};
  (void)h.run_one(3);
  // Warm never answers under min_support, even for an identical view. (In a
  // warm,dnn ladder nothing extracts features before the DNN, so the warm
  // tier cannot learn at all — it must stay inert, not crash.)
  const RecognitionResult again = h.run_one(3);
  EXPECT_EQ(again.source, ResultSource::kFullInference);
}

// --------------------------------------------------------- ablation sweep

TEST(LadderAblationTest, AddingRungsNeverIncreasesDnnFraction) {
  // Every step adds one pure reuse rung (answers only when confident,
  // passes the frame through unchanged otherwise), so the fraction of
  // frames that reach full inference must be non-increasing. The IMU rung
  // is held constant across the sweep: it is admission control, not reuse —
  // its fastpath and threshold scaling deliberately alter downstream
  // dynamics, so "adding imu" is not a monotone-reuse step. Gate threshold
  // scaling is pinned to 1.0 for the same reason.
  const char* sweep[] = {
      "imu,dnn",
      "imu,local,dnn",
      "imu,temporal,local,dnn",
      "imu,temporal,warm,local,dnn",
      "imu,temporal,warm,local,p2p,dnn",
  };
  double prev = 1.0;
  for (const char* spec : sweep) {
    SCOPED_TRACE(spec);
    ScenarioConfig cfg = small_scenario(11);
    cfg.duration = 10 * kSecond;
    cfg.pipeline = make_ladder_config(spec);
    cfg.pipeline.gate.stationary_scale = 1.0f;
    cfg.pipeline.gate.minor_scale = 1.0f;
    cfg.pipeline.gate.major_scale = 1.0f;
    ExperimentRunner runner{cfg};
    const ExperimentMetrics m = runner.run();
    const double frac =
        static_cast<double>(m.sources().get("inference")) /
        static_cast<double>(m.frames());
    EXPECT_LE(frac, prev + 1e-9) << "DNN fraction went up when adding a rung";
    prev = frac;
  }
  EXPECT_LT(prev, 1.0) << "the full ladder reused nothing";
}

// ------------------------------------------------------------- apxsim --help

TEST(ApxsimHelpTest, ListsEveryRegisteredRungWithItsArguments) {
  FILE* pipe = popen("\"" APX_APXSIM_PATH "\" --help", "r");
  ASSERT_NE(pipe, nullptr);
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    text.append(buf, n);
  }
  ASSERT_EQ(pclose(pipe), 0);

  // The rung list is one indented line per rung: the bare token, or the
  // token with its argument keys in parentheses.
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string line = text.substr(pos, end - pos);
    lines.push_back(line.substr(std::min(line.find_first_not_of(' '),
                                         line.size())));
    pos = end + 1;
  }
  const RungRegistry& registry = RungRegistry::instance();
  for (const std::string& name : registry.names()) {
    SCOPED_TRACE(name);
    const auto line = std::find_if(
        lines.begin(), lines.end(), [&](const std::string& l) {
          return l == name || l.rfind(name + "(", 0) == 0;
        });
    ASSERT_NE(line, lines.end()) << "rung missing from --help:\n" << text;
    for (const auto& arg : registry.find(name)->allowed_args) {
      EXPECT_TRUE(line->find("(" + arg.key) != std::string::npos ||
                  line->find("," + arg.key) != std::string::npos)
          << "argument " << arg.key << " missing from: " << *line;
    }
  }
}

}  // namespace
}  // namespace apx
