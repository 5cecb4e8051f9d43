#pragma once
// Pipeline configuration: which reuse rungs are active and their cost
// constants. The evaluation's named configurations (NoCache, ExactCache,
// Approx-Local, +IMU, +Video, full system) are all instances of this —
// each one is a ladder spec (see core/rungs/ladder.hpp for the grammar).

#include <string>
#include <string_view>

#include "src/cache/approx_cache.hpp"
#include "src/core/threshold_controller.hpp"
#include "src/edge/edge_cache.hpp"
#include "src/imu/gate.hpp"
#include "src/imu/motion_estimator.hpp"
#include "src/p2p/peer_cache.hpp"
#include "src/video/locality.hpp"

namespace apx {

/// Warm-tier rung: a capacity-bounded bank of 8-bit-quantized per-class
/// prototypes (dnn/centroid + ann/quantize) scanned linearly before the
/// A-LSH lookup. Far cheaper than the local cache rung (no index walk, no
/// H-kNN vote) and answers the "seen this class recently and clearly"
/// frames at a fraction of the cost.
struct WarmTierParams {
  std::size_t max_prototypes = 256;  ///< bank capacity (one per label)
  /// A prototype answers only after this many DNN-validated observations
  /// (young means are still noisy).
  std::uint32_t min_support = 3;
  /// Absolute acceptance distance; 0 derives it from the local cache's
  /// H-kNN threshold as hknn.max_distance * distance_scale.
  float max_distance = 0.0f;
  /// Warm matches must be tighter than A-LSH matches: the derived
  /// threshold is scaled down by this factor.
  float distance_scale = 0.8f;
  /// Simulated scan cost: fixed overhead + one distance per prototype.
  SimDuration base_latency = 50;          // 50 us
  SimDuration per_prototype_latency = 1;  // 1 us per prototype
};

/// Region-reuse rung (DESIGN.md §11): diff the incoming frame against the
/// keyframe per grid block, splice the unchanged blocks' cached MiniCnn
/// activations back into the staged forward pass and recompute conv work
/// only for the changed blocks (plus the conv halo). The rung accelerates
/// feature extraction for the rungs below it; it never answers a frame.
struct RegionReuseParams {
  int grid = 4;              ///< blocks per side (2, 4 or 8: must divide
                             ///< every MiniCnn stage side)
  /// Changed-block fraction above which splicing is abandoned for a full
  /// staged forward (the bookkeeping would cost more than it saves).
  float max_changed = 0.5f;
  SimDuration ttl = 2 * kSecond;  ///< per-block activation staleness bound
  /// Per-block mean-abs-diff accepting reuse; same scale as the temporal
  /// rung's whole-frame threshold (both compare [0,1] grayscale).
  float block_diff_threshold = 0.045f;
  SimDuration check_latency = 500;  ///< simulated block-diff cost (0.5 ms)
};

/// Full pipeline configuration.
struct PipelineConfig {
  /// Declarative reuse-ladder spec ("imu,temporal,local,p2p,dnn"). When
  /// non-empty it is authoritative: the pipeline parses it and overwrites
  /// the per-rung flags below to match (see apply_ladder). When empty, the
  /// ladder is derived from the flags — the presets ship this way so tests
  /// and callers can keep toggling individual enable_* bits.
  std::string ladder;

  /// The cache-lookup rung: the approximate cache ("local", the paper's
  /// system) or quantized exact-match memoization ("exact", the
  /// conventional baseline). Mutually exclusive — they share the ladder's
  /// cache-lookup rank; neither set is the NoCache baseline.
  bool enable_local_cache = true;
  bool enable_exact_cache = false;

  bool enable_imu_gate = true;      ///< motion-scaled thresholds
  bool enable_imu_fastpath = true;  ///< stationary -> inherit last result
  bool enable_temporal = true;      ///< frame-diff keyframe reuse
  bool enable_regions = false;      ///< block-level activation reuse
  bool enable_warm_tier = false;    ///< quantized prototype scan before local
  bool enable_p2p = true;           ///< peer adverts merge into local cache
  bool enable_edge = false;         ///< region edge cache before the DNN
  /// Feedback-tune the similarity threshold from DNN-validated frames
  /// (extension beyond the poster; see threshold_controller.hpp).
  bool enable_adaptive_threshold = false;
  /// SQ8 candidate scan in the local cache's index (ladder token
  /// "local(q8)"): score LSH candidates on uint8 codes, re-rank the top
  /// cache.alsh.lsh.quantize.rerank_k exactly. Kept in sync with
  /// cache.alsh.lsh.quantize.enabled by apply_ladder and the runner; this
  /// flag is authoritative when both could disagree.
  bool enable_quantized_scan = false;

  ApproxCacheConfig cache;
  /// Region edge tier (ladder token "edge"); shards/capacity/ttl/
  /// error_budget are grammar-visible, the rest provisioning knobs.
  EdgeParams edge;
  MotionEstimatorParams motion;
  MotionGateParams gate;
  TemporalReuseParams temporal;
  /// Region rung (ladder token "regions"); grid/max_changed/ttl are
  /// grammar-visible, the rest provisioning knobs.
  RegionReuseParams regions;
  WarmTierParams warm;
  ThresholdControllerParams threshold;

  /// Stationary fast path inherits the last result at most this long.
  SimDuration imu_fastpath_max_age = 2 * kSecond;
  /// Simulated cost of consulting the motion estimate (sensor hub read).
  SimDuration imu_check_latency = 100;  // 0.1 ms
  /// Active-CPU power draw used to convert pipeline latency to energy.
  double cpu_active_power_mw = 2000.0;
};

/// The named configurations T1/T2/F4/T3 sweep (DESIGN.md §3). Each is a
/// ladder spec with the spec string cleared (flag-driven; see `ladder`).
PipelineConfig make_nocache_config();        ///< "dnn"
PipelineConfig make_exactcache_config();     ///< "exact,dnn"
PipelineConfig make_approx_local_config();   ///< "local,dnn"
PipelineConfig make_approx_imu_config();     ///< "imu,local,dnn"
PipelineConfig make_approx_video_config();   ///< "imu,temporal,local,dnn"
PipelineConfig make_full_system_config();    ///< "imu,temporal,local,p2p,dnn"
PipelineConfig make_adaptive_config();       ///< full + adaptive threshold
PipelineConfig make_edge_config();           ///< "imu,temporal,local,p2p,edge,dnn"

/// Config from an explicit ladder spec (`apxsim --ladder ...`). Unlike the
/// presets this keeps `ladder` set, so the spec stays authoritative.
/// Throws std::invalid_argument on a malformed spec.
PipelineConfig make_ladder_config(std::string_view spec);

}  // namespace apx
