#pragma once
// Per-frame recognition outcome with full reuse provenance — the unit every
// experiment aggregates over.

#include <functional>

#include "src/dnn/model.hpp"
#include "src/util/clock.hpp"

namespace apx {

/// Which mechanism produced the frame's answer.
enum class ResultSource : std::uint8_t {
  kImuFastPath = 0,   ///< device stationary: inherited last confirmed result
  kTemporalReuse = 1, ///< frame-diff keyframe reuse
  kLocalCacheHit = 2, ///< approximate cache hit from locally held entries
  /// Never produced: peers collaborate through adverts only, and merged
  /// entries answer as kLocalCacheHit. Kept so the numbering (serialized in
  /// traces), the "peer-cache" export name and its schema counter stay.
  kPeerCacheHit = 3,
  kFullInference = 4, ///< the DNN ran
  kWarmCacheHit = 5,  ///< quantized warm-tier prototype match
  kEdgeCacheHit = 6,  ///< hit served by the region edge cache
};

inline constexpr std::size_t kResultSourceCount = 7;

/// Printable name ("imu-fastpath", "temporal", ...).
const char* to_string(ResultSource source) noexcept;

/// One processed frame.
struct RecognitionResult {
  SimTime frame_time = 0;       ///< camera timestamp
  SimTime completion_time = 0;  ///< when the label became available
  Label label = kNoLabel;
  Label true_label = kNoLabel;
  bool correct = false;
  ResultSource source = ResultSource::kFullInference;
  SimDuration latency = 0;      ///< completion_time - frame_time
  double compute_energy_mj = 0; ///< on-device compute energy for this frame
};

}  // namespace apx
