// M5 — region splice micro-benchmark: real wall-clock cost of the staged
// MiniCnn forward pass with spliced cached activations (DESIGN.md §11)
// against the full extraction it replaces.
//
// Part 1 sweeps changed-block fraction x grid size under controlled
// perturbation: exactly k blocks of a keyframe change, the dirty masks are
// propagated through the conv/pool footprint, and the spliced forward is
// timed against the full staged forward of the same frame. Results are
// bit-identical by construction (asserted every iteration), so "speedup"
// is pure latency: the exhibit claim is that a partial-frame hit with <=
// 25% changed blocks beats full feature extraction. The splice side pays
// its whole honest pipeline — block diff against the keyframe, dirty-mask
// propagation, then the partial conv — while the full side pays only
// prepare + forward. The "MAC model" column is the speedup the regions
// rung's simulated cost assumes (1 / ForwardPlan::splice_mac_share of the
// propagated dirty masks), printed beside the measured one.
//
// Part 2 runs a live MultiObjectStream (per-slot Poisson changes, camera
// jitter and sensor noise) through the real BlockKeyframeTracker +
// ActivationCache loop and reports fidelity extras: how often frames
// splice, how many blocks they reuse, and the cosine similarity between
// spliced and fully-recomputed embeddings (the threshold admits pixel
// noise, so this is where approximation actually enters).
//
// Emits BENCH_regions.json (path = first non-flag arg); --smoke shrinks
// the iteration counts for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "src/dnn/activation_cache.hpp"
#include "src/features/minicnn.hpp"
#include "src/image/scene.hpp"
#include "src/util/rng.hpp"
#include "src/util/vecmath.hpp"
#include "src/video/locality.hpp"
#include "src/vision/multi_object.hpp"

namespace apx::bench {
namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Scattered deterministic pick of k changed blocks out of grid*grid.
std::vector<std::uint8_t> pick_blocks(int grid, int k) {
  const int total = grid * grid;
  std::vector<std::uint8_t> changed(static_cast<std::size_t>(total), 0);
  int placed = 0;
  for (int i = 0; placed < k && i < total; ++i) {
    const int b = (i * 7 + 3) % total;  // stride 7 is coprime with 4/16/64
    if (changed[static_cast<std::size_t>(b)] == 0) {
      changed[static_cast<std::size_t>(b)] = 1;
      ++placed;
    }
  }
  return changed;
}

/// Inverts every pixel of the flagged blocks (well past any threshold).
Image perturb_blocks(const Image& frame, int grid,
                     const std::vector<std::uint8_t>& changed) {
  Image out = frame;
  const int bw = frame.width() / grid;
  for (int by = 0; by < grid; ++by) {
    for (int bx = 0; bx < grid; ++bx) {
      if (changed[static_cast<std::size_t>(by) * grid + bx] == 0) continue;
      for (int y = by * bw; y < (by + 1) * bw; ++y) {
        for (int x = bx * bw; x < (bx + 1) * bw; ++x) {
          for (int c = 0; c < frame.channels(); ++c) {
            out.at(x, y, c) = 1.0f - out.at(x, y, c);
          }
        }
      }
    }
  }
  return out;
}

struct SweepPoint {
  double full_ns = 0.0;
  double splice_ns = 0.0;
  double mac_share = 0.0;  ///< the regions rung's simulated cost share
  bool identical = true;
};

double dirty_fraction(const std::vector<std::uint8_t>& mask) {
  std::size_t n = 0;
  for (const std::uint8_t v : mask) n += (v != 0);
  return static_cast<double>(n) / static_cast<double>(mask.size());
}

/// Times full extraction vs the honest splice pipeline (block diff +
/// mask propagation + partial forward) for exactly `k` changed blocks.
SweepPoint sweep_point(const MiniCnn& cnn, const Image& keyframe, int grid,
                       int k, int iters) {
  const MiniCnn::ForwardPlan& plan = MiniCnn::plan();
  const std::vector<std::uint8_t> changed = pick_blocks(grid, k);
  const Image current = perturb_blocks(keyframe, grid, changed);

  // Cache the keyframe's activations once (the rung's steady state).
  MiniCnn::ForwardState key_state;
  FeatureVec key_out;
  cnn.embed_into(keyframe, key_state, key_out);
  const ActivationCache::Params cache_params{grid, /*ttl=*/0};
  ActivationCache acts{plan, cache_params};
  const std::vector<std::uint8_t> all(changed.size(), 1);
  acts.install(key_state.stage1, key_state.stage2, all, /*now=*/0);
  BlockMatchParams match;
  match.grid = grid;
  BlockKeyframeTracker matcher{match};
  std::vector<std::uint8_t> classified(changed.size());
  matcher.classify(keyframe, classified);
  matcher.update(classified);

  MiniCnn::ForwardState state;
  FeatureVec full_out, splice_out;
  std::vector<std::uint8_t> input_mask(plan.input.size() / 3);
  std::vector<std::uint8_t> stage1_mask(plan.stage1.size() /
                                        plan.stage1.channels);
  std::vector<std::uint8_t> stage2_mask(plan.stage2.size() /
                                        plan.stage2.channels);

  SweepPoint point;
  // Warm both paths (scratch high-water marks, branch predictors).
  cnn.embed_into(current, state, full_out);

  // The two sides alternate in short rounds, so drift in the host's speed
  // weighs on both alike.
  constexpr int kRounds = 20;
  const int per_round = std::max(1, iters / kRounds);
  for (int round = 0; round < kRounds; ++round) {
    const auto f0 = Clock::now();
    for (int i = 0; i < per_round; ++i) {
      cnn.embed_into(current, state, full_out);
    }
    point.full_ns += ns_since(f0);

    const auto s0 = Clock::now();
    for (int i = 0; i < per_round; ++i) {
      matcher.classify(current, classified);
      acts.block_to_pixel_mask(classified, MiniCnn::kInputSide, input_mask);
      MiniCnn::propagate_dirty(input_mask, plan.input.width,
                               plan.input.height, stage1_mask);
      MiniCnn::propagate_dirty(stage1_mask, plan.stage1.width,
                               plan.stage1.height, stage2_mask);
      cnn.prepare_input(current, state);
      cnn.forward_spliced(state, acts.stage1(), acts.stage2(), stage1_mask,
                          stage2_mask, splice_out);
    }
    point.splice_ns += ns_since(s0);
  }
  point.full_ns /= kRounds * per_round;
  point.splice_ns /= kRounds * per_round;
  point.mac_share = plan.splice_mac_share(dirty_fraction(stage1_mask),
                                          dirty_fraction(stage2_mask));
  point.identical = point.identical && (splice_out == full_out);
  return point;
}

struct StreamStats {
  double splice_rate = 0.0;       ///< fraction of frames that spliced
  double reused_fraction = 0.0;   ///< blocks reused per spliced frame
  double mean_cos_sim = 1.0;      ///< spliced vs full embedding
};

/// Live multi-object loop: tracker-classified splices against a real
/// jittering stream, fidelity measured against full recomputation.
StreamStats stream_fidelity(const MiniCnn& cnn, int grid, int frames) {
  const MiniCnn::ForwardPlan& plan = MiniCnn::plan();
  SceneGenerator::Config world;
  world.num_classes = 32;
  world.image_size = 32;
  world.seed = 23;
  const SceneGenerator scenes{world};
  const ZipfSampler popularity{32, 0.9};
  MultiObjectStream::Config stream_cfg;
  stream_cfg.slot_change_rate = 0.6;  // brisk churn: plenty of partials
  MultiObjectStream stream{scenes, popularity, stream_cfg, 7};

  BlockMatchParams match;
  match.grid = grid;
  BlockKeyframeTracker matcher{match};
  ActivationCache acts{plan, ActivationCache::Params{grid, /*ttl=*/0}};
  const int total = acts.block_count();

  MiniCnn::ForwardState state, full_state;
  FeatureVec out, full_out;
  std::vector<std::uint8_t> changed(static_cast<std::size_t>(total));
  std::vector<std::uint8_t> input_mask(plan.input.size() / 3);
  std::vector<std::uint8_t> stage1_mask(plan.stage1.size() /
                                        plan.stage1.channels);
  std::vector<std::uint8_t> stage2_mask(plan.stage2.size() /
                                        plan.stage2.channels);
  const std::vector<std::uint8_t> all(changed.size(), 1);

  int spliced_frames = 0;
  double reused_sum = 0.0, cos_sum = 0.0;
  for (int i = 0; i < frames; ++i) {
    const MultiFrame frame = stream.next();
    const int changed_count = matcher.classify(frame.image, changed);
    cnn.prepare_input(frame.image, state);
    if (!acts.valid() || changed_count == total) {
      cnn.forward(state, /*from_stage=*/0, out);
      matcher.update(all);
      acts.install(state.stage1, state.stage2, all, /*now=*/i);
      continue;
    }
    acts.block_to_pixel_mask(changed, MiniCnn::kInputSide, input_mask);
    MiniCnn::propagate_dirty(input_mask, plan.input.width, plan.input.height,
                             stage1_mask);
    MiniCnn::propagate_dirty(stage1_mask, plan.stage1.width,
                             plan.stage1.height, stage2_mask);
    cnn.forward_spliced(state, acts.stage1(), acts.stage2(), stage1_mask,
                        stage2_mask, out);
    matcher.update(changed);
    acts.install(state.stage1, state.stage2, changed, /*now=*/i);
    cnn.embed_into(frame.image, full_state, full_out);
    ++spliced_frames;
    reused_sum += static_cast<double>(total - changed_count) / total;
    cos_sum += static_cast<double>(dot(out, full_out));
  }

  StreamStats stats;
  if (frames > 0) {
    stats.splice_rate = static_cast<double>(spliced_frames) / frames;
  }
  if (spliced_frames > 0) {
    stats.reused_fraction = reused_sum / spliced_frames;
    stats.mean_cos_sim = cos_sum / spliced_frames;
  }
  return stats;
}

}  // namespace
}  // namespace apx::bench

int main(int argc, char** argv) {
  using namespace apx;
  using namespace apx::bench;

  bool smoke = false;
  std::string json_path = "BENCH_regions.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  const int iters = smoke ? 20 : 400;
  const int stream_frames = smoke ? 60 : 600;

  banner("M5", "region splice vs full extraction",
         "spliced partial forwards beat full extraction for <=25% changed "
         "blocks; fidelity stays near-exact on a live stream");

  const MiniCnn cnn{64, 7};
  SceneGenerator::Config world;
  world.num_classes = 8;
  world.image_size = 32;
  world.seed = 11;
  const SceneGenerator scenes{world};
  const Image keyframe = scenes.render(2, ViewParams{});

  BenchJson json{"m5_regions", cnn.dim(), static_cast<std::size_t>(iters)};
  TextTable table;
  table.header({"grid", "changed", "full ns/frame", "splice ns/frame",
                "speedup", "MAC model", "identical"});
  bool all_identical = true;
  const double fracs[] = {0.0, 0.25, 0.5, 1.0};
  for (const int grid : {2, 4, 8}) {
    const int total = grid * grid;
    for (const double frac : fracs) {
      const int k = static_cast<int>(frac * total + 0.5);
      const SweepPoint p = sweep_point(cnn, keyframe, grid, k, iters);
      all_identical = all_identical && p.identical;
      const std::string label = "grid" + std::to_string(grid) + "_changed" +
                                std::to_string(static_cast<int>(frac * 100)) +
                                "pct";
      json.metric(label, p.full_ns, p.splice_ns);
      table.row({std::to_string(grid),
                 std::to_string(k) + "/" + std::to_string(total),
                 TextTable::num(p.full_ns, 0), TextTable::num(p.splice_ns, 0),
                 TextTable::num(p.full_ns / p.splice_ns, 2),
                 TextTable::num(1.0 / p.mac_share, 2),
                 p.identical ? "yes" : "NO"});
    }
  }
  std::printf("%s", table.render().c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: spliced embedding diverged from full forward\n");
    return 1;
  }

  std::printf("\nlive stream fidelity (grid=4, %d frames):\n", stream_frames);
  const StreamStats stats = stream_fidelity(cnn, 4, stream_frames);
  std::printf("  splice rate          %.2f\n", stats.splice_rate);
  std::printf("  mean reused blocks   %.2f\n", stats.reused_fraction);
  std::printf("  mean cosine to full  %.4f\n", stats.mean_cos_sim);
  json.extra("stream_splice_rate", stats.splice_rate);
  json.extra("stream_reused_fraction", stats.reused_fraction);
  json.extra("stream_mean_cos_sim", stats.mean_cos_sim);

  if (!json.write(json_path)) return 1;
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
