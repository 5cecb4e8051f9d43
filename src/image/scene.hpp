#pragma once
// Synthetic scene generator — the reproduction's substitute for real camera
// frames (see DESIGN.md §4). Each object class is a procedural texture
// (sinusoid mixture + Gaussian blobs) derived deterministically from the
// generator seed; a ViewParams struct describes how the camera currently
// sees that object (pan, zoom, photometrics, occlusion).
//
// The two properties the cache exploits hold by construction:
//   * views of the SAME class under nearby ViewParams produce similar images,
//   * DIFFERENT classes produce dissimilar images — except within confusion
//     groups when `class_confusion > 0`, which deliberately recreates the
//     hard (ImageNet-like) regime for the accuracy experiments.

#include <array>
#include <cstdint>
#include <vector>

#include "src/image/image.hpp"
#include "src/util/rng.hpp"

namespace apx {

/// How the camera currently views an object. Small deltas in these fields
/// yield small image deltas (continuity is what makes video locality work).
struct ViewParams {
  float dx = 0.0f;          ///< horizontal pan, texture units
  float dy = 0.0f;          ///< vertical pan, texture units
  float zoom = 1.0f;        ///< scale factor (> 0)
  float brightness = 0.0f;  ///< additive offset
  float contrast = 1.0f;    ///< multiplicative gain around mid-gray
  float noise_sigma = 0.0f; ///< per-pixel Gaussian sensor noise
  float occlusion = 0.0f;   ///< fraction of the frame hidden by a flat patch
  std::uint64_t noise_seed = 0;  ///< seeds sensor noise + occluder placement

  /// Returns a copy perturbed by `magnitude` (0 = identical view, 1 = a
  /// completely re-drawn view). Used to synthesize consecutive video frames.
  ViewParams jittered(Rng& rng, float magnitude) const;
};

/// Deterministic renderer of class-conditioned synthetic objects.
class SceneGenerator {
 public:
  struct Config {
    int num_classes = 64;
    int image_size = 32;            ///< square frames
    int channels = 3;
    int components_per_class = 6;   ///< sinusoid mixture size
    int blobs_per_class = 3;        ///< Gaussian blob count
    /// 0 = classes fully distinct; 1 = classes within a group identical.
    float class_confusion = 0.0f;
    int group_size = 4;             ///< classes per confusion group
    std::uint64_t seed = 1;
  };

  explicit SceneGenerator(const Config& cfg);

  /// Renders `class_id` (in [0, num_classes)) under `view`.
  Image render(int class_id, const ViewParams& view) const;

  int num_classes() const noexcept { return cfg_.num_classes; }
  const Config& config() const noexcept { return cfg_; }

 private:
  struct Component {
    float fx, fy, phase;
    float amp[3];
  };
  struct Blob {
    float cx, cy, radius;
    float color[3];
  };
  struct ClassTexture {
    std::vector<Component> components;
    std::vector<Blob> blobs;
  };

  static ClassTexture make_texture(Rng& rng, const Config& cfg);
  /// The texture's value at (u, v) in each of the config's channels.
  std::array<float, 3> sample_texture(const ClassTexture& tex, float u,
                                      float v) const;

  Config cfg_;
  std::vector<ClassTexture> class_textures_;
  std::vector<ClassTexture> group_textures_;
};

}  // namespace apx
