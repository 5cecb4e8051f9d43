#include "src/image/scene.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace apx {

ViewParams ViewParams::jittered(Rng& rng, float magnitude) const {
  ViewParams out = *this;
  out.dx += static_cast<float>(rng.normal(0.0, 0.30 * magnitude));
  out.dy += static_cast<float>(rng.normal(0.0, 0.30 * magnitude));
  out.zoom = std::max(0.2f, out.zoom + static_cast<float>(
                                           rng.normal(0.0, 0.10 * magnitude)));
  out.brightness += static_cast<float>(rng.normal(0.0, 0.05 * magnitude));
  out.brightness = std::clamp(out.brightness, -0.5f, 0.5f);
  out.contrast =
      std::clamp(out.contrast + static_cast<float>(
                                    rng.normal(0.0, 0.05 * magnitude)),
                 0.5f, 1.5f);
  out.noise_seed = rng.next_u64();
  return out;
}

SceneGenerator::SceneGenerator(const Config& cfg) : cfg_(cfg) {
  if (cfg.num_classes <= 0 || cfg.image_size <= 0 ||
      (cfg.channels != 1 && cfg.channels != 3) || cfg.group_size <= 0 ||
      cfg.class_confusion < 0.0f || cfg.class_confusion > 1.0f) {
    throw std::invalid_argument("SceneGenerator: bad config");
  }
  Rng rng{cfg.seed};
  class_textures_.reserve(static_cast<std::size_t>(cfg.num_classes));
  for (int c = 0; c < cfg.num_classes; ++c) {
    Rng class_rng = rng.fork();
    class_textures_.push_back(make_texture(class_rng, cfg));
  }
  const int num_groups = (cfg.num_classes + cfg.group_size - 1) / cfg.group_size;
  Rng group_rng{cfg.seed ^ 0xabcdef1234567890ULL};
  group_textures_.reserve(static_cast<std::size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    Rng r = group_rng.fork();
    group_textures_.push_back(make_texture(r, cfg));
  }
}

SceneGenerator::ClassTexture SceneGenerator::make_texture(Rng& rng,
                                                          const Config& cfg) {
  ClassTexture tex;
  tex.components.reserve(static_cast<std::size_t>(cfg.components_per_class));
  for (int i = 0; i < cfg.components_per_class; ++i) {
    Component comp{};
    comp.fx = static_cast<float>(rng.uniform(0.5, 6.0));
    comp.fy = static_cast<float>(rng.uniform(0.5, 6.0));
    comp.phase = static_cast<float>(rng.uniform(0.0, 6.283185));
    for (float& a : comp.amp) a = static_cast<float>(rng.uniform(0.05, 0.30));
    tex.components.push_back(comp);
  }
  tex.blobs.reserve(static_cast<std::size_t>(cfg.blobs_per_class));
  for (int i = 0; i < cfg.blobs_per_class; ++i) {
    Blob blob{};
    blob.cx = static_cast<float>(rng.uniform(-1.0, 1.0));
    blob.cy = static_cast<float>(rng.uniform(-1.0, 1.0));
    blob.radius = static_cast<float>(rng.uniform(0.15, 0.60));
    for (float& ch : blob.color) ch = static_cast<float>(rng.uniform(-0.4, 0.4));
    tex.blobs.push_back(blob);
  }
  return tex;
}

std::array<float, 3> SceneGenerator::sample_texture(const ClassTexture& tex,
                                                   float u, float v) const {
  // Each sin/exp term is channel-independent: evaluate once, add per channel.
  std::array<float, 3> value{0.5f, 0.5f, 0.5f};
  for (const auto& comp : tex.components) {
    const float s = std::sin(comp.fx * u + comp.fy * v + comp.phase);
    for (int c = 0; c < cfg_.channels; ++c) value[c] += comp.amp[c] * s;
  }
  for (const auto& blob : tex.blobs) {
    const float du = u - blob.cx;
    const float dv = v - blob.cy;
    const float r2 = blob.radius * blob.radius;
    const float e = std::exp(-(du * du + dv * dv) / (2.0f * r2));
    for (int c = 0; c < cfg_.channels; ++c) value[c] += blob.color[c] * e;
  }
  return value;
}

Image SceneGenerator::render(int class_id, const ViewParams& view) const {
  if (class_id < 0 || class_id >= cfg_.num_classes) {
    throw std::out_of_range("SceneGenerator::render: class_id out of range");
  }
  const ClassTexture& own = class_textures_[static_cast<std::size_t>(class_id)];
  const ClassTexture& group =
      group_textures_[static_cast<std::size_t>(class_id / cfg_.group_size)];
  const float mix = cfg_.class_confusion;

  const int n = cfg_.image_size;
  Image img(n, n, cfg_.channels);
  Rng noise_rng{view.noise_seed};
  const float inv_zoom = 1.0f / std::max(view.zoom, 0.05f);

  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      // Map pixel to texture coordinates in roughly [-1, 1] at zoom 1.
      const float u =
          ((static_cast<float>(x) / static_cast<float>(n)) * 2.0f - 1.0f) *
              inv_zoom +
          view.dx;
      const float v =
          ((static_cast<float>(y) / static_cast<float>(n)) * 2.0f - 1.0f) *
              inv_zoom +
          view.dy;
      const std::array<float, 3> own_value = sample_texture(own, u, v);
      // At mix == 0 the group term adds only a signed zero, which the
      // `- 0.5f` below erases, so any finite stand-in gives the same pixel.
      const std::array<float, 3> group_value =
          mix > 0.0f ? sample_texture(group, u, v) : own_value;
      for (int c = 0; c < cfg_.channels; ++c) {
        float value = (1.0f - mix) * own_value[c] + mix * group_value[c];
        value = (value - 0.5f) * view.contrast + 0.5f + view.brightness;
        if (view.noise_sigma > 0.0f) {
          value += static_cast<float>(
              noise_rng.normal(0.0, static_cast<double>(view.noise_sigma)));
        }
        img.at(x, y, c) = value;
      }
    }
  }

  if (view.occlusion > 0.0f) {
    // A flat mid-gray patch covering `occlusion` of the frame, placed by the
    // noise seed so consecutive frames keep the occluder roughly stable.
    Rng occ_rng{view.noise_seed ^ 0x5eedULL};
    const float frac = std::clamp(view.occlusion, 0.0f, 0.95f);
    const int side =
        std::max(1, static_cast<int>(std::sqrt(frac) * static_cast<float>(n)));
    const int ox = static_cast<int>(occ_rng.uniform_u64(
        static_cast<std::uint64_t>(std::max(1, n - side))));
    const int oy = static_cast<int>(occ_rng.uniform_u64(
        static_cast<std::uint64_t>(std::max(1, n - side))));
    for (int y = oy; y < std::min(n, oy + side); ++y) {
      for (int x = ox; x < std::min(n, ox + side); ++x) {
        for (int c = 0; c < cfg_.channels; ++c) img.at(x, y, c) = 0.5f;
      }
    }
  }

  img.clamp();
  return img;
}

}  // namespace apx
