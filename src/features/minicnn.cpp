#include "src/features/minicnn.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "src/features/extractor.hpp"
#include "src/util/rng.hpp"

namespace apx {
namespace {

// Four output channels per SIMD register (GNU vector extension, gcc/clang).
using Lanes = float __attribute__((vector_size(16)));
constexpr int kLanes = 4;

// The one conv reduction: conv3x3 + ReLU outputs [x0, x1) of row `y`, all
// OC channels of a pixel at once: acc[oc] = bias[oc], then acc[oc] +=
// in[tap][ic] * w[tap][ic][oc] over (ky, kx, ic), the scalar loop's order
// vectorized across oc. With -ffp-contract=off (src/CMakeLists.txt) no FMA
// fuses a step, so every caller gets the same bits. The compile-time shape
// keeps the accumulators in registers; only border pixels clamp.
template <int IC, int OC>
void conv_row(const float* in, int width, int height, const float* weights,
              const float* bias, int y, int x0, int x1, float* out) {
  constexpr int kVecs = OC / kLanes;
  const float* rows[3];
  for (int k = 0; k < 3; ++k) {
    const int sy = std::clamp(y + k - 1, 0, height - 1);
    rows[k] = in + static_cast<std::size_t>(sy) * width * IC;
  }
  const auto pixel = [&](int x, int left, int right) {
    const int cols[3] = {left * IC, x * IC, right * IC};
    Lanes acc[kVecs];
    std::memcpy(acc, bias, sizeof(acc));
    const float* w = weights;
    for (int ky = 0; ky < 3; ++ky) {
      for (int kx = 0; kx < 3; ++kx) {
        const float* src = rows[ky] + cols[kx];
        for (int ic = 0; ic < IC; ++ic) {
          for (int v = 0; v < kVecs; ++v, w += kLanes) {
            Lanes wv;
            std::memcpy(&wv, w, sizeof(wv));
            acc[v] += src[ic] * wv;
          }
        }
      }
    }
    float* dst = out + static_cast<std::size_t>(x - x0) * OC;
    std::memcpy(dst, acc, sizeof(acc));
    for (int oc = 0; oc < OC; ++oc) dst[oc] = std::max(dst[oc], 0.0f);
  };
  const int interior_begin = std::min(std::max(x0, 1), x1);
  const int interior_end = std::min(x1, width - 1);
  int x = x0;
  for (; x < interior_begin; ++x) pixel(x, 0, std::min(1, width - 1));
  for (; x < interior_end; ++x) pixel(x, x - 1, x + 1);
  for (; x < x1; ++x) pixel(x, std::max(x - 1, 0), width - 1);
}

// Max over a 2x2 pool window; `top` and `bottom` hold two conv pixels each.
void pool_window(const float* top, const float* bottom, std::size_t ch,
                 float* out) {
  for (std::size_t c = 0; c < ch; ++c) {
    out[c] = std::max({-1e30f, top[c], top[ch + c], bottom[c], bottom[ch + c]});
  }
}

void check_size(const MiniCnn::Tensor& t, const MiniCnn::StageShape& shape,
                const char* what) {
  if (t.size() != shape.size()) {
    throw std::invalid_argument(std::string("MiniCnn: ") + what +
                                " tensor has the wrong size");
  }
}

}  // namespace

template <int IC, int OC>
MiniCnn::ConvLayer MiniCnn::make_conv(Rng& rng) {
  // He-style initialization keeps activations in a sane range through depth.
  // Draw i is weight [oc][ic][tap] = [i / 9IC][i / 9 % IC][i % 9], stored
  // at its tap-major slot.
  const double stddev = std::sqrt(2.0 / (9.0 * IC));
  ConvLayer layer{OC, std::vector<float>(9 * IC * OC),
                  std::vector<float>(OC, 0.0f), &conv_row<IC, OC>};
  for (int i = 0; i < 9 * IC * OC; ++i) {
    layer.weights[static_cast<std::size_t>((i % 9 * IC + i / 9 % IC) * OC +
                                           i / (9 * IC))] =
        static_cast<float>(rng.normal(0.0, stddev));
  }
  return layer;
}

const MiniCnn::ForwardPlan& MiniCnn::plan() noexcept {
  static const ForwardPlan p = [] {
    ForwardPlan out;
    out.input = {kInputSide, kInputSide, 3};
    out.stage1 = {kInputSide / 2, kInputSide / 2, 8};
    out.stage2 = {kInputSide / 4, kInputSide / 4, 16};
    out.stage3 = {kInputSide / 4, kInputSide / 4, 32};
    // MACs = output pixels * out_channels * 9 taps * in_channels.
    out.conv_macs = {
        static_cast<double>(out.input.width) * out.input.height * 8 * 9 * 3,
        static_cast<double>(out.stage1.width) * out.stage1.height * 16 * 9 * 8,
        static_cast<double>(out.stage2.width) * out.stage2.height * 32 * 9 * 16,
    };
    return out;
  }();
  return p;
}

MiniCnn::MiniCnn(std::size_t dim, std::uint64_t seed) : dim_(dim) {
  if (dim == 0) throw std::invalid_argument("MiniCnn: dim == 0");
  Rng rng{seed};
  conv1_ = make_conv<3, 8>(rng);
  conv2_ = make_conv<8, 16>(rng);
  conv3_ = make_conv<16, 32>(rng);

  const double fc_stddev = std::sqrt(2.0 / 32.0);
  fc_weights_.resize(dim * 32);
  for (float& w : fc_weights_) {
    w = static_cast<float>(rng.normal(0.0, fc_stddev));
  }
  fc_bias_.assign(dim, 0.0f);
}

std::size_t MiniCnn::parameter_count() const noexcept {
  return conv1_.weights.size() + conv1_.bias.size() + conv2_.weights.size() +
         conv2_.bias.size() + conv3_.weights.size() + conv3_.bias.size() +
         fc_weights_.size() + fc_bias_.size();
}

void MiniCnn::conv3x3_relu_into(const Tensor& in, int width, int height,
                                const ConvLayer& layer, ThreadPool* pool,
                                Tensor& out) {
  const std::size_t row_floats = static_cast<std::size_t>(width) *
                                 static_cast<std::size_t>(layer.out_channels);
  out.resize(row_floats * static_cast<std::size_t>(height));
  auto rows = [&](std::size_t y_begin, std::size_t y_end) {
    for (std::size_t y = y_begin; y < y_end; ++y) {
      layer.row(in.data(), width, height, layer.weights.data(),
                layer.bias.data(), static_cast<int>(y), 0, width,
                out.data() + y * row_floats);
    }
  };
  if (pool != nullptr && pool->size() > 0 && height >= 8) {
    // Each task owns a disjoint band of output rows (halo reads overlap,
    // writes never do), so the result matches the serial loop bit for bit.
    pool->parallel_for(0, static_cast<std::size_t>(height), /*grain=*/4,
                       rows);
  } else {
    rows(0, static_cast<std::size_t>(height));
  }
}

void MiniCnn::maxpool2_into(const Tensor& in, int width, int height,
                            int channels, Tensor& out) {
  const int ow = width / 2;
  const std::size_t ch = static_cast<std::size_t>(channels);
  out.resize(static_cast<std::size_t>(ow) * (height / 2) * ch);
  for (std::size_t i = 0; i < out.size() / ch; ++i) {
    const float* top = in.data() + ((i / ow) * 2 * width + (i % ow) * 2) * ch;
    pool_window(top, top + width * ch, ch, out.data() + i * ch);
  }
}

void MiniCnn::recompute_pooled(const Tensor& in, int in_width, int in_height,
                               const ConvLayer& layer,
                               std::span<const std::uint8_t> mask,
                               Tensor& stage) {
  const int ow = in_width / 2;
  const std::size_t ch = static_cast<std::size_t>(layer.out_channels);
  std::array<float, 4 * 32> window;  // 2x2 conv pixels, all oc each
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] == 0) continue;
    const int x = static_cast<int>(i % ow) * 2;
    const int y = static_cast<int>(i / ow) * 2;
    for (int dy = 0; dy < 2; ++dy) {
      layer.row(in.data(), in_width, in_height, layer.weights.data(),
                layer.bias.data(), y + dy, x, x + 2, &window[dy * 2 * ch]);
    }
    pool_window(window.data(), window.data() + 2 * ch, ch,
                stage.data() + i * ch);
  }
}

void MiniCnn::propagate_dirty(std::span<const std::uint8_t> in, int width,
                              int height, std::span<std::uint8_t> out) {
  const int ow = width / 2;
  const int oh = height / 2;
  for (int py = 0; py < oh; ++py) {
    for (int px = 0; px < ow; ++px) {
      const int x0 = std::max(px * 2 - 1, 0);
      const int x1 = std::min(px * 2 + 2, width - 1);
      const int y0 = std::max(py * 2 - 1, 0);
      const int y1 = std::min(py * 2 + 2, height - 1);
      std::uint8_t dirty = 0;
      for (int y = y0; y <= y1 && dirty == 0; ++y) {
        for (int x = x0; x <= x1; ++x) {
          if (in[static_cast<std::size_t>(y) * width + x] != 0) {
            dirty = 1;
            break;
          }
        }
      }
      out[static_cast<std::size_t>(py) * ow + px] = dirty;
    }
  }
}

void MiniCnn::prepare_input(const Image& img, ForwardState& state) const {
  const Image* src = &img;
  Image scaled;
  if (img.width() != kInputSide || img.height() != kInputSide) {
    scaled = img.resized(kInputSide, kInputSide);
    src = &scaled;
  }
  // Expand grayscale to 3 channels.
  state.input.resize(static_cast<std::size_t>(kInputSide) * kInputSide * 3);
  float* dst = state.input.data();
  for (int y = 0; y < kInputSide; ++y) {
    for (int x = 0; x < kInputSide; ++x) {
      for (int c = 0; c < 3; ++c) {
        *dst++ = src->at(x, y, std::min(c, src->channels() - 1));
      }
    }
  }
}

void MiniCnn::forward(ForwardState& state, int from_stage, FeatureVec& out,
                      ThreadPool* pool) const {
  const ForwardPlan& p = plan();
  if (from_stage < 0 || from_stage > 2) {
    throw std::invalid_argument("MiniCnn::forward: from_stage out of [0, 2]");
  }
  if (from_stage == 0) check_size(state.input, p.input, "input");
  if (from_stage == 1) check_size(state.stage1, p.stage1, "stage1");
  if (from_stage == 2) check_size(state.stage2, p.stage2, "stage2");
  if (from_stage < 1) {
    conv3x3_relu_into(state.input, p.input.width, p.input.height, conv1_,
                      pool, state.conv1);
    maxpool2_into(state.conv1, p.input.width, p.input.height,
                  conv1_.out_channels, state.stage1);
  }
  if (from_stage < 2) {
    conv3x3_relu_into(state.stage1, p.stage1.width, p.stage1.height, conv2_,
                      pool, state.conv2);
    maxpool2_into(state.conv2, p.stage1.width, p.stage1.height,
                  conv2_.out_channels, state.stage2);
  }
  conv3x3_relu_into(state.stage2, p.stage2.width, p.stage2.height, conv3_,
                    pool, state.stage3);
  head(state, out);
}

void MiniCnn::embed_into(const Image& img, ForwardState& state,
                         FeatureVec& out, ThreadPool* pool) const {
  prepare_input(img, state);
  forward(state, /*from_stage=*/0, out, pool);
}

MiniCnn::SpliceStats MiniCnn::forward_spliced(
    ForwardState& state, const Tensor& cached_stage1,
    const Tensor& cached_stage2, std::span<const std::uint8_t> stage1_mask,
    std::span<const std::uint8_t> stage2_mask, FeatureVec& out) const {
  const ForwardPlan& p = plan();
  check_size(state.input, p.input, "input");
  check_size(cached_stage1, p.stage1, "cached stage1");
  check_size(cached_stage2, p.stage2, "cached stage2");
  if (stage1_mask.size() !=
          static_cast<std::size_t>(p.stage1.width) * p.stage1.height ||
      stage2_mask.size() !=
          static_cast<std::size_t>(p.stage2.width) * p.stage2.height) {
    throw std::invalid_argument("MiniCnn::forward_spliced: bad mask size");
  }
  SpliceStats stats;
  const auto count = [](std::span<const std::uint8_t> mask) {
    int n = 0;
    for (const std::uint8_t v : mask) n += (v != 0);
    return n;
  };
  stats.stage1_recomputed = count(stage1_mask);
  // Splice: copy-assignment reuses the state tensors' capacity.
  state.stage1 = cached_stage1;
  state.stage2 = cached_stage2;
  if (stats.stage1_recomputed == 0) {
    // Every block cached and clean: resume straight at conv3.
    stats.resume_stage = 2;
  } else {
    stats.resume_stage = 1;
    stats.stage2_recomputed = count(stage2_mask);
    recompute_pooled(state.input, p.input.width, p.input.height, conv1_,
                     stage1_mask, state.stage1);
    recompute_pooled(state.stage1, p.stage1.width, p.stage1.height, conv2_,
                     stage2_mask, state.stage2);
  }
  conv3x3_relu_into(state.stage2, p.stage2.width, p.stage2.height, conv3_,
                    nullptr, state.stage3);
  head(state, out);
  return stats;
}

void MiniCnn::head(ForwardState& state, FeatureVec& out) const {
  const ForwardPlan& p = plan();
  // Global average pool.
  state.pooled.assign(32, 0.0f);
  const int pixels = p.stage3.width * p.stage3.height;
  for (std::size_t i = 0; i < state.stage3.size(); ++i) {
    state.pooled[i % 32] += state.stage3[i];
  }
  for (float& v : state.pooled) v /= static_cast<float>(pixels);

  out.resize(dim_);
  for (std::size_t d = 0; d < dim_; ++d) {
    float acc = fc_bias_[d];
    for (std::size_t c = 0; c < 32; ++c) {
      acc += fc_weights_[d * 32 + c] * state.pooled[c];
    }
    out[d] = acc;
  }
  normalize(out);
}

FeatureVec MiniCnn::embed(const Image& img, ThreadPool* pool) const {
  ForwardState state;
  FeatureVec out;
  embed_into(img, state, out, pool);
  return out;
}

std::vector<FeatureVec> MiniCnn::embed_batch(std::span<const Image> imgs,
                                             ThreadPool* pool) const {
  std::vector<FeatureVec> out(imgs.size());
  if (pool == nullptr || pool->size() == 0 || imgs.size() < 2) {
    ForwardState state;
    for (std::size_t i = 0; i < imgs.size(); ++i) {
      embed_into(imgs[i], state, out[i]);
    }
    return out;
  }
  // Contiguous slices, a few per worker for balance; each task reuses one
  // ForwardState across its images, so only the first image of a slice
  // allocates. Images are independent and each result lands in its own
  // slot, so scheduling order cannot affect the output.
  const std::size_t grain =
      std::max<std::size_t>(1, imgs.size() / (4 * (pool->size() + 1)));
  pool->parallel_for(0, imgs.size(), grain,
                     [this, imgs, &out](std::size_t lo, std::size_t hi) {
                       ForwardState state;
                       for (std::size_t i = lo; i < hi; ++i) {
                         embed_into(imgs[i], state, out[i]);
                       }
                     });
  return out;
}

namespace {

class CnnExtractor final : public FeatureExtractor {
 public:
  CnnExtractor(std::size_t dim, std::uint64_t seed, SimDuration latency)
      : cnn_(dim, seed), latency_(latency), name_("cnn-embed") {}

  const std::string& name() const noexcept override { return name_; }
  std::size_t dim() const noexcept override { return cnn_.dim(); }
  SimDuration latency() const noexcept override { return latency_; }
  float recommended_max_distance() const noexcept override { return 0.045f; }
  FeatureVec extract(const Image& img) const override {
    return cnn_.embed(img);
  }
  const MiniCnn* staged_cnn() const noexcept override { return &cnn_; }

 private:
  MiniCnn cnn_;
  SimDuration latency_;
  std::string name_;
};

}  // namespace

std::unique_ptr<FeatureExtractor> make_cnn_extractor(std::size_t dim,
                                                     std::uint64_t seed,
                                                     SimDuration latency) {
  return std::make_unique<CnnExtractor>(dim, seed, latency);
}

}  // namespace apx
