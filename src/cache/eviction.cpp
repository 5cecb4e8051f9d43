#include "src/cache/eviction.hpp"

#include <algorithm>
#include <cmath>

namespace apx {
namespace {

class LruPolicy final : public EvictionPolicy {
 public:
  const std::string& name() const noexcept override { return name_; }
  double score(const CacheEntry& entry, SimTime /*now*/) const override {
    return static_cast<double>(entry.last_access);
  }
  double rank(const CacheEntry& entry) const override {
    return static_cast<double>(entry.last_access);
  }

 private:
  std::string name_ = "lru";
};

class LfuPolicy final : public EvictionPolicy {
 public:
  const std::string& name() const noexcept override { return name_; }
  double score(const CacheEntry& entry, SimTime now) const override {
    // Tie-break equal frequencies by recency: the fractional part is the
    // entry's age share, so older entries score lower.
    const double age =
        std::max<double>(1.0, static_cast<double>(now - entry.last_access));
    return static_cast<double>(entry.access_count) + 1.0 / (1.0 + age);
  }
  double rank(const CacheEntry& entry) const override {
    // The fraction is in (0, 0.5], so a higher count always scores higher.
    return static_cast<double>(entry.access_count);
  }

 private:
  std::string name_ = "lfu";
};

class UtilityPolicy final : public EvictionPolicy {
 public:
  explicit UtilityPolicy(const UtilityPolicyParams& params)
      : params_(params),
        halflife_s_(std::max(params.age_halflife_s, 1e-9)) {}

  const std::string& name() const noexcept override { return name_; }

  double score(const CacheEntry& entry, SimTime now) const override {
    const double recency_s = to_seconds(now - entry.last_access);
    const double decay = std::exp2(-recency_s / halflife_s_);
    return frequency(entry) * decay * provenance(entry) * confidence(entry);
  }

  double rank(const CacheEntry& entry) const override {
    // log2(score) + now / halflife: the decay's exponent without `now`.
    return std::log2(frequency(entry) * provenance(entry) *
                     confidence(entry)) +
           to_seconds(entry.last_access) / halflife_s_;
  }

 private:
  static double frequency(const CacheEntry& entry) {
    return 1.0 + static_cast<double>(entry.access_count);
  }
  double provenance(const CacheEntry& entry) const {
    return std::pow(params_.hop_discount,
                    static_cast<double>(entry.hop_count));
  }
  double confidence(const CacheEntry& entry) const {
    return 1.0 - params_.confidence_weight *
                     (1.0 - static_cast<double>(entry.confidence));
  }

  UtilityPolicyParams params_;
  double halflife_s_;
  std::string name_ = "utility";
};

}  // namespace

std::unique_ptr<EvictionPolicy> make_lru_policy() {
  return std::make_unique<LruPolicy>();
}

std::unique_ptr<EvictionPolicy> make_lfu_policy() {
  return std::make_unique<LfuPolicy>();
}

std::unique_ptr<EvictionPolicy> make_utility_policy(
    const UtilityPolicyParams& params) {
  return std::make_unique<UtilityPolicy>(params);
}

}  // namespace apx
