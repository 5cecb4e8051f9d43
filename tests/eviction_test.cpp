// Differential tests for ApproxCache eviction. The cache keeps entries in
// a lazily refreshed rank order and scores only a band near the minimum;
// these tests hold it to the plain rule it replaces: evict the entry with
// the lowest EvictionPolicy::score at the insert's `now`, ties broken by
// the lower id. Randomized schedules mix inserts at capacity, lookup hits,
// batched lookups folded with out-of-order `now`, removals, clears and
// edge TTL sweeps, over every policy, equal ranks, zero/negative and huge
// confidence terms, decays that underflow, and a policy that keeps the
// default rank.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/approx_cache.hpp"
#include "src/edge/edge_cache.hpp"
#include "src/util/rng.hpp"
#include "src/util/vecmath.hpp"

namespace apx {
namespace {

constexpr std::size_t kDim = 8;
constexpr std::size_t kObjects = 12;

/// The reference: score every resident entry, keep the lowest score, ties
/// to the lower id.
VecId scan_victim(const ApproxCache& cache, SimTime now) {
  VecId victim = 0;
  double worst = std::numeric_limits<double>::max();
  cache.for_each([&](const CacheEntry& entry) {
    const double s = cache.eviction().score(entry, now);
    if (s < worst || (s == worst && entry.id < victim)) {
      worst = s;
      victim = entry.id;
    }
  });
  return victim;
}

/// Forwards to `inner` and counts score() calls: the work an eviction did.
class CountingPolicy final : public EvictionPolicy {
 public:
  CountingPolicy(std::unique_ptr<EvictionPolicy> inner, std::size_t& scored)
      : inner_(std::move(inner)), scored_(scored) {}
  const std::string& name() const noexcept override { return inner_->name(); }
  double score(const CacheEntry& entry, SimTime now) const override {
    ++scored_;
    return inner_->score(entry, now);
  }
  double rank(const CacheEntry& entry) const override {
    return inner_->rank(entry);
  }

 private:
  std::unique_ptr<EvictionPolicy> inner_;
  std::size_t& scored_;
};

/// A policy with the default rank: every entry stays a candidate.
class ConfidencePolicy final : public EvictionPolicy {
 public:
  const std::string& name() const noexcept override { return name_; }
  double score(const CacheEntry& entry, SimTime now) const override {
    return static_cast<double>(entry.confidence) *
           static_cast<double>(1 + entry.access_count) /
           static_cast<double>(1 + (now - entry.insert_time) / kSecond);
  }

 private:
  std::string name_ = "confidence";
};

enum class Confidence { kUnit, kNonPositive, kHuge };

/// The score() calls an eviction may make.
enum class Work {
  kBand,  ///< a few: the band near the minimum rank
  kAll,   ///< exactly one per resident entry (the default rank)
  kAny,   ///< unchecked: wide ties, or scores that are not positive
          ///< normals (which scan every entry)
};

struct Schedule {
  std::string name;
  std::unique_ptr<EvictionPolicy> (*policy)();
  Confidence confidence = Confidence::kUnit;
  Work work = Work::kBand;
  /// Largest forward step of the clock between operations (µs).
  SimDuration max_step = 10 * kMillisecond;
};

std::unique_ptr<EvictionPolicy> utility_default() {
  return make_utility_policy();
}
std::unique_ptr<EvictionPolicy> utility_fast_decay() {
  // A 1 ms halflife: entries idle for ~1.1 s decay to exactly zero.
  return make_utility_policy({.age_halflife_s = 1e-3});
}
std::unique_ptr<EvictionPolicy> utility_full_confidence_weight() {
  // Confidence term = confidence itself, so confidence <= 0 zeroes or
  // negates the score; no hop discount, so many entries tie in rank.
  return make_utility_policy(
      {.hop_discount = 1.0, .confidence_weight = 1.0});
}
std::unique_ptr<EvictionPolicy> confidence_policy() {
  return std::make_unique<ConfidencePolicy>();
}

std::ostream& operator<<(std::ostream& os, const Schedule& s) {
  return os << s.name;
}

/// Drives one cache through a randomized schedule, checking every eviction
/// against scan_victim().
class Driver {
 public:
  Driver(ApproxCache& cache, const std::size_t& scored, std::uint64_t seed,
         Confidence confidence)
      : cache_(cache), scored_(scored), rng_(seed), confidence_(confidence) {
    for (std::size_t c = 0; c < kObjects; ++c) {
      FeatureVec v(kDim);
      for (float& x : v) x = static_cast<float>(rng_.normal());
      normalize(v);
      centers_.push_back(std::move(v));
    }
  }

  FeatureVec key() {
    FeatureVec v = centers_[rng_.uniform_u64(kObjects)];
    for (float& x : v) x += static_cast<float>(rng_.normal(0.0, 0.02));
    normalize(v);
    return v;
  }

  float confidence() {
    switch (confidence_) {
      case Confidence::kUnit:
        // Coarse steps, so equal weights (and ranks) are common.
        return 0.25f * static_cast<float>(1 + rng_.uniform_u64(4));
      case Confidence::kNonPositive: {
        const float values[] = {-3.0f, -1.0f, 0.0f, 0.5f, 1.0f};
        return values[rng_.uniform_u64(5)];
      }
      case Confidence::kHuge: {
        const float values[] = {1e30f, 3e38f, 1.0f, 0.5f};
        return values[rng_.uniform_u64(4)];
      }
    }
    return 1.0f;
  }

  /// Inserts one entry; when the cache is full, checks the evicted entry
  /// is the reference victim.
  void insert(SimTime now) {
    std::optional<VecId> expected;
    if (cache_.size() >= cache_.capacity()) expected = scan_victim(cache_, now);
    const std::size_t before = scored_;
    (void)cache_.insert(key(), static_cast<Label>(rng_.uniform_u64(4)),
                        confidence(), now, EntryOrigin::kLocal,
                        static_cast<std::uint8_t>(rng_.uniform_u64(3)));
    if (expected.has_value()) {
      ++evictions_checked;
      eviction_scores += scored_ - before;
      ASSERT_EQ(cache_.size(), cache_.capacity());
      EXPECT_EQ(cache_.find(*expected), nullptr)
          << "eviction " << evictions_checked << " at now=" << now
          << " kept the reference victim " << *expected;
    }
  }

  /// One random operation at `now`.
  void step(SimTime now) {
    const double op = rng_.uniform();
    if (op < 0.45) {
      insert(now);
    } else if (op < 0.65) {
      // A lookup hit touches its voters; now and then the request carries
      // an older `now` than an earlier touch.
      const SimTime at =
          rng_.chance(0.2) ? now - rng_.uniform_int(0, 50 * kMillisecond)
                           : now;
      (void)cache_.lookup({.features = key(), .now = at});
    } else if (op < 0.75) {
      // Batched reads answered now, folded later: their touches land
      // behind newer ones.
      std::vector<float> flat;
      for (int i = 0; i < 4; ++i) {
        const FeatureVec v = key();
        flat.insert(flat.end(), v.begin(), v.end());
      }
      CacheResult results[4];
      cache_.lookup_batch({.features = flat, .count = 4, .now = now},
                          results, scratch_);
    } else if (op < 0.83) {
      cache_.fold_scratch(scratch_);
    } else if (op < 0.90) {
      std::vector<VecId> ids;
      cache_.for_each([&](const CacheEntry& e) { ids.push_back(e.id); });
      if (!ids.empty()) {
        std::sort(ids.begin(), ids.end());
        EXPECT_TRUE(cache_.remove(ids[rng_.uniform_u64(ids.size())]));
      }
    } else if (op < 0.905) {
      cache_.clear();
    } else {
      // A burst of inserts at one instant: equal last-access times.
      for (int i = 0; i < 6; ++i) insert(now);
    }
  }

  std::size_t evictions_checked = 0;
  std::size_t eviction_scores = 0;  ///< score() calls inside evictions

 private:
  ApproxCache& cache_;
  const std::size_t& scored_;
  Rng rng_;
  Confidence confidence_;
  std::vector<FeatureVec> centers_;
  CacheQueryScratch scratch_ = cache_.make_scratch();
};

ApproxCacheConfig small_cache() {
  ApproxCacheConfig cfg;
  cfg.capacity = 24;
  cfg.index = IndexKind::kExact;
  cfg.hknn.k = 3;
  cfg.hknn.max_distance = 0.5f;
  return cfg;
}

class EvictionDifferential : public ::testing::TestWithParam<Schedule> {};

TEST_P(EvictionDifferential, VictimMatchesFullScan) {
  const Schedule& s = GetParam();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::size_t scored = 0;
    ApproxCache cache{kDim, small_cache(),
                      std::make_unique<CountingPolicy>(s.policy(), scored)};
    Driver driver{cache, scored, seed * 7919 + s.name.size(), s.confidence};
    Rng clock{seed};
    SimTime now = 0;
    for (int i = 0; i < 3000; ++i) {
      // Mostly small steps, sometimes none, sometimes a long idle gap
      // (long enough for any decay to underflow).
      const double r = clock.uniform();
      if (r < 0.15) {
        // same instant
      } else if (r < 0.98) {
        now += clock.uniform_int(1, s.max_step);
      } else {
        now += clock.uniform_int(1, 3600) * kSecond;
      }
      driver.step(now);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(driver.evictions_checked, 500u) << "seed " << seed;
    const double mean = static_cast<double>(driver.eviction_scores) /
                        static_cast<double>(driver.evictions_checked);
    if (s.work == Work::kBand) {
      // The band is the minimum plus its ties; stale entries refresh out
      // of it. A scan of all 24 entries would show as a mean near 24.
      EXPECT_LT(mean, 3.0) << "seed " << seed;
    } else if (s.work == Work::kAll) {
      EXPECT_EQ(driver.eviction_scores,
                driver.evictions_checked * cache.capacity())
          << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EvictionDifferential,
    ::testing::Values(
        Schedule{"lru", &make_lru_policy},
        // LFU ranks are access counts: every untouched entry shares count
        // 0, so its band is all of them and its work goes unchecked.
        Schedule{"lfu", &make_lfu_policy, Confidence::kUnit, Work::kAny},
        Schedule{"utility", &utility_default},
        Schedule{"utility_huge_confidence", &utility_default,
                 Confidence::kHuge},
        Schedule{"utility_nonpositive_confidence",
                 &utility_full_confidence_weight, Confidence::kNonPositive,
                 Work::kAny},
        Schedule{"utility_underflow", &utility_fast_decay, Confidence::kUnit,
                 Work::kAny, kSecond},
        Schedule{"default_rank", &confidence_policy, Confidence::kUnit,
                 Work::kAll}),
    [](const ::testing::TestParamInfo<Schedule>& info) {
      return info.param.name;
    });

TEST(EvictionTies, EqualRanksEvictTheLowerId) {
  for (auto* policy : {&make_lru_policy, &make_lfu_policy,
                       &utility_default}) {
    ApproxCache cache{kDim, small_cache(), policy()};
    Rng rng{5};
    std::vector<VecId> ids;
    for (std::size_t i = 0; i < cache.capacity(); ++i) {
      FeatureVec v(kDim);
      for (float& x : v) x = static_cast<float>(rng.normal());
      ids.push_back(cache.insert(v, 1, 0.5f, /*now=*/100));
    }
    // Every entry identical but its id: each insert evicts the lowest id.
    for (std::size_t i = 0; i < 5; ++i) {
      FeatureVec v(kDim);
      for (float& x : v) x = static_cast<float>(rng.normal());
      (void)cache.insert(v, 1, 0.5f, /*now=*/100);
      EXPECT_EQ(cache.find(ids[i]), nullptr) << cache.eviction().name();
      EXPECT_NE(cache.find(ids[i + 1]), nullptr) << cache.eviction().name();
    }
  }
}

TEST(EvictionTies, LfuBreaksEqualCountsByRecency) {
  // Equal access counts share one rank; the score's recency fraction must
  // still pick the older entry, whatever its id.
  ApproxCache cache{kDim, small_cache(), make_lfu_policy()};
  Rng rng{6};
  std::vector<VecId> ids;
  for (std::size_t i = 0; i < cache.capacity(); ++i) {
    FeatureVec v(kDim);
    for (float& x : v) x = static_cast<float>(rng.normal());
    const SimTime t = static_cast<SimTime>(cache.capacity() - i);
    ids.push_back(cache.insert(v, 1, 0.5f, t));
  }
  FeatureVec v(kDim);
  for (float& x : v) x = static_cast<float>(rng.normal());
  (void)cache.insert(v, 1, 0.5f, 1000);
  EXPECT_EQ(cache.find(ids.back()), nullptr);  // inserted at t = 1
  EXPECT_NE(cache.find(ids.front()), nullptr);
}

TEST(EdgeEvictionDifferential, FeedsAtCapacityMatchFullScan) {
  EdgeParams p;
  p.shards = 2;
  p.capacity = 16;
  p.ttl = 2 * kSecond;
  p.error_budget = 1.0f;  // admit every feed
  p.cache.index = IndexKind::kExact;
  p.cache.hknn.k = 3;
  p.cache.hknn.max_distance = 0.5f;
  EdgeCacheService svc{kDim, p};
  Rng rng{11};
  std::vector<FeatureVec> centers;
  for (std::size_t c = 0; c < 2 * kObjects; ++c) {
    FeatureVec v(kDim);
    for (float& x : v) x = static_cast<float>(rng.normal());
    normalize(v);
    centers.push_back(std::move(v));
  }
  const auto key = [&] {
    FeatureVec v = centers[rng.uniform_u64(centers.size())];
    for (float& x : v) x += static_cast<float>(rng.normal(0.0, 0.02));
    normalize(v);
    return v;
  };
  std::size_t checked = 0;
  SimTime now = 0;
  for (int i = 0; i < 4000; ++i) {
    now += rng.uniform_int(0, 20 * kMillisecond);
    const double op = rng.uniform();
    if (op < 0.5) {
      const FeatureVec v = key();
      ApproxCache& shard = svc.shard(svc.shard_of(v));
      std::optional<VecId> expected;
      if (shard.size() >= shard.capacity()) expected = scan_victim(shard, now);
      ASSERT_TRUE(svc.feed(v, static_cast<Label>(rng.uniform_u64(4)),
                           0.25f * static_cast<float>(1 + rng.uniform_u64(4)),
                           now));
      if (expected.has_value()) {
        ++checked;
        EXPECT_EQ(shard.find(*expected), nullptr) << "feed " << i;
      }
    } else if (op < 0.9) {
      const SimTime at =
          rng.chance(0.2) ? now - rng.uniform_int(0, 100 * kMillisecond) : now;
      (void)svc.query(key(), at);
    } else {
      (void)svc.sweep(now);
    }
  }
  EXPECT_GT(checked, 500u);
  EXPECT_GT(svc.counters().get("swept"), 0u);
}

}  // namespace
}  // namespace apx
