#pragma once
// Eviction policies. The cache evicts the entry with the lowest score when
// full, ties broken by the lower id; policies define the score, so a new
// policy is one function.
//
// Rank contract. score(e, now) depends on the clock, so a full cache
// cannot keep entries ordered by it. rank(e) is a time-independent key
// with the same order: for any two entries and any `now`, a lower rank
// never means a higher score, and a strictly higher rank means a strictly
// higher score up to rounding. A touch at a `now` no earlier than the
// entry's last access must not lower its rank. The cache keeps entries
// ordered by rank lazily and scores only the entries whose rank is within
// a rounding slack of the minimum (ApproxCache::evict_one), so it evicts
// exactly the entry a scan of every score would. The default rank is a
// constant: every entry stays a candidate and every eviction scores them
// all.

#include <memory>
#include <string>

#include "src/cache/entry.hpp"

namespace apx {

/// Scores entries for eviction; the minimum score is evicted first.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  virtual const std::string& name() const noexcept = 0;
  virtual double score(const CacheEntry& entry, SimTime now) const = 0;
  /// Time-independent key ordered as score() is at every `now` (see the
  /// file comment). The default makes every entry a candidate.
  virtual double rank(const CacheEntry& /*entry*/) const { return 0.0; }
};

/// Least-recently-used: score = rank = last access time.
std::unique_ptr<EvictionPolicy> make_lru_policy();

/// Least-frequently-used with LRU tie-break encoded in the fraction bits;
/// rank = access count (the recency fraction is at most 0.5).
std::unique_ptr<EvictionPolicy> make_lfu_policy();

/// Utility-based policy tuned for collaborative caches: frequency per unit
/// age, discounted for entries that travelled more hops (staler provenance)
/// and for low recognition confidence. rank = log2(frequency × provenance ×
/// confidence) + last_access / halflife, so score = 2^(rank − now/halflife).
struct UtilityPolicyParams {
  double hop_discount = 0.8;        ///< multiplied once per hop
  double confidence_weight = 0.5;   ///< 0 = ignore confidence
  double age_halflife_s = 60.0;     ///< seconds for recency decay
};
std::unique_ptr<EvictionPolicy> make_utility_policy(
    const UtilityPolicyParams& params = {});

}  // namespace apx
