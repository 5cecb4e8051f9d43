#pragma once
// The approximate in-memory cache — the data structure at the centre of the
// poster. Keys are feature vectors; a lookup is an approximate-nearest-
// neighbour query followed by a homogenized-kNN vote, so "equal enough"
// inputs reuse previous recognition results.
//
// One query path (DESIGN.md §9). Every read — lookup(), peek_vote(),
// nearest_distance(), lookup_batch() — runs the same answer step: one
// NnIndex::query_batch_into over a CacheQueryScratch, an H-kNN vote per
// frame, and every side effect (voter touches, hit/miss tallies, the
// index's per-query reports) deferred into that scratch. One apply step
// then lands them: entry touches, counters, the "cache/*" histograms, and
// the index feedback (its "ann/*" instruments and width/radius
// controller). The single-frame calls answer and apply back to back on a
// cache-owned scratch; the batched path answers now and applies at
// fold_scratch() time.
//
// Thread-safety contract. One instance may be shared by many threads; a
// reader-writer lock splits the surface in two:
//
//  shared path — concurrent with each other; all per-call mutable state
//  lives in a caller-owned CacheQueryScratch (one per thread):
//    lookup_batch()           the serving-scale hot path (answer only)
//    find(), for_each(), entries_since(), size(), make_scratch(); reads
//      of config()/dim()/capacity() (immutable after construction)
//
//  exclusive path — internally serialized, safe to call from any thread but
//  one at a time; mutates entries, counters, index arenas or controllers,
//  or the cache-owned scratch:
//    lookup(), peek_vote(), nearest_distance()   (answer + apply)
//    fold_scratch(), try_fold_scratch()          (apply; the latter skips a
//                                                 busy lock, see below)
//    insert(), remove(), clear()
//    attach_metrics()  (call before any concurrent use; the registry itself
//      is not thread-safe, so metrics recording stays on exclusive paths)
//    counters()        (the non-const overload, and any read that races a
//      writer — take an external quiescent point for exact counter reads)
//
// Pointers returned by find() and references observed inside for_each() are
// invalidated by the next exclusive-path mutation; for_each's callback must
// not call exclusive-path methods on the same cache (the lock is not
// recursive).

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ann/factory.hpp"
#include "src/ann/hknn.hpp"
#include "src/ann/index.hpp"
#include "src/cache/entry.hpp"
#include "src/cache/eviction.hpp"
#include "src/util/stats.hpp"

namespace apx {

class FrameTrace;
class MetricsRegistry;

/// Cache configuration.
struct ApproxCacheConfig {
  std::size_t capacity = 512;
  IndexKind index = IndexKind::kAdaptiveLsh;
  AdaptiveLshParams alsh;       ///< used by kLsh (inner) and kAdaptiveLsh
  QalshParams qalsh;            ///< used by kQalsh only
  HknnParams hknn;
  /// Simulated cost model of one lookup on the device: a fixed overhead
  /// plus a per-candidate distance computation cost.
  SimDuration lookup_base_latency = 300;     // 0.3 ms
  SimDuration per_candidate_latency = 2;     // 2 us per distance
};

/// One cache request: the query data plus every per-call knob. Designed for
/// designated initializers at call sites:
///   cache.lookup({.features = key, .now = t, .threshold_scale = s});
/// The batched path packs `count` frames row-major into `features`
/// (count * dim floats) and answers through lookup_batch().
struct CacheQuery {
  /// `count` dim-sized feature vectors, row-major.
  std::span<const float> features;
  /// Frames in this request. lookup()/peek_vote() require 1.
  std::size_t count = 1;
  /// Device time of the request (entry touches, eviction recency).
  SimTime now = 0;
  /// Scales HknnParams::max_distance for this call only — the hook the IMU
  /// motion gate uses (stationary devices accept slightly farther matches,
  /// §5.4).
  float threshold_scale = 1.0f;
  /// When non-zero, overrides HknnParams::k for this call.
  std::size_t k_override = 0;
  /// When set (single-frame requests), the open span of this trace is
  /// annotated with the candidate count and nearest-neighbour distance.
  FrameTrace* trace = nullptr;
};

/// Outcome of one cache lookup.
struct CacheResult {
  std::optional<HknnVote> vote;   ///< accepted result, or abstention
  SimDuration latency = 0;        ///< simulated device time spent
  std::size_t candidates = 0;     ///< vectors whose distance was computed
};

/// Per-thread working set for lookup_batch(): the index scratch, neighbour
/// buffers, and the side effects a read-only lookup must defer — entry
/// touches, hit/miss tallies, and each query's QueryStats report. Obtain one
/// per querying thread from ApproxCache::make_scratch(); hand it back
/// periodically via ApproxCache::fold_scratch() (or try_fold_scratch(),
/// which skips a busy write lock) so eviction recency,
/// counters, the "cache/*" and "ann/*" instruments, and index adaptation
/// catch up with the read traffic. Buffers grow to their high-water mark
/// and are reused, so steady-state batched lookups perform zero heap
/// allocations. The deferred buffers are bounded: between folds, touches
/// past kMaxTouches and per-query reports past kMaxSamples are dropped.
/// Hit/miss tallies and the query count stay exact; the dropped reports
/// only thin the per-query histograms ("cache/lookup_us",
/// "cache/nearest_distance", "ann/candidates", ...) and the controller's
/// d_k samples — observability and heuristics, not correctness.
class CacheQueryScratch {
 public:
  /// Deferred voter touches kept between folds.
  static constexpr std::size_t kMaxTouches = 4096;
  /// Deferred per-query reports kept between folds.
  static constexpr std::size_t kMaxSamples = 1024;
  /// Pending lookups at which ApproxCache::try_fold_scratch() stops
  /// skipping a busy write lock and waits for it. Far below kMaxSamples,
  /// and below kMaxTouches / k for any k up to 64, so a scratch folded that
  /// way never drops an effect.
  static constexpr std::size_t kFoldWaitAt = 64;

  CacheQueryScratch() = default;

  /// Batched lookups answered since the last fold.
  std::uint64_t pending_lookups() const noexcept { return lookups_; }
  /// Accepted votes since the last fold.
  std::uint64_t pending_hits() const noexcept { return hits_; }

 private:
  friend class ApproxCache;

  struct Touch {
    VecId id = 0;
    SimTime now = 0;
  };

  std::unique_ptr<IndexScratch> index_scratch_;
  std::vector<std::vector<Neighbor>> results_;  // last batch's neighbours
  std::vector<QueryStats> stats_;               // last batch's reports
  std::vector<Touch> touches_;                  // deferred voter touches
  std::vector<QueryStats> samples_;             // deferred query reports
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Approximate cache mapping feature vectors to recognition labels.
///
/// Shareable across threads — see the query path and thread-safety
/// contract in the file comment. The simulation remains single-threaded
/// per device; its uncontended lock acquisitions cost nanoseconds against
/// sub-millisecond lookups.
class ApproxCache {
 public:
  ApproxCache(std::size_t dim, const ApproxCacheConfig& config,
              std::unique_ptr<EvictionPolicy> eviction);

  /// Looks up the single frame in `q`: a count-1 answer on the cache-owned
  /// scratch, applied at once — voters touched, hit/miss counted, the
  /// "cache/*" histograms recorded, and the index fed its report. Exclusive
  /// path. Steady-state calls perform zero heap allocations. Throws
  /// std::invalid_argument when q.count != 1.
  CacheResult lookup(const CacheQuery& q);

  /// Answers the `q.count` frames packed in `q.features` into
  /// `results[0..count)`, amortizing hashing and candidate scoring across
  /// the batch. This is the *shared* path: any number of threads may call
  /// it concurrently, each with its own `scratch` from make_scratch().
  /// Every side effect — touches, hit/miss tallies, per-query reports for
  /// the histograms and the index controller — is deferred into the
  /// scratch (bounded; see CacheQueryScratch) until the caller folds it
  /// back with fold_scratch(), which then lands exactly what lookup() of
  /// the same frames would have. q.trace is honoured for single-frame
  /// batches (the trace object is caller-owned state).
  void lookup_batch(const CacheQuery& q, std::span<CacheResult> results,
                    CacheQueryScratch& scratch) const;

  /// Creates a per-thread scratch for lookup_batch(). The scratch must not
  /// outlive the cache.
  CacheQueryScratch make_scratch() const;

  /// Applies a scratch's deferred side effects under the write lock: entry
  /// touches (eviction recency), hit/miss counters, the "cache/lookup_us"
  /// and "cache/nearest_distance" samples, and the index feedback (its
  /// "ann/*" instruments and controller, which may rebuild A-LSH tables).
  /// Clears the scratch's pending state; the scratch remains usable.
  void fold_scratch(CacheQueryScratch& scratch);

  /// The non-blocking fold: applies `scratch` as fold_scratch() does if the
  /// write lock can be taken at once, and otherwise leaves it pending and
  /// returns false — so concurrent readers are not queued behind a writer
  /// per lookup. Once the scratch holds CacheQueryScratch::kFoldWaitAt
  /// pending lookups it waits for the lock instead, which bounds the
  /// deferred state and keeps every effect. try_lock may fail spuriously:
  /// a caller that must see its effects landed (say, the only reader in
  /// flight) has to follow a false return with fold_scratch().
  bool try_fold_scratch(CacheQueryScratch& scratch);

  /// Inserts a new entry, evicting first when full. Returns the new id.
  VecId insert(FeatureVec feature, Label label, float confidence, SimTime now,
               EntryOrigin origin = EntryOrigin::kLocal,
               std::uint8_t hop_count = 0, std::uint32_t source_device = 0);

  /// Removes an entry; returns whether it existed.
  bool remove(VecId id);

  /// Removes every entry (simulated process crash / app data wipe). Ids are
  /// not reused: the id counter keeps running, so snapshots and provenance
  /// from before the wipe can never alias fresh entries.
  void clear();

  /// Entry access (nullptr when absent). Pointer invalidated by the next
  /// exclusive-path mutation.
  const CacheEntry* find(VecId id) const;

  /// Distance from `q` to its nearest cached neighbour via the index
  /// (nullopt when none is found) — the P2P merge dedupe and the edge
  /// admission check. A count-1 answer with k = 1, then only the index
  /// feedback is applied; see peek_vote() for what that feeds and why.
  std::optional<float> nearest_distance(std::span<const float> q);

  /// Hypothetical vote: "would the cache have answered, and what?" — asked
  /// by the adaptive threshold controller on frames the DNN ran anyway and
  /// by the edge admission check. Only q.features (single frame),
  /// q.threshold_scale and q.k_override participate. A count-1 answer, then
  /// only the index feedback is applied: no entry touches, no hit/miss
  /// counters, no "cache/*" histograms. The feedback does record the
  /// index's "ann/*" instruments and feeds its controller (A-LSH width,
  /// QALSH start radius), so these probes steer the index like lookups do.
  /// That looks like a contract bug but carries load: on the edge-region
  /// benchmark (seed 1, 20 s), stopping the feed from both calls worsened
  /// simulated mean latency 20% and p99 24%, and stopping it from
  /// peek_vote alone cut the served-ok ratio from 0.99996 to 0.99771.
  /// Exclusive path.
  std::optional<HknnVote> peek_vote(const CacheQuery& q);

  /// Calls `fn` for every entry (unspecified order). `fn` must not call
  /// exclusive-path methods on this cache (non-recursive lock).
  void for_each(const std::function<void(const CacheEntry&)>& fn) const;

  /// Entries inserted at or after `since`, newest last — the P2P
  /// advertisement source. Returns copies: callers iterate this while
  /// inserting into (possibly the same) cache, which rehashes `entries_`
  /// and would invalidate any pointer/reference into it.
  std::vector<CacheEntry> entries_since(SimTime since) const;

  /// Registers this cache's instruments ("cache/lookup_us",
  /// "cache/nearest_distance", hit/miss/insert/evict counters) and the
  /// backing index's, on `metrics`. The registry must outlive the cache.
  /// Call before any concurrent use.
  void attach_metrics(MetricsRegistry& metrics);

  std::size_t size() const;
  std::size_t capacity() const noexcept { return config_.capacity; }
  std::size_t dim() const noexcept { return dim_; }
  const ApproxCacheConfig& config() const noexcept { return config_; }
  const EvictionPolicy& eviction() const noexcept { return *eviction_; }

  /// The backing ANN index (read-only; for tests and diagnostics).
  const NnIndex& index() const noexcept { return *index_; }

  /// Whether the backing index scans candidates on SQ8 codes.
  bool quantized_scan() const noexcept { return quantized_scan_; }

  /// Lifetime counters: "hit", "miss", "insert", "evict", "merge_dup",
  /// plus the "bytes_float"/"bytes_codes" feature-memory gauges when the
  /// quantized scan is active. Batched-path hits/misses land here at
  /// fold_scratch() time. Reading while writers or folds run elsewhere is
  /// racy; take a quiescent point for exact values.
  const Counter& counters() const noexcept { return counters_; }
  Counter& counters() noexcept { return counters_; }

 private:
  /// A resident entry beside its stored eviction rank: a lower bound on
  /// EvictionPolicy::rank(entry), the key it sits under in `by_rank_`.
  struct Resident {
    CacheEntry entry;
    double rank = 0.0;
  };

  /// Removes the entry the policy scores lowest at `now` (ties: lower id),
  /// the same victim a scan of every score picks, scoring only the entries
  /// whose rank is within a rounding slack of the current minimum.
  VecId evict_one(SimTime now);
  /// The policy's rank of `entry`, with NaN mapped to -inf so the order
  /// stays strict-weak (such an entry forces a full scoring scan).
  double rank_of(const CacheEntry& entry) const;
  /// Moves `id` from its stored rank to `rank` in `by_rank_` (no
  /// allocation: the set node is reused).
  void rekey(VecId id, Resident& resident, double rank);
  /// Refreshes the "bytes_float"/"bytes_codes" gauges (quantized scan only).
  void update_memory_gauges();
  /// Simulated device cost of a lookup that computed `candidates` distances
  /// (quantized scan: on codes, plus `survivors` exact re-ranks).
  SimDuration simulated_latency(std::size_t candidates,
                                std::size_t survivors) const noexcept;
  /// Shared vote logic: H-kNN params for this request.
  HknnParams effective_params(float threshold_scale,
                              std::size_t k_override) const noexcept;
  /// The one answer routine: queries the index for q's frames, votes, and
  /// defers every side effect into `scratch`. Caller holds mu_ (shared or
  /// exclusive). Throws std::invalid_argument on mismatched sizes.
  void answer(const CacheQuery& q, std::span<CacheResult> results,
              CacheQueryScratch& scratch) const;
  /// The one apply routine: lands `scratch`'s deferred effects and clears
  /// them. With `cache_effects` false only the index feedback is applied
  /// (peek_vote/nearest_distance). Caller holds mu_ exclusively.
  void apply(CacheQueryScratch& scratch, bool cache_effects);

  std::size_t dim_;
  ApproxCacheConfig config_;
  bool quantized_scan_ = false;
  std::unique_ptr<EvictionPolicy> eviction_;
  std::unique_ptr<NnIndex> index_;
  std::unordered_map<VecId, Resident> entries_;
  /// Every resident (stored rank, id), ascending. Stored ranks lag the
  /// true ones: a touch only raises a rank, so touches do not re-key, and
  /// evict_one() refreshes what it reads.
  std::set<std::pair<double, VecId>> by_rank_;
  /// evict_one()'s candidate ids (guarded by mu_; reused between calls).
  std::vector<VecId> band_;
  VecId next_id_ = 1;
  Counter counters_;
  /// Constructed once (single this-pointer capture fits std::function's
  /// small-buffer storage) so votes never rebuild a closure per lookup.
  std::function<Label(VecId)> label_of_;
  /// The single-frame exclusive calls' scratch (guarded by mu_).
  CacheQueryScratch own_scratch_;
  MetricsRegistry* metrics_ = nullptr;
  std::uint32_t lookup_us_hist_ = 0;
  std::uint32_t nearest_distance_hist_ = 0;
  /// Reader-writer split: shared for lookup_batch/find/for_each/
  /// entries_since/size, exclusive for everything that mutates (see file
  /// comment). mutable so const read methods can lock.
  mutable std::shared_mutex mu_;
};

}  // namespace apx
