#include "src/cache/approx_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "src/obs/frame_trace.hpp"
#include "src/obs/metrics.hpp"

namespace apx {
namespace {

/// Width of evict_one()'s candidate band, relative to the minimum rank
/// (floored at 1): entries ranked within it of the minimum are scored.
/// The rank and score formulas each round to a few ulps (~1e-15
/// relative), so 2^-32 is far above their error; integer ranks below 2^32
/// (access counts; last-access µs in the first 71 simulated minutes) fall
/// in the band only when equal.
constexpr double kRankSlack = 0x1p-32;

}  // namespace

ApproxCache::ApproxCache(std::size_t dim, const ApproxCacheConfig& config,
                         std::unique_ptr<EvictionPolicy> eviction)
    : dim_(dim),
      config_(config),
      quantized_scan_(config.index == IndexKind::kQalsh
                          ? config.qalsh.quantize.enabled
                          : (config.alsh.lsh.quantize.enabled &&
                             config.index != IndexKind::kExact)),
      eviction_(std::move(eviction)),
      index_(make_index(config.index, dim, config.alsh, config.qalsh)),
      label_of_([this](VecId id) { return entries_.at(id).entry.label; }) {
  if (dim == 0 || config.capacity == 0 || eviction_ == nullptr) {
    throw std::invalid_argument("ApproxCache: bad configuration");
  }
  own_scratch_.index_scratch_ = index_->make_scratch();
}

SimDuration ApproxCache::simulated_latency(
    std::size_t candidates, std::size_t survivors) const noexcept {
  // Fixed overhead + one distance per candidate. The quantized scan pays a
  // quarter of the per-candidate cost (uint8 rows quarter the memory
  // traffic) plus the full cost for each exactly re-ranked survivor.
  if (quantized_scan_) {
    return config_.lookup_base_latency +
           static_cast<SimDuration>(candidates) *
               config_.per_candidate_latency / 4 +
           static_cast<SimDuration>(survivors) *
               config_.per_candidate_latency;
  }
  return config_.lookup_base_latency +
         static_cast<SimDuration>(candidates) *
             config_.per_candidate_latency;
}

HknnParams ApproxCache::effective_params(
    float threshold_scale, std::size_t k_override) const noexcept {
  HknnParams params = config_.hknn;
  params.max_distance *= threshold_scale;
  if (k_override != 0) params.k = k_override;
  return params;
}

void ApproxCache::answer(const CacheQuery& q, std::span<CacheResult> results,
                         CacheQueryScratch& scratch) const {
  if (q.features.size() != q.count * dim_ || results.size() < q.count) {
    throw std::invalid_argument("ApproxCache: bad query sizes");
  }
  const std::size_t k = q.k_override != 0 ? q.k_override : config_.hknn.k;
  const HknnParams params =
      effective_params(q.threshold_scale, q.k_override);

  if (scratch.results_.size() < q.count) scratch.results_.resize(q.count);
  if (scratch.stats_.size() < q.count) scratch.stats_.resize(q.count);
  index_->query_batch_into(q.features, q.count, k, scratch.index_scratch_.get(),
                           {scratch.results_.data(), q.count},
                           scratch.stats_.data());

  for (std::size_t b = 0; b < q.count; ++b) {
    const std::vector<Neighbor>& neighbors = scratch.results_[b];
    const QueryStats& st = scratch.stats_[b];
    CacheResult r;
    r.candidates = st.candidates;
    r.latency = simulated_latency(st.candidates, st.rerank_survivors);
    r.vote = hknn_vote(neighbors, label_of_, params);
    if (q.trace != nullptr && q.count == 1) {
      q.trace->annotate_lookup(static_cast<std::uint32_t>(st.candidates),
                               st.nearest);
      if (quantized_scan_) {
        q.trace->annotate_rerank(
            static_cast<std::uint32_t>(st.rerank_survivors));
      }
      if (st.rounds > 0) {
        q.trace->annotate_rounds(static_cast<std::uint32_t>(st.rounds));
      }
    }
    ++scratch.lookups_;
    if (r.vote.has_value()) {
      ++scratch.hits_;
      // Defer voter touches to the apply step (bounded buffer: overflow is
      // dropped — recency is an eviction heuristic, not correctness).
      std::size_t touched = 0;
      for (const Neighbor& n : neighbors) {
        if (touched >= r.vote->voters) break;
        if (scratch.touches_.size() < CacheQueryScratch::kMaxTouches) {
          scratch.touches_.push_back({n.id, q.now});
        }
        ++touched;
      }
    } else {
      ++scratch.misses_;
    }
    if (scratch.samples_.size() < CacheQueryScratch::kMaxSamples) {
      scratch.samples_.push_back(st);
    }
    results[b] = std::move(r);
  }
}

void ApproxCache::apply(CacheQueryScratch& scratch, bool cache_effects) {
  if (cache_effects) {
    for (const CacheQueryScratch::Touch& t : scratch.touches_) {
      auto it = entries_.find(t.id);
      if (it != entries_.end()) {
        CacheEntry& entry = it->second.entry;
        const bool back_in_time = t.now < entry.last_access;
        entry.last_access = t.now;
        ++entry.access_count;
        // A touch only raises a rank, so the stored one stays a lower
        // bound — unless a fold lands an older `now` and moves the access
        // back in time. Re-key that entry at once if its rank fell below
        // the stored one (for utility the extra access usually outweighs
        // the earlier time).
        if (back_in_time) {
          const double rank = rank_of(entry);
          if (rank < it->second.rank) rekey(t.id, it->second, rank);
        }
      }
    }
    if (scratch.hits_ > 0) counters_.inc("hit", scratch.hits_);
    if (scratch.misses_ > 0) counters_.inc("miss", scratch.misses_);
    if (metrics_ != nullptr) {
      for (const QueryStats& st : scratch.samples_) {
        metrics_->record(lookup_us_hist_,
                         static_cast<double>(simulated_latency(
                             st.candidates, st.rerank_survivors)));
        if (st.nearest >= 0.0f) {
          metrics_->record(nearest_distance_hist_,
                           static_cast<double>(st.nearest));
        }
      }
    }
  }
  index_->observe_query_feedback(scratch.samples_, scratch.lookups_);
  scratch.touches_.clear();
  scratch.samples_.clear();
  scratch.lookups_ = 0;
  scratch.hits_ = 0;
  scratch.misses_ = 0;
}

CacheResult ApproxCache::lookup(const CacheQuery& q) {
  if (q.count != 1) {
    throw std::invalid_argument(
        "ApproxCache::lookup: single-frame path (use lookup_batch)");
  }
  std::unique_lock lock(mu_);
  CacheResult result;
  answer(q, {&result, 1}, own_scratch_);
  apply(own_scratch_, /*cache_effects=*/true);
  return result;
}

void ApproxCache::lookup_batch(const CacheQuery& q,
                               std::span<CacheResult> results,
                               CacheQueryScratch& scratch) const {
  std::shared_lock lock(mu_);
  answer(q, results, scratch);
}

CacheQueryScratch ApproxCache::make_scratch() const {
  CacheQueryScratch scratch;
  std::shared_lock lock(mu_);
  scratch.index_scratch_ = index_->make_scratch();
  return scratch;
}

void ApproxCache::fold_scratch(CacheQueryScratch& scratch) {
  std::unique_lock lock(mu_);
  apply(scratch, /*cache_effects=*/true);
}

bool ApproxCache::try_fold_scratch(CacheQueryScratch& scratch) {
  std::unique_lock lock(mu_, std::defer_lock);
  if (scratch.lookups_ >= CacheQueryScratch::kFoldWaitAt) {
    lock.lock();
  } else if (!lock.try_lock()) {
    return false;
  }
  apply(scratch, /*cache_effects=*/true);
  return true;
}

VecId ApproxCache::insert(FeatureVec feature, Label label, float confidence,
                          SimTime now, EntryOrigin origin,
                          std::uint8_t hop_count,
                          std::uint32_t source_device) {
  assert(feature.size() == dim_);
  std::unique_lock lock(mu_);
  while (entries_.size() >= config_.capacity) {
    evict_one(now);
  }
  const VecId id = next_id_++;
  CacheEntry entry;
  entry.id = id;
  entry.feature = std::move(feature);
  entry.label = label;
  entry.confidence = confidence;
  entry.insert_time = now;
  entry.last_access = now;
  entry.origin = origin;
  entry.hop_count = hop_count;
  entry.source_device = source_device;
  index_->insert(id, entry.feature);
  const double rank = rank_of(entry);
  by_rank_.emplace(rank, id);
  entries_.emplace(id, Resident{std::move(entry), rank});
  counters_.inc("insert");
  update_memory_gauges();
  return id;
}

bool ApproxCache::remove(VecId id) {
  std::unique_lock lock(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  index_->remove(id);
  by_rank_.erase({it->second.rank, id});
  entries_.erase(it);
  update_memory_gauges();
  return true;
}

void ApproxCache::clear() {
  std::unique_lock lock(mu_);
  for (const auto& [id, _] : entries_) index_->remove(id);
  entries_.clear();
  by_rank_.clear();
  counters_.inc("clear");
  update_memory_gauges();
}

const CacheEntry* ApproxCache::find(VecId id) const {
  std::shared_lock lock(mu_);
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second.entry;
}

std::optional<float> ApproxCache::nearest_distance(
    std::span<const float> q) {
  std::unique_lock lock(mu_);
  CacheResult result;
  answer({.features = q, .k_override = 1}, {&result, 1}, own_scratch_);
  apply(own_scratch_, /*cache_effects=*/false);
  const float nearest = own_scratch_.stats_.front().nearest;
  if (nearest < 0.0f) return std::nullopt;
  return nearest;
}

std::optional<HknnVote> ApproxCache::peek_vote(const CacheQuery& q) {
  if (q.count != 1) {
    throw std::invalid_argument(
        "ApproxCache::peek_vote: single-frame path");
  }
  std::unique_lock lock(mu_);
  CacheResult result;
  answer({.features = q.features,
          .threshold_scale = q.threshold_scale,
          .k_override = q.k_override},
         {&result, 1}, own_scratch_);
  apply(own_scratch_, /*cache_effects=*/false);
  return result.vote;
}

void ApproxCache::for_each(
    const std::function<void(const CacheEntry&)>& fn) const {
  std::shared_lock lock(mu_);
  for (const auto& [_, resident] : entries_) fn(resident.entry);
}

std::vector<CacheEntry> ApproxCache::entries_since(SimTime since) const {
  std::shared_lock lock(mu_);
  std::vector<CacheEntry> out;
  for (const auto& [_, resident] : entries_) {
    if (resident.entry.insert_time >= since) out.push_back(resident.entry);
  }
  std::sort(out.begin(), out.end(),
            [](const CacheEntry& a, const CacheEntry& b) {
              return a.insert_time < b.insert_time ||
                     (a.insert_time == b.insert_time && a.id < b.id);
            });
  return out;
}

std::size_t ApproxCache::size() const {
  std::shared_lock lock(mu_);
  return entries_.size();
}

void ApproxCache::attach_metrics(MetricsRegistry& metrics) {
  std::unique_lock lock(mu_);
  metrics_ = &metrics;
  lookup_us_hist_ = metrics.histogram("cache/lookup_us", latency_us_bounds());
  nearest_distance_hist_ =
      metrics.histogram("cache/nearest_distance", distance_bounds());
  // Pre-register the counters the runner later copies from the legacy
  // Counter map, so exports carry them (as zeros) even in empty runs and
  // the JSON schema stays stable.
  metrics.counter("cache/hit");
  metrics.counter("cache/miss");
  metrics.counter("cache/insert");
  metrics.counter("cache/evict");
  if (quantized_scan_) {
    // Pre-register the feature-memory gauges so the "quantized" schema
    // subsystem exports whole (all-or-nothing) even before any insert.
    metrics.counter("cache/bytes_float");
    metrics.counter("cache/bytes_codes");
  }
  index_->attach_metrics(metrics);
}

void ApproxCache::update_memory_gauges() {
  if (!quantized_scan_) return;
  // Per entry: dim float32s in the float arena vs dim uint8 codes plus
  // three float32 ADC terms (offset, scale, |recon|^2) in the sidecar.
  const std::uint64_t n = entries_.size();
  counters_.set("bytes_float", n * dim_ * sizeof(float));
  counters_.set("bytes_codes", n * (dim_ + 3 * sizeof(float)));
}

double ApproxCache::rank_of(const CacheEntry& entry) const {
  const double rank = eviction_->rank(entry);
  return std::isnan(rank) ? -std::numeric_limits<double>::infinity() : rank;
}

void ApproxCache::rekey(VecId id, Resident& resident, double rank) {
  auto node = by_rank_.extract({resident.rank, id});
  node.value().first = rank;
  by_rank_.insert(std::move(node));
  resident.rank = rank;
}

VecId ApproxCache::evict_one(SimTime now) {
  assert(!entries_.empty());
  // Refresh the minimum until it is current. Stored ranks are lower
  // bounds, so then no entry ranks below `floor`.
  double floor = 0.0;
  for (;;) {
    const auto [stored, id] = *by_rank_.begin();
    Resident& top = entries_.find(id)->second;
    floor = rank_of(top.entry);
    if (floor == stored) break;
    rekey(id, top, floor);
  }
  VecId victim = 0;
  double worst = std::numeric_limits<double>::max();
  const auto consider = [&](VecId id, const CacheEntry& entry) {
    const double s = eviction_->score(entry, now);
    if (s < worst || (s == worst && id < victim)) {
      worst = s;
      victim = id;
    }
  };
  // Score the band: every entry whose stored rank is within the slack of
  // the minimum, refreshing stale ones. An entry ranked above the band
  // scores above the band's minimum at any `now`.
  std::size_t scored = 0;
  if (std::isfinite(floor)) {
    const double limit = floor + kRankSlack * std::max(1.0, std::abs(floor));
    band_.clear();
    for (auto it = by_rank_.begin();
         it != by_rank_.end() && it->first <= limit; ++it) {
      band_.push_back(it->second);
    }
    for (const VecId id : band_) {
      Resident& resident = entries_.find(id)->second;
      const double rank = rank_of(resident.entry);
      if (rank != resident.rank) {
        rekey(id, resident, rank);
        if (rank > limit) continue;
      }
      consider(id, resident.entry);
      ++scored;
    }
  }
  // Ranks order scores only while scores are positive normals: a zero or
  // negative weight, or a decay that underflowed, breaks the link (and a
  // non-finite minimum rank forms no band). Score every entry then.
  const bool band_decides =
      victim != 0 && worst > 0.0 && std::isnormal(worst);
  if (scored < entries_.size() && !band_decides) {
    victim = 0;
    worst = std::numeric_limits<double>::max();
    for (const auto& [id, resident] : entries_) consider(id, resident.entry);
  }
  index_->remove(victim);
  if (const auto it = entries_.find(victim); it != entries_.end()) {
    by_rank_.erase({it->second.rank, victim});
    entries_.erase(it);
  }
  counters_.inc("evict");
  return victim;
}

}  // namespace apx
