#include "src/p2p/peer_cache.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.hpp"

namespace apx {

PeerCacheService::PeerCacheService(EventSimulator& sim, WirelessMedium& medium,
                                   ApproxCache& cache,
                                   const PeerCacheParams& params, int cell)
    : sim_(&sim),
      medium_(&medium),
      cache_(&cache),
      params_(params),
      self_(medium.add_node(
          [this](NodeId, const std::vector<std::uint8_t>& payload) {
            on_message(payload);
          },
          cell)),
      discovery_(
          sim, self_, params.discovery,
          [this](std::vector<std::uint8_t> payload) {
            medium_->broadcast(self_, std::move(payload));
          },
          [this] { return static_cast<std::uint32_t>(cache_->size()); }) {}

void PeerCacheService::start() {
  if (running_) return;
  running_ = true;
  ++generation_;
  last_advert_scan_ = sim_->now();
  discovery_.start();
  if (params_.advert_enabled) {
    sim_->schedule_after(params_.advert_interval,
                         [this, g = generation_] { advert_tick(g); });
  }
}

void PeerCacheService::stop() {
  if (!running_) return;
  running_ = false;
  discovery_.stop();
  discovery_.forget_all();
}

void PeerCacheService::on_message(const std::vector<std::uint8_t>& payload) {
  if (!running_) return;  // a crashed endpoint's radio hears nothing
  try {
    switch (peek_type(payload)) {
      case MsgType::kHello: {
        const HelloMsg hello = decode_hello(payload);
        const bool is_new = discovery_.on_hello(hello);
        if (is_new && params_.hotset_push_max > 0) {
          push_hotset(hello.sender);
        }
        break;
      }
      case MsgType::kEntryAdvert:
        for (const auto& entry : decode_entry_advert(payload).entries) {
          merge_entry(entry);
        }
        break;
      default:
        counters_.inc("bad_message");
        break;
    }
  } catch (const CodecError&) {
    counters_.inc("bad_message");
  }
}

void PeerCacheService::attach_metrics(MetricsRegistry& metrics) {
  metrics.counter("p2p/advert_sent");
  metrics.counter("p2p/merged");
  metrics.counter("p2p/merge_dup");
}

WireEntry PeerCacheService::to_wire(const CacheEntry& entry) const {
  WireEntry wire;
  wire.feature = entry.feature;
  wire.label = entry.label;
  wire.confidence = entry.confidence;
  wire.hop_count = entry.hop_count;
  wire.source_device = entry.source_device;
  wire.age = std::max<SimDuration>(0, sim_->now() - entry.insert_time);
  wire.quantize_on_wire = params_.quantize_wire_features;
  return wire;
}

void PeerCacheService::push_hotset(NodeId newcomer) {
  // The most-accessed local entries are the best predictors of what the
  // newcomer will ask about; ship them proactively so it starts warm.
  std::vector<const CacheEntry*> hot;
  cache_->for_each([&hot](const CacheEntry& entry) {
    if (entry.origin == EntryOrigin::kLocal) hot.push_back(&entry);
  });
  if (hot.empty()) return;
  std::sort(hot.begin(), hot.end(),
            [](const CacheEntry* a, const CacheEntry* b) {
              return a->access_count > b->access_count ||
                     (a->access_count == b->access_count && a->id < b->id);
            });
  if (hot.size() > params_.hotset_push_max) {
    hot.resize(params_.hotset_push_max);
  }
  EntryAdvertMsg msg;
  msg.sender = self_;
  for (const CacheEntry* entry : hot) msg.entries.push_back(to_wire(*entry));
  medium_->unicast(self_, newcomer, encode(msg));
  counters_.inc("hotset_push");
  counters_.inc("hotset_entries", msg.entries.size());
}

bool PeerCacheService::merge_entry(const WireEntry& entry) {
  if (entry.feature.size() != cache_->dim() || entry.label == kNoLabel) {
    counters_.inc("bad_message");
    return false;
  }
  // A corrupted payload can decode "successfully" into garbage floats; a
  // NaN feature would defeat every distance comparison downstream and sit
  // in the cache poisoning votes forever. Reject non-finite values here.
  for (const float x : entry.feature) {
    if (!std::isfinite(x)) {
      counters_.inc("bad_message");
      return false;
    }
  }
  if (!std::isfinite(entry.confidence)) {
    counters_.inc("bad_message");
    return false;
  }
  if (entry.hop_count >= params_.max_hops) {
    counters_.inc("merge_hops");
    return false;
  }
  const auto nearest = cache_->nearest_distance(entry.feature);
  if (nearest.has_value() && *nearest <= params_.dedup_radius) {
    counters_.inc("merge_dup");
    return false;
  }
  const auto hops = static_cast<std::uint8_t>(entry.hop_count + 1);
  const auto confidence = static_cast<float>(
      entry.confidence *
      std::pow(params_.merge_confidence_decay, static_cast<double>(hops)));
  const SimTime insert_time =
      std::max<SimTime>(0, sim_->now() - std::max<SimDuration>(0, entry.age));
  // Insert with provenance; back-date last_access via insert_time so stale
  // remote entries do not outlive fresh local ones under utility eviction.
  cache_->insert(entry.feature, entry.label, confidence, insert_time,
                 EntryOrigin::kPeer, hops, entry.source_device);
  counters_.inc("merged");
  return true;
}

void PeerCacheService::advert_tick(std::uint64_t generation) {
  // Generation stamp: a tick scheduled before stop() must not revive (or
  // duplicate) the chain after a restart re-arms its own tick.
  if (!running_ || generation != generation_) return;
  const SimTime since = last_advert_scan_;
  last_advert_scan_ = sim_->now();
  // Gossip only locally computed results; re-advertising merged entries
  // would amplify traffic quadratically (hop limits bound it regardless).
  std::vector<CacheEntry> fresh;
  for (CacheEntry& entry : cache_->entries_since(since)) {
    if (entry.origin == EntryOrigin::kLocal) {
      fresh.push_back(std::move(entry));
    }
  }
  if (!fresh.empty() && !discovery_.neighbors().empty()) {
    EntryAdvertMsg msg;
    msg.sender = self_;
    const std::size_t start =
        fresh.size() > params_.advert_batch_max
            ? fresh.size() - params_.advert_batch_max
            : 0;
    for (std::size_t i = start; i < fresh.size(); ++i) {
      msg.entries.push_back(to_wire(fresh[i]));
    }
    medium_->broadcast(self_, encode(msg));
    counters_.inc("advert_sent");
    counters_.inc("advert_entries", msg.entries.size());
  }
  sim_->schedule_after(params_.advert_interval,
                       [this, generation] { advert_tick(generation); });
}

}  // namespace apx
