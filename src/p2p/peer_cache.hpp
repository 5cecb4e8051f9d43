#pragma once
// Collaborative cache sharing over the broadcast medium — the poster's
// "information from nearby, peer-to-peer devices". One PeerCacheService per
// device wires its ApproxCache to the network:
//
//   * discovery: periodic HELLO beacons maintain a neighbour table;
//   * push: freshly computed local results are gossiped in batched
//     EntryAdvert messages, and a newly discovered peer can be sent the
//     hot set (the most-accessed local entries);
//   * merge: received entries join the local cache with hop count + age
//     provenance, unless a near-duplicate is already cached or the entry
//     travelled too many hops.
//
// Collaboration is push-only: a device never asks its peers about a frame.
// Merged entries answer later frames as ordinary local-cache hits.

#include "src/cache/approx_cache.hpp"
#include "src/net/discovery.hpp"
#include "src/net/medium.hpp"

namespace apx {

/// Protocol parameters.
struct PeerCacheParams {
  DiscoveryParams discovery;
  std::uint8_t max_hops = 2;         ///< drop entries that travelled further
  float dedup_radius = 0.05f;        ///< skip merge when this close to cached
  double merge_confidence_decay = 0.95;  ///< per-hop confidence discount
  bool advert_enabled = true;
  SimDuration advert_interval = 1 * kSecond;
  std::size_t advert_batch_max = 16; ///< newest-first cap per advert
  /// Ship features 8-bit quantized (~3.7x smaller payloads, slight lossy
  /// distortion; see ann/quantize.hpp).
  bool quantize_wire_features = false;
  /// When a peer is first discovered (or re-appears after expiry), push it
  /// the `hotset_push_max` most-accessed local entries so it starts warm —
  /// valuable under range churn. 0 disables.
  std::size_t hotset_push_max = 0;
};

/// P2P collaboration endpoint for one device.
class PeerCacheService {
 public:
  /// Registers a node on `medium` in `cell`; `cache` must outlive this.
  PeerCacheService(EventSimulator& sim, WirelessMedium& medium,
                   ApproxCache& cache, const PeerCacheParams& params,
                   int cell = 0);

  /// Starts beaconing and (if enabled) the advertisement timer. Callable
  /// again after stop() (peer restart): timers re-arm exactly once — stale
  /// scheduled ticks from before the stop are generation-stamped no-ops.
  void start();

  /// Simulates a crash of this endpoint: stops beaconing and adverts, wipes
  /// the neighbour table and ignores incoming traffic until the next
  /// start(). The local cache is NOT touched — the owner decides whether
  /// the crash wiped it.
  void stop();

  bool running() const noexcept { return running_; }

  NodeId id() const noexcept { return self_; }
  DiscoveryService& discovery() noexcept { return discovery_; }
  const PeerCacheParams& params() const noexcept { return params_; }

  /// Counters: "merged", "merge_dup", "merge_hops", "advert_sent",
  /// "advert_entries", "hotset_push", "hotset_entries", "bad_message".
  const Counter& counters() const noexcept { return counters_; }

  /// Registers the "p2p/advert_sent", "p2p/merged" and "p2p/merge_dup"
  /// counters, which the runner later fills from counters(), so every p2p
  /// deployment exports them (as zeros when nothing was sent or merged).
  /// The registry must outlive the service.
  void attach_metrics(MetricsRegistry& metrics);

 private:
  void on_message(const std::vector<std::uint8_t>& payload);
  void push_hotset(NodeId newcomer);
  /// Merges one wire entry into the local cache; returns whether it joined.
  bool merge_entry(const WireEntry& entry);
  void advert_tick(std::uint64_t generation);
  /// Wire form of a cached entry, aged against the current sim time.
  WireEntry to_wire(const CacheEntry& entry) const;

  EventSimulator* sim_;
  WirelessMedium* medium_;
  ApproxCache* cache_;
  PeerCacheParams params_;
  NodeId self_;
  DiscoveryService discovery_;
  SimTime last_advert_scan_ = 0;
  bool running_ = false;
  /// Bumped by every start(); orphans advert ticks scheduled pre-stop().
  std::uint64_t generation_ = 0;
  Counter counters_;
};

}  // namespace apx
