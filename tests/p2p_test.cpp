// Unit + integration tests for the collaborative cache-sharing protocol.
// Discovery beacons reschedule themselves forever, so tests advance the
// clock with run_until rather than draining the queue with run_all.

#include <gtest/gtest.h>

#include <cmath>

#include "src/p2p/peer_cache.hpp"

namespace apx {
namespace {

constexpr std::size_t kDim = 8;

FeatureVec unit_at(float angle) {
  FeatureVec v(kDim, 0.0f);
  v[0] = std::cos(angle);
  v[1] = std::sin(angle);
  return v;
}

ApproxCacheConfig cache_config() {
  ApproxCacheConfig cfg;
  cfg.capacity = 64;
  cfg.index = IndexKind::kExact;
  cfg.hknn.max_distance = 0.3f;
  return cfg;
}

MediumParams lossless() {
  MediumParams p;
  p.loss_prob = 0.0;
  p.jitter = 0;
  return p;
}

/// Two-or-more co-located peers with their caches, over a lossless medium.
struct Cluster {
  EventSimulator sim;
  WirelessMedium medium;
  std::vector<std::unique_ptr<ApproxCache>> caches;
  std::vector<std::unique_ptr<PeerCacheService>> peers;

  explicit Cluster(int n, PeerCacheParams params = {},
                   MediumParams medium_params = lossless())
      : medium(sim, medium_params, 77) {
    for (int i = 0; i < n; ++i) {
      caches.push_back(std::make_unique<ApproxCache>(kDim, cache_config(),
                                                     make_lru_policy()));
      peers.push_back(std::make_unique<PeerCacheService>(
          sim, medium, *caches.back(), params, /*cell=*/0));
    }
    for (auto& p : peers) p->start();
    // Let a beacon round complete so neighbour tables are warm.
    sim.run_until(sim.now() + 100 * kMillisecond);
  }
};

TEST(PeerCache, IdsAreDistinct) {
  Cluster c{3};
  EXPECT_NE(c.peers[0]->id(), c.peers[1]->id());
  EXPECT_NE(c.peers[1]->id(), c.peers[2]->id());
}

TEST(PeerCache, DiscoveryFindsAllPeers) {
  Cluster c{4};
  for (const auto& p : c.peers) {
    EXPECT_EQ(p->discovery().neighbor_count(), 3u);
  }
}

TEST(PeerCache, AdvertPropagatesFreshEntries) {
  PeerCacheParams params;
  params.advert_interval = 200 * kMillisecond;
  Cluster c{3, params};
  c.caches[0]->insert(unit_at(0.5f), 7, 0.9f, c.sim.now());
  c.sim.run_until(c.sim.now() + kSecond);
  // Both other peers hold the advertised entry now.
  EXPECT_GE(c.caches[1]->size(), 1u);
  EXPECT_GE(c.caches[2]->size(), 1u);
  EXPECT_GE(c.peers[0]->counters().get("advert_sent"), 1u);
}

TEST(PeerCache, MergedEntriesCarryProvenance) {
  PeerCacheParams params;
  params.advert_interval = 100 * kMillisecond;
  Cluster c{2, params};
  c.caches[0]->insert(unit_at(0.5f), 7, 1.0f, c.sim.now());
  c.sim.run_until(c.sim.now() + kSecond);
  ASSERT_EQ(c.caches[1]->size(), 1u);
  c.caches[1]->for_each([&](const CacheEntry& entry) {
    EXPECT_EQ(entry.origin, EntryOrigin::kPeer);
    EXPECT_EQ(entry.hop_count, 1);
    EXPECT_LT(entry.confidence, 1.0f);  // per-hop decay applied
  });
}

TEST(PeerCache, DedupRadiusPreventsDuplicateMerge) {
  PeerCacheParams params;
  params.advert_enabled = false;
  params.dedup_radius = 0.05f;
  Cluster c{2, params};
  // The receiver already caches (almost) the advertised feature.
  c.caches[0]->insert(unit_at(0.0f), 42, 0.9f, c.sim.now());
  EntryAdvertMsg msg;
  msg.sender = c.peers[1]->id();
  WireEntry e;
  e.feature = unit_at(0.001f);
  e.label = 42;
  e.confidence = 0.9f;
  msg.entries.push_back(e);
  c.medium.unicast(c.peers[1]->id(), c.peers[0]->id(), encode(msg));
  c.sim.run_until(c.sim.now() + kSecond);
  EXPECT_EQ(c.caches[0]->size(), 1u);
  EXPECT_EQ(c.peers[0]->counters().get("merge_dup"), 1u);
}

TEST(PeerCache, HopLimitStopsPropagation) {
  PeerCacheParams params;
  params.advert_enabled = false;
  params.max_hops = 1;
  Cluster c{2, params};
  // An advertised entry that already travelled max_hops is not merged.
  EntryAdvertMsg msg;
  msg.sender = c.peers[1]->id();
  WireEntry e;
  e.feature = unit_at(0.0f);
  e.label = 42;
  e.confidence = 0.9f;
  e.hop_count = 1;
  e.source_device = 9;
  msg.entries.push_back(e);
  c.medium.unicast(c.peers[1]->id(), c.peers[0]->id(), encode(msg));
  c.sim.run_until(c.sim.now() + kSecond);
  EXPECT_EQ(c.caches[0]->size(), 0u);
  EXPECT_EQ(c.peers[0]->counters().get("merge_hops"), 1u);
}

TEST(PeerCache, MalformedMessageCounted) {
  Cluster c{2};
  // Byte 2 is an unassigned message type (the retired lookup request).
  c.medium.unicast(c.peers[1]->id(), c.peers[0]->id(), {2, 0xFF});
  c.sim.run_until(c.sim.now() + kSecond);
  EXPECT_GE(c.peers[0]->counters().get("bad_message"), 1u);
}

TEST(PeerCache, WrongDimensionEntryRejected) {
  PeerCacheParams params;
  params.advert_enabled = false;
  Cluster c{2, params};
  // Craft an advert with a wrong-dimension feature.
  EntryAdvertMsg msg;
  msg.sender = c.peers[1]->id();
  WireEntry e;
  e.feature = FeatureVec(3, 0.5f);  // dim mismatch (cache dim is 8)
  e.label = 5;
  msg.entries.push_back(e);
  c.medium.unicast(c.peers[1]->id(), c.peers[0]->id(), encode(msg));
  c.sim.run_until(c.sim.now() + kSecond);
  EXPECT_EQ(c.caches[0]->size(), 0u);
  EXPECT_GE(c.peers[0]->counters().get("bad_message"), 1u);
}

}  // namespace
}  // namespace apx
