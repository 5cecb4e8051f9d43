// Unit tests for the network substrate: event simulator, wireless medium,
// protocol codecs, and discovery.

#include <gtest/gtest.h>

#include "src/net/discovery.hpp"
#include "src/net/event_sim.hpp"
#include "src/net/medium.hpp"
#include "src/net/messages.hpp"

namespace apx {
namespace {

// ------------------------------------------------------------- EventSim

TEST(EventSim, StartsAtZero) {
  EventSimulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(EventSim, RunsInTimeOrder) {
  EventSimulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(EventSim, EqualTimesRunInScheduleOrder) {
  EventSimulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventSim, ScheduleAfterUsesNow) {
  EventSimulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired_at, 150);
}

TEST(EventSim, PastTimesClampToNow) {
  EventSimulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_at(10, [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventSim, NegativeDelayClampsToZero) {
  EventSimulator sim;
  bool fired = false;
  sim.schedule_after(-100, [&] { fired = true; });
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 0);
}

TEST(EventSim, RunUntilStopsAtBoundary) {
  EventSimulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(EventSim, RunUntilAdvancesIdleClock) {
  EventSimulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(EventSim, EventsCanScheduleEvents) {
  EventSimulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  EXPECT_EQ(sim.run_all(), 10u);
  EXPECT_EQ(sim.now(), 9);
}

TEST(EventSim, RunAllRespectsEventCap) {
  EventSimulator sim;
  std::function<void()> forever = [&] { sim.schedule_after(1, forever); };
  sim.schedule_at(0, forever);
  EXPECT_EQ(sim.run_all(100), 100u);
}

// ------------------------------------------------------------- Medium

struct Inbox {
  std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> messages;
  WirelessMedium::ReceiveFn fn() {
    return [this](NodeId from, const std::vector<std::uint8_t>& payload) {
      messages.emplace_back(from, payload);
    };
  }
};

MediumParams lossless() {
  MediumParams p;
  p.loss_prob = 0.0;
  p.jitter = 0;
  return p;
}

TEST(Medium, BadParamsThrow) {
  EventSimulator sim;
  MediumParams p;
  p.bytes_per_us = 0.0;
  EXPECT_THROW(WirelessMedium(sim, p, 1), std::invalid_argument);
  p = MediumParams{};
  p.loss_prob = 1.5;
  EXPECT_THROW(WirelessMedium(sim, p, 1), std::invalid_argument);
}

TEST(Medium, NullCallbackThrows) {
  EventSimulator sim;
  WirelessMedium medium{sim, lossless(), 1};
  EXPECT_THROW(medium.add_node(nullptr), std::invalid_argument);
}

TEST(Medium, UnicastDeliversWithLatency) {
  EventSimulator sim;
  WirelessMedium medium{sim, lossless(), 1};
  Inbox a, b;
  const NodeId na = medium.add_node(a.fn());
  const NodeId nb = medium.add_node(b.fn());
  medium.unicast(na, nb, {1, 2, 3});
  EXPECT_TRUE(b.messages.empty());  // not yet delivered
  sim.run_all();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].first, na);
  EXPECT_EQ(b.messages[0].second, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_GE(sim.now(), lossless().base_latency);
  EXPECT_TRUE(a.messages.empty());
}

TEST(Medium, BroadcastReachesCellOnly) {
  EventSimulator sim;
  WirelessMedium medium{sim, lossless(), 1};
  Inbox a, b, c;
  const NodeId na = medium.add_node(a.fn(), /*cell=*/0);
  medium.add_node(b.fn(), /*cell=*/0);
  medium.add_node(c.fn(), /*cell=*/1);
  medium.broadcast(na, {9});
  sim.run_all();
  EXPECT_EQ(b.messages.size(), 1u);
  EXPECT_TRUE(c.messages.empty());
  EXPECT_TRUE(a.messages.empty());  // no self-delivery
}

TEST(Medium, UnicastOutOfCellDropped) {
  EventSimulator sim;
  WirelessMedium medium{sim, lossless(), 1};
  Inbox a, b;
  const NodeId na = medium.add_node(a.fn(), 0);
  const NodeId nb = medium.add_node(b.fn(), 1);
  medium.unicast(na, nb, {1});
  sim.run_all();
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(medium.counters().get("dropped_range"), 1u);
}

TEST(Medium, UnicastToUnknownNodeDropped) {
  // A reply addressed to a corrupted sender id names no node: it is out of
  // range of everyone, not a crash.
  EventSimulator sim;
  WirelessMedium medium{sim, lossless(), 1};
  Inbox a, b;
  const NodeId na = medium.add_node(a.fn());
  medium.add_node(b.fn());
  medium.unicast(na, 7, {1});
  medium.unicast(na, 0xFFFFFFFFu, {2});
  sim.run_all();
  EXPECT_TRUE(a.messages.empty());
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(medium.counters().get("tx"), 2u);
  EXPECT_EQ(medium.counters().get("dropped_range"), 2u);
}

TEST(Medium, SetCellMovesNode) {
  EventSimulator sim;
  WirelessMedium medium{sim, lossless(), 1};
  Inbox a, b;
  const NodeId na = medium.add_node(a.fn(), 0);
  const NodeId nb = medium.add_node(b.fn(), 1);
  EXPECT_TRUE(medium.neighbors(na).empty());
  medium.set_cell(nb, 0);
  EXPECT_EQ(medium.cell_of(nb), 0);
  ASSERT_EQ(medium.neighbors(na).size(), 1u);
  EXPECT_EQ(medium.neighbors(na)[0], nb);
}

TEST(Medium, LossDropsApproximatelyAtRate) {
  EventSimulator sim;
  MediumParams p = lossless();
  p.loss_prob = 0.3;
  WirelessMedium medium{sim, p, 7};
  Inbox a, b;
  const NodeId na = medium.add_node(a.fn());
  const NodeId nb = medium.add_node(b.fn());
  const int n = 2000;
  for (int i = 0; i < n; ++i) medium.unicast(na, nb, {1});
  sim.run_all();
  EXPECT_NEAR(static_cast<double>(b.messages.size()) / n, 0.7, 0.05);
  EXPECT_EQ(medium.counters().get("dropped_loss") + b.messages.size(),
            static_cast<std::uint64_t>(n));
}

TEST(Medium, LargerPayloadsTakeLonger) {
  EventSimulator sim;
  WirelessMedium medium{sim, lossless(), 1};
  Inbox a, b;
  const NodeId na = medium.add_node(a.fn());
  const NodeId nb = medium.add_node(b.fn());
  std::vector<SimTime> arrivals;
  medium.unicast(na, nb, std::vector<std::uint8_t>(10));
  sim.run_all();
  const SimTime small_t = sim.now();
  medium.unicast(na, nb, std::vector<std::uint8_t>(100000));
  sim.run_all();
  const SimTime big_t = sim.now() - small_t;
  EXPECT_GT(big_t, small_t);
}

TEST(Medium, EnergyAccountedPerNode) {
  EventSimulator sim;
  WirelessMedium medium{sim, lossless(), 1};
  Inbox a, b;
  const NodeId na = medium.add_node(a.fn());
  const NodeId nb = medium.add_node(b.fn());
  medium.unicast(na, nb, std::vector<std::uint8_t>(1024));
  sim.run_all();
  EXPECT_NEAR(medium.energy_mj(na), lossless().tx_energy_mj_per_kb, 1e-9);
  EXPECT_NEAR(medium.energy_mj(nb), lossless().rx_energy_mj_per_kb, 1e-9);
}

TEST(Medium, CountersTrackBytes) {
  EventSimulator sim;
  WirelessMedium medium{sim, lossless(), 1};
  Inbox a, b;
  const NodeId na = medium.add_node(a.fn());
  medium.add_node(b.fn());
  medium.broadcast(na, std::vector<std::uint8_t>(50));
  sim.run_all();
  EXPECT_EQ(medium.counters().get("tx"), 1u);
  EXPECT_EQ(medium.counters().get("tx_bytes"), 50u);
  EXPECT_EQ(medium.counters().get("rx"), 1u);
}

// ------------------------------------------------------------- Messages

TEST(Messages, HelloRoundTrip) {
  HelloMsg msg;
  msg.sender = 7;
  msg.cache_size = 123;
  const auto decoded = decode_hello(encode(msg));
  EXPECT_EQ(decoded.sender, 7u);
  EXPECT_EQ(decoded.cache_size, 123u);
}

TEST(Messages, AdvertEntryFieldsRoundTrip) {
  EntryAdvertMsg msg;
  msg.sender = 2;
  WireEntry e;
  e.feature = {1.0f, 2.0f};
  e.label = 42;
  e.confidence = 0.75f;
  e.hop_count = 1;
  e.source_device = 9;
  e.age = 1234567;
  msg.entries.push_back(e);
  const auto decoded = decode_entry_advert(encode(msg));
  EXPECT_EQ(decoded.sender, 2u);
  ASSERT_EQ(decoded.entries.size(), 1u);
  EXPECT_EQ(decoded.entries[0].feature, e.feature);
  EXPECT_EQ(decoded.entries[0].label, 42);
  EXPECT_FLOAT_EQ(decoded.entries[0].confidence, 0.75f);
  EXPECT_EQ(decoded.entries[0].hop_count, 1);
  EXPECT_EQ(decoded.entries[0].source_device, 9u);
  EXPECT_EQ(decoded.entries[0].age, 1234567);
}

TEST(Messages, AdvertRoundTripMultipleEntries) {
  EntryAdvertMsg msg;
  msg.sender = 4;
  for (int i = 0; i < 5; ++i) {
    WireEntry e;
    e.feature = FeatureVec(8, static_cast<float>(i));
    e.label = i;
    msg.entries.push_back(e);
  }
  const auto decoded = decode_entry_advert(encode(msg));
  EXPECT_EQ(decoded.sender, 4u);
  ASSERT_EQ(decoded.entries.size(), 5u);
  EXPECT_EQ(decoded.entries[3].label, 3);
}

TEST(Messages, PeekTypeIdentifies) {
  EXPECT_EQ(peek_type(encode(HelloMsg{})), MsgType::kHello);
  EXPECT_EQ(peek_type(encode(EntryAdvertMsg{})), MsgType::kEntryAdvert);
  EXPECT_EQ(peek_type(encode(EdgeLookupRequestMsg{})),
            MsgType::kEdgeLookupRequest);
}

TEST(Messages, PeekEmptyThrows) {
  EXPECT_THROW(peek_type({}), CodecError);
}

TEST(Messages, WrongTypeThrows) {
  EXPECT_THROW(decode_hello(encode(EntryAdvertMsg{})), CodecError);
}

TEST(Messages, TruncatedPayloadThrows) {
  EdgeLookupRequestMsg msg;
  msg.query = {0.5f, -1.0f, 2.0f};
  auto bytes = encode(msg);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_edge_lookup_request(bytes), CodecError);
}

// ------------------------------------------------------------- Discovery

struct DiscoveryHarness {
  EventSimulator sim;
  std::vector<std::vector<std::uint8_t>> sent;
  DiscoveryParams params;
  std::uint32_t cache_size = 5;

  DiscoveryService make(NodeId self = 0) {
    return DiscoveryService{
        sim, self, params,
        [this](std::vector<std::uint8_t> payload) {
          sent.push_back(std::move(payload));
        },
        [this] { return cache_size; }};
  }
};

TEST(Discovery, NullCallbacksThrow) {
  EventSimulator sim;
  EXPECT_THROW(DiscoveryService(sim, 0, DiscoveryParams{}, nullptr,
                                [] { return 0u; }),
               std::invalid_argument);
}

TEST(Discovery, BeaconsPeriodically) {
  DiscoveryHarness h;
  DiscoveryService svc = h.make();
  svc.start();
  h.sim.run_until(h.params.beacon_interval * 3 + 1);
  EXPECT_EQ(h.sent.size(), 4u);  // t=0 plus three intervals
  const HelloMsg hello = decode_hello(h.sent.front());
  EXPECT_EQ(hello.cache_size, 5u);
}

TEST(Discovery, StopEndsBeaconing) {
  DiscoveryHarness h;
  DiscoveryService svc = h.make();
  svc.start();
  h.sim.run_until(1);
  svc.stop();
  h.sim.run_until(10 * kSecond);
  EXPECT_EQ(h.sent.size(), 1u);
}

TEST(Discovery, HelloPopulatesNeighbors) {
  DiscoveryHarness h;
  DiscoveryService svc = h.make(0);
  HelloMsg hello;
  hello.sender = 3;
  hello.cache_size = 77;
  svc.on_hello(hello);
  ASSERT_EQ(svc.neighbors().size(), 1u);
  EXPECT_EQ(svc.neighbors()[0], 3u);
  EXPECT_EQ(svc.peer_cache_size(3), 77u);
}

TEST(Discovery, OwnHelloIgnored) {
  DiscoveryHarness h;
  DiscoveryService svc = h.make(5);
  HelloMsg hello;
  hello.sender = 5;
  svc.on_hello(hello);
  EXPECT_TRUE(svc.neighbors().empty());
}

TEST(Discovery, NeighborsExpire) {
  DiscoveryHarness h;
  DiscoveryService svc = h.make();
  HelloMsg hello;
  hello.sender = 3;
  svc.on_hello(hello);
  h.sim.run_until(h.params.neighbor_expiry + 1);
  EXPECT_TRUE(svc.neighbors().empty());
  EXPECT_EQ(svc.peer_cache_size(3), 0u);
}

TEST(Discovery, FreshHelloRefreshesExpiry) {
  DiscoveryHarness h;
  DiscoveryService svc = h.make();
  HelloMsg hello;
  hello.sender = 3;
  svc.on_hello(hello);
  h.sim.run_until(h.params.neighbor_expiry - 100);
  svc.on_hello(hello);
  h.sim.run_until(h.params.neighbor_expiry + 100);
  EXPECT_EQ(svc.neighbors().size(), 1u);
}

TEST(Discovery, StopThenRestartRunsExactlyOneBeaconChain) {
  // Regression: restarting before the stale scheduled beacon fires used to
  // leave TWO live beacon chains (the stale tick saw running_ == true and
  // rescheduled itself). Generation stamps orphan it instead.
  DiscoveryHarness h;
  DiscoveryService svc = h.make();
  svc.start();                 // beacon at t=0, next queued at t=interval
  h.sim.run_until(1);
  svc.stop();
  svc.start();                 // beacon at t=1, stale tick still queued
  const SimTime horizon = h.params.beacon_interval * 3 + 2;
  h.sim.run_until(horizon);
  // One chain: t=0, t=1, then every interval from t=1. A duplicate chain
  // would roughly double this.
  EXPECT_EQ(h.sent.size(), 5u);
}

TEST(Discovery, RepeatedStopStartCyclesStayIdempotent) {
  DiscoveryHarness h;
  DiscoveryService svc = h.make();
  for (int i = 0; i < 5; ++i) {
    svc.start();
    svc.stop();
  }
  svc.start();
  h.sent.clear();
  const SimTime from = h.sim.now();
  h.sim.run_until(from + h.params.beacon_interval * 4);
  // Exactly one beacon per interval survives all the churn.
  EXPECT_EQ(h.sent.size(), 4u);
}

TEST(Discovery, ForgetAllEmptiesNeighborTable) {
  DiscoveryHarness h;
  DiscoveryService svc = h.make();
  for (const NodeId id : {1u, 2u, 3u}) {
    HelloMsg hello;
    hello.sender = id;
    svc.on_hello(hello);
  }
  ASSERT_EQ(svc.neighbors().size(), 3u);
  svc.forget_all();
  EXPECT_TRUE(svc.neighbors().empty());
  EXPECT_EQ(svc.peer_cache_size(1), 0u);
}

TEST(Discovery, NeighborsSortedById) {
  DiscoveryHarness h;
  DiscoveryService svc = h.make();
  for (const NodeId id : {9u, 2u, 5u}) {
    HelloMsg hello;
    hello.sender = id;
    svc.on_hello(hello);
  }
  EXPECT_EQ(svc.neighbors(), (std::vector<NodeId>{2, 5, 9}));
}

}  // namespace
}  // namespace apx
