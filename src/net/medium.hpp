#pragma once
// Wireless broadcast medium for infrastructure-less device-to-device
// communication — the WiFi-Direct/BLE substitute (DESIGN.md §4). Nodes are
// grouped into proximity cells; nodes in the same cell hear each other.
// Delivery cost = base latency + uniform jitter + serialization time at the
// configured bandwidth, with i.i.d. per-receiver loss. Radio energy is
// accounted per node (tx and rx, proportional to bytes).

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/net/event_sim.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

namespace apx {

class FaultInjector;

/// Network-visible device identifier.
using NodeId = std::uint32_t;

/// Medium cost/reliability envelope. Defaults approximate WiFi-Direct on
/// phones: ~3 ms one-hop latency, ~10 Mbit/s effective, ~1% loss.
struct MediumParams {
  SimDuration base_latency = 3 * kMillisecond;
  SimDuration jitter = 1 * kMillisecond;  ///< uniform in [0, jitter)
  double bytes_per_us = 1.25;             ///< ~10 Mbit/s
  double loss_prob = 0.01;                ///< per receiver per message
  double tx_energy_mj_per_kb = 2.0;
  double rx_energy_mj_per_kb = 1.0;
};

/// Shared broadcast medium with proximity cells.
class WirelessMedium {
 public:
  /// Delivery callback: (sender, payload bytes).
  using ReceiveFn =
      std::function<void(NodeId, const std::vector<std::uint8_t>&)>;

  WirelessMedium(EventSimulator& sim, const MediumParams& params,
                 std::uint64_t seed);

  /// Registers a node in `cell` and returns its id (ids are dense from 0).
  NodeId add_node(ReceiveFn on_receive, int cell = 0);

  /// Moves a node between proximity cells (device walked away / arrived).
  void set_cell(NodeId node, int cell);
  int cell_of(NodeId node) const;

  /// Nodes currently sharing a cell with `node` (excluding itself).
  std::vector<NodeId> neighbors(NodeId node) const;

  /// Sends to one node. Delivery only if the peer is in the same cell at
  /// send time; otherwise the message is silently dropped (out of range).
  /// A `to` that names no node counts as out of range too. `from` must be
  /// a registered node.
  void unicast(NodeId from, NodeId to, std::vector<std::uint8_t> payload);

  /// Sends to every node in the sender's cell.
  void broadcast(NodeId from, std::vector<std::uint8_t> payload);

  /// Radio energy spent by `node` so far, in millijoules.
  double energy_mj(NodeId node) const;

  /// Routes every delivery decision through `faults` (burst loss, partition
  /// cuts, delay spikes, in-flight corruption). Pass nullptr to detach. The
  /// injector must outlive the medium while attached.
  void attach_faults(FaultInjector* faults) noexcept { faults_ = faults; }

  /// Counters: "tx", "rx", "dropped_loss", "dropped_range", "tx_bytes",
  /// "rx_bytes"; with faults attached also "dropped_burst",
  /// "dropped_partition", "corrupted_in_flight".
  const Counter& counters() const noexcept { return counters_; }
  const MediumParams& params() const noexcept { return params_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }

 private:
  struct Node {
    ReceiveFn on_receive;
    int cell = 0;
    double energy_mj = 0.0;
  };

  void deliver(NodeId from, NodeId to,
               const std::vector<std::uint8_t>& payload);
  SimDuration transmission_delay(std::size_t bytes);

  EventSimulator* sim_;
  MediumParams params_;
  Rng rng_;
  std::vector<Node> nodes_;
  Counter counters_;
  FaultInjector* faults_ = nullptr;
};

}  // namespace apx
