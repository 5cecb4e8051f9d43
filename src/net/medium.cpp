#include "src/net/medium.hpp"

#include <stdexcept>
#include <utility>

#include "src/net/faults.hpp"

namespace apx {

WirelessMedium::WirelessMedium(EventSimulator& sim, const MediumParams& params,
                               std::uint64_t seed)
    : sim_(&sim), params_(params), rng_(seed) {
  if (params.bytes_per_us <= 0.0 || params.loss_prob < 0.0 ||
      params.loss_prob > 1.0) {
    throw std::invalid_argument("WirelessMedium: bad parameters");
  }
}

NodeId WirelessMedium::add_node(ReceiveFn on_receive, int cell) {
  if (!on_receive) {
    throw std::invalid_argument("WirelessMedium::add_node: null callback");
  }
  nodes_.push_back(Node{std::move(on_receive), cell, 0.0});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void WirelessMedium::set_cell(NodeId node, int cell) {
  nodes_.at(node).cell = cell;
}

int WirelessMedium::cell_of(NodeId node) const { return nodes_.at(node).cell; }

std::vector<NodeId> WirelessMedium::neighbors(NodeId node) const {
  const int cell = nodes_.at(node).cell;
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (id != node && nodes_[id].cell == cell) out.push_back(id);
  }
  return out;
}

SimDuration WirelessMedium::transmission_delay(std::size_t bytes) {
  const auto serialization = static_cast<SimDuration>(
      static_cast<double>(bytes) / params_.bytes_per_us);
  const auto jitter =
      params_.jitter > 0
          ? static_cast<SimDuration>(rng_.uniform_u64(
                static_cast<std::uint64_t>(params_.jitter)))
          : 0;
  return params_.base_latency + jitter + serialization;
}

void WirelessMedium::deliver(NodeId from, NodeId to,
                             const std::vector<std::uint8_t>& payload) {
  if (faults_ != nullptr && faults_->partitioned(from, to, sim_->now())) {
    counters_.inc("dropped_partition");
    return;
  }
  if (faults_ != nullptr && faults_->burst_lost(to)) {
    counters_.inc("dropped_burst");
    return;
  }
  if (rng_.chance(params_.loss_prob)) {
    counters_.inc("dropped_loss");
    return;
  }
  SimDuration delay = transmission_delay(payload.size());
  std::vector<std::uint8_t> data = payload;
  if (faults_ != nullptr) {
    delay += faults_->delay_spike();
    if (faults_->maybe_corrupt(data)) counters_.inc("corrupted_in_flight");
  }
  sim_->schedule_after(delay, [this, from, to, payload = std::move(data)] {
    // Receiver may have moved; radio range is checked at send time only
    // (the cell granularity makes mid-flight departures negligible).
    nodes_.at(to).energy_mj +=
        params_.rx_energy_mj_per_kb *
        (static_cast<double>(payload.size()) / 1024.0);
    counters_.inc("rx");
    counters_.inc("rx_bytes", payload.size());
    nodes_.at(to).on_receive(from, payload);
  });
}

void WirelessMedium::unicast(NodeId from, NodeId to,
                             std::vector<std::uint8_t> payload) {
  auto& sender = nodes_.at(from);
  sender.energy_mj += params_.tx_energy_mj_per_kb *
                      (static_cast<double>(payload.size()) / 1024.0);
  counters_.inc("tx");
  counters_.inc("tx_bytes", payload.size());
  // Responders address replies to a decoded sender id, which in-flight
  // corruption can turn into an id no node has: nobody is in range of it.
  if (to >= nodes_.size() || nodes_[to].cell != sender.cell) {
    counters_.inc("dropped_range");
    return;
  }
  deliver(from, to, payload);
}

void WirelessMedium::broadcast(NodeId from, std::vector<std::uint8_t> payload) {
  auto& sender = nodes_.at(from);
  sender.energy_mj += params_.tx_energy_mj_per_kb *
                      (static_cast<double>(payload.size()) / 1024.0);
  counters_.inc("tx");
  counters_.inc("tx_bytes", payload.size());
  for (const NodeId peer : neighbors(from)) {
    deliver(from, peer, payload);
  }
}

double WirelessMedium::energy_mj(NodeId node) const {
  return nodes_.at(node).energy_mj;
}

}  // namespace apx
