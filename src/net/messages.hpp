#pragma once
// Wire messages of the collaborative-caching protocol. Every message is a
// type byte followed by the body encoded with the util/serialize codec.
// Decoders throw CodecError on malformed input; a node drops such messages.

#include <cstdint>
#include <vector>

#include "src/dnn/model.hpp"
#include "src/net/medium.hpp"
#include "src/util/serialize.hpp"
#include "src/util/vecmath.hpp"

namespace apx {

/// Protocol message kinds. Values 2 and 3 are unassigned, and stay so that
/// no other kind's encoding changes; receivers drop them as unknown.
enum class MsgType : std::uint8_t {
  kHello = 1,           ///< periodic discovery beacon
  kEntryAdvert = 4,     ///< push of freshly computed entries
  kEdgeLookupRequest = 5,   ///< device → edge service query
  kEdgeLookupResponse = 6,  ///< edge service vote (or miss) back to device
  kEdgeFeed = 7,            ///< device → edge: DNN-validated entry
};

/// Reads the leading type byte (throws CodecError on empty payloads).
MsgType peek_type(const std::vector<std::uint8_t>& payload);

/// Discovery beacon.
struct HelloMsg {
  NodeId sender = 0;
  std::uint32_t cache_size = 0;  ///< advertised entry count
};

/// One cache entry in wire form. `age` (rather than an absolute timestamp)
/// crosses the wire so receivers need no clock agreement with senders.
struct WireEntry {
  FeatureVec feature;
  Label label = kNoLabel;
  float confidence = 0.0f;
  std::uint8_t hop_count = 0;
  std::uint32_t source_device = 0;
  SimDuration age = 0;
  /// Sender-side only (not itself serialized): encode `feature` as 8-bit
  /// affine-quantized instead of float32 (~3.7x smaller payload; see
  /// ann/quantize.hpp). Receivers get the dequantized floats either way.
  bool quantize_on_wire = false;
};

/// Unsolicited advertisement of new results (gossip).
struct EntryAdvertMsg {
  NodeId sender = 0;
  std::vector<WireEntry> entries;
};

/// Device-to-edge lookup. Carries the device's current adaptive threshold
/// scale so the edge answers with the same match strictness the device
/// would apply locally.
struct EdgeLookupRequestMsg {
  std::uint64_t request_id = 0;
  NodeId sender = 0;
  float threshold_scale = 1.0f;
  FeatureVec query;
};

/// Edge answer: the H-kNN vote of the routed shard, or a miss
/// (`has_vote == false`, remaining fields zero).
struct EdgeLookupResponseMsg {
  std::uint64_t request_id = 0;
  NodeId sender = 0;
  bool has_vote = false;
  Label label = kNoLabel;
  float homogeneity = 0.0f;
  float nearest_distance = 0.0f;
  std::uint32_t voters = 0;
};

/// Fire-and-forget upload of one DNN-validated entry; the edge decides
/// admission against its error budget.
struct EdgeFeedMsg {
  NodeId sender = 0;
  WireEntry entry;
};

std::vector<std::uint8_t> encode(const HelloMsg& msg);
std::vector<std::uint8_t> encode(const EntryAdvertMsg& msg);
std::vector<std::uint8_t> encode(const EdgeLookupRequestMsg& msg);
std::vector<std::uint8_t> encode(const EdgeLookupResponseMsg& msg);
std::vector<std::uint8_t> encode(const EdgeFeedMsg& msg);

/// Decoders; the payload must carry the matching type byte.
HelloMsg decode_hello(const std::vector<std::uint8_t>& payload);
EntryAdvertMsg decode_entry_advert(const std::vector<std::uint8_t>& payload);
EdgeLookupRequestMsg decode_edge_lookup_request(
    const std::vector<std::uint8_t>& payload);
EdgeLookupResponseMsg decode_edge_lookup_response(
    const std::vector<std::uint8_t>& payload);
EdgeFeedMsg decode_edge_feed(const std::vector<std::uint8_t>& payload);

}  // namespace apx
