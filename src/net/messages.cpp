#include "src/net/messages.hpp"

#include "src/ann/quantize.hpp"

namespace apx {
namespace {

constexpr std::uint8_t kEncodingF32 = 0;
constexpr std::uint8_t kEncodingQuantized = 1;

void write_entry(Writer& w, const WireEntry& e) {
  if (e.quantize_on_wire) {
    w.u8(kEncodingQuantized);
    write_quantized(w, quantize(e.feature));
  } else {
    w.u8(kEncodingF32);
    w.f32_vec(e.feature);
  }
  w.i64(e.label);
  w.f32(e.confidence);
  w.u8(e.hop_count);
  w.u32(e.source_device);
  w.i64(e.age);
}

WireEntry read_entry(Reader& r) {
  WireEntry e;
  const std::uint8_t encoding = r.u8();
  if (encoding == kEncodingQuantized) {
    e.feature = dequantize(read_quantized(r));
  } else if (encoding == kEncodingF32) {
    e.feature = r.f32_vec();
  } else {
    throw CodecError("unknown feature encoding");
  }
  e.label = static_cast<Label>(r.i64());
  e.confidence = r.f32();
  e.hop_count = r.u8();
  e.source_device = r.u32();
  e.age = r.i64();
  return e;
}

Reader open(const std::vector<std::uint8_t>& payload, MsgType expected) {
  Reader r{payload};
  if (static_cast<MsgType>(r.u8()) != expected) {
    throw CodecError("unexpected message type");
  }
  return r;
}

// Guards reserve() against hostile counts: every wire entry occupies at
// least one byte, so a count exceeding the remaining payload is malformed.
// (Found by the codec fuzzer: an unchecked varint count reached
// vector::reserve and threw bad_alloc instead of CodecError.)
std::uint64_t read_entry_count(Reader& r) {
  const std::uint64_t n = r.varint();
  if (n > r.remaining()) throw CodecError("entry count exceeds payload");
  return n;
}

}  // namespace

MsgType peek_type(const std::vector<std::uint8_t>& payload) {
  if (payload.empty()) throw CodecError("empty payload");
  return static_cast<MsgType>(payload.front());
}

std::vector<std::uint8_t> encode(const HelloMsg& msg) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kHello));
  w.u32(msg.sender);
  w.u32(msg.cache_size);
  return w.take();
}

std::vector<std::uint8_t> encode(const EntryAdvertMsg& msg) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kEntryAdvert));
  w.u32(msg.sender);
  w.varint(msg.entries.size());
  for (const auto& e : msg.entries) write_entry(w, e);
  return w.take();
}

std::vector<std::uint8_t> encode(const EdgeLookupRequestMsg& msg) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kEdgeLookupRequest));
  w.u64(msg.request_id);
  w.u32(msg.sender);
  w.f32(msg.threshold_scale);
  w.f32_vec(msg.query);
  return w.take();
}

std::vector<std::uint8_t> encode(const EdgeLookupResponseMsg& msg) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kEdgeLookupResponse));
  w.u64(msg.request_id);
  w.u32(msg.sender);
  w.u8(msg.has_vote ? 1 : 0);
  w.i64(msg.label);
  w.f32(msg.homogeneity);
  w.f32(msg.nearest_distance);
  w.u32(msg.voters);
  return w.take();
}

std::vector<std::uint8_t> encode(const EdgeFeedMsg& msg) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kEdgeFeed));
  w.u32(msg.sender);
  write_entry(w, msg.entry);
  return w.take();
}

HelloMsg decode_hello(const std::vector<std::uint8_t>& payload) {
  Reader r = open(payload, MsgType::kHello);
  HelloMsg msg;
  msg.sender = r.u32();
  msg.cache_size = r.u32();
  return msg;
}

EntryAdvertMsg decode_entry_advert(const std::vector<std::uint8_t>& payload) {
  Reader r = open(payload, MsgType::kEntryAdvert);
  EntryAdvertMsg msg;
  msg.sender = r.u32();
  const std::uint64_t n = read_entry_count(r);
  msg.entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) msg.entries.push_back(read_entry(r));
  return msg;
}

EdgeLookupRequestMsg decode_edge_lookup_request(
    const std::vector<std::uint8_t>& payload) {
  Reader r = open(payload, MsgType::kEdgeLookupRequest);
  EdgeLookupRequestMsg msg;
  msg.request_id = r.u64();
  msg.sender = r.u32();
  msg.threshold_scale = r.f32();
  msg.query = r.f32_vec();
  return msg;
}

EdgeLookupResponseMsg decode_edge_lookup_response(
    const std::vector<std::uint8_t>& payload) {
  Reader r = open(payload, MsgType::kEdgeLookupResponse);
  EdgeLookupResponseMsg msg;
  msg.request_id = r.u64();
  msg.sender = r.u32();
  const std::uint8_t flag = r.u8();
  if (flag > 1) throw CodecError("bad has_vote flag");
  msg.has_vote = flag != 0;
  msg.label = static_cast<Label>(r.i64());
  msg.homogeneity = r.f32();
  msg.nearest_distance = r.f32();
  msg.voters = r.u32();
  return msg;
}

EdgeFeedMsg decode_edge_feed(const std::vector<std::uint8_t>& payload) {
  Reader r = open(payload, MsgType::kEdgeFeed);
  EdgeFeedMsg msg;
  msg.sender = r.u32();
  msg.entry = read_entry(r);
  return msg;
}

}  // namespace apx
