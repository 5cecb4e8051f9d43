// Deterministic seed-driven fuzzer for the wire-message codecs
// (src/net/messages.cpp). Three attack surfaces:
//
//   1. round-trip: randomized instances of every message type encode and
//      decode back to equal values (including quantized features, within
//      quantization error);
//   2. structured mutation: valid encodings with bit flips, truncations and
//      splices must either decode or throw CodecError — nothing else;
//   3. in-flight corruption: the exact mutation model the fault injector
//      applies (net/faults.hpp) replayed against every decoder.
//
// Run under the asan-ubsan preset this is the "corruption surfaces as
// CodecError drops, never UB" acceptance check in executable form.

#include <gtest/gtest.h>

#include <vector>

#include "src/net/faults.hpp"
#include "src/net/messages.hpp"
#include "src/util/rng.hpp"
#include "src/util/vecmath.hpp"

namespace apx {
namespace {

FeatureVec random_unit(Rng& rng, std::size_t dim) {
  FeatureVec v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal());
  normalize(v);
  return v;
}

WireEntry random_entry(Rng& rng, std::size_t dim, bool quantize) {
  WireEntry e;
  e.feature = random_unit(rng, dim);
  e.label = static_cast<Label>(rng.uniform_u64(10000));
  e.confidence = static_cast<float>(rng.uniform());
  e.hop_count = static_cast<std::uint8_t>(rng.uniform_u64(8));
  e.source_device = static_cast<std::uint32_t>(rng.next_u64());
  e.age = static_cast<SimDuration>(rng.uniform_u64(3'600'000'000ULL));
  e.quantize_on_wire = quantize;
  return e;
}

/// Decoding any payload with any decoder must produce a value or throw
/// CodecError; anything else (other exception, crash, sanitizer report)
/// fails the test.
void exercise_all_decoders(const std::vector<std::uint8_t>& payload) {
  try { (void)peek_type(payload); } catch (const CodecError&) {}
  try { (void)decode_hello(payload); } catch (const CodecError&) {}
  try { (void)decode_entry_advert(payload); } catch (const CodecError&) {}
  try {
    (void)decode_edge_lookup_request(payload);
  } catch (const CodecError&) {
  }
  try {
    (void)decode_edge_lookup_response(payload);
  } catch (const CodecError&) {
  }
  try { (void)decode_edge_feed(payload); } catch (const CodecError&) {}
}

class CodecFuzzer : public ::testing::TestWithParam<std::uint64_t> {};

// --------------------------------------------------------- 1. round trips

TEST_P(CodecFuzzer, HelloRoundTrips) {
  Rng rng{GetParam()};
  for (int i = 0; i < 200; ++i) {
    HelloMsg msg;
    msg.sender = static_cast<NodeId>(rng.next_u64());
    msg.cache_size = static_cast<std::uint32_t>(rng.next_u64());
    const HelloMsg back = decode_hello(encode(msg));
    EXPECT_EQ(back.sender, msg.sender);
    EXPECT_EQ(back.cache_size, msg.cache_size);
  }
}

TEST_P(CodecFuzzer, ResponseAndAdvertRoundTripsIncludingQuantized) {
  Rng rng{GetParam() ^ 0x22ULL};
  for (int i = 0; i < 100; ++i) {
    const std::size_t dim = 2 + rng.uniform_u64(48);
    const bool quantize = rng.chance(0.5);
    EdgeLookupResponseMsg resp;
    resp.request_id = rng.next_u64();
    resp.sender = static_cast<NodeId>(rng.next_u64());
    resp.has_vote = rng.chance(0.5);
    resp.label = static_cast<Label>(rng.uniform_u64(10000));
    resp.homogeneity = static_cast<float>(rng.uniform());
    resp.nearest_distance = static_cast<float>(rng.uniform());
    resp.voters = static_cast<std::uint32_t>(rng.uniform_u64(16));
    EntryAdvertMsg advert;
    advert.sender = resp.sender;
    const std::size_t n = rng.uniform_u64(8);
    for (std::size_t k = 0; k < n; ++k) {
      advert.entries.push_back(random_entry(rng, dim, quantize));
    }
    const EdgeLookupResponseMsg r = decode_edge_lookup_response(encode(resp));
    EXPECT_EQ(r.request_id, resp.request_id);
    EXPECT_EQ(r.sender, resp.sender);
    EXPECT_EQ(r.has_vote, resp.has_vote);
    EXPECT_EQ(r.label, resp.label);
    EXPECT_EQ(r.homogeneity, resp.homogeneity);
    EXPECT_EQ(r.nearest_distance, resp.nearest_distance);
    EXPECT_EQ(r.voters, resp.voters);
    const EntryAdvertMsg a = decode_entry_advert(encode(advert));
    EXPECT_EQ(a.sender, advert.sender);
    ASSERT_EQ(a.entries.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(a.entries[k].label, advert.entries[k].label);
      EXPECT_EQ(a.entries[k].hop_count, advert.entries[k].hop_count);
      EXPECT_EQ(a.entries[k].source_device, advert.entries[k].source_device);
      EXPECT_EQ(a.entries[k].age, advert.entries[k].age);
      ASSERT_EQ(a.entries[k].feature.size(), dim);
      for (std::size_t j = 0; j < dim; ++j) {
        // Quantized features round-trip within 8-bit affine error on unit
        // vectors; float features round-trip exactly.
        const float tol = quantize ? 0.02f : 0.0f;
        EXPECT_NEAR(a.entries[k].feature[j], advert.entries[k].feature[j],
                    tol);
      }
    }
  }
}

// --------------------------------------------------------- 2. mutations

std::vector<std::vector<std::uint8_t>> corpus(Rng& rng) {
  std::vector<std::vector<std::uint8_t>> out;
  HelloMsg hello;
  hello.sender = static_cast<NodeId>(rng.next_u64());
  out.push_back(encode(hello));
  EdgeLookupRequestMsg req;
  req.request_id = rng.next_u64();
  req.query = random_unit(rng, 16);
  out.push_back(encode(req));
  EdgeLookupResponseMsg resp;
  resp.request_id = rng.next_u64();
  resp.has_vote = true;
  resp.label = static_cast<Label>(rng.uniform_u64(10000));
  out.push_back(encode(resp));
  EdgeFeedMsg feed;
  feed.entry = random_entry(rng, 16, rng.chance(0.5));
  out.push_back(encode(feed));
  EntryAdvertMsg advert;
  for (int i = 0; i < 3; ++i) {
    advert.entries.push_back(random_entry(rng, 16, rng.chance(0.5)));
  }
  out.push_back(encode(advert));
  return out;
}

TEST_P(CodecFuzzer, BitFlippedMessagesThrowOrParse) {
  Rng rng{GetParam() ^ 0x33ULL};
  for (int round = 0; round < 50; ++round) {
    for (const auto& base : corpus(rng)) {
      auto bytes = base;
      const std::uint64_t flips = 1 + rng.uniform_u64(8);
      for (std::uint64_t f = 0; f < flips; ++f) {
        bytes[rng.uniform_u64(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
      }
      exercise_all_decoders(bytes);
    }
  }
}

TEST_P(CodecFuzzer, EveryTruncationThrowsOrParses) {
  Rng rng{GetParam() ^ 0x44ULL};
  for (const auto& base : corpus(rng)) {
    for (std::size_t cut = 0; cut < base.size(); ++cut) {
      exercise_all_decoders(
          {base.begin(), base.begin() + static_cast<long>(cut)});
    }
  }
}

TEST_P(CodecFuzzer, SplicedMessagesThrowOrParse) {
  // Concatenate the head of one valid message with the tail of another —
  // the nastiest inputs: valid type byte, internally inconsistent body.
  Rng rng{GetParam() ^ 0x55ULL};
  for (int round = 0; round < 100; ++round) {
    const auto msgs = corpus(rng);
    const auto& a = msgs[rng.uniform_u64(msgs.size())];
    const auto& b = msgs[rng.uniform_u64(msgs.size())];
    std::vector<std::uint8_t> spliced(
        a.begin(), a.begin() + static_cast<long>(rng.uniform_u64(a.size())));
    const std::size_t tail = rng.uniform_u64(b.size());
    spliced.insert(spliced.end(), b.end() - static_cast<long>(tail), b.end());
    exercise_all_decoders(spliced);
  }
}

TEST_P(CodecFuzzer, HostileLengthPrefixesAreRejectedNotAllocated) {
  // A handcrafted advert claiming 2^60 entries must throw, not reserve.
  Rng rng{GetParam() ^ 0x66ULL};
  for (int round = 0; round < 50; ++round) {
    EntryAdvertMsg advert;
    advert.entries.push_back(random_entry(rng, 8, false));
    auto bytes = encode(advert);
    // The entry count varint sits right after the type byte and sender;
    // stomp a huge LEB128 value over a random position instead of guessing
    // the layout — decoders must reject any inflated count they meet.
    const std::size_t pos = 1 + rng.uniform_u64(bytes.size() - 1);
    const std::vector<std::uint8_t> huge = {0xff, 0xff, 0xff, 0xff, 0xff,
                                            0xff, 0xff, 0xff, 0x7f};
    bytes.resize(pos);
    bytes.insert(bytes.end(), huge.begin(), huge.end());
    exercise_all_decoders(bytes);
  }
}

// --------------------------------------------------------- 3. injector model

TEST_P(CodecFuzzer, FaultInjectorCorruptionOnlyEverThrowsCodecError) {
  Rng rng{GetParam() ^ 0x77ULL};
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  FaultInjector inj{plan, GetParam()};
  for (int round = 0; round < 200; ++round) {
    for (auto& bytes : corpus(rng)) {
      inj.maybe_corrupt(bytes);
      exercise_all_decoders(bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzer,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace apx
