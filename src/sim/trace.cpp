#include "src/sim/trace.hpp"

#include "src/util/serialize.hpp"

namespace apx {
namespace {

constexpr std::uint32_t kMagic = 0x41505452;  // "APTR"
constexpr std::uint8_t kVersion = 1;

}  // namespace

void TraceRecorder::record(std::uint32_t device,
                           const RecognitionResult& result) {
  events_.push_back(TraceEvent{device, result});
}

std::vector<std::uint8_t> TraceRecorder::serialize() const {
  Writer w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.varint(events_.size());
  for (const TraceEvent& event : events_) {
    w.u32(event.device);
    w.i64(event.result.frame_time);
    w.i64(event.result.completion_time);
    w.i64(event.result.label);
    w.i64(event.result.true_label);
    w.u8(event.result.correct ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(event.result.source));
    w.f64(event.result.compute_energy_mj);
  }
  return w.take();
}

std::vector<TraceEvent> TraceRecorder::parse(
    std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  if (r.u32() != kMagic) throw CodecError("trace: bad magic");
  if (r.u8() != kVersion) throw CodecError("trace: unsupported version");
  const std::uint64_t count = r.varint();
  // Each event is > 1 byte on the wire; a larger count is malformed (and
  // must not reach reserve(), which would throw bad_alloc on hostile input).
  if (count > r.remaining()) throw CodecError("trace: count exceeds payload");
  std::vector<TraceEvent> events;
  events.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceEvent event;
    event.device = r.u32();
    event.result.frame_time = r.i64();
    event.result.completion_time = r.i64();
    event.result.latency =
        event.result.completion_time - event.result.frame_time;
    event.result.label = static_cast<Label>(r.i64());
    event.result.true_label = static_cast<Label>(r.i64());
    event.result.correct = r.u8() != 0;
    const std::uint8_t source = r.u8();
    if (source >= kResultSourceCount) {
      throw CodecError("trace: bad source");
    }
    event.result.source = static_cast<ResultSource>(source);
    event.result.compute_energy_mj = r.f64();
    events.push_back(event);
  }
  if (!r.done()) throw CodecError("trace: trailing bytes");
  return events;
}

ExperimentMetrics analyze_trace(const std::vector<TraceEvent>& events) {
  ExperimentMetrics metrics;
  for (const TraceEvent& event : events) metrics.record(event.result);
  return metrics;
}

ExperimentMetrics analyze_trace_device(const std::vector<TraceEvent>& events,
                                       std::uint32_t device) {
  ExperimentMetrics metrics;
  for (const TraceEvent& event : events) {
    if (event.device == device) metrics.record(event.result);
  }
  return metrics;
}

}  // namespace apx
