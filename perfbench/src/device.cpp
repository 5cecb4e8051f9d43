// Device-fleet workloads: `crowd-full` and `walk-local`.
//
// Untraced run: ExperimentRunner, exactly as applications call it. Each run
// pools K sub-scenarios (seeds derived from --seed) so the simulated metrics
// of one run rest on K independent worlds, and cycles through them again
// until --seconds of host time have passed; every repeat of a sub-scenario
// must reproduce its first outputs bit for bit.
//
// Traced run: the same per-device stack that src/sim/runner.cpp builds,
// assembled here from public classes with timing decorators around the
// feature extractor, the recognition model and the eviction policy, and the
// event simulator stepped one event at a time. Its deterministic outputs
// must equal the untraced runner's, which shows the decorators observe the
// same program.

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>

#include "src/core/pipeline.hpp"
#include "src/dnn/oracle.hpp"
#include "src/features/minicnn.hpp"
#include "src/imu/trace.hpp"
#include "src/net/event_sim.hpp"
#include "src/net/faults.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/trace.hpp"
#include "src/workloads.hpp"

namespace perfbench {
namespace {

using namespace apx;

/// Pipeline rungs reported per layer, as (ladder token, registry name).
constexpr std::pair<const char*, const char*> kRungs[] = {
    {"imu", "imu-gate"},
    {"temporal", "temporal"},
    {"local", "local-cache"},
    {"p2p", "p2p"},
    {"dnn", "dnn"}};

struct DeviceSpec {
  ScenarioConfig base;
  int sub_scenarios = 1;
};

/// The paper's headline scenario: a co-located crowd running every rung.
ScenarioConfig crowd_full() {
  ScenarioConfig cfg = default_scenario();  // 64 classes, 4 devices, full
  cfg.zipf_s = 0.9;
  cfg.p_stationary = 0.4;
  cfg.p_minor = 0.4;
  cfg.p_major = 0.2;
  cfg.pipeline.cache.capacity = 512;
  return cfg;
}

/// Approx-Local under heavy motion: every frame extracts and looks up, and
/// the working set outgrows a small cache, so inserts evict.
ScenarioConfig walk_local() {
  ScenarioConfig cfg = default_scenario();
  cfg.pipeline = make_approx_local_config();
  cfg.co_located = false;
  cfg.scene.num_classes = 256;
  cfg.zipf_s = 0.6;
  cfg.p_stationary = 0.1;
  cfg.p_minor = 0.3;
  cfg.p_major = 0.6;
  cfg.pipeline.cache.capacity = 64;
  return cfg;
}

DeviceSpec device_spec(const Options& opt) {
  DeviceSpec spec;
  spec.base = opt.workload == "crowd-full" ? crowd_full() : walk_local();
  spec.base.num_threads = 1;
  // Enough independent worlds that the pooled simulated metrics of one run
  // vary by a few percent (quartile spread) from seed to seed.
  spec.sub_scenarios = opt.workload == "crowd-full" ? 16 : 6;
  if (opt.smoke) {
    spec.base.duration = 5 * kSecond;
    spec.sub_scenarios = 1;
  }
  return spec;
}

ScenarioConfig sub_scenario(const DeviceSpec& spec, std::uint64_t seed,
                            int index) {
  ScenarioConfig cfg = spec.base;
  cfg.seed = seed * 1000 + static_cast<std::uint64_t>(index);
  return cfg;
}

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Every deterministic output of a run: the simulated metrics and the full
/// metrics export (every counter and histogram).
std::string fingerprint(const ExperimentMetrics& m, const MetricsRegistry& r) {
  std::string out;
  out += "frames " + std::to_string(m.frames());
  out += " dropped " + std::to_string(m.dropped());
  out += " accuracy " + format_double(m.accuracy());
  out += " reuse " + format_double(m.reuse_ratio());
  out += " mean_ms " + format_double(m.mean_latency_ms());
  out += " p99_ms " +
         format_double(m.frames() ? m.latency_quantile_ms(0.99) : 0.0);
  out += " energy " + format_double(m.mean_total_energy_mj());
  out += " radio " + format_double(m.radio_energy_mj());
  for (const auto& [key, count] : m.sources().items()) {
    out += " " + key + "=" + std::to_string(count);
  }
  out += "\n" + r.to_json();
  return out;
}

struct RunOutput {
  double setup_s = 0.0;  ///< host seconds
  double run_s = 0.0;    ///< host seconds
  double scale = 1.0;    ///< host_scale() around the run
  ExperimentMetrics metrics;
  MetricsRegistry registry;
  std::string fingerprint;
  /// Simulated latency (us) of every frame that reached the cache lookup
  /// (answered by the local cache, a peer or the DNN).
  std::vector<double> lookup_frames_us;
};

RunOutput run_untraced(ScenarioConfig cfg) {
  // The runner's per-frame outcome log (one vector append per frame) gives
  // the simulated latency of the frames the cache served; it changes no
  // output.
  cfg.record_trace = true;
  RunOutput out;
  const double rate_before = reference_rate();
  const std::int64_t t0 = now_ns();
  ExperimentRunner runner(cfg);
  const std::int64_t t1 = now_ns();
  out.metrics = runner.run();
  const std::int64_t t2 = now_ns();
  out.scale = host_scale(rate_before, reference_rate());
  out.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  out.run_s = static_cast<double>(t2 - t1) * 1e-9;
  out.registry = runner.metrics();
  out.fingerprint = fingerprint(out.metrics, out.registry);
  for (const TraceEvent& event : runner.trace().events()) {
    const ResultSource source = event.result.source;
    if (source == ResultSource::kLocalCacheHit ||
        source == ResultSource::kPeerCacheHit ||
        source == ResultSource::kFullInference) {
      out.lookup_frames_us.push_back(
          static_cast<double>(event.result.latency));
    }
  }
  return out;
}

double hist_mean(const MetricsRegistry& r, const std::string& name) {
  const auto* h = r.find_histogram(name);
  return h != nullptr && h->count > 0 ? h->mean() : 0.0;
}

/// Frames every device is offered over the run (frames + dropped).
std::uint64_t offered(const ExperimentMetrics& m) {
  return m.frames() + m.dropped();
}

// ------------------------------------------------------------ decorators

/// Which frame of which device a layer call belongs to (span request id),
/// and the per-layer call counts of one traced run.
struct TraceState {
  SpanRecorder* rec = nullptr;
  std::uint64_t request = 0;  ///< request of the layer call seen last
  std::uint64_t extract_calls = 0;
  std::uint64_t infer_calls = 0;
  std::uint64_t scored = 0;  ///< eviction-policy score() calls
  SpanRecorder::NameId extract_name = 0;
  SpanRecorder::NameId infer_name = 0;
};

class TimedExtractor final : public FeatureExtractor {
 public:
  TimedExtractor(const FeatureExtractor& inner, TraceState& state,
                 const std::uint64_t& device_request)
      : inner_(inner), state_(state), device_request_(device_request) {}

  const std::string& name() const noexcept override { return inner_.name(); }
  std::size_t dim() const noexcept override { return inner_.dim(); }
  FeatureVec extract(const Image& img) const override {
    ++state_.extract_calls;
    state_.request = device_request_;
    ScopedSpan span(state_.rec, state_.extract_name, device_request_);
    return inner_.extract(img);
  }
  SimDuration latency() const noexcept override { return inner_.latency(); }
  float recommended_max_distance() const noexcept override {
    return inner_.recommended_max_distance();
  }
  const MiniCnn* staged_cnn() const noexcept override {
    return inner_.staged_cnn();
  }

 private:
  const FeatureExtractor& inner_;
  TraceState& state_;
  const std::uint64_t& device_request_;
};

class TimedModel final : public RecognitionModel {
 public:
  TimedModel(std::unique_ptr<RecognitionModel> inner, TraceState& state,
             const std::uint64_t& device_request)
      : inner_(std::move(inner)),
        state_(state),
        device_request_(device_request) {}

  const std::string& name() const noexcept override { return inner_->name(); }
  Prediction infer(const Image& img, Label true_label, Rng& rng) override {
    ++state_.infer_calls;
    state_.request = device_request_;
    ScopedSpan span(state_.rec, state_.infer_name, device_request_);
    return inner_->infer(img, true_label, rng);
  }
  SimDuration sample_latency(Rng& rng) const override {
    return inner_->sample_latency(rng);
  }
  double energy_mj() const noexcept override { return inner_->energy_mj(); }
  const ModelProfile& profile() const noexcept override {
    return inner_->profile();
  }

 private:
  std::unique_ptr<RecognitionModel> inner_;
  TraceState& state_;
  const std::uint64_t& device_request_;
};

/// Counts score() calls: one victim scan scores every resident entry, so
/// calls per eviction is the scan length.
class CountingEviction final : public EvictionPolicy {
 public:
  CountingEviction(std::unique_ptr<EvictionPolicy> inner, TraceState& state)
      : inner_(std::move(inner)), state_(state) {}

  const std::string& name() const noexcept override { return inner_->name(); }
  double score(const CacheEntry& entry, SimTime now) const override {
    ++state_.scored;
    return inner_->score(entry, now);
  }

 private:
  std::unique_ptr<EvictionPolicy> inner_;
  TraceState& state_;
};

// ------------------------------------------------------- traced replica

struct TracedDevice {
  std::unique_ptr<MobilityModel> mobility;
  std::unique_ptr<VideoStreamGenerator> stream;
  std::unique_ptr<ImuTraceGenerator> imu;
  std::unique_ptr<MotionEstimator> motion;
  std::unique_ptr<TimedExtractor> extractor;
  std::unique_ptr<RecognitionModel> model;
  std::unique_ptr<ApproxCache> cache;
  std::unique_ptr<PeerCacheService> peers;
  std::unique_ptr<ReusePipeline> pipeline;
  SimTime last_imu_pull = 0;
  std::uint64_t request = 0;  ///< (device + 1) << 32 | frame number
  ExperimentMetrics metrics;
  MetricsRegistry registry;
};

struct TracedOutput {
  double loop_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  ExperimentMetrics metrics;
  MetricsRegistry registry;
  std::uint64_t messages = 0;
  std::string fingerprint;
};

/// Mirrors ExperimentRunner for the configurations this benchmark runs
/// (sequential, no faults, no edge tier, no churn, oracle model).
TracedOutput run_traced(ScenarioConfig config, TraceState& state) {
  if (config.faults.any() || config.pipeline.enable_edge ||
      config.churn_period > 0 || config.use_real_classifier ||
      config.record_trace || config.num_threads != 1) {
    throw std::logic_error("traced replica: unsupported scenario option");
  }
  SpanRecorder& rec = *state.rec;
  const auto n_event_core = rec.intern("core.event");
  const auto n_event_tick = rec.intern("core.tick");
  const auto n_lookup = rec.intern("cache.lookup");
  const auto n_insert = rec.intern("cache.insert");
  const auto n_net = rec.intern("net.event");
  const auto n_video = rec.intern("video.next_frame");
  const auto n_imu = rec.intern("imu.estimate");
  const auto n_process = rec.intern("core.process");

  if (!config.pipeline.ladder.empty()) {
    apply_ladder(config.pipeline, LadderSpec::parse(config.pipeline.ladder));
  }
  config.pipeline.cache.alsh.lsh.quantize.enabled =
      config.pipeline.enable_quantized_scan;

  EventSimulator sim;
  // Stands in for run_until(duration + 5 s): scheduled before any other
  // event, it is the first to fire at the first instant past the horizon.
  bool horizon = false;
  sim.schedule_at(config.duration + 5 * kSecond + 1,
                  [&horizon] { horizon = true; });

  Rng master{config.seed};
  SceneGenerator scenes(config.scene);
  ZipfSampler popularity(static_cast<std::size_t>(config.scene.num_classes),
                         config.zipf_s);
  const std::uint64_t medium_seed = master.next_u64();
  WirelessMedium medium(sim, config.medium, medium_seed);
  const std::unique_ptr<FeatureExtractor> extractor =
      make_extractor(config.extractor);
  if (config.auto_threshold) {
    config.pipeline.cache.hknn.max_distance =
        extractor->recommended_max_distance();
  }

  std::vector<std::unique_ptr<TracedDevice>> devices;
  for (int d = 0; d < config.num_devices; ++d) {
    auto dev = std::make_unique<TracedDevice>();
    Rng rng = master.fork();
    dev->mobility = std::make_unique<MobilityModel>(MobilityModel::random(
        rng, config.duration + kSecond, config.mean_segment,
        config.p_stationary, config.p_minor, config.p_major));
    dev->stream = std::make_unique<VideoStreamGenerator>(
        scenes, *dev->mobility, popularity, config.video, rng.next_u64());
    dev->imu = std::make_unique<ImuTraceGenerator>(
        *dev->mobility, config.imu_rate_hz, rng.next_u64());
    dev->motion = std::make_unique<MotionEstimator>(config.pipeline.motion);
    dev->extractor =
        std::make_unique<TimedExtractor>(*extractor, state, dev->request);
    const int oracle_groups =
        config.scene.class_confusion > 0.0f ? config.scene.group_size : 1;
    dev->model = std::make_unique<TimedModel>(
        make_oracle_model(config.model, config.scene.num_classes,
                          oracle_groups),
        state, dev->request);
    if (config.pipeline.enable_local_cache) {
      dev->cache = std::make_unique<ApproxCache>(
          extractor->dim(), config.pipeline.cache,
          std::make_unique<CountingEviction>(make_eviction(config.eviction),
                                             state));
    } else if (config.pipeline.enable_exact_cache) {
      throw std::logic_error("traced replica: exact cache not supported");
    }
    const int cell = config.co_located ? 0 : d;
    if (config.pipeline.enable_p2p && dev->cache != nullptr) {
      dev->peers = std::make_unique<PeerCacheService>(
          sim, medium, *dev->cache, config.peer, cell);
    }
    dev->pipeline = std::make_unique<ReusePipeline>(
        sim, config.pipeline, *dev->extractor, *dev->model, dev->cache.get(),
        nullptr, dev->peers.get(), nullptr, rng.next_u64());
    if (dev->cache) dev->cache->attach_metrics(dev->registry);
    if (dev->peers) dev->peers->attach_metrics(dev->registry);
    dev->pipeline->attach_metrics(dev->registry);
    (void)rng.fork();  // the runner's churn stream, drawn for parity
    devices.push_back(std::move(dev));
  }

  TracedOutput out;
  bool in_tick = false;
  std::function<void(std::size_t)> schedule_frames;
  const auto tick = [&](std::size_t index) {
    in_tick = true;
    TracedDevice& dev = *devices[index];
    ++out.ticks;
    dev.request = (static_cast<std::uint64_t>(index + 1) << 32) |
                  ((dev.request & 0xffffffffULL) + 1);
    state.request = dev.request;
    const SimTime now = sim.now();
    {
      ScopedSpan span(&rec, n_imu, dev.request);
      dev.motion->add_all(dev.imu->samples_between(dev.last_imu_pull, now));
    }
    dev.last_imu_pull = now;
    Frame frame;
    {
      ScopedSpan span(&rec, n_video, dev.request);
      frame = dev.stream->next();
    }
    MotionState motion;
    {
      ScopedSpan span(&rec, n_imu, dev.request);
      motion = dev.motion->estimate();
    }
    bool accepted = false;
    {
      ScopedSpan span(&rec, n_process, dev.request);
      accepted = dev.pipeline->process(
          frame, motion,
          [&dev](const RecognitionResult& result) {
            dev.metrics.record(result);
          });
    }
    if (!accepted) dev.metrics.record_dropped();
    schedule_frames(index);
  };
  schedule_frames = [&](std::size_t index) {
    const SimTime t = devices[index]->stream->next_frame_time();
    if (t >= config.duration) return;
    sim.schedule_at(t, [&tick, index] { tick(index); });
  };

  for (std::size_t d = 0; d < devices.size(); ++d) {
    if (devices[d]->peers) devices[d]->peers->start();
    schedule_frames(d);
  }

  const Counter& net = medium.counters();
  const std::int64_t loop_start = now_ns();
  while (!horizon) {
    const std::uint64_t extracts = state.extract_calls;
    const std::uint64_t infers = state.infer_calls;
    const std::uint64_t traffic = net.get("tx") + net.get("rx");
    in_tick = false;
    state.request = 0;
    const std::uint32_t span = rec.begin(n_event_core);
    const bool ran = sim.step();
    SpanRecorder::NameId kind = n_event_core;
    if (in_tick) {
      kind = n_event_tick;
    } else if (state.extract_calls != extracts) {
      kind = n_lookup;
    } else if (state.infer_calls != infers) {
      kind = n_insert;
    } else if (net.get("tx") + net.get("rx") != traffic) {
      kind = n_net;
    }
    rec.rename_open(kind, state.request);
    rec.end(span);
    if (!ran) break;
    ++out.events;
  }
  out.loop_s = static_cast<double>(now_ns() - loop_start) * 1e-9;
  if (horizon) --out.events;  // the horizon marker itself

  for (auto& dev_ptr : devices) {
    TracedDevice& dev = *dev_ptr;
    if (dev.peers) {
      dev.metrics.add_radio_energy_mj(medium.energy_mj(dev.peers->id()));
    }
    if (dev.cache) {
      for (const auto& [key, count] : dev.cache->counters().items()) {
        dev.registry.inc(dev.registry.counter("cache/" + key), count);
      }
    }
    if (dev.peers) {
      for (const auto& [key, count] : dev.peers->counters().items()) {
        dev.registry.inc(dev.registry.counter("p2p/" + key), count);
      }
    }
    out.registry.merge(dev.registry);
    out.metrics.merge(dev.metrics);
  }
  for (const std::string& key : FaultInjector::counter_keys()) {
    out.registry.counter("faults/" + key);
  }
  out.messages = net.get("tx");
  out.fingerprint = fingerprint(out.metrics, out.registry);
  return out;
}

// ------------------------------------------------------------- reporting

void add_sim_metrics(const ExperimentMetrics& m, Result& res) {
  res.add("sim_latency_mean_ms", m.mean_latency_ms(), "ms");
  res.add("sim_latency_p99_ms", m.latency_quantile_ms(0.99), "ms");
  res.add("accuracy", m.accuracy(), "fraction");
  res.add("reuse_ratio", m.reuse_ratio(), "fraction");
  res.add("energy_mj_per_frame", m.mean_total_energy_mj(), "mJ");
  res.add("ok_ratio", ratio(static_cast<double>(m.frames()),
                            static_cast<double>(offered(m))),
          "fraction");
}

Result untraced(const Options& opt, const DeviceSpec& spec) {
  Result res;
  const int k = spec.sub_scenarios;
  struct Sub {
    std::string fingerprint;
    std::vector<double> run_s;  ///< reference-host seconds, per repeat
    ExperimentMetrics metrics;
    MetricsRegistry registry;
    std::vector<double> lookup_frames_us;
  };
  std::vector<Sub> subs(static_cast<std::size_t>(k));
  std::vector<double> setups;   // reference-host seconds
  std::vector<double> raw_fps;  // frames per host second, per world run
  const std::int64_t start = now_ns();
  int repeats = 0;
  // At least one pass over the sub-scenarios plus one repeat (the
  // determinism check), then repeats until the measuring time is used.
  while (repeats < k + 1 ||
         static_cast<double>(now_ns() - start) * 1e-9 < opt.seconds) {
    const int i = repeats % k;
    RunOutput run = run_untraced(sub_scenario(spec, opt.seed, i));
    Sub& sub = subs[static_cast<std::size_t>(i)];
    setups.push_back(run.setup_s * run.scale);
    sub.run_s.push_back(run.run_s * run.scale);
    raw_fps.push_back(static_cast<double>(run.metrics.frames()) / run.run_s);
    if (sub.fingerprint.empty()) {
      sub.fingerprint = std::move(run.fingerprint);
      sub.metrics = std::move(run.metrics);
      sub.registry = std::move(run.registry);
      sub.lookup_frames_us = std::move(run.lookup_frames_us);
    } else {
      res.check(run.fingerprint == sub.fingerprint,
                "sub-scenario " + std::to_string(i) +
                    ": a repeat of the same seed changed its outputs");
    }
    ++repeats;
  }

  ExperimentMetrics pooled;
  MetricsRegistry registry;
  std::vector<double> lookup_frames_us;
  double host_s = 0.0;
  for (const Sub& sub : subs) {
    host_s += median(sub.run_s);
    lookup_frames_us.insert(lookup_frames_us.end(),
                            sub.lookup_frames_us.begin(),
                            sub.lookup_frames_us.end());
    pooled.merge(sub.metrics);
    registry.merge(sub.registry);
  }
  res.attempted = offered(pooled);
  res.check(pooled.frames() > 0, "no frame completed");
  res.check(offered(pooled) ==
                static_cast<std::uint64_t>(k) *
                    static_cast<std::uint64_t>(spec.base.num_devices) *
                    static_cast<std::uint64_t>(
                        to_seconds(spec.base.duration) * spec.base.video.fps),
            "frames offered differ from devices x duration x fps");
  const auto count = [&](const std::string& name) {
    return static_cast<double>(registry.counter_value(name));
  };
  const double hits = count("cache/hit");
  const double misses = count("cache/miss");
  const double frames = static_cast<double>(pooled.frames());

  res.add("setup_s", median(setups), "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MiB");
  res.add("host_fps", frames / host_s, "frames/s");
  add_sim_metrics(pooled, res);
  res.add("serve_ops_per_s",
          (hits + misses + count("cache/insert")) / host_s, "ops/s");
  res.add("serve_p50_us", quantile(lookup_frames_us, 0.5), "us");
  res.add("serve_hit_rate", ratio(hits, hits + misses), "fraction");
  std::printf("# %s: %d runs over %d sub-scenarios, %zu frames pooled "
              "(latency p99 over %zu samples, serve p50 over %zu), %.1f s\n"
              "# unscaled frames per host second of a world run: median %.1f,"
              " min %.1f, max %.1f\n",
              opt.workload.c_str(), repeats, k, pooled.frames(),
              pooled.latencies_ms().count(), lookup_frames_us.size(),
              static_cast<double>(now_ns() - start) * 1e-9, median(raw_fps),
              quantile(raw_fps, 0.0), quantile(raw_fps, 1.0));

  std::map<std::string, std::string> counts;
  counts["dnn.infer_calls"] = format_double(count("pipeline/rung_hit/dnn"));
  counts["cache.inserts"] = format_double(count("cache/insert"));
  counts["cache.evictions"] = format_double(count("cache/evict"));
  counts["ann.candidates_mean"] =
      format_double(hist_mean(registry, "ann/candidates"));
  counts["core.rung_visits.local"] =
      format_double(count("pipeline/rung_hit/local-cache") +
                    count("pipeline/rung_miss/local-cache"));
  check_recorded_counts(opt, counts, res);
  return res;
}

Result traced(const Options& opt, const DeviceSpec& spec) {
  Result res;
  SpanRecorder rec;
  TraceState state;
  state.rec = &rec;
  state.extract_name = rec.intern("features.extract");
  state.infer_name = rec.intern("dnn.infer");

  ExperimentMetrics pooled;
  MetricsRegistry registry;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  std::uint64_t messages = 0;
  for (int i = 0; i < spec.sub_scenarios; ++i) {
    const ScenarioConfig cfg = sub_scenario(spec, opt.seed, i);
    const RunOutput reference = run_untraced(cfg);
    const TracedOutput traced = run_traced(cfg, state);
    res.check(traced.fingerprint == reference.fingerprint,
              "sub-scenario " + std::to_string(i) +
                  ": traced outputs differ from the untraced runner's");
    untraced_s += reference.run_s;
    traced_s += traced.loop_s;
    events += traced.events;
    ticks += traced.ticks;
    messages += traced.messages;
    pooled.merge(traced.metrics);
    registry.merge(traced.registry);
  }
  res.attempted = offered(pooled);

  const auto count = [&](const std::string& name) {
    return static_cast<double>(registry.counter_value(name));
  };
  const auto hits_of = [&](const std::string& rung) {
    return count("pipeline/rung_hit/" + rung);
  };
  const auto visits = [&](const std::string& rung) {
    return hits_of(rung) + count("pipeline/rung_miss/" + rung);
  };
  res.check(static_cast<double>(state.extract_calls) == visits("local-cache"),
            "feature extractions differ from local-cache rung visits");
  res.check(static_cast<double>(state.infer_calls) == visits("dnn"),
            "model inferences differ from dnn rung visits");
  res.check(ticks == offered(pooled),
            "frame ticks differ from frames offered");

  const auto& extract = rec.totals("features.extract");
  const double frames = static_cast<double>(ticks);
  const auto per_frame_us = [&](const char* span) {
    return ratio(rec.totals(span).wall_ns, frames) / 1e3;
  };
  res.add("video.next_frame_us", per_frame_us("video.next_frame"), "us");
  res.add("imu.estimate_us", per_frame_us("imu.estimate"), "us");
  res.add("features.extract_calls", static_cast<double>(extract.count),
          "count");
  res.add("features.extract_us_p50",
          quantile(extract.durations_ns, 0.5) / 1e3, "us");
  res.add("features.extract_us_p99",
          quantile(extract.durations_ns, 0.99) / 1e3, "us");
  res.add("features.gmac_per_s",
          ratio(MiniCnn::plan().total_macs() *
                    static_cast<double>(extract.count),
                extract.wall_ns),
          "GMAC/s");
  res.add("dnn.infer_calls", static_cast<double>(state.infer_calls), "count");
  for (const auto& [token, name] : kRungs) {
    res.add(std::string("core.rung_visits.") + token, visits(name), "count");
    res.add(std::string("core.rung_hits.") + token, hits_of(name), "count");
  }
  // Event-loop time not covered by a named layer span: ReusePipeline,
  // the rung timers and the simulator's own queue work.
  double layer_ns = rec.totals("cache.lookup").self_ns +
                    rec.totals("cache.insert").self_ns;
  for (const char* name : {"video.next_frame", "imu.estimate",
                           "features.extract", "dnn.infer", "net.event"}) {
    layer_ns += rec.totals(name).wall_ns;
  }
  res.add("core.self_us_per_frame",
          ratio(traced_s * 1e9 - layer_ns, frames) / 1e3, "us");
  const double hits = count("cache/hit");
  const double evictions = count("cache/evict");
  res.add("cache.hit_ratio", ratio(hits, hits + count("cache/miss")),
          "fraction");
  const auto& lookup = rec.totals("cache.lookup");
  res.add("cache.lookup_us",
          ratio(lookup.self_ns, static_cast<double>(lookup.count)) / 1e3,
          "us");
  res.add("cache.inserts", count("cache/insert"), "count");
  res.add("cache.evictions", evictions, "count");
  res.add("cache.evict_scored_per_evict",
          ratio(static_cast<double>(state.scored), evictions), "count");
  res.add("ann.candidates_mean", hist_mean(registry, "ann/candidates"),
          "count");
  res.add("ann.rebuilds", count("ann/rebuilds"), "count");
  res.add("p2p.pull_hit_ratio", ratio(hits_of("p2p"), visits("p2p")),
          "fraction");
  res.add("p2p.round_ms_mean",
          hist_mean(registry, "pipeline/rung_us/p2p") / 1e3, "ms");
  const double dup = count("p2p/merge_dup");
  res.add("p2p.merge_dup_ratio", ratio(dup, dup + count("p2p/merged")),
          "fraction");
  res.add("net.events", static_cast<double>(events), "count");
  res.add("net.messages", static_cast<double>(messages), "count");
  res.add("bench.trace_overhead_pct", (traced_s / untraced_s - 1.0) * 100.0,
          "%");

  std::map<std::string, std::string> counts;
  counts["features.extract_calls"] = std::to_string(state.extract_calls);
  counts["dnn.infer_calls"] = std::to_string(state.infer_calls);
  counts["ann.candidates_mean"] =
      format_double(hist_mean(registry, "ann/candidates"));
  counts["cache.inserts"] = format_double(count("cache/insert"));
  counts["cache.evictions"] = format_double(evictions);
  counts["cache.evict_scored"] = std::to_string(state.scored);
  counts["net.events"] = std::to_string(events);
  check_recorded_counts(opt, counts, res);

  const std::string path =
      (std::filesystem::path(opt.out_dir) /
       (opt.workload + "-seed" + std::to_string(opt.seed) + ".spans.tsv"))
          .string();
  res.check(rec.write(path), "cannot write spans to " + path);
  std::printf("# spans written to %s\n", path.c_str());
  return res;
}

}  // namespace

bool is_device_workload(const std::string& name) {
  return name == "crowd-full" || name == "walk-local";
}

Result run_device_workload(const Options& opt) {
  const DeviceSpec spec = device_spec(opt);
  return opt.trace ? traced(opt, spec) : untraced(opt, spec);
}

int print_headline(const Options& opt) {
  Options crowd = opt;
  crowd.workload = "crowd-full";
  const DeviceSpec spec = device_spec(crowd);
  ExperimentMetrics with_cache;
  ExperimentMetrics without;
  for (int i = 0; i < spec.sub_scenarios; ++i) {
    ScenarioConfig full = sub_scenario(spec, opt.seed, i);
    ScenarioConfig nocache = full;
    nocache.pipeline = make_nocache_config();
    with_cache.merge(run_untraced(full).metrics);
    without.merge(run_untraced(nocache).metrics);
  }
  std::printf(
      "paper headline: crowd-full, seed %" PRIu64 " (%d sub-scenarios of "
      "%.0f s, %zu frames)\n"
      "  nocache  sim_latency_mean_ms %.2f  accuracy %.4f\n"
      "  full     sim_latency_mean_ms %.2f  accuracy %.4f\n"
      "  latency reduction %.1f%%, accuracy delta %+.4f\n",
      opt.seed, spec.sub_scenarios, to_seconds(spec.base.duration),
      with_cache.frames(), without.mean_latency_ms(), without.accuracy(),
      with_cache.mean_latency_ms(), with_cache.accuracy(),
      with_cache.reduction_vs_percent(without.mean_latency_ms()),
      with_cache.accuracy() - without.accuracy());
  return 0;
}

}  // namespace perfbench
