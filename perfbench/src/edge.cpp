// `edge-region`: one EdgeCacheService driven directly through query / feed /
// sweep, with no extraction, ladder or simulator on the request path.
//
// Set-up renders views of a fixed world (the same textures and views for
// every seed, as the device workloads' scene is), embeds them with MiniCnn,
// builds the service and preloads it past capacity, so every admitted feed
// evicts. It runs several times; the median is reported, and phases A and B
// each start from a freshly set-up service, so the state either phase sees
// depends on the seed and not on how fast the other phase ran.
//
// Request i of a run is a pure function of (seed, i): its kind (5% feed,
// 95% query, plus a sweep every `sweep_every` requests), its class and view,
// and a small feature jitter that keeps it within the H-kNN threshold of
// the view it came from. Request i also carries simulated time
// start + i * sim_per_request, the clock the TTL sweeps run on.
//
// Phase A is a closed loop: one client per hardware thread, each issuing
// its next request when the previous one returns. Phase B is an open loop at
// a fixed offered rate: request j is due at start + j / rate, whether or
// not earlier ones have finished, and its latency runs from its due time.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "src/core/config.hpp"
#include "src/edge/edge_cache.hpp"
#include "src/features/extractor.hpp"
#include "src/features/minicnn.hpp"
#include "src/image/scene.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/rng.hpp"
#include "src/workloads.hpp"

namespace perfbench {
namespace {

using namespace apx;

struct EdgeSpec {
  int classes = 64;
  double zipf_s = 0.9;
  int views_per_class = 8;
  int setups = 3;  ///< at least 2: phases A and B use the last two
  /// Preload feeds, as a multiple of the service's total capacity.
  double preload_factor = 2.0;
  double feed_share = 0.05;
  /// L2 norm of the per-request feature jitter (the CNN's H-kNN threshold
  /// is 0.045, so a jittered key stays a near-duplicate of its view).
  float jitter_norm = 0.015f;
  /// Simulated time each request advances the clock. A sweep runs every
  /// simulated second (EdgeParams::sweep_interval); the preloaded entries
  /// outlive a run, so sweeps scan every shard without expiry waves.
  SimDuration sim_per_request = 50;
  /// Phase B's offered rate: about a sixth of phase A's capacity on a
  /// 4-thread host, so queueing stays light.
  double open_rate_per_s = 5000.0;
  /// Requests slower than this fail (EdgeParams::lookup_timeout).
  double timeout_us = 15000.0;
};

EdgeSpec edge_spec(const Options& opt) {
  EdgeSpec spec;
  if (opt.smoke) {
    spec.views_per_class = 2;
    spec.setups = 2;
    spec.preload_factor = 0.25;
    spec.open_rate_per_s = 1000.0;
  }
  return spec;
}

enum class Kind { kQuery, kFeed, kSweep };

struct Request {
  Kind kind = Kind::kQuery;
  Label label = kNoLabel;
  SimTime now = 0;
  FeatureVec key;
};

/// The immutable inputs every client thread reads.
struct World {
  EdgeSpec spec;
  std::uint64_t seed = 1;
  std::size_t dim = 0;
  std::vector<FeatureVec> views;  ///< class * views_per_class + view
  ZipfSampler popularity{1, 0.0};
  EdgeParams params;
  std::uint64_t sweep_every = 0;  ///< requests between TTL sweeps
  SimTime start = 0;              ///< simulated time of request 0
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  return (seed + 1) * 0x9E3779B97F4A7C15ULL ^ (i + 1) * 0xBF58476D1CE4E5B9ULL;
}

/// Request `i` of the stream `stream_seed` names.
void make_request(const World& w, std::uint64_t stream_seed, std::uint64_t i,
                  Request& req) {
  Rng rng{mix(stream_seed, i)};
  req.now = w.start + static_cast<SimTime>(i) * w.spec.sim_per_request;
  if (i > 0 && w.sweep_every > 0 && i % w.sweep_every == 0) {
    req.kind = Kind::kSweep;
    return;
  }
  req.kind = rng.chance(w.spec.feed_share) ? Kind::kFeed : Kind::kQuery;
  req.label = static_cast<Label>(w.popularity.sample(rng));
  const auto view = static_cast<std::size_t>(req.label) *
                        static_cast<std::size_t>(w.spec.views_per_class) +
                    rng.uniform_u64(static_cast<std::uint64_t>(
                        w.spec.views_per_class));
  const FeatureVec& base = w.views[view];
  req.key.resize(base.size());
  const double sigma =
      w.spec.jitter_norm / std::sqrt(static_cast<double>(base.size()));
  double norm = 0.0;
  for (std::size_t d = 0; d < base.size(); ++d) {
    req.key[d] = base[d] + static_cast<float>(rng.normal(0.0, sigma));
    norm += static_cast<double>(req.key[d]) * req.key[d];
  }
  const auto inv = static_cast<float>(1.0 / std::sqrt(norm));
  for (float& x : req.key) x *= inv;
}

/// The world (textures, views) and the preload stream are fixed; served
/// requests follow --seed.
constexpr std::uint64_t kWorldSeed = 1;
constexpr std::uint64_t kPreloadStream = 0x5eedf00dULL;

struct Built {
  World world;
  std::unique_ptr<EdgeCacheService> service;
  std::uint64_t preload_feeds = 0;
};

/// Renders and embeds the world's views, builds the service and preloads it.
/// With a recorder, rendering and extraction are traced.
Built set_up(const EdgeSpec& spec, std::uint64_t seed, SpanRecorder* rec) {
  Built b;
  World& w = b.world;
  w.spec = spec;
  w.seed = seed;
  SceneGenerator::Config scene;
  scene.num_classes = spec.classes;
  scene.seed = kWorldSeed;
  const SceneGenerator scenes(scene);
  const std::unique_ptr<FeatureExtractor> extractor = make_cnn_extractor();
  w.dim = extractor->dim();
  const auto n_render = rec ? rec->intern("video.next_frame") : 0;
  const auto n_extract = rec ? rec->intern("features.extract") : 0;
  Rng rng{mix(kWorldSeed, 0xabcdef)};
  for (int c = 0; c < spec.classes; ++c) {
    for (int v = 0; v < spec.views_per_class; ++v) {
      ViewParams view = ViewParams{}.jittered(rng, 0.5f);
      view.noise_sigma = 0.02f;
      view.noise_seed = rng.next_u64();
      Image img;
      {
        ScopedSpan span(rec, n_render);
        img = scenes.render(c, view);
      }
      ScopedSpan span(rec, n_extract);
      w.views.push_back(extractor->extract(img));
    }
  }
  w.popularity = ZipfSampler(static_cast<std::size_t>(spec.classes),
                             spec.zipf_s);
  const PipelineConfig pipeline = make_full_system_config();
  w.params = pipeline.edge;
  w.params.cache = pipeline.cache;
  w.params.cache.hknn.max_distance = extractor->recommended_max_distance();
  w.sweep_every = static_cast<std::uint64_t>(w.params.sweep_interval /
                                             spec.sim_per_request);
  b.service = std::make_unique<EdgeCacheService>(w.dim, w.params);

  // The preload belongs to the fixed world: every seed starts from the
  // same service state, and the seed varies only the served requests.
  // Preload entries are spread over one TTL before request 0.
  const double capacity = static_cast<double>(w.params.capacity) *
                          static_cast<double>(w.params.shards);
  b.preload_feeds = static_cast<std::uint64_t>(capacity * spec.preload_factor);
  w.start = w.params.ttl;
  Request req;
  for (std::uint64_t i = 0; i < b.preload_feeds; ++i) {
    make_request(w, kPreloadStream, i + 1, req);
    if (req.kind == Kind::kSweep) continue;
    const SimTime t = static_cast<SimTime>(
        static_cast<double>(i) * static_cast<double>(w.params.ttl) /
        static_cast<double>(b.preload_feeds));
    b.service->feed(req.key, req.label, 1.0f, t);
  }
  b.preload_feeds = b.service->counters().get("feed");
  return b;
}

/// What one client thread saw.
struct ClientStats {
  std::uint64_t ops = 0;
  std::uint64_t queries = 0;
  std::uint64_t feeds = 0;
  std::uint64_t swept = 0;
  std::uint64_t errors = 0;
  std::uint64_t votes = 0;
  std::uint64_t correct = 0;
  std::uint64_t bad_labels = 0;
  std::uint64_t slow = 0;
  /// Per-request samples are kept only in phase B, whose request count is
  /// fixed; phase A's grows with the host's speed.
  bool keep_samples = false;
  std::vector<double> sim_latency_us;  ///< per query, simulated
  std::vector<double> latency_us;  ///< phase B queries, due to completion
  std::vector<std::uint32_t> latency_second;  ///< phase B second of each
  std::vector<double> queue_wait_us;   ///< phase B, due time to call start
  std::vector<double> gen_late_us;     ///< phase B, wake-up past due time
  std::vector<std::uint64_t> per_shard;  ///< traced runs only
  SpanRecorder rec;
  const SpanRecorder::NameId query_span = rec.intern("edge.query");
  const SpanRecorder::NameId feed_span = rec.intern("edge.feed");
  const SpanRecorder::NameId sweep_span = rec.intern("edge.sweep");

  void merge(const ClientStats& o) {
    ops += o.ops;
    queries += o.queries;
    feeds += o.feeds;
    swept += o.swept;
    errors += o.errors;
    votes += o.votes;
    correct += o.correct;
    bad_labels += o.bad_labels;
    slow += o.slow;
    const auto append = [](std::vector<double>& dst,
                           const std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(sim_latency_us, o.sim_latency_us);
    append(latency_us, o.latency_us);
    latency_second.insert(latency_second.end(), o.latency_second.begin(),
                          o.latency_second.end());
    append(queue_wait_us, o.queue_wait_us);
    append(gen_late_us, o.gen_late_us);
    if (per_shard.size() < o.per_shard.size()) {
      per_shard.resize(o.per_shard.size());
    }
    for (std::size_t s = 0; s < o.per_shard.size(); ++s) {
      per_shard[s] += o.per_shard[s];
    }
    rec.merge_totals(o.rec);
  }
};

/// Sends one request; traced runs wrap the call in a span.
void serve(EdgeCacheService& svc, const World& w, const Request& req,
           std::uint64_t index, bool traced, ClientStats& st) {
  ++st.ops;
  try {
    switch (req.kind) {
      case Kind::kQuery: {
        ++st.queries;
        CacheResult res;
        {
          ScopedSpan span(traced ? &st.rec : nullptr, st.query_span, index);
          res = svc.query(req.key, req.now);
        }
        if (st.keep_samples) {
          st.sim_latency_us.push_back(static_cast<double>(res.latency));
        }
        if (res.vote.has_value()) {
          ++st.votes;
          if (res.vote->label == req.label) ++st.correct;
          if (res.vote->label < 0 || res.vote->label >= w.spec.classes) {
            ++st.bad_labels;
          }
        }
        break;
      }
      case Kind::kFeed: {
        ++st.feeds;
        ScopedSpan span(traced ? &st.rec : nullptr, st.feed_span, index);
        svc.feed(req.key, req.label, 1.0f, req.now);
        break;
      }
      case Kind::kSweep: {
        ScopedSpan span(traced ? &st.rec : nullptr, st.sweep_span, index);
        st.swept += svc.sweep(req.now);
        break;
      }
    }
  } catch (const std::exception&) {
    ++st.errors;
  }
  if (traced && req.kind != Kind::kSweep) {
    const std::size_t shard = svc.shard_of(req.key);
    if (st.per_shard.size() <= shard) st.per_shard.resize(shard + 1);
    ++st.per_shard[shard];
  }
}

unsigned client_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

struct PhaseOutcome {
  ClientStats stats;
  double seconds = 0.0;
  std::uint64_t next_index = 0;  ///< first request index after this phase
};

/// Closed loop: every client sends its next request when the last returns.
PhaseOutcome closed_loop(EdgeCacheService& svc, const World& w,
                         std::uint64_t first_index, double seconds,
                         bool traced) {
  const unsigned threads = client_threads();
  std::vector<ClientStats> stats(threads);
  std::atomic<std::uint64_t> next{first_index};
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> clients;
    for (unsigned t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        Request req;
        ClientStats& st = stats[t];
        while (now_ns() < deadline) {
          const std::uint64_t i = next.fetch_add(1);
          make_request(w, w.seed, i, req);
          serve(svc, w, req, i, traced, st);
        }
      });
    }
  }
  PhaseOutcome out;
  out.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  out.next_index = next.load();
  for (const ClientStats& st : stats) out.stats.merge(st);
  return out;
}

/// Open loop at `rate` requests/s: client t owns every threads-th slot of
/// one global schedule and waits for each slot's due time before issuing.
PhaseOutcome open_loop(EdgeCacheService& svc, const World& w,
                       std::uint64_t first_index, double seconds, double rate,
                       bool traced) {
  const unsigned threads = client_threads();
  const auto slots = static_cast<std::uint64_t>(seconds * rate);
  std::vector<ClientStats> stats(threads);
  const std::int64_t start = now_ns() + 2'000'000;  // let every client start
  const double period_ns = 1e9 / rate;
  {
    std::vector<std::jthread> clients;
    for (unsigned t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        Request req;
        ClientStats& st = stats[t];
        st.keep_samples = true;
        for (std::uint64_t j = t; j < slots; j += threads) {
          const std::uint64_t i = first_index + j;
          make_request(w, w.seed, i, req);
          const auto due =
              start + static_cast<std::int64_t>(static_cast<double>(j) *
                                                period_ns);
          std::int64_t now = now_ns();
          const bool idle = now < due;
          // Sleep most of the gap and spin the last ~80 us: a sleep alone
          // overshoots by tens of microseconds, which would swamp sub-100 us
          // requests, while spinning longer starves the hyperthread sibling
          // that may be serving another client's request.
          if (due - now > 100'000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(due - now - 80'000));
          }
          while ((now = now_ns()) < due) {
            __builtin_ia32_pause();
          }
          serve(svc, w, req, i, traced, st);
          const std::int64_t done = now_ns();
          const double latency = static_cast<double>(done - due) / 1e3;
          // A device waits for its query; feeds and sweeps run behind it and
          // show up only as the lock time they cost the queries.
          if (req.kind == Kind::kQuery) {
            st.latency_us.push_back(latency);
            st.latency_second.push_back(
                static_cast<std::uint32_t>(static_cast<double>(j) / rate));
          }
          const double wait = static_cast<double>(now - due) / 1e3;
          st.queue_wait_us.push_back(wait);
          if (idle) st.gen_late_us.push_back(wait);
          if (latency > w.spec.timeout_us) ++st.slow;
        }
      });
    }
  }
  PhaseOutcome out;
  out.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  out.next_index = first_index + slots;
  for (const ClientStats& st : stats) out.stats.merge(st);
  return out;
}

/// Phase B query latency quantile `q` of each second of due times (about
/// 4750 queries a second at the offered rate), median over the seconds.
/// One stalled second (a descheduled client thread on a shared host) moves
/// the run's overall p99 by far more than the code does; it moves this
/// median by one rank.
double per_second_median(const ClientStats& st, double q) {
  std::map<std::uint32_t, std::vector<double>> by_second;
  for (std::size_t i = 0; i < st.latency_us.size(); ++i) {
    by_second[st.latency_second[i]].push_back(st.latency_us[i]);
  }
  std::vector<double> per_second;
  for (auto& [second, values] : by_second) {
    per_second.push_back(quantile(std::move(values), q));
  }
  return median(std::move(per_second));
}

/// Every shard's counters summed.
Counter shard_totals(const EdgeCacheService& svc) {
  Counter total;
  for (std::size_t s = 0; s < svc.shard_count(); ++s) {
    for (const auto& [key, n] : svc.shard(s).counters().items()) {
      total.inc(key, n);
    }
  }
  return total;
}

/// A set-up service and its counters when set-up ended, so a phase's work
/// shows as differences.
struct Served {
  explicit Served(Built b)
      : built(std::move(b)),
        before(built.service->counters()),
        shards_before(shard_totals(*built.service)) {}

  EdgeCacheService& service() { return *built.service; }
  const World& world() const { return built.world; }
  std::uint64_t delta(const char* key) const {
    return built.service->counters().get(key) - before.get(key);
  }
  std::uint64_t shard_delta(const char* key) const {
    return shard_totals(*built.service).get(key) - shards_before.get(key);
  }

  Built built;
  Counter before;
  Counter shards_before;
};

/// Checks that every request of a phase is accounted for by the counters of
/// the service it ran on.
void check_accounting(const Served& s, const ClientStats& st, Result& res) {
  const Counter& c = s.built.service->counters();
  res.check(st.errors == 0, std::to_string(st.errors) + " requests threw");
  res.check(s.delta("lookup") == st.queries,
            "edge lookups counted differ from queries sent");
  res.check(s.delta("feed") == st.feeds,
            "edge feeds counted differ from feeds sent");
  res.check(c.get("admit") + c.get("reject_budget") == c.get("feed"),
            "admitted + rejected feeds differ from feeds");
  res.check(s.delta("swept") == st.swept,
            "entries swept differ from the sweeps' own counts");
  res.check(st.bad_labels == 0, "a vote returned a label outside the world");
  res.check(st.votes > 0, "no query was served from the cache");
}

Result untraced(const Options& opt, const EdgeSpec& spec) {
  Result res;
  std::vector<double> setups;
  std::vector<Built> last_two;
  for (int s = 0; s < spec.setups; ++s) {
    const double rate_before = reference_rate();
    const std::int64_t t0 = now_ns();
    last_two.push_back(set_up(spec, opt.seed, nullptr));
    const auto host_s = static_cast<double>(now_ns() - t0) * 1e-9;
    setups.push_back(host_s * host_scale(rate_before, reference_rate()));
    if (last_two.size() > 2) last_two.erase(last_two.begin());
  }
  Served for_a(std::move(last_two[0]));
  Served for_b(std::move(last_two[1]));
  // Phase A's rate is not scaled by host_scale(): a single-threaded
  // reference kernel does not follow the speed of four busy clients.
  const PhaseOutcome a =
      closed_loop(for_a.service(), for_a.world(), 0, opt.seconds / 2, false);
  const PhaseOutcome bo = open_loop(for_b.service(), for_b.world(), 0,
                                    opt.seconds / 2, spec.open_rate_per_s,
                                    false);
  check_accounting(for_a, a.stats, res);
  check_accounting(for_b, bo.stats, res);
  res.attempted = a.stats.ops + bo.stats.ops;
  res.failed = a.stats.errors + bo.stats.errors;

  // Quality and simulated cost come from phase B: a fixed request sequence
  // per seed, from a freshly set-up service. Phase A's length, and with it
  // the state its feeds leave behind, depends on the host's speed.
  const ClientStats& fixed = bo.stats;
  const double queries = static_cast<double>(fixed.queries);
  const double hit_rate = ratio(static_cast<double>(fixed.votes), queries);
  // Energy a device would spend per frame served through this tier, by the
  // pipeline's own cost model: lookup time at the active-CPU power draw,
  // plus a full inference for every miss.
  const PipelineConfig pipeline = make_full_system_config();
  const ModelProfile model;
  double energy = 0.0;
  for (const double us : fixed.sim_latency_us) {
    energy += us / 1e3 * pipeline.cpu_active_power_mw / 1000.0;
  }
  energy += (queries - static_cast<double>(fixed.votes)) * model.energy_mj;

  res.add("setup_s", median(setups), "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MiB");
  res.add("host_fps", static_cast<double>(a.stats.queries) / a.seconds,
          "frames/s");
  res.add("sim_latency_mean_ms",
          ratio(std::accumulate(fixed.sim_latency_us.begin(),
                                fixed.sim_latency_us.end(), 0.0),
                queries) /
              1e3,
          "ms");
  res.add("sim_latency_p99_ms", quantile(fixed.sim_latency_us, 0.99) / 1e3,
          "ms");
  res.add("accuracy",
          ratio(static_cast<double>(fixed.correct),
                static_cast<double>(fixed.votes)),
          "fraction");
  res.add("reuse_ratio", hit_rate, "fraction");
  res.add("energy_mj_per_frame", ratio(energy, queries), "mJ");
  res.add("ok_ratio",
          1.0 - ratio(static_cast<double>(res.failed + bo.stats.slow),
                      static_cast<double>(res.attempted)),
          "fraction");
  res.add("serve_ops_per_s", static_cast<double>(a.stats.ops) / a.seconds,
          "ops/s");
  res.add("serve_p50_us", per_second_median(bo.stats, 0.5), "us");
  res.add("serve_hit_rate", hit_rate, "fraction");
  // The query p99 is reported but not gated: on a shared host it varies
  // several-fold between runs of the same code.
  std::printf("# edge-region: %u clients; phase A %llu ops in %.2f s; "
              "phase B %llu ops at %.0f/s offered (%zu query latency "
              "samples; per-second p99, median over seconds: %.1f us); "
              "%d set-ups\n",
              client_threads(), static_cast<unsigned long long>(a.stats.ops),
              a.seconds, static_cast<unsigned long long>(bo.stats.ops),
              spec.open_rate_per_s, bo.stats.latency_us.size(),
              per_second_median(bo.stats, 0.99), spec.setups);

  std::map<std::string, std::string> counts;
  counts["features.extract_calls"] = std::to_string(for_a.world().views.size());
  counts["edge.preload_feeds"] = std::to_string(for_a.built.preload_feeds);
  counts["edge.preload_admits"] = std::to_string(for_a.before.get("admit"));
  check_recorded_counts(opt, counts, res);
  return res;
}

Result traced(const Options& opt, const EdgeSpec& spec) {
  Result res;
  SpanRecorder setup_rec;
  Served for_a(set_up(spec, opt.seed, &setup_rec));
  Served for_b(set_up(spec, opt.seed, nullptr));
  std::vector<MetricsRegistry> registries(for_a.service().shard_count() +
                                          for_b.service().shard_count());
  std::size_t next_registry = 0;
  for (Served* served : {&for_a, &for_b}) {
    for (std::size_t s = 0; s < served->service().shard_count(); ++s) {
      served->service().shard(s).attach_metrics(registries[next_registry++]);
    }
  }

  // The overhead reference: the same closed loop untraced, then traced.
  const double quarter = opt.seconds / 4;
  const PhaseOutcome plain =
      closed_loop(for_a.service(), for_a.world(), 0, quarter, false);
  const PhaseOutcome a = closed_loop(for_a.service(), for_a.world(),
                                     plain.next_index, quarter, true);
  const PhaseOutcome bo = open_loop(for_b.service(), for_b.world(), 0,
                                    opt.seconds / 2, spec.open_rate_per_s,
                                    true);
  ClientStats phase_a;
  phase_a.merge(plain.stats);
  phase_a.merge(a.stats);
  check_accounting(for_a, phase_a, res);
  check_accounting(for_b, bo.stats, res);
  res.attempted = phase_a.ops + bo.stats.ops;
  res.failed = phase_a.errors + bo.stats.errors;

  ClientStats traced_stats;
  traced_stats.merge(a.stats);
  traced_stats.merge(bo.stats);
  SpanRecorder& rec = traced_stats.rec;
  rec.merge_totals(setup_rec);

  const auto& render = rec.totals("video.next_frame");
  const auto& extract = rec.totals("features.extract");
  res.add("video.next_frame_us",
          ratio(render.wall_ns, static_cast<double>(render.count)) / 1e3, "us");
  res.add("features.extract_calls", static_cast<double>(extract.count),
          "count");
  res.add("features.extract_us_p50", quantile(extract.durations_ns, 0.5) / 1e3,
          "us");
  res.add("features.extract_us_p99",
          quantile(extract.durations_ns, 0.99) / 1e3, "us");
  res.add("features.gmac_per_s",
          ratio(MiniCnn::plan().total_macs() *
                    static_cast<double>(extract.count),
                extract.wall_ns),
          "GMAC/s");

  const auto both = [&](const char* key) {
    return static_cast<double>(for_a.shard_delta(key) +
                               for_b.shard_delta(key));
  };
  const double hits = both("hit");
  res.add("cache.hit_ratio", ratio(hits, hits + both("miss")), "fraction");
  res.add("cache.inserts", both("insert"), "count");
  res.add("cache.evictions", both("evict"), "count");
  MetricsRegistry pooled;
  for (const MetricsRegistry& r : registries) pooled.merge(r);
  const auto* cand = pooled.find_histogram("ann/candidates");
  res.add("ann.candidates_mean", cand && cand->count ? cand->mean() : 0.0,
          "count");
  res.add("ann.rebuilds",
          static_cast<double>(pooled.counter_value("ann/rebuilds")), "count");

  const auto& q = rec.totals("edge.query");
  const auto& f = rec.totals("edge.feed");
  const auto& sw = rec.totals("edge.sweep");
  res.add("edge.query_us_p50", quantile(q.durations_ns, 0.5) / 1e3, "us");
  res.add("edge.query_us_p99", quantile(q.durations_ns, 0.99) / 1e3, "us");
  res.add("edge.feed_us_p50", quantile(f.durations_ns, 0.5) / 1e3, "us");
  res.add("edge.feed_us_p99", quantile(f.durations_ns, 0.99) / 1e3, "us");
  res.add("edge.sweep_ms",
          ratio(sw.wall_ns, static_cast<double>(sw.count)) / 1e6, "ms");
  res.add("edge.swept", static_cast<double>(phase_a.swept + bo.stats.swept),
          "count");
  res.add("edge.admit_ratio",
          ratio(static_cast<double>(for_a.delta("admit") +
                                    for_b.delta("admit")),
                static_cast<double>(for_a.delta("feed") +
                                    for_b.delta("feed"))),
          "fraction");
  res.add("edge.queue_wait_us_p99", quantile(bo.stats.queue_wait_us, 0.99),
          "us");
  double max_shard = 0.0;
  double sum_shard = 0.0;
  for (const std::uint64_t n : traced_stats.per_shard) {
    max_shard = std::max(max_shard, static_cast<double>(n));
    sum_shard += static_cast<double>(n);
  }
  res.add("edge.shard_skew",
          ratio(max_shard, sum_shard / static_cast<double>(
                                           for_a.service().shard_count())),
          "ratio");
  res.add("bench.gen_late_us_p99", quantile(bo.stats.gen_late_us, 0.99), "us");
  const double plain_rate =
      static_cast<double>(plain.stats.ops) / plain.seconds;
  const double traced_rate = static_cast<double>(a.stats.ops) / a.seconds;
  res.add("bench.trace_overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0,
          "%");
  return res;
}

}  // namespace

Result run_edge_workload(const Options& opt) {
  const EdgeSpec spec = edge_spec(opt);
  return opt.trace ? traced(opt, spec) : untraced(opt, spec);
}

}  // namespace perfbench
