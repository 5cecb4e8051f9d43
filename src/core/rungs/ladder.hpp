#pragma once
// Declarative ladder specs and the rung registry/factory.
//
// Grammar: a spec is a comma-separated list of rung tokens, cheapest rung
// first, ending in "dnn". A token may carry a parenthesized argument list
// drawn from the rung's registered, typed argument set (token-level commas
// split only outside parentheses):
//
//   spec    := token ("," token)*
//   token   := name [ "(" arglist ")" ]
//   arglist := arg ("," arg)*
//   arg     := key [ "=" value ]
//   name    := "imu" | "temporal" | "regions" | "warm" | "local" | "exact"
//            | "p2p" | "edge" | "dnn"
//
// Registered arguments: "local(q8)" — the SQ8 quantized candidate scan in
// the local cache's index (DESIGN.md §8) — the region rung's
// "regions(grid=4,max_changed=0.5,ttl=2s)" (DESIGN.md §11), and the edge
// tier's "edge(shards=4,capacity=2048,ttl=30s,error_budget=0.25)"
// (DESIGN.md §10).
// Values are validated by the argument's registered kind: flags take no
// value; uints are positive integers; durations are positive integers with
// an optional s/ms/us suffix (bare = microseconds); fractions are floats
// in [0, 1].
//
// Validation (LadderSpec::parse throws std::invalid_argument):
//   * every token must be registered, non-empty, and appear at most once;
//   * tokens must appear in strictly increasing ladder rank — this both
//     enforces cheapest-first order and rejects "local" + "exact" together
//     (they share the cache-lookup rank: one lookup path, two rung types);
//   * every argument key must be registered for the named rung and appear
//     at most once, with a value matching its kind ("local(q9)",
//     "dnn(q8)", "edge(shards=0)" and "edge(ttl=abc)" are all rejected,
//     as is any malformed form);
//   * the spec must end with "dnn" (the ladder's unconditional answerer);
//   * "p2p" requires "local" (peer adverts merge into the approximate cache).
//
// "p2p" is a provisioning token: it gives each device a PeerCacheService
// (discovery, adverts, merge) but builds no per-frame rung, so frames never
// wait on the network for it. Merged entries answer as local-cache hits.
//
// The named make_*_config() presets are ladder specs (see config.cpp), and
// `apxsim --ladder 'imu,temporal,warm,local(q8),p2p,edge(shards=4),dnn'`
// runs any valid spec.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/rungs/rung.hpp"

namespace apx {

/// A parsed, validated ladder composition.
struct LadderSpec {
  std::vector<std::string> tokens;  ///< base names, rank order, ends "dnn"
  /// Parallel to `tokens`: the token's parenthesized argument, "" if none.
  std::vector<std::string> args;

  /// Parses and validates a spec string (grammar above); throws
  /// std::invalid_argument with a actionable message on any violation.
  static LadderSpec parse(std::string_view text);

  /// Derives the spec equivalent to a flag-driven config — the inverse of
  /// apply_ladder, used when PipelineConfig::ladder is empty.
  static LadderSpec from_config(const PipelineConfig& config);

  /// Canonical comma-joined form (round-trips through parse()).
  std::string to_string() const;

  /// `token` is the base name — has("local") is true for "local(q8)" too.
  bool has(std::string_view token) const noexcept;

  /// The canonical argument list carried by base-name `token` ("" when
  /// absent or bare): "q8" for "local(q8)", "shards=4,ttl=30s" for the
  /// corresponding edge token.
  std::string_view arg(std::string_view token) const noexcept;

  /// The value of the key=value argument `key` on base-name `token` (""
  /// when the token, the key, or a value is absent):
  /// arg_value("edge", "shards") == "4" for "edge(shards=4,ttl=30s)".
  std::string_view arg_value(std::string_view token,
                             std::string_view key) const noexcept;

  /// Whether `token` carries the argument `key` (flag or key=value form).
  bool has_arg(std::string_view token, std::string_view key) const noexcept;
};

/// Makes `spec` authoritative on `config`: overwrites every rung-coupled
/// field (enable_* flags, cache_mode) to match the spec and stores the
/// canonical spec string in config.ladder. Provisioning code (sim/runner)
/// keys off those flags, so they can never drift from the ladder.
void apply_ladder(PipelineConfig& config, const LadderSpec& spec);

/// Parses a grammar duration value: a positive integer with an optional
/// s/ms/us suffix ("30s", "500ms", "250us"; bare digits are microseconds).
/// Throws std::invalid_argument on malformed or non-positive input.
SimDuration parse_spec_duration(std::string_view value);

/// Canonical grammar form of a duration — the largest unit that divides it
/// exactly ("30s", "1500ms", "250us"). Inverse of parse_spec_duration.
std::string format_spec_duration(SimDuration d);

/// Token -> (ladder rank, factory). Built-in rungs self-register in the
/// singleton's constructor; extensions may add() more before any parse.
class RungRegistry {
 public:
  using Factory = std::unique_ptr<ReuseRung> (*)(const RungBuildContext&);

  /// One typed argument a rung accepts in its "name(arglist)" spec token.
  struct ArgSpec {
    /// Value validation applied at parse time.
    enum class Kind {
      kFlag,      ///< bare key, no value ("q8")
      kUint,      ///< positive integer ("shards=4")
      kDuration,  ///< positive integer + optional s/ms/us suffix ("ttl=30s")
      kFraction,  ///< float in [0, 1] ("error_budget=0.25")
      kRatio,     ///< float > 1 ("c=2": QALSH approximation ratio)
    };
    std::string key;
    Kind kind = Kind::kFlag;
  };

  struct Entry {
    std::string name;
    int rank = 0;  ///< ladder position class; specs must strictly increase
    /// Null for a provisioning-only token ("p2p"): it is valid in specs
    /// and sets its config flag, but build_ladder() makes no rung for it.
    Factory factory = nullptr;
    /// Arguments this rung accepts in "name(arglist)" spec tokens. Empty
    /// for most rungs; "local" registers {{"q8"}}, "edge" its four knobs.
    std::vector<ArgSpec> allowed_args;
  };

  static RungRegistry& instance();

  /// Registers a rung type; throws std::logic_error on a duplicate name.
  void add(std::string name, int rank, Factory factory,
           std::vector<ArgSpec> allowed_args = {});

  const Entry* find(std::string_view name) const noexcept;

  /// Registered tokens in rank order (ties in registration order).
  std::vector<std::string> names() const;

 private:
  RungRegistry();

  std::vector<Entry> entries_;
};

/// Instantiates the rung chain for `spec`; tokens without a factory are
/// skipped. The IMU rung doubles as the frame-admission hop, so it is
/// always first — even for specs without "imu", where it runs inert (zero
/// cost, no span); this keeps the event schedule identical across every
/// configuration.
std::vector<std::unique_ptr<ReuseRung>> build_ladder(
    const LadderSpec& spec, const RungBuildContext& ctx);

}  // namespace apx
