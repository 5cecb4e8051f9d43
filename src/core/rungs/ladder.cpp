#include "src/core/rungs/ladder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "src/core/rungs/dnn.hpp"
#include "src/core/rungs/edge.hpp"
#include "src/core/rungs/exact_cache.hpp"
#include "src/core/rungs/imu_gate.hpp"
#include "src/core/rungs/local_cache.hpp"
#include "src/core/rungs/regions.hpp"
#include "src/core/rungs/temporal.hpp"
#include "src/core/rungs/warm_tier.hpp"

namespace apx {

namespace {

using ArgKind = RungRegistry::ArgSpec::Kind;

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

[[noreturn]] void bad_spec(std::string_view text, const std::string& why) {
  throw std::invalid_argument("ladder spec '" + std::string(text) +
                              "': " + why);
}

bool all_digits(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// Positive integer; empty return means malformed.
bool parse_uint(std::string_view s, std::uint64_t& out) {
  if (!all_digits(s) || s.size() > 18) return false;
  out = 0;
  for (const char c : s) out = out * 10 + static_cast<std::uint64_t>(c - '0');
  return out > 0;
}

/// Float in [0, 1]; false means malformed.
bool parse_fraction(std::string_view s, float& out) {
  if (s.empty()) return false;
  const std::string buf{s};
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (!(v >= 0.0 && v <= 1.0)) return false;
  out = static_cast<float>(v);
  return true;
}

/// Float strictly greater than 1 (capped at 64); false means malformed.
bool parse_ratio(std::string_view s, float& out) {
  if (s.empty()) return false;
  const std::string buf{s};
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (!(v > 1.0 && v <= 64.0)) return false;
  out = static_cast<float>(v);
  return true;
}

bool parse_duration(std::string_view s, SimDuration& out) {
  std::string_view digits = s;
  SimDuration unit = kMicrosecond;
  if (digits.size() >= 2 && digits.substr(digits.size() - 2) == "ms") {
    unit = kMillisecond;
    digits.remove_suffix(2);
  } else if (digits.size() >= 2 && digits.substr(digits.size() - 2) == "us") {
    digits.remove_suffix(2);
  } else if (!digits.empty() && digits.back() == 's') {
    unit = kSecond;
    digits.remove_suffix(1);
  }
  std::uint64_t n = 0;
  if (!parse_uint(digits, n)) return false;
  out = static_cast<SimDuration>(n) * unit;
  return true;
}

/// Validates one "key" / "key=value" piece of a token's argument list
/// against the rung's registered argument set.
void check_arg(std::string_view text, std::string_view rung,
               const std::vector<RungRegistry::ArgSpec>& allowed,
               std::string_view key, bool has_value,
               std::string_view value) {
  const auto it =
      std::find_if(allowed.begin(), allowed.end(),
                   [key](const RungRegistry::ArgSpec& a) {
                     return a.key == key;
                   });
  if (it == allowed.end()) {
    bad_spec(text, "rung '" + std::string(rung) +
                       "' does not accept argument '" + std::string(key) +
                       "'");
  }
  const std::string where =
      "argument '" + std::string(key) + "' of rung '" + std::string(rung) +
      "'";
  switch (it->kind) {
    case ArgKind::kFlag:
      if (has_value) bad_spec(text, where + " takes no value");
      break;
    case ArgKind::kUint: {
      std::uint64_t n = 0;
      if (!has_value || !parse_uint(value, n)) {
        bad_spec(text, where + " needs a positive integer value");
      }
      break;
    }
    case ArgKind::kDuration: {
      SimDuration d = 0;
      if (!has_value || !parse_duration(value, d)) {
        bad_spec(text, where +
                           " needs a positive duration value "
                           "(e.g. 30s, 500ms, 250us)");
      }
      break;
    }
    case ArgKind::kFraction: {
      float f = 0.0f;
      if (!has_value || !parse_fraction(value, f)) {
        bad_spec(text, where + " needs a value in [0, 1]");
      }
      break;
    }
    case ArgKind::kRatio: {
      float f = 0.0f;
      if (!has_value || !parse_ratio(value, f)) {
        bad_spec(text, where + " needs a ratio value in (1, 64]");
      }
      break;
    }
  }
}

}  // namespace

SimDuration parse_spec_duration(std::string_view value) {
  SimDuration d = 0;
  if (!parse_duration(value, d)) {
    throw std::invalid_argument("malformed duration '" + std::string(value) +
                                "' (expected e.g. 30s, 500ms, 250us)");
  }
  return d;
}

std::string format_spec_duration(SimDuration d) {
  if (d > 0 && d % kSecond == 0) return std::to_string(d / kSecond) + "s";
  if (d > 0 && d % kMillisecond == 0) {
    return std::to_string(d / kMillisecond) + "ms";
  }
  return std::to_string(d) + "us";
}

LadderSpec LadderSpec::parse(std::string_view text) {
  const RungRegistry& registry = RungRegistry::instance();
  LadderSpec spec;
  int last_rank = -1;
  std::size_t pos = 0;
  while (true) {
    // Token-level commas split only outside parentheses, so argument lists
    // like "edge(shards=4,ttl=30s)" stay one token.
    std::size_t comma = text.size();
    int depth = 0;
    for (std::size_t i = pos; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '(') ++depth;
      if (c == ')' && depth > 0) --depth;
      if (c == ',' && depth == 0) {
        comma = i;
        break;
      }
    }
    const std::string_view token = trim(text.substr(pos, comma - pos));
    if (token.empty()) bad_spec(text, "empty rung token");
    // Split "name(arglist)" — a bare name has no parentheses at all.
    std::string_view name = token;
    std::string_view arglist;
    const std::size_t paren = token.find('(');
    if (paren != std::string_view::npos) {
      if (token.back() != ')' || paren == 0 || paren + 2 > token.size() - 1) {
        bad_spec(text, "malformed token '" + std::string(token) +
                           "' (expected name or name(args))");
      }
      name = trim(token.substr(0, paren));
      arglist = trim(token.substr(paren + 1, token.size() - paren - 2));
      if (arglist.empty()) {
        bad_spec(text, "empty argument in '" + std::string(token) + "'");
      }
    }
    const RungRegistry::Entry* entry = registry.find(name);
    if (entry == nullptr) {
      bad_spec(text, "unknown rung '" + std::string(name) + "'");
    }
    // Validate each "key" / "key=value" piece and rebuild the canonical
    // (trimmed, comma-joined) argument string stored in the spec.
    std::string canonical;
    std::vector<std::string_view> seen_keys;
    std::size_t apos = 0;
    while (!arglist.empty()) {
      std::size_t acomma = arglist.find(',', apos);
      if (acomma == std::string_view::npos) acomma = arglist.size();
      const std::string_view piece = trim(arglist.substr(apos, acomma - apos));
      if (piece.empty()) {
        bad_spec(text, "empty argument in '" + std::string(token) + "'");
      }
      const std::size_t eq = piece.find('=');
      const bool has_value = eq != std::string_view::npos;
      const std::string_view key = trim(piece.substr(0, eq));
      const std::string_view value =
          has_value ? trim(piece.substr(eq + 1)) : std::string_view{};
      if (key.empty()) {
        bad_spec(text, "malformed argument '" + std::string(piece) +
                           "' in '" + std::string(token) + "'");
      }
      check_arg(text, name, entry->allowed_args, key, has_value, value);
      if (std::find(seen_keys.begin(), seen_keys.end(), key) !=
          seen_keys.end()) {
        bad_spec(text, "duplicate argument '" + std::string(key) +
                           "' in '" + std::string(token) + "'");
      }
      seen_keys.push_back(key);
      if (!canonical.empty()) canonical += ',';
      canonical += key;
      if (has_value) {
        canonical += '=';
        canonical += value;
      }
      if (acomma == arglist.size()) break;
      apos = acomma + 1;
    }
    if (spec.has(name)) {
      bad_spec(text, "duplicate rung '" + std::string(name) + "'");
    }
    if (entry->rank <= last_rank) {
      // Covers both cheapest-first order violations and mutually exclusive
      // same-rank rungs (local + exact: one cache-lookup slot).
      bad_spec(text, "rung '" + std::string(name) +
                         "' out of ladder order (cheapest first, at most "
                         "one cache rung)");
    }
    last_rank = entry->rank;
    spec.tokens.emplace_back(name);
    spec.args.push_back(std::move(canonical));
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  if (spec.tokens.back() != "dnn") {
    bad_spec(text, "must end with 'dnn' (the unconditional answerer)");
  }
  if (spec.has("p2p") && !spec.has("local")) {
    bad_spec(text,
             "'p2p' requires 'local' (peer adverts merge into the local "
             "approximate cache)");
  }
  // The QALSH guarantee knobs configure the query-aware backend, so they
  // are meaningless without the 'qalsh' flag that selects it.
  if (!spec.has_arg("local", "qalsh")) {
    for (const std::string_view key : {"c", "delta", "beta"}) {
      if (spec.has_arg("local", key)) {
        bad_spec(text, "argument '" + std::string(key) +
                           "' of rung 'local' requires the 'qalsh' flag");
      }
    }
  } else {
    // Tighter-than-kFraction ranges the backend's constructor enforces:
    // reject here so a bad spec fails at parse, not at provisioning.
    float f = 0.0f;
    if (spec.has_arg("local", "delta") &&
        (!parse_fraction(spec.arg_value("local", "delta"), f) || f <= 0.0f ||
         f >= 1.0f)) {
      bad_spec(text, "argument 'delta' of rung 'local' needs a value in "
                     "(0, 1)");
    }
    if (spec.has_arg("local", "beta") &&
        (!parse_fraction(spec.arg_value("local", "beta"), f) || f <= 0.0f)) {
      bad_spec(text, "argument 'beta' of rung 'local' needs a value in "
                     "(0, 1]");
    }
  }
  return spec;
}

namespace {

/// Formats a fraction the way parse() accepts it back ("%g": no trailing
/// zeros, so 0.25f round-trips as "0.25").
std::string format_fraction(float f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(f));
  return buf;
}

/// Canonical argument list of an edge token: only the fields that differ
/// from the EdgeParams defaults, in registration order.
std::string edge_args(const EdgeParams& p) {
  const EdgeParams def;
  std::string out;
  const auto add = [&out](const char* key, const std::string& value) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  };
  if (p.shards != def.shards) add("shards", std::to_string(p.shards));
  if (p.capacity != def.capacity) add("capacity", std::to_string(p.capacity));
  if (p.ttl != def.ttl) add("ttl", format_spec_duration(p.ttl));
  if (p.error_budget != def.error_budget) {
    add("error_budget", format_fraction(p.error_budget));
  }
  return out;
}

/// Canonical argument list of a local token: the flag set (q8, qalsh) plus
/// the QALSH guarantee knobs that differ from the QalshParams defaults, in
/// registration order.
std::string local_args(const PipelineConfig& config) {
  std::string out;
  const auto add = [&out](const std::string& piece) {
    if (!out.empty()) out += ',';
    out += piece;
  };
  if (config.enable_quantized_scan) add("q8");
  if (config.cache.index == IndexKind::kQalsh) {
    add("qalsh");
    const QalshParams def;
    const QalshParams& p = config.cache.qalsh;
    if (p.c != def.c) add("c=" + format_fraction(p.c));
    if (p.delta != def.delta) add("delta=" + format_fraction(p.delta));
    if (p.beta != def.beta) add("beta=" + format_fraction(p.beta));
  }
  return out;
}

/// Canonical argument list of a regions token: only the fields that differ
/// from the RegionReuseParams defaults, in registration order.
std::string regions_args(const RegionReuseParams& p) {
  const RegionReuseParams def;
  std::string out;
  const auto add = [&out](const char* key, const std::string& value) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  };
  if (p.grid != def.grid) add("grid", std::to_string(p.grid));
  if (p.max_changed != def.max_changed) {
    add("max_changed", format_fraction(p.max_changed));
  }
  if (p.ttl != def.ttl) add("ttl", format_spec_duration(p.ttl));
  return out;
}

}  // namespace

LadderSpec LadderSpec::from_config(const PipelineConfig& config) {
  LadderSpec spec;
  const auto push = [&spec](const char* name, std::string arg = "") {
    spec.tokens.emplace_back(name);
    spec.args.push_back(std::move(arg));
  };
  if (config.enable_imu_gate || config.enable_imu_fastpath) push("imu");
  if (config.enable_temporal) push("temporal");
  if (config.enable_regions) push("regions", regions_args(config.regions));
  if (config.enable_warm_tier) push("warm");
  if (config.enable_local_cache) {
    push("local", local_args(config));
    if (config.enable_p2p) push("p2p");
  } else if (config.enable_exact_cache) {
    push("exact");
  }
  if (config.enable_edge) push("edge", edge_args(config.edge));
  push("dnn");
  return spec;
}

std::string LadderSpec::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!out.empty()) out += ',';
    out += tokens[i];
    if (i < args.size() && !args[i].empty()) {
      out += '(';
      out += args[i];
      out += ')';
    }
  }
  return out;
}

bool LadderSpec::has(std::string_view token) const noexcept {
  return std::find(tokens.begin(), tokens.end(), token) != tokens.end();
}

std::string_view LadderSpec::arg(std::string_view token) const noexcept {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // No ternary with a "" literal here: it would convert both operands to
    // a temporary std::string and the returned view would dangle.
    if (tokens[i] == token) {
      if (i < args.size()) return args[i];
      return {};
    }
  }
  return {};
}

std::string_view LadderSpec::arg_value(std::string_view token,
                                       std::string_view key) const noexcept {
  const std::string_view list = arg(token);
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    const std::string_view piece = list.substr(pos, comma - pos);
    const std::size_t eq = piece.find('=');
    if (eq != std::string_view::npos && piece.substr(0, eq) == key) {
      return piece.substr(eq + 1);
    }
    pos = comma + 1;
  }
  return {};
}

bool LadderSpec::has_arg(std::string_view token,
                         std::string_view key) const noexcept {
  const std::string_view list = arg(token);
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    const std::string_view piece = list.substr(pos, comma - pos);
    const std::size_t eq = piece.find('=');
    const std::string_view piece_key =
        eq == std::string_view::npos ? piece : piece.substr(0, eq);
    if (piece_key == key) return true;
    pos = comma + 1;
  }
  return false;
}

void apply_ladder(PipelineConfig& config, const LadderSpec& spec) {
  const bool imu = spec.has("imu");
  config.enable_imu_gate = imu;
  config.enable_imu_fastpath = imu;
  config.enable_temporal = spec.has("temporal");
  // The spec is authoritative on the region rung's grammar-visible knobs:
  // omitted keys reset to the RegionReuseParams defaults (provisioning
  // fields the grammar cannot express are left alone).
  config.enable_regions = spec.has("regions");
  if (config.enable_regions) {
    const RegionReuseParams def;
    config.regions.grid = def.grid;
    config.regions.max_changed = def.max_changed;
    config.regions.ttl = def.ttl;
    std::uint64_t n = 0;
    if (parse_uint(spec.arg_value("regions", "grid"), n)) {
      config.regions.grid = static_cast<int>(n);
    }
    float f = 0.0f;
    if (parse_fraction(spec.arg_value("regions", "max_changed"), f)) {
      config.regions.max_changed = f;
    }
    SimDuration d = 0;
    if (parse_duration(spec.arg_value("regions", "ttl"), d)) {
      config.regions.ttl = d;
    }
  }
  config.enable_warm_tier = spec.has("warm");
  config.enable_p2p = spec.has("p2p");
  config.enable_local_cache = spec.has("local");
  config.enable_exact_cache = spec.has("exact");
  // "local(q8)" switches the cache index to the SQ8 candidate scan; both
  // the pipeline flag and the cache's index config are overwritten so
  // provisioning code (which builds the cache from config.cache) and
  // flag-reading callers can never observe a divergent pair.
  config.enable_quantized_scan = spec.has_arg("local", "q8");
  config.cache.alsh.lsh.quantize.enabled = config.enable_quantized_scan;
  // "local(qalsh, ...)" swaps the cache index for the query-aware backend.
  // The spec is authoritative on its grammar-visible guarantee knobs:
  // omitted keys reset to the QalshParams defaults (seed / r0 / other
  // provisioning fields the grammar cannot express are left alone).
  if (spec.has_arg("local", "qalsh")) {
    const QalshParams def;
    config.cache.index = IndexKind::kQalsh;
    config.cache.qalsh.c = def.c;
    config.cache.qalsh.delta = def.delta;
    config.cache.qalsh.beta = def.beta;
    float f = 0.0f;
    if (parse_ratio(spec.arg_value("local", "c"), f)) {
      config.cache.qalsh.c = f;
    }
    if (parse_fraction(spec.arg_value("local", "delta"), f)) {
      config.cache.qalsh.delta = f;
    }
    if (parse_fraction(spec.arg_value("local", "beta"), f)) {
      config.cache.qalsh.beta = f;
    }
  } else if (config.cache.index == IndexKind::kQalsh) {
    // A ladder without the flag reverts the grammar-selected backend; index
    // kinds the grammar cannot express (kExact set directly by callers)
    // are never clobbered.
    config.cache.index = IndexKind::kAdaptiveLsh;
  }
  config.cache.qalsh.quantize.enabled =
      config.enable_quantized_scan &&
      config.cache.index == IndexKind::kQalsh;
  // The spec is authoritative on the edge tier's grammar-visible knobs:
  // omitted keys reset to the EdgeParams defaults (client-side fields the
  // grammar cannot express are left alone). parse() already validated the
  // value formats.
  config.enable_edge = spec.has("edge");
  if (config.enable_edge) {
    const EdgeParams def;
    config.edge.shards = def.shards;
    config.edge.capacity = def.capacity;
    config.edge.ttl = def.ttl;
    config.edge.error_budget = def.error_budget;
    std::uint64_t n = 0;
    if (parse_uint(spec.arg_value("edge", "shards"), n)) {
      config.edge.shards = static_cast<std::size_t>(n);
    }
    if (parse_uint(spec.arg_value("edge", "capacity"), n)) {
      config.edge.capacity = static_cast<std::size_t>(n);
    }
    SimDuration d = 0;
    if (parse_duration(spec.arg_value("edge", "ttl"), d)) {
      config.edge.ttl = d;
    }
    float f = 0.0f;
    if (parse_fraction(spec.arg_value("edge", "error_budget"), f)) {
      config.edge.error_budget = f;
    }
  }
  config.ladder = spec.to_string();
}

RungRegistry::RungRegistry() {
  add("imu", 0, &make_imu_gate_rung);
  add("temporal", 1, &make_temporal_rung);
  add("regions", 2, &make_regions_rung,
      {{"grid", ArgKind::kUint},
       {"max_changed", ArgKind::kFraction},
       {"ttl", ArgKind::kDuration}});
  add("warm", 3, &make_warm_tier_rung);
  add("local", 4, &make_local_cache_rung,
      {{"q8", ArgKind::kFlag},
       {"qalsh", ArgKind::kFlag},
       {"c", ArgKind::kRatio},
       {"delta", ArgKind::kFraction},
       {"beta", ArgKind::kFraction}});
  add("exact", 4, &make_exact_cache_rung);
  // Provisioning-only: the token gives each device a PeerCacheService, whose
  // adverts merge into the local cache; no per-frame rung runs for it.
  add("p2p", 5, nullptr);
  add("edge", 6, &make_edge_rung,
      {{"shards", ArgKind::kUint},
       {"capacity", ArgKind::kUint},
       {"ttl", ArgKind::kDuration},
       {"error_budget", ArgKind::kFraction}});
  add("dnn", 7, &make_dnn_rung);
}

RungRegistry& RungRegistry::instance() {
  static RungRegistry registry;
  return registry;
}

void RungRegistry::add(std::string name, int rank, Factory factory,
                       std::vector<ArgSpec> allowed_args) {
  if (find(name) != nullptr) {
    throw std::logic_error("RungRegistry: duplicate rung '" + name + "'");
  }
  entries_.push_back(
      Entry{std::move(name), rank, factory, std::move(allowed_args)});
}

const RungRegistry::Entry* RungRegistry::find(
    std::string_view name) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::vector<std::string> RungRegistry::names() const {
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const Entry& entry : entries_) sorted.push_back(&entry);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry* a, const Entry* b) {
                     return a->rank < b->rank;
                   });
  std::vector<std::string> out;
  out.reserve(sorted.size());
  for (const Entry* entry : sorted) out.push_back(entry->name);
  return out;
}

std::vector<std::unique_ptr<ReuseRung>> build_ladder(
    const LadderSpec& spec, const RungBuildContext& ctx) {
  const RungRegistry& registry = RungRegistry::instance();
  std::vector<std::unique_ptr<ReuseRung>> rungs;
  rungs.reserve(spec.tokens.size() + 1);
  rungs.push_back(registry.find("imu")->factory(ctx));
  for (const std::string& token : spec.tokens) {
    if (token == "imu") continue;  // the entry rung above covers it
    const RungRegistry::Factory factory = registry.find(token)->factory;
    if (factory != nullptr) rungs.push_back(factory(ctx));
  }
  return rungs;
}

}  // namespace apx
