#include "src/common.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {
// Keeps the reference kernel's result observable, so it is not optimized
// away.
volatile float reference_sink = 0.0f;
}  // namespace

double reference_rate() {
  constexpr int kSide = 32;
  constexpr int kIn = 8;
  constexpr int kOut = 16;
  constexpr int kRuns = 8;
  static thread_local std::vector<float> input, weights, output;
  if (input.empty()) {
    input.resize((kSide + 2) * (kSide + 2) * kIn);
    weights.resize(9 * kIn * kOut);
    output.resize(kSide * kSide * kOut);
    std::uint32_t x = 12345;
    const auto next = [&x] {
      x = x * 1664525u + 1013904223u;
      return static_cast<float>(x >> 8) / 16777216.0f - 0.5f;
    };
    for (float& v : input) v = next();
    for (float& v : weights) v = next();
  }
  const std::int64_t start = now_ns();
  float checksum = 0.0f;
  for (int run = 0; run < kRuns; ++run) {
    for (int y = 0; y < kSide; ++y) {
      for (int x = 0; x < kSide; ++x) {
        for (int o = 0; o < kOut; ++o) {
          float acc = static_cast<float>(run) * 1e-3f;
          for (int k = 0; k < 9; ++k) {
            const float* in =
                &input[((y + k / 3) * (kSide + 2) + x + k % 3) * kIn];
            const float* w = &weights[(k * kOut + o) * kIn];
            for (int c = 0; c < kIn; ++c) acc += in[c] * w[c];
          }
          output[(y * kSide + x) * kOut + o] = acc > 0.0f ? acc : 0.0f;
        }
      }
    }
    checksum += output[static_cast<std::size_t>(run) % output.size()];
  }
  reference_sink = checksum;
  return kRuns / (static_cast<double>(now_ns() - start) * 1e-9);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void check_recorded_counts(const Options& opt,
                           const std::map<std::string, std::string>& counts,
                           Result& result) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(opt.out_dir) / "counts";
  const fs::path file =
      dir / (opt.workload + (opt.smoke ? "-smoke" : "") +
             (opt.trace ? "-traced" : "") + "-seed" +
             std::to_string(opt.seed) + ".txt");
  std::ostringstream now;
  for (const auto& [key, value] : counts) now << key << ' ' << value << '\n';
  std::error_code ec;
  if (fs::exists(file, ec)) {
    std::ifstream in(file);
    std::ostringstream before;
    before << in.rdbuf();
    result.check(before.str() == now.str(),
                 "work counts differ from the ones recorded for this seed in " +
                     file.string());
    return;
  }
  fs::create_directories(dir, ec);
  std::ofstream out(file);
  out << now.str();
  result.check(static_cast<bool>(out), "cannot record work counts to " +
                                           file.string());
}

SpanRecorder::NameId SpanRecorder::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<NameId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  totals_by_id_.push_back(&totals_[std::string(name)]);
  return id;
}

std::uint32_t SpanRecorder::begin(NameId name, std::uint64_t request) {
  Open open;
  open.name = name;
  open.request = request;
  if (spans_.size() < kMaxKept) {
    open.kept = static_cast<std::uint32_t>(spans_.size());
    Span span;
    span.name = name;
    span.request = request;
    span.parent = stack_.empty() ? kNoParent : stack_.back().kept;
    spans_.push_back(span);
  }
  open.start_ns = now_ns();
  if (open.kept != kNoParent) spans_[open.kept].start_ns = open.start_ns;
  stack_.push_back(open);
  return static_cast<std::uint32_t>(stack_.size() - 1);
}

void SpanRecorder::end(std::uint32_t handle) {
  const std::int64_t t = now_ns();
  if (stack_.empty() || handle != stack_.size() - 1) {
    throw std::logic_error("SpanRecorder: spans closed out of order");
  }
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t wall = t - open.start_ns;
  if (open.kept != kNoParent) {
    spans_[open.kept].end_ns = t;
    spans_[open.kept].name = open.name;
  }
  Totals& tot = *totals_by_id_[open.name];
  ++tot.count;
  tot.wall_ns += static_cast<double>(wall);
  tot.self_ns += static_cast<double>(wall - open.child_ns);
  tot.durations_ns.push_back(static_cast<double>(wall));
  if (!stack_.empty()) stack_.back().child_ns += wall;
}

void SpanRecorder::rename_open(NameId name, std::uint64_t request) {
  if (stack_.empty()) return;
  Open& open = stack_.back();
  open.name = name;
  open.request = request;
  if (open.kept != kNoParent) spans_[open.kept].request = request;
}

const SpanRecorder::Totals& SpanRecorder::totals(std::string_view name) const {
  static const Totals kEmpty;
  const auto it = totals_.find(name);
  return it == totals_.end() ? kEmpty : it->second;
}

void SpanRecorder::merge_totals(const SpanRecorder& other) {
  for (const auto& [name, tot] : other.totals_) {
    intern(name);
    Totals& mine = totals_[name];
    mine.count += tot.count;
    mine.wall_ns += tot.wall_ns;
    mine.self_ns += tot.self_ns;
    mine.durations_ns.insert(mine.durations_ns.end(), tot.durations_ns.begin(),
                             tot.durations_ns.end());
  }
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  out << "# index\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t'
        << (s.parent == kNoParent ? std::string("-")
                                  : std::to_string(s.parent))
        << '\t' << s.request << '\t' << names_[s.name] << '\t' << s.start_ns
        << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
