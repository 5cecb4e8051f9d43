#pragma once
// Shared pieces of the perfbench program: the result every workload returns,
// robust statistics, the host clock, and the in-memory span recorder the
// traced runs use.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host time in nanoseconds on the monotonic clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// num / den, or 0 when den is not positive.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Runs per second of a fixed reference kernel that shares no code with the
/// library (a scalar 3x3 convolution, 32x32x8 -> 16 channels). It measures
/// how fast this host is right now; see host_scale().
double reference_rate();

/// Reference-kernel rate of the host the benchmark's host figures are
/// expressed in.
inline constexpr double kReferenceRate = 1000.0;

/// Factor that turns host seconds measured now into seconds of the
/// reference host: reference_rate() / kReferenceRate, sampled by the caller
/// around the measured work. Shared hosts drift by tens of percent within
/// minutes; a host time scaled this way follows the code, not the drift.
inline double host_scale(double rate_before, double rate_after) {
  return (rate_before + rate_after) / 2.0 / kReferenceRate;
}

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs so the whole command finishes in seconds (the
  /// benchmark's own test); numbers from it mean nothing.
  bool smoke = false;
  /// Directory for span dumps and recorded work counts.
  std::string out_dir = ".";
};

/// One named measurement.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload reports. `correct` turns false on the first failed
/// check; `problems` says which.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

/// Work counts that do not depend on the machine. They are written to
/// `<out_dir>/counts/<workload>[-smoke][-traced]-seed<seed>.txt` on the
/// first run of a seed and compared exactly on every later one; a mismatch
/// fails the run.
void check_recorded_counts(const Options& opt,
                           const std::map<std::string, std::string>& counts,
                           Result& result);

/// In-memory span recorder: name, start, end, parent and request id per
/// span, plus per-name totals (count, wall, self time = wall minus the time
/// covered by direct children, and every duration for quantiles). One
/// recorder per thread; merge_totals() pools them afterwards.
class SpanRecorder {
 public:
  using NameId = std::uint32_t;
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    NameId name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  struct Totals {
    std::uint64_t count = 0;
    double wall_ns = 0.0;
    double self_ns = 0.0;
    std::vector<double> durations_ns;
  };

  /// Spans beyond this many are counted in the totals but not kept for the
  /// dump, so a long traced run stays small in memory.
  static constexpr std::size_t kMaxKept = 400'000;

  SpanRecorder() = default;
  // totals_by_id_ points into totals_: moving keeps the map's nodes, a copy
  // would not.
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;
  SpanRecorder(SpanRecorder&&) = default;
  SpanRecorder& operator=(SpanRecorder&&) = default;

  NameId intern(std::string_view name);

  /// Opens a span under the innermost open one; returns its handle.
  std::uint32_t begin(NameId name, std::uint64_t request = 0);
  /// Closes the innermost open span (which must be `handle`).
  void end(std::uint32_t handle);
  /// Renames the innermost open span and sets its request id (an event is
  /// classified only after it has run, by the layers it called).
  void rename_open(NameId name, std::uint64_t request);

  const Totals& totals(std::string_view name) const;
  /// Adds `other`'s per-name totals into this recorder.
  void merge_totals(const SpanRecorder& other);

  /// Writes the kept spans as tab-separated text; returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t kept = kNoParent;  ///< index into spans_ or kNoParent
    NameId name = 0;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };

  std::vector<std::string> names_;
  std::map<std::string, NameId, std::less<>> ids_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::map<std::string, Totals, std::less<>> totals_;
  std::vector<Totals*> totals_by_id_;
};

/// RAII span over a scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanRecorder::NameId name,
             std::uint64_t request = 0)
      : rec_(rec), handle_(rec ? rec->begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t handle_;
};

}  // namespace perfbench
