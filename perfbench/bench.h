// Shared plumbing of the benchmark program: options, timing, sample
// statistics and the metric report every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Command-line settings shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's scratch files (the broker's socket
  /// directory); a relative path keeps the unix socket path short.
  std::string tmpdir = ".";
  int threads = 4;  ///< min(4, nproc), fixed at start-up
};

/// Samples with nearest-rank percentiles.  At most kCapacity are kept,
/// as a uniform reservoir of everything added.  Every latency figure of
/// a full-length run fills its reservoir, so peak_rss_mb does not grow
/// with the length or speed of a run.
class Samples {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  void add(double v) {
    ++count_;
    sorted_ = false;
    if (values_.size() < kCapacity) {
      if (values_.empty()) values_.reserve(kCapacity);
      values_.push_back(v);
      return;
    }
    // Algorithm R with a fixed-seed SplitMix64 stream: deterministic.
    std::uint64_t z = (rng_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    const std::uint64_t j = (z ^ (z >> 31)) % count_;
    if (j < kCapacity) values_[j] = v;
  }
  void append(const Samples& other) {
    for (double v : other.values_) add(v);
  }
  /// Everything added, kept or not.
  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Nearest-rank percentile, p in [0, 1] (0 when empty).
  [[nodiscard]] double pct(double p) {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const double rank = std::ceil(p * static_cast<double>(values_.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values_[std::min(i, values_.size() - 1)];
  }
  [[nodiscard]] double median() { return pct(0.5); }

 private:
  std::vector<double> values_;
  std::uint64_t count_ = 0;
  std::uint64_t rng_ = 0;
  bool sorted_ = true;
};

/// One measured metric.  `samples` is the count behind a percentile or
/// median (0 for plain counts and ratios).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// What one invocation measured.  End-to-end metrics come from the
/// untraced run; layer metrics from the traced run (see README.md).
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check violations, one line each; any entry fails the run.
  std::vector<std::string> violations;
  /// Human-readable lines printed before the result (workload-specific
  /// detail with units and sample counts).
  std::vector<std::string> notes;

  void e2e(std::string name, double value, std::string unit,
           std::uint64_t samples = 0) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples});
  }
  void layer(std::string name, double value, std::string unit,
             std::uint64_t samples = 0) {
    layers.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// A per-layer count or ratio.
  void count(std::string name, double value) {
    layer(std::move(name), value, "count");
  }
  void violation(std::string what) { violations.push_back(std::move(what)); }
  /// An output check: `bad` items violated `what`; each one counts as
  /// failed.
  void check(std::uint64_t bad, const std::string& what) {
    if (bad == 0) return;
    violation(std::to_string(bad) + " " + what);
    failed += bad;
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// a / b as a double (0 when b is 0).
inline double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Median of a few values (set-up repetitions, per-leg rates).
double median_of(std::vector<double> values);

/// Reports `setup_s`, the median of one run's set-up repetitions, with a
/// note listing every repetition.
void report_setup(const std::string& workload, std::vector<double> setup_s,
                  Report& report);

// ---- workloads (one file each) ------------------------------------------
// Each sets up `setups` times (the median is setup_s), runs its loop for
// `seconds` and fills both the end-to-end and the layer metrics.  Spans
// (trace.h) are recorded whenever tracing is on.

void run_kv(const Options& options, double seconds, int setups,
            Report& report);
void run_repro(const Options& options, double seconds, int setups,
               Report& report);
void run_hits(const Options& options, double seconds, int setups,
              Report& report);
/// Single-layer probes with no workload of their own: trigger outcome
/// costs, thread scaling, obs event cost.
void run_probes(const Options& options, double seconds, Report& report);

}  // namespace perfbench
