// Benchmark program: runs one named workload through the library's public
// API and prints its metrics.  See README.md in this directory.
//
//   cbp_perfbench --workload <kv-armed|repro-virtual|hits> --seed <n>
//                 --seconds <s> --trace <0|1> [--tmpdir <dir>]
//                 [--trace-dir <dir>] [--source <id>]
//
// --trace 0 prints the end-to-end metrics of the workload.  --trace 1
// runs the workload once untraced and once with bench-side spans (the
// difference is the tracing overhead), runs the other two workloads and
// the single-layer probes traced, prints the per-layer ledger and writes
// the spans as Chrome trace-event JSON into --trace-dir.  --tmpdir holds
// the run's scratch files (the broker's socket directory).
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics.  Exit status: 0 ok, 1 an output check failed (the result
// says correct=false), 2 usage error or refused build (no result).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void report_setup(const std::string& workload, std::vector<double> setup_s,
                  Report& report) {
  std::sort(setup_s.begin(), setup_s.end());
  std::string all;
  for (double s : setup_s) {
    char v[32];
    std::snprintf(v, sizeof v, "%s%.4f", all.empty() ? "" : " ", s);
    all += v;
  }
  report.note(workload + ": set-ups " + all + " s");
  report.e2e("setup_s", median_of(setup_s), "s", setup_s.size());
}

namespace {

/// The sanitizers this binary was compiled with, or empty.
std::string sanitizers() {
  std::string s;
#if defined(__SANITIZE_ADDRESS__)
  s += "address";
#endif
#if defined(__SANITIZE_THREAD__)
  s += s.empty() ? "thread" : ",thread";
#endif
  return s;
}

/// Why this binary must not report a number, or empty.
std::string build_refusal() {
#ifndef __OPTIMIZE__
  return "an unoptimised build";
#endif
  if (!sanitizers().empty()) return "a sanitizer build (" + sanitizers() + ")";
  return "";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// CPU time this (virtual) machine's CPUs had stolen by its host so far,
/// in seconds; -1 where /proc/stat has no steal column.
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  if (!in || cpu != "cpu") return -1.0;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void print_host(const Options& options, const std::string& source) {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::printf(
      "host {\"cpu\": \"%s\", \"nproc\": %u, \"threads\": %d, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"sanitize\": \"%s\", "
      "\"source\": \"%s\", \"date\": \"%s\"}\n",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      options.threads, json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      sanitizers().c_str(), json_escape(source).c_str(), date);
}

void print_metric(const Metric& m) {
  std::printf("metric %-40s %16.6g %-8s n=%llu\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<unsigned long long>(m.samples));
}

void print_notes(const Report& report) {
  for (const std::string& n : report.notes) std::printf("note %s\n", n.c_str());
}

/// Prints the result line; non-finite values are reported as 0 and fail
/// the run (a division by an empty count means a check is missing).
void print_result(Report& report, const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      report.violation("metric " + m.name + " is not finite");
      v = 0.0;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", v);
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  for (const std::string& v : report.violations) {
    std::printf("FAIL %s\n", v.c_str());
  }
  const std::uint64_t attempted = std::max<std::uint64_t>(report.attempted, 1);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.violations.empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(report.failed), body.c_str());
}

using WorkloadFn = void (*)(const Options&, double, int, Report&);

struct Workload {
  const char* name;
  WorkloadFn run;
  int setups;  ///< set-up repetitions in an untraced run
};

constexpr Workload kWorkloads[] = {
    {"kv-armed", run_kv, 9},
    {"repro-virtual", run_repro, 5},
    {"hits", run_hits, 7},
};

double metric(const Report& report, const std::string& name) {
  for (const Metric& m : report.end_to_end) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void merge(Report& into, const Report& from, bool layers = true) {
  if (layers) {
    into.layers.insert(into.layers.end(), from.layers.begin(),
                       from.layers.end());
  }
  into.violations.insert(into.violations.end(), from.violations.begin(),
                         from.violations.end());
  into.notes.insert(into.notes.end(), from.notes.begin(), from.notes.end());
  into.attempted += from.attempted;
  into.failed += from.failed;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "cbp_perfbench: %s\nusage: cbp_perfbench --workload "
               "<kv-armed|repro-virtual|hits> --seed <n> --seconds <s> "
               "--trace <0|1> [--tmpdir <dir>] [--trace-dir <dir>] "
               "[--source <id>]\n",
               why);
  return 2;
}

int run_main(int argc, char** argv) {
  Options options;
  std::string source = "unknown";
  std::string trace_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--tmpdir") {
      options.tmpdir = value;
    } else if (arg == "--trace-dir") {
      trace_dir = value;
    } else if (arg == "--source") {
      source = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) return usage("unknown workload");
  if (!(options.seconds > 0.0) || options.seconds > 120.0) {
    return usage("--seconds out of range");
  }
  if (const std::string why = build_refusal(); !why.empty()) {
    std::fprintf(stderr, "cbp_perfbench: refusing to report from %s\n",
                 why.c_str());
    return 2;
  }
  options.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  print_host(options, source);
  const double steal_at_start = steal_seconds();

  Report result;
  std::vector<Metric> printed;
  try {
    if (!options.trace) {
      chosen->run(options, options.seconds, chosen->setups, result);
      result.e2e("peak_rss_mb", peak_rss_mb(), "MB");
      printed = result.end_to_end;
      print_notes(result);
      for (const Metric& m : result.end_to_end) print_metric(m);
      print_metric({"failed_frac", ratio(result.failed, result.attempted),
                    "fraction", result.attempted});
      // The workload's own ledger rows, for the reader; the result line
      // carries only the end-to-end set.
      for (const Metric& m : result.layers) print_metric(m);
    } else {
      // Same workload untraced, then traced: the tracing overhead.
      const double part = options.seconds / 3.0;
      Report untraced;
      chosen->run(options, part, 1, untraced);
      trace::set_enabled(true);
      Report traced;
      chosen->run(options, part, 1, traced);
      merge(result, untraced, /*layers=*/false);
      merge(result, traced);
      result.layer(
          "bench.trace_overhead_frac",
          metric(untraced, "ops_per_s") / metric(traced, "ops_per_s") - 1.0,
          "fraction");
      for (const Workload& w : kWorkloads) {
        if (&w == chosen) continue;
        Report other;
        w.run(options, part, 1, other);
        merge(result, other);
      }
      Report probes;
      run_probes(options, std::min(2.0, part), probes);
      merge(result, probes);
      trace::set_enabled(false);

      for (const trace::SpanSummary& s : trace::summarize()) {
        std::printf("span %-36s count=%-8llu total_ms=%-12.3f self_ms=%.3f\n",
                    s.name.c_str(), static_cast<unsigned long long>(s.count),
                    s.total_ms, s.self_ms);
      }
      // One file per workload, overwritten by the next traced run.
      const std::string path =
          trace_dir + "/trace-" + options.workload + ".json";
      if (!trace::write_chrome(path)) {
        result.violation("could not write " + path);
      }
      std::printf("trace %s (%llu spans dropped)\n", path.c_str(),
                  static_cast<unsigned long long>(trace::dropped()));
      print_notes(result);
      for (const Metric& m : result.layers) print_metric(m);
      printed = result.layers;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cbp_perfbench: %s\n", e.what());
    return 2;
  }
  // Stolen CPU time explains a noisy run on a shared virtual machine.
  if (steal_at_start >= 0.0) {
    std::printf("note host CPU time stolen during the run: %.2f s\n",
                steal_seconds() - steal_at_start);
  }
  std::fflush(stdout);
  print_result(result, printed);
  return result.violations.empty() ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
