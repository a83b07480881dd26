// repro-virtual: the paper's use, reproducing seeded bugs.
//
// A closed loop of harness::run_repeated_parallel with `threads` jobs.
// One call per round runs every harness::table1_cases() row at its
// nominal T under the virtual clock, the same trial count per row: trial
// i runs row i mod rows with seed base+i (base derived from the CLI
// seed), so the jobs balance the rows' very different trial lengths.
// One op is one trial.  Time goes to runtime.vclock handoffs, core
// postpone/match/timeout and harness engine set-up and merge; the kv
// fast path is not involved.  Every round repeats the same seeds, and
// virtual trials are deterministic, so each round's verdicts must equal
// the first round's.
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "apps/replica.h"
#include "bench.h"
#include "core/cbp.h"
#include "harness/experiment.h"
#include "harness/registry.h"
#include "runtime/vclock.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace apps = cbp::apps;
namespace harness = cbp::harness;

constexpr int kTrialsPerRow = 8;

apps::RunOptions row_options(const harness::Table1Case& row,
                             std::uint64_t seed) {
  apps::RunOptions options;
  options.breakpoints = true;
  options.pause = row.pause;
  options.work_scale = row.work_scale;
  options.stall_after = std::chrono::milliseconds(4000);
  options.clock = cbp::rt::ClockMode::kVirtual;
  options.seed = seed;
  return options;
}

/// Per-trial record of one run_repeated_parallel call, indexed by trial
/// (seed - base); each slot is written by the one worker that ran it.
struct RoundCall {
  explicit RoundCall(std::size_t trials)
      : wall_s(trials, 0.0), errored(trials, 0) {}
  std::uint64_t span_parent = 0;
  std::vector<double> wall_s;
  std::vector<char> errored;
};

/// Trial i of a round: row i mod rows, with that row's T and work scale.
/// Each trial is timed on the wall clock, and an escaping exception (a
/// stalled or broken trial) becomes a counted failure instead of
/// terminating the worker.
harness::Runner every_row(const std::vector<harness::Table1Case>& cases,
                          std::uint64_t base, RoundCall* call) {
  return [&cases, base, call](const apps::RunOptions& options) {
    const auto i = static_cast<std::size_t>(options.seed - base);
    const harness::Table1Case& row = cases[i % cases.size()];
    const apps::RunOptions run = row_options(row, options.seed);
    if (call == nullptr) return row.runner(run);
    trace::Span span("harness.trial", options.seed, call->span_parent);
    const std::int64_t t0 = now_ns();
    apps::RunOutcome outcome;
    try {
      outcome = row.runner(run);
    } catch (const std::exception& e) {
      call->errored[i] = 1;
      std::fprintf(stderr, "trial seed %llu failed: %s\n",
                   static_cast<unsigned long long>(options.seed), e.what());
    }
    call->wall_s[i] = seconds_since(t0);
    return outcome;
  };
}

bool same_verdicts(const harness::TrialOutcome& a,
                   const harness::TrialOutcome& b) {
  return a.seed == b.seed && a.buggy == b.buggy && a.hit == b.hit;
}

}  // namespace

void run_repro(const Options& options, double seconds, int setups,
               Report& report) {
  const std::uint64_t base = 1 + options.seed * 1000003ULL;
  const int jobs = options.threads;

  // Set-up: the case table plus one serial warm-up trial of every row on
  // a fresh engine (replica statics, thread registry, first allocations).
  std::vector<harness::Table1Case> cases;
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    trace::Span span("repro.setup", static_cast<std::uint64_t>(k));
    const std::int64_t t0 = now_ns();
    cases = harness::table1_cases();
    cbp::Engine engine;
    cbp::ScopedEngine bind(engine);
    harness::run_repeated(every_row(cases, base, nullptr),
                          row_options(cases[0], base),
                          static_cast<int>(cases.size()));
    setup_s.push_back(seconds_since(t0));
  }
  report_setup("repro-virtual", std::move(setup_s), report);

  const std::size_t per_round = cases.size() * kTrialsPerRow;
  std::vector<harness::TrialOutcome> first_round;
  Samples trial_ms, runner_virtual_ms;
  Samples round_rate;  // trials per second, one sample per round
  double call_wall_s = 0.0;
  double runner_wall_s = 0.0;
  std::uint64_t trials = 0, errored = 0, divergent = 0, hits = 0, bugs = 0;
  std::uint64_t rounds = 0;
  const std::int64_t start = now_ns();
  do {
    trace::Span round_span("harness.run_repeated_parallel", rounds);
    RoundCall call(per_round);
    call.span_parent = round_span.id();
    const harness::RepeatedResult result = harness::run_repeated_parallel(
        every_row(cases, base, &call), row_options(cases[0], base),
        static_cast<int>(per_round), jobs);
    // Round 0 is checked but not timed: the parallel path's warm-up.
    if (rounds > 0) {
      call_wall_s += result.wall_clock_s;
      round_rate.add(static_cast<double>(per_round) / result.wall_clock_s);
    }
    for (std::size_t i = 0; i < per_round; ++i) {
      const harness::TrialOutcome& trial = result.trials[i];
      if (rounds > 0) {
        trial_ms.add(call.wall_s[i] * 1e3);
        runner_wall_s += call.wall_s[i];
        runner_virtual_ms.add(trial.runtime_seconds * 1e3);
      }
      errored += static_cast<std::uint64_t>(call.errored[i]);
      if (rounds == 0) {
        hits += trial.hit ? 1 : 0;
        bugs += trial.buggy ? 1 : 0;
      } else if (!same_verdicts(trial, first_round[i])) {
        ++divergent;
      }
    }
    if (rounds == 0) first_round = result.trials;
    trials += per_round;
    ++rounds;
  } while (rounds < 2 || seconds_since(start) < seconds);

  // Serial re-run of the first two trials of every row: the parallel
  // verdicts must match.
  std::uint64_t serial_mismatch = 0;
  {
    cbp::Engine engine;
    cbp::ScopedEngine bind(engine);
    const harness::RepeatedResult serial = harness::run_repeated(
        every_row(cases, base, nullptr), row_options(cases[0], base),
        static_cast<int>(2 * cases.size()));
    for (std::size_t i = 0; i < serial.trials.size(); ++i) {
      if (!same_verdicts(serial.trials[i], first_round[i])) ++serial_mismatch;
    }
  }

  // The same trials under the bench's own virtual clock and engine: the
  // clock's handoff count and the engine's outcome counts, exact per seed.
  std::uint64_t vc_trials = 0, advances = 0, vc_hits = 0, vc_timeouts = 0;
  {
    cbp::Engine engine;
    cbp::ScopedEngine bind(engine);
    for (std::size_t i = 0; i < 2 * cases.size(); ++i) {
      const harness::Table1Case& row = cases[i % cases.size()];
      engine.reset();
      cbp::rt::VirtualClock clock;
      {
        cbp::rt::ScopedClock bind_clock(&clock);
        trace::Span span("runtime.vclock.trial", base + i);
        row.runner(row_options(row, base + i));
      }
      const cbp::BreakpointStats stats = engine.total_stats();
      advances += clock.advances();
      vc_hits += stats.hits;
      vc_timeouts += stats.timeouts;
      ++vc_trials;
    }
  }

  report.check(errored, "trials stalled or threw");
  report.check(divergent, "trial verdicts differ between rounds of a seed");
  report.check(serial_mismatch,
               "parallel verdicts differ from a serial run of the seed");
  report.attempted += trials;

  // The median round, so a burst of host noise in one round does not
  // move the figure.
  report.e2e("ops_per_s", round_rate.median(), "1/s", round_rate.count());
  report.e2e("op_p50_us", trial_ms.pct(0.5) * 1e3, "us", trial_ms.count());
  report.e2e("op_p90_us", trial_ms.pct(0.9) * 1e3, "us", trial_ms.count());
  report.note("repro-virtual: op_p99_us " +
              std::to_string(trial_ms.pct(0.99) * 1e3) + " us (n=" +
              std::to_string(trial_ms.count()) + ")");
  report.note("repro-virtual: " + std::to_string(rounds) + " rounds x " +
              std::to_string(cases.size()) + " rows x " +
              std::to_string(kTrialsPerRow) + " trials, " +
              std::to_string(jobs) + " jobs");

  report.layer("trial_p50_ms", trial_ms.pct(0.5), "ms", trial_ms.count());
  report.layer("trial_p99_ms", trial_ms.pct(0.99), "ms", trial_ms.count());
  // Over the first round: a fixed set of seeds, so exact per CLI seed.
  report.layer("hit_rate", ratio(hits, per_round), "fraction", per_round);
  report.layer("bug_rate", ratio(bugs, per_round), "fraction", per_round);
  report.layer("harness.trial_runner_ms_p50", runner_virtual_ms.median(), "ms",
               runner_virtual_ms.count());
  const double timed = static_cast<double>(trial_ms.count());
  report.layer("harness.overhead_ms_per_trial",
               (call_wall_s * jobs - runner_wall_s) / timed * 1e3, "ms",
               trial_ms.count());
  report.layer("harness.parallel_efficiency",
               runner_wall_s / (call_wall_s * jobs), "fraction",
               trial_ms.count());
  report.count("runtime.vclock.advances_per_trial", ratio(advances, vc_trials));
  report.count("core.hits_per_trial", ratio(vc_hits, vc_trials));
  report.count("core.timeouts_per_trial", ratio(vc_timeouts, vc_trials));
}

}  // namespace perfbench
