#include "apps/kernels/kernels.h"

#include <cmath>
#include <thread>

#include "core/cbp.h"
#include "instrument/shared_var.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"
#include "runtime/rng.h"

namespace cbp::apps::kernels {
namespace {

void configure(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);
}

/// One unsynchronized read-modify-write on a shared reduction variable,
/// with the breakpoint (bounded per §6.3) widening the racy window.
void racy_accumulate(instr::SharedVar<std::int64_t>& accumulator,
                     const char* breakpoint, std::uint64_t bound,
                     std::int64_t delta) {
  const std::int64_t value = accumulator.read();
  ConflictTrigger trigger(breakpoint, accumulator.address());
  trigger.bound(bound);
  trigger.trigger_here(/*is_first_action=*/true);
  accumulator.write(value + delta);
}

/// Burns a little deterministic floating-point work (the "kernel").
double kernel_work(std::uint64_t seed, int flops) {
  double x = 1.0 + static_cast<double>(seed % 97) * 1e-3;
  for (int i = 0; i < flops; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

/// Two workers each perform `iters` unit contributions into a shared
/// accumulator; every shortfall against the exact count is a lost
/// update, i.e. the racy state manifested.
RunOutcome run_reduction_race(const RunOptions& options,
                              const char* breakpoint, std::uint64_t bound,
                              int iters_base, int flops) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  const int iters =
      std::max(2, static_cast<int>(iters_base * options.work_scale));
  instr::SharedVar<std::int64_t> accumulator{0};
  volatile double sink = 0.0;

  rt::StartGate gate;
  auto worker = [&](std::uint64_t seed, bool later) {
    gate.wait();
    if (later) arrival_skew(options);  // the halves do not run in lockstep
    for (int i = 0; i < iters; ++i) {
      sink = sink + kernel_work(seed + static_cast<std::uint64_t>(i), flops);
      racy_accumulate(accumulator, breakpoint, bound, 1);
    }
  };
  rt::Thread a(worker, 11, false);
  rt::Thread b(worker, 23, true);
  gate.open();
  a.join();
  b.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  const std::int64_t expected = 2LL * iters;
  if (accumulator.peek() < expected) {
    outcome.artifact = rt::Artifact::kRaceObserved;
    outcome.detail = "reduction lost " +
                     std::to_string(expected - accumulator.peek()) +
                     " contributions";
  }
  return outcome;
}

}  // namespace

RunOutcome run_moldyn_race1(const RunOptions& options, std::uint64_t bound) {
  return run_reduction_race(options, kMoldynRace1, bound,
                            /*iters_base=*/60, /*flops=*/12000);
}

RunOutcome run_moldyn_race2(const RunOptions& options, std::uint64_t bound) {
  return run_reduction_race(options, kMoldynRace2, bound,
                            /*iters_base=*/60, /*flops=*/12000);
}

RunOutcome run_montecarlo_race1(const RunOptions& options,
                                std::uint64_t bound) {
  return run_reduction_race(options, kMontecarloRace1, bound,
                            /*iters_base=*/80, /*flops=*/9000);
}

namespace {

/// raytracer: renders a tiny deterministic "image" in two half-frames
/// and accumulates a checksum; the run validates the checksum at the end
/// (the JGF validation step), so lost updates become "test fail".
RunOutcome run_raytracer(const RunOptions& options, const char* breakpoint,
                         bool validated) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  const int rows = std::max(2, static_cast<int>(16 * options.work_scale));
  const int cols = 12;
  instr::SharedVar<std::int64_t> checksum{0};

  // Exact serial checksum for validation.
  std::int64_t expected = 0;
  for (int r = 0; r < 2 * rows; ++r) {
    for (int c = 0; c < cols; ++c) expected += (r * 31 + c * 7) % 255;
  }

  rt::StartGate gate;
  auto render_half = [&](int row_base, bool later) {
    gate.wait();
    if (later) arrival_skew(options);
    for (int r = row_base; r < row_base + rows; ++r) {
      std::int64_t row_sum = 0;
      for (int c = 0; c < cols; ++c) row_sum += (r * 31 + c * 7) % 255;
      busy_work(40000);  // per-row shading work
      racy_accumulate(checksum, breakpoint, UINT64_MAX, row_sum);
    }
  };
  rt::Thread a(render_half, 0, false);
  rt::Thread b(render_half, rows, true);
  gate.open();
  a.join();
  b.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (checksum.peek() != expected) {
    outcome.artifact =
        validated ? rt::Artifact::kWrongResult : rt::Artifact::kRaceObserved;
    outcome.detail = "checksum " + std::to_string(checksum.peek()) +
                     " != expected " + std::to_string(expected);
  }
  return outcome;
}

}  // namespace

RunOutcome run_raytracer_race1(const RunOptions& options) {
  return run_raytracer(options, kRaytracerRace1, /*validated=*/true);
}
RunOutcome run_raytracer_race2(const RunOptions& options) {
  return run_raytracer(options, kRaytracerRace2, /*validated=*/true);
}
RunOutcome run_raytracer_race3(const RunOptions& options) {
  return run_raytracer(options, kRaytracerRace3, /*validated=*/false);
}
RunOutcome run_raytracer_race4(const RunOptions& options) {
  return run_raytracer(options, kRaytracerRace4, /*validated=*/false);
}

}  // namespace cbp::apps::kernels
