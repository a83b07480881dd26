#include "apps/logging/async_appender.h"

#include <atomic>
#include <thread>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"
#include "runtime/vclock.h"
#include "runtime/rng.h"

namespace cbp::apps::logging {

void AsyncAppender::trigger_if_armed(Site site) {
  if (!armed_ || (site != first_site_ && site != second_site_)) return;
  ConflictTrigger trigger(kContentionBreakpoint, &mu_);
  trigger.trigger_here(/*is_first_action=*/site == first_site_);
}

void AsyncAppender::append(int event, std::chrono::milliseconds stall_after) {
  trigger_if_armed(Site::kAppend);
  instr::TrackedLock lock(mu_);
  // The Java idiom: while(full) wait().  The wait is purely
  // notification-driven, so a grow that forgets to notify leaves this
  // thread blocked even though space now exists — the seeded stall.
  while (static_cast<int>(queue_.size()) >= buffer_size_ && !closed_) {
    cv_.wait_notified_or_stall(mu_, stall_after);
  }
  if (closed_) return;
  queue_.push_back(event);
  cv_.notify_all();
}

void AsyncAppender::set_buffer_size(int new_size) {
  trigger_if_armed(Site::kSetBufferSize);
  instr::TrackedLock lock(mu_);
  buffer_size_ = new_size;
  // SEEDED BUG (the log4j defect class): growing the buffer creates
  // space, but nobody blocked on "buffer full" is notified.
}

void AsyncAppender::close() {
  trigger_if_armed(Site::kClose);
  instr::TrackedLock lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

bool AsyncAppender::dispatch_one() {
  trigger_if_armed(Site::kDispatch);
  instr::TrackedLock lock(mu_);
  cv_.wait(mu_, [&] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return false;  // closed and drained
  dispatched_.push_back(queue_.front());
  queue_.pop_front();
  // SEEDED BUG: the space notification threshold is computed from the
  // CURRENT buffer size; after a concurrent grow it never fires.
  if (static_cast<int>(queue_.size()) == buffer_size_ - 1) {
    cv_.notify_all();
  }
  return true;
}

std::vector<int> AsyncAppender::dispatched() const {
  instr::TrackedLock lock(mu_);
  return dispatched_;
}

void AsyncAppender::arm_contention_pair(Site first, Site second) {
  armed_ = true;
  first_site_ = first;
  second_site_ = second;
}

MethodologyIIOutcome run_methodology2(const MethodologyIIOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);
  auto& engine = Engine::current();
  const std::uint64_t hits_before =
      engine.stats(kContentionBreakpoint).hits;

  MethodologyIIOutcome outcome;
  rt::Stopwatch clock;
  rt::Rng rng(options.seed);

  AsyncAppender appender(options.initial_buffer);
  if (options.breakpoints) {
    appender.arm_contention_pair(options.first, options.second);
  }

  std::atomic<bool> stalled{false};
  std::atomic<bool> appender_done{false};
  rt::StartGate gate;

  rt::Thread appender_thread([&] {
    gate.wait();
    try {
      for (int i = 0; i < options.events; ++i) {
        appender.append(i, options.stall_after);
        rt::clock_sleep_for(options.append_gap);
      }
    } catch (const rt::StallError&) {
      stalled = true;
    }
    appender_done = true;
  });

  rt::Rng config_rng = rng.split();
  rt::Thread config_thread([&] {
    gate.wait();
    // Let the pipeline reach its steady state (buffer full, appender
    // blocked) before reconfiguring, then add random jitter — the grow
    // fires "mid-workload" like the original bug reports describe.
    // The jitter draw is on the nominal window and the whole delay goes
    // through the clock policy: the old code mixed scaled components
    // into a raw sleep_for, which both bypassed a virtual clock and
    // made the RNG stream depend on the time scale.
    const auto max_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(options.jitter)
            .count();
    auto delay = std::chrono::duration_cast<rt::Duration>(options.pause) / 2;
    if (max_ns > 0) {
      delay += std::chrono::nanoseconds(
          config_rng.next_below(static_cast<std::uint64_t>(max_ns) + 1));
    }
    rt::clock_sleep_for(delay);
    appender.set_buffer_size(options.grown_buffer);
  });

  rt::Rng dispatch_rng = rng.split();
  rt::Thread dispatcher([&] {
    gate.wait();
    for (;;) {
      // A little natural dawdle before each pass widens the window in
      // which set_buffer_size can sneak in (the ~5% natural stall).
      // Nominal draw, clock-policy sleep — see the config thread above.
      const auto max_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(options.jitter)
              .count() /
          4;
      if (max_ns > 0) {
        rt::clock_sleep_for(std::chrono::nanoseconds(
            dispatch_rng.next_below(static_cast<std::uint64_t>(max_ns) +
                                    1)));
      }
      if (!appender.dispatch_one()) break;
      if (stalled.load()) break;  // appender gave up: drain is pointless
    }
  });

  gate.open();
  appender_thread.join();
  config_thread.join();
  appender.close();  // wakes the dispatcher out of its item wait
  dispatcher.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  outcome.stalled = stalled.load();
  outcome.breakpoint_hit =
      engine.stats(kContentionBreakpoint).hits > hits_before;
  return outcome;
}

RunOutcome run_missed_notify1(const RunOptions& options) {
  MethodologyIIOptions m2;
  m2.breakpoints = options.breakpoints;
  m2.first = options.order_forward ? Site::kSetBufferSize : Site::kDispatch;
  m2.second = options.order_forward ? Site::kDispatch : Site::kSetBufferSize;
  m2.pause = options.pause;
  // Pacing scales with the pause, as the grow's arrival (pause/2) does:
  // the appender is blocked on a full buffer well before the grow, and
  // a breakpoint-ordered "dispatch first" leaves the grow a wide margin
  // to land before the next append even on a loaded multicore host.
  m2.append_gap = options.pause / 8;
  m2.stall_after = options.stall_after;
  m2.seed = options.seed;
  const MethodologyIIOutcome result = run_methodology2(m2);
  RunOutcome outcome;
  outcome.runtime_seconds = result.runtime_seconds;
  if (result.stalled) {
    outcome.artifact = rt::Artifact::kStall;
    outcome.detail = "missed notification: appender stranded on full buffer";
  }
  return outcome;
}

}  // namespace cbp::apps::logging
