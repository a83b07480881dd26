// Spin, then park: the bounded spin phase in front of a blocking handoff
// (DESIGN.md §5j).
//
// A breakpoint hit is a chain of handoffs between threads: the partner
// that matches wakes a parked slot waiter, rank 0's release wakes rank
// 1, and a remote hit adds two socket round trips.  When the next step
// comes within microseconds, parking in the kernel costs more than the
// step itself: the waker pays for the wakeup and the sleeper for
// waking a sleeping CPU.  So a blocking step first watches for its
// event for at most kSpinBudget, then parks exactly as before.
//
// Four rules keep the spin harmless:
//   * it comes out of the wait's own deadline, never on top of it, so a
//     postponement bound T still means at most T;
//   * it yields (sched_yield every kPausesPerYield pauses) rather than
//     only pausing: when the scheduler places both partners on one CPU,
//     a pause-only spinner keeps the partner it waits for off that CPU
//     for the whole budget;
//   * it backs off from a busy CPU: a yield that comes back only after
//     the whole budget means another task held the CPU for a time
//     slice, and a spinner that yields to such a task is held back a
//     slice after its event arrives, where a parked thread would be
//     woken at once.  The thread then parks without spinning for
//     kLostYieldBackoff;
//   * it runs under the real clock only.  Under a bound VirtualClock it
//     does nothing: the thread holding the run grant must block through
//     the clock so its partner can run, and virtual waits are free.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "runtime/clock.h"
#include "runtime/vclock.h"

namespace cbp::rt {

/// Longest spin before a blocking step parks.  Long enough to cover a
/// partner that is running on another CPU (a hit handoff takes a few
/// microseconds there), short enough that a partner that is not costs
/// little CPU.  Deliberately a constant, not a setting.
inline constexpr std::chrono::microseconds kSpinBudget{50};

/// CPU pause instructions between two sched_yield calls of a spin.
inline constexpr int kPausesPerYield = 8;

/// How long a thread does not spin after a yield of its spin lost the
/// CPU, i.e. returned only after more than kSpinBudget: another task
/// then had this CPU for a whole time slice.  On a CPU that busy a park
/// leaves nothing idle, so a spin buys nothing, and every lost yield
/// holds the spinner back for a slice (milliseconds) after its event.
inline constexpr std::chrono::milliseconds kLostYieldBackoff{100};

namespace internal {
/// The calling thread spins again only from this time on.
inline thread_local TimePoint t_spin_after{};
}  // namespace internal

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Calls `done` until it returns true or `stop` passes, pausing between
/// calls and yielding the CPU every kPausesPerYield calls.  `done` is
/// called at least once, and only once when `stop` has already passed.
/// A yield that loses the CPU (see kLostYieldBackoff) ends the spin and
/// keeps this thread from spinning for the backoff.  Returns the last
/// result of `done`.
template <class Done>
bool spin_until(TimePoint stop, Done&& done) {
  for (int i = 0;; ++i) {
    if (done()) return true;
    if (i % kPausesPerYield == 0 && Clock::now() >= stop) return false;
    if (i % kPausesPerYield != kPausesPerYield - 1) {
      cpu_relax();
      continue;
    }
    const TimePoint yielded = Clock::now();
    ::sched_yield();
    const TimePoint back = Clock::now();
    if (back - yielded > kSpinBudget) {
      internal::t_spin_after = back + kLostYieldBackoff;
      return done();
    }
  }
}

/// The spin deadline of a wait that may last `limit` from `from`: the
/// earlier of kSpinBudget and `limit`.  Time point min() means "do not
/// spin": a bound virtual clock, nothing left to wait, or a backoff
/// after a lost yield.
[[nodiscard]] inline TimePoint spin_stop(Duration limit,
                                         TimePoint from = Clock::now()) {
  if (bound_virtual_clock() != nullptr || limit <= Duration::zero() ||
      from < internal::t_spin_after) {
    return TimePoint::min();
  }
  return from + std::min<Duration>(limit, kSpinBudget);
}

/// Wakes the waiters of a cv whose spinning waiters watch `epoch`
/// (spin_wait): bumps the epoch, then notifies both worlds like
/// clock_notify_all.  The state the waiters' predicate reads must
/// already be written (under their mutex).
template <class CV>
void notify_handoff(CV& cv, std::atomic<std::uint64_t>& epoch) {
  epoch.fetch_add(1, std::memory_order_release);
  clock_notify_all(cv);
}

/// Spin phase of a predicate wait on a cv notified through
/// notify_handoff.  While `pred()` is false under `lock` and less than
/// min(kSpinBudget, `limit`) has passed, drops the lock, watches `epoch`
/// for a change, and re-takes the lock with a try_lock spin (falling
/// back to a blocking lock once the spin time is up).  Returns with
/// `lock` held and the time spent, which the caller takes out of its
/// own wait; the caller's predicate wait then runs unchanged, so no
/// wakeup is lost.  Does nothing under a bound virtual clock.
template <class Lock, class Pred>
Duration spin_wait(Lock& lock, const std::atomic<std::uint64_t>& epoch,
                   Duration limit, Pred& pred) {
  // Measured from the same instant as the stop, so a wait no longer
  // than the budget is all spin: nothing is left for a kernel timer
  // (whose slack would round it up by tens of microseconds).
  const TimePoint start = Clock::now();
  const TimePoint stop = spin_stop(limit, start);
  if (stop == TimePoint::min()) return Duration::zero();
  while (!pred()) {
    const std::uint64_t seen = epoch.load(std::memory_order_acquire);
    lock.unlock();
    spin_until(stop, [&] {
      return epoch.load(std::memory_order_acquire) != seen;
    });
    if (!spin_until(stop, [&] { return lock.try_lock(); })) lock.lock();
    if (Clock::now() >= stop) break;
  }
  return Clock::now() - start;
}

}  // namespace cbp::rt
