// Concurrency stress test for the interned-name engine fast paths.
//
// Many threads hammer many distinct breakpoint names with a mix of
// outcomes — spec-disabled, local-reject, bound-suppressed, ignored,
// postponed timeout, and matched pairs — all concurrently.  The
// admission counters are lock-free (striped tallies plus single
// decision atomics, engine.h HotCounters), yet the totals must be
// EXACT, not approximate: this pins down that the lock-free interning,
// spec and admission fast paths lose no events and double-count
// nothing, on the rendezvous, pattern and process-group paths alike.
//
// The last block covers the spin phase in front of every park
// (runtime/spin.h): a postponement bound below the spin budget stays
// exact, a guard-wait cap below it still degrades, and two partners
// sharing one CPU still hand a hit over in microseconds.

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/spin.h"

// TSan slows every atomic and mutex operation by an order of magnitude,
// so microsecond latency bounds mean nothing there; those checks are
// skipped under it while the workload (and its exact counts) still runs.
#if defined(__SANITIZE_THREAD__)
#define CBP_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CBP_TSAN_ACTIVE 1
#endif
#endif
#ifndef CBP_TSAN_ACTIVE
#define CBP_TSAN_ACTIVE 0
#endif

namespace cbp {
namespace {

using namespace std::chrono_literals;

constexpr int kThreads = 8;          // paired for the match category
constexpr int kDistinct = 32;        // names per non-blocking category
constexpr std::uint64_t kIters = 40; // per-thread calls per category
constexpr std::uint64_t kTimeoutIters = 4;
constexpr std::uint64_t kMatchIters = 25;

std::string name_for(const char* category, int index) {
  std::ostringstream os;
  os << "stress-" << category << '-' << index;
  return os.str();
}

/// Process-group transport that never matches: it only counts how often
/// the engine got past admission and asked it to park a call.
class StubTransport : public TransportPolicy {
 public:
  RemoteTriggerResult trigger_remote(const RemoteTriggerRequest&) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    RemoteTriggerResult result;
    result.outcome = RemoteOutcome::kTimeout;
    return result;
  }

  std::atomic<std::uint64_t> calls{0};
};

class EngineStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    BreakpointSpec::clear_installed();
    Config::set_enabled(true);
    Config::set_default_timeout(100ms);
    rt::TimeScale::set(1.0);
  }

  void TearDown() override {
    Engine::instance().set_transport(nullptr);
    BreakpointSpec::clear_installed();
    Engine::instance().reset();
    Config::set_enabled(true);
  }
};

TEST_F(EngineStressTest, MixedOutcomesAcrossThreadsKeepExactCounters) {
  // Spec: one block of names disabled outright, one block bounded to
  // zero hits (every arrival suppressed).
  std::ostringstream spec_text;
  for (int i = 0; i < kDistinct; ++i) {
    spec_text << name_for("off", i) << " off\n";
    spec_text << name_for("bound", i) << " bound=0\n";
  }
  BreakpointSpec::parse(spec_text.str()).install();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      // Non-blocking categories: every thread sweeps every name.
      for (std::uint64_t i = 0; i < kIters; ++i) {
        const int index = static_cast<int>((i * kThreads + t) % kDistinct);

        // Spec-disabled: returns false before any counter is touched.
        OrderTrigger off(name_for("off", index));
        EXPECT_FALSE(off.trigger_here(true, 0ms));

        // Local predicate rejects: calls and local_rejects only.
        PredicateTrigger reject(
            name_for("reject", index), [] { return false; },
            [](const BTrigger&) { return true; });
        EXPECT_FALSE(reject.trigger_here(true, 0ms));

        // bound=0: arrival recorded, then suppressed (hits >= 0 always).
        OrderTrigger bounded(name_for("bound", index));
        EXPECT_FALSE(bounded.trigger_here(true, 0ms));
      }

      // Timeout category: a per-thread private name, so no peer ever
      // arrives and every call postpones then times out.
      for (std::uint64_t i = 0; i < kTimeoutIters; ++i) {
        OrderTrigger alone(name_for("timeout", t));
        EXPECT_FALSE(alone.trigger_here(true, 1ms));
      }

      // Match category: threads t and t^1 share a name and opposite
      // ranks; each rendezvous is its own barrier, so both sides run in
      // lockstep and every single call hits.
      const std::string match_name = name_for("match", t / 2);
      for (std::uint64_t i = 0; i < kMatchIters; ++i) {
        OrderTrigger paired(match_name);
        EXPECT_TRUE(paired.trigger_here((t & 1) == 0, 10000ms));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // --- spec-disabled names: never counted, never listed -------------
  for (int i = 0; i < kDistinct; ++i) {
    const BreakpointStats off = Engine::instance().stats(name_for("off", i));
    EXPECT_EQ(off.calls, 0u);
    EXPECT_EQ(off.arrivals, 0u);
  }

  // --- local-reject names -------------------------------------------
  // kThreads sweeps of kIters calls spread round-robin over kDistinct
  // names: kThreads * kIters / kDistinct calls per name, exactly.
  const std::uint64_t per_name = kThreads * kIters / kDistinct;
  for (int i = 0; i < kDistinct; ++i) {
    const BreakpointStats s = Engine::instance().stats(name_for("reject", i));
    EXPECT_EQ(s.calls, per_name) << "reject name " << i;
    EXPECT_EQ(s.local_rejects, per_name);
    EXPECT_EQ(s.arrivals, 0u);
    EXPECT_EQ(s.postponed, 0u);
  }

  // --- bound=0 names ------------------------------------------------
  for (int i = 0; i < kDistinct; ++i) {
    const BreakpointStats s = Engine::instance().stats(name_for("bound", i));
    EXPECT_EQ(s.calls, per_name) << "bound name " << i;
    EXPECT_EQ(s.arrivals, per_name);
    EXPECT_EQ(s.bounded, per_name);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.postponed, 0u);
  }

  // --- timeout names ------------------------------------------------
  for (int t = 0; t < kThreads; ++t) {
    const BreakpointStats s = Engine::instance().stats(name_for("timeout", t));
    EXPECT_EQ(s.calls, kTimeoutIters) << "timeout name " << t;
    EXPECT_EQ(s.postponed, kTimeoutIters);
    EXPECT_EQ(s.timeouts, kTimeoutIters);
    EXPECT_EQ(s.hits, 0u);
  }

  // --- matched pairs ------------------------------------------------
  for (int pair = 0; pair < kThreads / 2; ++pair) {
    const BreakpointStats s = Engine::instance().stats(name_for("match", pair));
    EXPECT_EQ(s.calls, 2 * kMatchIters) << "match name " << pair;
    EXPECT_EQ(s.hits, kMatchIters);
    EXPECT_EQ(s.participants, 2 * kMatchIters);
    EXPECT_EQ(s.timeouts, 0u);
    // Exactly one side of each pair postpones before its peer arrives.
    EXPECT_EQ(s.postponed, kMatchIters);
  }

  // --- global invariants over every touched name --------------------
  BreakpointStats summed;
  for (const std::string& name : Engine::instance().names()) {
    EXPECT_EQ(name.find("stress-off-"), std::string::npos)
        << "spec-disabled name leaked into names(): " << name;
    const BreakpointStats s = Engine::instance().stats(name);
    EXPECT_EQ(s.arrivals, s.calls - s.local_rejects) << name;
    EXPECT_EQ(s.participants, 2 * s.hits) << name;
    EXPECT_EQ(s.postponed, s.timeouts + s.cancelled + s.hits) << name;
    summed += s;
  }

  const BreakpointStats total = Engine::instance().total_stats();
  EXPECT_EQ(total.calls, summed.calls);
  EXPECT_EQ(total.arrivals, summed.arrivals);
  EXPECT_EQ(total.local_rejects, summed.local_rejects);
  EXPECT_EQ(total.bounded, summed.bounded);
  EXPECT_EQ(total.postponed, summed.postponed);
  EXPECT_EQ(total.timeouts, summed.timeouts);
  EXPECT_EQ(total.cancelled, summed.cancelled);
  EXPECT_EQ(total.hits, summed.hits);
  EXPECT_EQ(total.participants, summed.participants);

  const std::uint64_t expected_calls =
      static_cast<std::uint64_t>(kThreads) * kIters * 2  // reject + bound
      + static_cast<std::uint64_t>(kThreads) * kTimeoutIters
      + static_cast<std::uint64_t>(kThreads) * kMatchIters;
  EXPECT_EQ(total.calls, expected_calls);
  EXPECT_EQ(total.hits,
            static_cast<std::uint64_t>(kThreads / 2) * kMatchIters);
}

// Interning the same names from many threads at once must yield one
// record per name (no lost or duplicated stats), including when the
// names spill past the lock-free probe cells into the overflow map.
TEST_F(EngineStressTest, ConcurrentInterningIsRaceFreeAndStable) {
  constexpr int kNames = 256;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kNames; ++i) {
        PredicateTrigger bt(
            name_for("intern", i), [] { return false; },
            [](const BTrigger&) { return true; });
        bt.trigger_here(true, 0ms);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int i = 0; i < kNames; ++i) {
    const BreakpointStats s = Engine::instance().stats(name_for("intern", i));
    EXPECT_EQ(s.calls, static_cast<std::uint64_t>(kThreads)) << i;
    EXPECT_EQ(s.local_rejects, static_cast<std::uint64_t>(kThreads)) << i;
  }
  EXPECT_EQ(Engine::instance().names().size(),
            static_cast<std::size_t>(kNames));
}

// ---- striped admission counters ---------------------------------------

// More threads than stripes, so several threads share every cell.
constexpr int kStripedThreads = 32;
static_assert(kStripedThreads > static_cast<int>(internal::kCounterStripes),
              "stripes must be shared for the exactness check to bite");
constexpr std::uint64_t kRoundOneIters = 60;
constexpr std::uint64_t kRoundTwoIters = 25;
constexpr std::uint64_t kIgnoreWindow = kStripedThreads * kRoundOneIters;

/// The three trigger paths, each with one name per non-matching outcome.
constexpr const char* kPaths[] = {"rdv", "pat", "remote"};
constexpr const char* kOutcomes[] = {"reject", "bound", "ignore"};

std::string striped_name(const char* path, const char* outcome) {
  return std::string("striped-") + path + '-' + outcome;
}

/// One thread's share of a round: `iters` calls of every outcome on every
/// path.  Local rejects come from a predicate that always fails; the
/// bound and ignore names are screened by their spec entries.
void issue_striped_round(std::uint64_t iters) {
  const auto never = [] { return false; };
  const auto any = [](const BTrigger&) { return true; };
  for (std::uint64_t i = 0; i < iters; ++i) {
    PredicateTrigger rdv_reject(striped_name("rdv", "reject"), never, any);
    EXPECT_FALSE(rdv_reject.trigger_here(true, 0ms));
    OrderTrigger rdv_bound(striped_name("rdv", "bound"));
    EXPECT_FALSE(rdv_bound.trigger_here(true, 0ms));
    OrderTrigger rdv_ignore(striped_name("rdv", "ignore"));
    EXPECT_FALSE(rdv_ignore.trigger_here(true, 0ms));

    PredicateTrigger pat_reject(striped_name("pat", "reject"), never, any);
    EXPECT_FALSE(pat_reject.trigger_here_site("a", 0ms).hit);
    OrderTrigger pat_bound(striped_name("pat", "bound"));
    EXPECT_FALSE(pat_bound.trigger_here_site("a", 0ms).hit);
    OrderTrigger pat_ignore(striped_name("pat", "ignore"));
    EXPECT_FALSE(pat_ignore.trigger_here_site("a", 0ms).hit);

    PredicateTrigger remote_reject(striped_name("remote", "reject"), never,
                                   any);
    EXPECT_FALSE(remote_reject.trigger_here(true, 0ms));
    OrderTrigger remote_bound(striped_name("remote", "bound"));
    EXPECT_FALSE(remote_bound.trigger_here(false, 0ms));
    OrderTrigger remote_ignore(striped_name("remote", "ignore"));
    EXPECT_FALSE(remote_ignore.trigger_here(false, 0ms));
  }
}

void run_striped_round(std::uint64_t iters) {
  std::latch start(kStripedThreads);
  std::vector<std::thread> threads;
  threads.reserve(kStripedThreads);
  for (int t = 0; t < kStripedThreads; ++t) {
    threads.emplace_back([&start, iters] {
      start.arrive_and_wait();  // all threads contend at once
      issue_striped_round(iters);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

void expect_striped_counts(std::uint64_t iters) {
  const std::uint64_t n = kStripedThreads * iters;
  for (const char* path : kPaths) {
    const BreakpointStats reject =
        Engine::instance().stats(striped_name(path, "reject"));
    EXPECT_EQ(reject.local_rejects, n) << path;
    EXPECT_EQ(reject.arrivals, 0u) << path;

    const BreakpointStats bounded =
        Engine::instance().stats(striped_name(path, "bound"));
    EXPECT_EQ(bounded.arrivals, n) << path;
    EXPECT_EQ(bounded.bounded, n) << path;
    EXPECT_EQ(bounded.ignored, 0u) << path;

    const BreakpointStats ignored =
        Engine::instance().stats(striped_name(path, "ignore"));
    EXPECT_EQ(ignored.arrivals, n) << path;
    EXPECT_EQ(ignored.ignored, n) << path;
    EXPECT_EQ(ignored.bounded, 0u) << path;

    for (const BreakpointStats& s : {reject, bounded, ignored}) {
      EXPECT_EQ(s.calls, n) << path;
      EXPECT_EQ(s.calls, s.local_rejects + s.arrivals) << path;
      EXPECT_EQ(s.postponed, 0u) << path;
      EXPECT_EQ(s.hits, 0u) << path;
    }
  }
}

// Every non-matching outcome on every trigger path counts exactly, with
// stripes shared between threads, and reset() zeroes every stripe.
TEST_F(EngineStressTest, StripedCountersStayExact) {
  std::ostringstream spec;
  spec << striped_name("rdv", "bound") << " bound=0\n"
       << striped_name("rdv", "ignore") << " ignore_first=" << kIgnoreWindow
       << "\n"
       << striped_name("pat", "reject") << " pattern=a.b\n"
       << striped_name("pat", "bound") << " pattern=a.b bound=0\n"
       << striped_name("pat", "ignore") << " pattern=a.b ignore_first="
       << kIgnoreWindow << "\n"
       << striped_name("remote", "reject") << " scope=process-group\n"
       << striped_name("remote", "bound") << " scope=process-group bound=0\n"
       << striped_name("remote", "ignore")
       << " scope=process-group ignore_first=" << kIgnoreWindow << "\n";
  BreakpointSpec::parse(spec.str()).install();
  auto transport = std::make_shared<StubTransport>();
  Engine::instance().set_transport(transport);

  run_striped_round(kRoundOneIters);
  expect_striped_counts(kRoundOneIters);
  // Admission screened every call; none reached the transport.
  EXPECT_EQ(transport->calls.load(), 0u);
  // A name that only ever rejected locally was still seen.
  const std::vector<std::string> seen = Engine::instance().names();
  for (const char* path : kPaths) {
    EXPECT_NE(std::find(seen.begin(), seen.end(),
                        striped_name(path, "reject")),
              seen.end())
        << path;
  }

  Engine::instance().reset();
  for (const char* path : kPaths) {
    for (const char* outcome : kOutcomes) {
      const BreakpointStats s =
          Engine::instance().stats(striped_name(path, outcome));
      EXPECT_EQ(s.calls, 0u) << path << ' ' << outcome;
      EXPECT_EQ(s.local_rejects + s.bounded + s.ignored, 0u)
          << path << ' ' << outcome;
    }
  }
  // The stripe sums cover every cell, whichever threads touch them, so a
  // cell the reset missed would show up in the second round's totals.
  run_striped_round(kRoundTwoIters);
  expect_striped_counts(kRoundTwoIters);
  EXPECT_EQ(transport->calls.load(), 0u);
}

// A snapshot taken while threads are mid-call still satisfies
// calls == local_rejects + arrivals (calls is derived), and no counter
// ever moves backwards between successive snapshots.
TEST_F(EngineStressTest, LiveSnapshotsStayConsistentAndMonotonic) {
  constexpr int kLiveThreads = 8;
  constexpr std::uint64_t kLiveIters = 20000;
  constexpr std::uint64_t kMinSnapshots = 200;
  BreakpointSpec::parse("live-mix bound=0\n").install();

  // Workers keep calling until both they have done kLiveIters calls and
  // the snapshot loop below has seen them in flight kMinSnapshots times.
  std::atomic<bool> stop{false};
  std::atomic<int> running{kLiveThreads};
  std::vector<std::uint64_t> issued(kLiveThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kLiveThreads);
  for (int t = 0; t < kLiveThreads; ++t) {
    threads.emplace_back([&stop, &running, &n = issued[t]] {
      // Three in four calls reject locally; the rest arrive and bound out.
      PredicateTrigger bt(
          "live-mix", [&n] { return n % 4 == 0; },
          [](const BTrigger&) { return true; });
      for (; n < kLiveIters || !stop.load(); ++n) bt.trigger_here(true, 0ms);
      running.fetch_sub(1);
    });
  }

  BreakpointStats prev;
  std::uint64_t snapshots = 0;
  std::uint64_t unequal = 0;
  std::uint64_t decreased = 0;
  while (running.load() > 0) {
    const BreakpointStats s = Engine::instance().stats("live-mix");
    if (s.calls != s.local_rejects + s.arrivals) ++unequal;
    if (s.calls < prev.calls || s.local_rejects < prev.local_rejects ||
        s.arrivals < prev.arrivals || s.bounded < prev.bounded) {
      ++decreased;
    }
    prev = s;
    if (++snapshots == kMinSnapshots) stop.store(true);
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_GE(snapshots, kMinSnapshots);
  EXPECT_EQ(unequal, 0u) << "of " << snapshots << " live snapshots";
  EXPECT_EQ(decreased, 0u) << "of " << snapshots << " live snapshots";
  std::uint64_t total = 0;
  std::uint64_t arrivals = 0;
  for (const std::uint64_t n : issued) {
    total += n;
    arrivals += (n + 3) / 4;  // calls 0, 4, 8, ... pass the predicate
  }
  const BreakpointStats done = Engine::instance().stats("live-mix");
  EXPECT_EQ(done.calls, total);
  EXPECT_EQ(done.arrivals, arrivals);
  EXPECT_EQ(done.bounded, arrivals);
  EXPECT_EQ(done.local_rejects, total - arrivals);
}

// Process-group names bound out and ignore through the same lock-free
// admission as local names: with every slot mutex held by this thread,
// the calls still complete, and both paths count identically.
TEST_F(EngineStressTest, RemoteAdmissionScreensWithoutTheSlotMutex) {
  constexpr std::uint64_t kCalls = 64;
  std::ostringstream spec;
  spec << "admit-local-bound bound=0\n"
       << "admit-local-ignore ignore_first=" << kCalls << "\n"
       << "admit-remote-bound scope=process-group bound=0\n"
       << "admit-remote-ignore scope=process-group ignore_first=" << kCalls
       << "\n";
  BreakpointSpec::parse(spec.str()).install();
  auto transport = std::make_shared<StubTransport>();
  Engine& engine = Engine::instance();
  engine.set_transport(transport);

  const std::vector<std::string> names = {
      "admit-local-bound", "admit-local-ignore", "admit-remote-bound",
      "admit-remote-ignore"};
  std::vector<std::unique_lock<std::mutex>> held;
  for (const std::string& name : names) {
    held.emplace_back(engine.intern(name)->slot->mu);
  }
  auto screened = std::async(std::launch::async, [&names] {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      for (const std::string& name : names) {
        OrderTrigger bt(name);
        EXPECT_FALSE(bt.trigger_here(true, 0ms)) << name;
      }
    }
  });
  const bool finished =
      screened.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  held.clear();  // unblock a call that did take a slot mutex
  screened.get();
  EXPECT_TRUE(finished) << "a bounded or ignored call locked its slot mutex";
  EXPECT_EQ(transport->calls.load(), 0u);

  for (const char* outcome : {"bound", "ignore"}) {
    const BreakpointStats local =
        engine.stats(std::string("admit-local-") + outcome);
    const BreakpointStats remote =
        engine.stats(std::string("admit-remote-") + outcome);
    EXPECT_EQ(remote.calls, kCalls) << outcome;
    EXPECT_EQ(remote.arrivals, kCalls) << outcome;
    EXPECT_EQ(remote.bounded + remote.ignored, kCalls) << outcome;
    EXPECT_EQ(remote.calls, local.calls) << outcome;
    EXPECT_EQ(remote.arrivals, local.arrivals) << outcome;
    EXPECT_EQ(remote.local_rejects, local.local_rejects) << outcome;
    EXPECT_EQ(remote.bounded, local.bounded) << outcome;
    EXPECT_EQ(remote.ignored, local.ignored) << outcome;
    EXPECT_EQ(remote.postponed, local.postponed) << outcome;
    EXPECT_EQ(remote.postponed, 0u) << outcome;
  }
}

// ---------------------------------------------------------------------------
// Spin, then park
// ---------------------------------------------------------------------------

// Postponement bounds below the spin budget: the spin comes out of T, so
// an unmatched park still returns after about T (not T + the budget),
// counts exactly one timeout per call, and the spun time is part of the
// measured wait.  Rendezvous and pattern parks share the tail.
TEST_F(EngineStressTest, PostponementBoundBelowSpinBudgetStaysExact) {
  constexpr std::uint64_t kCalls = 20;
  constexpr std::chrono::microseconds kBounds[] = {0us, 5us, 20us};
  static_assert(20us < rt::kSpinBudget);
  std::ostringstream spec;
  for (const auto bound : kBounds) {
    spec << "spin-pattern-" << bound.count()
         << " pattern=first:t1.second:t2\n";
  }
  BreakpointSpec::parse(spec.str()).install();
  Engine& engine = Engine::instance();

  for (const auto bound : kBounds) {
    for (const bool pattern : {false, true}) {
      const std::string name =
          std::string(pattern ? "spin-pattern-" : "spin-rendezvous-") +
          std::to_string(bound.count());
      auto fastest = rt::Duration::max();
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        OrderTrigger bt(name);
        // A yield the host stretched past the budget would stop this
        // thread's spins for a while (rt::kLostYieldBackoff); each call
        // starts with spinning allowed.
        rt::internal::t_spin_after = {};
        const auto start = rt::Clock::now();
        const TriggerResult r =
            pattern ? engine.trigger_site(bt, "first", bound, false)
                    : engine.trigger(bt, 0, 2, bound, false);
        const rt::Duration took = rt::Clock::now() - start;
        EXPECT_FALSE(r.hit) << name;
        EXPECT_GE(took, bound) << name;
        EXPECT_LT(took, bound + 50ms) << name;  // loose: any load
        fastest = std::min(fastest, took);
      }
      if (!CBP_TSAN_ACTIVE) {
        // A spin added on top of T would make even the fastest call
        // take T + kSpinBudget.
        EXPECT_LT(fastest, bound + rt::kSpinBudget * 4 / 5) << name;
      }
      const BreakpointStats stats = engine.stats(name);
      EXPECT_EQ(stats.postponed, kCalls) << name;
      EXPECT_EQ(stats.timeouts, kCalls) << name;
      EXPECT_EQ(stats.hits, 0u) << name;
      EXPECT_EQ(stats.wait_hist.count, kCalls) << name;
      EXPECT_GE(stats.total_wait_us,
                static_cast<std::int64_t>(kCalls * bound.count()))
          << name;
      EXPECT_GE(stats.wait_hist.max,
                static_cast<std::uint64_t>(bound.count())) << name;
    }
  }
}

// A guard-wait cap below the spin budget: rank 1 of a scoped hit whose
// rank 0 keeps its guard still proceeds once the cap passes.
TEST_F(EngineStressTest, GuardWaitCapBelowSpinBudgetStillDegrades) {
  constexpr std::chrono::microseconds kCap{20};
  static_assert(kCap < rt::kSpinBudget);
  Engine& engine = Engine::instance();
  const std::int64_t saved_cap = engine.settings().guard_wait_cap_us.load();
  engine.settings().guard_wait_cap_us.store(kCap.count());

  std::atomic<bool> rank1_done{false};
  std::thread holder([&] {
    OrderTrigger bt("spin-cap");
    TriggerResult r = engine.trigger(bt, 0, 2, 10'000'000us, true);
    EXPECT_TRUE(r.hit);
    // Keep the guard until rank 1 has returned without it.
    while (!rank1_done.load()) std::this_thread::sleep_for(1ms);
  });
  while (engine.stats("spin-cap").postponed == 0) {
    std::this_thread::sleep_for(100us);
  }
  OrderTrigger bt("spin-cap");
  const auto start = rt::Clock::now();
  const TriggerResult r = engine.trigger(bt, 1, 2, 10'000'000us, true);
  const rt::Duration took = rt::Clock::now() - start;
  rank1_done.store(true);
  holder.join();

  EXPECT_TRUE(r.hit);
  EXPECT_GE(took, kCap);
  EXPECT_LT(took, 1s);  // degraded after the cap, not after the holder
  EXPECT_EQ(engine.stats("spin-cap").hits, 1u);
  engine.settings().guard_wait_cap_us.store(saved_cap);
}

// Both partners of a scoped 2-ary rendezvous pinned to one CPU.  Each
// handoff's spin must yield the CPU to the partner it waits for: a spin
// that only paused would hold the partner off for the whole budget at
// every step (about 100-230 us per hit, measured).
TEST_F(EngineStressTest, PartnersSharingOneCpuHandOffInMicroseconds) {
  constexpr int kHits = 2000;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);

  Engine& engine = Engine::instance();
  std::vector<rt::Duration> latency(kHits);
  auto partner = [&](int rank) {
    EXPECT_EQ(::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one),
              0);
    for (int i = 0; i < kHits; ++i) {
      OrderTrigger bt("spin-one-cpu");
      const auto start = rt::Clock::now();
      TriggerResult r = engine.trigger(bt, rank, 2, 10'000'000us, true);
      r.guard.release();
      if (rank == 0) {
        latency[static_cast<std::size_t>(i)] = rt::Clock::now() - start;
      }
      EXPECT_TRUE(r.hit);
    }
  };
  std::thread a(partner, 0);
  std::thread b(partner, 1);
  a.join();
  b.join();

  EXPECT_EQ(engine.stats("spin-one-cpu").hits,
            static_cast<std::uint64_t>(kHits));
  std::nth_element(latency.begin(), latency.begin() + kHits / 2,
                   latency.end());
  const auto median = latency[kHits / 2];
  if (!CBP_TSAN_ACTIVE) {
    EXPECT_LT(median, 50us)
        << "median hit "
        << std::chrono::duration_cast<std::chrono::nanoseconds>(median).count()
        << " ns on one CPU";
  }
}

}  // namespace
}  // namespace cbp
