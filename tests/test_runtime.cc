// Unit tests for the runtime substrate: clocks, RNG, thread registry,
// lock tracker, latches/barriers, the bounded channel, and the spin
// phase in front of a park.

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "runtime/channel.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"
#include "runtime/lock_tracker.h"
#include "runtime/rng.h"
#include "runtime/sim_crash.h"
#include "runtime/spin.h"
#include "runtime/thread_registry.h"
#include "runtime/vclock.h"

namespace cbp::rt {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// TimeScale / Stopwatch
// ---------------------------------------------------------------------------

TEST(TimeScale, DefaultIsIdentity) {
  ScopedTimeScale scale(1.0);
  EXPECT_EQ(TimeScale::apply(100ms), 100ms);
}

TEST(TimeScale, ScalesDown) {
  ScopedTimeScale scale(0.01);
  EXPECT_EQ(TimeScale::apply(100ms), 1ms);
}

TEST(TimeScale, ScalesUp) {
  ScopedTimeScale scale(3.0);
  EXPECT_EQ(TimeScale::apply(10ms), 30ms);
}

TEST(TimeScale, ScopedRestoresPrevious) {
  TimeScale::set(1.0);
  {
    ScopedTimeScale scale(0.5);
    EXPECT_DOUBLE_EQ(TimeScale::get(), 0.5);
  }
  EXPECT_DOUBLE_EQ(TimeScale::get(), 1.0);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  std::this_thread::sleep_for(20ms);
  EXPECT_GE(sw.elapsed_us(), 15'000);
  sw.restart();
  EXPECT_LT(sw.elapsed_us(), 15'000);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // Parent continues; child does not replay parent's outputs.
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, WorksWithStdShuffle) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  Rng rng(9);
  std::shuffle(v.begin(), v.end(), rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

// ---------------------------------------------------------------------------
// Thread registry
// ---------------------------------------------------------------------------

TEST(ThreadRegistry, IdsAreStablePerThread) {
  const ThreadId a = this_thread_id();
  const ThreadId b = this_thread_id();
  EXPECT_EQ(a, b);
}

TEST(ThreadRegistry, DistinctThreadsGetDistinctIds) {
  const ThreadId mine = this_thread_id();
  ThreadId theirs = mine;
  std::thread t([&] { theirs = this_thread_id(); });
  t.join();
  EXPECT_NE(mine, theirs);
}

TEST(ThreadRegistry, NamesRoundTrip) {
  set_this_thread_name("main-test-thread");
  EXPECT_EQ(this_thread_name(), "main-test-thread");
  EXPECT_EQ(thread_name(this_thread_id()), "main-test-thread");
}

TEST(ThreadRegistry, UnnamedThreadGetsSyntheticName) {
  std::string name;
  std::thread t([&] { name = this_thread_name(); });
  t.join();
  EXPECT_FALSE(name.empty());
  EXPECT_EQ(name[0], 'T');
}

TEST(ThreadRegistry, ResetEpochBlockedInsideParallelRegion) {
  EXPECT_FALSE(ParallelRegion::active());
  EXPECT_TRUE(reset_thread_epoch());
  {
    ParallelRegion region;
    EXPECT_TRUE(ParallelRegion::active());
    EXPECT_FALSE(reset_thread_epoch());  // no-op while trials in flight
    {
      ParallelRegion nested;
      EXPECT_FALSE(reset_thread_epoch());
    }
    EXPECT_FALSE(reset_thread_epoch());  // outer region still live
  }
  EXPECT_FALSE(ParallelRegion::active());
  EXPECT_TRUE(reset_thread_epoch());
}

// ---------------------------------------------------------------------------
// Thread-bound context
// ---------------------------------------------------------------------------

TEST(Context, DefaultsToNull) { EXPECT_EQ(bound_context(), nullptr); }

TEST(Context, ScopedContextBindsAndRestores) {
  int marker = 0;
  {
    ScopedContext outer(&marker);
    EXPECT_EQ(bound_context(), &marker);
    int inner_marker = 0;
    {
      ScopedContext inner(&inner_marker);
      EXPECT_EQ(bound_context(), &inner_marker);
    }
    EXPECT_EQ(bound_context(), &marker);
  }
  EXPECT_EQ(bound_context(), nullptr);
}

TEST(Context, RtThreadInheritsCreatorContext) {
  int marker = 0;
  void* seen_by_child = nullptr;
  void* seen_by_grandchild = nullptr;
  {
    ScopedContext scope(&marker);
    Thread child([&] {
      seen_by_child = bound_context();
      Thread grandchild([&] { seen_by_grandchild = bound_context(); });
      grandchild.join();
    });
    child.join();
  }
  EXPECT_EQ(seen_by_child, &marker);
  EXPECT_EQ(seen_by_grandchild, &marker);
}

TEST(Context, RtThreadSnapshotsContextAtCreation) {
  // The context captured is the creator's at spawn time, not at join
  // time, and plain std::thread children see no context at all.
  int marker = 0;
  void* seen = reinterpret_cast<void*>(1);
  Thread child;
  {
    ScopedContext scope(&marker);
    child = Thread([&] { seen = bound_context(); });
  }
  child.join();
  EXPECT_EQ(seen, &marker);

  void* plain_seen = reinterpret_cast<void*>(1);
  ScopedContext scope(&marker);
  std::thread plain([&] { plain_seen = bound_context(); });
  plain.join();
  EXPECT_EQ(plain_seen, nullptr);
}

TEST(Context, RtThreadPassesArguments) {
  int result = 0;
  Thread t([](int a, int b, int* out) { *out = a + b; }, 20, 22, &result);
  t.join();
  EXPECT_EQ(result, 42);
}

// ---------------------------------------------------------------------------
// Lock tracker
// ---------------------------------------------------------------------------

TEST(LockTracker, TracksNestedHolds) {
  int lock_a = 0, lock_b = 0;
  EXPECT_EQ(held_lock_count(), 0u);
  {
    ScopedLockNote note_a(&lock_a, "A");
    EXPECT_TRUE(is_lock_held(&lock_a));
    EXPECT_TRUE(is_lock_type_held("A"));
    EXPECT_FALSE(is_lock_type_held("B"));
    {
      ScopedLockNote note_b(&lock_b, "B");
      EXPECT_EQ(held_lock_count(), 2u);
      EXPECT_TRUE(is_lock_type_held("B"));
    }
    EXPECT_FALSE(is_lock_held(&lock_b));
  }
  EXPECT_EQ(held_lock_count(), 0u);
}

TEST(LockTracker, HandOverHandRelease) {
  int lock_a = 0, lock_b = 0;
  note_lock_acquired(&lock_a, "A");
  note_lock_acquired(&lock_b, "B");
  note_lock_released(&lock_a);  // release outer first
  EXPECT_FALSE(is_lock_held(&lock_a));
  EXPECT_TRUE(is_lock_held(&lock_b));
  note_lock_released(&lock_b);
  EXPECT_EQ(held_lock_count(), 0u);
}

TEST(LockTracker, PerThreadIsolation) {
  int lock_a = 0;
  ScopedLockNote note(&lock_a, "A");
  bool other_thread_sees_it = true;
  std::thread t([&] { other_thread_sees_it = is_lock_held(&lock_a); });
  t.join();
  EXPECT_FALSE(other_thread_sees_it);
}

TEST(LockTracker, HeldLocksSnapshotOrdered) {
  int lock_a = 0, lock_b = 0;
  ScopedLockNote na(&lock_a, "A");
  ScopedLockNote nb(&lock_b, "B");
  const auto snapshot = held_locks();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].lock, &lock_a);
  EXPECT_EQ(snapshot[1].lock, &lock_b);
}

// ---------------------------------------------------------------------------
// Latch / Barrier / StartGate
// ---------------------------------------------------------------------------

TEST(Latch, ReleasesAfterCountDown) {
  Latch latch(2);
  EXPECT_FALSE(latch.try_wait());
  latch.count_down();
  EXPECT_FALSE(latch.try_wait());
  latch.count_down();
  EXPECT_TRUE(latch.try_wait());
  latch.wait();  // returns immediately
}

TEST(Latch, WaitForTimesOut) {
  Latch latch(1);
  EXPECT_FALSE(latch.wait_for(10ms));
  latch.count_down();
  EXPECT_TRUE(latch.wait_for(10ms));
}

TEST(Latch, CrossThreadRelease) {
  Latch latch(1);
  std::thread t([&] { latch.count_down(); });
  latch.wait();
  t.join();
  SUCCEED();
}

TEST(Barrier, SynchronizesParties) {
  constexpr int kParties = 4;
  constexpr int kRounds = 5;
  Barrier barrier(kParties);
  std::atomic<int> in_round{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  threads.reserve(kParties);
  for (int p = 0; p < kParties; ++p) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        in_round.fetch_add(1);
        barrier.arrive_and_wait();
        // Everyone has arrived for round r.
        if (in_round.load() < kParties * (r + 1)) violation = true;
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violation.load());
}

TEST(StartGate, HoldsUntilOpen) {
  StartGate gate;
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      gate.wait();
      started.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(started.load(), 0);
  gate.open();
  for (auto& t : threads) t.join();
  EXPECT_EQ(started.load(), 3);
}

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

TEST(Channel, SendReceiveFifo) {
  Channel<int> ch(4);
  EXPECT_TRUE(ch.send(1));
  EXPECT_TRUE(ch.send(2));
  EXPECT_EQ(ch.receive(), std::optional<int>(1));
  EXPECT_EQ(ch.receive(), std::optional<int>(2));
}

TEST(Channel, TrySendFullFails) {
  Channel<int> ch(1);
  EXPECT_TRUE(ch.try_send(1));
  EXPECT_FALSE(ch.try_send(2));
}

TEST(Channel, ReceiveForTimesOut) {
  Channel<int> ch(1);
  EXPECT_EQ(ch.receive_for(10ms), std::nullopt);
}

TEST(Channel, CloseDrainsThenEnds) {
  Channel<int> ch(4);
  ASSERT_TRUE(ch.send(7));
  ch.close();
  EXPECT_FALSE(ch.send(8));
  EXPECT_EQ(ch.receive(), std::optional<int>(7));
  EXPECT_EQ(ch.receive(), std::nullopt);
}

TEST(Channel, CloseWakesBlockedReceiver) {
  Channel<int> ch(1);
  std::optional<int> got = 99;
  std::thread t([&] { got = ch.receive(); });
  std::this_thread::sleep_for(10ms);
  ch.close();
  t.join();
  EXPECT_EQ(got, std::nullopt);
}

TEST(Channel, BlockedSenderUnblocksOnReceive) {
  Channel<int> ch(1);
  ASSERT_TRUE(ch.send(1));
  std::thread t([&] { EXPECT_TRUE(ch.send(2)); });
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(ch.receive(), std::optional<int>(1));
  t.join();
  EXPECT_EQ(ch.receive(), std::optional<int>(2));
}

TEST(Channel, MpmcStress) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  Channel<int> ch(8);
  std::atomic<long> sum{0};
  std::atomic<int> received{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.send(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = ch.receive()) {
        sum.fetch_add(*v);
        received.fetch_add(1);
      }
    });
  }
  // Join producers (first kProducers threads), then close.
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  ch.close();
  for (int c = 0; c < kConsumers; ++c) {
    threads[static_cast<size_t>(kProducers + c)].join();
  }
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  long expected = 0;
  for (int i = 0; i < total; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

// ---------------------------------------------------------------------------
// SimulatedCrash / Artifact
// ---------------------------------------------------------------------------

TEST(SimCrash, IsARuntimeError) {
  try {
    throw SimulatedCrash("null pointer dereference");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "null pointer dereference");
  }
}

TEST(Artifact, NamesMatchPaperVocabulary) {
  EXPECT_STREQ(artifact_name(Artifact::kStall), "stall");
  EXPECT_STREQ(artifact_name(Artifact::kWrongResult), "test fail");
  EXPECT_STREQ(artifact_name(Artifact::kException), "exception");
  EXPECT_STREQ(artifact_name(Artifact::kCrash), "crash");
  EXPECT_STREQ(artifact_name(Artifact::kLogCorruption), "log corruption");
  EXPECT_STREQ(artifact_name(Artifact::kLogOmission), "log omission");
  EXPECT_STREQ(artifact_name(Artifact::kLogDisorder), "log disorder");
}

// ---------------------------------------------------------------------------
// Spin, then park
// ---------------------------------------------------------------------------

TEST(Spin, NeverSpinsUnderAVirtualClock) {
  internal::t_spin_after = {};
  EXPECT_NE(spin_stop(1s), TimePoint::min());
  VirtualClock vc;
  ScopedClock bind(&vc);
  EXPECT_EQ(spin_stop(1s), TimePoint::min());
}

// A busy loop pinned to this thread's CPU: the spin's first yield hands
// it the CPU for a time slice, which must end the spin and stop this
// thread from spinning for the backoff.
TEST(Spin, YieldLostToABusyCpuStopsSpinning) {
  cpu_set_t saved;
  ASSERT_EQ(::pthread_getaffinity_np(::pthread_self(), sizeof(saved), &saved),
            0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);

  std::atomic<bool> busy{true};
  std::atomic<bool> started{false};
  std::thread hog([&] {
    ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
    started.store(true);
    while (busy.load(std::memory_order_relaxed)) {
    }
  });
  ASSERT_EQ(::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one), 0);
  while (!started.load()) std::this_thread::yield();

  internal::t_spin_after = {};
  const TimePoint start = Clock::now();
  EXPECT_FALSE(spin_until(start + 10s, [] { return false; }));
  const TimePoint end = Clock::now();
  busy.store(false);
  hog.join();
  ::pthread_setaffinity_np(::pthread_self(), sizeof(saved), &saved);

  EXPECT_LT(end - start, 10s);  // ended by the lost yield, not the stop
  EXPECT_GT(end - start, kSpinBudget);
  EXPECT_GE(internal::t_spin_after, end);
  EXPECT_EQ(spin_stop(1s, end), TimePoint::min());
  EXPECT_NE(spin_stop(1s, end + kLostYieldBackoff), TimePoint::min());
  internal::t_spin_after = {};
}

}  // namespace
}  // namespace cbp::rt
