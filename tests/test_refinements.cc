// Parameterized sweeps over the §6.3 local-predicate refinements
// (ignore_first, bound) and concurrency stress for the instrumentation
// hub (listener add/remove racing dispatch).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/cbp.h"
#include "fuzz/noise.h"
#include "instrument/shared_var.h"
#include "runtime/clock.h"
#include "runtime/latch.h"

namespace cbp {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// ignore_first sweep: exactly the first n arrivals skip postponement.
// ---------------------------------------------------------------------------

class IgnoreFirstSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    Config::set_enabled(true);
    rt::TimeScale::set(1.0);
  }
  void TearDown() override { Engine::instance().reset(); }
};

TEST_P(IgnoreFirstSweep, ExactlyFirstNArrivalsSkipPostponement) {
  const int n = GetParam();
  int obj = 0;
  constexpr int kCalls = 12;
  constexpr auto kTimeout = 8ms;
  rt::Stopwatch clock;
  for (int i = 0; i < kCalls; ++i) {
    ConflictTrigger trigger("ignore-sweep", &obj);
    trigger.ignore_first(static_cast<std::uint64_t>(n));
    EXPECT_FALSE(trigger.trigger_here(true, kTimeout));
  }
  const auto stats = Engine::instance().stats("ignore-sweep");
  const int expected_ignored = std::min(n, kCalls);
  EXPECT_EQ(stats.ignored, static_cast<std::uint64_t>(expected_ignored));
  EXPECT_EQ(stats.postponed,
            static_cast<std::uint64_t>(kCalls - expected_ignored));
  EXPECT_EQ(stats.timeouts, stats.postponed);
  // Runtime ~= postponed * timeout (ignored arrivals are ~free).
  const auto floor_us = (kCalls - expected_ignored) * 8'000;
  EXPECT_GE(clock.elapsed_us(), floor_us - 2'000);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IgnoreFirstSweep,
                         ::testing::Values(0, 1, 5, 12, 100));

TEST(IgnoreFirstOrdering, ArrivalInsideWindowDoesNotMatchPostponedPeer) {
  // Regression for the trigger-order bug: the matcher used to run before
  // the ignore_first check, so an arrival inside the ignore window could
  // still complete a match against a postponed peer — with an exact
  // arrival counter the warm-up phase nevertheless recorded hits.  The
  // check now precedes matching: the in-window arrival neither matches
  // nor postpones, and the peer times out.
  Engine::instance().reset();
  Config::set_enabled(true);
  rt::TimeScale::set(1.0);
  int obj = 0;
  rt::Latch postponed(1);
  std::thread waiter([&] {
    ConflictTrigger t("ignore-order", &obj);  // no window: this postpones
    postponed.count_down();
    EXPECT_FALSE(t.trigger_here(true, 300ms));
  });
  postponed.wait();
  std::this_thread::sleep_for(20ms);
  ConflictTrigger t("ignore-order", &obj);
  t.ignore_first(2);  // this arrival is #2: exactly the window edge
  EXPECT_FALSE(t.trigger_here(false, 10ms));
  waiter.join();
  const auto stats = Engine::instance().stats("ignore-order");
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.ignored, 1u);
  EXPECT_EQ(stats.postponed, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  Engine::instance().reset();
}

// ---------------------------------------------------------------------------
// bound sweep: the breakpoint stops participating after exactly n hits.
// ---------------------------------------------------------------------------

class BoundSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    Config::set_enabled(true);
    Config::set_order_delay(std::chrono::microseconds(200));
    rt::TimeScale::set(1.0);
  }
  void TearDown() override { Engine::instance().reset(); }
};

TEST_P(BoundSweep, HitsStopAtTheBound) {
  const int bound = GetParam();
  constexpr int kIterations = 6;
  int obj = 0;
  std::atomic<int> hits_a{0}, hits_b{0};
  auto worker = [&](bool first, std::atomic<int>& hits) {
    for (int i = 0; i < kIterations; ++i) {
      ConflictTrigger trigger("bound-sweep", &obj);
      trigger.bound(static_cast<std::uint64_t>(bound));
      if (trigger.trigger_here(first, 500ms)) hits.fetch_add(1);
    }
  };
  std::thread a(worker, true, std::ref(hits_a));
  std::thread b(worker, false, std::ref(hits_b));
  a.join();
  b.join();
  const auto stats = Engine::instance().stats("bound-sweep");
  const auto expected_hits =
      static_cast<std::uint64_t>(std::min(bound, kIterations));
  EXPECT_EQ(stats.hits, expected_hits);
  EXPECT_EQ(static_cast<std::uint64_t>(hits_a.load()), expected_hits);
  EXPECT_EQ(static_cast<std::uint64_t>(hits_b.load()), expected_hits);
  if (bound < kIterations) {
    EXPECT_GT(stats.bounded, 0u);  // later calls were suppressed
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoundSweep, ::testing::Values(0, 1, 3, 6, 50));

// ---------------------------------------------------------------------------
// Hub stress: listeners attach/detach while workers dispatch.
// ---------------------------------------------------------------------------

TEST(HubStress, RegistrationRacesDispatchSafely) {
  // Dispatch holds the hub lock shared; registration needs it exclusive.
  // Workers here pause between bursts (as real instrumented code does
  // between events) — a 100%-duty dispatch loop on a reader-preferring
  // rwlock could starve registration indefinitely, which is why listener
  // churn belongs at workload boundaries (documented in hub.h).
  instr::SharedVar<int> x;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (int i = 0; i < 16; ++i) {
          x.write(1);
          (void)x.read();
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  // Churn listeners while dispatch is running.
  for (int round = 0; round < 60; ++round) {
    fuzz::NoiseOptions options;
    options.probability = 0.01;
    options.min_sleep = options.max_sleep = std::chrono::microseconds(1);
    fuzz::NoiseInjector injector(options);
    instr::ScopedListener registration(injector);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  EXPECT_FALSE(instr::Hub::instance().has_listeners());
}

// ---------------------------------------------------------------------------
// Bound/ignore interplay: an ignored arrival does not consume the bound.
// ---------------------------------------------------------------------------

TEST(RefinementInterplay, IgnoredArrivalsDoNotCountAsHits) {
  Engine::instance().reset();
  Config::set_enabled(true);
  int obj = 0;
  // Three solo calls, all ignored (no postponement, no hit).
  for (int i = 0; i < 3; ++i) {
    ConflictTrigger trigger("interplay", &obj);
    trigger.ignore_first(100).bound(1);
    EXPECT_FALSE(trigger.trigger_here(true, 500ms));
  }
  const auto stats = Engine::instance().stats("interplay");
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.bounded, 0u);
  EXPECT_EQ(stats.ignored, 3u);
  Engine::instance().reset();
}

TEST(RefinementInterplay, ChainedSettersReturnSelf) {
  int obj = 0;
  ConflictTrigger trigger("chain", &obj);
  BTrigger& self = trigger.ignore_first(2).bound(5);
  EXPECT_EQ(&self, &trigger);
  EXPECT_EQ(trigger.ignore_first_count(), 2u);
  EXPECT_EQ(trigger.bound_count(), 5u);
}

}  // namespace
}  // namespace cbp
