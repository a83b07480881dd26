// Regression tests for the scoped-ordering race: Waiter::scoped was
// recorded at postponement time but never read by the matcher — each
// thread instead wrote its own GroupState::uses_guard[rank] on the way
// into await_turn.  A later-ordered thread that reached await_turn
// before an earlier-ordered peer had published its scoped-ness could
// read a stale uses_guard == 0 and fall back to the order_delay path,
// breaking the "guard release gates rank k+1" contract.
// PatternMatcher::match_rendezvous now fills uses_guard for every rank
// from Waiter::scoped (and from its own call arguments) before the
// group is published, so await_turn only ever reads immutable data.
//
// The tests below provoke the old interleaving as hard as the public
// API allows: a hit observer stalls the matcher between match and
// await_turn so the other participant always enters await_turn first,
// then we assert the later rank never proceeds before the earlier
// rank's guard is released.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/latch.h"

namespace cbp {
namespace {

using namespace std::chrono_literals;

class OrderingRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    Engine::instance().set_hit_observer(nullptr);
    Config::set_enabled(true);
    Engine::instance().set_verbose(false);
    // A tiny order_delay makes the stale-read failure mode visible: if
    // the later rank ever takes the delay path instead of waiting for
    // the guard ack, it returns almost immediately.
    Config::set_order_delay(std::chrono::microseconds(100));
    Config::set_guard_wait_cap(5000ms);
    rt::TimeScale::set(1.0);
  }
  void TearDown() override {
    Engine::instance().set_hit_observer(nullptr);
    Engine::instance().reset();
  }
};

// Scoped matcher (rank 0), plain waiter (rank 1).  The waiter postpones
// first, so at match time only the matcher knows rank 0 is scoped; under
// the old scheme the waiter could enter await_turn, read stale
// uses_guard[0] == 0, and proceed after order_delay even though the
// scoped rank-0 thread still held its guard.
TEST_F(OrderingRaceTest, PlainWaiterWaitsForScopedMatchersGuard) {
  constexpr int kIterations = 10;
  for (int i = 0; i < kIterations; ++i) {
    std::atomic<bool> guard_released{false};
    std::atomic<bool> waiter_ran_early{false};
    // Stall the matcher after the match publishes the group but before
    // it enters await_turn — maximizing the window in which the waiter
    // observes the freshly-published uses_guard.
    Engine::instance().set_hit_observer(
        [](const HitInfo&) { std::this_thread::sleep_for(2ms); });

    int obj = 0;
    rt::Latch postponed(1);
    std::thread waiter([&] {
      ConflictTrigger t("scoped-order", &obj);
      postponed.count_down();
      // Plain (unscoped) call: rank 1, second action.
      const bool hit = t.trigger_here(false, 2000ms);
      EXPECT_TRUE(hit);
      if (hit && !guard_released.load(std::memory_order_acquire)) {
        waiter_ran_early.store(true, std::memory_order_release);
      }
    });
    postponed.wait();
    std::this_thread::sleep_for(5ms);

    ConflictTrigger t("scoped-order", &obj);
    TriggerResult r = t.trigger_here_scoped(true, 2000ms);
    ASSERT_TRUE(r.hit);
    ASSERT_TRUE(r.guard.active());
    EXPECT_EQ(r.guard.rank(), 0);
    // Hold the guard across "the next instruction" — the waiter must
    // not return from its trigger during this window.
    std::this_thread::sleep_for(3ms);
    guard_released.store(true, std::memory_order_release);
    r.guard.release();
    waiter.join();

    EXPECT_FALSE(waiter_ran_early.load())
        << "rank 1 proceeded before the scoped rank 0 released its guard "
           "(iteration "
        << i << ")";
    Engine::instance().set_hit_observer(nullptr);
    Engine::instance().reset();
  }
  const auto stats = Engine::instance().stats("scoped-order");
  EXPECT_EQ(stats.hits, 0u);  // reset() wiped them; sanity only
}

// The symmetric provocation, and the one the fixed code must get right
// *because* of Waiter::scoped: the scoped thread is the one that
// postpones (so its scoped-ness travels via the Waiter record), and the
// plain thread is the matcher.  The matcher-side await_turn(rank 1) has
// to honor the waiter's guard even though the matcher's own call was
// unscoped.
TEST_F(OrderingRaceTest, ScopedWaitersGuardGatesThePlainMatcher) {
  constexpr int kIterations = 10;
  for (int i = 0; i < kIterations; ++i) {
    std::atomic<bool> guard_released{false};
    std::atomic<bool> matcher_returned{false};

    int obj = 0;
    rt::Latch postponed(1);
    std::thread waiter([&] {
      ConflictTrigger t("scoped-waiter", &obj);
      postponed.count_down();
      // Scoped call from the *postponing* thread: its scoped-ness is
      // only visible to the matcher through Waiter::scoped.
      TriggerResult r = t.trigger_here_scoped(true, 2000ms);
      ASSERT_TRUE(r.hit);
      ASSERT_TRUE(r.guard.active());
      EXPECT_EQ(r.guard.rank(), 0);
      std::this_thread::sleep_for(3ms);
      EXPECT_FALSE(matcher_returned.load(std::memory_order_acquire))
          << "plain rank-1 matcher proceeded while scoped rank 0 still "
             "held its guard (iteration "
          << i << ")";
      guard_released.store(true, std::memory_order_release);
      r.guard.release();
    });
    postponed.wait();
    std::this_thread::sleep_for(5ms);

    ConflictTrigger t("scoped-waiter", &obj);
    const bool hit = t.trigger_here(false, 2000ms);
    EXPECT_TRUE(hit);
    matcher_returned.store(true, std::memory_order_release);
    EXPECT_TRUE(guard_released.load(std::memory_order_acquire));
    waiter.join();
    Engine::instance().reset();
  }
}

// Mixed 3-ary rendezvous: rank 0 scoped, rank 1 plain, rank 2 scoped.
// Each rank's gate must use that rank's own scoped-ness (ack for 0 and
// 2, order_delay for 1) — exercising the per-rank uses_guard fill after
// match_rendezvous's k-ary selection loop.
TEST_F(OrderingRaceTest, MixedScopedRanksReleaseInOrder) {
  std::atomic<int> release_counter{0};
  int order_rank0 = -1, order_rank1 = -1, order_rank2 = -1;

  int obj = 0;
  std::thread t0([&] {
    ConflictTrigger t("mixed-kary", &obj);
    TriggerResult r = t.trigger_here_ranked_scoped(0, 3, 2000ms);
    ASSERT_TRUE(r.hit);
    order_rank0 = release_counter.fetch_add(1);
    std::this_thread::sleep_for(2ms);
    r.guard.release();
  });
  std::thread t1([&] {
    std::this_thread::sleep_for(10ms);
    ConflictTrigger t("mixed-kary", &obj);
    EXPECT_TRUE(t.trigger_here_ranked(1, 3, 2000ms));
    order_rank1 = release_counter.fetch_add(1);
  });
  std::thread t2([&] {
    std::this_thread::sleep_for(20ms);
    ConflictTrigger t("mixed-kary", &obj);
    TriggerResult r = t.trigger_here_ranked_scoped(2, 3, 2000ms);
    ASSERT_TRUE(r.hit);
    order_rank2 = release_counter.fetch_add(1);
    r.guard.release();
  });
  t0.join();
  t1.join();
  t2.join();

  EXPECT_EQ(order_rank0, 0);
  EXPECT_EQ(order_rank1, 1);
  EXPECT_EQ(order_rank2, 2);
  const auto stats = Engine::instance().stats("mixed-kary");
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.participants, 3u);
}

}  // namespace
}  // namespace cbp
