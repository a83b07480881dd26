// Edge cases in the k-ary rendezvous (PatternMatcher::match_rendezvous,
// k > 2):
//   * greedy selection must reject a candidate that is pairwise
//     incompatible with an already-selected waiter, and a later arrival
//     with a compatible value must still complete the group;
//   * cancel_all racing a match: a waiter that the matcher has already
//     claimed (matched = true) and that cancel_all then flags must
//     count as a participant, never as cancelled — `matched` wins;
//   * a rank outside [0, arity), or an arity below 2, is rejected in
//     every build: no hit, nothing counted, no park.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/latch.h"

namespace cbp {
namespace {

using namespace std::chrono_literals;

class KaryEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    Engine::instance().set_hit_observer(nullptr);
    Config::set_enabled(true);
    Engine::instance().set_verbose(false);
    Config::set_order_delay(std::chrono::microseconds(200));
    rt::TimeScale::set(1.0);
  }
  void TearDown() override {
    Engine::instance().set_hit_observer(nullptr);
    Engine::instance().reset();
  }
};

// 3-ary breakpoint over ValueTrigger<int> with an equality relation that
// rejects exactly the pair {1, 2}.  Arrival order:
//   w1 (value 1, rank 0)  — postpones
//   w2 (value 2, rank 1)  — postpones (no rank-2 candidate yet)
//   main (value 0, rank 2) — selection picks w1 for rank 0, then must
//     reject w2 mid-selection (pairwise eq(1,2) fails); rank 1 stays
//     unfilled, so main postpones instead of matching
//   w3 (value 3, rank 1)  — completes {w1, w3, main}; w2 times out
TEST_F(KaryEdgeTest, PairwiseIncompatibleWaiterIsSkippedMidSelection) {
  const auto eq = [](const int& a, const int& b) {
    return !((a == 1 && b == 2) || (a == 2 && b == 1));
  };
  std::atomic<int> hits{0};
  rt::Latch w1_in(1), w2_in(1), main_in(1);

  std::thread w1([&] {
    ValueTrigger<int> t("kary-pairwise", 1, eq);
    w1_in.count_down();
    if (t.trigger_here_ranked(0, 3, 3000ms)) hits.fetch_add(1);
  });
  w1_in.wait();
  std::this_thread::sleep_for(10ms);

  std::thread w2([&] {
    ValueTrigger<int> t("kary-pairwise", 2, eq);
    w2_in.count_down();
    // Must NOT be selected: pairwise-incompatible with w1.
    EXPECT_FALSE(t.trigger_here_ranked(1, 3, 300ms));
  });
  w2_in.wait();
  std::this_thread::sleep_for(10ms);

  std::thread main_thread([&] {
    ValueTrigger<int> t("kary-pairwise", 0, eq);
    main_in.count_down();
    if (t.trigger_here_ranked(2, 3, 3000ms)) hits.fetch_add(1);
  });
  main_in.wait();
  std::this_thread::sleep_for(10ms);

  // At this point w1, w2, and main are all postponed: main's own match
  // attempt found rank 1 unfillable because w2 was rejected pairwise
  // against the already-selected w1.  This value-3 rank-1 arrival can
  // pair with both, so it completes the group.
  {
    ValueTrigger<int> t("kary-pairwise", 3, eq);
    if (t.trigger_here_ranked(1, 3, 3000ms)) hits.fetch_add(1);
  }
  w1.join();
  w2.join();
  main_thread.join();

  EXPECT_EQ(hits.load(), 3);
  const auto stats = Engine::instance().stats("kary-pairwise");
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.participants, 3u);
  EXPECT_EQ(stats.timeouts, 1u);  // w2, never selected
  EXPECT_EQ(stats.postponed, 3u);
}

// cancel_all racing a match.  The hit observer runs on the matcher
// after the matcher claimed the waiter (matched = true) but typically
// before the waiter has woken and removed itself from the postponed
// list — so cancel_all inside the observer flags an already-matched
// waiter as cancelled.  The wake-up path must treat `matched` as
// authoritative: the waiter is a participant and the hit stands.
TEST_F(KaryEdgeTest, WaiterMatchedAndCancelledCountsAsParticipant) {
  constexpr int kIterations = 20;
  Engine::instance().set_hit_observer(
      [](const HitInfo&) { Engine::instance().cancel_all(); });

  int completed = 0;
  for (int i = 0; i < kIterations; ++i) {
    int obj = 0;
    rt::Latch postponed(1);
    std::thread waiter([&] {
      ConflictTrigger t("cancel-vs-match", &obj);
      postponed.count_down();
      if (t.trigger_here(true, 2000ms)) ++completed;
    });
    postponed.wait();
    std::this_thread::sleep_for(2ms);
    ConflictTrigger t("cancel-vs-match", &obj);
    EXPECT_TRUE(t.trigger_here(false, 2000ms));
    waiter.join();
  }

  EXPECT_EQ(completed, kIterations);
  const auto stats = Engine::instance().stats("cancel-vs-match");
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kIterations));
  EXPECT_EQ(stats.participants, static_cast<std::uint64_t>(2 * kIterations));
  // The matched-and-cancelled waiter must never be accounted as
  // cancelled; nothing else was postponed when cancel_all ran.
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
}

// cancel_all with an un-matched waiter present: the flag does apply to
// threads that were not claimed by a match (baseline for the race test).
TEST_F(KaryEdgeTest, UnmatchedWaiterIsCancelled) {
  int obj = 0;
  rt::Latch postponed(1);
  std::thread waiter([&] {
    ConflictTrigger t("cancel-plain", &obj);
    postponed.count_down();
    EXPECT_FALSE(t.trigger_here(true, 2000ms));
  });
  postponed.wait();
  std::this_thread::sleep_for(5ms);
  Engine::instance().cancel_all();
  waiter.join();
  const auto stats = Engine::instance().stats("cancel-plain");
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.hits, 0u);
}

// Out-of-range ranks next to a postponed valid peer.  Each bad call
// used to reach the matcher: rank 5 of 2 paired with the rank-0 peer
// and wrote past the group's per-rank arrays, and arity 1 "matched"
// alone.  Now each returns at once without counting, and the peer,
// left alone, times out.
TEST_F(KaryEdgeTest, OutOfRangeRankNeverMatchesAPostponedPeer) {
  int obj = 0;
  bool peer_hit = true;
  std::thread peer([&] {
    ConflictTrigger t("bad-rank", &obj);
    peer_hit = t.trigger_here_ranked(0, 2, 500ms);
  });
  // `postponed` is counted in the critical section that lists the
  // waiter, so once it reads 1 the peer is matchable.
  while (Engine::instance().stats("bad-rank").postponed == 0) {
    std::this_thread::sleep_for(1ms);
  }

  const struct {
    int rank;
    int arity;
  } bad[] = {{5, 2}, {2, 2}, {-1, 2}, {0, 1}, {3, 3}};
  rt::Stopwatch sw;
  for (const auto& call : bad) {
    ConflictTrigger t("bad-rank", &obj);
    EXPECT_FALSE(t.trigger_here_ranked(call.rank, call.arity, 2000ms))
        << "rank " << call.rank << " of arity " << call.arity;
  }
  EXPECT_LT(sw.elapsed_us(), 250'000) << "an out-of-range call parked";
  peer.join();

  EXPECT_FALSE(peer_hit);
  const auto stats = Engine::instance().stats("bad-rank");
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.calls, 1u);  // the peer's call only
  EXPECT_EQ(stats.postponed, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.participants, 0u);
}

}  // namespace
}  // namespace cbp
