// Tests for the CHESS-style systematic schedule explorer built on the
// replay module.

#include <gtest/gtest.h>

#include <thread>

#include "fuzz/explore.h"
#include "instrument/shared_var.h"
#include "replay/replayer.h"
#include "runtime/latch.h"

namespace cbp::fuzz {
namespace {

using replay::Trace;
using replay::TraceOp;

// ---------------------------------------------------------------------------
// Combinatorics helpers
// ---------------------------------------------------------------------------

TEST(Interleavings, CountsMatchBinomials) {
  EXPECT_EQ(interleaving_count(0, 0), 1u);
  EXPECT_EQ(interleaving_count(1, 1), 2u);
  EXPECT_EQ(interleaving_count(2, 2), 6u);
  EXPECT_EQ(interleaving_count(3, 3), 20u);
  EXPECT_EQ(interleaving_count(5, 5), 252u);
}

TEST(Interleavings, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(interleaving_count(100, 100),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(SplitByRole, PartitionsPreservingOrder) {
  Trace trace;
  trace.ops.push_back(TraceOp{0, TraceOp::Kind::kRead, 0});
  trace.ops.push_back(TraceOp{1, TraceOp::Kind::kWrite, 0});
  trace.ops.push_back(TraceOp{0, TraceOp::Kind::kWrite, 0});
  const auto split = split_by_role(trace, 2);
  ASSERT_EQ(split.size(), 2u);
  ASSERT_EQ(split[0].size(), 2u);
  ASSERT_EQ(split[1].size(), 1u);
  EXPECT_EQ(split[0][0].kind, TraceOp::Kind::kRead);
  EXPECT_EQ(split[0][1].kind, TraceOp::Kind::kWrite);
}

// ---------------------------------------------------------------------------
// Enumeration (no real execution): count the schedules visited.
// ---------------------------------------------------------------------------

std::vector<TraceOp> role_ops(int role, int count) {
  std::vector<TraceOp> ops;
  for (int i = 0; i < count; ++i) {
    ops.push_back(TraceOp{role, TraceOp::Kind::kWrite, 0});
  }
  return ops;
}

TEST(Explore, VisitsEveryInterleavingWhenNothingIsBuggy) {
  const auto r0 = role_ops(0, 3);
  const auto r1 = role_ops(1, 3);
  const auto result = explore_schedules(
      r0, r1, [](const Trace&) { return false; });
  EXPECT_EQ(result.schedules_run, interleaving_count(3, 3));  // 20
  EXPECT_EQ(result.buggy_schedules, 0u);
  EXPECT_TRUE(result.first_buggy_trace.empty());
}

TEST(Explore, StopsAtFirstBugAndReturnsWitness) {
  const auto r0 = role_ops(0, 2);
  const auto r1 = role_ops(1, 2);
  int calls = 0;
  const auto result = explore_schedules(r0, r1, [&](const Trace& trace) {
    ++calls;
    // "Buggy" iff the schedule starts with role 1.
    return trace.ops.front().role == 1;
  });
  EXPECT_EQ(result.buggy_schedules, 1u);
  EXPECT_FALSE(result.first_buggy_trace.empty());
  EXPECT_EQ(result.first_buggy_trace.ops.front().role, 1);
  EXPECT_EQ(result.schedules_run, static_cast<std::uint64_t>(calls));
  EXPECT_LT(result.schedules_run, interleaving_count(2, 2));
}

TEST(Explore, CountsAllBuggySchedulesWhenNotStopping) {
  const auto r0 = role_ops(0, 2);
  const auto r1 = role_ops(1, 2);
  ExploreOptions options;
  options.stop_at_first_bug = false;
  const auto result = explore_schedules(
      r0, r1,
      [&](const Trace& trace) { return trace.ops.front().role == 1; },
      options);
  // Schedules starting with role 1: C(3,1) = 3 of the 6.
  EXPECT_EQ(result.schedules_run, 6u);
  EXPECT_EQ(result.buggy_schedules, 3u);
}

TEST(Explore, ContextBoundSkipsHighSwitchSchedules) {
  const auto r0 = role_ops(0, 3);
  const auto r1 = role_ops(1, 3);
  ExploreOptions options;
  options.context_bound = 1;  // at most one switch: 00..011..1 or 11..100..0 shapes
  options.stop_at_first_bug = false;
  const auto result =
      explore_schedules(r0, r1, [](const Trace&) { return false; }, options);
  // With <=1 switch and both roles fully present there are exactly 2
  // schedules (000111 and 111000).
  EXPECT_EQ(result.schedules_run, 2u);
  EXPECT_EQ(result.schedules_skipped,
            interleaving_count(3, 3) - result.schedules_run);
}

TEST(Explore, MaxSchedulesCapsTheSearch) {
  const auto r0 = role_ops(0, 5);
  const auto r1 = role_ops(1, 5);
  ExploreOptions options;
  options.max_schedules = 10;
  const auto result =
      explore_schedules(r0, r1, [](const Trace&) { return false; }, options);
  EXPECT_EQ(result.schedules_run, 10u);
}

// ---------------------------------------------------------------------------
// End to end: explore a REAL racy program until the lost update shows.
// ---------------------------------------------------------------------------

TEST(Explore, FindsTheLostUpdateScheduleByReplaying) {
  // The workload: two deposits of the read-pause-write shape, replayed
  // under each candidate interleaving.  Buggy iff the final balance is 1.
  auto run_under_trace = [&](const Trace& trace) {
    instr::SharedVar<int> balance{0};
    replay::Replayer replayer(trace);
    // Gates fire before their accesses: the step delay makes the gate
    // order the execution order on a multicore host.
    replayer.set_step_delay(std::chrono::microseconds(1000));
    instr::ScopedListener registration(replayer);
    rt::StartGate gate;
    auto deposit = [&](int role) {
      replayer.bind_this_thread(role);
      gate.wait();
      const int value = balance.read();
      balance.write(value + 1);
    };
    std::thread a(deposit, 0);
    std::thread b(deposit, 1);
    gate.open();
    a.join();
    b.join();
    return !replayer.diverged() && balance.peek() == 1;
  };

  // Per-role op sequences: R then W on the same object.
  std::vector<TraceOp> r0{TraceOp{0, TraceOp::Kind::kRead, 0},
                          TraceOp{0, TraceOp::Kind::kWrite, 0}};
  std::vector<TraceOp> r1{TraceOp{1, TraceOp::Kind::kRead, 0},
                          TraceOp{1, TraceOp::Kind::kWrite, 0}};

  const auto result = explore_schedules(r0, r1, run_under_trace);
  EXPECT_GE(result.schedules_run, 1u);
  EXPECT_EQ(result.buggy_schedules, 1u);
  ASSERT_FALSE(result.first_buggy_trace.empty());

  // The witness trace is a reproducible artifact: replaying it again
  // yields the bug again.
  EXPECT_TRUE(run_under_trace(result.first_buggy_trace));
}

}  // namespace
}  // namespace cbp::fuzz
