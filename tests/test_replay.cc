// Tests for the record/replay-lite module: trace round trips, recording,
// order enforcement, bug reproduction from a recorded trace, and
// divergence fail-open.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cbp.h"
#include "instrument/shared_var.h"
#include "instrument/tracked_mutex.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "runtime/latch.h"

namespace cbp::replay {
namespace {

using namespace std::chrono_literals;
using instr::ScopedListener;
using instr::SharedVar;
using instr::TrackedLock;
using instr::TrackedMutex;

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

TEST(Trace, SerializeRoundTrip) {
  Trace trace;
  trace.ops.push_back(TraceOp{0, TraceOp::Kind::kRead, 3});
  trace.ops.push_back(TraceOp{1, TraceOp::Kind::kWrite, 0});
  trace.ops.push_back(TraceOp{2, TraceOp::Kind::kLockAcquire, 1});
  const Trace copy = Trace::deserialize(trace.serialize());
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy.ops[0], trace.ops[0]);
  EXPECT_EQ(copy.ops[1], trace.ops[1]);
  EXPECT_EQ(copy.ops[2], trace.ops[2]);
}

TEST(Trace, EmptyRoundTrip) {
  EXPECT_TRUE(Trace::deserialize(Trace{}.serialize()).empty());
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

TEST(Recorder, CapturesAccessesAndAcquiresInOrder) {
  Recorder recorder;
  ScopedListener registration(recorder);
  recorder.bind_this_thread(0);
  SharedVar<int> x;
  TrackedMutex mu;
  x.write(1);
  {
    TrackedLock lock(mu);
    (void)x.read();
  }
  const Trace trace = recorder.trace();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.ops[0].kind, TraceOp::Kind::kWrite);
  EXPECT_EQ(trace.ops[1].kind, TraceOp::Kind::kLockAcquire);
  EXPECT_EQ(trace.ops[2].kind, TraceOp::Kind::kRead);
  EXPECT_EQ(trace.ops[0].role, 0);
  EXPECT_EQ(trace.ops[0].object, trace.ops[2].object);  // same var
}

TEST(Recorder, NormalizesDistinctObjects) {
  Recorder recorder;
  ScopedListener registration(recorder);
  SharedVar<int> x, y;
  x.write(1);
  y.write(2);
  const Trace trace = recorder.trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.ops[0].object, 0);
  EXPECT_EQ(trace.ops[1].object, 1);
}

TEST(Recorder, DistinctThreadsGetDistinctRoles) {
  Recorder recorder;
  ScopedListener registration(recorder);
  SharedVar<int> x;
  std::thread a([&] {
    recorder.bind_this_thread(0);
    x.write(1);
  });
  a.join();
  std::thread b([&] {
    recorder.bind_this_thread(1);
    x.write(2);
  });
  b.join();
  const Trace trace = recorder.trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.ops[0].role, 0);
  EXPECT_EQ(trace.ops[1].role, 1);
}

// ---------------------------------------------------------------------------
// Replayer: order enforcement
// ---------------------------------------------------------------------------

/// A two-thread toy.  Each logical action is a racy_update on x whose
/// body appends the thread's tag: the append is bracketed between the
/// instrumented READ (gated before) and WRITE (gated after), so under
/// replay the observed tag order is exactly the enforced trace order.
std::vector<int> run_tagged(const Trace* replay_trace, int per_thread,
                            bool serialize_record_run) {
  SharedVar<int> x;
  std::mutex order_mu;
  std::vector<int> order;
  Replayer replayer(replay_trace ? *replay_trace : Trace{});
  std::unique_ptr<ScopedListener> registration;
  if (replay_trace != nullptr) {
    registration = std::make_unique<ScopedListener>(replayer);
  }
  rt::StartGate gate;
  auto worker = [&](int tag) {
    if (replay_trace != nullptr) replayer.bind_this_thread(tag);
    gate.wait();
    for (int i = 0; i < per_thread; ++i) {
      x.racy_update([&](int) {
        std::scoped_lock lock(order_mu);
        order.push_back(tag);
        return tag;
      });
    }
  };
  if (serialize_record_run) {
    std::thread a(worker, 0);
    gate.open();
    a.join();
    std::thread b(worker, 1);
    b.join();
  } else {
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    gate.open();
    a.join();
    b.join();
  }
  return order;
}

/// The trace of one tag action: gated read, then gated write.
void push_action(Trace& trace, int role) {
  trace.ops.push_back(TraceOp{role, TraceOp::Kind::kRead, 0});
  trace.ops.push_back(TraceOp{role, TraceOp::Kind::kWrite, 0});
}

TEST(Replayer, EnforcesARecordedAlternation) {
  // Hand-craft a strict 0,1,0,1,... alternation and replay it.
  constexpr int kPerThread = 6;
  Trace trace;
  for (int i = 0; i < kPerThread; ++i) {
    push_action(trace, 0);
    push_action(trace, 1);
  }
  const auto order = run_tagged(&trace, kPerThread, false);
  std::vector<int> expected;
  for (int i = 0; i < kPerThread; ++i) {
    expected.push_back(0);
    expected.push_back(1);
  }
  EXPECT_EQ(order, expected);
}

TEST(Replayer, ReplayOfARecordingReproducesItsOrder) {
  // Record a fully serialized run (all of role 0, then all of role 1),
  // then replay it with CONCURRENT threads: the enforced order must be
  // the recorded serial one, twice in a row.
  constexpr int kPerThread = 5;
  Recorder recorder;
  Trace trace;
  {
    ScopedListener registration(recorder);
    (void)run_tagged(nullptr, kPerThread, /*serialize_record_run=*/true);
    trace = recorder.trace();
  }
  ASSERT_EQ(trace.size(), 4u * kPerThread);  // R+W per action

  std::vector<int> expected;
  for (int i = 0; i < kPerThread; ++i) expected.push_back(0);
  for (int i = 0; i < kPerThread; ++i) expected.push_back(1);
  for (int round = 0; round < 2; ++round) {
    const auto order = run_tagged(&trace, kPerThread, false);
    EXPECT_EQ(order, expected) << "round " << round;
  }
}

TEST(Replayer, EnforcedCountMatchesTrace) {
  Trace trace;
  for (int i = 0; i < 4; ++i) {
    trace.ops.push_back(TraceOp{0, TraceOp::Kind::kWrite, 0});
    trace.ops.push_back(TraceOp{1, TraceOp::Kind::kWrite, 0});
  }
  Replayer replayer(trace);
  {
    ScopedListener registration(replayer);
    SharedVar<int> x;
    rt::StartGate gate;
    auto worker = [&](int tag) {
      replayer.bind_this_thread(tag);
      gate.wait();
      for (int i = 0; i < 4; ++i) x.write(tag);
    };
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    gate.open();
    a.join();
    b.join();
  }
  EXPECT_FALSE(replayer.diverged());
  EXPECT_EQ(replayer.enforced(), 8u);
}

// ---------------------------------------------------------------------------
// Replayer: bug reproduction (the §7 record/replay story)
// ---------------------------------------------------------------------------

TEST(Replayer, ReplaysARecordedLostUpdate) {
  // Phase 1: force the lost-update interleaving once with a breakpoint,
  // recording the access order.
  Engine::instance().reset();
  Config::set_enabled(true);
  Config::set_order_delay(1ms);

  auto racy_deposit = [](SharedVar<int>& balance, bool armed) {
    const int value = balance.read();
    if (armed) {
      ConflictTrigger trigger("replay-account", balance.address());
      trigger.trigger_here(true, 2000ms);
    }
    balance.write(value + 1);
  };

  Recorder recorder;
  Trace buggy_trace;
  {
    ScopedListener registration(recorder);
    SharedVar<int> balance{0};
    rt::StartGate gate;
    auto worker = [&](int role) {
      recorder.bind_this_thread(role);
      gate.wait();
      racy_deposit(balance, /*armed=*/true);
    };
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    gate.open();
    a.join();
    b.join();
    ASSERT_EQ(balance.peek(), 1) << "breakpoint should force the loss";
    buggy_trace = recorder.trace();
  }

  // Phase 2: replay the trace with breakpoints OFF — the lost update
  // reproduces from the schedule alone, every time.  Each gate fires
  // before its access, so a step delay keeps a thread that passed its
  // read gate from loading only after the peer's write (multicore).
  Config::set_enabled(false);
  for (int round = 0; round < 3; ++round) {
    Replayer replayer(buggy_trace);
    replayer.set_step_delay(std::chrono::microseconds(1000));
    ScopedListener registration(replayer);
    SharedVar<int> balance{0};
    rt::StartGate gate;
    auto worker = [&](int role) {
      replayer.bind_this_thread(role);
      gate.wait();
      racy_deposit(balance, /*armed=*/false);
    };
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    gate.open();
    a.join();
    b.join();
    EXPECT_FALSE(replayer.diverged()) << "round " << round;
    EXPECT_EQ(balance.peek(), 1) << "round " << round;
  }
  Config::set_enabled(true);
  Engine::instance().reset();
}

// ---------------------------------------------------------------------------
// Step delay: enforced gate order becomes actual execution order
// ---------------------------------------------------------------------------

TEST(Replayer, StepDelayMakesSingleEventOrderExact) {
  // Without bracketing (one gated event per action), a gate passage can
  // race the peer's actual access; the step delay closes that window.
  // Alternating single writes, 10 rounds, must yield values in exact
  // alternation every time.
  constexpr int kPerThread = 5;
  Trace trace;
  for (int i = 0; i < kPerThread; ++i) {
    trace.ops.push_back(TraceOp{0, TraceOp::Kind::kWrite, 0});
    trace.ops.push_back(TraceOp{1, TraceOp::Kind::kWrite, 0});
  }
  for (int round = 0; round < 3; ++round) {
    SharedVar<int> x{-1};
    Replayer replayer(trace);
    replayer.set_step_delay(std::chrono::microseconds(300));
    std::vector<int> observed;
    std::mutex observed_mu;
    {
      ScopedListener registration(replayer);
      rt::StartGate gate;
      auto worker = [&](int tag) {
        replayer.bind_this_thread(tag);
        gate.wait();
        for (int i = 0; i < kPerThread; ++i) {
          x.write(tag);
          // Not instrumented: snapshot after our own write.
        }
      };
      std::thread a(worker, 0);
      std::thread b(worker, 1);
      gate.open();
      a.join();
      b.join();
    }
    EXPECT_FALSE(replayer.diverged()) << "round " << round;
    // The last gated write in the trace is role 1's.
    EXPECT_EQ(x.peek(), 1) << "round " << round;
  }
}

TEST(Replayer, StepDelayDefaultsToZero) {
  Trace trace;
  trace.ops.push_back(TraceOp{0, TraceOp::Kind::kWrite, 0});
  Replayer replayer(trace);
  ScopedListener registration(replayer);
  replayer.bind_this_thread(0);
  SharedVar<int> x;
  rt::Stopwatch clock;
  x.write(1);
  EXPECT_LT(clock.elapsed_us(), 50'000);  // no artificial spacing
}

// ---------------------------------------------------------------------------
// Divergence
// ---------------------------------------------------------------------------

TEST(Replayer, DivergentRunFailsOpenAndCompletes) {
  // The trace expects writes to one object; the program touches two.
  Trace trace;
  trace.ops.push_back(TraceOp{0, TraceOp::Kind::kWrite, 0});
  trace.ops.push_back(TraceOp{0, TraceOp::Kind::kWrite, 0});
  Replayer replayer(trace, /*divergence_timeout=*/50ms);
  {
    ScopedListener registration(replayer);
    replayer.bind_this_thread(0);
    SharedVar<int> x, y;
    x.write(1);
    y.write(2);  // not in the trace: diverges
    x.write(3);  // completes natively after fail-open
  }
  EXPECT_TRUE(replayer.diverged());
}

TEST(Replayer, ExhaustedTraceStopsGating) {
  Trace trace;
  trace.ops.push_back(TraceOp{0, TraceOp::Kind::kWrite, 0});
  Replayer replayer(trace);
  ScopedListener registration(replayer);
  replayer.bind_this_thread(0);
  SharedVar<int> x;
  x.write(1);
  rt::Stopwatch clock;
  x.write(2);  // beyond the trace: must not block
  x.write(3);
  EXPECT_LT(clock.elapsed_us(), 100'000);
  EXPECT_FALSE(replayer.diverged());
}

}  // namespace
}  // namespace cbp::replay
