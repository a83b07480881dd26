// Tests for pattern breakpoints (core/pattern.h): spec parsing and
// canonicalization, the PatternMatcher automaton driven directly (the
// slot mutex is irrelevant single-threaded), the PR 3 ordering/k-ary
// regression semantics re-stated against the extracted matcher, and the
// engine-level pattern trigger path (trigger_here_site) end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/cbp.h"
#include "core/pattern.h"
#include "core/spec.h"
#include "runtime/clock.h"
#include "runtime/latch.h"

namespace cbp {
namespace {

using namespace std::chrono_literals;
using internal::GroupState;
using internal::Waiter;
using Outcome = PatternMatcher::Outcome;

// ---------------------------------------------------------------------------
// PatternSpec: parsing, canonical form, limits
// ---------------------------------------------------------------------------

TEST(PatternSpecTest, ParsesSequenceWithVariables) {
  const PatternSpec p = PatternSpec::parse("check:t1 . put:t2 . erase:t1");
  EXPECT_EQ(p.to_string(), "check:t1.put:t2.erase:t1");
  ASSERT_EQ(p.site_count(), 3u);
  EXPECT_EQ(p.site_names()[0], "check");
  EXPECT_EQ(p.site_names()[1], "put");
  EXPECT_EQ(p.site_names()[2], "erase");
  EXPECT_EQ(p.site_index("put"), 1);
  EXPECT_EQ(p.site_index("never-mentioned"), -1);
  ASSERT_EQ(p.var_names().size(), 2u);
  EXPECT_EQ(p.var_names()[0], "t1");
  EXPECT_EQ(p.var_names()[1], "t2");
  EXPECT_EQ(p.min_length(), 3u);
}

TEST(PatternSpecTest, ParsesParenthesizedSubjectsAsPartOfTheLabel) {
  const PatternSpec p = PatternSpec::parse("acq(A):t1.acq(B):t2.rel(B):t2");
  ASSERT_EQ(p.site_count(), 3u);
  EXPECT_EQ(p.site_names()[0], "acq(A)");
  EXPECT_EQ(p.site_names()[1], "acq(B)");
  EXPECT_EQ(p.site_names()[2], "rel(B)");
  EXPECT_EQ(p.min_length(), 3u);
}

TEST(PatternSpecTest, CanonicalFormRoundTrips) {
  const char* exprs[] = {
      "a:t1.b:t2",
      "acq(A):t1.acq(B):t2.rel(B):t2",
      "(a.b)|(c.d.e)",
      "a.b*.c",
  };
  for (const char* e : exprs) {
    const PatternSpec p = PatternSpec::parse(e);
    const PatternSpec again = PatternSpec::parse(p.to_string());
    EXPECT_EQ(again.to_string(), p.to_string()) << e;
    EXPECT_EQ(again.min_length(), p.min_length()) << e;
    EXPECT_EQ(again.site_names(), p.site_names()) << e;
  }
}

TEST(PatternSpecTest, AlternationTakesTheShorterBranchForMinLength) {
  const PatternSpec p = PatternSpec::parse("(a.b)|(c.d.e)");
  EXPECT_EQ(p.min_length(), 2u);
  EXPECT_EQ(p.site_count(), 5u);
}

TEST(PatternSpecTest, ClosureContributesZeroToMinLength) {
  const PatternSpec p = PatternSpec::parse("a.b*.c");
  EXPECT_EQ(p.min_length(), 2u);
}

TEST(PatternSpecTest, RejectsPatternsShorterThanTwoEvents) {
  EXPECT_THROW(PatternSpec::parse("solo"), std::invalid_argument);
  EXPECT_THROW(PatternSpec::parse("a*"), std::invalid_argument);
  EXPECT_THROW(PatternSpec::parse("(a.b)*"), std::invalid_argument);
  EXPECT_THROW(PatternSpec::parse("a|(b.c)"), std::invalid_argument);
}

TEST(PatternSpecTest, RejectsMalformedExpressions) {
  EXPECT_THROW(PatternSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(PatternSpec::parse("a."), std::invalid_argument);
  EXPECT_THROW(PatternSpec::parse("a..b"), std::invalid_argument);
  EXPECT_THROW(PatternSpec::parse(".a.b"), std::invalid_argument);
  EXPECT_THROW(PatternSpec::parse("(a.b"), std::invalid_argument);
  EXPECT_THROW(PatternSpec::parse("a.b)"), std::invalid_argument);
  EXPECT_THROW(PatternSpec::parse("a:"), std::invalid_argument);
  EXPECT_THROW(PatternSpec::parse("a.b|"), std::invalid_argument);
  EXPECT_THROW(PatternSpec::parse("acq(A:t1.b:t2"), std::invalid_argument);
}

TEST(PatternSpecTest, EnforcesSiteLimit) {
  std::string big = "s0";
  for (std::size_t i = 1; i <= PatternSpec::kMaxSites; ++i) {
    big += ".s" + std::to_string(i);
  }
  EXPECT_THROW(PatternSpec::parse(big), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PatternMatcher: the automaton, driven directly
// ---------------------------------------------------------------------------

// A trigger whose global predicate always passes (patterns never call
// it anyway; variables carry the cross-thread constraint instead).
class PatternTrigger : public BTrigger {
 public:
  explicit PatternTrigger(std::string name) : BTrigger(std::move(name)) {}
  [[nodiscard]] bool predicate_global(const BTrigger&) const override {
    return true;
  }
};

std::shared_ptr<const PatternSpec> compile(const std::string& text) {
  return std::make_shared<const PatternSpec>(PatternSpec::parse(text));
}

Waiter make_waiter(BTrigger* t, rt::ThreadId tid) {
  Waiter w;
  w.trigger = t;
  w.tid = tid;
  w.arity = 0;  // pattern waiters are invisible to the rendezvous matcher
  return w;
}

TEST(PatternMatcherTest, TwoSiteSequenceParksThenHitsInEventOrder) {
  PatternMatcher m(compile("a:t1.b:t2"), /*name_id=*/1);
  PatternTrigger t("pm");

  Waiter first = make_waiter(&t, 11);
  Outcome o1 = m.on_event(/*site=*/0, /*tid=*/11, /*scoped=*/false, t, &first);
  // After `a`, only t2 appears on reachable transitions: thread 11 must
  // park (its pause is here, like the paper's first arrival).
  ASSERT_EQ(o1.kind, Outcome::Kind::kPark);
  EXPECT_EQ(o1.progress, 1);
  EXPECT_EQ(m.live_runs(), 1u);

  Waiter second = make_waiter(&t, 22);
  Outcome o2 = m.on_event(/*site=*/1, /*tid=*/22, false, t, &second);
  ASSERT_EQ(o2.kind, Outcome::Kind::kHit);
  EXPECT_EQ(o2.rank, 1);  // caller's event consumed second
  EXPECT_EQ(o2.info.arity, 2);
  ASSERT_EQ(o2.matched.size(), 1u);
  EXPECT_EQ(o2.matched[0], &first);
  EXPECT_TRUE(first.matched);
  EXPECT_EQ(first.matched_rank, 0);
  ASSERT_NE(o2.group, nullptr);
  EXPECT_EQ(o2.group->arity, 2);
  EXPECT_EQ(o2.info.threads[0], 11u);
  EXPECT_EQ(o2.info.threads[1], 22u);
  EXPECT_EQ(m.live_runs(), 0u);  // the hit consumed the run
}

TEST(PatternMatcherTest, DistinctVariablesRequireDistinctThreads) {
  PatternMatcher m(compile("a:t1.b:t2"), 1);
  PatternTrigger t("pm");

  Waiter first = make_waiter(&t, 11);
  ASSERT_EQ(m.on_event(0, 11, false, t, &first).kind, Outcome::Kind::kPark);

  // The SAME thread firing `b` cannot bind t2 (distinct vars, distinct
  // threads).  The site is still reachable, so it parks pending rather
  // than completing a self-match.
  Waiter again = make_waiter(&t, 11);
  Outcome o = m.on_event(1, 11, false, t, &again);
  EXPECT_EQ(o.kind, Outcome::Kind::kPark);
  EXPECT_FALSE(first.matched);

  // A different thread completes it; the pending same-thread event is
  // woken resumed (the pattern finished without it).
  Waiter other = make_waiter(&t, 22);
  Outcome hit = m.on_event(1, 22, false, t, &other);
  ASSERT_EQ(hit.kind, Outcome::Kind::kHit);
  EXPECT_EQ(hit.info.arity, 2);
  ASSERT_EQ(hit.resumed.size(), 1u);
  EXPECT_EQ(hit.resumed[0], &again);
  EXPECT_TRUE(again.resumed);
}

TEST(PatternMatcherTest, SameVariableTwiceIsRecordedThenCompletedByOneThread) {
  PatternMatcher m(compile("a:t1.b:t2.c:t1"), 1);
  PatternTrigger t("pm");

  // Thread 11 fires `a`: t1 is still needed at `c`, so it is recorded
  // and continues instead of parking.
  Waiter a = make_waiter(&t, 11);
  Outcome oa = m.on_event(0, 11, false, t, &a);
  EXPECT_EQ(oa.kind, Outcome::Kind::kRecorded);

  // Thread 22 fires `b`: consumed, and t2 never appears again — parks.
  Waiter b = make_waiter(&t, 22);
  ASSERT_EQ(m.on_event(1, 22, false, t, &b).kind, Outcome::Kind::kPark);

  // Thread 11 returns with `c`: accept.  Participants are the parked
  // `b` thread plus the caller; the recorded `a` event added no waiter,
  // so the arity is 2 even though the run consumed 3 events.
  Waiter c = make_waiter(&t, 11);
  Outcome hit = m.on_event(2, 11, false, t, &c);
  ASSERT_EQ(hit.kind, Outcome::Kind::kHit);
  EXPECT_EQ(hit.progress, 3);
  EXPECT_EQ(hit.info.arity, 2);
  EXPECT_EQ(hit.rank, 1);
  EXPECT_EQ(b.matched_rank, 0);
}

TEST(PatternMatcherTest, OutOfOrderArrivalParksPendingAndCascades) {
  PatternMatcher m(compile("a:t1.b:t2.c:t1"), 1);
  PatternTrigger t("pm");

  // `c` before anything: the initial state only enables `a` — reject.
  Waiter early = make_waiter(&t, 11);
  EXPECT_EQ(m.on_event(2, 11, false, t, &early).kind, Outcome::Kind::kNoMatch);
  EXPECT_EQ(m.live_runs(), 0u);

  // `a` starts the run (recorded: t1 needed later at `c`).
  Waiter a = make_waiter(&t, 11);
  ASSERT_EQ(m.on_event(0, 11, false, t, &a).kind, Outcome::Kind::kRecorded);

  // `c` again: not yet consumable (needs `b` first) but reachable —
  // parks pending on the run.
  Waiter c = make_waiter(&t, 11);
  Outcome oc = m.on_event(2, 11, false, t, &c);
  ASSERT_EQ(oc.kind, Outcome::Kind::kPark);
  EXPECT_EQ(oc.progress, 1);

  // `b` advances, and the cascade consumes the pending `c` — accept.
  // Ranks follow consumption order: caller `b` first, cascaded `c`
  // second.
  Waiter b = make_waiter(&t, 22);
  Outcome hit = m.on_event(1, 22, false, t, &b);
  ASSERT_EQ(hit.kind, Outcome::Kind::kHit);
  EXPECT_EQ(hit.progress, 3);
  EXPECT_EQ(hit.info.arity, 2);
  EXPECT_EQ(hit.rank, 0);
  ASSERT_EQ(hit.matched.size(), 1u);
  EXPECT_EQ(hit.matched[0], &c);
  EXPECT_EQ(c.matched_rank, 1);
  // Two events consumed during this call: the caller's and the cascade.
  ASSERT_EQ(hit.advances.size(), 2u);
  EXPECT_EQ(hit.advances[0].site, 1);
  EXPECT_EQ(hit.advances[1].site, 2);
}

TEST(PatternMatcherTest, DetachAbortsTheWholeRunAndOrphansPeers) {
  PatternMatcher m(compile("a:t1.b:t2.c:t3"), 1);
  PatternTrigger t("pm");

  Waiter a = make_waiter(&t, 11);
  ASSERT_EQ(m.on_event(0, 11, false, t, &a).kind, Outcome::Kind::kPark);
  Waiter b = make_waiter(&t, 22);
  ASSERT_EQ(m.on_event(1, 22, false, t, &b).kind, Outcome::Kind::kPark);
  EXPECT_EQ(m.live_runs(), 1u);

  // Thread 11 times out: the partial match is two events deep; the
  // other parked thread is orphaned and must be woken cancelled.
  PatternMatcher::DetachResult d = m.detach(a.run, &a);
  EXPECT_TRUE(d.aborted);
  EXPECT_EQ(d.progress, 2);
  ASSERT_EQ(d.orphans.size(), 1u);
  EXPECT_EQ(d.orphans[0], &b);
  EXPECT_EQ(m.live_runs(), 0u);

  // A stale id (run already gone) is a no-op.
  PatternMatcher::DetachResult stale = m.detach(a.run, &a);
  EXPECT_FALSE(stale.aborted);
  EXPECT_TRUE(stale.orphans.empty());
}

TEST(PatternMatcherTest, AlternationAcceptsEitherBranch) {
  PatternMatcher m(compile("(a:t1.b:t2)|(c:t1.d:t2)"), 1);
  PatternTrigger t("pm");

  Waiter c = make_waiter(&t, 11);
  ASSERT_EQ(m.on_event(2, 11, false, t, &c).kind, Outcome::Kind::kPark);
  Waiter d = make_waiter(&t, 22);
  Outcome hit = m.on_event(3, 22, false, t, &d);
  ASSERT_EQ(hit.kind, Outcome::Kind::kHit);
  EXPECT_EQ(hit.info.arity, 2);
}

// ---------------------------------------------------------------------------
// Rendezvous regression semantics against the matcher itself: the
// ordering-race and k-ary edge guarantees live behind
// match_rendezvous/await_turn, so they are pinned here directly.
// ---------------------------------------------------------------------------

TEST(RendezvousMatcherTest, UsesGuardIsFixedBeforePublicationForEveryRank) {
  ConflictTrigger waiter_t("rv", &waiter_t);
  ConflictTrigger matcher_t("rv", &waiter_t);

  // A scoped rank-0 waiter postponed first: its scoped-ness must travel
  // through Waiter::scoped into uses_guard[0] *during* the match, not
  // lazily at await_turn time (the PR 3 stale-read bug).
  Waiter w;
  w.trigger = &waiter_t;
  w.tid = 11;
  w.rank = 0;
  w.arity = 2;
  w.scoped = true;
  std::vector<Waiter*> postponed{&w};

  const Outcome out = PatternMatcher::match_rendezvous(
      postponed, matcher_t, /*rank=*/1, /*arity=*/2, /*scoped=*/false,
      /*my_tid=*/22, /*name_id=*/1);
  ASSERT_TRUE(out.kind == Outcome::Kind::kHit);
  ASSERT_NE(out.group, nullptr);
  EXPECT_EQ(out.rank, 1);
  EXPECT_EQ(out.group->uses_guard[0], 1);  // from Waiter::scoped
  EXPECT_EQ(out.group->uses_guard[1], 0);  // from the matcher's own call
  EXPECT_TRUE(w.matched);
  EXPECT_EQ(w.matched_rank, 0);
  ASSERT_EQ(out.matched.size(), 1u);
  EXPECT_EQ(out.matched[0], &w);
  EXPECT_EQ(out.info.arity, 2);
  EXPECT_EQ(out.info.threads[0], 11u);
  EXPECT_EQ(out.info.threads[1], 22u);
}

TEST(RendezvousMatcherTest, SkipsCancelledWaitersAndPatternWaiters) {
  ConflictTrigger bt("rv", &bt);

  Waiter cancelled;
  cancelled.trigger = &bt;
  cancelled.tid = 1;
  cancelled.rank = 0;
  cancelled.arity = 2;
  cancelled.cancelled = true;

  Waiter pattern_waiter;  // arity 0: parked by a PatternMatcher
  pattern_waiter.trigger = &bt;
  pattern_waiter.tid = 2;
  pattern_waiter.rank = 0;
  pattern_waiter.arity = 0;

  Waiter good;
  good.trigger = &bt;
  good.tid = 3;
  good.rank = 0;
  good.arity = 2;

  std::vector<Waiter*> postponed{&cancelled, &pattern_waiter, &good};
  ASSERT_TRUE(PatternMatcher::match_rendezvous(postponed, bt, 1, 2, false, 9,
                                               1)
                  .kind == Outcome::Kind::kHit);
  EXPECT_FALSE(cancelled.matched);
  EXPECT_FALSE(pattern_waiter.matched);
  EXPECT_TRUE(good.matched);
}

TEST(RendezvousMatcherTest, RejectsOnFailedGlobalPredicate) {
  int obj_a = 0, obj_b = 0;
  ConflictTrigger waiter_t("rv", &obj_a);
  ConflictTrigger matcher_t("rv", &obj_b);  // different object: no conflict

  Waiter w;
  w.trigger = &waiter_t;
  w.tid = 1;
  w.rank = 0;
  w.arity = 2;
  std::vector<Waiter*> postponed{&w};
  EXPECT_FALSE(PatternMatcher::match_rendezvous(postponed, matcher_t, 1, 2,
                                                false, 2, 1)
                   .kind == Outcome::Kind::kHit);
  EXPECT_FALSE(w.matched);
}

TEST(RendezvousMatcherTest, AwaitTurnReleasesRanksInOrderWithMixedGuards) {
  // Rank 0 scoped (ack-gated), rank 1 plain (delay-gated), rank 2
  // scoped — the PR 3 mixed-k-ary ordering contract, straight through
  // await_turn.
  auto group = std::make_shared<GroupState>(3);
  group->match_time = rt::clock_now();
  group->uses_guard[0] = 1;
  group->uses_guard[1] = 0;
  group->uses_guard[2] = 1;

  std::atomic<int> counter{0};
  int order[3] = {-1, -1, -1};
  const auto delay = std::chrono::microseconds(200);
  const auto cap = std::chrono::duration_cast<rt::Duration>(5000ms);

  auto run_rank = [&](int rank, bool scoped) {
    PatternMatcher::await_turn(*group, rank, scoped, delay, cap);
    order[rank] = counter.fetch_add(1);
    std::this_thread::sleep_for(2ms);
    // The engine epilogue / OrderingGuard::release, inlined.
    std::scoped_lock lock(group->mu);
    group->released[static_cast<std::size_t>(rank)] = 1;
    group->release_time[static_cast<std::size_t>(rank)] = rt::clock_now();
    group->acked[static_cast<std::size_t>(rank)] = 1;
    group->cv.notify_all();
  };

  std::thread t2([&] { run_rank(2, true); });
  std::thread t1([&] { run_rank(1, false); });
  std::thread t0([&] { run_rank(0, true); });
  t0.join();
  t1.join();
  t2.join();

  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

// ---------------------------------------------------------------------------
// Engine integration: the pattern trigger path end to end
// ---------------------------------------------------------------------------

class PatternEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    Engine::instance().set_hit_observer(nullptr);
    Config::set_enabled(true);
    Config::set_default_timeout(100ms);
    Config::set_order_delay(std::chrono::microseconds(200));
    Config::set_guard_wait_cap(5000ms);
    rt::TimeScale::set(1.0);
  }
  void TearDown() override {
    Engine::instance().set_spec({});
    Engine::instance().reset();
    Engine::instance().set_hit_observer(nullptr);
  }

  void install(const std::string& spec_text) {
    Engine::instance().set_spec(BreakpointSpec::parse(spec_text).entries());
  }
};

TEST_F(PatternEngineTest, TwoSitePatternHitsAcrossThreads) {
  install("ep pattern=first:t1.second:t2 pause=2000\n");

  TriggerResult ra, rb;
  rt::Latch parked(1);
  std::thread a([&] {
    PatternTrigger t("ep");
    parked.count_down();
    ra = t.trigger_here_site("first", 2000ms);
  });
  parked.wait();
  std::this_thread::sleep_for(5ms);
  std::thread b([&] {
    PatternTrigger t("ep");
    rb = t.trigger_here_site("second", 2000ms);
  });
  a.join();
  b.join();

  EXPECT_TRUE(ra.hit);
  EXPECT_TRUE(rb.hit);
  const auto stats = Engine::instance().stats("ep");
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.participants, 2u);
  EXPECT_GE(stats.pattern_partials, 2u);
}

TEST_F(PatternEngineTest, ThreeSitePatternForcesTheSeededOrder) {
  install("ep3 pattern=check:t1.put:t2.erase:t1 pause=2000\n");

  std::vector<int> order;
  std::mutex order_mu;
  auto mark = [&](int v) {
    std::scoped_lock lock(order_mu);
    order.push_back(v);
  };

  rt::Latch checked(1);
  std::thread evictor([&] {
    PatternTrigger t("ep3");
    TriggerResult check = t.trigger_here_site("check", 2000ms);
    EXPECT_FALSE(check.hit);  // recorded: t1 is needed again at erase
    checked.count_down();
    TriggerResult erase = t.trigger_here_site("erase", 2000ms);
    EXPECT_TRUE(erase.hit);
    mark(2);
  });
  checked.wait();
  std::this_thread::sleep_for(10ms);  // let `erase` park pending
  std::thread putter([&] {
    PatternTrigger t("ep3");
    TriggerResult put = t.trigger_here_site("put", 2000ms);
    EXPECT_TRUE(put.hit);
    mark(1);
  });
  evictor.join();
  putter.join();

  // Release order follows event order: put (rank 0 after check was
  // recorded) then erase.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  const auto stats = Engine::instance().stats("ep3");
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.participants, 2u);
}

TEST_F(PatternEngineTest, SitesAreDormantWithoutAPatternSpecEntry) {
  // No spec installed: trigger_here_site must be a pure no-op — no
  // counters, no pause (the demo's 0-hit control relies on this).
  PatternTrigger t("dormant");
  const auto before = rt::clock_now();
  TriggerResult r = t.trigger_here_site("first", 2000ms);
  EXPECT_FALSE(r.hit);
  EXPECT_LT(rt::clock_now() - before, 500ms);
  const auto stats = Engine::instance().stats("dormant");
  EXPECT_EQ(stats.calls, 0u);
  EXPECT_EQ(stats.hits, 0u);

  // Unknown site under an installed pattern: also a no-op.
  install("dormant pattern=first:t1.second:t2 pause=50\n");
  PatternTrigger t2("dormant");
  EXPECT_FALSE(t2.trigger_here_site("not-a-site", 2000ms).hit);
  EXPECT_EQ(Engine::instance().stats("dormant").calls, 0u);
}

TEST_F(PatternEngineTest, TimeoutAbortsThePartialMatch) {
  install("ep-timeout pattern=first:t1.second:t2\n");

  PatternTrigger t("ep-timeout");
  TriggerResult r = t.trigger_here_site("first", 50ms);
  EXPECT_FALSE(r.hit);
  const auto stats = Engine::instance().stats("ep-timeout");
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.pattern_aborts, 1u);
  EXPECT_EQ(stats.pattern_partials, 1u);

  // The aborted run is gone: a fresh pair still matches.
  TriggerResult ra, rb;
  std::thread a([&] {
    PatternTrigger ta("ep-timeout");
    ra = ta.trigger_here_site("first", 2000ms);
  });
  std::this_thread::sleep_for(10ms);
  std::thread b([&] {
    PatternTrigger tb("ep-timeout");
    rb = tb.trigger_here_site("second", 2000ms);
  });
  a.join();
  b.join();
  EXPECT_TRUE(ra.hit);
  EXPECT_TRUE(rb.hit);
}

// cancel_all during a parked pattern run: the park ends cancelled (not
// timed out), the run it anchored is aborted, and the stay is measured
// once — the pattern side of the tail EngineTest's
// CancelAllWakesPostponedThreadEarly checks for rendezvous.
TEST_F(PatternEngineTest, CancelAllEndsAParkedPatternRun) {
  install("ep-cancel pattern=first:t1.second:t2\n");

  TriggerResult r;
  std::thread parker([&] {
    PatternTrigger t("ep-cancel");
    r = t.trigger_here_site("first", 5000ms);
  });
  // `postponed` is counted under the slot mutex in the same critical
  // section that lists the waiter, so once it reads 1 cancel_all sees it.
  while (Engine::instance().stats("ep-cancel").postponed == 0) {
    std::this_thread::sleep_for(1ms);
  }
  Engine::instance().cancel_all();
  parker.join();

  EXPECT_FALSE(r.hit);
  const auto stats = Engine::instance().stats("ep-cancel");
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.pattern_aborts, 1u);
  EXPECT_EQ(stats.postponed, 1u);
  EXPECT_EQ(stats.wait_hist.count, 1u);
}

TEST_F(PatternEngineTest, OutOfOrderSecondSiteIsAPatternReject) {
  install("ep-order pattern=first:t1.second:t2 pause=50\n");

  PatternTrigger t("ep-order");
  const auto before = rt::clock_now();
  TriggerResult r = t.trigger_here_site("second", 2000ms);
  EXPECT_FALSE(r.hit);
  // Strict pattern order: no run could start, so no pause was paid.
  EXPECT_LT(rt::clock_now() - before, 500ms);
  const auto stats = Engine::instance().stats("ep-order");
  EXPECT_EQ(stats.pattern_rejects, 1u);
  EXPECT_EQ(stats.postponed, 0u);
}

TEST_F(PatternEngineTest, LocalPredicateScreensBeforeTheAutomaton) {
  install("ep-local pattern=first:t1.second:t2 pause=50\n");

  class GatedTrigger : public PatternTrigger {
   public:
    using PatternTrigger::PatternTrigger;
    bool gate = false;
    [[nodiscard]] bool predicate_local() const override { return gate; }
  };
  GatedTrigger t("ep-local");
  EXPECT_FALSE(t.trigger_here_site("first", 2000ms).hit);
  const auto stats = Engine::instance().stats("ep-local");
  EXPECT_EQ(stats.local_rejects, 1u);
  EXPECT_EQ(stats.pattern_partials, 0u);
}

TEST_F(PatternEngineTest, ScopedGuardGatesPatternRanks) {
  install("ep-guard pattern=first:t1.second:t2 pause=2000\n");

  std::atomic<bool> guard_released{false};
  std::atomic<bool> second_ran_early{false};
  rt::Latch parked(1);
  std::thread first([&] {
    PatternTrigger t("ep-guard");
    parked.count_down();
    TriggerResult r = Engine::current().trigger_site(
        t, "first", std::chrono::microseconds(2'000'000), /*scoped=*/true);
    ASSERT_TRUE(r.hit);
    ASSERT_TRUE(r.guard.active());
    EXPECT_EQ(r.guard.rank(), 0);
    std::this_thread::sleep_for(3ms);
    guard_released.store(true, std::memory_order_release);
    r.guard.release();
  });
  parked.wait();
  std::this_thread::sleep_for(5ms);
  std::thread second([&] {
    PatternTrigger t("ep-guard");
    TriggerResult r = t.trigger_here_site("second", 2000ms);
    EXPECT_TRUE(r.hit);
    if (r.hit && !guard_released.load(std::memory_order_acquire)) {
      second_ran_early.store(true, std::memory_order_release);
    }
  });
  first.join();
  second.join();
  EXPECT_FALSE(second_ran_early.load())
      << "rank 1 proceeded before the scoped rank 0 released its guard";
}

}  // namespace
}  // namespace cbp
