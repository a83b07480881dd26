// hits: what a user debugging with breakpoints pays per hit.
//
// A closed loop of two bench threads, A and B, doing fixed, equal-count
// phases per round: a scoped 2-ary rendezvous, the 3-site pattern
// `check:t1.put:t2.erase:t1` (A fires check and erase, B fires put), and
// a `scope=process-group` rendezvous matched by an in-process Broker on
// a unix socket in a fresh mkdtemp directory, each thread through its
// own engine and BrokerClient.  Scoped guards make the measured latency
// the mechanism's, not the order_delay sleep.  One op is one hit.
#include <stdlib.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "broker/broker.h"
#include "broker/client.h"
#include "core/cbp.h"
#include "runtime/thread_registry.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace broker = cbp::broker;

constexpr char kRendezvous[] = "perfbench-rendezvous";
constexpr char kPattern[] = "perfbench-pattern";
constexpr char kRemote[] = "perfbench-remote";
// Pattern events are fired by site index through the ranked entry point:
// trigger_here_site has no scoped form, and a pattern spec entry maps a
// ranked call's rank onto the site of that index (first appearance).
constexpr int kCheck = 0;
constexpr int kPut = 1;
constexpr int kErase = 2;
constexpr int kSites = 3;
constexpr int kHitsPerPhase = 50;  ///< hits per phase per round
constexpr std::uint64_t kSpanEvery = 8;  ///< traced runs span 1 round in 8
/// Postponement bound; far above any hit latency, so a timeout is a
/// failure, never a matter of timing.
constexpr std::chrono::milliseconds kTimeout{2000};

enum Phase { kRendezvousPhase, kPatternPhase, kRemotePhase, kPhases };
constexpr const char* kPhaseName[kPhases] = {"rendezvous", "pattern", "remote"};

class HitTrigger : public cbp::BTrigger {
 public:
  using BTrigger::BTrigger;
  [[nodiscard]] bool predicate_global(const BTrigger&) const override {
    return true;
  }
};

/// Times every BrokerClient::trigger_remote call (the broker layer's own
/// share of a remote hit).
class TimedTransport : public cbp::TransportPolicy {
 public:
  explicit TimedTransport(std::shared_ptr<broker::BrokerClient> client)
      : client_(std::move(client)) {}

  cbp::RemoteTriggerResult trigger_remote(
      const cbp::RemoteTriggerRequest& request) override {
    // Spanned only inside a sampled (spanned) hit.
    trace::Span span(
        trace::current() != 0 ? "broker.trigger_remote" : nullptr, 0);
    const std::int64_t t0 = now_ns();
    cbp::RemoteTriggerResult result = client_->trigger_remote(request);
    const double us = static_cast<double>(now_ns() - t0) * 1e-3;
    std::scoped_lock lock(mu_);
    us_.add(us);
    return result;
  }

  Samples take() {
    std::scoped_lock lock(mu_);
    return std::exchange(us_, Samples{});
  }

 private:
  std::shared_ptr<broker::BrokerClient> client_;
  std::mutex mu_;
  Samples us_;  // guarded by mu_
};

/// A fresh mkdtemp directory, removed (with the socket, should the
/// broker not have unlinked it) when the rig is torn down — on a failed
/// check too.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::string tmpl = parent + "/hits.XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp in " + parent + ": " +
                               std::strerror(errno));
    }
    path_ = tmpl;
  }
  ~TempDir() {
    ::unlink(socket().c_str());
    ::rmdir(path_.c_str());
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string socket() const { return path_ + "/broker.sock"; }

 private:
  std::string path_;
};

/// What the workload runs against.  Members are destroyed in reverse
/// order: the engines, then the transports and their clients, then the
/// broker, which unlinks its socket, then the directory.
struct Rig {
  explicit Rig(const std::string& tmpdir) : dir(tmpdir) {
    const std::string path = dir.socket();
    if (path.size() >= 100) {
      throw std::runtime_error("socket path too long: " + path);
    }
    broker = std::make_unique<broker::Broker>(
        broker::BrokerOptions{path, std::chrono::milliseconds(2000)});
    if (!broker->start()) {
      throw std::runtime_error("broker failed to start on " + path);
    }
    local.set_spec(cbp::BreakpointSpec::parse(
                       std::string(kPattern) +
                       " pattern=check:t1.put:t2.erase:t1\n")
                       .entries());
    const auto remote_spec = cbp::BreakpointSpec::parse(
        std::string(kRemote) + " scope=process-group\n");
    for (int side = 0; side < 2; ++side) {
      cbp::Engine& engine = remote[side];
      auto client = broker::BrokerClient::connect(
          path, std::chrono::milliseconds(5000), engine.tag());
      if (client == nullptr) {
        throw std::runtime_error("client failed to connect to " + path);
      }
      transport[side] = std::make_shared<TimedTransport>(std::move(client));
      engine.set_spec(remote_spec.entries());
      engine.set_transport(transport[side]);
    }
  }

  TempDir dir;
  std::unique_ptr<broker::Broker> broker;
  std::shared_ptr<TimedTransport> transport[2];
  cbp::Engine local;      ///< rendezvous + pattern phases
  cbp::Engine remote[2];  ///< one per bench thread, as if two processes
};

/// One trigger call as seen by the bench.
struct Call {
  std::int64_t enter = 0;
  std::int64_t ret = 0;
  bool hit = false;
  int rank = -1;
  std::uint64_t seq = 0;  ///< position of the guarded step
};

/// Both threads' calls of one round, [phase][side][i].  One buffer is
/// reused for every round, so memory does not grow with the run.
using RoundLog =
    std::array<std::array<std::array<Call, kHitsPerPhase>, 2>, kPhases>;

class HitsBench {
 public:
  HitsBench(Rig& rig, std::uint64_t seed) : rig_(rig), seed_(seed) {
    rig_.local.set_hit_observer([this](const cbp::HitInfo& info) {
      if (info.name != kPattern) return;
      // The erase must be bound to the thread that fired check (A), the
      // put to the other one (B); ranks are event order.
      const bool bound = info.threads.size() == 2 &&
                         info.threads[0] == tid_[1].load() &&
                         info.threads[1] == tid_[0].load();
      pattern_hits_.fetch_add(1);
      if (!bound) misbound_.fetch_add(1);
    });
  }
  ~HitsBench() { rig_.local.set_hit_observer(nullptr); }
  HitsBench(const HitsBench&) = delete;
  HitsBench& operator=(const HitsBench&) = delete;

  /// Runs a discarded warm-up round, then measured rounds until
  /// `seconds` are spent (none when `seconds` is 0).
  void loop(double seconds) {
    auto log = std::make_unique<RoundLog>();
    std::atomic<bool> stop{false};
    std::barrier sync(2);
    std::vector<std::int64_t>& round_start = round_start_;

    auto body = [&](int side) {
      tid_[side].store(cbp::rt::this_thread_id());
      cbp::ScopedEngine bind_local(rig_.local);
      HitTrigger rendezvous(kRendezvous);
      HitTrigger pattern(kPattern);
      HitTrigger remote(kRemote);
      for (std::uint64_t round = 0;; ++round) {
        if (side == 0) {
          // Round 0 is the discarded warm-up.  A alone decides when the
          // time is spent (B learns it at the barrier) and folds the
          // previous round into the statistics while B waits there.
          if (round > 1) account(*log);
          round_start.push_back(now_ns());
          if (round > 0 && seconds_since(round_start[1]) >= seconds) {
            stop.store(true);
          }
        }
        sync.arrive_and_wait();
        if (stop.load()) return;
        // Spans for one round in kSpanEvery keep a traced run's spans
        // within the in-memory cap.
        const bool spanned = round % kSpanEvery == 0;
        for (int phase = 0; phase < kPhases; ++phase) {
          for (int i = 0; i < kHitsPerPhase; ++i) {
            const std::uint64_t hit_id =
                (round * kPhases + static_cast<std::uint64_t>(phase)) *
                    kHitsPerPhase +
                static_cast<std::uint64_t>(i);
            Call& c = (*log)[static_cast<std::size_t>(phase)]
                            [static_cast<std::size_t>(side)]
                            [static_cast<std::size_t>(i)];
            if (phase == kPatternPhase) {
              // The pattern starts with A's check; B's put must follow it.
              if (side == 0) {
                trace::Span span(spanned ? "core.pattern.check" : nullptr,
                                 hit_id);
                (void)pattern.trigger_here_ranked_scoped(kCheck, kSites,
                                                         kTimeout);
                checked_.store(hit_id + 1, std::memory_order_release);
              } else {
                spin_until(checked_, hit_id);
              }
            }
            // The seed picks which thread calls first (and so usually
            // parks): the late one waits for the early one's announcement.
            if (early_side(hit_id) == side) {
              announced_.store(hit_id + 1, std::memory_order_release);
            } else {
              spin_until(announced_, hit_id);
            }
            cbp::TriggerResult r;
            c.enter = now_ns();
            if (phase == kRendezvousPhase) {
              trace::Span span(
                  spanned ? "core.trigger_here_scoped" : nullptr, hit_id);
              r = rendezvous.trigger_here_scoped(side == 0, kTimeout);
            } else if (phase == kPatternPhase) {
              trace::Span span(!spanned      ? nullptr
                               : side == 0 ? "core.pattern.erase"
                                           : "core.pattern.put",
                               hit_id);
              r = pattern.trigger_here_ranked_scoped(
                  side == 0 ? kErase : kPut, kSites, kTimeout);
            } else {
              cbp::ScopedEngine bind_remote(rig_.remote[side]);
              trace::Span span(spanned ? "broker.remote_hit" : nullptr,
                               hit_id);
              r = remote.trigger_here_scoped(side == 0, kTimeout);
            }
            c.ret = now_ns();
            c.hit = r.hit;
            c.rank = -1;
            if (r.hit) {
              // The guarded step: stamp a bench-owned sequence number
              // while holding the turn, then hand the turn on.
              c.rank = r.guard.rank();
              c.seq = seq_.fetch_add(1);
              r.guard.release();
            }
          }
          sync.arrive_and_wait();
        }
      }
    };
    std::thread thread_b(body, 1);
    body(0);
    thread_b.join();
  }

  void emit(Report& report) {
    const std::vector<std::int64_t>& round_start = round_start_;
    const std::uint64_t rounds = round_start.size() - 1;  // incl. warm-up
    const std::uint64_t observed = pattern_hits_.load();
    const bool unobserved = observed != rounds * kHitsPerPhase;
    if (unobserved) {
      report.violation("pattern observer saw " + std::to_string(observed) +
                       " hits, expected " +
                       std::to_string(rounds * kHitsPerPhase));
    }
    const std::uint64_t misbound = misbound_.load();
    report.check(missed_, "hits timed out, were cancelled or lost a peer");
    report.check(misordered_,
                 "hits released rank 1 before rank 0's guarded step");
    report.check(misbound,
                 "pattern hits not binding check and erase to one thread");
    report.attempted += attempted_;
    report.failed += unobserved ? 1 : 0;

    // The median round, so a burst of host noise in one round does not
    // move the figure.
    Samples round_rate;
    for (std::size_t round = 1; round + 1 < round_start.size(); ++round) {
      const auto ns = round_start[round + 1] - round_start[round];
      round_rate.add(kPhases * kHitsPerPhase * 1e9 / static_cast<double>(ns));
    }
    report.e2e("ops_per_s", round_rate.median(), "1/s", round_rate.count());
    report.e2e("op_p50_us", all_us_.pct(0.5), "us", all_us_.count());
    report.e2e("op_p90_us", all_us_.pct(0.9), "us", all_us_.count());
    report.note("hits: op_p99_us " + std::to_string(all_us_.pct(0.99)) +
                " us (n=" + std::to_string(all_us_.count()) + ")");

    for (int phase = 0; phase < kPhases; ++phase) {
      const std::string name = kPhaseName[phase];
      Samples& us = phase_us_[phase];
      report.layer(name + "_hit_p50_us", us.pct(0.5), "us", us.count());
      report.layer(name + "_hit_p99_us", us.pct(0.99), "us", us.count());
    }
    for (int rank = 0; rank < 2; ++rank) {
      report.layer("core.trigger.hit_call_us_p50.rank" + std::to_string(rank),
                   call_us_[rank].median(), "us", call_us_[rank].count());
    }

    const cbp::BreakpointStats rv = rig_.local.stats(kRendezvous);
    const cbp::BreakpointStats pt = rig_.local.stats(kPattern);
    cbp::BreakpointStats rm = rig_.remote[0].stats(kRemote);
    rm += rig_.remote[1].stats(kRemote);
    const cbp::BreakpointStats* kinds[kPhases] = {&rv, &pt, &rm};
    for (int phase = 0; phase < kPhases; ++phase) {
      const cbp::BreakpointStats& s = *kinds[phase];
      const std::string kind = kPhaseName[phase];
      report.layer("core.match_wait_us_p50." + kind,
                   static_cast<double>(s.wait_hist.percentile(0.5)), "us",
                   s.wait_hist.count);
      report.layer("core.order_us_p50." + kind,
                   static_cast<double>(s.order_hist.percentile(0.5)), "us",
                   s.order_hist.count);
    }
    report.count("core.postponed_per_hit",
                 ratio(rv.postponed + pt.postponed, rv.hits + pt.hits));
    report.count("core.pattern.partials_per_hit",
                 ratio(pt.pattern_partials, pt.hits));
    report.count("core.pattern.rejects", ratio(pt.pattern_rejects, 1));
    report.count("core.pattern.aborts", ratio(pt.pattern_aborts, 1));

    Samples remote_us = rig_.transport[0]->take();
    remote_us.append(rig_.transport[1]->take());
    const double remote_p50 = remote_us.median();
    report.layer("broker.trigger_remote_us_p50", remote_p50, "us",
                 remote_us.count());
    report.layer("broker.engine_overhead_us",
                 phase_us_[kRemotePhase].median() - remote_p50, "us");
    const broker::BrokerStats bs = rig_.broker->stats();
    report.count("broker.matches_per_arrival", ratio(bs.matches, bs.arrivals));
    report.count("broker.timeouts", ratio(bs.timeouts, 1));
    report.count("broker.forced_advances", ratio(bs.forced_advances, 1));
    report.count("broker.protocol_errors", ratio(bs.protocol_errors, 1));
  }

 private:
  /// Checks one finished round and adds its latencies.
  void account(const RoundLog& log) {
    for (int phase = 0; phase < kPhases; ++phase) {
      const auto& sides = log[static_cast<std::size_t>(phase)];
      for (std::size_t i = 0; i < kHitsPerPhase; ++i) {
        const Call& a = sides[0][i];
        const Call& b = sides[1][i];
        ++attempted_;
        if (!a.hit || !b.hit) {
          ++missed_;
          continue;
        }
        const Call& first = a.rank == 0 ? a : b;
        const Call& second = a.rank == 0 ? b : a;
        if (first.rank != 0 || second.rank != 1 || first.seq >= second.seq) {
          ++misordered_;
          continue;
        }
        const auto ns = std::max(a.ret, b.ret) - std::max(a.enter, b.enter);
        const double us = static_cast<double>(ns) * 1e-3;
        all_us_.add(us);
        phase_us_[phase].add(us);
        if (phase == kRendezvousPhase) {
          call_us_[a.rank].add(static_cast<double>(a.ret - a.enter) * 1e-3);
          call_us_[b.rank].add(static_cast<double>(b.ret - b.enter) * 1e-3);
        }
      }
    }
  }

  /// 0 or 1: which thread calls first for hit `hit_id`, from the seed.
  [[nodiscard]] int early_side(std::uint64_t hit_id) const {
    std::uint64_t z = seed_ ^ (hit_id * 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<int>((z ^ (z >> 31)) & 1);
  }

  static void spin_until(const std::atomic<std::uint64_t>& flag,
                         std::uint64_t hit_id) {
    while (flag.load(std::memory_order_acquire) <= hit_id) {
      std::this_thread::yield();
    }
  }

  Rig& rig_;
  const std::uint64_t seed_;
  std::vector<std::int64_t> round_start_;  ///< A's clock at each round's top
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> checked_{0};    ///< A's check done for hit id-1
  std::atomic<std::uint64_t> announced_{0};  ///< early call made for id-1
  std::atomic<cbp::rt::ThreadId> tid_[2] = {0, 0};
  std::atomic<std::uint64_t> pattern_hits_{0};
  std::atomic<std::uint64_t> misbound_{0};
  // Written by A between rounds only.
  std::uint64_t attempted_ = 0, missed_ = 0, misordered_ = 0;
  Samples all_us_, phase_us_[kPhases], call_us_[2];
};

}  // namespace

void run_hits(const Options& options, double seconds, int setups,
              Report& report) {
  // Set-up: the rig plus one warm-up round, whose first hits pay the
  // lazy work (slots, matcher, connections).  A bare rig takes a fraction
  // of a millisecond, too little to time steadily.
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    rig.reset();  // stops the previous broker and removes its directory
    trace::Span span("hits.setup", static_cast<std::uint64_t>(k));
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<Rig>(options.tmpdir);
    HitsBench(*rig, options.seed).loop(0.0);
    setup_s.push_back(seconds_since(t0));
  }
  report_setup("hits", std::move(setup_s), report);
  HitsBench bench(*rig, options.seed);
  bench.loop(seconds);
  bench.emit(report);
}

}  // namespace perfbench
