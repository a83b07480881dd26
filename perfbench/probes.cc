// Single-layer probes: the cost of each non-matching trigger outcome at
// the kv thread count, the local-reject thread scaling, and the cost of
// the opt-in obs event ring — bench-owned BTriggers on a private engine.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/cbp.h"
#include "obs/trace.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr char kRejectName[] = "perfbench-local-reject";
constexpr char kBoundedName[] = "perfbench-bounded";
constexpr char kDormantName[] = "perfbench-dormant";
constexpr std::uint32_t kCallsPerLeg = 1u << 19;
constexpr std::chrono::milliseconds kTimeout{100};

class ProbeTrigger : public cbp::BTrigger {
 public:
  ProbeTrigger(const char* name, bool local) : BTrigger(name), local_(local) {}
  [[nodiscard]] bool predicate_local() const override { return local_; }
  [[nodiscard]] bool predicate_global(const BTrigger&) const override {
    return true;
  }

 private:
  bool local_;
};

enum class Outcome { kLocalReject, kBounded, kDormant };

/// One leg: `threads` workers each make kCallsPerLeg calls that all end
/// in `outcome`.  Returns the leg's wall time in seconds.
double leg(cbp::Engine& engine, Outcome outcome, int threads,
           const char* span) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::int64_t> end(static_cast<std::size_t>(threads), 0);
  trace::Span leg_span(span, static_cast<std::uint64_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      cbp::ScopedEngine bind(engine);
      ProbeTrigger reject(kRejectName, false);
      ProbeTrigger bounded(kBoundedName, true);
      ProbeTrigger dormant(kDormantName, true);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint32_t i = 0; i < kCallsPerLeg; ++i) {
        switch (outcome) {
          case Outcome::kLocalReject:
            reject.trigger_here(false, kTimeout);
            break;
          case Outcome::kBounded:
            bounded.trigger_here(false, kTimeout);
            break;
          case Outcome::kDormant:
            (void)dormant.trigger_here_site("x", kTimeout);
            break;
        }
      }
      end[static_cast<std::size_t>(t)] = now_ns();
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const std::int64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& p : pool) p.join();
  const std::int64_t last = *std::max_element(end.begin(), end.end());
  return static_cast<double>(last - t0) * 1e-9;
}

}  // namespace

void run_probes(const Options& options, double seconds, Report& report) {
  cbp::Engine engine;
  engine.set_spec(
      cbp::BreakpointSpec::parse(std::string(kBoundedName) + " bound=0\n")
          .entries());
  const int n = options.threads;
  // Wall time per call per thread, in ns.
  auto ns_per_call = [&](Outcome outcome, int threads, const char* span) {
    return leg(engine, outcome, threads, span) * 1e9 / kCallsPerLeg;
  };
  Samples reject_ns, bounded_ns, dormant_ns, reject1_ns, traced_ns;
  double dropped = 0.0;
  const std::int64_t start = now_ns();
  do {
    reject_ns.add(ns_per_call(Outcome::kLocalReject, n,
                              "core.trigger.local_reject"));
    bounded_ns.add(ns_per_call(Outcome::kBounded, n, "core.trigger.bounded"));
    dormant_ns.add(ns_per_call(Outcome::kDormant, n,
                               "core.trigger.dormant_site"));
    reject1_ns.add(ns_per_call(Outcome::kLocalReject, 1,
                               "core.trigger.local_reject"));
    cbp::obs::Trace::clear();
    cbp::obs::Trace::set_enabled(true);
    traced_ns.add(ns_per_call(Outcome::kLocalReject, n,
                              "obs.traced_local_reject"));
    cbp::obs::Trace::set_enabled(false);
    dropped = static_cast<double>(cbp::obs::Trace::collect().dropped);
  } while (seconds_since(start) < seconds);
  cbp::obs::Trace::clear();

  const cbp::BreakpointStats rejects = engine.stats(kRejectName);
  const cbp::BreakpointStats bounded = engine.stats(kBoundedName);
  report.check((rejects.calls - rejects.local_rejects) +
                   (bounded.calls - bounded.bounded),
               "probe calls did not end in their intended outcome");
  report.layer("core.trigger.local_reject_ns", reject_ns.median(), "ns",
               reject_ns.count());
  report.layer("core.trigger.bounded_ns", bounded_ns.median(), "ns",
               bounded_ns.count());
  report.layer("core.trigger.dormant_site_ns", dormant_ns.median(), "ns",
               dormant_ns.count());
  // Aggregate rate at n threads over the rate at one: n * t1 / tn.
  report.layer("core.trigger.local_reject_scaling",
               n * reject1_ns.median() / reject_ns.median(), "x",
               reject_ns.count());
  report.layer("obs.traced_local_reject_ns", traced_ns.median(), "ns",
               traced_ns.count());
  report.count("obs.dropped_events", dropped);
}

}  // namespace perfbench
