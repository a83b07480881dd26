// kv-armed: the production cost of leaving breakpoints armed.
//
// A closed loop of `threads` workers calls KvStore::get/put directly on
// a prefilled 2^20-key store, keys drawn from per-thread Zipfian
// (theta 0.99) streams generated from the seed, 95% gets.  The store is
// built armed with the armed-unmatched spec (`kvstore-evict-toctou
// bound=0`, no entry for the resize race), so every call into the
// trigger layer is an admission that never reaches the matcher.  Armed
// (A) and unarmed (B) legs run the same streams in ABBA order after a
// discarded warm-up pair, so drift lands on both.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/kvstore/kvstore.h"
#include "apps/kvstore/zipfian.h"
#include "bench.h"
#include "core/cbp.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace kvs = cbp::apps::kvstore;

constexpr std::uint64_t kKeys = 1u << 20;
constexpr double kGetFraction = 0.95;
constexpr double kTheta = 0.99;
/// Ops per worker per leg: ~0.2 s legs on a 2 GHz core.
constexpr std::uint32_t kOpsPerLeg = 1u << 20;
constexpr std::uint32_t kPutBit = 1u << 31;
constexpr std::uint32_t kSampleMask = 63;    ///< time 1 op in 64
constexpr std::uint32_t kSpanMask = 1023;    ///< span 1 op in 1024

// Value layout: bit 61 marks a prefill value, bit 62 a put; the low 20
// bits carry the key's rank, bits 20..47 the put's op index, bits 48..55
// the leg that wrote it (leg id mod 256) and bits 56..59 the writing
// thread.  A get can thus be checked against its key and traced back to
// the stream entry that wrote it, and a key's final value to the last leg.
constexpr std::int64_t kPrefillBit = std::int64_t{1} << 61;
constexpr std::int64_t kPutValueBit = std::int64_t{1} << 62;
constexpr std::int64_t kPutFieldsMask = (std::int64_t{1} << 60) - 1;
constexpr std::int64_t kRankMask = (std::int64_t{1} << 20) - 1;

std::int64_t prefill_value(std::uint64_t rank) {
  return kPrefillBit | static_cast<std::int64_t>(rank);
}
std::int64_t put_value(int thread, std::uint8_t leg_tag, std::uint32_t index,
                       std::uint64_t rank) {
  return kPutValueBit | (static_cast<std::int64_t>(thread) << 56) |
         (static_cast<std::int64_t>(leg_tag) << 48) |
         (static_cast<std::int64_t>(index) << 20) |
         static_cast<std::int64_t>(rank);
}
std::uint8_t leg_tag(std::uint64_t leg_id) {
  return static_cast<std::uint8_t>(leg_id & 0xFF);
}
std::uint8_t leg_tag_of(std::int64_t v) {
  return static_cast<std::uint8_t>((v >> 48) & 0xFF);
}

using Stream = std::vector<std::uint32_t>;  ///< rank | kPutBit

/// True iff `v` is `rank`'s prefill value or a value some stream put for
/// `rank` (the full check: decodes the writer and looks it up).
bool value_ok(std::int64_t v, std::uint64_t rank,
              const std::vector<Stream>& streams) {
  if (v == prefill_value(rank)) return true;
  if ((v & ~kPutFieldsMask) != kPutValueBit) return false;
  if (static_cast<std::uint64_t>(v & kRankMask) != rank) return false;
  const auto thread = static_cast<std::size_t>((v >> 56) & 0xF);
  const auto index = static_cast<std::size_t>((v >> 20) & 0xFFFFFFF);
  if (thread >= streams.size() || index >= streams[thread].size()) return false;
  const std::uint32_t op = streams[thread][index];
  return (op & kPutBit) != 0 && (op & ~kPutBit) == rank;
}

struct Sampled {
  int thread;
  std::uint32_t index;
  std::int64_t value;
};

/// One worker's share of a leg.
struct WorkerLeg {
  std::int64_t end_ns = 0;
  std::uint64_t bad_gets = 0;
  std::vector<float> get_ns;
  std::vector<float> put_ns;
  std::vector<Sampled> sampled_gets;
};

struct LegResult {
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t bad_gets = 0;
};

class KvBench {
 public:
  explicit KvBench(const Options& options) : threads_(options.threads) {
    streams_.resize(static_cast<std::size_t>(threads_));
    const kvs::ZipfianGenerator zipf(kKeys, kTheta);
    std::vector<std::thread> gen;
    for (int t = 0; t < threads_; ++t) {
      gen.emplace_back([&, t] {
        cbp::rt::Rng rng =
            kvs::session_rng(options.seed, static_cast<std::uint64_t>(t));
        Stream& s = streams_[static_cast<std::size_t>(t)];
        s.resize(kOpsPerLeg);
        for (std::uint32_t& op : s) {
          const bool get = rng.next_double() < kGetFraction;
          op = static_cast<std::uint32_t>(zipf.next(rng)) | (get ? 0 : kPutBit);
        }
      });
    }
    for (std::thread& g : gen) g.join();
  }

  /// Builds both stores and the armed store's engine + spec (timed as
  /// set-up by the caller).
  void setup() {
    armed_.reset();
    unarmed_.reset();
    engine_.reset();
    engine_ = std::make_unique<cbp::Engine>();
    engine_->set_spec(cbp::BreakpointSpec::parse(
                          std::string(kvs::kEvictToctou) + " bound=0\n")
                          .entries());
    kvs::StoreOptions store;
    store.shard_count = 16;
    store.initial_capacity = 1u << 17;  // load 0.5 after prefill: no resize
    store.max_load = 0.75;
    store.armed = true;
    armed_ = std::make_unique<kvs::KvStore>(store);
    store.armed = false;
    unarmed_ = std::make_unique<kvs::KvStore>(store);
    prefill(*armed_);
    prefill(*unarmed_);
    engine_->reset();  // prefill puts are not part of the key streams
  }

  void run(double seconds, Report& report) {
    Samples armed_rate;     // ops/s per armed leg
    Samples armed_nspo;     // ns per op per worker, armed legs
    Samples unarmed_nspo;
    Samples op_ns, get_ns, put_ns;
    std::uint64_t attempted = 0;
    std::uint64_t bad = 0;
    std::uint64_t armed_ops = 0;
    std::uint64_t bad_sampled = 0;
    std::uint64_t armed_last = 0, unarmed_last = 0;  ///< each store's last leg

    auto leg = [&](bool armed, bool measured, std::uint64_t id) {
      std::vector<WorkerLeg> workers;
      const LegResult r = run_leg(armed, id, workers);
      (armed ? armed_last : unarmed_last) = id;
      if (armed) armed_ops += r.ops;
      for (const WorkerLeg& w : workers) {
        for (const Sampled& s : w.sampled_gets) {
          const std::uint32_t op =
              streams_[static_cast<std::size_t>(s.thread)][s.index];
          if (!value_ok(s.value, op & ~kPutBit, streams_)) ++bad_sampled;
        }
      }
      bad += r.bad_gets;
      attempted += r.ops;
      if (!measured) return;
      const double nspo =
          r.wall_s * 1e9 * threads_ / static_cast<double>(r.ops);
      if (!armed) {
        unarmed_nspo.add(nspo);
        return;
      }
      armed_rate.add(static_cast<double>(r.ops) / r.wall_s);
      armed_nspo.add(nspo);
      for (const WorkerLeg& w : workers) {
        for (float v : w.get_ns) get_ns.add(v), op_ns.add(v);
        for (float v : w.put_ns) put_ns.add(v), op_ns.add(v);
      }
    };

    // Discarded warm-up pair, then ABBA blocks until the time is spent.
    std::uint64_t legs = 0;
    leg(true, false, legs++);
    leg(false, false, legs++);
    const std::int64_t start = now_ns();
    do {
      for (bool armed : {true, false, false, true}) leg(armed, true, legs++);
    } while (seconds_since(start) < seconds);

    const cbp::BreakpointStats stats = engine_->total_stats();
    const std::uint64_t lost =
        check_final(*armed_, armed_last) + check_final(*unarmed_, unarmed_last);
    const std::uint64_t artifacts = armed_->poisoned_reads() +
                                    armed_->lost_updates() +
                                    unarmed_->poisoned_reads() +
                                    unarmed_->lost_updates();

    report.check(bad, "gets returned a value of another key, kMiss or kPoison");
    report.check(bad_sampled, "sampled gets returned a value no stream put");
    report.check(lost, "keys lost their last put");
    report.check(artifacts, "poisoned reads or lost updates counted by store");
    if (stats.calls != armed_ops) {
      report.violation("core.calls " + std::to_string(stats.calls) +
                       " != armed ops " + std::to_string(armed_ops));
      report.failed += 1;
    }
    report.attempted += attempted;

    report.e2e("ops_per_s", armed_rate.median(), "1/s", armed_rate.count());
    report.e2e("op_p50_us", op_ns.pct(0.5) * 1e-3, "us", op_ns.count());
    report.e2e("op_p90_us", op_ns.pct(0.9) * 1e-3, "us", op_ns.count());
    report.note("kv-armed: op_p99_us " +
                std::to_string(op_ns.pct(0.99) * 1e-3) + " us (n=" +
                std::to_string(op_ns.count()) + ")");
    report.note("kv-armed: armed legs " + std::to_string(armed_nspo.count()) +
                ", unarmed legs " + std::to_string(unarmed_nspo.count()) +
                ", armed median " + std::to_string(armed_nspo.median()) +
                " ns/op, unarmed median " +
                std::to_string(unarmed_nspo.median()) + " ns/op (per worker, " +
                std::to_string(threads_) + " workers)");

    report.layer("apps.kvstore.unarmed_ns_per_op", unarmed_nspo.median(), "ns",
                 unarmed_nspo.count());
    report.layer("apps.kvstore.get_ns_p50", get_ns.median(), "ns",
                 get_ns.count());
    report.layer("apps.kvstore.put_ns_p50", put_ns.median(), "ns",
                 put_ns.count());
    report.layer("core.trigger.armed_cost_ns_per_op",
                 armed_nspo.median() - unarmed_nspo.median(), "ns",
                 armed_nspo.count() + unarmed_nspo.count());
    report.count("core.calls_per_op", ratio(stats.calls, armed_ops));
    report.count("core.local_rejects_per_op",
                 ratio(stats.local_rejects, armed_ops));
    report.count("core.bounded_per_op", ratio(stats.bounded, armed_ops));
  }

 private:
  /// All workers load the store, each claiming chunks of ranks in turn.
  /// One thread runs at the speed of the one vCPU it is on, and on a
  /// shared virtual machine that speed varied up to twofold between
  /// set-ups; spread over the workers' CPUs, the set-ups of a run agree
  /// within a few percent.  Armed puts contend on the trigger's counters,
  /// so this is not much faster than one thread.
  void prefill(kvs::KvStore& store) {
    constexpr std::uint64_t kChunk = 4096;
    std::atomic<std::uint64_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads_; ++t) {
      pool.emplace_back([&] {
        cbp::ScopedEngine bind(*engine_);
        for (;;) {
          const std::uint64_t begin = next.fetch_add(kChunk);
          if (begin >= kKeys) break;
          for (std::uint64_t r = begin; r < begin + kChunk; ++r) {
            store.put(kvs::rank_to_key(r), prefill_value(r));
          }
        }
      });
    }
    for (std::thread& p : pool) p.join();
  }

  LegResult run_leg(bool armed, std::uint64_t leg_id,
                    std::vector<WorkerLeg>& workers) {
    const std::uint8_t tag = leg_tag(leg_id);
    kvs::KvStore& store = armed ? *armed_ : *unarmed_;
    workers.assign(static_cast<std::size_t>(threads_), WorkerLeg{});
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    trace::Span leg_span(armed ? "kv.leg.armed" : "kv.leg.unarmed", leg_id);
    const std::uint64_t parent = leg_span.id();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads_; ++t) {
      pool.emplace_back([&, t] {
        cbp::ScopedEngine bind(*engine_);
        WorkerLeg& w = workers[static_cast<std::size_t>(t)];
        const Stream& stream = streams_[static_cast<std::size_t>(t)];
        w.get_ns.reserve(stream.size() / (kSampleMask + 1) + 1);
        w.put_ns.reserve(stream.size() / (kSampleMask + 1) / 8 + 1);
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (std::uint32_t i = 0; i < stream.size(); ++i) {
          const std::uint32_t op = stream[i];
          const std::uint64_t rank = op & ~kPutBit;
          const std::uint64_t key = kvs::rank_to_key(rank);
          const bool sampled = (i & kSampleMask) == 0;
          const bool spanned = (i & kSpanMask) == 0;
          const std::int64_t t0 = sampled ? now_ns() : 0;
          if ((op & kPutBit) != 0) {
            trace::Span span(spanned ? "apps.kvstore.put" : nullptr, i, parent);
            store.put(key, put_value(t, tag, i, rank));
            if (sampled) w.put_ns.push_back(static_cast<float>(now_ns() - t0));
          } else {
            std::int64_t v = 0;
            {
              trace::Span span(spanned ? "apps.kvstore.get" : nullptr, i,
                               parent);
              v = store.get(key);
            }
            if (sampled) {
              w.get_ns.push_back(static_cast<float>(now_ns() - t0));
              w.sampled_gets.push_back({t, i, v});
            }
            if (v <= 0 || static_cast<std::uint64_t>(v & kRankMask) != rank) {
              ++w.bad_gets;
            }
          }
        }
        w.end_ns = now_ns();
      });
    }
    while (ready.load() < threads_) std::this_thread::yield();
    const std::int64_t t0 = now_ns();
    go.store(true, std::memory_order_release);
    for (std::thread& p : pool) p.join();
    LegResult r;
    std::int64_t end = t0;
    for (const WorkerLeg& w : workers) {
      end = std::max(end, w.end_ns);
      r.bad_gets += w.bad_gets;
    }
    r.wall_s = static_cast<double>(end - t0) * 1e-9;
    r.ops = static_cast<std::uint64_t>(threads_) * kOpsPerLeg;
    return r;
  }

  /// Keys whose final value is not the last put one of the streams made
  /// to them in the store's last leg, `last_leg` (or, for never-put keys,
  /// not the prefill value).  Every leg replays whole streams, so a
  /// thread's last put to a key is fixed; the leg tag tells a put lost
  /// in the last leg from the same put an earlier leg made.
  std::uint64_t check_final(kvs::KvStore& store, std::uint64_t last_leg) {
    const auto n = static_cast<std::size_t>(threads_);
    std::vector<std::int64_t> last(kKeys * n, -1);
    for (int t = 0; t < threads_; ++t) {
      const Stream& s = streams_[static_cast<std::size_t>(t)];
      for (std::uint32_t i = 0; i < s.size(); ++i) {
        if ((s[i] & kPutBit) != 0) {
          last[(s[i] & ~kPutBit) * n + static_cast<std::size_t>(t)] = i;
        }
      }
    }
    cbp::ScopedEngine bind(*engine_);
    std::uint64_t lost = 0;
    for (std::uint64_t r = 0; r < kKeys; ++r) {
      const std::int64_t v = store.get(kvs::rank_to_key(r));
      const std::int64_t* mine = &last[r * n];
      const bool ever_put = std::any_of(
          mine, mine + threads_, [](std::int64_t i) { return i >= 0; });
      if (!ever_put) {
        lost += v != prefill_value(r);
        continue;
      }
      const auto writer = static_cast<std::size_t>((v >> 56) & 0xF);
      const bool ok = value_ok(v, r, streams_) && v != prefill_value(r) &&
                      leg_tag_of(v) == leg_tag(last_leg) && writer < n &&
                      mine[writer] == ((v >> 20) & 0xFFFFFFF);
      lost += ok ? 0 : 1;
    }
    return lost;
  }

  int threads_;
  std::vector<Stream> streams_;
  std::unique_ptr<cbp::Engine> engine_;
  std::unique_ptr<kvs::KvStore> armed_;
  std::unique_ptr<kvs::KvStore> unarmed_;
};

}  // namespace

void run_kv(const Options& options, double seconds, int setups,
            Report& report) {
  KvBench bench(options);
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) {
    const std::int64_t t0 = now_ns();
    {
      trace::Span span("kv.setup", static_cast<std::uint64_t>(i));
      bench.setup();
    }
    setup_s.push_back(seconds_since(t0));
  }
  report_setup("kv-armed", std::move(setup_s), report);
  bench.run(seconds, report);
}

}  // namespace perfbench
