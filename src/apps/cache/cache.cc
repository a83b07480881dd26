#include "apps/cache/cache.h"

#include <thread>
#include <vector>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"

namespace cbp::apps::cache {
namespace {

void configure(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);
}

/// Read-pause-write increment of an unsynchronized counter: the racy
/// window is widened by the breakpoint when `armed` matches.
void racy_increment(instr::SharedVar<std::int64_t>& counter, bool armed,
                    const char* breakpoint) {
  const std::int64_t value = counter.read();
  if (armed) {
    ConflictTrigger trigger(breakpoint, counter.address());
    trigger.trigger_here(/*is_first_action=*/true);
  }
  counter.write(value + 1);
}

}  // namespace

void Cache::arm(std::string bug, std::uint64_t ignore_first) {
  armed_ = std::move(bug);
  ignore_first_ = ignore_first;
}

void Cache::put(int key, int payload) {
  busy_work(40000);  // serialization/hashing work of the original cache
  auto object = std::make_shared<CacheObject>(key);
  bool inserted = false;
  {
    instr::TrackedLock lock(table_mu_);
    inserted = table_.emplace(key, object).second;
    if (!inserted) table_[key] = object;
    // Capacity check under the lock; eviction bookkeeping is not.
    if (table_.size() > capacity_) {
      table_.erase(table_.begin());
      lock.unlock();
      racy_increment(evictions_, armed_ == "race3", kRace3);  // race3
    }
  }
  // The object is now PUBLISHED but its payload is not yet initialized —
  // the cache4j constructor atomicity violation.
  if (armed_ == "atomicity1") {
    AtomicityTrigger trigger(kAtomicity1, object.get());
    trigger.ignore_first(ignore_first_);
    trigger.trigger_here(/*is_first_action=*/false);
  }
  object->payload.write(payload);
  object->ready.write(true);

  if (inserted) {
    racy_increment(size_, armed_ == "race1", kRace1);  // race1
  }
}

int Cache::get(int key) {
  busy_work(40000);
  std::shared_ptr<CacheObject> object;
  {
    instr::TrackedLock lock(table_mu_);
    auto it = table_.find(key);
    if (it == table_.end()) return -1;
    object = it->second;
  }
  if (armed_ == "atomicity1") {
    AtomicityTrigger trigger(kAtomicity1, object.get());
    trigger.ignore_first(ignore_first_);
    // The reader executes FIRST from the conflict state: it observes the
    // published-but-uninitialized object.
    trigger.trigger_here(/*is_first_action=*/true);
  }
  if (!object->ready.read()) return -999;  // half-constructed observation
  const int payload = object->payload.read();
  racy_increment(hits_, armed_ == "race2", kRace2);  // race2
  return payload;
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

namespace {

/// Two-thread put/get mix; returns the outcome classified by comparing
/// exact operation tallies against the unsynchronized counters.
RunOutcome run_race(const RunOptions& options, const std::string& bug) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  const int ops = std::max(4, static_cast<int>(24 * options.work_scale));
  // race3 needs evictions (tight capacity); race1/race2 need the prefill
  // keys to survive so gets are guaranteed hits (ample capacity).
  Cache cache(static_cast<std::size_t>(bug == "race3" ? ops : 8 * ops));
  cache.arm(bug);

  // Pre-fill keys the getters will hit.
  {
    ScopedBreakpointsDisabled quiesce;
    for (int i = 0; i < ops; ++i) cache.put(10'000 + i, i);
  }

  rt::StartGate gate;
  auto worker = [&](int base, bool later) {
    gate.wait();
    if (later) arrival_skew(options);  // clients do not start in lockstep
    for (int i = 0; i < ops; ++i) {
      cache.put(base + i, i);       // distinct new keys -> size_ bumps
      (void)cache.get(10'000 + i);  // guaranteed hits -> hits_ bumps
    }
  };
  rt::Thread a(worker, 0, false);
  rt::Thread b(worker, 1000, true);
  gate.open();
  a.join();
  b.join();

  outcome.runtime_seconds = clock.elapsed_seconds();

  // Exact expectations: all counters were incremented exactly this many
  // times; any shortfall is a lost update — the racy state manifested.
  const std::int64_t total_new_puts = 2LL * ops + ops;  // workers + prefill
  const std::int64_t total_hits = 2LL * ops;
  bool lost = false;
  std::string what;
  if (bug == "race1" && cache.approx_size() < total_new_puts) {
    lost = true;
    what = "size counter lost " +
           std::to_string(total_new_puts - cache.approx_size()) + " updates";
  } else if (bug == "race2" && cache.hit_count() < total_hits) {
    lost = true;
    what = "hit counter lost " +
           std::to_string(total_hits - cache.hit_count()) + " updates";
  } else if (bug == "race3") {
    // Evictions happen once the table exceeds its capacity; the exact
    // count is (inserted keys) - capacity, all keys being distinct.
    const std::int64_t expected_evictions =
        std::max<std::int64_t>(0, total_new_puts - static_cast<int>(ops));
    if (cache.eviction_count() < expected_evictions) {
      lost = true;
      what = "eviction counter lost " +
             std::to_string(expected_evictions - cache.eviction_count()) +
             " updates";
    }
  }
  if (lost) {
    outcome.artifact = rt::Artifact::kRaceObserved;
    outcome.detail = what;
  }
  return outcome;
}

}  // namespace

RunOutcome run_race1(const RunOptions& options) {
  return run_race(options, "race1");
}
RunOutcome run_race2(const RunOptions& options) {
  return run_race(options, "race2");
}
RunOutcome run_race3(const RunOptions& options) {
  return run_race(options, "race3");
}

RunOutcome run_atomicity1(const RunOptions& options,
                          std::uint64_t ignore_first) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  Cache cache(100'000);
  cache.arm("atomicity1", ignore_first);

  // Warm-up: the CacheObject constructor path runs many times with no
  // concurrent reader — each arrival would postpone for the full T
  // unless ignore_first suppresses it (paper §6.3, ignoreFirst=7200).
  for (int i = 0; i < kWarmupConstructions; ++i) cache.put(i, i);

  // Race phase: a put of a fresh key vs a get of that same key.
  constexpr int kKey = 777'777;
  int observed = -1;
  rt::StartGate gate;
  rt::Thread writer([&] {
    gate.wait();
    cache.put(kKey, 42);
  });
  rt::Thread reader([&] {
    gate.wait();
    arrival_skew(options);  // the lookup is an independent request
    // Retry until the entry is published, then the breakpoint aligns the
    // read into the publication/initialization window.
    for (int attempt = 0; attempt < 1'000'000; ++attempt) {
      observed = cache.get(kKey);
      if (observed != -1) break;
    }
  });
  gate.open();
  writer.join();
  reader.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (observed == -999) {
    outcome.artifact = rt::Artifact::kRaceObserved;
    outcome.detail = "reader observed half-constructed CacheObject";
  }
  return outcome;
}

}  // namespace cbp::apps::cache
