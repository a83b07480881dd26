#include "obs/trace.h"

#include <algorithm>
#include <mutex>

#include "runtime/vclock.h"

namespace cbp::obs {

std::string_view kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kArrival: return "arrival";
    case EventKind::kLocalReject: return "local-reject";
    case EventKind::kIgnore: return "ignore";
    case EventKind::kPostpone: return "postpone";
    case EventKind::kMatch: return "match";
    case EventKind::kTimeout: return "timeout";
    case EventKind::kCancel: return "cancel";
    case EventKind::kRelease: return "release";
    case EventKind::kGuardAck: return "guard-ack";
    case EventKind::kHubAccess: return "hub-access";
    case EventKind::kHubSync: return "hub-sync";
    case EventKind::kPatternAdvance: return "pattern-advance";
    case EventKind::kPatternAbort: return "pattern-abort";
  }
  return "unknown";
}

namespace internal {

void Ring::collect_into(std::vector<Event>& out, std::uint64_t& dropped) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t floor = floor_.load(std::memory_order_relaxed);
  std::uint64_t begin = head > kCapacity ? head - kCapacity : 0;
  const std::uint64_t window_begin = begin;
  begin = std::max(begin, floor);
  std::vector<Event> copied;
  copied.reserve(static_cast<std::size_t>(head - begin));
  for (std::uint64_t i = begin; i < head; ++i) {
    copied.push_back(slots_[i & (kCapacity - 1)].load());
  }
  // Re-check: any slot the writer lapped while we copied may be torn;
  // keep only events still inside the retained window and count the
  // rest as dropped alongside the pre-collection overwrites.
  const std::uint64_t head_after = head_.load(std::memory_order_acquire);
  const std::uint64_t safe_begin =
      head_after > kCapacity ? head_after - kCapacity : 0;
  std::uint64_t kept = 0;
  for (std::uint64_t i = begin; i < head; ++i) {
    if (i < safe_begin) continue;  // overwritten mid-copy
    out.push_back(copied[static_cast<std::size_t>(i - begin)]);
    ++kept;
  }
  dropped += (head - begin) - kept;  // lapped mid-copy
  // Events overwritten before collection (cleared ones don't count).
  dropped += window_begin > floor ? window_begin - floor : 0;
}

namespace {

/// Registry of all rings ever created.  Rings are immortal: a collector
/// may still be reading a ring whose owner thread has exited.
struct Registry {
  std::mutex mu;
  std::vector<Ring*> rings;  // guarded by mu (push); read via snapshot
  std::vector<std::string> names;  // guarded by mu
};

Registry& registry() {
  static Registry* r = new Registry();  // immortal (leak on purpose)
  return *r;
}

Ring& this_thread_ring() {
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    ring = new Ring();  // immortal
    Registry& reg = registry();
    std::scoped_lock lock(reg.mu);
    reg.rings.push_back(ring);
  }
  return *ring;
}

rt::TimePoint trace_epoch() {
  static const rt::TimePoint epoch = rt::Clock::now();
  return epoch;
}

}  // namespace

}  // namespace internal

std::uint64_t Trace::now_ns() {
  // Timestamps follow the *active* clock (DESIGN.md §5g): under a
  // virtual clock a trial's events are stamped with virtual time, and
  // the strictly-monotonic stamp breaks ties by execution order — the
  // serialized schedule makes the resulting event order reproducible
  // run-to-run, which real nanosecond timestamps can never be.
  if (rt::VirtualClock* vc = rt::bound_virtual_clock()) {
    return static_cast<std::uint64_t>(vc->unique_now_ns());
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          rt::Clock::now() - internal::trace_epoch())
          .count());
}

void Trace::record(EventKind kind, std::uint32_t name_id, int rank,
                   std::uint16_t detail) {
  record_for(rt::this_thread_id(), kind, name_id, rank, detail);
}

std::uint64_t Trace::stamp() {
  // Under a virtual clock every unique_now_ns() call consumes a virtual
  // tick; record_for_at re-stamps per event there anyway, so reading the
  // clock here would waste ticks and skew virtual traces.
  return rt::bound_virtual_clock() != nullptr ? 0 : now_ns();
}

void Trace::record_for(rt::ThreadId tid, EventKind kind,
                       std::uint32_t name_id, int rank,
                       std::uint16_t detail) {
  record_for_at(stamp(), tid, kind, name_id, rank, detail);
}

void Trace::record_at(std::uint64_t stamp_ns, EventKind kind,
                      std::uint32_t name_id, int rank, std::uint16_t detail) {
  record_for_at(stamp_ns, rt::this_thread_id(), kind, name_id, rank, detail);
}

void Trace::record_for_at(std::uint64_t stamp_ns, rt::ThreadId tid,
                          EventKind kind, std::uint32_t name_id, int rank,
                          std::uint16_t detail) {
  Event e;
  // Virtual time overrides a shared stamp: determinism needs every event
  // strictly ordered by its own unique virtual nanosecond (trace sorting
  // and cross-run diffs rely on it), and unique_now_ns is a counter
  // bump, not a clock read — there is nothing to amortize.
  if (rt::VirtualClock* vc = rt::bound_virtual_clock()) {
    e.time_ns = static_cast<std::uint64_t>(vc->unique_now_ns());
  } else {
    e.time_ns = stamp_ns;
  }
  e.name_id = name_id;
  e.tid = tid;
  e.kind = kind;
  e.rank = static_cast<std::int8_t>(rank);
  e.detail = detail;
  internal::this_thread_ring().push(e);
}

void Trace::inject_for_test(const Event& event) {
  internal::this_thread_ring().push(event);
}

void Trace::set_name(std::uint32_t id, const std::string& name) {
  internal::Registry& reg = internal::registry();
  std::scoped_lock lock(reg.mu);
  if (reg.names.size() <= id) reg.names.resize(id + 1);
  reg.names[id] = name;
}

std::string Trace::name_of(std::uint32_t id) {
  if (id == kNoName) return "<hub>";
  internal::Registry& reg = internal::registry();
  std::scoped_lock lock(reg.mu);
  if (id < reg.names.size() && !reg.names[id].empty()) return reg.names[id];
  std::string name = std::to_string(id);
  name.insert(0, 1, '#');
  return name;
}

TraceSnapshot Trace::collect() {
  std::vector<internal::Ring*> rings;
  {
    internal::Registry& reg = internal::registry();
    std::scoped_lock lock(reg.mu);
    rings = reg.rings;
  }
  TraceSnapshot snapshot;
  for (const internal::Ring* ring : rings) {
    ring->collect_into(snapshot.events, snapshot.dropped);
  }
  std::stable_sort(snapshot.events.begin(), snapshot.events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
                     return a.tid < b.tid;
                   });
  return snapshot;
}

TraceSnapshot Trace::collect_for(const std::vector<std::uint32_t>& name_ids) {
  TraceSnapshot snapshot = collect();
  // dropped is a ring-level count: overwritten slots can't be attributed
  // to an engine, so the per-engine view keeps the global number as an
  // upper bound on what it may be missing.
  std::erase_if(snapshot.events, [&](const Event& e) {
    return std::find(name_ids.begin(), name_ids.end(), e.name_id) ==
           name_ids.end();
  });
  return snapshot;
}

void Trace::clear() {
  // The writer owns each ring's head, so clearing never touches it;
  // instead every ring's collection floor advances to its current head
  // (collector-side state only).  Name registrations survive, like the
  // engine's interned records survive Engine::reset().  Callers must
  // ensure no thread is concurrently recording, or freshly-recorded
  // events may land below the floor and be cleared too.
  std::vector<internal::Ring*> rings;
  {
    internal::Registry& reg = internal::registry();
    std::scoped_lock lock(reg.mu);
    rings = reg.rings;
  }
  for (internal::Ring* ring : rings) ring->forget();
}

}  // namespace cbp::obs
