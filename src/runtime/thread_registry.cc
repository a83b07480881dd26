#include "runtime/thread_registry.h"

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace cbp::rt {
namespace {

std::atomic<std::uint64_t> g_epoch{0};
std::atomic<ThreadId> g_next_id{0};

std::mutex g_names_mu;
std::unordered_map<ThreadId, std::string> g_names;  // guarded by g_names_mu

struct TlsSlot {
  std::uint64_t epoch = ~0ULL;
  ThreadId id = 0;
};

TlsSlot& tls_slot() {
  thread_local TlsSlot slot;
  return slot;
}

}  // namespace

ThreadId this_thread_id() {
  TlsSlot& slot = tls_slot();
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (slot.epoch != epoch) {
    slot.epoch = epoch;
    slot.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  }
  return slot.id;
}

void set_this_thread_name(std::string name) {
  const ThreadId id = this_thread_id();
  std::scoped_lock lock(g_names_mu);
  g_names[id] = std::move(name);
}

std::string this_thread_name() {
  const ThreadId id = this_thread_id();
  {
    std::scoped_lock lock(g_names_mu);
    auto it = g_names.find(id);
    if (it != g_names.end()) return it->second;
  }
  std::string name = std::to_string(id);
  name.insert(0, 1, 'T');
  return name;
}

std::string thread_name(ThreadId id) {
  std::scoped_lock lock(g_names_mu);
  auto it = g_names.find(id);
  return it == g_names.end() ? std::string() : it->second;
}

ThreadId thread_count() { return g_next_id.load(std::memory_order_relaxed); }

namespace {
std::atomic<int> g_parallel_regions{0};
}  // namespace

bool reset_thread_epoch() {
  if (g_parallel_regions.load(std::memory_order_acquire) > 0) return false;
  std::scoped_lock lock(g_names_mu);
  g_names.clear();
  g_next_id.store(0, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

ParallelRegion::ParallelRegion() {
  g_parallel_regions.fetch_add(1, std::memory_order_acq_rel);
}

ParallelRegion::~ParallelRegion() {
  g_parallel_regions.fetch_sub(1, std::memory_order_acq_rel);
}

bool ParallelRegion::active() {
  return g_parallel_regions.load(std::memory_order_acquire) > 0;
}

}  // namespace cbp::rt
