#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "bench.h"

namespace perfbench::trace {

namespace {

struct Record {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// One thread's spans.  Buffers are owned by the registry and outlive
/// their threads, so spans of joined workers are still written at exit.
struct Buffer {
  int tid = 0;
  std::vector<Record> records;
};

/// In-memory cap: 200k spans x 48 bytes is under 10 MB.
constexpr std::uint64_t kMaxSpans = 200'000;

std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_recorded{0};
std::atomic<std::uint64_t> g_dropped{0};

std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_current = 0;

Buffer& buffer() {
  if (t_buffer == nullptr) {
    std::scoped_lock lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    g_buffers.back()->tid = static_cast<int>(g_buffers.size());
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t covered(std::vector<Interval>& intervals, std::int64_t lo,
                     std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      total += end - start;
      reach = end;
    }
  }
  return total;
}

}  // namespace

std::uint64_t current() { return t_current; }

void Span::begin(const char* name, std::uint64_t request,
                 std::uint64_t parent) {
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent != 0 ? parent : t_current;
  request_ = request;
  saved_current_ = t_current;
  t_current = id_;
  start_ns_ = now_ns();
}

void Span::end() {
  const std::int64_t stop_ns = now_ns();
  t_current = saved_current_;
  if (g_recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer().records.push_back(
      {name_, id_, parent_, request_, start_ns_, stop_ns});
}

std::uint64_t dropped() { return g_dropped.load(std::memory_order_relaxed); }

std::vector<SpanSummary> summarize() {
  std::scoped_lock lock(g_mu);
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const auto& b : g_buffers) {
    for (const Record& r : b->records) {
      if (r.parent != 0) children[r.parent].emplace_back(r.start_ns, r.end_ns);
    }
  }
  std::map<std::string, SpanSummary> by_name;
  for (const auto& b : g_buffers) {
    for (const Record& r : b->records) {
      SpanSummary& s = by_name[r.name];
      s.name = r.name;
      const std::int64_t duration = r.end_ns - r.start_ns;
      std::int64_t self = duration;
      if (auto it = children.find(r.id); it != children.end()) {
        self -= covered(it->second, r.start_ns, r.end_ns);
      }
      s.count += 1;
      s.total_ms += static_cast<double>(duration) * 1e-6;
      s.self_ms += static_cast<double>(self) * 1e-6;
    }
  }
  std::vector<SpanSummary> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  return out;
}

bool write_chrome(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::scoped_lock lock(g_mu);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& b : g_buffers) {
    for (const Record& r : b->records) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                   "\"parent\":%llu,\"id\":%llu}}",
                   first ? "" : ",", r.name, b->tid,
                   static_cast<double>(r.start_ns) * 1e-3,
                   static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.request));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
