#include "apps/strbuf/string_buffer.h"

#include <stdexcept>
#include <thread>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"

namespace cbp::apps::strbuf {

int StringBuffer::length() const {
  instr::TrackedLock lock(mu_);
  return static_cast<int>(data_.size());
}

void StringBuffer::get_chars(int begin, int end, std::string& dst) const {
  instr::TrackedLock lock(mu_);
  if (begin < 0 || end < begin || end > static_cast<int>(data_.size())) {
    throw std::out_of_range("StringIndexOutOfBounds: end " +
                            std::to_string(end) + " > length " +
                            std::to_string(data_.size()));
  }
  dst.append(data_, static_cast<std::size_t>(begin),
             static_cast<std::size_t>(end - begin));
}

void StringBuffer::append(char c) {
  instr::TrackedLock lock(mu_);
  data_.push_back(c);
}

void StringBuffer::set_length(int new_length) {
  // "Line 239": the interleaver's side of the breakpoint.  The thread
  // reaching here is ordered FIRST (paper §2: the atomicity violation is
  // triggered when setLength executes before the stale getChars).
  AtomicityTrigger trigger(kAtomicity1Breakpoint, this);
  trigger.trigger_here(/*is_first_action=*/true);
  instr::TrackedLock lock(mu_);
  data_.resize(static_cast<std::size_t>(new_length < 0 ? 0 : new_length));
}

void StringBuffer::append(const StringBuffer& source) {
  busy_work(30000);  // formatting work around the append
  // "Line 444": cache the source length in a local.
  const int len = source.length();
  // "Line 449": the victim's side of the breakpoint — about to copy
  // using the (possibly stale) cached length.
  AtomicityTrigger trigger(kAtomicity1Breakpoint, &source);
  trigger.trigger_here(/*is_first_action=*/false);
  std::string chunk;
  source.get_chars(0, len, chunk);
  instr::TrackedLock lock(mu_);
  data_ += chunk;
}

std::string StringBuffer::str() const {
  instr::TrackedLock lock(mu_);
  return data_;
}

RunOutcome run_atomicity1(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);

  RunOutcome outcome;
  rt::Stopwatch clock;

  const int rounds = std::max(1, static_cast<int>(8 * options.work_scale));
  StringBuffer shared("the quick brown fox jumps over the lazy dog");
  StringBuffer accumulator;
  std::string error;
  rt::StartGate gate;

  rt::Thread appender([&] {
    gate.wait();
    try {
      for (int i = 0; i < rounds; ++i) accumulator.append(shared);
    } catch (const std::out_of_range& e) {
      error = e.what();
    }
  });
  rt::Thread truncator([&] {
    gate.wait();
    arrival_skew(options);
    // A little real work before the truncation, as in the library's
    // normal use; the breakpoint is what creates the overlap.
    for (int i = 0; i < 64; ++i) shared.append('x');
    shared.set_length(0);
  });
  gate.open();
  appender.join();
  truncator.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (!error.empty()) {
    outcome.artifact = rt::Artifact::kException;
    outcome.detail = error;
  }
  return outcome;
}

}  // namespace cbp::apps::strbuf
