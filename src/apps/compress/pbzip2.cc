#include "apps/compress/pbzip2.h"

#include <thread>
#include <vector>

#include "core/cbp.h"
#include "instrument/shared_var.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"

namespace cbp::apps::compress {
namespace {

struct OutputSlot {
  instr::SharedVar<bool> allocated{true};  ///< false once freed
  int payload = 0;
};

}  // namespace

RunOutcome run_crash(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);

  RunOutcome outcome;
  rt::Stopwatch clock;

  const int blocks = std::max(2, static_cast<int>(8 * options.work_scale));
  std::vector<OutputSlot> slots(static_cast<std::size_t>(blocks));
  for (int i = 0; i < blocks; ++i) {
    slots[static_cast<std::size_t>(i)].payload = i * 13;
  }
  instr::SharedVar<int> blocks_written{0};  ///< consumer progress (racy)
  std::string crash;
  rt::StartGate gate;

  rt::Thread consumer([&] {
    gate.wait();
    try {
      for (int i = 0; i < blocks; ++i) {
        OutputSlot& slot = slots[static_cast<std::size_t>(i)];
        if (i == blocks - 1) {
          // bp1: the consumer is fetching its LAST block; the terminator
          // must make its stale progress read right now.
          ConflictTrigger bp1(kBp1, &slots);
          bp1.trigger_here(/*is_first_action=*/false);
          // bp2: the free must land before this dereference.
          ConflictTrigger bp2(kBp2, &slots);
          bp2.trigger_here(/*is_first_action=*/false);
        }
        if (!slot.allocated.read()) {
          // In pbzip2 this is `OutputBuffer[...]` after free: SIGSEGV.
          throw rt::SimulatedCrash("null pointer dereference: OutputBuffer[" +
                                   std::to_string(i) + "] used after free");
        }
        blocks_written.write(blocks_written.read() + 1);
      }
    } catch (const rt::SimulatedCrash& e) {
      crash = e.what();
    }
  });

  rt::Thread terminator([&] {
    gate.wait();
    arrival_skew(options);  // teardown is requested independently
    // bp1 peer: read the consumer's progress (racily) to decide whether
    // teardown is safe — ordered FIRST so the read is stale.
    ConflictTrigger bp1(kBp1, &slots);
    bp1.trigger_here(/*is_first_action=*/true);
    const int written = blocks_written.read();
    if (written >= blocks - 1) {
      // Believes the consumer is (almost) done: free the slots.
      ConflictTrigger bp2(kBp2, &slots);
      bp2.trigger_here(/*is_first_action=*/true);
      for (auto& slot : slots) slot.allocated.write(false);
    }
  });

  gate.open();
  consumer.join();
  terminator.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (!crash.empty()) {
    outcome.artifact = rt::Artifact::kCrash;
    outcome.detail = crash;
  }
  return outcome;
}

}  // namespace cbp::apps::compress
