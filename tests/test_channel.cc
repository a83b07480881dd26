// Close semantics of rt::Channel (runtime/channel.h), pinned down
// because a consumer may use close() as its shutdown signal: queued
// items must drain, blocked parties must wake exactly once, and a
// drained closed channel must be distinguishable from a timeout via
// closed().

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/channel.h"
#include "runtime/context.h"
#include "runtime/vclock.h"

namespace cbp {
namespace {

using namespace std::chrono_literals;

TEST(ChannelCloseTest, BlockedReceiverWakesWithNullopt) {
  rt::Channel<int> ch(4);
  std::atomic<bool> woke{false};
  std::thread receiver([&] {
    const std::optional<int> got = ch.receive();
    EXPECT_FALSE(got.has_value());
    woke.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(20ms);  // let the receiver park
  EXPECT_FALSE(woke.load(std::memory_order_acquire));
  ch.close();
  receiver.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
}

TEST(ChannelCloseTest, BlockedSenderWakesWithFalse) {
  rt::Channel<int> ch(1);
  ASSERT_TRUE(ch.send(1));  // fill to capacity
  std::atomic<bool> woke{false};
  std::thread sender([&] {
    EXPECT_FALSE(ch.send(2));  // blocks on the full channel, then fails
    woke.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(woke.load(std::memory_order_acquire));
  ch.close();
  sender.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
}

TEST(ChannelCloseTest, ItemsQueuedBeforeCloseDrainThenNullopt) {
  rt::Channel<int> ch(8);
  ASSERT_TRUE(ch.send(10));
  ASSERT_TRUE(ch.send(11));
  ASSERT_TRUE(ch.send(12));
  ch.close();
  // Shutdown must not drop in-flight items.
  EXPECT_EQ(ch.receive(), std::optional<int>(10));
  EXPECT_EQ(ch.receive(), std::optional<int>(11));
  EXPECT_EQ(ch.receive(), std::optional<int>(12));
  EXPECT_EQ(ch.receive(), std::nullopt);
  EXPECT_EQ(ch.receive(), std::nullopt);  // stays empty, stays awake
}

TEST(ChannelCloseTest, SendAndTrySendFailAfterClose) {
  rt::Channel<int> ch(4);
  ch.close();
  EXPECT_FALSE(ch.send(1));
  EXPECT_FALSE(ch.try_send(2));
  EXPECT_EQ(ch.size(), 0u);
}

TEST(ChannelCloseTest, CloseIsIdempotent) {
  rt::Channel<int> ch(4);
  ASSERT_TRUE(ch.send(7));
  ch.close();
  ch.close();
  EXPECT_EQ(ch.receive(), std::optional<int>(7));
  EXPECT_EQ(ch.receive(), std::nullopt);
}

TEST(ChannelCloseTest, ReceiveForDistinguishesTimeoutFromCloseViaClosed) {
  rt::Channel<int> ch(4);
  // Timeout on an open channel: nullopt, closed() false.
  EXPECT_EQ(ch.receive_for(5ms), std::nullopt);
  EXPECT_FALSE(ch.closed());
  // Drained close: nullopt immediately (no 1-hour park), closed() true —
  // the check a consumer loop makes to exit.
  ch.close();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(ch.receive_for(3600s), std::nullopt);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 60s);
  EXPECT_TRUE(ch.closed());
}

TEST(ChannelCloseTest, ReceiveForDrainsQueuedItemsAfterClose) {
  rt::Channel<int> ch(4);
  ASSERT_TRUE(ch.send(5));
  ch.close();
  EXPECT_EQ(ch.receive_for(10ms), std::optional<int>(5));
  EXPECT_EQ(ch.receive_for(10ms), std::nullopt);
}

TEST(ChannelCloseTest, CloseWakesEveryBlockedParty) {
  rt::Channel<int> full(1);
  rt::Channel<int> empty(1);
  ASSERT_TRUE(full.send(0));  // senders on `full` below will block
  std::atomic<int> woken{0};
  std::vector<std::thread> parties;
  for (int i = 0; i < 3; ++i) {
    parties.emplace_back([&] {
      EXPECT_FALSE(full.send(99));
      woken.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  for (int i = 0; i < 2; ++i) {
    parties.emplace_back([&] {
      EXPECT_FALSE(empty.receive().has_value());
      woken.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(woken.load(std::memory_order_acquire), 0);
  full.close();
  empty.close();
  for (auto& t : parties) t.join();
  EXPECT_EQ(woken.load(std::memory_order_acquire), 5);
  // The queued item survived the close: close never drops data.
  EXPECT_EQ(full.receive(), std::optional<int>(0));
}

// The same close semantics must hold under a virtual clock, where
// blocked senders/receivers are scheduled by the trial clock instead of
// parked in the kernel (runtime/vclock.h).
TEST(ChannelCloseTest, CloseWakesParkedPartiesUnderVirtualClock) {
  rt::VirtualClock vc;
  std::optional<int> got = 123;
  bool sent = true;
  {
    rt::ScopedClock bind(&vc);
    rt::Channel<int> empty_ch(1);
    rt::Channel<int> full_ch(1);
    ASSERT_TRUE(full_ch.send(1));
    rt::Thread receiver([&] { got = empty_ch.receive(); });
    rt::Thread sender([&] { sent = full_ch.send(2); });
    // Both children park in untimed waits (no deadline); this 10ms sleep
    // is the only deadline, so the clock fast-forwards here once both
    // are registered — a deterministic "let them block".
    rt::clock_sleep_for(10ms);
    empty_ch.close();
    full_ch.close();
    receiver.join();
    sender.join();
  }
  EXPECT_EQ(got, std::nullopt);
  EXPECT_FALSE(sent);
}

TEST(ChannelCloseTest, ReceiveForTimesOutInVirtualTimeNotRealTime) {
  rt::VirtualClock vc;
  const auto real_start = std::chrono::steady_clock::now();
  {
    rt::ScopedClock bind(&vc);
    rt::Channel<int> ch(4);
    EXPECT_EQ(ch.receive_for(10s), std::nullopt);  // ten *virtual* seconds
    EXPECT_FALSE(ch.closed());
  }
  EXPECT_GE(vc.now_ns(), 10'000'000'000);
  EXPECT_LT(std::chrono::steady_clock::now() - real_start, 5s);
}

}  // namespace
}  // namespace cbp
