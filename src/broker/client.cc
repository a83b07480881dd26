#include "broker/client.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "broker/wire.h"
#include "runtime/spin.h"

namespace cbp::broker {

using SteadyClock = std::chrono::steady_clock;

namespace {

enum class ReadResult { kData, kIdle, kClosed };

/// Waits until `fd` is readable or `deadline` passes, then appends what
/// one non-blocking recv takes to `out`.  kClosed on EOF or a hard error.
/// Spin, then park (runtime/spin.h): the recv is retried for up to
/// kSpinBudget of the deadline before the caller sleeps in poll().
ReadResult receive(int fd, SteadyClock::time_point deadline,
                   std::vector<std::uint8_t>& out) {
  std::uint8_t buf[4096];
  ssize_t n = -1;
  auto try_recv = [&] {
    n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    return n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
  };
  if (!rt::spin_until(rt::spin_stop(deadline - SteadyClock::now()),
                      try_recv)) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - SteadyClock::now());
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(
        &p, 1,
        static_cast<int>(std::clamp<std::int64_t>(
            left.count(), 0, std::numeric_limits<int>::max())));
    if (ready == 0 || (ready < 0 && errno == EINTR)) return ReadResult::kIdle;
    if (ready < 0) return ReadResult::kClosed;
    try_recv();
  }
  if (n > 0) {
    out.insert(out.end(), buf, buf + n);
    return ReadResult::kData;
  }
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return ReadResult::kIdle;
  }
  return ReadResult::kClosed;  // EOF or hard error
}

}  // namespace

struct BrokerClient::Impl {
  /// One in-flight postponement, keyed by token.  All fields guarded by
  /// mu; a single broadcast cv is plenty at breakpoint frequencies.
  struct Pending {
    bool granted = false;
    bool timed_out = false;
    bool cancelled = false;
    bool failed = false;
    int rank = -1;
    GrantOutcome outcome = GrantOutcome::kOk;

    [[nodiscard]] bool terminal() const {
      return granted || timed_out || cancelled || failed;
    }
  };

  int fd = -1;

  std::mutex write_mu;
  bool write_closed = false;  // guarded by write_mu; set once by shutdown()

  std::mutex mu;
  std::condition_variable cv;
  std::unordered_map<std::uint64_t, Pending> pending;  // guarded by mu
  bool reading = false;  // guarded by mu: a caller holds the read role
  bool dead = false;     // guarded by mu: EOF, failed write or shutdown
  std::vector<std::uint8_t> inbuf;  // touched only by the read role

  std::atomic<std::uint64_t> next_token{1};

  /// The broker is gone: every in-flight postponement not yet settled
  /// fails, and every later one fails before it is sent.  Caller holds
  /// mu.
  void fail_all() {
    dead = true;
    for (auto& [token, p] : pending) {
      if (!p.terminal()) p.failed = true;
    }
    cv.notify_all();
  }

  /// Writes one frame.  A failed write means the broker has gone, so
  /// the client fails every in-flight call too.
  bool send(const Message& m) {
    bool ok = false;
    {
      std::scoped_lock lock(write_mu);
      ok = !write_closed && write_frame(fd, m);
    }
    if (!ok) {
      std::scoped_lock lock(mu);
      fail_all();
    }
    return ok;
  }

  /// Records one broker frame on its token; a frame for a token no
  /// longer tracked (its failsafe gave up) is dropped.  Caller holds mu.
  void apply(const Message& msg) {
    auto it = pending.find(msg.token);
    if (it == pending.end()) return;
    Pending& p = it->second;
    switch (msg.type) {
      case MsgType::kGrant:
        p.granted = true;
        p.rank = msg.rank;
        p.outcome = static_cast<GrantOutcome>(msg.flags);
        break;
      case MsgType::kTimeout:
        p.timed_out = true;
        break;
      case MsgType::kCancelled:
        p.cancelled = true;
        break;
      default:
        break;  // client-only, reserved or unknown: ignore
    }
  }

  /// Waits until `token` is terminal or `deadline` passes; returns
  /// whether it is terminal.  `lock` holds mu.  While no other caller
  /// holds the read role, this one takes it: it polls the socket until
  /// its own deadline (never a blocking read, so a broker that stops
  /// mid-frame cannot hold it past the deadline), records every whole
  /// frame received, and wakes the callers whose tokens those settled.
  /// It hands the role on once its own token is terminal or its
  /// deadline has passed.
  bool await(std::uint64_t token, SteadyClock::time_point deadline,
             std::unique_lock<std::mutex>& lock) {
    const Pending& mine = pending.at(token);  // only its caller erases it
    bool holding = false;
    while (!mine.terminal() && SteadyClock::now() < deadline) {
      if (reading && !holding) {
        cv.wait_until(lock, deadline);
        continue;
      }
      reading = holding = true;
      lock.unlock();
      const ReadResult got = receive(fd, deadline, inbuf);
      lock.lock();
      if (got == ReadResult::kIdle) continue;
      bool others = false;
      const bool framed = drain_frames(inbuf, [&](const Message& msg) {
        apply(msg);
        others |= msg.token != token;
      });
      if (others) cv.notify_all();
      // A malformed frame leaves the stream unparseable: drop it as if
      // the broker had gone.
      if (got == ReadResult::kClosed || !framed) fail_all();
    }
    if (holding) {
      reading = false;
      cv.notify_all();
    }
    return mine.terminal();
  }
};

std::shared_ptr<BrokerClient> BrokerClient::connect(
    const std::string& socket_path, std::chrono::milliseconds retry_for,
    std::uint64_t engine_tag) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) return nullptr;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const auto deadline = SteadyClock::now() + retry_for;
  int fd = -1;
  for (;;) {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
    // The broker may simply not be listening yet (workers fork before
    // the parent starts it): retry until the window closes.
    if (SteadyClock::now() >= deadline) return nullptr;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  auto client = std::shared_ptr<BrokerClient>(new BrokerClient());
  client->impl_ = std::make_unique<Impl>();
  client->impl_->fd = fd;

  Message hello;
  hello.type = MsgType::kHello;
  hello.a = static_cast<std::uint64_t>(::getpid());
  hello.b = engine_tag;
  if (!client->impl_->send(hello)) {
    ::close(fd);
    client->impl_->fd = -1;
    return nullptr;
  }
  return client;
}

BrokerClient::~BrokerClient() { shutdown(); }

void BrokerClient::shutdown() {
  if (!impl_) return;
  {
    std::scoped_lock lock(impl_->write_mu);
    if (impl_->write_closed) return;
    impl_->write_closed = true;
  }
  if (impl_->fd < 0) return;  // connect() failed: nothing was in flight
  {
    std::unique_lock lock(impl_->mu);
    impl_->fail_all();
    // Wake a caller polling in the read role, and close the fd only once
    // it has handed the role back.
    ::shutdown(impl_->fd, SHUT_RDWR);
    impl_->cv.wait(lock, [&] { return !impl_->reading; });
  }
  ::close(impl_->fd);
  impl_->fd = -1;
}

bool BrokerClient::connected() const {
  if (!impl_) return false;
  std::scoped_lock lock(impl_->mu);
  return !impl_->dead;
}

RemoteTriggerResult BrokerClient::trigger_remote(
    const RemoteTriggerRequest& request) {
  RemoteTriggerResult result;  // defaults to kError
  if (!impl_) return result;

  const std::uint64_t token =
      impl_->next_token.fetch_add(1, std::memory_order_relaxed);
  {
    std::scoped_lock lock(impl_->mu);
    if (impl_->dead) return result;
    impl_->pending.emplace(token, Impl::Pending{});
  }

  Message arrive;
  arrive.type = MsgType::kArrive;
  arrive.token = token;
  arrive.a = static_cast<std::uint64_t>(request.timeout.count());
  arrive.rank = request.rank;
  arrive.arity = request.arity;
  arrive.flags = request.scoped ? kFlagScoped : 0;
  arrive.name = request.name;
  if (!impl_->send(arrive)) {
    std::scoped_lock lock(impl_->mu);
    impl_->pending.erase(token);
    return result;
  }

  // Failsafe: the broker owns the timeout, but a wedged broker must
  // turn into kError here, never a hang (core/transport.h).
  const auto deadline = SteadyClock::now() + request.timeout + kGrantSlack;

  Impl::Pending snapshot;
  {
    std::unique_lock lock(impl_->mu);
    const bool terminal = impl_->await(token, deadline, lock);
    auto it = impl_->pending.find(token);
    snapshot = it->second;
    impl_->pending.erase(it);
    if (!terminal) {
      // Failsafe expired: disown the token and tell the broker, which
      // completes it if it was matched so the rest of its group
      // advances.  A late GRANT finds no token and is dropped.
      lock.unlock();
      Message cancel;
      cancel.type = MsgType::kCancel;
      cancel.token = token;
      impl_->send(cancel);
      return result;
    }
  }

  if (snapshot.failed) return result;
  if (snapshot.timed_out) {
    result.outcome = RemoteOutcome::kTimeout;
    return result;
  }
  if (snapshot.cancelled) {
    result.outcome = RemoteOutcome::kCancelled;
    return result;
  }

  result.rank = snapshot.rank;
  result.outcome = snapshot.outcome == GrantOutcome::kPeerLost
                       ? RemoteOutcome::kPeerLost
                       : RemoteOutcome::kHit;
  if (request.scoped) {
    // DONE is deferred to the OrderingGuard release; the callback keeps
    // the client alive even if the engine detaches the transport.
    auto self = shared_from_this();
    result.complete = [self, token] {
      Message done;
      done.type = MsgType::kDone;
      done.token = token;
      self->impl_->send(done);
    };
  } else {
    Message done;
    done.type = MsgType::kDone;
    done.token = token;
    impl_->send(done);
  }
  return result;
}

}  // namespace cbp::broker
