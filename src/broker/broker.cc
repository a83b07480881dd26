#include "broker/broker.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "broker/wire.h"
#include "core/pattern.h"
#include "runtime/spin.h"

namespace cbp::broker {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Sanity bound on declared arity (matches the engine's practical use;
/// a wild value is a protocol error, not a resource commitment).
constexpr int kMaxArity = 64;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

struct Broker::Impl {
  explicit Impl(BrokerOptions opts) : options(std::move(opts)) {}

  // ---- protocol state ----------------------------------------------------

  struct Arrival {
    std::uint64_t conn_id = 0;
    std::uint64_t token = 0;
    int rank = 0;
    int arity = 2;
    SteadyClock::time_point deadline;
  };

  struct Member {
    std::uint64_t conn_id = 0;
    std::uint64_t token = 0;
    bool done = false;  ///< sent DONE, was force-advanced past, or lost
    bool lost = false;  ///< its connection died mid-protocol
  };

  struct Group {
    std::vector<Member> members;  ///< indexed by assigned rank
    int granted = -1;             ///< rank currently holding the grant
    SteadyClock::time_point grant_deadline;
  };

  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> inbuf;
    std::vector<std::uint8_t> outbuf;
  };

  BrokerOptions options;

  mutable std::mutex stats_mu;
  BrokerStats stats;  // guarded by stats_mu

  int listen_fd = -1;
  int wake_r = -1;  // self-pipe: stop() wakes the loop through it
  int wake_w = -1;
  std::atomic<bool> stopping{false};
  bool started = false;

  std::thread loop_thread;

  // Everything below is touched only by the loop thread.
  std::map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;
  std::unordered_map<std::string, std::vector<Arrival>> postponed;
  std::unordered_map<std::uint64_t, Group> groups;
  // (conn_id, token) -> group id, for DONE routing.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> in_group;
  std::uint64_t next_group_id = 1;
  // Replies queued by the handlers this round, flushed before the poll.
  std::vector<std::pair<std::uint64_t, Message>> replies;

  void bump(std::uint64_t BrokerStats::* field, std::uint64_t by = 1) {
    std::scoped_lock lock(stats_mu);
    stats.*field += by;
  }

  void wake() {
    const char byte = 0;
    // Best-effort: a full pipe already guarantees a pending wakeup.
    while (::write(wake_w, &byte, 1) < 0 && errno == EINTR) {
    }
  }

  void send_to(std::uint64_t conn_id, const Message& m) {
    replies.emplace_back(conn_id, m);
  }

  // ---- event loop --------------------------------------------------------

  /// Closes a connection and lets the matcher release what it held.
  void disconnect(std::uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    ::close(it->second.fd);
    conns.erase(it);
    handle_disconnect(id);
  }

  void dispatch(std::uint64_t conn_id, const Message& msg) {
    switch (msg.type) {
      case MsgType::kHello:
        break;  // identity is informational (pid / engine tag)
      case MsgType::kArrive:
        handle_arrive(conn_id, msg);
        break;
      case MsgType::kCancel:
        handle_cancel(conn_id, msg);
        break;
      case MsgType::kDone:
        handle_done(conn_id, msg);
        break;
      default:
        bump(&BrokerStats::protocol_errors);  // server-only type
        break;
    }
  }

  /// Reads everything pending on a connection and dispatches its
  /// frames.  False on EOF, a hard error or a protocol error.
  bool read_conn(std::uint64_t id, Conn& conn) {
    bool eof = false;
    for (;;) {
      std::uint8_t buf[4096];
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        conn.inbuf.insert(conn.inbuf.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      eof = true;  // EOF or hard error
      break;
    }
    // Frames received *before* the EOF are handled even when both land
    // in one poll round: a client that sends its final DONE and closes
    // at once must complete cleanly, not count as a lost peer.
    const bool ok = drain_frames(
        conn.inbuf, [&](const Message& msg) { dispatch(id, msg); });
    if (!ok) bump(&BrokerStats::protocol_errors);
    return ok && !eof;
  }

  /// Writes as much of the output buffer as the socket takes.  False if
  /// the peer is gone.
  static bool flush_out(Conn& conn) {
    while (!conn.outbuf.empty()) {
      const ssize_t n =
          ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.outbuf.erase(conn.outbuf.begin(), conn.outbuf.begin() + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // peer gone mid-write
    }
    return true;
  }

  /// Moves the queued replies into the connection buffers and writes
  /// them out.  A connection found dead while writing is disconnected,
  /// which can queue more replies (GRANT(kPeerLost) to a survivor), so
  /// repeat until a round queues none.
  void flush_replies() {
    std::vector<std::pair<std::uint64_t, Message>> out;
    std::vector<std::uint64_t> dead;
    do {
      out.swap(replies);
      for (const auto& [id, msg] : out) {
        auto it = conns.find(id);
        if (it == conns.end()) continue;  // recipient already gone
        const std::vector<std::uint8_t> frame = encode(msg);
        it->second.outbuf.insert(it->second.outbuf.end(), frame.begin(),
                                 frame.end());
      }
      out.clear();
      for (auto& [id, conn] : conns) {
        if (!flush_out(conn)) dead.push_back(id);
      }
      for (std::uint64_t id : dead) disconnect(id);
      dead.clear();
    } while (!replies.empty());
  }

  void accept_all() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN: accepted everything pending
      }
      if (!set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      conns[next_conn_id++].fd = fd;
      bump(&BrokerStats::connections);
    }
  }

  /// The broker's one thread: each round reads and handles every
  /// readable connection's frames, fires due deadlines, flushes the
  /// replies all of that queued, then polls until the next deadline.
  void run() {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_ids;  // parallel to fds; 0 = not a conn
    std::vector<std::uint64_t> dead;

    while (!stopping.load(std::memory_order_acquire)) {
      fds.clear();
      fds.push_back({listen_fd, POLLIN, 0});
      fds.push_back({wake_r, POLLIN, 0});
      fd_ids.assign(2, 0);
      for (const auto& [id, conn] : conns) {
        short want = POLLIN;
        if (!conn.outbuf.empty()) want |= POLLOUT;
        fds.push_back({conn.fd, want, 0});
        fd_ids.push_back(id);
      }

      // Spin, then park (runtime/spin.h): a client's next frame usually
      // comes within microseconds of the replies just flushed, so poll
      // without blocking for up to kSpinBudget before sleeping.
      int ready = 0;
      if (next_wake_ms() != 0) {
        rt::spin_until(rt::spin_stop(rt::kSpinBudget), [&] {
          ready = ::poll(fds.data(), fds.size(), 0);
          return ready != 0;
        });
      }
      if (ready == 0) ready = ::poll(fds.data(), fds.size(), next_wake_ms());
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;  // unrecoverable poll failure
      }

      if (fds[1].revents & POLLIN) {
        char buf[64];
        while (::read(wake_r, buf, sizeof(buf)) > 0) {
        }
      }
      if (fds[0].revents & POLLIN) accept_all();

      for (std::size_t i = 2; i < fds.size(); ++i) {
        if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
        auto it = conns.find(fd_ids[i]);
        if (it != conns.end() && !read_conn(it->first, it->second)) {
          dead.push_back(it->first);
        }
      }
      for (std::uint64_t id : dead) disconnect(id);
      dead.clear();

      run_timers();
      flush_replies();
    }

    // Shutdown: every client sees EOF.
    for (auto& [id, conn] : conns) ::close(conn.fd);
    conns.clear();
  }

  // ---- matching state machine --------------------------------------------

  void erase_group(std::uint64_t gid) {
    auto it = groups.find(gid);
    if (it == groups.end()) return;
    for (const Member& m : it->second.members) {
      in_group.erase({m.conn_id, m.token});
    }
    groups.erase(it);
  }

  // Grants the next undone rank (skipping lost/forced members) or
  // retires the group.  `outcome` is what the grantee is told; a lost
  // member anywhere in the group upgrades it to kPeerLost.
  void grant_next(std::uint64_t gid, GrantOutcome outcome) {
    auto it = groups.find(gid);
    if (it == groups.end()) return;
    Group& g = it->second;
    const bool any_lost = std::any_of(
        g.members.begin(), g.members.end(),
        [](const Member& m) { return m.lost; });
    if (any_lost && outcome == GrantOutcome::kOk) {
      outcome = GrantOutcome::kPeerLost;
    }
    for (int r = g.granted + 1; r < static_cast<int>(g.members.size()); ++r) {
      Member& m = g.members[static_cast<std::size_t>(r)];
      if (m.done) continue;
      g.granted = r;
      g.grant_deadline = SteadyClock::now() + options.grant_cap;
      Message grant;
      grant.type = MsgType::kGrant;
      grant.token = m.token;
      grant.rank = r;
      grant.flags = static_cast<std::uint8_t>(outcome);
      send_to(m.conn_id, grant);
      return;
    }
    erase_group(gid);
  }

  void handle_arrive(std::uint64_t conn_id, const Message& msg) {
    if (msg.arity < 2 || msg.arity > kMaxArity || msg.rank < 0 ||
        msg.rank >= msg.arity || msg.name.empty()) {
      bump(&BrokerStats::protocol_errors);
      Message nak;
      nak.type = MsgType::kCancelled;
      nak.token = msg.token;
      send_to(conn_id, nak);  // never leave the caller parked
      return;
    }
    bump(&BrokerStats::arrivals);
    Arrival arriving;
    arriving.conn_id = conn_id;
    arriving.token = msg.token;
    arriving.rank = msg.rank;
    arriving.arity = msg.arity;
    arriving.deadline = SteadyClock::now() + std::chrono::milliseconds(msg.a);

    // §3's rank rule (core/pattern.h).  The global predicate cannot be
    // evaluated here, so any waiting arrival of the same arity may join;
    // one from a *different* process (the reason the breakpoint is
    // process-group scoped) is preferred, then the earliest postponed.
    std::vector<Arrival>& waiting = postponed[msg.name];
    std::vector<Arrival*> candidates;
    for (Arrival& w : waiting) {
      if (w.conn_id != conn_id) candidates.push_back(&w);
    }
    for (Arrival& w : waiting) {
      if (w.conn_id == conn_id) candidates.push_back(&w);
    }
    std::vector<Arrival*> by_rank;
    const int mine = pick_rendezvous(
        candidates, arriving.rank, arriving.arity,
        [&](const Arrival& w, const std::vector<Arrival*>&) {
          return w.arity == arriving.arity;
        },
        by_rank);
    if (mine < 0) {
      waiting.push_back(arriving);
      return;
    }
    by_rank[static_cast<std::size_t>(mine)] = &arriving;

    const std::uint64_t gid = next_group_id++;
    Group& g = groups[gid];
    for (const Arrival* a : by_rank) {
      g.members.push_back({a->conn_id, a->token});
      in_group[{a->conn_id, a->token}] = gid;
    }
    // Back to front, so the arrivals not yet checked keep their address.
    for (std::size_t i = waiting.size(); i-- > 0;) {
      if (std::find(by_rank.begin(), by_rank.end(), &waiting[i]) !=
          by_rank.end()) {
        waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    bump(&BrokerStats::matches);
    grant_next(gid, GrantOutcome::kOk);
  }

  void handle_cancel(std::uint64_t conn_id, const Message& msg) {
    for (auto& [name, waiting] : postponed) {
      auto it = std::find_if(waiting.begin(), waiting.end(),
                             [&](const Arrival& a) {
                               return a.conn_id == conn_id &&
                                      a.token == msg.token;
                             });
      if (it != waiting.end()) {
        waiting.erase(it);
        bump(&BrokerStats::cancellations);
        Message ack;
        ack.type = MsgType::kCancelled;
        ack.token = msg.token;
        send_to(conn_id, ack);
        return;
      }
    }
    // Already matched: the client's failsafe gave up on its grant, so
    // complete the token as DONE would and let the group advance.
    handle_done(conn_id, msg);
  }

  void handle_done(std::uint64_t conn_id, const Message& msg) {
    auto it = in_group.find({conn_id, msg.token});
    if (it == in_group.end()) return;  // duplicate / after force-advance
    const std::uint64_t gid = it->second;
    auto git = groups.find(gid);
    if (git == groups.end()) return;
    Group& g = git->second;
    for (int r = 0; r < static_cast<int>(g.members.size()); ++r) {
      Member& m = g.members[static_cast<std::size_t>(r)];
      if (m.conn_id != conn_id || m.token != msg.token) continue;
      if (m.done) return;
      m.done = true;
      if (r == g.granted) grant_next(gid, GrantOutcome::kOk);
      return;
    }
  }

  void handle_disconnect(std::uint64_t conn_id) {
    for (auto& [name, waiting] : postponed) {
      waiting.erase(std::remove_if(waiting.begin(), waiting.end(),
                                   [&](const Arrival& a) {
                                     return a.conn_id == conn_id;
                                   }),
                    waiting.end());
    }
    std::vector<std::uint64_t> to_advance;
    for (auto& [gid, g] : groups) {
      bool granted_lost = false;
      for (int r = 0; r < static_cast<int>(g.members.size()); ++r) {
        Member& m = g.members[static_cast<std::size_t>(r)];
        if (m.conn_id != conn_id || m.done) continue;
        m.done = true;
        m.lost = true;
        bump(&BrokerStats::peer_lost);
        if (r == g.granted) granted_lost = true;
      }
      if (granted_lost) to_advance.push_back(gid);
    }
    for (std::uint64_t gid : to_advance) {
      grant_next(gid, GrantOutcome::kPeerLost);
    }
  }

  void run_timers() {
    const auto now = SteadyClock::now();
    for (auto& [name, waiting] : postponed) {
      for (std::size_t i = 0; i < waiting.size();) {
        if (waiting[i].deadline > now) {
          ++i;
          continue;
        }
        bump(&BrokerStats::timeouts);
        Message out;
        out.type = MsgType::kTimeout;
        out.token = waiting[i].token;
        send_to(waiting[i].conn_id, out);
        waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    std::vector<std::uint64_t> capped;
    for (auto& [gid, g] : groups) {
      if (g.granted >= 0 && g.grant_deadline <= now &&
          !g.members[static_cast<std::size_t>(g.granted)].done) {
        capped.push_back(gid);
      }
    }
    for (std::uint64_t gid : capped) {
      // The granted rank overran the cap (leaked guard / stalled
      // process): advance past it so the group degrades to a delay.
      Group& g = groups[gid];
      g.members[static_cast<std::size_t>(g.granted)].done = true;
      bump(&BrokerStats::forced_advances);
      grant_next(gid, GrantOutcome::kCap);
    }
  }

  /// poll() timeout: until the earliest arrival or grant deadline
  /// (rounded up, so the timer sweep finds it due), or -1 when none is
  /// pending.
  int next_wake_ms() const {
    auto earliest = SteadyClock::time_point::max();
    for (const auto& [name, waiting] : postponed) {
      for (const Arrival& a : waiting) {
        earliest = std::min(earliest, a.deadline);
      }
    }
    for (const auto& [gid, g] : groups) {
      if (g.granted >= 0) earliest = std::min(earliest, g.grant_deadline);
    }
    if (earliest == SteadyClock::time_point::max()) return -1;
    const auto delta = std::chrono::ceil<std::chrono::milliseconds>(
        earliest - SteadyClock::now());
    return static_cast<int>(std::clamp<std::int64_t>(
        delta.count(), 0, std::numeric_limits<int>::max()));
  }
};

Broker::Broker(BrokerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Broker::~Broker() { stop(); }

bool Broker::start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (impl_->options.socket_path.size() >= sizeof(addr.sun_path)) {
    return false;
  }
  std::memcpy(addr.sun_path, impl_->options.socket_path.c_str(),
              impl_->options.socket_path.size() + 1);
  ::unlink(impl_->options.socket_path.c_str());

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) return false;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    ::close(fd);
    return false;
  }

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) {
    ::close(fd);
    ::unlink(impl_->options.socket_path.c_str());
    return false;
  }

  impl_->listen_fd = fd;
  impl_->wake_r = pipe_fds[0];
  impl_->wake_w = pipe_fds[1];
  impl_->loop_thread = std::thread([this] { impl_->run(); });
  impl_->started = true;
  return true;
}

void Broker::stop() {
  if (!impl_->started) return;
  impl_->started = false;
  impl_->stopping.store(true, std::memory_order_release);
  impl_->wake();
  impl_->loop_thread.join();  // closes every connection on its way out
  ::close(impl_->listen_fd);
  ::close(impl_->wake_r);
  ::close(impl_->wake_w);
  impl_->listen_fd = impl_->wake_r = impl_->wake_w = -1;
  ::unlink(impl_->options.socket_path.c_str());
}

BrokerStats Broker::stats() const {
  std::scoped_lock lock(impl_->stats_mu);
  return impl_->stats;
}

const std::string& Broker::socket_path() const {
  return impl_->options.socket_path;
}

}  // namespace cbp::broker
