// The per-machine trigger broker: §3's matching state machine lifted out
// of the process.
//
// A concurrent breakpoint whose spec entry says `scope=process-group`
// forwards its arrival/postpone/match/release protocol here instead of
// the in-process slot (core/transport.h describes the seam and its
// semantics).  The broker listens on a unix-domain socket; each child
// engine connects at startup (broker::BrokerClient), identifies itself
// with its pid and engine tag, and then each remote postponement is one
// ARRIVE -> {GRANT | TIMEOUT | CANCELLED} exchange (src/broker/wire.h;
// kMatched is reserved and never sent — the GRANT carries the assigned
// rank).  Matching is by (name, rank, arity) identity — the broker
// plays exactly the role the slot mutex plays in-process: it serializes
// arrivals per name, picks complementary ones by the in-process rank
// rule (`pick_rendezvous`, core/pattern.h; the global predicate cannot
// cross processes, so any waiting arrival of the same arity may join,
// one from another connection first), and releases the matched group in
// rank order (GRANT r+1 follows DONE r, or a CANCEL from a rank whose
// client gave up on its grant).
//
// One thread runs one event loop that owns every fd and the protocol
// state (postponed arrivals, matched groups, deadlines).  Each round:
//
//   1. read every readable connection and handle its complete frames
//      in order; a connection's EOF is handled after the frames that
//      preceded it, dropping what it held;
//   2. fire due deadlines (arrival timeouts, grant caps);
//   3. flush the replies queued by 1 and 2 into the per-connection
//      buffers and write them, again while a connection found dead
//      in the write queues more (GRANT(kPeerLost) to a survivor);
//   4. poll() the listen socket, the self-pipe (written only by stop())
//      and every connection until the next deadline.
//
// A reply therefore leaves in the round that caused it, with no hop
// between broker threads, and the waiting caller reads it off its own
// socket (broker/client.h): a scoped 2-ary hit wakes four threads — two
// broker rounds and the two callers.
//
// Distributed failure modes handled here, not by callers:
//
//   * arrival timeout: the postponement bound T is enforced broker-side,
//     so a pause ends on time even if the arriving process stalls;
//   * peer death: EOF on a connection drops its postponed arrivals and
//     marks its group memberships lost; survivors parked for a grant
//     get GRANT(kPeerLost) instead of a hang, and the broker counts
//     `peer_lost`;
//   * leaked guard: a granted rank that never sends DONE is force-
//     advanced past after `grant_cap` (GRANT(kCap) to the next rank) —
//     the cross-process analogue of the engine's guard_wait_cap.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

namespace cbp::broker {

struct BrokerOptions {
  /// Filesystem path of the listening unix-domain socket.  An existing
  /// socket file at this path is unlinked on start (stale from a
  /// previous run); the file is unlinked again on stop.
  std::string socket_path;

  /// Cap on how long one granted rank may sit on its turn before the
  /// broker force-advances to the next rank (leaked-guard degradation).
  std::chrono::milliseconds grant_cap{2000};
};

/// Monotonic counters, readable while the broker runs.
struct BrokerStats {
  std::uint64_t connections = 0;      ///< accepted connections, lifetime
  std::uint64_t arrivals = 0;         ///< ARRIVE frames admitted
  std::uint64_t matches = 0;          ///< groups formed
  std::uint64_t timeouts = 0;         ///< arrivals expired unmatched
  std::uint64_t cancellations = 0;    ///< CANCELs honoured
  std::uint64_t peer_lost = 0;        ///< group members lost to peer death
  std::uint64_t forced_advances = 0;  ///< grant-cap expiries
  std::uint64_t protocol_errors = 0;  ///< malformed frames / oversized
};

class Broker {
 public:
  explicit Broker(BrokerOptions options);
  ~Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Binds, listens and starts the event-loop thread.  False if the
  /// socket could not be created (path too long, bind failure).
  bool start();

  /// Stops the event loop, closes every connection (clients see EOF) and
  /// unlinks the socket.  Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] BrokerStats stats() const;
  [[nodiscard]] const std::string& socket_path() const;

 private:
  struct Impl;  // fd bookkeeping + protocol state live in broker.cc
  std::unique_ptr<Impl> impl_;
};

}  // namespace cbp::broker
