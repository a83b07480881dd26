// BrokerClient: the TransportPolicy a child engine attaches to route
// `scope=process-group` breakpoints through the machine's trigger
// broker (src/broker/broker.h).
//
// One connection per client, one client per process (typically created
// right after fork and handed to Engine::set_transport).  Creating a
// client starts no thread: a caller waiting in trigger_remote reads the
// broker's replies itself.  One caller at a time holds the read role;
// it polls the socket until its own deadline, records every whole frame
// against its token, wakes the callers whose tokens settled, and hands
// the role on once its own token is terminal.  With one call in flight
// the caller reads its own GRANT, so no thread sits between the socket
// and the caller.  Replies are GRANT (carrying the assigned rank),
// TIMEOUT and CANCELLED; kMatched is reserved and never sent.
// trigger_remote is fully synchronous from the engine's point of view:
// arrive, park, and come back with a terminal outcome.
//
// Liveness guarantees (core/transport.h's contract):
//   * the postponement bound is enforced broker-side, but a client-side
//     failsafe (timeout + kGrantSlack) also runs, so a dead or wedged
//     broker turns into kError, never a hang — the read role polls
//     against the deadline and never blocks in a read;
//   * broker EOF, seen by whichever caller holds the read role, fails
//     every in-flight postponement with kError at once (the engine then
//     counts them cancelled); a failed write (the broker has gone while
//     no call was reading) does the same, and never raises SIGPIPE;
//   * a caller whose failsafe gives up sends CANCEL, and the broker
//     completes a matched token as if DONE had come, so the rest of the
//     group advances; a GRANT arriving after that is dropped.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/transport.h"

namespace cbp::broker {

class BrokerClient : public TransportPolicy,
                     public std::enable_shared_from_this<BrokerClient> {
 public:
  /// Extra real time past the request timeout before the client-side
  /// failsafe gives up on the broker (covers match + grant latency and
  /// the broker's own grant cap).
  static constexpr std::chrono::milliseconds kGrantSlack{10000};

  /// Connects to the broker socket, retrying for up to `retry_for`
  /// (workers typically start concurrently with the broker) and sends
  /// the HELLO identity frame.  Starts no thread.  Null on failure.
  static std::shared_ptr<BrokerClient> connect(
      const std::string& socket_path,
      std::chrono::milliseconds retry_for = std::chrono::milliseconds(5000),
      std::uint64_t engine_tag = 0);

  ~BrokerClient() override;
  BrokerClient(const BrokerClient&) = delete;
  BrokerClient& operator=(const BrokerClient&) = delete;

  /// TransportPolicy: one full remote postponement.  Thread-safe.
  RemoteTriggerResult trigger_remote(
      const RemoteTriggerRequest& request) override;

  /// Closes the connection; all in-flight postponements fail with
  /// kError.  Wakes a caller polling in the read role and closes the fd
  /// once the role is free.  Idempotent; also run by the destructor.
  void shutdown();

  /// False once a call has seen the broker's EOF or a failed write, or
  /// after shutdown().  An idle client learns of a dead broker only on
  /// its next call, which then fails at once.
  [[nodiscard]] bool connected() const;

 private:
  BrokerClient() = default;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cbp::broker
