// Trigger broker tests (src/broker): wire-protocol encode/decode, the
// in-process broker/client protocol (match, rank order, timeout,
// cancel, peer loss and its release latency, many connections at once,
// callers sharing a client's read role, a 3-ary group, grant cap,
// broker death and writes after it, a caller ended while it spins before
// its poll), raw-socket protocol errors, CANCEL
// of a granted token and a k-ary pick's preference for other
// connections, and fork-based
// cross-process smoke at the engine level — two worker processes
// matching a scope=process-group breakpoint through a real unix-domain
// socket, including the peer-death release path.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/client.h"
#include "broker/wire.h"
#include "core/cbp.h"
#include "core/spec.h"
#include "core/triggers.h"
#include "runtime/clock.h"

namespace cbp {
namespace {

using namespace std::chrono_literals;
using SteadyClock = std::chrono::steady_clock;

std::string test_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/cbp-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(WireTest, EncodeDecodeRoundTrip) {
  broker::Message m;
  m.type = broker::MsgType::kArrive;
  m.token = 0x0123456789abcdefULL;
  m.a = 5000;
  m.b = 42;
  m.rank = 1;
  m.arity = 3;
  m.flags = broker::kFlagScoped;
  m.name = "prefork-scoreboard";

  const std::vector<std::uint8_t> frame = broker::encode(m);
  ASSERT_GE(frame.size(), 4u + broker::kHeaderSize);
  // The 4-byte LE prefix states the payload length exactly.
  const std::uint32_t payload =
      frame[0] | (frame[1] << 8) | (frame[2] << 16) |
      (static_cast<std::uint32_t>(frame[3]) << 24);
  ASSERT_EQ(payload, frame.size() - 4);

  const auto out = broker::decode(frame.data() + 4, payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, m.type);
  EXPECT_EQ(out->token, m.token);
  EXPECT_EQ(out->a, m.a);
  EXPECT_EQ(out->b, m.b);
  EXPECT_EQ(out->rank, m.rank);
  EXPECT_EQ(out->arity, m.arity);
  EXPECT_EQ(out->flags, m.flags);
  EXPECT_EQ(out->name, m.name);
}

TEST(WireTest, EncodeDecodeEmptyNameAndNegativeRank) {
  broker::Message m;
  m.type = broker::MsgType::kGrant;
  m.rank = -1;
  m.name.clear();
  const std::vector<std::uint8_t> frame = broker::encode(m);
  const auto out = broker::decode(frame.data() + 4, frame.size() - 4);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->rank, -1);
  EXPECT_TRUE(out->name.empty());
}

TEST(WireTest, DecodeRejectsMalformedPayloads) {
  broker::Message m;
  m.type = broker::MsgType::kArrive;
  m.name = "bp";
  std::vector<std::uint8_t> frame = broker::encode(m);
  const std::uint8_t* payload = frame.data() + 4;
  const std::size_t size = frame.size() - 4;

  // Truncated: shorter than the fixed header, or name bytes cut off.
  EXPECT_FALSE(broker::decode(payload, broker::kHeaderSize - 1).has_value());
  EXPECT_FALSE(broker::decode(payload, size - 1).has_value());
  // Oversized: trailing bytes past the declared name are an error too
  // (the length prefix and name_len must agree exactly).
  std::vector<std::uint8_t> padded(payload, payload + size);
  padded.push_back(0);
  EXPECT_FALSE(broker::decode(padded.data(), padded.size()).has_value());
  // Unknown message type.
  std::vector<std::uint8_t> bad_type(payload, payload + size);
  bad_type[0] = 99;
  EXPECT_FALSE(broker::decode(bad_type.data(), bad_type.size()).has_value());
}

// ---------------------------------------------------------------------------
// In-process broker + client protocol
// ---------------------------------------------------------------------------

RemoteTriggerRequest make_request(const std::string& name, int rank,
                                  std::chrono::milliseconds timeout,
                                  bool scoped = false, int arity = 2) {
  RemoteTriggerRequest request;
  request.name = name;
  request.rank = rank;
  request.arity = arity;
  request.timeout = timeout;
  request.scoped = scoped;
  return request;
}

TEST(BrokerClientProtocolTest, TwoClientsMatchInDeclaredRankOrder) {
  const std::string path = test_socket_path("match");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  auto a = broker::BrokerClient::connect(path);
  auto b = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  RemoteTriggerResult ra, rb;
  std::thread ta([&] { ra = a->trigger_remote(make_request("bp", 0, 5000ms)); });
  std::thread tb([&] { rb = b->trigger_remote(make_request("bp", 1, 5000ms)); });
  ta.join();
  tb.join();

  EXPECT_EQ(ra.outcome, RemoteOutcome::kHit);
  EXPECT_EQ(rb.outcome, RemoteOutcome::kHit);
  EXPECT_EQ(ra.rank, 0);
  EXPECT_EQ(rb.rank, 1);
  EXPECT_TRUE(ra.hit());
  EXPECT_TRUE(rb.hit());

  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.connections, 2u);
  EXPECT_EQ(stats.arrivals, 2u);
  EXPECT_EQ(stats.matches, 1u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.peer_lost, 0u);

  a->shutdown();
  b->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, EqualDeclaredRanksOrderByArrival) {
  const std::string path = test_socket_path("rank-tie");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  auto a = broker::BrokerClient::connect(path);
  auto b = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  RemoteTriggerResult ra, rb;
  std::thread ta([&] { ra = a->trigger_remote(make_request("tie", 0, 5000ms)); });
  // Make A's arrival strictly earlier: the broker breaks the declared-
  // rank tie the way the in-process engine does — earlier-postponed
  // goes first.
  std::this_thread::sleep_for(150ms);
  std::thread tb([&] { rb = b->trigger_remote(make_request("tie", 0, 5000ms)); });
  ta.join();
  tb.join();

  EXPECT_EQ(ra.outcome, RemoteOutcome::kHit);
  EXPECT_EQ(rb.outcome, RemoteOutcome::kHit);
  EXPECT_EQ(ra.rank, 0);
  EXPECT_EQ(rb.rank, 1);

  a->shutdown();
  b->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, UnmatchedArrivalTimesOutBrokerSide) {
  const std::string path = test_socket_path("timeout");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  auto a = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);

  const auto start = SteadyClock::now();
  const RemoteTriggerResult result =
      a->trigger_remote(make_request("lonely", 0, 100ms));
  const auto elapsed = SteadyClock::now() - start;

  EXPECT_EQ(result.outcome, RemoteOutcome::kTimeout);
  EXPECT_FALSE(result.hit());
  EXPECT_GE(elapsed, 90ms);   // parked (about) the full bound
  EXPECT_LT(elapsed, 5s);     // ...but nowhere near the client failsafe
  EXPECT_EQ(server.stats().timeouts, 1u);

  a->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, ScopedPeerDeathReleasesSurvivorAsPeerLost) {
  const std::string path = test_socket_path("peer-lost");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  auto doomed = broker::BrokerClient::connect(path);
  auto survivor = broker::BrokerClient::connect(path);
  ASSERT_NE(doomed, nullptr);
  ASSERT_NE(survivor, nullptr);

  RemoteTriggerResult rd, rs;
  std::thread td([&] {
    rd = doomed->trigger_remote(make_request("crash", 0, 5000ms,
                                             /*scoped=*/true));
  });
  std::thread ts([&] {
    rs = survivor->trigger_remote(make_request("crash", 1, 5000ms));
  });

  // Rank 0 is granted first and holds the group (scoped: DONE deferred
  // to `complete`, which we never call — a crashed process).
  td.join();
  ASSERT_EQ(rd.outcome, RemoteOutcome::kHit);
  ASSERT_TRUE(rd.complete != nullptr);
  doomed->shutdown();  // EOF mid-protocol: the broker must free rank 1

  ts.join();
  EXPECT_EQ(rs.outcome, RemoteOutcome::kPeerLost);
  EXPECT_TRUE(rs.hit());  // a peer-lost release still counts as a hit
  EXPECT_GE(server.stats().peer_lost, 1u);

  survivor->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, PeerLostGrantIsFlushedAtOnce) {
  const std::string path = test_socket_path("peer-lost-latency");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  auto doomed = broker::BrokerClient::connect(path);
  auto survivor = broker::BrokerClient::connect(path);
  ASSERT_NE(doomed, nullptr);
  ASSERT_NE(survivor, nullptr);

  RemoteTriggerResult rd, rs;
  SteadyClock::time_point released;
  std::thread td([&] {
    rd = doomed->trigger_remote(make_request("crash-fast", 0, 5000ms,
                                             /*scoped=*/true));
  });
  std::thread ts([&] {
    rs = survivor->trigger_remote(make_request("crash-fast", 1, 5000ms));
    released = SteadyClock::now();
  });

  td.join();
  ASSERT_EQ(rd.outcome, RemoteOutcome::kHit);
  const auto shutdown_at = SteadyClock::now();
  doomed->shutdown();
  ts.join();

  // The GRANT(kPeerLost) that the disconnect queues goes out in the
  // same loop round, not after the next poll timeout (the grant cap is
  // 2 s; nothing else is pending to wake the broker sooner).
  EXPECT_EQ(rs.outcome, RemoteOutcome::kPeerLost);
  EXPECT_LT(released - shutdown_at, 100ms);

  survivor->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, ManyConnectionsMatchPerNameInRankOrder) {
  const std::string path = test_socket_path("many");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  constexpr int kPairs = 3;
  constexpr int kHits = 200;
  struct Pair {
    std::shared_ptr<broker::BrokerClient> client[2];
    std::mutex mu;
    std::vector<int> released;  // ranks in release order, guarded by mu
  };
  Pair pairs[kPairs];
  for (Pair& p : pairs) {
    for (auto& c : p.client) {
      c = broker::BrokerClient::connect(path);
      ASSERT_NE(c, nullptr);
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kPairs; ++i) {
    for (int rank = 0; rank < 2; ++rank) {
      threads.emplace_back([&, i, rank] {
        Pair& p = pairs[i];
        const std::string name = "many-" + std::to_string(i);
        for (int n = 0; n < kHits; ++n) {
          // Scoped, so rank 1 is granted only once rank 0 has recorded
          // its release and completed.
          RemoteTriggerResult r = p.client[rank]->trigger_remote(
              make_request(name, rank, 5000ms, /*scoped=*/true));
          if (r.outcome != RemoteOutcome::kHit || r.rank != rank ||
              r.complete == nullptr) {
            failures.fetch_add(1);
            return;
          }
          {
            std::scoped_lock lock(p.mu);
            p.released.push_back(rank);
          }
          r.complete();
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  for (Pair& p : pairs) {
    ASSERT_EQ(p.released.size(), 2u * kHits);
    for (std::size_t k = 0; k < p.released.size(); ++k) {
      ASSERT_EQ(p.released[k], static_cast<int>(k % 2)) << "release " << k;
    }
  }
  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.matches, static_cast<std::uint64_t>(kPairs * kHits));
  EXPECT_EQ(stats.arrivals, static_cast<std::uint64_t>(2 * kPairs * kHits));
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.peer_lost, 0u);

  for (Pair& p : pairs) {
    for (auto& c : p.client) c->shutdown();
  }
  server.stop();
}

TEST(BrokerClientProtocolTest, LeakedGuardForceAdvancesAfterGrantCap) {
  const std::string path = test_socket_path("grant-cap");
  broker::BrokerOptions options;
  options.socket_path = path;
  options.grant_cap = 100ms;  // fast cap for the test
  broker::Broker server(options);
  ASSERT_TRUE(server.start());

  auto leaker = broker::BrokerClient::connect(path);
  auto waiter = broker::BrokerClient::connect(path);
  ASSERT_NE(leaker, nullptr);
  ASSERT_NE(waiter, nullptr);

  RemoteTriggerResult rl, rw;
  std::thread tl([&] {
    rl = leaker->trigger_remote(make_request("leak", 0, 5000ms,
                                             /*scoped=*/true));
  });
  std::thread tw([&] {
    rw = waiter->trigger_remote(make_request("leak", 1, 5000ms));
  });

  tl.join();  // rank 0 granted; its `complete` is never invoked but the
  tw.join();  // process stays alive — only the grant cap can free rank 1

  ASSERT_EQ(rl.outcome, RemoteOutcome::kHit);
  EXPECT_EQ(rw.outcome, RemoteOutcome::kHit);  // forced advance, peer alive
  EXPECT_EQ(rw.rank, 1);
  EXPECT_GE(server.stats().forced_advances, 1u);
  EXPECT_EQ(server.stats().peer_lost, 0u);

  leaker->shutdown();
  waiter->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, BrokerDeathFailsInFlightPostponement) {
  const std::string path = test_socket_path("broker-death");
  auto server = std::make_unique<broker::Broker>(
      broker::BrokerOptions{path, 2000ms});
  ASSERT_TRUE(server->start());

  auto a = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);

  RemoteTriggerResult result;
  std::thread t([&] {
    result = a->trigger_remote(make_request("orphan", 0, 30000ms));
  });
  std::this_thread::sleep_for(100ms);  // let the arrival park
  const auto stop_start = SteadyClock::now();
  server->stop();  // clients see EOF
  t.join();
  const auto elapsed = SteadyClock::now() - stop_start;

  EXPECT_EQ(result.outcome, RemoteOutcome::kError);
  EXPECT_LT(elapsed, 10s);  // failed fast, not after timeout + slack
  EXPECT_FALSE(a->connected());
  // Future postponements fail immediately too.
  EXPECT_EQ(a->trigger_remote(make_request("orphan", 0, 100ms)).outcome,
            RemoteOutcome::kError);
  a->shutdown();
}

TEST(BrokerClientProtocolTest, CompleteAfterBrokerStopFailsWithoutSigpipe) {
  const std::string path = test_socket_path("complete-after-stop");
  auto server = std::make_unique<broker::Broker>(
      broker::BrokerOptions{path, 2000ms});
  ASSERT_TRUE(server->start());

  auto a = broker::BrokerClient::connect(path);
  auto b = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  RemoteTriggerResult rb;
  std::thread tb([&] {
    rb = b->trigger_remote(make_request("gone", 1, 5000ms, /*scoped=*/true));
  });
  RemoteTriggerResult ra =
      a->trigger_remote(make_request("gone", 0, 5000ms, /*scoped=*/true));
  ASSERT_EQ(ra.outcome, RemoteOutcome::kHit);
  ASSERT_TRUE(ra.complete != nullptr);

  server->stop();  // rank 1 is still parked for its grant: it sees EOF
  tb.join();
  EXPECT_EQ(rb.outcome, RemoteOutcome::kError);

  // Rank 0's DONE now goes to a socket whose peer has closed: the write
  // fails and the client is marked dead, instead of SIGPIPE killing the
  // process.
  ra.complete();
  EXPECT_FALSE(a->connected());
  EXPECT_EQ(a->trigger_remote(make_request("gone", 0, 100ms)).outcome,
            RemoteOutcome::kError);
  a->shutdown();
  b->shutdown();
}

TEST(BrokerClientProtocolTest, IdleClientFailsFastAfterBrokerStops) {
  const std::string path = test_socket_path("idle-after-stop");
  auto server = std::make_unique<broker::Broker>(
      broker::BrokerOptions{path, 2000ms});
  ASSERT_TRUE(server->start());

  auto a = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);
  // One full exchange, so the connection is known to work.
  EXPECT_EQ(a->trigger_remote(make_request("idle", 0, 20ms)).outcome,
            RemoteOutcome::kTimeout);

  server->stop();  // no call in flight: nobody is reading the socket
  const auto start = SteadyClock::now();
  const RemoteTriggerResult r =
      a->trigger_remote(make_request("idle", 0, 5000ms));
  const auto elapsed = SteadyClock::now() - start;

  EXPECT_EQ(r.outcome, RemoteOutcome::kError);
  EXPECT_LT(elapsed, 100ms);
  EXPECT_FALSE(a->connected());
  a->shutdown();
}

/// Ends a partnerless remote postponement with `end` (a client
/// shutdown or a broker stop) at a spread of delays after its caller
/// starts: 0 to 115 us in 5 us steps, so some land before the ARRIVE is
/// sent, some while the caller retries recv through its spin budget
/// (runtime/spin.h) and some once it sleeps in poll().  Every time the
/// caller must get kError within 100 ms, and `end` must return as fast
/// (a client shutdown returns only once the read role is handed back).
template <class Connect, class End>
void expect_spinning_caller_fails_fast(Connect connect, End end) {
  constexpr int kRounds = 24;
  for (int round = 0; round < kRounds; ++round) {
    std::shared_ptr<broker::BrokerClient> client = connect();
    ASSERT_NE(client, nullptr);
    std::atomic<bool> calling{false};
    RemoteTriggerResult r;
    SteadyClock::time_point returned;
    // A name per round: the broker may not yet have dropped the last
    // round's arrival, which would be this one's partner.
    const std::string name = "spin-alone-" + std::to_string(round);
    std::thread caller([&] {
      calling.store(true);
      r = client->trigger_remote(make_request(name, 0, 5000ms));
      returned = SteadyClock::now();
    });
    // Yielding waits: the caller may share this thread's CPU.
    while (!calling.load()) std::this_thread::yield();
    const auto end_at = SteadyClock::now() + round * 5us;
    while (SteadyClock::now() < end_at) std::this_thread::yield();
    const auto end_start = SteadyClock::now();
    end(*client);
    const auto end_took = SteadyClock::now() - end_start;
    caller.join();

    EXPECT_EQ(r.outcome, RemoteOutcome::kError) << "round " << round;
    EXPECT_LT(returned - end_start, 100ms) << "round " << round;
    EXPECT_LT(end_took, 100ms) << "round " << round;
    EXPECT_FALSE(client->connected()) << "round " << round;
    client->shutdown();
  }
}

TEST(BrokerClientProtocolTest, SpinningCallerFailsFastOnClientShutdown) {
  const std::string path = test_socket_path("spin-shutdown");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());
  expect_spinning_caller_fails_fast(
      [&] { return broker::BrokerClient::connect(path); },
      [](broker::BrokerClient& client) { client.shutdown(); });
  server.stop();
}

TEST(BrokerClientProtocolTest, SpinningCallerFailsFastOnBrokerStop) {
  std::unique_ptr<broker::Broker> server;
  expect_spinning_caller_fails_fast(
      [&] {
        const std::string path = test_socket_path("spin-stop");
        server = std::make_unique<broker::Broker>(broker::BrokerOptions{path});
        EXPECT_TRUE(server->start());
        return broker::BrokerClient::connect(path);
      },
      [&](broker::BrokerClient&) { server->stop(); });
}

TEST(BrokerClientProtocolTest, SharedClientsPassTheReadRoleInRankOrder) {
  const std::string path = test_socket_path("shared");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  // Four callers per client, two per name on each: one caller at a time
  // reads a client's socket, so grants meant for its waiting neighbours
  // are read by whoever holds the read role.
  constexpr int kClients = 2;
  constexpr int kThreadsPerClient = 4;
  constexpr int kNames = 2;
  constexpr int kPerName = 400;  // arrivals per name; even, so all pair
  std::shared_ptr<broker::BrokerClient> clients[kClients];
  for (auto& c : clients) {
    c = broker::BrokerClient::connect(path);
    ASSERT_NE(c, nullptr);
  }
  struct Log {
    std::atomic<int> tickets{0};
    std::mutex mu;
    std::vector<int> released;  // assigned ranks in release order
  };
  Log logs[kNames];

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    for (int t = 0; t < kThreadsPerClient; ++t) {
      threads.emplace_back([&, c, t] {
        Log& log = logs[t % kNames];
        const std::string bp = "shared-" + std::to_string(t % kNames);
        // Any two arrivals of a name pair up, so the name's budget of
        // arrivals is shared: a per-thread count could leave one thread
        // with arrivals nobody else is left to match.
        while (log.tickets.fetch_add(1) < kPerName) {
          // Equal declared ranks: the broker ranks each pair by arrival.
          // Scoped, so rank 1 is granted only once rank 0 has recorded
          // its release and completed.
          RemoteTriggerResult r = clients[c]->trigger_remote(
              make_request(bp, 0, 5000ms, /*scoped=*/true));
          if (r.outcome != RemoteOutcome::kHit || r.rank < 0 || r.rank > 1 ||
              r.complete == nullptr) {
            failures.fetch_add(1);
            return;
          }
          {
            std::scoped_lock lock(log.mu);
            log.released.push_back(r.rank);
          }
          r.complete();
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  for (Log& log : logs) {
    ASSERT_EQ(log.released.size(), static_cast<std::size_t>(kPerName));
    // Several pairs of one name can be in flight at once, so check the
    // order as a prefix property: no rank 1 is released before a rank 0
    // of its own.
    int zeros = 0;
    int ones = 0;
    for (std::size_t k = 0; k < log.released.size(); ++k) {
      (log.released[k] == 0 ? zeros : ones) += 1;
      ASSERT_LE(ones, zeros) << "release " << k;
    }
    EXPECT_EQ(zeros, ones);
  }
  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.peer_lost, 0u);
  EXPECT_EQ(stats.forced_advances, 0u);
  EXPECT_EQ(stats.matches, static_cast<std::uint64_t>(kNames * kPerName / 2));

  for (auto& c : clients) c->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, ThreeClientsMatchAKaryGroupInRankOrder) {
  const std::string path = test_socket_path("kary");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  constexpr int kArity = 3;
  std::shared_ptr<broker::BrokerClient> clients[kArity];
  for (auto& c : clients) {
    c = broker::BrokerClient::connect(path);
    ASSERT_NE(c, nullptr);
  }
  std::mutex mu;
  std::vector<int> released;  // assigned ranks in release order
  RemoteTriggerResult results[kArity];
  std::vector<std::thread> threads;
  // Highest rank first, so the group completes on rank 0's arrival.
  for (int rank = kArity - 1; rank >= 0; --rank) {
    threads.emplace_back([&, rank] {
      RemoteTriggerResult r = clients[rank]->trigger_remote(
          make_request("kary-bp", rank, 5000ms, /*scoped=*/true, kArity));
      if (r.hit()) {
        std::scoped_lock lock(mu);
        released.push_back(r.rank);
      }
      // Scoped: the next rank is granted only after this DONE.
      if (r.complete) r.complete();
      results[rank] = std::move(r);
    });
    std::this_thread::sleep_for(20ms);
  }
  for (std::thread& t : threads) t.join();

  for (int rank = 0; rank < kArity; ++rank) {
    EXPECT_EQ(results[rank].outcome, RemoteOutcome::kHit) << "rank " << rank;
    EXPECT_EQ(results[rank].rank, rank);
  }
  EXPECT_EQ(released, (std::vector<int>{0, 1, 2}));
  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.arrivals, 3u);
  EXPECT_EQ(stats.matches, 1u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.forced_advances, 0u);

  for (auto& c : clients) c->shutdown();
  server.stop();
}

// ---------------------------------------------------------------------------
// Raw-socket protocol behaviour (no BrokerClient in the way)
// ---------------------------------------------------------------------------

int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(BrokerRawWireTest, CancelIsAcknowledgedAndBadArityIsNaked) {
  const std::string path = test_socket_path("raw");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());
  const int fd = raw_connect(path);
  ASSERT_GE(fd, 0);

  broker::Message hello;
  hello.type = broker::MsgType::kHello;
  hello.a = static_cast<std::uint64_t>(::getpid());
  ASSERT_TRUE(broker::write_frame(fd, hello));

  broker::Message arrive;
  arrive.type = broker::MsgType::kArrive;
  arrive.token = 7;
  arrive.a = 30000;  // long bound: only CANCEL can end it
  arrive.rank = 0;
  arrive.arity = 2;
  arrive.name = "raw-bp";
  ASSERT_TRUE(broker::write_frame(fd, arrive));

  broker::Message cancel;
  cancel.type = broker::MsgType::kCancel;
  cancel.token = 7;
  ASSERT_TRUE(broker::write_frame(fd, cancel));

  auto ack = broker::read_frame(fd);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, broker::MsgType::kCancelled);
  EXPECT_EQ(ack->token, 7u);
  EXPECT_EQ(server.stats().cancellations, 1u);

  // An arrival with nonsense arity is nak'ed (kCancelled) rather than
  // parked forever or crashing the broker.
  broker::Message bad = arrive;
  bad.token = 8;
  bad.arity = 0;
  ASSERT_TRUE(broker::write_frame(fd, bad));
  auto nak = broker::read_frame(fd);
  ASSERT_TRUE(nak.has_value());
  EXPECT_EQ(nak->type, broker::MsgType::kCancelled);
  EXPECT_EQ(nak->token, 8u);
  EXPECT_GE(server.stats().protocol_errors, 1u);

  ::close(fd);
  server.stop();
}

TEST(BrokerRawWireTest, OversizedFrameDropsTheConnection) {
  const std::string path = test_socket_path("oversized");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());
  const int fd = raw_connect(path);
  ASSERT_GE(fd, 0);

  // A length prefix past kMaxFrame: protocol error, connection dropped.
  const std::uint32_t huge = broker::kMaxFrame + 1;
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(huge & 0xff),
      static_cast<std::uint8_t>((huge >> 8) & 0xff),
      static_cast<std::uint8_t>((huge >> 16) & 0xff),
      static_cast<std::uint8_t>((huge >> 24) & 0xff)};
  ASSERT_TRUE(broker::write_exact(fd, prefix, sizeof(prefix)));

  EXPECT_FALSE(broker::read_frame(fd).has_value());  // EOF: we were dropped
  EXPECT_GE(server.stats().protocol_errors, 1u);

  ::close(fd);
  server.stop();
}

TEST(BrokerRawWireTest, CancelAfterGrantAdvancesTheGroup) {
  const std::string path = test_socket_path("cancel-granted");
  broker::BrokerOptions options;
  options.socket_path = path;
  options.grant_cap = 3000ms;
  broker::Broker server(options);
  ASSERT_TRUE(server.start());
  const int fd0 = raw_connect(path);
  const int fd1 = raw_connect(path);
  ASSERT_GE(fd0, 0);
  ASSERT_GE(fd1, 0);

  broker::Message arrive;
  arrive.type = broker::MsgType::kArrive;
  arrive.a = 30000;
  arrive.arity = 2;
  arrive.flags = broker::kFlagScoped;
  arrive.name = "cancel-granted-bp";
  arrive.token = 1;
  arrive.rank = 0;
  ASSERT_TRUE(broker::write_frame(fd0, arrive));
  arrive.token = 2;
  arrive.rank = 1;
  ASSERT_TRUE(broker::write_frame(fd1, arrive));

  // Skips any frame before the GRANT.
  auto read_grant = [](int fd) {
    for (;;) {
      std::optional<broker::Message> m = broker::read_frame(fd);
      if (!m || m->type == broker::MsgType::kGrant) return m;
    }
  };
  const auto g0 = read_grant(fd0);
  ASSERT_TRUE(g0.has_value());
  EXPECT_EQ(g0->token, 1u);
  EXPECT_EQ(g0->rank, 0);

  // Rank 0 gives up on its grant, as a client's failsafe does: the
  // broker completes the token, and rank 1 goes next without waiting
  // out the grant cap.
  broker::Message cancel;
  cancel.type = broker::MsgType::kCancel;
  cancel.token = 1;
  const auto cancelled_at = SteadyClock::now();
  ASSERT_TRUE(broker::write_frame(fd0, cancel));
  const auto g1 = read_grant(fd1);
  const auto waited = SteadyClock::now() - cancelled_at;

  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(g1->token, 2u);
  EXPECT_EQ(g1->rank, 1);
  EXPECT_EQ(g1->flags, static_cast<std::uint8_t>(broker::GrantOutcome::kOk));
  EXPECT_LT(waited, 1000ms);
  EXPECT_EQ(server.stats().forced_advances, 0u);

  ::close(fd0);
  ::close(fd1);
  server.stop();
}

TEST(BrokerRawWireTest, KaryGroupPrefersArrivalsFromOtherConnections) {
  const std::string path = test_socket_path("kary-other-conn");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());
  const int fd_a = raw_connect(path);
  const int fd_b = raw_connect(path);
  ASSERT_GE(fd_a, 0);
  ASSERT_GE(fd_b, 0);
  // A lost frame fails the test instead of hanging it.
  const timeval recv_timeout{5, 0};
  for (int fd : {fd_a, fd_b}) {
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
                           sizeof(recv_timeout)),
              0);
  }

  // One arrival at a time, each handled before the next is sent, so the
  // broker sees them in exactly this order.
  std::uint64_t sent = 0;
  auto arrive = [&](int fd, std::uint64_t token, int rank,
                    std::uint64_t timeout_ms) {
    broker::Message m;
    m.type = broker::MsgType::kArrive;
    m.token = token;
    m.a = timeout_ms;
    m.rank = rank;
    m.arity = 3;
    m.name = "kary-other-conn-bp";
    ASSERT_TRUE(broker::write_frame(fd, m));
    ++sent;
    const auto deadline = SteadyClock::now() + 5s;
    while (server.stats().arrivals < sent && SteadyClock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(server.stats().arrivals, sent);
  };
  auto done = [](int fd, std::uint64_t token) {
    broker::Message m;
    m.type = broker::MsgType::kDone;
    m.token = token;
    ASSERT_TRUE(broker::write_frame(fd, m));
  };

  // A:r1 waits first, yet A:r2 completes the group with B's r1 and r0:
  // a rank goes to a waiting arrival of another connection before one
  // of the completing arrival's own.
  arrive(fd_a, /*token=*/11, /*rank=*/1, /*timeout_ms=*/400);
  arrive(fd_b, 21, 1, 30000);
  arrive(fd_b, 20, 0, 30000);
  arrive(fd_a, 12, 2, 30000);

  for (const auto& [token, rank] : {std::pair{20u, 0}, std::pair{21u, 1}}) {
    const auto grant = broker::read_frame(fd_b);
    ASSERT_TRUE(grant.has_value());
    EXPECT_EQ(grant->type, broker::MsgType::kGrant);
    EXPECT_EQ(grant->token, token);
    EXPECT_EQ(grant->rank, rank);
    done(fd_b, grant->token);
  }
  // A sees its r2 granted last and its r1 time out, in either order.
  bool granted = false;
  bool timed_out = false;
  for (int i = 0; i < 2; ++i) {
    const auto m = broker::read_frame(fd_a);
    ASSERT_TRUE(m.has_value());
    if (m->type == broker::MsgType::kGrant) {
      EXPECT_EQ(m->token, 12u);
      EXPECT_EQ(m->rank, 2);
      done(fd_a, m->token);
      granted = true;
    } else {
      EXPECT_EQ(m->type, broker::MsgType::kTimeout);
      EXPECT_EQ(m->token, 11u);
      timed_out = true;
    }
  }
  EXPECT_TRUE(granted);
  EXPECT_TRUE(timed_out);
  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.matches, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);

  ::close(fd_a);
  ::close(fd_b);
  server.stop();
}

// ---------------------------------------------------------------------------
// Engine-level behaviour
// ---------------------------------------------------------------------------

class BrokerEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    BreakpointSpec::clear_installed();
    Config::set_enabled(true);
    Config::set_order_delay(1ms);
    rt::TimeScale::set(1.0);
  }
  void TearDown() override {
    Engine::instance().set_transport(nullptr);
    BreakpointSpec::clear_installed();
    Engine::instance().reset();
  }
};

// scope=process-group with *no* transport attached must fall back to
// local matching, not error out or hang: the spec can ship before the
// broker does.
TEST_F(BrokerEngineTest, ProcessGroupScopeFallsBackToLocalWithoutTransport) {
  BreakpointSpec::parse("fallback-bp scope=process-group\n").install();
  int probe = 0;
  bool first = false, second = false;
  std::thread t1([&] {
    ConflictTrigger t("fallback-bp", &probe);
    first = t.trigger_here(/*is_first_action=*/true, 2000ms);
  });
  std::thread t2([&] {
    ConflictTrigger t("fallback-bp", &probe);
    second = t.trigger_here(/*is_first_action=*/false, 2000ms);
  });
  t1.join();
  t2.join();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  // The local path counts one hit per matched *pair* (the remote path
  // counts one per process — each address space keeps its own stats).
  EXPECT_EQ(Engine::instance().total_stats().hits, 1u);
  EXPECT_EQ(Engine::instance().total_stats().peer_lost, 0u);
}

// ---------------------------------------------------------------------------
// Fork-based cross-process smoke (the CI multi-process broker test)
// ---------------------------------------------------------------------------

/// Reaps `pid` with a deadline; SIGKILLs and fails on expiry so a broker
/// bug shows up as a test failure, never a ctest hang.
int wait_with_deadline(pid_t pid, std::chrono::seconds budget) {
  const auto deadline = SteadyClock::now() + budget;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
    }
    if (SteadyClock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return 125;  // sentinel: wedged
    }
    std::this_thread::sleep_for(2ms);
  }
}

/// Child body for the fork tests: fresh engine state, process-group
/// spec, broker transport, one trigger.  Communicates via exit code
/// only (no gtest in the child): 3 = connect failed, 4 = no hit.
[[noreturn]] void fork_child(const std::string& path, const char* bp_name,
                             bool is_first, bool die_holding_guard) {
  Engine& engine = Engine::instance();
  engine.reset();
  BreakpointSpec::clear_installed();
  Config::set_enabled(true);
  rt::TimeScale::set(1.0);
  BreakpointSpec::parse(std::string(bp_name) + " scope=process-group\n")
      .install();
  auto client = broker::BrokerClient::connect(path, 5000ms, engine.tag());
  if (!client) _exit(3);
  engine.set_transport(client);

  ConflictTrigger trigger(bp_name, nullptr);
  if (die_holding_guard) {
    TriggerResult result = trigger.trigger_here_scoped(is_first, 5000ms);
    if (result.hit) _exit(42);  // die mid-protocol, DONE never sent
    _exit(4);
  }
  TriggerResult result = trigger.trigger_here_scoped(is_first, 5000ms);
  const bool hit = result.hit;
  const bool peer_lost = result.peer_lost;
  result.guard.release();
  client->shutdown();
  if (!hit) _exit(4);
  _exit(peer_lost ? 5 : 0);
}

TEST(BrokerForkTest, TwoProcessesMatchThroughTheBroker) {
  const std::string path = test_socket_path("fork-match");
  // fork *before* the broker starts its threads (prefork discipline:
  // the parent is single-threaded at every fork).
  pid_t kids[2];
  for (int w = 0; w < 2; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) fork_child(path, "fork-match-bp", w == 0, false);
    kids[w] = pid;
  }
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  const int status0 = wait_with_deadline(kids[0], 30s);
  const int status1 = wait_with_deadline(kids[1], 30s);
  EXPECT_EQ(status0, 0);
  EXPECT_EQ(status1, 0);

  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.matches, 1u);
  EXPECT_EQ(stats.arrivals, 2u);
  EXPECT_EQ(stats.peer_lost, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  server.stop();
}

TEST(BrokerForkTest, KilledWorkerReleasesItsPeerAsPeerLost) {
  const std::string path = test_socket_path("fork-kill");
  pid_t kids[2];
  for (int w = 0; w < 2; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Worker 0 declares rank 0 (granted first) and dies holding the
      // guard; worker 1 parks for its grant and must be released as
      // peer-lost — never left to hang.
      fork_child(path, "fork-kill-bp", w == 0, /*die_holding_guard=*/w == 0);
    }
    kids[w] = pid;
  }
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  const int status0 = wait_with_deadline(kids[0], 30s);
  const int status1 = wait_with_deadline(kids[1], 30s);
  EXPECT_EQ(status0, 42);  // died mid-protocol as designed
  EXPECT_EQ(status1, 5);   // survivor: hit with peer_lost set

  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.matches, 1u);
  EXPECT_GE(stats.peer_lost, 1u);
  server.stop();
}

}  // namespace
}  // namespace cbp
