// micro_rpc — RPC-layer microbenchmark: what does the unified policy layer
// (net/rpc.hpp) cost per call, and what do the recovery paths cost?
//
// Three measured paths, all wall-clock over the deterministic simulator:
//   * roundtrip  — RpcCall with max_attempts = 1 vs raw Host::Call, i.e.
//                  the dispatch overhead of the policy state machine.
//   * retry      — every first delivery times out (the server swallows
//                  odd-numbered sightings of a key), so each call pays one
//                  timeout + backoff + dedup-coalesced retry.
//   * dedup      — repeated raw Calls with an already-answered idempotency
//                  key: the server replays its response cache, the handler
//                  never runs.
//
// Emits BENCH_rpc.json (override the path with MAMS_BENCH_OUT) and a
// human-readable summary on stdout.
//
// Environment knobs:
//   MAMS_RPC_OPS       — roundtrips per mode (default 200,000)
//   MAMS_RPC_RETRY_OPS — ops on the retry path (default 20,000)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_report.hpp"
#include "net/host.hpp"
#include "net/message_types.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace mams;
using bench::EnvInt;
using bench::WallSeconds;
using net::Envelope;
using net::MessagePtr;

struct PingMsg final : net::Message {
  net::MsgType type() const noexcept override { return net::kTestPing; }
};

struct PongMsg final : net::Message {
  net::MsgType type() const noexcept override { return net::kTestPong; }
};

/// Echo server; in drop-first mode it swallows every odd-numbered request
/// so each logical call on the retry path pays exactly one timeout +
/// backoff + re-send. (The retry policy must be non-idempotent for this:
/// an idempotent retry would be parked behind the swallowed "in-flight"
/// first execution and never answered — see host.hpp.)
class EchoHost : public net::Host {
 public:
  EchoHost(net::Network& net, std::string name) : Host(net, std::move(name)) {
    OnRequest(net::kTestPing, [this](const Envelope&, const MessagePtr&,
                                     const ReplyFn& reply) {
      ++handled;
      if (drop_first && handled % 2 == 1) {
        return;  // swallow: the client's attempt times out and retries
      }
      reply(std::make_shared<PongMsg>());
    });
  }

  std::uint64_t handled = 0;
  bool drop_first = false;
};

class ClientHost : public net::Host {
 public:
  using net::Host::Host;
};

struct Bench {
  sim::Simulator sim{42};
  net::Network net;
  ClientHost client;
  EchoHost server;

  Bench()
      : net(sim, net::LinkParams{}),
        client(net, "client"),
        server(net, "server") {
    client.Boot();
    server.Boot();
  }
};

struct PathCost {
  double wall_sec = 0;       ///< host wall-clock for the whole batch
  double us_per_op = 0;      ///< wall-clock microseconds per logical call
  double sim_us_per_op = 0;  ///< simulated microseconds per logical call
};

/// Runs `ops` sequential logical calls through `issue(done)` and reports
/// both wall-clock cost (scheduler + RPC machinery overhead) and simulated
/// latency (what the modelled system experiences).
template <typename Issue>
PathCost Drive(Bench& b, std::uint64_t ops, Issue&& issue) {
  PathCost cost;
  const double begin = WallSeconds();
  const SimTime sim_begin = b.sim.Now();
  std::uint64_t completed = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    issue([&](Result<MessagePtr> r) {
      if (r.ok()) ++completed;
    });
    b.sim.RunAll();
  }
  cost.wall_sec = WallSeconds() - begin;
  if (completed != ops) {
    std::fprintf(stderr, "only %" PRIu64 "/%" PRIu64 " calls completed\n",
                 completed, ops);
    std::exit(1);
  }
  cost.us_per_op = ops > 0 ? cost.wall_sec * 1e6 / static_cast<double>(ops) : 0;
  cost.sim_us_per_op =
      ops > 0 ? static_cast<double>(b.sim.Now() - sim_begin) /
                    static_cast<double>(kMicrosecond) / static_cast<double>(ops)
              : 0;
  return cost;
}

}  // namespace

int main() {
  const auto ops = static_cast<std::uint64_t>(EnvInt("MAMS_RPC_OPS", 200'000));
  const auto retry_ops =
      static_cast<std::uint64_t>(EnvInt("MAMS_RPC_RETRY_OPS", 20'000));

  std::printf("micro_rpc: ops=%" PRIu64 " retry_ops=%" PRIu64 "\n", ops,
              retry_ops);

  // --- raw Host::Call roundtrip (no policy layer) ---------------------------
  Bench raw;
  const PathCost raw_cost = Drive(raw, ops, [&](net::Host::RpcCallback done) {
    raw.client.Call(raw.server.id(), std::make_shared<PingMsg>(), kSecond,
                    std::move(done));
  });

  // --- RpcCall roundtrip (policy layer, single attempt) ---------------------
  Bench pol;
  net::RpcPolicy single;
  single.attempt_timeout = kSecond;
  single.max_attempts = 1;
  const PathCost policy_cost =
      Drive(pol, ops, [&](net::Host::RpcCallback done) {
        net::RpcCall::Start(pol.client, pol.server.id(),
                            std::make_shared<PingMsg>(), single,
                            std::move(done));
      });

  // --- retry path: first delivery swallowed, dedup'd retry succeeds --------
  Bench rty;
  rty.server.drop_first = true;
  net::RpcPolicy retrying;
  retrying.attempt_timeout = 10 * kMillisecond;
  retrying.max_attempts = 5;
  retrying.backoff_base = kMillisecond;
  retrying.backoff_multiplier = 1.0;
  retrying.idempotent = false;  // each attempt must reach the handler
  const PathCost retry_cost =
      Drive(rty, retry_ops, [&](net::Host::RpcCallback done) {
        net::RpcCall::Start(rty.client, rty.server.id(),
                            std::make_shared<PingMsg>(), retrying,
                            std::move(done));
      });

  // --- dedup replay: the handler never runs -------------------------------
  Bench ddp;
  const std::uint64_t key = ddp.client.NextIdemKey();
  bool primed = false;
  ddp.client.Call(ddp.server.id(), std::make_shared<PingMsg>(), kSecond,
                  [&](Result<MessagePtr> r) { primed = r.ok(); }, key);
  ddp.sim.RunAll();
  if (!primed) {
    std::fprintf(stderr, "dedup priming call failed\n");
    return 1;
  }
  const std::uint64_t handled_after_prime = ddp.server.handled;
  const PathCost dedup_cost =
      Drive(ddp, ops, [&](net::Host::RpcCallback done) {
        ddp.client.Call(ddp.server.id(), std::make_shared<PingMsg>(), kSecond,
                        std::move(done), key);
      });
  if (ddp.server.handled != handled_after_prime) {
    std::fprintf(stderr, "dedup replay re-executed the handler\n");
    return 1;
  }

  const double policy_overhead_us = policy_cost.us_per_op - raw_cost.us_per_op;

  std::printf("  raw Call roundtrip:    %8.3f us/op (sim %8.1f us)\n",
              raw_cost.us_per_op, raw_cost.sim_us_per_op);
  std::printf("  RpcCall roundtrip:     %8.3f us/op (sim %8.1f us)\n",
              policy_cost.us_per_op, policy_cost.sim_us_per_op);
  std::printf("  policy dispatch cost:  %8.3f us/op\n", policy_overhead_us);
  std::printf("  retry path (1 retry):  %8.3f us/op (sim %8.1f us)\n",
              retry_cost.us_per_op, retry_cost.sim_us_per_op);
  std::printf("  dedup replay:          %8.3f us/op (sim %8.1f us)\n",
              dedup_cost.us_per_op, dedup_cost.sim_us_per_op);

  auto path = [](const PathCost& c) {
    return bench::Json::Object()
        .Set("us_per_op", bench::Json::Num(c.us_per_op, 4))
        .Set("sim_us_per_op", bench::Json::Num(c.sim_us_per_op, 2));
  };
  return bench::WriteReport(
      "BENCH_rpc.json",
      bench::Json::Object()
          .Set("bench", "micro_rpc")
          .Set("ops", ops)
          .Set("retry_ops", retry_ops)
          .Set("raw_call", path(raw_cost))
          .Set("rpc_call", path(policy_cost))
          .Set("policy_dispatch_overhead_us",
               bench::Json::Num(policy_overhead_us, 4))
          .Set("retry_path", path(retry_cost))
          .Set("dedup_replay", path(dedup_cost)));
}
