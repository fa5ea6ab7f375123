//===- bench_hotpath.cpp - Data-plane hot-path microbench -----------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Wall-clock cost of the data-plane hot path: one call's full journey
// issue -> encode -> seal -> deliver -> decode -> claim, measured over a
// real transport pair in one simulation, on three paths: RPCs on one
// stream, pipelined stream calls, and RPCs that each open a stream on a
// fresh agent. A fourth, typed, path runs the same pipeline the way users
// write it: RemoteHandler::streamCall through a client Guardian to a
// KvStore echo on a second one. Unlike the EXPERIMENTS.md benches
// (virtual-time, protocol-level), this one measures what the host CPU
// actually pays per call, plus two machine-independent companions:
//
//  * allocs/call — heap allocations counted by a global operator new hook,
//  * seal-copied bytes/call — payload bytes memcpy'd while sealing frames
//    (wire::frameStats()); the zero-copy send path must keep this at 0.
//
// Writes the BENCH_7 record (tools/Cli.h); tools/check_bench.py gates it
// against the committed baseline:
//
//   bench_hotpath --calls 50000 --warmup 5000 --out BENCH_7.fresh.json
//
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "promises/apps/KvStore.h"
#include "promises/core/Promise.h"
#include "promises/net/Network.h"
#include "promises/runtime/RemoteHandler.h"
#include "promises/sim/Simulation.h"
#include "promises/stream/StreamTransport.h"
#include "promises/wire/Frame.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

using namespace promises;

//===----------------------------------------------------------------------===//
// Allocation counting hook
//===----------------------------------------------------------------------===//

// Counts every heap allocation in the process. The simulation runs on one
// thread; the relaxed atomic keeps the count exact should anything
// allocate off it.
static std::atomic<uint64_t> GAllocs{0};

void *operator new(std::size_t N) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

//===----------------------------------------------------------------------===//
// Workload
//===----------------------------------------------------------------------===//

namespace {

struct Sample {
  double NsPerCall = 0;
  double AllocsPerCall = 0;
  double SealCopiedPerCall = 0; ///< Payload bytes copied while sealing.
  double WireBytesPerCall = 0;  ///< Datagram bytes on the wire (context).
};

struct Options {
  uint64_t Calls = 50000;
  uint64_t Warmup = 5000;
  size_t ArgBytes = 64;
  size_t Pipeline = 64; ///< Outstanding calls in stream mode.
  std::string Out;
};

/// One world: client transport on node 0, echo server on node 1. The
/// server's sink completes every call immediately, echoing the argument
/// bytes, so each call exercises encode+seal+deliver+decode on both the
/// call and the reply direction.
struct World {
  sim::Simulation Sim;
  net::SimNetwork Net;
  std::unique_ptr<stream::StreamTransport> Client;
  std::unique_ptr<stream::StreamTransport> Server;
  stream::AgentId Agent = 0;

  World() : Net(Sim) {
    net::NodeId C = Net.addNode("client");
    net::NodeId S = Net.addNode("server");
    Client = std::make_unique<stream::StreamTransport>(Net, C);
    Server = std::make_unique<stream::StreamTransport>(Net, S);
    Agent = Client->newAgent();
    Server->setCallSink([](stream::IncomingCall IC) {
      IC.Complete(stream::ReplyStatus::Normal, 0,
                  wire::Bytes(IC.Args.begin(), IC.Args.end()), {});
    });
  }
};

using EchoPromise = core::Promise<uint64_t>;
using EchoResolver = core::Resolver<uint64_t>;

/// Issues one echo call and returns its promise. The reply callback
/// fulfills with the payload size (the claim side of the hot path).
EchoPromise issueOne(World &W, const wire::Bytes &Args, bool IsRpc) {
  auto [P, R] = core::makePromise<uint64_t>(W.Sim);
  auto Issue = W.Client->issueCall(
      W.Agent, W.Server->address(), /*Group=*/1, /*Port=*/1,
      wire::Bytes(Args), /*NoReply=*/false, IsRpc,
      [R = R](const stream::ReplyOutcome &O) {
        R.fulfill(core::Outcome<uint64_t>(
            static_cast<uint64_t>(O.Payload.size())));
      });
  if (!Issue.Issued) {
    std::fprintf(stderr, "issue failed: %s\n", Issue.Reason.c_str());
    std::abort();
  }
  return P;
}

/// RPC mode: strict request/response round trips — the latency path.
void runRpc(World &W, const wire::Bytes &Args, uint64_t N) {
  for (uint64_t I = 0; I != N; ++I)
    issueOne(W, Args, /*IsRpc=*/true).claim();
}

/// Fresh mode: RPCs that each run on a new agent, so every call opens a
/// stream at both ends, as a two-phase coordinator's call to each
/// participant does. The records stay: the transports' tables grow with
/// every call.
void runFresh(World &W, const wire::Bytes &Args, uint64_t N) {
  for (uint64_t I = 0; I != N; ++I) {
    W.Agent = W.Client->newAgent();
    issueOne(W, Args, /*IsRpc=*/true).claim();
  }
}

/// Stream mode: a bounded pipeline of buffered stream calls — the
/// throughput path (batching amortizes the per-message costs).
void runStream(World &W, const wire::Bytes &Args, uint64_t N,
               size_t Pipeline) {
  std::vector<EchoPromise> InFlight;
  InFlight.reserve(Pipeline);
  size_t Claim = 0;
  for (uint64_t I = 0; I != N; ++I) {
    InFlight.push_back(issueOne(W, Args, /*IsRpc=*/false));
    if (InFlight.size() - Claim >= Pipeline) {
      InFlight[Claim].claim();
      InFlight[Claim] = EchoPromise();
      ++Claim;
    }
  }
  for (; Claim != InFlight.size(); ++Claim)
    InFlight[Claim].claim();
}

/// Typed mode: the stream pipeline as users write it. \p Ring holds the
/// calls in flight; each slot's call is claimed, and its echo checked,
/// before the slot is reused, and the last ones are drained.
template <typename Handler>
void runTyped(Handler &Echo, const std::string &Arg, uint64_t N,
              std::vector<core::Promise<std::string>> &Ring) {
  auto Claim = [&](core::Promise<std::string> &P) {
    if (P.valid() && P.claim().value() != Arg) {
      std::fprintf(stderr, "typed echo returned the wrong value\n");
      std::abort();
    }
    P = core::Promise<std::string>();
  };
  for (uint64_t I = 0; I != N; ++I) {
    core::Promise<std::string> &P = Ring[I % Ring.size()];
    Claim(P);
    P = Echo.streamCall(Arg);
  }
  for (core::Promise<std::string> &P : Ring)
    Claim(P);
}

/// Runs \p Run(N) for Opt.Warmup untimed calls, then for Opt.Calls timed
/// ones, inside the calling simulated process.
template <typename Fn>
Sample timeCalls(const Options &Opt, net::Network &Net, Fn &&Run) {
  Run(Opt.Warmup); // Warm slabs, rings, and stream state.
  uint64_t Allocs0 = GAllocs.load(std::memory_order_relaxed);
  wire::FrameStats FS0 = wire::frameStats();
  uint64_t Bytes0 = Net.counters().BytesSent;
  auto T0 = std::chrono::steady_clock::now();
  Run(Opt.Calls);
  auto T1 = std::chrono::steady_clock::now();
  uint64_t Allocs1 = GAllocs.load(std::memory_order_relaxed);
  wire::FrameStats FS1 = wire::frameStats();
  uint64_t Bytes1 = Net.counters().BytesSent;
  double N = static_cast<double>(Opt.Calls);
  Sample Out;
  Out.NsPerCall =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
              .count()) /
      N;
  Out.AllocsPerCall = static_cast<double>(Allocs1 - Allocs0) / N;
  Out.SealCopiedPerCall =
      static_cast<double>(FS1.PayloadBytesCopied - FS0.PayloadBytesCopied) /
      N;
  Out.WireBytesPerCall = static_cast<double>(Bytes1 - Bytes0) / N;
  return Out;
}

template <typename Fn>
Sample measure(const Options &Opt, Fn &&Run) {
  World W;
  wire::Bytes Args(Opt.ArgBytes, 0xAB);
  Sample Out;
  W.Sim.spawn("driver", [&] {
    Out = timeCalls(Opt, W.Net, [&](uint64_t N) { Run(W, Args, N); });
  });
  W.Sim.run();
  return Out;
}

/// The typed path: a client Guardian and a KvStore guardian on their own
/// nodes, Opt.Pipeline echo calls of Opt.ArgBytes in flight.
Sample measureTyped(const Options &Opt) {
  sim::Simulation Sim;
  net::SimNetwork Net(Sim);
  runtime::Guardian Server(Net, Net.addNode("server"), "server");
  runtime::Guardian Client(Net, Net.addNode("client"), "client");
  apps::KvStore Kv =
      apps::installKvStore(Server, apps::KvStoreConfig{.ServiceTime = 0});
  auto Echo = runtime::bindHandler(Client, Client.newAgent(), Kv.Echo);
  const std::string Arg(Opt.ArgBytes, 'e');
  std::vector<core::Promise<std::string>> Ring(Opt.Pipeline);
  Sample Out;
  Client.spawnProcess("driver", [&] {
    Out = timeCalls(Opt, Net,
                    [&](uint64_t N) { runTyped(Echo, Arg, N, Ring); });
  });
  Sim.run();
  return Out;
}

/// The record's rows for one path: wall ns/call may drift 25%; the
/// allocation and seal-copy counts are deterministic and must not grow.
/// The typed path reports no seal-copy row: its sends are the stream
/// path's.
void addMetrics(std::vector<cli::Metric> &Out, const std::string &Path,
                const Sample &S, bool SealRow = true) {
  Out.push_back({Path + "_ns_per_call", S.NsPerCall, "ns", cli::Lower, 0.25});
  Out.push_back({Path + "_allocs_per_call", S.AllocsPerCall, "allocs",
                 cli::Lower, 0});
  if (SealRow)
    Out.push_back({Path + "_seal_copied_bytes_per_call", S.SealCopiedPerCall,
                   "bytes", cli::Lower, 0});
  Out.push_back({Path + "_wire_bytes_per_call", S.WireBytesPerCall, "bytes",
                 cli::Lower, cli::ReportOnly});
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  bool Help = false;
  cli::Table Flags = {
      cli::integer("--calls", "N", "timed calls per path (default 50000)",
                   Opt.Calls, 1),
      cli::integer("--warmup", "N", "untimed calls first (default 5000)",
                   Opt.Warmup),
      cli::integer("--arg-bytes", "N", "echo argument size (default 64)",
                   Opt.ArgBytes, 0, 1 << 20),
      cli::integer("--pipeline", "N",
                   "stream calls in flight (default 64)", Opt.Pipeline, 1),
      cli::text("--out", "FILE", "also write the JSON record to FILE",
                Opt.Out),
      cli::toggle("--help", "print this text", Help)};
  bool Parsed = cli::parse(Argc, Argv, Flags);
  if (!Parsed || Help) {
    cli::usage(Argv[0], Flags);
    return Parsed ? 0 : 2;
  }

  Sample Rpc = measure(Opt, [](World &W, const wire::Bytes &Args,
                               uint64_t N) { runRpc(W, Args, N); });
  Sample Stream =
      measure(Opt, [&](World &W, const wire::Bytes &Args, uint64_t N) {
        runStream(W, Args, N, Opt.Pipeline);
      });

  Sample Fresh = measure(Opt, [](World &W, const wire::Bytes &Args,
                                 uint64_t N) { runFresh(W, Args, N); });
  Sample Typed = measureTyped(Opt);

  std::vector<cli::Metric> Metrics;
  addMetrics(Metrics, "rpc", Rpc);
  addMetrics(Metrics, "stream", Stream);
  addMetrics(Metrics, "fresh", Fresh);
  addMetrics(Metrics, "typed", Typed, /*SealRow=*/false);
  std::string Record = cli::benchRecord("bench_hotpath", 7,
                                        {{"calls", Opt.Calls},
                                         {"warmup", Opt.Warmup},
                                         {"arg_bytes", Opt.ArgBytes},
                                         {"pipeline", Opt.Pipeline}},
                                        Metrics);
  std::fputs(Record.c_str(), stdout);
  return Opt.Out.empty() || cli::writeRecord(Opt.Out, Record) ? 0 : 1;
}
