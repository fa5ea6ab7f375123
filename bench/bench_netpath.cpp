//===- bench_netpath.cpp - UDP loopback data-plane bench (BENCH_8) --------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Measures the real-socket measurement plane (docs/NETWORK.md): what the
// promises stack costs when the network is a kernel, not a cost model.
// Both ends live in this process, talking over loopback UDP through the
// UdpNetwork backend — the same guardians, transport, and frames as the
// simulator, with wall time driving the clock.
//
//   BM_RpcLatency      sequential echo RPCs; wall-clock round-trip
//                      latency percentiles (p50/p99) and mean.
//   BM_StreamThroughput pipelined stream calls, one flush, claim all;
//                      sustained calls/s through the socket path.
//
// Bespoke wall-clock driver (no google-benchmark: the interesting numbers
// are percentiles over individual round trips, not iteration averages).
//
// Writes the BENCH_8 record (tools/Cli.h, gated by tools/check_bench.py):
//
//   bench_netpath --out BENCH_8.fresh.json
//
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "promises/apps/KvStore.h"
#include "promises/net/UdpNetwork.h"
#include "promises/runtime/RemoteHandler.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace promises;
using namespace promises::core;
using namespace promises::runtime;

namespace {

struct Options {
  size_t RpcCalls = 2000;      ///< Latency-sample round trips.
  size_t StreamCalls = 20000;  ///< Pipelined throughput calls.
  size_t PayloadBytes = 32;    ///< Echo argument size.
  size_t Warmup = 200;         ///< Untimed calls before each measurement.
  std::string Out;             ///< JSON output path ("" = stdout only).
};

double nsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

struct RpcResult {
  double P50Ns = 0, P99Ns = 0, MeanNs = 0;
  uint64_t Malformed = 0; ///< Frames either transport dropped as malformed.
};

struct StreamResult {
  double CallsPerSec = 0, NsPerCall = 0;
  uint64_t Malformed = 0;
};

/// One harness per measurement: a fresh Simulation and UdpNetwork so the
/// two benches cannot warm each other's socket buffers or ack state.
struct Harness {
  sim::Simulation S;
  net::UdpNetwork Net{S};
  Guardian Server, Client;
  apps::KvStore Kv;

  explicit Harness(sim::Time ServiceTime = 0)
      : Server(Net, Net.addNode("server"), "server", GuardianConfig{}),
        Client(Net, Net.addNode("client"), "client", GuardianConfig{}),
        Kv(apps::installKvStore(
            Server, apps::KvStoreConfig{.ServiceTime = ServiceTime})) {}

  /// Every call must complete and every datagram come from a known peer;
  /// returns the malformed frames both transports dropped, which the
  /// record carries (zero on clean loopback).
  uint64_t checkClean(const char *What, size_t Expected, size_t Got) {
    if (Got != Expected || Net.unknownSourceDrops() != 0) {
      std::fprintf(stderr,
                   "error: %s completed %zu/%zu calls, %" PRIu64
                   " unknown-source drops on loopback\n",
                   What, Got, Expected, Net.unknownSourceDrops());
      std::exit(1);
    }
    return Server.transport().counters().MalformedDropped +
           Client.transport().counters().MalformedDropped;
  }
};

RpcResult runRpcLatency(const Options &O) {
  Harness H;
  std::vector<double> Ns;
  Ns.reserve(O.RpcCalls);
  size_t Done = 0;
  H.Client.spawnProcess("driver", [&] {
    auto Echo = bindHandler(H.Client, H.Client.newAgent(), H.Kv.Echo);
    std::string Payload(O.PayloadBytes, 'x');
    for (size_t I = 0; I != O.Warmup; ++I)
      (void)Echo.call(Payload);
    for (size_t I = 0; I != O.RpcCalls; ++I) {
      auto T0 = std::chrono::steady_clock::now();
      auto Out = Echo.call(Payload);
      double D = nsSince(T0);
      if (Out.isNormal()) {
        Ns.push_back(D);
        ++Done;
      }
    }
  });
  H.S.run();
  RpcResult R;
  R.Malformed = H.checkClean("rpc", O.RpcCalls, Done);

  std::sort(Ns.begin(), Ns.end());
  R.P50Ns = Ns[Ns.size() / 2];
  R.P99Ns = Ns[std::min(Ns.size() - 1, Ns.size() * 99 / 100)];
  double Sum = 0;
  for (double D : Ns)
    Sum += D;
  R.MeanNs = Sum / static_cast<double>(Ns.size());
  return R;
}

StreamResult runStreamThroughput(const Options &O) {
  Harness H;
  size_t Done = 0;
  double Secs = 0;
  H.Client.spawnProcess("driver", [&] {
    auto Echo = bindHandler(H.Client, H.Client.newAgent(), H.Kv.Echo);
    std::string Payload(O.PayloadBytes, 'x');
    for (size_t I = 0; I != O.Warmup; ++I)
      (void)Echo.call(Payload);
    std::vector<Promise<std::string>> Ps;
    Ps.reserve(O.StreamCalls);
    auto T0 = std::chrono::steady_clock::now();
    for (size_t I = 0; I != O.StreamCalls; ++I)
      Ps.push_back(Echo.streamCall(Payload));
    Echo.flush();
    for (auto &P : Ps)
      if (P.claim().isNormal())
        ++Done;
    Secs = nsSince(T0) / 1e9;
  });
  H.S.run();
  StreamResult R;
  R.Malformed = H.checkClean("stream", O.StreamCalls, Done);
  R.CallsPerSec = static_cast<double>(Done) / Secs;
  R.NsPerCall = Secs * 1e9 / static_cast<double>(Done);
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool Help = false;
  cli::Table Flags = {
      cli::integer("--rpc-calls", "N", "latency sample size (default 2000)",
                   O.RpcCalls, 1),
      cli::integer("--stream-calls", "N",
                   "pipelined throughput calls (default 20000)",
                   O.StreamCalls, 1),
      cli::integer("--payload", "BYTES", "echo argument size (default 32)",
                   O.PayloadBytes, 0, 1 << 20),
      cli::integer("--warmup", "N", "untimed warmup calls (default 200)",
                   O.Warmup),
      cli::text("--out", "FILE", "also write the JSON record to FILE", O.Out),
      cli::toggle("--help", "print this text", Help),
      cli::toggle("-h", "print this text", Help)};
  if (!cli::parse(Argc, Argv, Flags) || Help) {
    cli::usage(Argv[0], Flags);
    return 2;
  }

  std::fprintf(stderr, "BM_RpcLatency %zu calls, %zuB payload...\n",
               O.RpcCalls, O.PayloadBytes);
  RpcResult Rpc = runRpcLatency(O);
  std::fprintf(stderr, "BM_StreamThroughput %zu calls...\n", O.StreamCalls);
  StreamResult Stream = runStreamThroughput(O);

  // Everything crosses the kernel's loopback stack, so latency may double
  // and throughput halve before the gate fails. A malformed frame on
  // loopback is a bug, never noise.
  uint64_t Malformed = Rpc.Malformed + Stream.Malformed;
  std::string Record = cli::benchRecord(
      "bench_netpath", 8,
      {{"payload_bytes", O.PayloadBytes},
       {"rpc_calls", O.RpcCalls},
       {"stream_calls", O.StreamCalls},
       {"warmup", O.Warmup}},
      {{"malformed_dropped", static_cast<double>(Malformed), "frames",
        cli::Lower, 0},
       {"rpc_p50_ns", Rpc.P50Ns, "ns", cli::Lower, 1.0},
       {"rpc_p99_ns", Rpc.P99Ns, "ns", cli::Lower, 1.0},
       {"rpc_mean_ns", Rpc.MeanNs, "ns", cli::Lower, cli::ReportOnly},
       {"stream_calls_per_s", Stream.CallsPerSec, "calls/s", cli::Higher,
        1.0},
       {"stream_ns_per_call", Stream.NsPerCall, "ns", cli::Lower,
        cli::ReportOnly}});
  std::fputs(Record.c_str(), stdout);
  if (!O.Out.empty() && !cli::writeRecord(O.Out, Record))
    return 1;
  return Malformed == 0 ? 0 : 1;
}
