//===- streamsim.cpp - Interactive call-stream workload explorer -----------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// A command-line harness around the simulator: run a configurable
// client/server workload and print the transport-level outcome. Useful
// for exploring the design space beyond the canned benchmarks, e.g.
//
//   streamsim --calls 1000 --mode stream --batch 32 --loss 0.2
//   streamsim --calls 100 --mode rpc --service-us 500
//   streamsim --calls 4 --mode stream --trace-out trace.json
//
// With --net udp the same workload runs over real loopback UDP sockets
// (docs/NETWORK.md) instead of the simulator — either both ends in this
// process (--role both, the default) or split across two processes:
//
//   streamsim --net udp --role server --listen 19000 --peer 127.0.0.1:19100
//   streamsim --net udp --role client --listen 19100 --peer 127.0.0.1:19000
//
// The server serves until the client's quit handshake, then drains for a
// grace period and prints its own tallies. Fault-injection flags (--loss,
// --dup, --jitter-us, --crash-at-ms) are simulator-only.
//
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "promises/apps/KvStore.h"
#include "promises/net/UdpNetwork.h"
#include "promises/runtime/RemoteHandler.h"
#include "promises/support/StrUtil.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

using namespace promises;
using namespace promises::core;
using namespace promises::runtime;

namespace {

struct Options {
  int Calls = 256;
  std::string Mode = "stream"; // stream | rpc | send
  size_t Batch = 16;
  size_t PayloadBytes = 16;
  uint64_t ServiceUs = 100;
  double Loss = 0.0;
  double Dup = 0.0;
  uint64_t JitterUs = 0;
  uint64_t Seed = 1;
  size_t Window = 0;       ///< MaxInFlightCalls; 0 = unbounded.
  size_t WindowBytes = 0;  ///< MaxInFlightBytes; 0 = unbounded.
  double Backoff = 2.0;    ///< Retransmit backoff multiplier.
  uint64_t RtoMaxUs = 0;   ///< Backoff cap; 0 = keep the default.
  uint64_t CrashAtMs = 0;  ///< 0 = never.
  uint64_t DeadlineUs = 0; ///< Per-call deadline; 0 = none.
  int Retries = 1;         ///< Max attempts per call (idempotent echo).
  size_t BreakerThreshold = 0;      ///< Breaks before fast-fail; 0 = off.
  uint64_t BreakerCooldownUs = 50000; ///< Open-state dwell before a probe.
  size_t MaxPending = 0;   ///< Server admission limit; 0 = unbounded.
  bool Metrics = false;   ///< Print the registry summary at exit.
  std::string Net = "sim";   ///< sim | udp.
  std::string Role = "both"; ///< both | server | client (udp only).
  uint16_t ListenBase = 0;   ///< Local udp port base (udp two-process).
  std::string PeerIp;        ///< Remote process ip (udp two-process).
  uint16_t PeerBase = 0;     ///< Remote process udp port base.

  bool resilienceOn() const {
    return DeadlineUs != 0 || Retries > 1 || BreakerThreshold != 0 ||
           MaxPending != 0;
  }
  std::string MetricsOut; ///< JSON Lines snapshot path ("" = none).
  std::string TraceOut;   ///< chrome://tracing path ("" = none).

  bool observabilityOn() const {
    return Metrics || !MetricsOut.empty() || !TraceOut.empty();
  }
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool Help = false;
  cli::Table Flags = {
      cli::integer("--calls", "N", "number of calls (default 256)", O.Calls),
      cli::choice("--mode", "M", " (default stream)", O.Mode,
                  {"stream", "rpc", "send"}),
      cli::integer("--batch", "B", "calls per batch (default 16)", O.Batch,
                   1),
      cli::integer("--payload", "BYTES", "argument size (default 16)",
                   O.PayloadBytes, 0, 1 << 20),
      cli::integer("--service-us", "T",
                   "server service time per call (default 100)",
                   O.ServiceUs),
      cli::number("--loss", "P", "datagram loss probability (default 0)",
                  O.Loss, 0, 1),
      cli::number("--dup", "P",
                  "datagram duplication probability (default 0)", O.Dup, 0,
                  1),
      cli::integer("--jitter-us", "T", "max extra delivery delay (default 0)",
                   O.JitterUs),
      cli::integer("--seed", "S", "fault RNG seed (default 1)", O.Seed),
      cli::integer("--window", "N",
                   "max in-flight (unacked) calls; 0 = unbounded", O.Window),
      cli::integer("--window-bytes", "B",
                   "max in-flight argument bytes; 0 = unbounded",
                   O.WindowBytes),
      cli::number("--backoff", "F",
                  "retransmit backoff multiplier (default 2)", O.Backoff, 1,
                  1000),
      cli::integer("--rto-max-us", "T",
                   "retransmit backoff cap (default 160000)", O.RtoMaxUs),
      cli::integer("--crash-at-ms", "T",
                   "crash the server at virtual time T (default never)",
                   O.CrashAtMs),
      cli::integer("--deadline-us", "T",
                   "per-call deadline; expired calls are dropped",
                   O.DeadlineUs),
      cli::integer("--retries", "N",
                   "max attempts per call (idempotent; default 1)",
                   O.Retries),
      cli::integer("--breaker-threshold", "N",
                   "timeout breaks before failing fast; 0 = off",
                   O.BreakerThreshold),
      cli::integer("--breaker-cooldown-us", "T",
                   "open-breaker dwell before a probe (default 50000)",
                   O.BreakerCooldownUs),
      cli::integer("--max-pending", "N",
                   "server sheds calls beyond N pending; 0 = unbounded",
                   O.MaxPending),
      cli::choice("--net", "N",
                  ": simulated or real loopback sockets\n(default sim)",
                  O.Net, {"sim", "udp"}),
      cli::choice("--role", "R",
                  ": udp two-process split\n(default both = single process)",
                  O.Role, {"both", "server", "client"}),
      cli::integer("--listen", "BASE",
                   "local udp port base (udp server/client roles)",
                   O.ListenBase, 1),
      {"--peer", "IP:BASE", "the other process's address (udp roles)",
       [&O](const char *V) -> std::string {
         const char *Colon = std::strrchr(V, ':');
         if (!Colon)
           return strprintf("--peer wants IP:BASE, got '%s'", V);
         O.PeerIp.assign(V, Colon - V);
         uint64_t Base = 0;
         std::string Err = cli::parseValue<uint64_t>("--peer", Colon + 1, 1,
                                                     UINT16_MAX, Base);
         O.PeerBase = static_cast<uint16_t>(Base);
         return Err;
       }},
      cli::toggle("--metrics", "print the metrics-registry summary at exit",
                  O.Metrics),
      cli::text("--metrics-out", "F",
                "write a JSON Lines metrics snapshot to F", O.MetricsOut),
      cli::text("--trace-out", "F",
                "write a chrome://tracing event file to F (the typed\n"
                "trace events; see docs/OBSERVABILITY.md)",
                O.TraceOut),
      cli::toggle("--help", "print this text", Help),
      cli::toggle("-h", "print this text", Help)};
  if (!cli::parse(Argc, Argv, Flags) || Help) {
    cli::usage(Argv[0], Flags);
    return false;
  }
  if (O.Net == "sim" && O.Role != "both") {
    std::fprintf(stderr, "error: --role needs --net udp\n");
    return false;
  }
  if (O.Net == "udp" &&
      (O.Loss != 0 || O.Dup != 0 || O.JitterUs != 0 || O.CrashAtMs != 0)) {
    std::fprintf(stderr, "error: --loss/--dup/--jitter-us/--crash-at-ms are "
                         "simulator-only (the udp backend is the measurement "
                         "plane; chaos lives in --net sim)\n");
    return false;
  }
  if (O.Net == "udp" && O.Role != "both" &&
      (O.ListenBase == 0 || O.PeerIp.empty() || O.PeerBase == 0)) {
    std::fprintf(stderr, "error: --role %s needs --listen BASE and "
                         "--peer IP:BASE\n",
                 O.Role.c_str());
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;

  sim::Simulation S;
  if (O.observabilityOn())
    S.metrics().setEnabled(true);

  // Backend selection: both implement net::Network, and everything below
  // this block is backend-agnostic.
  std::unique_ptr<net::SimNetwork> SimNet;
  std::unique_ptr<net::UdpNetwork> UdpNet;
  net::NodeId SN = 0, CN = 0;
  if (O.Net == "sim") {
    net::NetConfig NC;
    NC.LossRate = O.Loss;
    NC.DupRate = O.Dup;
    NC.JitterMax = sim::usec(O.JitterUs);
    NC.Seed = O.Seed;
    SimNet = std::make_unique<net::SimNetwork>(S, NC);
    SN = SimNet->addNode("server");
    CN = SimNet->addNode("client");
  } else {
    UdpNet = std::make_unique<net::UdpNetwork>(S);
    if (O.Role == "both") {
      // Single process, both ends on loopback ephemeral ports.
      SN = UdpNet->addNode("server");
      CN = UdpNet->addNode("client");
    } else if (O.Role == "server") {
      SN = UdpNet->addNode("server", O.ListenBase);
      CN = UdpNet->addRemoteNode("client", O.PeerIp, O.PeerBase);
    } else {
      CN = UdpNet->addNode("client", O.ListenBase);
      SN = UdpNet->addRemoteNode("server", O.PeerIp, O.PeerBase);
    }
  }
  net::Network &Net =
      SimNet ? static_cast<net::Network &>(*SimNet) : *UdpNet;

  GuardianConfig GC;
  GC.Stream.MaxBatchCalls = O.Batch;
  GC.Stream.MaxReplyBatch = O.Batch;
  GC.Stream.MaxInFlightCalls = O.Window;
  GC.Stream.MaxInFlightBytes = O.WindowBytes;
  GC.Stream.RetransBackoff = O.Backoff;
  if (O.RtoMaxUs != 0)
    GC.Stream.RetransmitTimeoutMax = sim::usec(O.RtoMaxUs);
  GC.Stream.RetransSeed = O.Seed;
  GuardianConfig ServerGC = GC;
  ServerGC.MaxPendingCalls = O.MaxPending;
  GC.Stream.BreakerThreshold = O.BreakerThreshold;
  GC.Stream.BreakerCooldown = sim::usec(O.BreakerCooldownUs);
  apps::KvStoreConfig KC;
  KC.ServiceTime = sim::usec(O.ServiceUs);

  // --- Two-process udp server role: serve until the quit handshake. ---
  if (O.Role == "server") {
    Guardian Server(Net, SN, "server", ServerGC);
    apps::KvStore Kv = apps::installKvStore(Server, KC);
    bool Quit = false;
    sim::WaitQueue QuitQ(S);
    Server.addHandler<wire::Unit()>("quit",
                                    [&]() -> Outcome<wire::Unit> {
                                      Quit = true;
                                      QuitQ.notifyAll();
                                      return wire::Unit{};
                                    });
    // The lifeline keeps the real-time loop alive while the server is
    // otherwise idle between requests, then grants a drain grace so the
    // quit reply's retransmits/acks settle before the process exits.
    Server.spawnProcess("lifeline", [&] {
      while (!Quit)
        QuitQ.wait();
      S.sleep(sim::msec(250));
    });
    S.run();
    const auto &TC = Server.transport().counters();
    const auto &NetC = Net.counters();
    std::printf("role=server listen=%u served %llu calls\n",
                unsigned(O.ListenBase),
                static_cast<unsigned long long>(Kv.Store->Calls));
    std::printf("  datagrams        %llu sent, %llu delivered\n",
                static_cast<unsigned long long>(NetC.DatagramsSent),
                static_cast<unsigned long long>(NetC.DatagramsDelivered));
    std::printf("  integrity        %llu malformed dropped, %llu trailing "
                "bytes, %llu unknown-source drops\n",
                static_cast<unsigned long long>(TC.MalformedDropped),
                static_cast<unsigned long long>(TC.FramesTrailingBytes),
                static_cast<unsigned long long>(
                    UdpNet->unknownSourceDrops()));
    return TC.MalformedDropped == 0 ? 0 : 1;
  }

  // --- Sim, udp single-process, and udp client roles. ---
  std::unique_ptr<Guardian> Server;
  apps::KvStore Kv;
  runtime::HandlerRef<wire::Unit()> QuitRef;
  if (O.Role == "client") {
    // The server lives in another process. Install the identical handler
    // set on a throwaway local guardian to learn the port layout (same
    // binary, same install order), then retarget every ref at the remote
    // node; epoch 0 is the first incarnation.
    net::NodeId TmpN = UdpNet->addNode("portprobe");
    Server = std::make_unique<Guardian>(Net, TmpN, "portprobe", ServerGC);
    Kv = apps::installKvStore(*Server, KC);
    QuitRef = Server->addHandler<wire::Unit()>(
        "quit", []() -> Outcome<wire::Unit> { return wire::Unit{}; });
    net::Address ServerAddr{SN, Kv.Echo.Entity.Port, 0};
    Kv.Put.Entity = Kv.Get.Entity = Kv.Echo.Entity = ServerAddr;
    QuitRef.Entity = ServerAddr;
  } else {
    Server = std::make_unique<Guardian>(Net, SN, "server", ServerGC);
    Kv = apps::installKvStore(*Server, KC);
  }
  Guardian Client(Net, CN, "client", GC);

  if (O.CrashAtMs != 0)
    S.schedule(sim::msec(O.CrashAtMs), [&] { Net.crash(SN); });

  int Normal = 0, Unavail = 0, Failed = 0;
  Client.spawnProcess("driver", [&] {
    // Tell the remote server to shut down once the workload is done, even
    // if this process unwinds through an early return.
    struct QuitAtExit {
      Options &O;
      Guardian &Client;
      runtime::HandlerRef<wire::Unit()> &QuitRef;
      ~QuitAtExit() {
        if (O.Role != "client")
          return;
        auto Q = bindHandler(Client, Client.newAgent(), QuitRef);
        Q.call();
      }
    } QuitGuard{O, Client, QuitRef};
    auto H = bindHandler(Client, Client.newAgent(), Kv.Echo);
    if (O.DeadlineUs != 0)
      H.withDeadline(sim::usec(O.DeadlineUs));
    if (O.Retries > 1) {
      RetryPolicy RP;
      RP.MaxAttempts = O.Retries;
      H.withRetryPolicy(RP).declareIdempotent();
    }
    std::string Payload(O.PayloadBytes, 'x');
    if (O.Mode == "rpc") {
      for (int I = 0; I < O.Calls; ++I) {
        auto Out = H.call(Payload);
        (Out.isNormal()         ? Normal
         : Out.is<Unavailable>() ? Unavail
                                 : Failed)++;
      }
      return;
    }
    if (O.Mode == "send") {
      for (int I = 0; I < O.Calls; ++I)
        H.send(Payload);
      auto R = H.synch();
      Normal = R.ok() ? O.Calls : 0;
      return;
    }
    std::vector<Promise<std::string>> Ps;
    for (int I = 0; I < O.Calls; ++I)
      Ps.push_back(H.streamCall(Payload));
    H.flush();
    for (auto &P : Ps) {
      const auto &Out = P.claim();
      (Out.isNormal()          ? Normal
       : Out.is<Unavailable>() ? Unavail
                               : Failed)++;
    }
  });
  S.run();

  const auto &NetC = Net.counters();
  const auto &TC = Client.transport().counters();
  double Secs = static_cast<double>(S.now()) / 1e9;
  std::printf("mode=%s calls=%d batch=%zu payload=%zuB service=%lluus "
              "loss=%.2f dup=%.2f jitter=%lluus seed=%llu",
              O.Mode.c_str(), O.Calls, O.Batch, O.PayloadBytes,
              static_cast<unsigned long long>(O.ServiceUs), O.Loss, O.Dup,
              static_cast<unsigned long long>(O.JitterUs),
              static_cast<unsigned long long>(O.Seed));
  if (O.Net == "udp")
    std::printf(" net=udp role=%s", O.Role.c_str());
  std::printf("\n");
  std::printf("  %s time     %s\n", O.Net == "udp" ? "wall   " : "virtual",
              formatDuration(S.now()).c_str());
  if (Secs > 0)
    std::printf("  throughput       %.0f calls/s\n",
                static_cast<double>(O.Calls) / Secs);
  std::printf("  outcomes         %d normal, %d unavailable, %d failure\n",
              Normal, Unavail, Failed);
  std::printf("  datagrams        %llu sent, %llu delivered, %llu dropped\n",
              static_cast<unsigned long long>(NetC.DatagramsSent),
              static_cast<unsigned long long>(NetC.DatagramsDelivered),
              static_cast<unsigned long long>(NetC.DatagramsDropped));
  std::printf("  wire bytes       %llu\n",
              static_cast<unsigned long long>(NetC.BytesSent));
  std::printf("  call batches     %llu (+%llu acks/probes), retrans %llu, "
              "breaks %llu, restarts %llu\n",
              static_cast<unsigned long long>(TC.CallBatchesSent),
              static_cast<unsigned long long>(TC.AckBatchesSent),
              static_cast<unsigned long long>(TC.Retransmissions),
              static_cast<unsigned long long>(TC.SenderBreaks),
              static_cast<unsigned long long>(TC.Restarts));
  std::printf("  flow control     %llu issuers blocked, %llu bytes "
              "retransmitted\n",
              static_cast<unsigned long long>(TC.CallsBlocked),
              static_cast<unsigned long long>(TC.RetransmittedBytes));
  std::printf("  integrity        %llu malformed dropped, %llu trailing "
              "bytes\n",
              static_cast<unsigned long long>(TC.MalformedDropped),
              static_cast<unsigned long long>(TC.FramesTrailingBytes));
  if (O.resilienceOn() && O.Role != "client")
    std::printf("  resilience       %llu retries, %llu expired, %llu shed, "
                "%llu fast-fails (%llu breaker opens, %llu probes)\n",
                static_cast<unsigned long long>(Client.retriesIssued()),
                static_cast<unsigned long long>(Server->deadlinesExpired()),
                static_cast<unsigned long long>(Server->callsShed()),
                static_cast<unsigned long long>(TC.BreakerFastFails),
                static_cast<unsigned long long>(TC.BreakerOpens),
                static_cast<unsigned long long>(TC.BreakerProbes));
  if (O.Metrics) {
    std::printf("metrics registry:\n");
    std::fflush(stdout);
    S.metrics().writeSummary(std::cout);
  }
  bool ExportOk = true;
  if (!O.MetricsOut.empty() &&
      !S.metrics().writeJsonLinesFile(O.MetricsOut)) {
    std::fprintf(stderr, "error: cannot write %s\n", O.MetricsOut.c_str());
    ExportOk = false;
  }
  if (!O.TraceOut.empty() &&
      !S.metrics().writeChromeTraceFile(O.TraceOut)) {
    std::fprintf(stderr, "error: cannot write %s\n", O.TraceOut.c_str());
    ExportOk = false;
  }
  if (!ExportOk)
    return 1;
  return Normal + Unavail + Failed == O.Calls || O.Mode == "send" ? 0 : 1;
}
