//===- bench_hotpath.cpp - Data-plane hot-path microbench -----------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Wall-clock cost of the data-plane hot path: one call's full journey
// issue -> encode -> seal -> deliver -> decode -> claim, measured over a
// real transport pair in one simulation. Unlike the EXPERIMENTS.md benches
// (virtual-time, protocol-level), this one measures what the host CPU
// actually pays per call, plus two machine-independent companions:
//
//  * allocs/call — heap allocations counted by a global operator new hook,
//  * seal-copied bytes/call — payload bytes memcpy'd while sealing frames
//    (wire::frameStats()); the zero-copy send path must keep this at 0.
//
// Emits the PR 7+ perf-trajectory point (BENCH_7.json): run with --out.
// CI's perf-smoke job fails if ns/call regresses >25% against the
// committed baseline (tools/check_bench.py).
//
//===----------------------------------------------------------------------===//

#include "promises/core/Promise.h"
#include "promises/net/Network.h"
#include "promises/sim/Simulation.h"
#include "promises/stream/StreamTransport.h"
#include "promises/wire/Frame.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
      IC.Complete(stream::ReplyStatus::Normal, 0, std::move(IC.Args), {});
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

template <typename Fn>
Sample measure(const Options &Opt, Fn &&Run) {
  World W;
  wire::Bytes Args(Opt.ArgBytes, 0xAB);
  Sample Out;
  W.Sim.spawn("driver", [&] {
    Run(W, Args, Opt.Warmup); // Warm slabs, rings, and stream state.
    uint64_t Allocs0 = GAllocs.load(std::memory_order_relaxed);
    wire::FrameStats FS0 = wire::frameStats();
    uint64_t Bytes0 = W.Net.counters().BytesSent;
    auto T0 = std::chrono::steady_clock::now();
    Run(W, Args, Opt.Calls);
    auto T1 = std::chrono::steady_clock::now();
    uint64_t Allocs1 = GAllocs.load(std::memory_order_relaxed);
    wire::FrameStats FS1 = wire::frameStats();
    uint64_t Bytes1 = W.Net.counters().BytesSent;
    double N = static_cast<double>(Opt.Calls);
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
  });
  W.Sim.run();
  return Out;
}

void printSample(const char *Name, const Sample &S) {
  std::printf("%-8s ns/call %9.1f   allocs/call %6.2f   "
              "seal-copied B/call %8.1f   wire B/call %8.1f\n",
              Name, S.NsPerCall, S.AllocsPerCall, S.SealCopiedPerCall,
              S.WireBytesPerCall);
}

void writeJson(std::FILE *F, const char *Name, const Sample &S,
               const char *Trail) {
  std::fprintf(F,
               " \"%s\": {\"ns_per_call\": %.1f, \"allocs_per_call\": %.2f, "
               "\"seal_copied_bytes_per_call\": %.1f, "
               "\"wire_bytes_per_call\": %.1f}%s\n",
               Name, S.NsPerCall, S.AllocsPerCall, S.SealCopiedPerCall,
               S.WireBytesPerCall, Trail);
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", A.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--calls")
      Opt.Calls = std::strtoull(Next(), nullptr, 10);
    else if (A == "--warmup")
      Opt.Warmup = std::strtoull(Next(), nullptr, 10);
    else if (A == "--arg-bytes")
      Opt.ArgBytes = std::strtoull(Next(), nullptr, 10);
    else if (A == "--pipeline")
      Opt.Pipeline = std::strtoull(Next(), nullptr, 10);
    else if (A == "--out")
      Opt.Out = Next();
    else {
      std::fprintf(stderr,
                   "usage: bench_hotpath [--calls N] [--warmup N] "
                   "[--arg-bytes N] [--pipeline N] [--out FILE]\n");
      return A == "--help" ? 0 : 2;
    }
  }

  Sample Rpc = measure(Opt, [](World &W, const wire::Bytes &Args,
                               uint64_t N) { runRpc(W, Args, N); });
  Sample Stream =
      measure(Opt, [&](World &W, const wire::Bytes &Args, uint64_t N) {
        runStream(W, Args, N, Opt.Pipeline);
      });

  std::printf("bench_hotpath: %llu calls, %zu-byte args, pipeline %zu\n",
              static_cast<unsigned long long>(Opt.Calls), Opt.ArgBytes,
              Opt.Pipeline);
  printSample("rpc", Rpc);
  printSample("stream", Stream);

  if (!Opt.Out.empty()) {
    std::FILE *F = std::fopen(Opt.Out.c_str(), "w");
    if (!F) {
      std::perror("open --out");
      return 1;
    }
    std::fprintf(F,
                 "{\"bench\": \"bench_hotpath\", \"pr\": 7, \"calls\": %llu, "
                 "\"arg_bytes\": %zu, \"pipeline\": %zu,\n",
                 static_cast<unsigned long long>(Opt.Calls), Opt.ArgBytes,
                 Opt.Pipeline);
    writeJson(F, "rpc", Rpc, ",");
    writeJson(F, "stream", Stream, "}");
    std::fclose(F);
    std::printf("wrote %s\n", Opt.Out.c_str());
  }
  return 0;
}
