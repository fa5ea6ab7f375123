//===- bench_pipeline.cpp - Experiment E5 ----------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// E5 (paper Section 4): multi-level cascades. With the straight-line
// program, "All calls to read must start before any calls to compute can
// be made. All results from read must be claimed, and all calls to
// compute must be started, before any calls to write can be made." The
// composed program (one process per stream, promise queues between)
// pipelines the levels.
//
// Sweep the number of items and the number of levels (2..4 stages, each
// on its own guardian). Expect composed ~ max over stages instead of sum,
// so the speedup approaches the level count for balanced stages.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "promises/core/Coenter.h"
#include "promises/core/PromiseQueue.h"
#include "promises/runtime/RemoteHandler.h"
#include "promises/support/StrUtil.h"

#include <benchmark/benchmark.h>

using namespace promises;
using namespace promises::core;
using namespace promises::runtime;

namespace {

constexpr sim::Time Service = sim::usec(200);

struct CascadeWorld {
  sim::Simulation S;
  std::unique_ptr<net::SimNetwork> Net;
  std::unique_ptr<Guardian> Client;
  std::vector<std::unique_ptr<Guardian>> StageG;
  std::vector<HandlerRef<int32_t(int32_t)>> Stage;

  explicit CascadeWorld(int Levels, GuardianConfig GC = GuardianConfig()) {
    Net = std::make_unique<net::SimNetwork>(S, net::NetConfig{});
    Client = std::make_unique<Guardian>(*Net, Net->addNode("client"),
                                        "client", GC);
    for (int L = 0; L < Levels; ++L) {
      auto G = std::make_unique<Guardian>(
          *Net, Net->addNode(strprintf("stage%d", L)),
          strprintf("stage%d", L), GC);
      Stage.push_back(G->addHandler<int32_t(int32_t)>(
          "work", [this](int32_t V) -> Outcome<int32_t> {
            S.sleep(Service);
            return V + 1;
          }));
      StageG.push_back(std::move(G));
    }
  }
};

void BM_Sequential(benchmark::State &State) {
  const int N = static_cast<int>(State.range(0));
  const int Levels = static_cast<int>(State.range(1));
  const size_t Window = static_cast<size_t>(State.range(2));
  for (auto _ : State) {
    GuardianConfig GC;
    GC.Stream.MaxInFlightCalls = Window;
    CascadeWorld W(Levels, GC);
    W.Client->spawnProcess("main", [&] {
      auto A = W.Client->newAgent();
      std::vector<int32_t> Vals(static_cast<size_t>(N));
      for (int I = 0; I < N; ++I)
        Vals[static_cast<size_t>(I)] = I;
      for (int L = 0; L < Levels; ++L) {
        auto H = bindHandler(*W.Client, A, W.Stage[static_cast<size_t>(L)]);
        std::vector<Promise<int32_t>> Ps;
        for (int32_t V : Vals)
          Ps.push_back(H.streamCall(V));
        H.flush();
        for (int I = 0; I < N; ++I)
          Vals[static_cast<size_t>(I)] =
              Ps[static_cast<size_t>(I)].claim().value();
      }
    });
    W.S.run();
    State.counters["vms"] = sim::toMillis(W.S.now());
    benchutil::exportObservability(
        strprintf("pipeline_seq_n%d_l%d_w%zu", N, Levels, Window), W.S);
  }
}

void BM_Composed(benchmark::State &State) {
  const int N = static_cast<int>(State.range(0));
  const int Levels = static_cast<int>(State.range(1));
  const size_t Window = static_cast<size_t>(State.range(2));
  for (auto _ : State) {
    GuardianConfig GC;
    GC.Stream.MaxInFlightCalls = Window;
    CascadeWorld W(Levels, GC);
    W.Client->spawnProcess("main", [&] {
      // Level L consumes Queues[L-1] and produces Queues[L]; level 0
      // generates items.
      std::vector<std::unique_ptr<PromiseQueue<Promise<int32_t>>>> Queues;
      for (int L = 0; L < Levels; ++L)
        Queues.push_back(
            std::make_unique<PromiseQueue<Promise<int32_t>>>(W.S));
      Coenter Co(W.S);
      for (int L = 0; L < Levels; ++L) {
        Co.arm(strprintf("level%d", L), [&, L]() -> ArmResult {
          auto A = W.Client->newAgent();
          auto H = bindHandler(*W.Client, A, W.Stage[static_cast<size_t>(L)]);
          for (int32_t I = 0; I < N; ++I) {
            int32_t In = I;
            if (L > 0)
              In = Queues[static_cast<size_t>(L - 1)]->deq().claim().value();
            Queues[static_cast<size_t>(L)]->enq(H.streamCall(In));
          }
          return H.synch().toExn();
        });
      }
      ArmResult Bad = Co.run();
      // Drain the final queue (results of the last stage).
      for (int I = 0; I < N && !Bad; ++I)
        Queues[static_cast<size_t>(Levels - 1)]->deq().claim();
    });
    W.S.run();
    State.counters["vms"] = sim::toMillis(W.S.now());
    benchutil::exportObservability(
        strprintf("pipeline_comp_n%d_l%d_w%zu", N, Levels, Window), W.S);
  }
}

} // namespace

// The third dimension is the in-flight window (0 = unbounded): pipelining
// through a bounded window still beats the straight-line program, since
// the stages overlap even when each stream admits only 32 unacked calls.
BENCHMARK(BM_Sequential)
    ->ArgsProduct({{32, 128, 512}, {2, 3, 4}, {0, 32}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Composed)
    ->ArgsProduct({{32, 128, 512}, {2, 3, 4}, {0, 32}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
