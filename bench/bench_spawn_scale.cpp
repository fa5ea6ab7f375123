//===- bench_spawn_scale.cpp - Process-scale microbenches (BENCH_6) -------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Measures the kernel numbers the fiber runtime exists for (ROADMAP item
// 1, docs/RUNTIME.md): how fast processes spawn, what a scheduler context
// switch costs, and how many concurrently-blocked processes fit in
// memory. Unlike the E-series benchmarks these measure
// *wall-clock* cost of the scheduler itself, not virtual-time behavior of
// the protocol stack, so this is a bespoke driver rather than a
// google-benchmark harness:
//
//   BM_SpawnScale      spawn N processes, block them all on one queue,
//                      record spawn rate, peak live count, and RSS.
//   BM_SwitchRoundRobin K processes yield in a loop; wall ns per scheduler
//                      round trip (suspend + dispatch + resume). K > 1 so
//                      the ready set looks like a real simulation's, not a
//                      single warm ping-pong pair.
//
// Writes the BENCH_6 record (tools/Cli.h, gated by tools/check_bench.py):
//
//   bench_spawn_scale --procs 300000 --out BENCH_6.fresh.json
//
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "promises/sim/Simulation.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

using namespace promises;
using namespace promises::sim;

namespace {

struct Options {
  size_t Procs = 1'000'000;       ///< Spawn-scale process count.
  size_t SwitchProcs = 64;        ///< Round-robin yielders.
  size_t SwitchIters = 2'000'000; ///< Total yields across yielders.
  std::string Out; ///< JSON output path ("" = stdout only).
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Current resident set in bytes (/proc/self/statm field 2).
size_t rssBytes() {
  FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int N = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (N != 2)
    return 0;
  return static_cast<size_t>(Resident) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

struct SpawnResult {
  double SpawnPerSec = 0;
  size_t MaxLive = 0;
  size_t RssDeltaBytes = 0;
};

/// Spawns N processes that all block on one queue, measures the rate at
/// which they reach their blocked state, then wakes and drains them.
SpawnResult runSpawnScale(size_t N) {
  Simulation S;
  WaitQueue Q(S);
  size_t Woken = 0;
  size_t Rss0 = rssBytes();
  auto T0 = std::chrono::steady_clock::now();
  for (size_t I = 0; I != N; ++I)
    S.spawn("p", [&] {
      Q.wait();
      ++Woken;
    });
  S.runFor(0); // Dispatch every start event: all N run and block.
  double SpawnSecs = secondsSince(T0);
  SpawnResult R;
  R.MaxLive = S.liveProcessCount();
  R.RssDeltaBytes = rssBytes() - Rss0;
  R.SpawnPerSec = static_cast<double>(N) / SpawnSecs;
  Q.notifyAll();
  S.run();
  if (Woken != N || S.liveProcessCount() != 0) {
    std::fprintf(stderr, "error: spawn-scale run incomplete (%zu/%zu)\n",
                 Woken, N);
    std::exit(1);
  }
  return R;
}

/// K processes yielding round-robin: wall-clock ns per scheduler round
/// trip (suspend, event dispatch, resume). The multi-process ready set is
/// what a real simulation's scheduler sees, not a single warm ping-pong
/// pair.
double runSwitchRoundRobin(size_t Procs, size_t TotalIters) {
  Simulation S;
  size_t PerProc = std::max<size_t>(1, TotalIters / Procs);
  for (size_t P = 0; P != Procs; ++P)
    S.spawn("rr", [&S, PerProc] {
      for (size_t I = 0; I != PerProc; ++I)
        S.yieldNow();
    });
  auto T0 = std::chrono::steady_clock::now();
  S.run();
  double Secs = secondsSince(T0);
  return Secs * 1e9 / static_cast<double>(S.contextSwitches());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  cli::Table Flags = {
      cli::integer("--procs", "N", "spawn-scale processes (default 1M)",
                   O.Procs, 1),
      cli::integer("--switch-procs", "N",
                   "round-robin yielder count (default 64)", O.SwitchProcs,
                   1),
      cli::integer("--switch-iters", "N", "total yields (default 2M)",
                   O.SwitchIters, 1),
      cli::text("--out", "FILE", "also write the JSON record to FILE",
                O.Out)};
  if (!cli::parse(Argc, Argv, Flags)) {
    cli::usage(Argv[0], Flags);
    return 2;
  }

  // Spawn-scale last, so the process-wide ru_maxrss peak reflects the
  // large run.
  std::fprintf(stderr, "BM_SwitchRoundRobin %zu procs, %zu iters...\n",
               O.SwitchProcs, O.SwitchIters);
  double SwitchNs = runSwitchRoundRobin(O.SwitchProcs, O.SwitchIters);
  std::fprintf(stderr, "BM_SpawnScale %zu procs...\n", O.Procs);
  SpawnResult Spawn = runSpawnScale(O.Procs);

  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  size_t PeakRss = static_cast<size_t>(RU.ru_maxrss) * 1024; // KB on Linux.

  // Resident bytes per blocked process depend on the count, so --procs is
  // part of the config the gate matches.
  std::string Record = cli::benchRecord(
      "BM_SpawnScale", 6,
      {{"procs", O.Procs},
       {"switch_procs", O.SwitchProcs},
       {"switch_iters", O.SwitchIters}},
      {{"live_procs", static_cast<double>(Spawn.MaxLive), "procs",
        cli::Higher, 0},
       {"spawn_per_s", Spawn.SpawnPerSec, "procs/s", cli::Higher, 2.0},
       {"switch_ns", SwitchNs, "ns", cli::Lower, 0.25},
       {"rss_per_proc_bytes",
        static_cast<double>(Spawn.RssDeltaBytes) /
            static_cast<double>(O.Procs),
        "bytes", cli::Lower, 0.10},
       {"peak_rss_bytes", static_cast<double>(PeakRss), "bytes", cli::Lower,
        cli::ReportOnly}});
  std::fputs(Record.c_str(), stdout);
  return O.Out.empty() || cli::writeRecord(O.Out, Record) ? 0 : 1;
}
