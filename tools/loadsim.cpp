//===- loadsim.cpp - Deterministic overload/workload driver -----------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Runs one of the named workload scenarios (see docs/WORKLOADS.md) over one
// or many seeds and reports graceful-degradation battery violations. Every
// run is a pure function of its options, so a failing seed is reproduced
// exactly by the printed replay command:
//
//   loadsim --scenario storm --seeds 10
//   loadsim --scenario tenants --seed 42 --backend thread
//   loadsim --scenario storm --bench-out BENCH_9.json
//
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "promises/load/Load.h"

#include <cstdio>
#include <string>

using namespace promises;
using namespace promises::load;

int main(int Argc, char **Argv) {
  cli::SweepOptions SW;
  LoadOptions LO;
  std::string Scenario = "storm";
  bool List = false;
  std::string BenchOut; ///< Write the first seed's BENCH_9 JSON here.

  cli::Table Flags = cli::sweepFlags(SW);
  Flags.insert(
      Flags.end(),
      {cli::choice("--scenario", "S", " (default storm)", Scenario,
                   LoadScenario::names()),
       cli::toggle("--list", "list scenarios with their summaries and exit",
                   List),
       cli::number("--rate-scale", "F",
                   "scale every tenant's offered rate (default 1)",
                   LO.RateScale, 1e-6, 1e6),
       cli::number("--duration-scale", "F",
                   "scale the scenario duration (default 1)",
                   LO.DurationScale, 1e-6, 1e6),
       cli::backend(LO.Backend),
       cli::toggle("--storage-faults",
                   "force durable WAL-backed servers onto the\n"
                   "scenario (see docs/DURABILITY.md)",
                   LO.ForceStorage),
       cli::number("--torn-rate", "F",
                   "P(lost suffix is torn mid-record); default: the\n"
                   "scenario's rate (0.3)",
                   LO.TornRate, 0, 1),
       cli::number("--lost-rate", "F",
                   "P(crash loses the un-synced suffix); default:\n"
                   "the scenario's rate (0.7)",
                   LO.LostRate, 0, 1),
       cli::text("--bench-out", "FILE",
                 "write the first seed's bench_overload JSON record",
                 BenchOut)});
  if (!cli::parse(Argc, Argv, Flags)) {
    cli::usage(Argv[0], Flags);
    return 2;
  }
  if (List) {
    for (const LoadScenario &Sc : LoadScenario::all())
      std::printf("%-12s %s\n", Sc.Name.c_str(), Sc.Summary.c_str());
    return 0;
  }
  LO.Scenario = *LoadScenario::byName(Scenario);

  return cli::sweep<LoadOptions, LoadReport>(
      SW, Scenario,
      [&](uint64_t Seed) {
        LO.Seed = Seed;
        return LO;
      },
      runLoad, replayCommand,
      [&](const LoadOptions &O, const LoadReport &R) {
        if (O.Seed != SW.Seed || BenchOut.empty())
          return 0;
        std::FILE *F = std::fopen(BenchOut.c_str(), "w");
        if (!F) {
          std::fprintf(stderr, "error: cannot write %s\n", BenchOut.c_str());
          return 2;
        }
        std::fprintf(F, "%s\n", benchJson(O, R).c_str());
        std::fclose(F);
        return 0;
      });
}
