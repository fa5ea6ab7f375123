//===- chaossim.cpp - Deterministic chaos-testing driver -------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Runs the chaos harness (see docs/FAULTS.md) over one or many seeds and
// reports invariant violations. Every run is a pure function of its
// options, so a failing seed is reproduced exactly by the printed replay
// command:
//
//   chaossim --seeds 100 --profile mixed
//   chaossim --seed 42 --profile crashes --plan
//
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "promises/chaos/Chaos.h"

#include <cstdio>
#include <string>

using namespace promises;
using namespace promises::chaos;

int main(int Argc, char **Argv) {
  cli::SweepOptions SW;
  ChaosOptions CO;
  std::string Profile = "mixed";
  uint64_t HorizonMs = 300;
  bool PrintPlan = false;

  cli::Table Flags = cli::sweepFlags(SW);
  Flags.insert(
      Flags.end(),
      {cli::choice("--profile", "P", " (default mixed)", Profile,
                   ChaosProfile::names()),
       cli::integer("--ops", "N", "ops per client (default 96)",
                    CO.OpsPerClient),
       cli::integer("--clients", "N", "client nodes (default 2)", CO.Clients,
                    1, 1000),
       cli::integer("--servers", "N", "server nodes (default 2)", CO.Servers,
                    1, 1000),
       cli::integer("--horizon-ms", "T", "fault-injection window (default 300)",
                    HorizonMs, 0, 1000000000),
       cli::toggle("--deadlines",
                   "resilience workload: deadlines, cancels, retries,\n"
                   "breakers, admission control (see docs/FAULTS.md)",
                   CO.Deadlines),
       cli::toggle("--corrupt",
                   "flip bits in delivered datagrams (ambient rate +\n"
                   "planned corruption bursts; see docs/FAULTS.md)",
                   CO.Corrupt),
       cli::toggle("--dup", "raise datagram duplication above the profile rate",
                   CO.Dup),
       cli::toggle("--reorder",
                   "give each copy a chance of bounded extra delay",
                   CO.Reorder),
       cli::toggle("--storage-faults",
                   "durable workload: WAL-backed servers, acked puts,\n"
                   "crash-time media faults + recovery replay\n"
                   "(see docs/DURABILITY.md)",
                   CO.Storage),
       cli::number("--torn-rate", "F",
                   "P(lost suffix is torn mid-record) (default 0.3)",
                   CO.TornRate, 0, 1),
       cli::number("--lost-rate", "F",
                   "P(crash loses the un-synced suffix) (default 0.7)",
                   CO.LostRate, 0, 1),
       cli::toggle("--plan", "print the fault plan before each run",
                   PrintPlan)});
  if (!cli::parse(Argc, Argv, Flags)) {
    cli::usage(Argv[0], Flags);
    return 2;
  }
  CO.Profile = *ChaosProfile::byName(Profile);
  CO.Horizon = sim::msec(HorizonMs);

  return cli::sweep<ChaosOptions, ChaosReport>(
      SW, Profile,
      [&](uint64_t Seed) {
        CO.Seed = Seed;
        if (PrintPlan) {
          ChaosPlan Plan = planFor(CO);
          std::printf("plan for seed %llu [%s], %zu actions:\n",
                      (unsigned long long)Seed, Plan.Profile.c_str(),
                      Plan.Actions.size());
          for (const ChaosAction &A : Plan.Actions)
            std::printf("  %s\n", formatAction(A).c_str());
        }
        return CO;
      },
      runChaos, replayCommand);
}
