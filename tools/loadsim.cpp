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
//   loadsim --scenario tenants --seed 42
//   loadsim --scenario storm --bench-out BENCH_9.fresh.json
//
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "promises/load/Load.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace promises;
using namespace promises::load;

namespace {

/// The BENCH_9 record of one run. The run is in virtual time, so every
/// number is exact for a build. The battery's violation count, which
/// includes the goodput floor and the tenant SLOs, must stay zero; goodput
/// may drop 25% and the tails grow 50% when scheduling or retransmission
/// legitimately changes.
std::string benchRecord(const LoadOptions &O, const LoadReport &R) {
  auto N = [](uint64_t X) { return static_cast<double>(X); };
  std::vector<cli::Metric> M = {
      {"battery_violations", N(R.Violations.size()), "violations",
       cli::Lower, 0},
      {"overload_goodput_cps", R.OverGoodputCps, "calls/s", cli::Higher,
       0.25},
      {"p99_us", R.P99Us, "us", cli::Lower, 0.5},
      {"p999_us", R.P999Us, "us", cli::Lower, 0.5},
      {"p50_us", R.P50Us, "us", cli::Lower, cli::ReportOnly},
      {"base_goodput_cps", R.BaseGoodputCps, "calls/s", cli::Higher,
       cli::ReportOnly},
      {"goodput_ratio", R.GoodputRatio, "ratio", cli::Higher,
       cli::ReportOnly},
      {"capacity_cps", R.CapacityCps, "calls/s", cli::Higher,
       cli::ReportOnly},
      {"offered", N(R.Offered), "calls", cli::Higher, cli::ReportOnly},
      {"normal", N(R.Normal), "calls", cli::Higher, cli::ReportOnly},
      {"shed", N(R.Shed), "calls", cli::Lower, cli::ReportOnly},
      {"retries", N(R.Retries), "calls", cli::Lower, cli::ReportOnly}};
  for (const TenantReport &T : R.Tenants) {
    auto Add = [&](const char *Key, double V, const char *Unit,
                   cli::Better Dir) {
      M.push_back({T.Name + "." + Key, V, Unit, Dir, cli::ReportOnly});
    };
    Add("goodput_cps", T.GoodputCps, "calls/s", cli::Higher);
    Add("p50_us", T.P50Us, "us", cli::Lower);
    Add("p99_us", T.P99Us, "us", cli::Lower);
    Add("p999_us", T.P999Us, "us", cli::Lower);
    Add("offered", N(T.Offered), "calls", cli::Higher);
    Add("normal", N(T.Normal), "calls", cli::Higher);
    Add("shed", N(T.Shed), "calls", cli::Lower);
  }
  return cli::benchRecord("bench_overload", 9,
                          {{"scenario", O.Scenario.Name},
                           {"seed", O.Seed},
                           {"rate_scale", O.RateScale},
                           {"duration_scale", O.DurationScale},
                           {"storage_faults", O.ForceStorage},
                           {"torn_rate", O.TornRate},
                           {"lost_rate", O.LostRate}},
                          M);
}

} // namespace

int main(int Argc, char **Argv) {
  cli::SweepOptions SW;
  LoadOptions LO;
  std::string Scenario = "storm";
  bool List = false;
  std::string BenchOut; ///< Write the first seed's BENCH_9 record here.

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
        return cli::writeRecord(BenchOut, benchRecord(O, R)) ? 0 : 2;
      });
}
