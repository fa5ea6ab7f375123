//===- promises/load/Load.h - Open-loop workload generation ----*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production-traffic workload subsystem (docs/WORKLOADS.md): open-loop
/// arrival processes — Poisson and heavy-tailed bounded-Pareto
/// inter-arrivals, shaped by diurnal ramps and step/spike overload storms —
/// driving fiber-backed simulated clients against the call-stream apps
/// (KvStore echo/put traffic and TPC-C-style multi-partition new-order
/// transactions coordinated over TwoPhase with coenter-style fan-out).
///
/// Open loop means clients do *not* slow down when the server does: the
/// arrival generator keeps its schedule regardless of outcomes, each
/// arrival runs in its own fiber, and only that fiber blocks on the call.
/// That is what makes overload real — offered load stays at 2x capacity
/// while the admission/breaker/retry machinery decides what to shed.
///
/// At quiescence a graceful-degradation invariant battery runs: goodput at
/// 2x offered overload must stay above a floor of measured capacity (no
/// congestion collapse), shed and fast-failed calls must be rejected
/// before execution (cheap rejection, cross-checked against counters and
/// trace events), retry volume must stay inside the budgets, breaker
/// half-open probes must be bounded, compliant tenants must keep their
/// p99 SLO while another tenant storms, and the shared quiescence audit
/// (harness/World.h) must hold — including with a full
/// crash/partition/loss chaos plan running *during* the storm.
///
/// Everything is a pure function of (scenario, seed): a failing seed
/// replays byte-identically via the printed loadsim command.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_LOAD_LOAD_H
#define PROMISES_LOAD_LOAD_H

#include "promises/harness/Plan.h"
#include "promises/sim/Simulation.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace promises::load {

/// Inter-arrival process for one tenant. Both are open-loop: the next
/// arrival time never depends on outcomes.
enum class Arrival : uint8_t {
  Poisson, ///< Exponential inter-arrivals (memoryless).
  Pareto,  ///< Bounded Pareto: bursty, heavy-tailed gaps with the same
           ///< mean rate — the worst case for admission control.
};

/// Time-varying rate shape, as a multiplier on TenantSpec::RateCps.
enum class Shape : uint8_t {
  Steady,  ///< Factor 1 throughout.
  Diurnal, ///< 1 + Amplitude * sin(2*pi * t / Duration): one "day" per run.
  Step,    ///< StormFactor inside [StormStartFrac, StormEndFrac), else 1.
  Spike,   ///< Same mechanics as Step; named for short, violent windows.
};

/// What each arrival does.
enum class OpKind : uint8_t {
  Echo,     ///< One KvStore echo RPC (the pure overload workload).
  KvPut,    ///< One KvStore put (state-bearing, still one call).
  NewOrder, ///< TPC-C-style new-order: a TwoPhase transaction staging
            ///< writes across every partition, then two-phase commit.
};

/// One tenant: an independent open-loop client population with its own
/// rate, arrival process, shape, resilience policy, and SLO.
struct TenantSpec {
  std::string Name;
  double RateCps = 10000; ///< Offered arrivals/sec at shape factor 1.
  Arrival Arr = Arrival::Poisson;
  double ParetoAlpha = 1.5; ///< Tail index (must be > 1 for a finite mean).
  Shape Sh = Shape::Steady;
  double StormFactor = 1.0;    ///< Rate multiplier inside the storm window.
  double StormStartFrac = 0.5; ///< Storm window as fractions of Duration.
  double StormEndFrac = 1.0;
  double DiurnalAmplitude = 0.6;
  OpKind Op = OpKind::Echo;
  /// Agent lanes per server: each lane is one call-stream, so this bounds
  /// how many admission slots the tenant can occupy under a per-stream
  /// quota and how much stream-order queueing its calls see.
  size_t Streams = 4;
  sim::Time Deadline = 0;    ///< Per-call wire deadline; 0 = none.
  int RetryAttempts = 1;     ///< >1 enables the idempotent retry policy.
  double RetryBudget = 8.0;  ///< Per-endpoint token bucket seed.
  double RetryCredit = 0.5;  ///< Tokens credited back per success.
  sim::Time RetryBackoff = sim::msec(2);
  /// Compliant tenants stay inside their own capacity share; the battery
  /// enforces their SLO even while other tenants storm.
  bool Compliant = false;
  sim::Time SloP99 = sim::msec(20); ///< p99 latency SLO.
  double SloMultiplier = 2.0;       ///< Battery allows p99 up to SLO * this.
};

/// One named workload scenario: servers, service cost, admission/breaker
/// knobs, and the tenant mix.
struct LoadScenario {
  std::string Name;
  std::string Summary;
  size_t Servers = 1; ///< Server guardians (partitions for NewOrder).
  sim::Time Duration = sim::msec(400); ///< Arrival window; then drain.
  sim::Time ServiceTime = sim::msec(1); ///< Handler service time per call.
  size_t MaxPendingCalls = 32;     ///< Guardian admission bound.
  size_t MaxPendingPerStream = 0;  ///< Per-stream quota (tenant isolation).
  int BreakerThreshold = 0;        ///< Client breaker; 0 = off.
  sim::Time BreakerCooldown = sim::msec(10);
  /// The measurement split: arrivals in [0, SplitFrac * Duration) form the
  /// base (capacity-measuring) window, the rest the overload window.
  double SplitFrac = 0.5;
  /// When > 0: overload-window goodput must be at least this fraction of
  /// what that window could have served, min(its offered rate,
  /// base-window goodput) (the no-congestion-collapse floor).
  double GoodputFloor = 0;
  bool Chaos = false; ///< Run a chaos fault plan during the storm.
  std::string ChaosProfile = "mixed";
  /// Durable servers: every partition gets WAL-backed stable stores
  /// (KvStore redo log + TxnKv prepared/decision log), NewOrder tenants
  /// run the durable presumed-abort 2PC through a coordinator kit, and a
  /// crash applies the media-fault model before recovery replays the log
  /// (docs/DURABILITY.md). The durability battery then audits the media
  /// offline at quiescence. Off creates no stores: trace hashes stay
  /// bit-identical to previous releases.
  bool Storage = false;
  double TornRate = 0.3;
  double LostRate = 0.7;
  std::vector<TenantSpec> Tenants;

  /// The built-in scenario catalogue (docs/WORKLOADS.md).
  static const std::vector<LoadScenario> &all();
  static const LoadScenario *byName(std::string_view Name);
  static std::vector<std::string> names();
};

/// One run's parameters. Every observable is a function of these.
struct LoadOptions {
  uint64_t Seed = 1;
  LoadScenario Scenario;
  double RateScale = 1.0;     ///< Scales every tenant's RateCps.
  double DurationScale = 1.0; ///< Scales the scenario Duration.
  sim::BackendKind Backend = sim::BackendKind::Fiber; ///< The only engine.
  /// Force durable storage onto a scenario that does not enable it
  /// (loadsim --storage-faults); negative rates defer to the scenario.
  bool ForceStorage = false;
  double TornRate = -1;
  double LostRate = -1;
};

/// Per-tenant observations.
struct TenantReport {
  std::string Name;
  uint64_t Offered = 0;   ///< Arrivals generated (transactions for NewOrder).
  uint64_t Completed = 0; ///< Arrivals whose outcome was tallied.
  uint64_t Normal = 0;    ///< Good completions (committed transactions).
  uint64_t Shed = 0;      ///< Final outcome unavailable("overloaded").
  uint64_t FastFails = 0; ///< Final outcome unavailable("circuit open").
  uint64_t Expired = 0;   ///< unavailable("deadline expired").
  uint64_t OtherUnavailable = 0; ///< Breaks, crashes, shutdowns.
  uint64_t Failed = 0;
  uint64_t ExceptionReplies = 0; ///< Typed app exceptions (e.g. conflicts).
  uint64_t TxnAborted = 0;       ///< NewOrder: clean two-phase aborts.
  uint64_t TxnInDoubt = 0;       ///< NewOrder: the 2PC blocking window.
  uint64_t Retries = 0;          ///< Retry attempts issued for this tenant.
  uint64_t BaseOffered = 0, BaseNormal = 0; ///< Arrivals in the base window.
  uint64_t OverOffered = 0, OverNormal = 0; ///< Arrivals in the overload window.
  double GoodputCps = 0; ///< Normal / Duration.
  double P50Us = 0, P99Us = 0, P999Us = 0; ///< Latency of Normal completions.
  bool SloChecked = false;
  bool SloOk = true;
};

/// What one run observed, beyond what every harness run reports (the
/// fault tallies stay zero unless the scenario runs a fault plan).
struct LoadReport : harness::RunReport {
  std::vector<TenantReport> Tenants;

  // Aggregates over all tenants.
  uint64_t Offered = 0, Completed = 0, Normal = 0;
  uint64_t Shed = 0, FastFails = 0, Expired = 0, Retries = 0;
  uint64_t Executions = 0;  ///< Handler bodies entered, all servers.
  uint64_t ServerShed = 0;  ///< call.shed, summed over server incarnations.
  uint64_t ServerExpired = 0;
  double CapacityCps = 0;   ///< Analytic: MaxPendingCalls / ServiceTime.
  double BaseGoodputCps = 0, OverGoodputCps = 0;
  double GoodputRatio = 0;  ///< Over / Base.
  double P50Us = 0, P99Us = 0, P999Us = 0; ///< All-tenant Normal latency.

  // Durability tallies (zero unless the run is durable). The battery
  // audits the media offline: every committed transaction applied on
  // every partition, no prepared lock surviving recovery unresolved.
  uint64_t StorageCrashes = 0; ///< Media crash events applied.
  uint64_t TornTails = 0;      ///< Crashes that left a torn record.
  uint64_t Replayed = 0;       ///< Records the final incarnations replayed.
  uint64_t InDoubtRecovered = 0; ///< Prepared txns revived by replay.
  uint64_t ResolvedCommits = 0;  ///< Resolver redo outcomes.
  uint64_t ResolvedAborts = 0;   ///< Resolver presumed-abort outcomes.
  uint64_t TxnCommitted = 0;     ///< Gtids durably decided by coordinators.

  /// One line: goodput, tails, sheds, hash (violations not included).
  std::string summary() const;
};

/// Runs the scenario and checks the graceful-degradation battery at
/// quiescence. Deterministic: equal options give equal reports, including
/// the trace hash.
LoadReport runLoad(const LoadOptions &O);

/// The loadsim command line that reproduces \p O.
std::string replayCommand(const LoadOptions &O);

} // namespace promises::load

#endif // PROMISES_LOAD_LOAD_H
