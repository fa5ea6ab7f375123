//===- promises/harness/Plan.h - Seeded fault plans ------------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault vocabulary both seeded harnesses share (docs/FAULTS.md): a
/// profile that shapes the fault mix, the actions a plan is made of, the
/// generator that draws a plan from a seed, and the report fields every
/// run has. The chaos harness runs a plan against its workload; the load
/// harness runs one during a storm.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_HARNESS_PLAN_H
#define PROMISES_HARNESS_PLAN_H

#include "promises/sim/Time.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace promises::harness {

/// Derives an independent 64-bit seed for one consumer (network, a
/// transport, a driver) from the run's seed (SplitMix64 finalizer).
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

/// Shape of the fault mix. The weights pick the next injection's kind;
/// gaps space injections; outages bound how long a fault lasts before its
/// paired heal/restart. Base* are the ambient network conditions outside
/// bursts.
struct ChaosProfile {
  std::string Name;
  double CrashWeight = 0;
  double PartitionWeight = 0;
  double LossBurstWeight = 0;
  double ShutdownWeight = 0;
  sim::Time MinGap = sim::msec(8);
  sim::Time MaxGap = sim::msec(40);
  sim::Time MinOutage = sim::msec(10);
  sim::Time MaxOutage = sim::msec(70);
  double BurstLoss = 0.5;  ///< Link loss rate during a loss burst.
  double BaseLoss = 0.02;  ///< Ambient datagram loss.
  double BaseDup = 0.01;   ///< Ambient datagram duplication.
  sim::Time BaseJitter = sim::usec(500); ///< Ambient reordering jitter.

  static const ChaosProfile &crashes();
  static const ChaosProfile &partitions();
  static const ChaosProfile &loss();
  static const ChaosProfile &mixed();
  /// Profile by name, or nullptr.
  static const ChaosProfile *byName(std::string_view Name);
  static std::vector<std::string> names();
};

/// One planned injection (or its paired recovery).
struct ChaosAction {
  enum class Kind : uint8_t {
    CrashNode,         ///< Crash server Server's node.
    RestartNode,       ///< Restart it and reincarnate its guardian.
    TransportShutdown, ///< Shut down the current server transport only.
    ServerReincarnate, ///< New guardian incarnation on the (up) node.
    PartitionLink,     ///< Cut client Client <-> server Server.
    HealLink,
    LossBurstStart,    ///< Raise loss on the link to Rate.
    LossBurstEnd,      ///< Restore the profile's ambient loss.
    CorruptBurstStart, ///< Raise the network-wide bit-flip rate to Rate.
    CorruptBurstEnd,   ///< Restore the ambient corruption rate.
  };
  sim::Time At = 0;
  Kind K = Kind::CrashNode;
  uint32_t Server = 0;
  uint32_t Client = 0; ///< Only meaningful for link faults.
  double Rate = 0;     ///< Only meaningful for loss bursts.
};

/// Human-readable one-liner for a planned action.
std::string formatAction(const ChaosAction &A);

/// What a plan is drawn for: the seed, the world's shape, and the
/// injection window.
struct PlanShape {
  uint64_t Seed = 1;
  size_t Clients = 2;
  size_t Servers = 2;
  /// Injection window; after it closes a cleanup phase heals every link
  /// and restarts every crashed node so the workload can drain.
  sim::Time Horizon = sim::msec(300);
  /// Mix network-wide corruption bursts in (the wire-integrity workload).
  bool Corrupt = false;
};

/// Ambient bit-flip rate of the wire-integrity workload; planned
/// corruption bursts raise it network-wide for one outage, then restore
/// it.
inline constexpr double AmbientCorruptRate = 0.01;

/// The full, deterministic fault schedule for one (seed, profile, shape).
struct ChaosPlan {
  uint64_t Seed = 0;
  std::string Profile;
  std::vector<ChaosAction> Actions;

  static ChaosPlan generate(const ChaosProfile &P, const PlanShape &Sh);
};

/// Faults a run actually applied (plan actions can be no-ops, e.g. a
/// crash of an already-down node).
struct FaultTally {
  uint64_t Crashes = 0, Restarts = 0, Shutdowns = 0, Reincarnations = 0;
  uint64_t Partitions = 0, LossBursts = 0, CorruptBursts = 0;
};

/// What every harness run reports: its violations, the faults it
/// applied, and the digest of its trace-event stream (the determinism
/// oracle: two runs of the same options must agree exactly).
struct RunReport : FaultTally {
  std::vector<std::string> Violations;
  bool ok() const { return Violations.empty(); }

  /// Every event the run's registry recorded, including those its buffer
  /// no longer keeps (MetricsRegistry::eventsRecorded).
  uint64_t TraceEvents = 0;
  /// The registry's FNV-1a digest over every recorded event's fields, in
  /// record order (MetricsRegistry::traceDigest).
  uint64_t TraceHash = 0;
  sim::Time VirtualEnd = 0;
  /// A failed run's last recorded events, formatted oldest first
  /// (harness::World::postMortem); empty for a run that passed.
  std::vector<std::string> PostMortem;
};

} // namespace promises::harness

#endif // PROMISES_HARNESS_PLAN_H
