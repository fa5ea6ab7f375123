//===- promises/chaos/Chaos.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic chaos harness for the recovery paths the paper's
/// robustness story depends on (Sections 2-3): crashes and partitions must
/// surface as `unavailable`/`failure`, streams must reincarnate without
/// violating exactly-once ordered delivery, and orphaned executions must
/// be destroyed.
///
/// A seed-driven ChaosPlan injects node crashes/restarts, link partitions
/// and heals, loss bursts, and transport shutdowns at randomized virtual
/// times while a multi-client/multi-server workload runs; at quiescence a
/// battery of invariants is checked (counter conservation, exactly-once
/// per-stream execution order, no leaked timers, no live or gated call
/// processes, every promise resolved).
/// Everything — fault times, workload, trace-event stream — is a pure
/// function of the seed, so a failing seed replays byte-identically and
/// becomes a one-line regression test.
///
/// See docs/FAULTS.md for the profiles, the invariants, and the
/// seed-replay workflow.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_CHAOS_CHAOS_H
#define PROMISES_CHAOS_CHAOS_H

#include "promises/harness/Plan.h"
#include "promises/sim/Simulation.h"

#include <cstdint>
#include <string>
#include <vector>

namespace promises::chaos {

using harness::ChaosAction;
using harness::ChaosPlan;
using harness::ChaosProfile;
using harness::formatAction;

/// One run's parameters. Everything observable is a function of these.
struct ChaosOptions {
  uint64_t Seed = 1;
  ChaosProfile Profile = ChaosProfile::mixed();
  size_t OpsPerClient = 96;
  size_t Clients = 2;
  size_t Servers = 2;
  /// Injection window; after it closes a cleanup phase heals every link
  /// and restarts every crashed node so the workload can drain.
  sim::Time Horizon = sim::msec(300);
  /// Exercise the resilience layer: a deterministic subset of ops carries
  /// wire deadlines, another subset is cancelled mid-flight, idempotent
  /// ops ride a retry policy, clients run a circuit breaker, and servers
  /// shed under admission control. Extra invariants apply (see FAULTS.md).
  bool Deadlines = false;
  /// Byte-level damage (the wire-integrity workload, see FAULTS.md):
  /// Corrupt flips bits in delivered datagrams (ambient rate plus planned
  /// corruption bursts) — every damaged frame must be caught by the
  /// checksum and recovered by retransmission; Dup raises datagram
  /// duplication well above the ambient profile rate; Reorder gives each
  /// copy an independent chance of a bounded extra delay so later sends
  /// overtake it. All three leave every quiescence invariant intact.
  bool Corrupt = false;
  bool Dup = false;
  bool Reorder = false;
  /// Durable-storage workload (--storage-faults): every server slot gets
  /// a WAL-backed stable store that survives crash/restart, a
  /// deterministic subset of ops becomes client-acknowledged durable
  /// puts, and restarted incarnations replay the log before serving.
  /// The rates configure the media-fault model applied at each crash
  /// (docs/DURABILITY.md): the un-synced suffix is lost with LostRate
  /// and then torn with TornRate. Extra durability invariants apply.
  /// Off (the default) creates no stores at all, keeping every seed's
  /// trace hash bit-identical to previous releases.
  bool Storage = false;
  double TornRate = 0.3;
  double LostRate = 0.7;
};

/// The fault plan a run of \p O injects.
ChaosPlan planFor(const ChaosOptions &O);

/// What one run observed, beyond what every harness run reports.
struct ChaosReport : harness::RunReport {
  // Wire integrity (all zero unless ChaosOptions::Corrupt). Every
  // corrupt-frame drop must trace back to an injected corruption, and a
  // "malformed message" drop (frame intact, message undecodable — a local
  // encode bug) is always a violation.
  uint64_t DatagramsCorrupted = 0;   ///< Copies the network bit-flipped.
  uint64_t FramesCorruptDropped = 0; ///< Frames the transports rejected.
  uint64_t MalformedDropped = 0;     ///< Frame-valid but undecodable.

  // Workload tallies. Claimed outcomes must satisfy
  // Normal + Unavailable + Failed + ExceptionReplies == OpsIssued - Sends.
  uint64_t OpsIssued = 0, Sends = 0, Synchs = 0;
  uint64_t Normal = 0, Unavailable = 0, Failed = 0, ExceptionReplies = 0;
  uint64_t Executions = 0;        ///< Handler bodies entered, all servers.
  uint64_t OrphansDestroyed = 0;  ///< Across all server incarnations.
  uint64_t StaleEpochDrops = 0;   ///< Pre-crash datagrams dropped.

  // Durability tallies (all zero unless ChaosOptions::Storage). Every
  // DurableAcked put must be present both in the final incarnation's
  // memory and in an offline replay of the media alone.
  uint64_t DurableAcked = 0;   ///< Client-acknowledged durable puts.
  uint64_t StorageCrashes = 0; ///< Media crash events applied.
  uint64_t TornTails = 0;      ///< Crashes that left a torn record.
  uint64_t Replayed = 0;       ///< Records the final incarnations replayed.

  // Resilience tallies (all zero unless ChaosOptions::Deadlines).
  // Client-observed: final claimed outcomes split by unavailable reason.
  uint64_t Expired = 0, Cancelled = 0, Shed = 0, FastFails = 0;
  // Server-side counters, summed across every incarnation; each bounds
  // its client-observed counterpart from above (replies can be lost to
  // breaks, and retried attempts count once per attempt server-side).
  uint64_t ServerExpired = 0, ServerShed = 0, ServerCancelled = 0;
  uint64_t Retries = 0;     ///< Retry attempts issued, all clients.
  uint64_t CancelsSent = 0; ///< Cancel messages sent, all clients.

  /// One line: tallies + hash (violations not included).
  std::string summary() const;
};

/// Runs the workload under the plan derived from \p O and checks the
/// invariants at quiescence. Deterministic: equal options give equal
/// reports, including the trace hash.
ChaosReport runChaos(const ChaosOptions &O);

/// The chaossim command line that reproduces \p O.
std::string replayCommand(const ChaosOptions &O);

} // namespace promises::chaos

#endif // PROMISES_CHAOS_CHAOS_H
