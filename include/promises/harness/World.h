//===- promises/harness/World.h - Seeded fault world -----------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The world skeleton both seeded harnesses run in (docs/FAULTS.md): a
/// simulation recording its trace-event stream, a simulated network,
/// server slots hosting a succession of guardian incarnations and media
/// that crash with their node, the fault-plan interpreter, the quiescence
/// audit, and the trace digest and post-mortem read from the simulation's
/// registry. A harness derives its world from this one and supplies what
/// a fresh server incarnation installs; it keeps only its workload and
/// its scenario-specific checks.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_HARNESS_WORLD_H
#define PROMISES_HARNESS_WORLD_H

#include "promises/harness/Plan.h"
#include "promises/net/Network.h"
#include "promises/runtime/Guardian.h"
#include "promises/sim/Simulation.h"
#include "promises/storage/Storage.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace promises::harness {

/// Loss recovery tightened to fault time scales, so that breaks land
/// within a fault outage instead of dominating the run.
stream::StreamConfig faultStreamConfig();

/// The ambient network of a fault profile (its base loss, duplication and
/// jitter, and a 1 ms propagation delay).
net::NetConfig faultNetConfig(const ChaosProfile &P);

/// One server identity: a node hosting a succession of guardian
/// incarnations.
struct ServerSlot {
  net::NodeId Node = 0;
  runtime::Guardian *Current = nullptr;
  bool TransportDead = false; ///< Shutdown injected since last incarnation.
  /// The slot's stable stores. They belong to the node, not to an
  /// incarnation (a disk outlives the processes using it): each crash of
  /// the node applies the media-fault model, and the next incarnation
  /// replays them before serving.
  std::vector<std::unique_ptr<storage::StableStore>> Media;
};

class World {
public:
  /// Installs the services of a fresh server incarnation: the one
  /// decision each harness makes for itself. \p Gen numbers incarnations
  /// across all slots, from 1.
  using InstallFn =
      std::function<void(size_t Slot, uint32_t Gen, runtime::Guardian &G)>;

  /// Builds the simulation, the network (its seed derived from \p Seed)
  /// and the server and client nodes (srv0.., then cli0..). No guardian
  /// exists yet: set ServerConfig and add the slots' media, then install
  /// the servers, then add the clients.
  World(uint64_t Seed, net::NetConfig NC, size_t Servers, size_t Clients,
        InstallFn Install);

  /// Gives \p Slot one more stable store.
  void addMedia(size_t Slot, storage::StorageConfig SC);

  /// Starts a new guardian incarnation in \p Slot and runs the install
  /// callback on it. Earlier incarnations stay alive for the audit.
  void installServer(size_t Slot);

  /// Starts client \p C's guardian on its node, with its own retransmit
  /// seed.
  runtime::Guardian &addClient(size_t C, std::string Name,
                               runtime::GuardianConfig GC);

  /// Schedules every action of \p Plan; each tallies the faults it
  /// actually causes.
  void schedule(const ChaosPlan &Plan);

  /// Fills the shared part of \p R once the simulation drained: the fault
  /// tallies, the virtual end time, the trace digest, and a violation for
  /// each breach the quiescence audit finds. The audit wants no process
  /// still live, every datagram delivered or dropped, and on every client
  /// and every server incarnation every issued call settled, no timer
  /// armed, and no call process or gated call leaked.
  void conclude(RunReport &R);

  /// Fills \p R's post-mortem with the last PostMortemEvents recorded
  /// events, one formatted line each. Harnesses call it for a failed run
  /// only.
  void postMortem(RunReport &R) const;
  static constexpr size_t PostMortemEvents = 16;

  /// Every server incarnation's config; each gets its own retransmit
  /// seed.
  runtime::GuardianConfig ServerConfig;
  sim::Simulation S;
  net::SimNetwork Net;
  std::vector<ServerSlot> Slots;
  std::vector<net::NodeId> ClientNodes;
  /// Every server incarnation, in install order.
  std::vector<std::unique_ptr<runtime::Guardian>> ServerGuardians;
  std::vector<std::unique_ptr<runtime::Guardian>> ClientGuardians;

private:
  void applyAction(const ChaosAction &A);

  uint64_t Seed;
  InstallFn Install;
  uint32_t NextGen = 0;
  FaultTally Faults;
};

} // namespace promises::harness

#endif // PROMISES_HARNESS_WORLD_H
