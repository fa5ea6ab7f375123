//===- World.cpp - Seeded fault world --------------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/harness/World.h"

#include "promises/support/StrUtil.h"

using namespace promises;
using namespace promises::harness;

stream::StreamConfig harness::faultStreamConfig() {
  stream::StreamConfig C;
  C.MaxBatchCalls = 8;
  C.RetransmitTimeout = sim::msec(6);
  C.RetransmitTimeoutMax = sim::msec(30);
  C.MaxRetries = 3;
  return C;
}

net::NetConfig harness::faultNetConfig(const ChaosProfile &P) {
  net::NetConfig NC;
  NC.LossRate = P.BaseLoss;
  NC.DupRate = P.BaseDup;
  NC.JitterMax = P.BaseJitter;
  NC.Propagation = sim::msec(1);
  return NC;
}

namespace {

net::NetConfig seeded(net::NetConfig NC, uint64_t Seed) {
  NC.Seed = mixSeed(Seed, 0);
  return NC;
}

} // namespace

World::World(uint64_t Seed, net::NetConfig NC, size_t Servers,
             size_t Clients, InstallFn Install)
    : Net(S, seeded(NC, Seed)), Slots(Servers), Seed(Seed),
      Install(std::move(Install)) {
  // The trace-event stream is the determinism oracle; always record it.
  S.metrics().setEnabled(true);
  for (size_t I = 0; I != Servers; ++I)
    Slots[I].Node = Net.addNode(strprintf("srv%zu", I));
  for (size_t I = 0; I != Clients; ++I)
    ClientNodes.push_back(Net.addNode(strprintf("cli%zu", I)));
}

void World::addMedia(size_t Slot, storage::StorageConfig SC) {
  Slots[Slot].Media.push_back(
      std::make_unique<storage::StableStore>(S, std::move(SC)));
}

void World::installServer(size_t Slot) {
  ServerSlot &SS = Slots[Slot];
  uint32_t Gen = ++NextGen;
  runtime::GuardianConfig GC = ServerConfig;
  GC.Stream.RetransSeed = mixSeed(Seed, 2000 + Gen);
  auto G = std::make_unique<runtime::Guardian>(
      Net, SS.Node, strprintf("srv%zu#%u", Slot, Gen), GC);
  Install(Slot, Gen, *G);
  SS.Current = G.get();
  SS.TransportDead = false;
  ServerGuardians.push_back(std::move(G));
}

runtime::Guardian &World::addClient(size_t C, std::string Name,
                                    runtime::GuardianConfig GC) {
  GC.Stream.RetransSeed = mixSeed(Seed, 1000 + C);
  ClientGuardians.push_back(std::make_unique<runtime::Guardian>(
      Net, ClientNodes[C], std::move(Name), GC));
  return *ClientGuardians.back();
}

void World::schedule(const ChaosPlan &Plan) {
  for (const ChaosAction &A : Plan.Actions)
    S.schedule(A.At, [this, A] { applyAction(A); });
}

void World::applyAction(const ChaosAction &A) {
  using K = ChaosAction::Kind;
  ServerSlot &SS = Slots[A.Server];
  switch (A.K) {
  case K::CrashNode:
    if (Net.isUp(SS.Node)) {
      Net.crash(SS.Node);
      for (auto &M : SS.Media)
        M->crash(); // Media fault model: the un-synced tail is at risk.
      ++Faults.Crashes;
    }
    break;
  case K::RestartNode:
    if (!Net.isUp(SS.Node)) {
      Net.restart(SS.Node);
      installServer(A.Server);
      ++Faults.Restarts;
    }
    break;
  case K::TransportShutdown:
    if (Net.isUp(SS.Node) && !SS.TransportDead && !SS.Current->crashed()) {
      SS.Current->transport().shutdown();
      SS.TransportDead = true;
      ++Faults.Shutdowns;
    }
    break;
  case K::ServerReincarnate:
    if (Net.isUp(SS.Node) && SS.TransportDead) {
      installServer(A.Server);
      ++Faults.Reincarnations;
    }
    break;
  case K::PartitionLink:
    Net.setPartitioned(ClientNodes[A.Client], SS.Node, true);
    ++Faults.Partitions;
    break;
  case K::HealLink:
    Net.setPartitioned(ClientNodes[A.Client], SS.Node, false);
    break;
  case K::LossBurstStart:
    Net.setLinkLoss(ClientNodes[A.Client], SS.Node, A.Rate);
    ++Faults.LossBursts;
    break;
  case K::LossBurstEnd:
    Net.setLinkLoss(ClientNodes[A.Client], SS.Node, A.Rate);
    break;
  case K::CorruptBurstStart:
    Net.setCorruptRate(A.Rate);
    ++Faults.CorruptBursts;
    break;
  case K::CorruptBurstEnd:
    Net.setCorruptRate(A.Rate);
    break;
  }
}

void World::conclude(RunReport &R) {
  static_cast<FaultTally &>(R) = Faults;
  R.VirtualEnd = S.now();

  // The determinism oracle: the registry digested every event it recorded.
  R.TraceEvents = S.metrics().eventsRecorded();
  R.TraceHash = S.metrics().traceDigest();

  auto violate = [&](std::string Msg) {
    R.Violations.push_back(std::move(Msg));
  };
  // The scheduler drained, so any live process is stuck forever (a missed
  // wakeup on a kill, break or shutdown path).
  if (size_t N = S.liveProcessCount())
    violate(strprintf("%zu processes still live at quiescence", N));

  net::NetCounters NC = Net.counters();
  if (NC.DatagramsSent + NC.DatagramsDuplicated !=
      NC.DatagramsDelivered + NC.DatagramsDropped)
    violate(strprintf("net conservation: %llu sent + %llu dup != %llu "
                      "delivered + %llu dropped",
                      (unsigned long long)NC.DatagramsSent,
                      (unsigned long long)NC.DatagramsDuplicated,
                      (unsigned long long)NC.DatagramsDelivered,
                      (unsigned long long)NC.DatagramsDropped));

  auto audit = [&](runtime::Guardian &G) {
    const char *Who = G.name().c_str();
    stream::StreamCounters C = G.transport().counters();
    if (C.CallsIssued != C.CallsFulfilled + C.CallsBroken)
      violate(strprintf("%s: %llu issued != %llu fulfilled + %llu broken",
                        Who, (unsigned long long)C.CallsIssued,
                        (unsigned long long)C.CallsFulfilled,
                        (unsigned long long)C.CallsBroken));
    if (size_t N = G.transport().armedTimerCount())
      violate(strprintf("%s: %zu timers still armed", Who, N));
    size_t Live = G.liveCallProcessCount();
    if (Live)
      violate(strprintf("%s: %zu call processes leaked", Who, Live));
    if (size_t InTables = G.tabledCallCount(); InTables != Live)
      violate(strprintf("%s: live-call counter %zu != %zu calls in tables",
                        Who, Live, InTables));
    if (size_t N = G.gatedCallCount())
      violate(strprintf("%s: %zu gated calls leaked", Who, N));
  };
  for (auto &G : ClientGuardians)
    audit(*G);
  for (auto &G : ServerGuardians)
    audit(*G);
}

void World::postMortem(RunReport &R) const {
  for (const TraceEvent &E : S.metrics().recentEvents(PostMortemEvents))
    R.PostMortem.push_back(formatEvent(E));
}
