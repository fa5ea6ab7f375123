//===- Load.cpp - Open-loop workload generation ----------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/load/Load.h"

#include "promises/apps/KvStore.h"
#include "promises/apps/TwoPhase.h"
#include "promises/harness/World.h"
#include "promises/runtime/RemoteHandler.h"
#include "promises/support/Rng.h"
#include "promises/support/StrUtil.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

using namespace promises;
using namespace promises::load;
using harness::mixSeed;
using sim::Time;

//===----------------------------------------------------------------------===//
// Scenario catalogue
//===----------------------------------------------------------------------===//

namespace {

LoadScenario steadyScenario() {
  LoadScenario Sc;
  Sc.Name = "steady";
  Sc.Summary = "two compliant tenants (Poisson echo + Pareto put) well "
               "under capacity; the do-no-harm baseline with SLOs on";
  Sc.Servers = 1;
  Sc.Duration = sim::msec(300);
  Sc.ServiceTime = sim::msec(2);
  Sc.MaxPendingCalls = 16; // Capacity 8k cps; offered 3.5k.
  Sc.GoodputFloor = 0.85;  // No storm: both halves must look alike.
  TenantSpec Web;
  Web.Name = "web";
  Web.RateCps = 2000;
  Web.Op = OpKind::Echo;
  Web.Compliant = true;
  Web.SloP99 = sim::msec(5);
  TenantSpec Batch;
  Batch.Name = "batch";
  Batch.RateCps = 1500;
  Batch.Arr = Arrival::Pareto;
  Batch.Op = OpKind::KvPut;
  Batch.Compliant = true;
  Batch.SloP99 = sim::msec(10);
  Sc.Tenants = {Web, Batch};
  return Sc;
}

LoadScenario stormScenario() {
  LoadScenario Sc;
  Sc.Name = "storm";
  Sc.Summary = "the headline overload test: Poisson echo near capacity, "
               "step to 2x at half time; goodput must hold the floor";
  Sc.Servers = 1;
  Sc.Duration = sim::msec(400);
  Sc.ServiceTime = sim::msec(2);
  Sc.MaxPendingCalls = 8; // 8 parallel slots x 2ms => 4k cps capacity.
  Sc.GoodputFloor = 0.7;
  TenantSpec T;
  T.Name = "web";
  T.RateCps = 3000; // 0.75 of capacity base; 1.5x capacity in the storm.
  T.Sh = Shape::Step;
  T.StormFactor = 2.0;
  T.Streams = 8;
  Sc.Tenants = {T};
  return Sc;
}

LoadScenario spikeScenario() {
  LoadScenario Sc;
  Sc.Name = "spike";
  Sc.Summary = "heavy-tailed Pareto arrivals with a 5x flash spike, "
               "deadlines and budgeted retries riding along";
  Sc.Servers = 1;
  Sc.Duration = sim::msec(400);
  Sc.ServiceTime = sim::msec(1);
  Sc.MaxPendingCalls = 8; // Capacity 8k cps.
  Sc.GoodputFloor = 0.7;
  TenantSpec T;
  T.Name = "flash";
  T.RateCps = 2000;
  T.Arr = Arrival::Pareto;
  T.ParetoAlpha = 1.3;
  T.Sh = Shape::Spike;
  T.StormFactor = 5.0;
  T.StormStartFrac = 0.6;
  T.StormEndFrac = 0.75;
  T.Deadline = sim::msec(8);
  T.RetryAttempts = 3;
  T.RetryBudget = 4.0;
  Sc.Tenants = {T};
  return Sc;
}

LoadScenario diurnalScenario() {
  LoadScenario Sc;
  Sc.Name = "diurnal";
  Sc.Summary = "one simulated day: a sinusoidal ramp whose peak exceeds "
               "capacity, so the top of the day sheds and the trough drains";
  Sc.Servers = 1;
  Sc.Duration = sim::msec(400);
  Sc.ServiceTime = sim::msec(2);
  Sc.MaxPendingCalls = 8; // Capacity 4k cps; peak offered 5.4k.
  Sc.GoodputFloor = 0;    // The halves are peak vs trough by design.
  TenantSpec T;
  T.Name = "day";
  T.RateCps = 3000;
  T.Sh = Shape::Diurnal;
  T.DiurnalAmplitude = 0.8;
  T.Streams = 8;
  Sc.Tenants = {T};
  return Sc;
}

LoadScenario tenantsScenario() {
  LoadScenario Sc;
  Sc.Name = "tenants";
  Sc.Summary = "multi-tenant isolation: a noisy tenant storms to 5x while "
               "a compliant tenant must keep its p99 SLO behind the "
               "per-stream quota";
  Sc.Servers = 1;
  Sc.Duration = sim::msec(300);
  Sc.ServiceTime = sim::msec(2);
  Sc.MaxPendingCalls = 24;    // Capacity 12k cps...
  Sc.MaxPendingPerStream = 2; // ...but one stream holds at most 2 slots.
  Sc.GoodputFloor = 0.5;
  TenantSpec Noisy;
  Noisy.Name = "noisy";
  Noisy.RateCps = 1000;
  Noisy.Arr = Arrival::Pareto;
  Noisy.Sh = Shape::Step;
  Noisy.StormFactor = 5.0;
  Noisy.StormStartFrac = 0.4;
  Noisy.Streams = 2; // Quota caps it at 4 concurrent executions.
  TenantSpec Paying;
  Paying.Name = "paying";
  Paying.RateCps = 1500;
  Paying.Streams = 8;
  Paying.Compliant = true;
  Paying.SloP99 = sim::msec(5);
  Paying.SloMultiplier = 3.0;
  Sc.Tenants = {Noisy, Paying};
  return Sc;
}

LoadScenario neworderScenario() {
  LoadScenario Sc;
  Sc.Name = "neworder";
  Sc.Summary = "TPC-C-style new-order: multi-partition two-phase "
               "transactions under a 2.5x storm; commit-side ports ride "
               "priority admission so overload cannot strand locks";
  Sc.Servers = 3;
  Sc.Duration = sim::msec(400);
  Sc.ServiceTime = sim::usec(300);
  Sc.MaxPendingCalls = 24; // Per partition.
  Sc.GoodputFloor = 0.5;
  TenantSpec T;
  T.Name = "orders";
  T.RateCps = 500; // Transactions (not calls) per second.
  T.Sh = Shape::Step;
  T.StormFactor = 2.5;
  T.Op = OpKind::NewOrder;
  Sc.Tenants = {T};
  return Sc;
}

LoadScenario neworderCrashScenario() {
  LoadScenario Sc;
  Sc.Name = "neworder-crash";
  Sc.Summary = "durable new-order under a crash storm: WAL-backed "
               "partitions, presumed-abort 2PC, media faults at every "
               "crash; the durability battery audits the logs offline";
  Sc.Servers = 3;
  Sc.Duration = sim::msec(500);
  Sc.ServiceTime = sim::usec(300);
  Sc.MaxPendingCalls = 24;
  Sc.GoodputFloor = 0; // Crashes dominate goodput; the battery gates.
  Sc.Chaos = true;
  Sc.ChaosProfile = "crashes";
  Sc.Storage = true;
  TenantSpec T;
  T.Name = "orders";
  T.RateCps = 300;
  T.Sh = Shape::Step;
  T.StormFactor = 2.0;
  T.Op = OpKind::NewOrder;
  Sc.Tenants = {T};
  return Sc;
}

LoadScenario chaosStormScenario() {
  LoadScenario Sc;
  Sc.Name = "chaos-storm";
  Sc.Summary = "the PR 3/5 chaos battery during a storm: crashes, "
               "partitions and loss bursts while offered load doubles, "
               "with deadlines, retries and breakers on";
  Sc.Servers = 2;
  Sc.Duration = sim::msec(500);
  Sc.ServiceTime = sim::usec(500);
  Sc.MaxPendingCalls = 16;
  Sc.BreakerThreshold = 2;
  Sc.BreakerCooldown = sim::msec(8);
  Sc.GoodputFloor = 0; // Faults dominate goodput; the battery gates.
  Sc.Chaos = true;
  TenantSpec T;
  T.Name = "web";
  T.RateCps = 4000;
  T.Sh = Shape::Step;
  T.StormFactor = 2.0;
  T.Deadline = sim::msec(10);
  T.RetryAttempts = 3;
  T.RetryBudget = 8.0;
  Sc.Tenants = {T};
  return Sc;
}

} // namespace

const std::vector<LoadScenario> &LoadScenario::all() {
  static const std::vector<LoadScenario> Sc = {
      steadyScenario(),        stormScenario(),   spikeScenario(),
      diurnalScenario(),       tenantsScenario(), neworderScenario(),
      neworderCrashScenario(), chaosStormScenario()};
  return Sc;
}

const LoadScenario *LoadScenario::byName(std::string_view Name) {
  for (const LoadScenario &Sc : all())
    if (Sc.Name == Name)
      return &Sc;
  return nullptr;
}

std::vector<std::string> LoadScenario::names() {
  std::vector<std::string> N;
  for (const LoadScenario &Sc : all())
    N.push_back(Sc.Name);
  return N;
}

//===----------------------------------------------------------------------===//
// The world
//===----------------------------------------------------------------------===//

namespace {

/// What the current incarnation of one server slot serves.
struct SlotApps {
  apps::KvStore Kv;
  apps::TxnKv Txn;
};

/// Per-tenant mutable tallies plus the registry instruments they feed
/// (docs/OBSERVABILITY.md: the load.* family, labelled {tenant=...}).
struct Tally {
  TenantReport R;
  Counter *COffered = nullptr;
  Counter *CNormal = nullptr;
  Counter *CShed = nullptr;
  Counter *CFastFail = nullptr;
  Counter *CExpired = nullptr;
  Histogram *LatUs = nullptr;
};

struct World : harness::World {
  explicit World(const LoadOptions &Opt);

  void installApps(size_t Slot, runtime::Guardian &G);
  double shapeFactor(const TenantSpec &T, Time Now) const;
  void runArrivals(size_t TIdx);
  void runEcho(size_t TIdx, uint64_t Seq, size_t Lane, Time ArrivedAt);
  void runNewOrder(size_t TIdx, uint64_t Seq, Time ArrivedAt);
  void recordNormal(size_t TIdx, Time ArrivedAt, Time T0);
  void recordUnavailable(size_t TIdx, const std::string &Why);
  LoadReport finish();

  Time splitAt() const {
    return static_cast<Time>(static_cast<double>(Duration) *
                             O.Scenario.SplitFrac);
  }

  LoadOptions O;
  Time Duration; ///< Scenario duration after DurationScale.
  bool UseStorage;
  double TornRate, LostRate;
  /// Durable runs: slot media 0 is the KvStore log, media 1 the TxnKv log.
  std::vector<SlotApps> Apps;
  std::vector<std::vector<stream::AgentId>> Lanes; ///< [tenant][srv*Streams+i]
  std::vector<Tally> Tallies;
  /// Durable runs: one coordinator kit per NewOrder tenant, living on
  /// the tenant's client guardian (client nodes never crash here, so
  /// each kit has exactly one incarnation). CoordId = tenant index.
  std::vector<std::unique_ptr<storage::StableStore>> CoordWals;
  std::vector<apps::TwoPhaseCoordinatorKit> Kits;
  Histogram *GlobalLat = nullptr;
  LoadReport Report;
};

/// MaxInFlightCalls stays 0 (unbounded): the generator is open-loop, so
/// client-side flow control would silently convert overload into sender
/// queueing and hide the server's shedding behavior.
stream::StreamConfig loadStreamConfig(const LoadScenario &Sc) {
  return Sc.Chaos ? harness::faultStreamConfig() : stream::StreamConfig();
}

/// The fault profile a chaos scenario draws its plan and ambient network
/// from.
const harness::ChaosProfile &chaosProfile(const LoadScenario &Sc) {
  const harness::ChaosProfile *P =
      harness::ChaosProfile::byName(Sc.ChaosProfile);
  return P ? *P : harness::ChaosProfile::mixed();
}

net::NetConfig netConfig(const LoadScenario &Sc) {
  if (Sc.Chaos)
    return harness::faultNetConfig(chaosProfile(Sc));
  // Clean wire: losses would blur the cheap-rejection conservation checks,
  // and the point of the non-chaos scenarios is overload alone.
  net::NetConfig NC;
  NC.Propagation = sim::usec(200);
  return NC;
}

World::World(const LoadOptions &Opt)
    : harness::World(Opt.Seed, netConfig(Opt.Scenario), Opt.Scenario.Servers,
                     Opt.Scenario.Tenants.size(),
                     [this](size_t Slot, uint32_t, runtime::Guardian &G) {
                       installApps(Slot, G);
                     }),
      O(Opt),
      Duration(static_cast<Time>(
          static_cast<double>(Opt.Scenario.Duration) * Opt.DurationScale)),
      UseStorage(Opt.Scenario.Storage || Opt.ForceStorage),
      TornRate(Opt.TornRate >= 0 ? Opt.TornRate : Opt.Scenario.TornRate),
      LostRate(Opt.LostRate >= 0 ? Opt.LostRate : Opt.Scenario.LostRate),
      Apps(Opt.Scenario.Servers) {
  const LoadScenario &Sc = O.Scenario;
  GlobalLat = &S.metrics().histogram("load.latency_us");
  ServerConfig.Stream = loadStreamConfig(Sc);
  ServerConfig.MaxPendingCalls = Sc.MaxPendingCalls;
  ServerConfig.MaxPendingPerStream = Sc.MaxPendingPerStream;

  if (UseStorage) {
    for (size_t I = 0; I != Sc.Servers; ++I) {
      storage::StorageConfig KC;
      KC.Name = strprintf("srv%zu.kv", I);
      KC.Faults = {LostRate, TornRate, mixSeed(O.Seed, 7000 + I)};
      addMedia(I, KC);
      storage::StorageConfig TC;
      TC.Name = strprintf("srv%zu.txn", I);
      TC.Faults = {LostRate, TornRate, mixSeed(O.Seed, 7100 + I)};
      addMedia(I, TC);
    }
    CoordWals.resize(Sc.Tenants.size());
    Kits.resize(Sc.Tenants.size());
  }
  for (size_t I = 0; I != Sc.Servers; ++I)
    installServer(I);

  if (Sc.MaxPendingCalls != 0 && Sc.ServiceTime != 0)
    Report.CapacityCps = static_cast<double>(Sc.MaxPendingCalls) * 1e9 *
                         static_cast<double>(Sc.Servers) /
                         static_cast<double>(Sc.ServiceTime);

  Tallies.resize(Sc.Tenants.size());
  Lanes.resize(Sc.Tenants.size());
  for (size_t T = 0; T != Sc.Tenants.size(); ++T) {
    const TenantSpec &Ten = Sc.Tenants[T];
    Tally &Ta = Tallies[T];
    Ta.R.Name = Ten.Name;
    MetricLabels L{{"tenant", Ten.Name}};
    Ta.COffered = &S.metrics().counter("load.offered", L);
    Ta.CNormal = &S.metrics().counter("load.normal", L);
    Ta.CShed = &S.metrics().counter("load.shed", L);
    Ta.CFastFail = &S.metrics().counter("load.fast_failed", L);
    Ta.CExpired = &S.metrics().counter("load.expired", L);
    Ta.LatUs = &S.metrics().histogram("load.latency_us", L);

    runtime::GuardianConfig GC;
    GC.Stream = loadStreamConfig(Sc);
    if (Sc.BreakerThreshold > 0) {
      GC.Stream.BreakerThreshold = Sc.BreakerThreshold;
      GC.Stream.BreakerCooldown = Sc.BreakerCooldown;
    }
    runtime::Guardian &G =
        addClient(T, strprintf("cli-%s", Ten.Name.c_str()), GC);
    if (UseStorage && Ten.Op == OpKind::NewOrder) {
      storage::StorageConfig CC;
      CC.Name = strprintf("coord%zu", T);
      // Client nodes never crash in load plans; the kit's media only
      // needs to exist so decisions are forced before phase 2.
      CC.Faults = {0.0, 0.0, mixSeed(O.Seed, 7200 + T)};
      CoordWals[T] = std::make_unique<storage::StableStore>(S, CC);
      Kits[T] = apps::installTwoPhaseCoordinator(G, *CoordWals[T], T);
    }
    for (size_t Srv = 0; Srv != Sc.Servers; ++Srv)
      for (size_t I = 0; I != std::max<size_t>(1, Ten.Streams); ++I)
        Lanes[T].push_back(G.newAgent());
    G.spawnProcess("arrivals", [this, T] { runArrivals(T); });
  }

  if (Sc.Chaos) {
    // Faults stop (and the cleanup phase heals everything) well before
    // arrivals do, so the run always drains.
    schedule(harness::ChaosPlan::generate(
        chaosProfile(Sc),
        {O.Seed, Sc.Tenants.size(), Sc.Servers, Duration / 2, false}));
  }
}

void World::installApps(size_t Slot, runtime::Guardian &G) {
  SlotApps &A = Apps[Slot];
  // The dying incarnation's resolver tallies would vanish with it;
  // accumulate them before the new incarnation replaces the state.
  if (UseStorage && A.Txn.Store) {
    Report.InDoubtRecovered += A.Txn.Store->InDoubtRecovered;
    Report.ResolvedCommits += A.Txn.Store->ResolvedCommits;
    Report.ResolvedAborts += A.Txn.Store->ResolvedAborts;
  }
  const LoadScenario &Sc = O.Scenario;
  // The service ports run in parallel (the paper's explicit override):
  // MaxPendingCalls then bounds *concurrency*, so the guardian is an
  // N-slot loss system with capacity MaxPendingCalls / ServiceTime.
  G.setParallelGroup(runtime::Guardian::DefaultGroup);
  apps::KvStoreConfig KvC;
  KvC.ServiceTime = Sc.ServiceTime;
  apps::TxnKvConfig TxC;
  TxC.ServiceTime = Sc.ServiceTime;
  if (UseStorage) {
    KvC.Wal = Slots[Slot].Media[0].get();
    TxC.Wal = Slots[Slot].Media[1].get();
    // One status probe: route by the gtid's coordinator id to the owning
    // tenant's kit, called from this incarnation over a fresh lane.
    TxC.QueryStatus = [this, GP = &G](uint64_t Gtid) -> int {
      size_t Cid = static_cast<size_t>(
          apps::TwoPhaseCoordinatorKit::State::coordOf(Gtid));
      if (Cid >= Kits.size() || !Kits[Cid].St)
        return -1;
      auto H = runtime::bindHandler(*GP, GP->newAgent(),
                                    Kits[Cid].StatusPort);
      auto Out = H.call(Gtid);
      return Out.isNormal() ? static_cast<int>(Out.value()) : -1;
    };
  }
  A.Kv = apps::installKvStore(G, KvC);
  A.Txn = apps::installTxnKv(G, TxC);
}

double World::shapeFactor(const TenantSpec &T, Time Now) const {
  double Frac = static_cast<double>(Now) / static_cast<double>(Duration);
  switch (T.Sh) {
  case Shape::Steady:
    return 1.0;
  case Shape::Diurnal:
    return std::max(
        0.0, 1.0 + T.DiurnalAmplitude * std::sin(2.0 * M_PI * Frac));
  case Shape::Step:
  case Shape::Spike:
    return Frac >= T.StormStartFrac && Frac < T.StormEndFrac ? T.StormFactor
                                                             : 1.0;
  }
  return 1.0;
}

void World::runArrivals(size_t TIdx) {
  const TenantSpec &T = O.Scenario.Tenants[TIdx];
  Tally &Ta = Tallies[TIdx];
  Rng R(mixSeed(O.Seed, 100 + TIdx));
  double Rate = T.RateCps * O.RateScale; // Mean arrivals/sec at factor 1.
  double PeakFactor = 1.0;
  switch (T.Sh) {
  case Shape::Steady:
    break;
  case Shape::Diurnal:
    PeakFactor = 1.0 + T.DiurnalAmplitude;
    break;
  case Shape::Step:
  case Shape::Spike:
    PeakFactor = std::max(1.0, T.StormFactor);
    break;
  }
  double Peak = Rate * PeakFactor; // Generator rate before thinning.
  uint64_t Seq = 0;

  for (;;) {
    // Draw the next inter-arrival gap at the peak rate...
    double U = std::clamp(R.unit(), 1e-12, 1.0 - 1e-12);
    double GapSec;
    if (T.Arr == Arrival::Poisson) {
      GapSec = -std::log(1.0 - U) / Peak;
    } else {
      // Bounded Pareto with mean 1/Peak: xm = (a-1)/(a*Peak), capped at
      // 1000 mean gaps so one draw cannot swallow the whole run.
      double Alpha = std::max(1.05, T.ParetoAlpha);
      double Xm = (Alpha - 1.0) / (Alpha * Peak);
      GapSec = std::min(Xm / std::pow(U, 1.0 / Alpha), 1000.0 / Peak);
    }
    S.sleep(std::max<Time>(1, static_cast<Time>(GapSec * 1e9)));
    Time Now = S.now();
    if (Now >= Duration)
      return;
    // ...then thin it down to the shaped rate (Lewis-Shedler): accept
    // with probability rate(now)/Peak. The generator never looks at
    // outcomes — that is what keeps the loop open.
    if (R.unit() * Peak >= shapeFactor(T, Now) * Rate)
      continue;

    ++Seq;
    ++Ta.R.Offered;
    Ta.COffered->inc();
    if (Now < splitAt())
      ++Ta.R.BaseOffered;
    else
      ++Ta.R.OverOffered;

    if (T.Op == OpKind::NewOrder) {
      uint64_t MySeq = Seq;
      ClientGuardians[TIdx]->spawnProcess(
          strprintf("txn%llu", static_cast<unsigned long long>(Seq)),
          [this, TIdx, MySeq, Now] { runNewOrder(TIdx, MySeq, Now); });
    } else {
      size_t Lane = R.below(Lanes[TIdx].size());
      uint64_t MySeq = Seq;
      ClientGuardians[TIdx]->spawnProcess(
          strprintf("call%llu", static_cast<unsigned long long>(Seq)),
          [this, TIdx, MySeq, Lane, Now] {
            runEcho(TIdx, MySeq, Lane, Now);
          });
    }
  }
}

void World::recordNormal(size_t TIdx, Time ArrivedAt, Time T0) {
  Tally &Ta = Tallies[TIdx];
  ++Ta.R.Completed;
  ++Ta.R.Normal;
  Ta.CNormal->inc();
  if (ArrivedAt < splitAt())
    ++Ta.R.BaseNormal;
  else
    ++Ta.R.OverNormal;
  double Us = static_cast<double>(S.now() - T0) / 1000.0;
  Ta.LatUs->observe(Us);
  GlobalLat->observe(Us);
}

void World::recordUnavailable(size_t TIdx, const std::string &Why) {
  Tally &Ta = Tallies[TIdx];
  ++Ta.R.Completed;
  if (Why == core::reasons::Overloaded) {
    ++Ta.R.Shed;
    Ta.CShed->inc();
  } else if (Why == core::reasons::CircuitOpen) {
    ++Ta.R.FastFails;
    Ta.CFastFail->inc();
  } else if (Why == core::reasons::DeadlineExpired) {
    ++Ta.R.Expired;
    Ta.CExpired->inc();
  } else {
    ++Ta.R.OtherUnavailable;
  }
}

void World::runEcho(size_t TIdx, uint64_t Seq, size_t Lane, Time ArrivedAt) {
  const TenantSpec &T = O.Scenario.Tenants[TIdx];
  size_t Streams = std::max<size_t>(1, T.Streams);
  size_t Srv = Lane / Streams;
  SlotApps &SS = Apps[Srv];
  Tally &Ta = Tallies[TIdx];
  Time T0 = S.now();

  auto configure = [&](auto &H) -> auto & {
    if (T.Deadline != 0)
      H.withDeadline(T.Deadline);
    if (T.RetryAttempts > 1) {
      runtime::RetryPolicy RP;
      RP.MaxAttempts = T.RetryAttempts;
      RP.Backoff = T.RetryBackoff;
      RP.BackoffMax = T.RetryBackoff * 8;
      RP.Budget = T.RetryBudget;
      RP.BudgetCredit = T.RetryCredit;
      // Echo and put are idempotent by construction.
      H.withRetryPolicy(RP).declareIdempotent();
    }
    return H;
  };
  auto tallyOutcome = [&](const auto &Out) {
    if (Out.isNormal()) {
      recordNormal(TIdx, ArrivedAt, T0);
    } else if (Out.template is<core::Unavailable>()) {
      recordUnavailable(TIdx,
                        Out.template get<core::Unavailable>().Reason);
    } else if (Out.template is<core::Failure>()) {
      ++Ta.R.Completed;
      ++Ta.R.Failed;
    } else {
      ++Ta.R.Completed;
      ++Ta.R.ExceptionReplies;
    }
  };

  if (T.Op == OpKind::KvPut) {
    auto H = runtime::bindHandler(*ClientGuardians[TIdx],
                                  Lanes[TIdx][Lane], SS.Kv.Put);
    tallyOutcome(configure(H).call(
        strprintf("k%llu", static_cast<unsigned long long>(Seq % 1024)),
        strprintf("v%llu", static_cast<unsigned long long>(Seq))));
  } else {
    auto H = runtime::bindHandler(*ClientGuardians[TIdx],
                                  Lanes[TIdx][Lane], SS.Kv.Echo);
    tallyOutcome(configure(H).call(
        strprintf("p%llu", static_cast<unsigned long long>(Seq))));
  }
}

void World::runNewOrder(size_t TIdx, uint64_t Seq, Time ArrivedAt) {
  const LoadScenario &Sc = O.Scenario;
  Tally &Ta = Tallies[TIdx];
  Time T0 = S.now();

  // One new-order transaction: stage a handful of writes spread over
  // every partition (item lines + the order row), then two-phase commit
  // across all of them, the coordinator fanning out from this process.
  apps::TwoPhaseCoordinator Txn(*ClientGuardians[TIdx],
                                UseStorage ? &Kits[TIdx] : nullptr);
  for (size_t Srv = 0; Srv != Sc.Servers; ++Srv)
    Txn.enlist(Apps[Srv].Txn);
  size_t Puts = std::max<size_t>(4, Sc.Servers);
  for (size_t I = 0; I != Puts; ++I) {
    size_t Part = (Seq + I) % Sc.Servers;
    // A modest keyspace per partition so concurrent transactions contend
    // for locks occasionally (aborts are part of the workload).
    Txn.put(Part,
            strprintf("w%llu",
                      static_cast<unsigned long long>((Seq * 7 + I) % 997)),
            strprintf("o%llu", static_cast<unsigned long long>(Seq)));
    if (Txn.doomed())
      break;
  }
  switch (Txn.commit()) {
  case apps::TwoPhaseResult::Committed:
    recordNormal(TIdx, ArrivedAt, T0);
    break;
  case apps::TwoPhaseResult::Aborted:
    ++Ta.R.Completed;
    ++Ta.R.TxnAborted;
    break;
  case apps::TwoPhaseResult::InDoubt:
    ++Ta.R.Completed;
    ++Ta.R.TxnInDoubt;
    break;
  }
}

//===----------------------------------------------------------------------===//
// The graceful-degradation battery
//===----------------------------------------------------------------------===//

LoadReport World::finish() {
  const LoadScenario &Sc = O.Scenario;
  LoadReport &Rep = Report;
  // 1-3. Quiescence, network conservation, and per-transport
  // conservation and hygiene on clients and every server incarnation;
  // the trace digest is the determinism oracle. A live process at
  // quiescence is the regression gate for the shed-gap hang class: a
  // shed call the execution gate waits on leaves every successor on its
  // stream gated for good.
  conclude(Rep);
  auto violate = [&](std::string Msg) {
    Rep.Violations.push_back(std::move(Msg));
  };

  // Server-side aggregates.
  for (auto &G : ServerGuardians) {
    Rep.Executions += G->callsExecuted();
    Rep.ServerShed += G->callsShed();
    Rep.ServerExpired += G->deadlinesExpired();
  }
  uint64_t ShedEvents = 0;
  for (const TraceEvent &E : S.metrics().events())
    if (E.Kind == EventKind::CallShed)
      ++ShedEvents;

  // 4. Per-tenant accounting, retry-budget bounds, and breaker bounds.
  double SplitSec = static_cast<double>(splitAt()) / 1e9;
  double OverSec = static_cast<double>(Duration) / 1e9 - SplitSec;
  double OverOfferedCps = 0; // Arrivals in the overload window, per second.
  for (size_t T = 0; T != Sc.Tenants.size(); ++T) {
    const TenantSpec &Ten = Sc.Tenants[T];
    TenantReport &R = Tallies[T].R;
    R.Retries = ClientGuardians[T]->retriesIssued();

    // Every arrival resolves to exactly one tallied outcome.
    if (R.Completed != R.Offered)
      violate(strprintf("%s: %llu offered != %llu completed",
                        Ten.Name.c_str(), (unsigned long long)R.Offered,
                        (unsigned long long)R.Completed));
    if (R.Normal + R.Shed + R.FastFails + R.Expired + R.OtherUnavailable +
            R.Failed + R.ExceptionReplies + R.TxnAborted + R.TxnInDoubt !=
        R.Completed)
      violate(strprintf("%s: outcome split does not sum to %llu completed",
                        Ten.Name.c_str(),
                        (unsigned long long)R.Completed));

    // Retry volume bounded by the budget: every retry takes a token;
    // tokens come from the initial per-endpoint bucket (one per server
    // incarnation at worst), success credits, and fast-fail refunds.
    if (Ten.RetryAttempts > 1) {
      double Bound =
          static_cast<double>(ServerGuardians.size()) * Ten.RetryBudget +
          Ten.RetryCredit * static_cast<double>(R.Normal) +
          static_cast<double>(R.FastFails) + 1.0;
      if (static_cast<double>(R.Retries) > Bound)
        violate(strprintf("%s: %llu retries exceed the budget bound %.1f",
                          Ten.Name.c_str(), (unsigned long long)R.Retries,
                          Bound));
    } else if (R.Retries != 0) {
      violate(strprintf("%s: %llu retries issued with retries disabled",
                        Ten.Name.c_str(), (unsigned long long)R.Retries));
    }

    // Breaker accounting: probes are the bounded trickle — at most one
    // per open plus the fast-fails that kept it open; closes only follow
    // opens; and with no breaker configured nothing may fire.
    stream::StreamCounters C = ClientGuardians[T]->transport().counters();
    if (C.BreakerProbes > C.BreakerOpens + C.BreakerFastFails)
      violate(strprintf("%s: %llu probes > %llu opens + %llu fast-fails",
                        Ten.Name.c_str(), (unsigned long long)C.BreakerProbes,
                        (unsigned long long)C.BreakerOpens,
                        (unsigned long long)C.BreakerFastFails));
    if (C.BreakerCloses > C.BreakerOpens)
      violate(strprintf("%s: %llu breaker closes > %llu opens",
                        Ten.Name.c_str(), (unsigned long long)C.BreakerCloses,
                        (unsigned long long)C.BreakerOpens));
    if (Sc.BreakerThreshold == 0 &&
        (C.BreakerOpens | C.BreakerFastFails | C.BreakerProbes))
      violate(strprintf("%s: breaker fired with no breaker configured",
                        Ten.Name.c_str()));

    // Reduce.
    R.GoodputCps = static_cast<double>(R.Normal) /
                   (static_cast<double>(Duration) / 1e9);
    R.P50Us = Tallies[T].LatUs->percentile(50);
    R.P99Us = Tallies[T].LatUs->percentile(99);
    R.P999Us = Tallies[T].LatUs->percentile(99.9);
    Rep.Offered += R.Offered;
    Rep.Completed += R.Completed;
    Rep.Normal += R.Normal;
    Rep.Shed += R.Shed;
    Rep.FastFails += R.FastFails;
    Rep.Expired += R.Expired;
    Rep.Retries += R.Retries;
    Rep.BaseGoodputCps += SplitSec > 0
                              ? static_cast<double>(R.BaseNormal) / SplitSec
                              : 0;
    Rep.OverGoodputCps +=
        OverSec > 0 ? static_cast<double>(R.OverNormal) / OverSec : 0;
    OverOfferedCps +=
        OverSec > 0 ? static_cast<double>(R.OverOffered) / OverSec : 0;
  }
  Rep.GoodputRatio =
      Rep.BaseGoodputCps > 0 ? Rep.OverGoodputCps / Rep.BaseGoodputCps : 0;
  Rep.P50Us = GlobalLat->percentile(50);
  Rep.P99Us = GlobalLat->percentile(99);
  Rep.P999Us = GlobalLat->percentile(99.9);

  // 5. Client-observed sheds are bounded by server sheds (a shed reply
  // can be lost, and a retried shed tallies once client-side).
  if (Rep.Shed > Rep.ServerShed)
    violate(strprintf("%llu client-observed sheds > %llu server sheds",
                      (unsigned long long)Rep.Shed,
                      (unsigned long long)Rep.ServerShed));

  if (!Sc.Chaos) {
    // 6. Cheap rejection: on a clean wire every delivered call either
    // executed, was shed before execution, or was dropped at its deadline
    // — sheds never consume an execution slot, and the counter, the trace
    // stream, and the transports all agree. With wire deadlines in play
    // the sender also cancels delivered-but-unstarted calls, so the
    // identity relaxes to a bound.
    uint64_t Delivered = 0;
    bool AnyDeadline = false;
    for (auto &G : ServerGuardians)
      Delivered += G->transport().counters().CallsDelivered;
    for (const TenantSpec &Ten : Sc.Tenants)
      AnyDeadline |= Ten.Deadline != 0;
    uint64_t Settled = Rep.Executions + Rep.ServerShed + Rep.ServerExpired;
    if (AnyDeadline ? Settled > Delivered : Settled != Delivered)
      violate(strprintf("cheap rejection: %llu delivered vs %llu executed "
                        "+ %llu shed + %llu expired",
                        (unsigned long long)Delivered,
                        (unsigned long long)Rep.Executions,
                        (unsigned long long)Rep.ServerShed,
                        (unsigned long long)Rep.ServerExpired));
    if (ShedEvents != Rep.ServerShed)
      violate(strprintf("%llu call.shed trace events != %llu counted sheds",
                        (unsigned long long)ShedEvents,
                        (unsigned long long)Rep.ServerShed));

    // 7. Graceful degradation: overload-window goodput holds the floor
    // of what that window could have served — its offered rate, capped by
    // the goodput the base window measured. Arrivals are open-loop, so the
    // offered rate does not depend on the system; a window offered more
    // than the base window served is held to the plain ratio.
    if (Sc.GoodputFloor > 0) {
      double Servable = std::min(OverOfferedCps, Rep.BaseGoodputCps);
      if (Rep.BaseGoodputCps <= 0)
        violate("goodput floor set but base-window goodput is zero");
      else if (Rep.OverGoodputCps < Sc.GoodputFloor * Servable)
        violate(strprintf("goodput collapse: %.0f cps in the overload "
                          "window, below floor %.3f of %.0f servable cps "
                          "(base goodput %.0f, offered %.0f)",
                          Rep.OverGoodputCps, Sc.GoodputFloor, Servable,
                          Rep.BaseGoodputCps, OverOfferedCps));
    }

    // 8. Tenant isolation: compliant tenants keep their p99 SLO and are
    // not starved, whatever the other tenants are doing.
    for (size_t T = 0; T != Sc.Tenants.size(); ++T) {
      const TenantSpec &Ten = Sc.Tenants[T];
      if (!Ten.Compliant)
        continue;
      TenantReport &R = Tallies[T].R;
      R.SloChecked = true;
      double SloUs = static_cast<double>(Ten.SloP99) / 1000.0;
      if (R.P99Us > Ten.SloMultiplier * SloUs) {
        R.SloOk = false;
        violate(strprintf("%s: p99 %.0fus breaches SLO %.0fus x %.1f",
                          Ten.Name.c_str(), R.P99Us, SloUs,
                          Ten.SloMultiplier));
      }
      if (static_cast<double>(R.Normal) <
          0.9 * static_cast<double>(R.Completed))
        violate(strprintf("%s: compliant tenant starved: %llu/%llu normal",
                          Ten.Name.c_str(), (unsigned long long)R.Normal,
                          (unsigned long long)R.Completed));
    }

    // 9. Transactional hygiene: after the storm no partition may hold
    // leftover transactions or locks (priority admission for
    // prepare/commit/abort is what makes this hold under overload), and
    // commit accounting is exact on a clean wire.
    bool AnyTxn = false;
    for (const TenantSpec &Ten : Sc.Tenants)
      AnyTxn |= Ten.Op == OpKind::NewOrder;
    if (AnyTxn) {
      uint64_t Commits = 0, InDoubt = 0, Committed = 0;
      for (size_t Srv = 0; Srv != Sc.Servers; ++Srv) {
        const auto &St = *Apps[Srv].Txn.Store;
        if (!St.Txns.empty())
          violate(strprintf("srv%zu: %zu transactions stranded", Srv,
                            St.Txns.size()));
        if (!St.Locks.empty())
          violate(strprintf("srv%zu: %zu locks stranded", Srv,
                            St.Locks.size()));
        Commits += St.Commits;
      }
      for (const Tally &Ta : Tallies) {
        Committed += Ta.R.Normal;
        InDoubt += Ta.R.TxnInDoubt;
      }
      if (InDoubt != 0)
        violate(strprintf("%llu transactions in doubt on a clean wire",
                          (unsigned long long)InDoubt));
      if (Commits != Committed * Sc.Servers)
        violate(strprintf("commit conservation: %llu participant commits "
                          "!= %llu committed x %zu partitions",
                          (unsigned long long)Commits,
                          (unsigned long long)Committed, Sc.Servers));
    }
  }

  // 9b. Durability battery (durable runs; chaos does not exempt it): the
  // media alone must reconstruct exactly the surviving state, every
  // durably committed transaction must be applied on every partition,
  // and no prepared lock may outlive recovery unresolved. Stranded
  // *unprepared* transactions are permitted — a lost best-effort abort
  // leaves one behind by design, and presumed abort is precisely the
  // rule that makes that safe.
  if (UseStorage) {
    std::set<uint64_t> Decided;
    for (const auto &Kit : Kits)
      if (Kit.St) {
        Decided.insert(Kit.St->Committed.begin(), Kit.St->Committed.end());
        Rep.TxnCommitted += Kit.St->Committed.size();
      }
    uint64_t NewOrderNormal = 0, NewOrderInDoubt = 0;
    for (size_t T = 0; T != Sc.Tenants.size(); ++T)
      if (Sc.Tenants[T].Op == OpKind::NewOrder) {
        NewOrderNormal += Tallies[T].R.Normal;
        NewOrderInDoubt += Tallies[T].R.TxnInDoubt;
      }
    if (Decided.size() < NewOrderNormal ||
        Decided.size() > NewOrderNormal + NewOrderInDoubt)
      violate(strprintf("%zu logged commit decisions outside "
                        "[%llu normal, %llu normal+indoubt]",
                        Decided.size(), (unsigned long long)NewOrderNormal,
                        (unsigned long long)(NewOrderNormal +
                                             NewOrderInDoubt)));

    for (size_t Srv = 0; Srv != Sc.Servers; ++Srv) {
      const storage::StableStore &KvWal = *Slots[Srv].Media[0];
      const storage::StableStore &TxnWal = *Slots[Srv].Media[1];
      const SlotApps &SS = Apps[Srv];
      Rep.StorageCrashes += KvWal.crashes() + TxnWal.crashes();
      Rep.TornTails += KvWal.tornTails() + TxnWal.tornTails();
      Rep.Replayed += SS.Kv.Store->Replayed + SS.Txn.Store->Replayed;
      Rep.InDoubtRecovered += SS.Txn.Store->InDoubtRecovered;
      Rep.ResolvedCommits += SS.Txn.Store->ResolvedCommits;
      Rep.ResolvedAborts += SS.Txn.Store->ResolvedAborts;

      const apps::TxnKv::State &Live = *SS.Txn.Store;
      for (const auto &[Id, T] : Live.Txns)
        if (T.Prepared)
          violate(strprintf("srv%zu: txn %u still prepared (in doubt) at "
                            "quiescence",
                            Srv, Id));
      apps::TxnKv::State Media = apps::replayTxnState(TxnWal.scan());
      if (!Media.Txns.empty())
        violate(strprintf("srv%zu: %zu prepared txns on media lack a "
                          "logged decision",
                          Srv, Media.Txns.size()));
      if (Media.Data != Live.Data)
        violate(strprintf("srv%zu: txn media replay diverges from live "
                          "data (%zu vs %zu keys)",
                          Srv, Media.Data.size(), Live.Data.size()));
      if (Media.Applied != Live.Applied)
        violate(strprintf("srv%zu: txn media replay diverges from live "
                          "applied set (%zu vs %zu gtids)",
                          Srv, Media.Applied.size(), Live.Applied.size()));
      if (apps::replayKvData(KvWal.scan()) != SS.Kv.Store->Data)
        violate(strprintf("srv%zu: kv media replay diverges from live "
                          "state",
                          Srv));
      for (uint64_t G : Decided)
        if (!Live.Applied.count(G))
          violate(strprintf("srv%zu: committed gtid %llx not applied "
                            "after recovery",
                            Srv, (unsigned long long)G));
      for (uint64_t G : Live.Applied)
        if (!Decided.count(G))
          violate(strprintf("srv%zu: applied gtid %llx never durably "
                            "committed",
                            Srv, (unsigned long long)G));
    }
    if (Rep.TornTails > Rep.StorageCrashes)
      violate(strprintf("%llu torn tails > %llu storage crashes",
                        (unsigned long long)Rep.TornTails,
                        (unsigned long long)Rep.StorageCrashes));
  }

  for (Tally &Ta : Tallies)
    Rep.Tenants.push_back(Ta.R);
  return Rep;
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

LoadReport load::runLoad(const LoadOptions &O) {
  World W(O);
  W.S.run();
  return W.finish();
}

std::string load::replayCommand(const LoadOptions &O) {
  std::string Cmd = strprintf("loadsim --scenario %s --seed %llu",
                              O.Scenario.Name.c_str(),
                              static_cast<unsigned long long>(O.Seed));
  if (O.RateScale != 1.0)
    Cmd += strprintf(" --rate-scale %g", O.RateScale);
  if (O.DurationScale != 1.0)
    Cmd += strprintf(" --duration-scale %g", O.DurationScale);
  if (O.ForceStorage)
    Cmd += " --storage-faults";
  if (O.TornRate >= 0)
    Cmd += strprintf(" --torn-rate %g", O.TornRate);
  if (O.LostRate >= 0)
    Cmd += strprintf(" --lost-rate %g", O.LostRate);
  return Cmd;
}

std::string LoadReport::summary() const {
  std::string Dur;
  if (StorageCrashes | TornTails | Replayed | InDoubtRecovered |
      ResolvedCommits | ResolvedAborts | TxnCommitted)
    Dur = strprintf(" committed=%llu scrash=%llu torn=%llu replay=%llu "
                    "indoubt=%llu resolved=%llu/%llu",
                    (unsigned long long)TxnCommitted,
                    (unsigned long long)StorageCrashes,
                    (unsigned long long)TornTails,
                    (unsigned long long)Replayed,
                    (unsigned long long)InDoubtRecovered,
                    (unsigned long long)ResolvedCommits,
                    (unsigned long long)ResolvedAborts);
  return strprintf(
      "offered=%llu normal=%llu shed=%llu/%llu fastfail=%llu expired=%llu "
      "retries=%llu exec=%llu goodput=%.0f->%.0fcps ratio=%.2f "
      "p50=%.0fus p99=%.0fus p999=%.0fus vms=%.3f trace=%llu@%016llx",
      (unsigned long long)Offered, (unsigned long long)Normal,
      (unsigned long long)Shed, (unsigned long long)ServerShed,
      (unsigned long long)FastFails, (unsigned long long)Expired,
      (unsigned long long)Retries, (unsigned long long)Executions,
      BaseGoodputCps, OverGoodputCps, GoodputRatio, P50Us, P99Us, P999Us,
      static_cast<double>(VirtualEnd) / 1e6, (unsigned long long)TraceEvents,
      (unsigned long long)TraceHash) +
         Dur;
}
