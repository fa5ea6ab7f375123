//===- Chaos.cpp - Deterministic fault injection ---------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/chaos/Chaos.h"

#include "promises/apps/KvStore.h"
#include "promises/harness/World.h"
#include "promises/runtime/RemoteHandler.h"
#include "promises/support/StrUtil.h"

#include <algorithm>
#include <map>

using namespace promises;
using namespace promises::chaos;
using harness::mixSeed;

ChaosPlan chaos::planFor(const ChaosOptions &O) {
  return ChaosPlan::generate(
      O.Profile, {O.Seed, O.Clients, O.Servers, O.Horizon, O.Corrupt});
}

//===----------------------------------------------------------------------===//
// Workload
//===----------------------------------------------------------------------===//

namespace {

/// The one declared exception of the chaos service; raised for a
/// deterministic subset of ops so exception replies flow under faults.
struct ChaosBusy {
  static constexpr const char *Name = "chaos_busy";
  uint64_t Op = 0;
};

} // namespace

namespace promises::wire {
template <> struct Codec<ChaosBusy> {
  static void encode(Encoder &E, const ChaosBusy &V) { E.writeU64(V.Op); }
  static ChaosBusy decode(Decoder &D) { return {D.readU64()}; }
};
} // namespace promises::wire

namespace {

constexpr bool opRaises(uint64_t Op) { return Op % 13 == 5; }

/// Slow ops hold the server long enough that a stream superseded after a
/// break can still catch its predecessor executing — the orphan-
/// destruction path (paper, Section 4.2).
constexpr bool opIsSlow(uint64_t Op) { return Op % 23 == 11; }

// Resilience-workload predicates (only consulted when
// ChaosOptions::Deadlines). Deterministic functions of the op number, so
// replays and the relaxed exactly-once invariant agree on which ops may
// legitimately re-execute.
constexpr bool opIdempotent(uint64_t Op) { return Op % 3 == 0; }
constexpr bool opHasDeadline(uint64_t Op) { return Op % 7 == 3; }
constexpr bool opCancels(uint64_t Op) { return Op % 11 == 4; }

/// Retry-policy attempt cap for idempotent ops; the relaxed exactly-once
/// invariant allows up to this many executions per idempotent op.
constexpr int ChaosMaxAttempts = 3;

using RecordSig = uint64_t(uint32_t, uint64_t);
using RecordRef = runtime::HandlerRef<RecordSig, ChaosBusy>;
using RecordHandler = runtime::RemoteHandler<RecordSig, ChaosBusy>;
using RecordPromise = core::Promise<uint64_t, ChaosBusy>;
using RecordOutcome = core::Outcome<uint64_t, ChaosBusy>;

/// One handler execution, as observed server-side.
struct ExecEntry {
  uint32_t Gen = 0; ///< Guardian incarnation (globally unique).
  uint32_t Client = 0;
  uint64_t Op = 0;
};

/// What the current incarnation of one server slot serves.
struct SlotApps {
  RecordRef Record;
  /// Durable mode only: the kv ports the incarnation recovered from the
  /// slot's stable store.
  apps::KvStore Kv;
};

/// A durable put the client saw acknowledged; must survive any later
/// crash schedule.
struct DurableAck {
  size_t Slot = 0;
  std::string Key, Val;
};

/// Deterministic subset of ops that run as durable puts under
/// --storage-faults (disjoint from opIdempotent's Op%3==0).
constexpr bool opDurablePut(uint64_t Op) { return Op % 3 == 1; }

// Wire-integrity workload rates (ChaosOptions::Dup/Reorder).
constexpr double ChaosDupRate = 0.08;
constexpr double ChaosReorderRate = 0.25;
constexpr sim::Time ChaosReorderMax = sim::msec(2);

struct World : harness::World {
  explicit World(const ChaosOptions &Opt);

  void installApps(size_t Slot, uint32_t Gen, runtime::Guardian &G);
  void runDriver(uint32_t Client);
  ChaosReport finish();

  ChaosOptions O;
  std::vector<SlotApps> Apps;
  std::vector<std::vector<stream::AgentId>> Agents; ///< [client][slot].
  std::vector<ExecEntry> Log;
  std::vector<DurableAck> Acked;
  ChaosReport Report;
};

/// The fault-tightened stream config; a small window keeps flow control
/// in play.
stream::StreamConfig chaosStreamConfig() {
  stream::StreamConfig C = harness::faultStreamConfig();
  C.MaxInFlightCalls = 8;
  return C;
}

net::NetConfig netConfig(const ChaosOptions &O) {
  net::NetConfig NC = harness::faultNetConfig(O.Profile);
  // Byte-level damage knobs (the wire-integrity workload).
  if (O.Corrupt)
    NC.CorruptRate = harness::AmbientCorruptRate;
  if (O.Dup)
    NC.DupRate = std::max(NC.DupRate, ChaosDupRate);
  if (O.Reorder) {
    NC.ReorderRate = ChaosReorderRate;
    NC.ReorderMax = ChaosReorderMax;
  }
  return NC;
}

World::World(const ChaosOptions &Opt)
    : harness::World(Opt.Seed, netConfig(Opt), Opt.Servers, Opt.Clients,
                     [this](size_t Slot, uint32_t Gen, runtime::Guardian &G) {
                       installApps(Slot, Gen, G);
                     }),
      O(Opt), Apps(Opt.Servers) {
  ServerConfig.Stream = chaosStreamConfig();
  if (O.Deadlines)
    ServerConfig.MaxPendingCalls = 6; // Admission control: shed under backlog.
  if (O.Storage)
    for (size_t I = 0; I != O.Servers; ++I)
      addMedia(I, {strprintf("srv%zu", I), sim::usec(200),
                   {O.LostRate, O.TornRate, mixSeed(O.Seed, 7000 + I)}});
  for (size_t I = 0; I != O.Servers; ++I)
    installServer(I);

  Agents.resize(O.Clients);
  for (uint32_t C = 0; C != O.Clients; ++C) {
    runtime::GuardianConfig GC;
    GC.Stream = chaosStreamConfig();
    if (O.Deadlines) {
      // Endpoint circuit breaking: two consecutive timeout breaks trip
      // the breaker; a short cooldown keeps probes inside fault outages.
      GC.Stream.BreakerThreshold = 2;
      GC.Stream.BreakerCooldown = sim::msec(8);
    }
    runtime::Guardian &G = addClient(C, strprintf("cli%u", C), GC);
    for (size_t Sl = 0; Sl != O.Servers; ++Sl)
      Agents[C].push_back(G.newAgent());
    G.spawnProcess("driver", [this, C] { runDriver(C); });
  }

  schedule(planFor(O));
}

void World::installApps(size_t Slot, uint32_t Gen, runtime::Guardian &G) {
  SlotApps &A = Apps[Slot];
  A.Record = G.addHandler<RecordSig, ChaosBusy>(
      "record", [this, Gen](uint32_t Client, uint64_t Op) -> RecordOutcome {
        Log.push_back({Gen, Client, Op});
        ++Report.Executions;
        // Slow ops outlive the sender's break threshold (~72ms of silence
        // under the chaos stream config), so the sender legitimately
        // gives up on them and reincarnates; the superseding batch then
        // catches the old incarnation mid-execution and orphan
        // destruction fires.
        S.sleep(opIsSlow(Op) ? sim::msec(100) : sim::usec(100));
        if (opRaises(Op))
          return ChaosBusy{Op};
        return Op;
      });
  if (O.Storage) {
    // Recover before serving: the incarnation replays its slot's log
    // (acked writes from any predecessor must reappear).
    apps::KvStoreConfig KC;
    KC.ServiceTime = sim::usec(100);
    KC.Wal = Slots[Slot].Media[0].get();
    KC.SnapshotEvery = 32;
    A.Kv = apps::installKvStore(G, KC);
  }
}

void World::runDriver(uint32_t Client) {
  Rng R(mixSeed(O.Seed, 3000 + Client));

  struct PendingOp {
    RecordPromise P;
    uint64_t Op;
  };
  std::vector<PendingOp> Pending;

  auto tallyUnavailable = [this](const std::string &Why) {
    ++Report.Unavailable;
    if (Why == core::reasons::DeadlineExpired)
      ++Report.Expired;
    else if (Why == core::reasons::Cancelled)
      ++Report.Cancelled;
    else if (Why == core::reasons::Overloaded)
      ++Report.Shed;
    else if (Why == core::reasons::CircuitOpen)
      ++Report.FastFails;
  };
  auto tally = [&](const RecordOutcome &Out, uint64_t Op) {
    if (Out.isNormal()) {
      ++Report.Normal;
      if (Out.value() != Op)
        Report.Violations.push_back(strprintf(
            "payload mismatch: op %llu returned %llu",
            static_cast<unsigned long long>(Op),
            static_cast<unsigned long long>(Out.value())));
    } else if (Out.is<ChaosBusy>()) {
      ++Report.ExceptionReplies;
      if (Out.get<ChaosBusy>().Op != Op)
        Report.Violations.push_back(strprintf(
            "exception payload mismatch on op %llu",
            static_cast<unsigned long long>(Op)));
    } else if (Out.is<core::Unavailable>()) {
      tallyUnavailable(Out.get<core::Unavailable>().Reason);
    } else {
      ++Report.Failed;
    }
  };
  auto claimAll = [&] {
    for (PendingOp &PO : Pending)
      tally(PO.P.claim(), PO.Op);
    Pending.clear();
  };

  for (uint64_t Op = 1; Op <= O.OpsPerClient; ++Op) {
    size_t Slot = R.below(O.Servers);
    if (O.Storage && opDurablePut(Op)) {
      // Durable branch: a blocking put whose ack promises the write
      // survives any later crash schedule. Keys are unique per
      // (client, op) so the durability audit is exact.
      ++Report.OpsIssued;
      auto H = runtime::bindHandler(*ClientGuardians[Client],
                                    Agents[Client][Slot], Apps[Slot].Kv.Put);
      std::string Key =
          strprintf("c%u-o%llu", Client, (unsigned long long)Op);
      std::string Val = strprintf("v%llu", (unsigned long long)Op);
      auto Out = H.call(Key, Val);
      if (Out.isNormal()) {
        ++Report.Normal;
        ++Report.DurableAcked;
        Acked.push_back({Slot, std::move(Key), std::move(Val)});
      } else if (Out.is<core::Unavailable>()) {
        tallyUnavailable(Out.get<core::Unavailable>().Reason);
      } else {
        ++Report.Failed;
      }
      S.sleep(sim::usec(R.between(50, 1500)));
      continue;
    }
    RecordHandler H(*ClientGuardians[Client], Agents[Client][Slot],
                    Apps[Slot].Record);
    if (O.Deadlines) {
      if (opIdempotent(Op)) {
        runtime::RetryPolicy RP;
        RP.MaxAttempts = ChaosMaxAttempts;
        RP.Backoff = sim::msec(2);
        RP.BackoffMax = sim::msec(16);
        RP.Budget = 8.0;
        RP.BudgetCredit = 0.5;
        H.withRetryPolicy(RP).declareIdempotent();
      }
      if (opHasDeadline(Op))
        H.withDeadline(sim::msec(4));
    }
    ++Report.OpsIssued;
    uint64_t Pick = R.below(10);
    if (Pick < 6) {
      if (O.Deadlines && opCancels(Op)) {
        // Cancellable call: let it get airborne, then tear it down. The
        // promise still resolves (usually with unavailable("cancelled"),
        // sometimes with the real outcome if the cancel lost the race).
        auto [P, CH] = H.streamCallCancellable(Client, Op);
        Pending.push_back({std::move(P), Op});
        S.sleep(sim::usec(300));
        if (CH.valid())
          H.cancel(CH);
      } else {
        Pending.push_back({H.streamCall(Client, Op), Op});
      }
      if (Pending.size() >= 8)
        claimAll();
    } else if (Pick < 8) {
      tally(H.call(Client, Op), Op);
    } else {
      ++Report.Sends;
      H.send(Client, Op);
    }
    if (R.below(8) == 0) {
      H.synch();
      ++Report.Synchs;
    }
    S.sleep(sim::usec(R.between(50, 1500)));
  }
  claimAll();
  // Drain every stream this client still has sends or replies outstanding
  // on; synch blocks until the remote executed (or the stream broke), so
  // after this loop every promise this driver created is resolved.
  for (size_t Slot = 0; Slot != O.Servers; ++Slot) {
    RecordHandler H(*ClientGuardians[Client], Agents[Client][Slot],
                    Apps[Slot].Record);
    H.synch();
    ++Report.Synchs;
  }
}

ChaosReport World::finish() {
  ChaosReport &Rep = Report;
  // 1-3. Quiescence, network conservation, and per-transport
  // conservation and hygiene on clients and every server incarnation;
  // the trace digest is the determinism oracle.
  conclude(Rep);
  auto violate = [&](std::string Msg) {
    Rep.Violations.push_back(std::move(Msg));
  };
  Rep.StaleEpochDrops = Net.staleEpochDrops();
  // Every guardian and transport incarnation has cells of its own
  // (labelled with its node's epoch), so the sums count each event once.
  for (auto *Gs : {&ClientGuardians, &ServerGuardians})
    for (auto &G : *Gs) {
      Rep.OrphansDestroyed += G->orphansDestroyed();
      stream::StreamCounters C = G->transport().counters();
      Rep.ServerCancelled += C.CallsCancelled;
      Rep.MalformedDropped += C.MalformedDropped;
      Rep.FramesCorruptDropped += C.FramesCorruptDropped;
    }

  // 3b. Resilience accounting. Server-side counters bound the
  // client-observed ones from above: a deadline drop, shed, or cancel is
  // only *seen* by the client if its reply survives (and a retried op
  // tallies client-side once, on its final outcome, while every attempt
  // counts server-side).
  uint64_t TransportFastFails = 0;
  for (auto &G : ClientGuardians) {
    Rep.Retries += G->retriesIssued();
    Rep.CancelsSent += G->transport().counters().CancelsSent;
    TransportFastFails += G->transport().counters().BreakerFastFails;
  }
  for (auto &G : ServerGuardians) {
    Rep.ServerExpired += G->deadlinesExpired();
    Rep.ServerShed += G->callsShed();
  }
  auto boundedBy = [&](const char *What, uint64_t Observed,
                       uint64_t Bound) {
    if (Observed > Bound)
      violate(strprintf("%s: %llu client-observed > %llu bound", What,
                        (unsigned long long)Observed,
                        (unsigned long long)Bound));
  };
  boundedBy("deadline drops", Rep.Expired, Rep.ServerExpired);
  boundedBy("sheds", Rep.Shed, Rep.ServerShed);
  boundedBy("cancels", Rep.Cancelled, Rep.ServerCancelled);
  boundedBy("fast-fails", Rep.FastFails, TransportFastFails);
  // Each cancel completion traces back to exactly one cancel message
  // (duplicated or re-delivered cancels are deduplicated).
  boundedBy("cancel completions", Rep.ServerCancelled, Rep.CancelsSent);
  if (Rep.Expired + Rep.Cancelled + Rep.Shed + Rep.FastFails >
      Rep.Unavailable)
    violate(strprintf("unavailable split exceeds total: %llu+%llu+%llu+%llu "
                      "> %llu",
                      (unsigned long long)Rep.Expired,
                      (unsigned long long)Rep.Cancelled,
                      (unsigned long long)Rep.Shed,
                      (unsigned long long)Rep.FastFails,
                      (unsigned long long)Rep.Unavailable));
  if (!O.Deadlines &&
      (Rep.Retries | Rep.CancelsSent | Rep.ServerExpired | Rep.ServerShed |
       Rep.ServerCancelled))
    violate("resilience machinery fired without --deadlines");

  // 3c. Wire integrity. Under byte-level damage the checksum layer must
  // reject every damaged frame before decode: a "malformed message" drop
  // means a frame-valid datagram failed to decode — a local encode bug,
  // never line noise — and is always a violation. Each rejected frame
  // traces back to a distinct corrupted copy, and without --corrupt no
  // corruption machinery may fire at all.
  Rep.DatagramsCorrupted = Net.counters().DatagramsCorrupted;
  if (Rep.MalformedDropped)
    violate(strprintf("%llu frame-valid datagrams failed to decode "
                      "(local encode bug)",
                      (unsigned long long)Rep.MalformedDropped));
  if (Rep.FramesCorruptDropped > Rep.DatagramsCorrupted)
    violate(strprintf("%llu corrupt-frame drops > %llu corrupted datagrams",
                      (unsigned long long)Rep.FramesCorruptDropped,
                      (unsigned long long)Rep.DatagramsCorrupted));
  if (!O.Corrupt &&
      (Rep.DatagramsCorrupted | Rep.FramesCorruptDropped | Rep.CorruptBursts))
    violate("corruption machinery fired without --corrupt");

  // 4. Client accounting: every claimed op has exactly one outcome.
  if (Rep.Normal + Rep.Unavailable + Rep.Failed + Rep.ExceptionReplies !=
      Rep.OpsIssued - Rep.Sends)
    violate(strprintf(
        "outcome conservation: %llu+%llu+%llu+%llu != %llu issued - %llu "
        "sends",
        (unsigned long long)Rep.Normal, (unsigned long long)Rep.Unavailable,
        (unsigned long long)Rep.Failed,
        (unsigned long long)Rep.ExceptionReplies,
        (unsigned long long)Rep.OpsIssued, (unsigned long long)Rep.Sends));

  // 5. Exactly-once: no (client, op) executed twice, across every server
  // incarnation. The network may duplicate datagrams and senders
  // retransmit, but user code must see each call at most once. Under
  // --deadlines, retry policies deliberately re-issue idempotent ops —
  // those may execute up to ChaosMaxAttempts times, but a non-idempotent
  // op must still execute at most once even when the mix includes
  // deadlines, sheds, and cancels.
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> ExecCount;
  for (const ExecEntry &E : Log) {
    uint64_t N = ++ExecCount[{E.Client, E.Op}];
    uint64_t Allowed =
        (O.Deadlines && opIdempotent(E.Op)) ? ChaosMaxAttempts : 1;
    if (N == Allowed + 1)
      violate(strprintf("op %llu from cli%u executed more than %llu times",
                        (unsigned long long)E.Op, E.Client,
                        (unsigned long long)Allowed));
  }

  // 6. Ordered execution: within one guardian incarnation, one client's
  // ops execute in issue order (ops lost to breaks leave gaps, never
  // inversions). Across incarnations order is not comparable — a call
  // reported `unavailable` may legitimately still execute late on an old
  // incarnation whose transport was shut down mid-backlog. Retried
  // (idempotent) ops under --deadlines re-issue with fresh sequence
  // numbers out of issue order, so they are excluded there; everything
  // else — including cancelled and deadline-carrying ops — must stay
  // ordered.
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> LastOp;
  for (const ExecEntry &E : Log) {
    if (O.Deadlines && opIdempotent(E.Op))
      continue;
    uint64_t &Last = LastOp[{E.Gen, E.Client}];
    if (E.Op <= Last)
      violate(strprintf("order inversion: cli%u op %llu after op %llu in "
                        "gen %u",
                        E.Client, (unsigned long long)E.Op,
                        (unsigned long long)Last, E.Gen));
    Last = E.Op;
  }

  // 6b. Durability (--storage-faults): every client-acknowledged write
  // survived the full crash schedule — present in the final
  // incarnation's live map AND in an offline replay of the media alone.
  // The two views must in fact agree exactly: live state is replayed
  // state plus logged puts, nothing else. Torn tails can only come from
  // crashes.
  if (O.Storage) {
    for (size_t I = 0; I != Slots.size(); ++I) {
      const storage::StableStore &Wal = *Slots[I].Media[0];
      const apps::KvStore::State &Live = *Apps[I].Kv.Store;
      Rep.StorageCrashes += Wal.crashes();
      Rep.TornTails += Wal.tornTails();
      Rep.Replayed += Live.Replayed;
      std::map<std::string, std::string> Media = apps::replayKvData(Wal.scan());
      if (Media != Live.Data)
        violate(strprintf("srv%zu: media replay diverges from live state "
                          "(%zu media keys vs %zu live)",
                          I, Media.size(), Live.Data.size()));
    }
    for (const DurableAck &A : Acked) {
      const auto &Live = Apps[A.Slot].Kv.Store->Data;
      auto It = Live.find(A.Key);
      if (It == Live.end() || It->second != A.Val)
        violate(strprintf("acked durable write %s lost from srv%zu",
                          A.Key.c_str(), A.Slot));
    }
    if (Rep.TornTails > Rep.StorageCrashes)
      violate(strprintf("%llu torn tails > %llu storage crashes",
                        (unsigned long long)Rep.TornTails,
                        (unsigned long long)Rep.StorageCrashes));
  }

  return Rep;
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

ChaosReport chaos::runChaos(const ChaosOptions &O) {
  World W(O);
  W.S.run();
  return W.finish();
}

std::string chaos::replayCommand(const ChaosOptions &O) {
  return strprintf("chaossim --seed %llu --profile %s --ops %zu --clients "
                   "%zu --servers %zu --horizon-ms %llu%s%s%s%s",
                   static_cast<unsigned long long>(O.Seed),
                   O.Profile.Name.c_str(), O.OpsPerClient, O.Clients,
                   O.Servers,
                   static_cast<unsigned long long>(O.Horizon / 1000000),
                   O.Deadlines ? " --deadlines" : "",
                   O.Corrupt ? " --corrupt" : "", O.Dup ? " --dup" : "",
                   O.Reorder ? " --reorder" : "") +
         (O.Storage
              ? strprintf(" --storage-faults --torn-rate %g --lost-rate %g",
                          O.TornRate, O.LostRate)
              : std::string());
}

std::string ChaosReport::summary() const {
  return strprintf(
      "ops=%llu normal=%llu unavailable=%llu failed=%llu exn=%llu "
      "sends=%llu exec=%llu orphans=%llu crashes=%llu restarts=%llu "
      "shutdowns=%llu parts=%llu bursts=%llu stale=%llu vms=%.3f "
      "trace=%llu@%016llx",
      (unsigned long long)OpsIssued, (unsigned long long)Normal,
      (unsigned long long)Unavailable, (unsigned long long)Failed,
      (unsigned long long)ExceptionReplies, (unsigned long long)Sends,
      (unsigned long long)Executions, (unsigned long long)OrphansDestroyed,
      (unsigned long long)Crashes, (unsigned long long)Restarts,
      (unsigned long long)Shutdowns, (unsigned long long)Partitions,
      (unsigned long long)LossBursts, (unsigned long long)StaleEpochDrops,
      static_cast<double>(VirtualEnd) / 1e6,
      (unsigned long long)TraceEvents, (unsigned long long)TraceHash) +
         (Retries | CancelsSent | ServerExpired | ServerShed |
                  ServerCancelled | Expired | Cancelled | Shed | FastFails
              ? strprintf(" expired=%llu/%llu cancelled=%llu/%llu "
                          "shed=%llu/%llu fastfail=%llu retries=%llu "
                          "cancels=%llu",
                          (unsigned long long)Expired,
                          (unsigned long long)ServerExpired,
                          (unsigned long long)Cancelled,
                          (unsigned long long)ServerCancelled,
                          (unsigned long long)Shed,
                          (unsigned long long)ServerShed,
                          (unsigned long long)FastFails,
                          (unsigned long long)Retries,
                          (unsigned long long)CancelsSent)
              : std::string()) +
         (DatagramsCorrupted | FramesCorruptDropped | MalformedDropped |
                  CorruptBursts
              ? strprintf(" corrupted=%llu cdropped=%llu malformed=%llu "
                          "cbursts=%llu",
                          (unsigned long long)DatagramsCorrupted,
                          (unsigned long long)FramesCorruptDropped,
                          (unsigned long long)MalformedDropped,
                          (unsigned long long)CorruptBursts)
              : std::string()) +
         (DurableAcked | StorageCrashes | TornTails | Replayed
              ? strprintf(" dput=%llu replay=%llu scrash=%llu torn=%llu",
                          (unsigned long long)DurableAcked,
                          (unsigned long long)Replayed,
                          (unsigned long long)StorageCrashes,
                          (unsigned long long)TornTails)
              : std::string());
}
