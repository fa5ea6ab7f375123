//===- bench_recovery.cpp - Stable storage / recovery bench (BENCH_10) ----===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Measures what durability costs and what recovery costs
// (docs/DURABILITY.md):
//
//   BM_PutOverhead    end-to-end KvStore put, volatile vs WAL-backed, on
//                     the simulator: virtual ns/call for both, so the
//                     force (sync) cost of every acknowledged write is a
//                     deterministic number, plus the wall-clock CPU cost
//                     of the logging itself (encode + frame + CRC).
//   BM_AppendWall     raw append+sync wall cost per record, log only.
//   BM_Recovery       wall-clock replay time against log length (1k /
//                     10k / 100k records): scan + CRC-check + decode +
//                     apply, the full restart path.
//   BM_TornTail       the fault model's two detection paths (CRC-damaged
//                     final record, truncated final record) must both be
//                     detected and both stop replay cleanly.
//
// Bespoke wall-clock driver (no google-benchmark: half the numbers are
// virtual-time and all of them are one-shot batch measurements).
//
// Writes the BENCH_10 record (tools/Cli.h, gated by tools/check_bench.py):
//
//   bench_recovery --records 100000 --out BENCH_10.fresh.json
//
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "promises/apps/KvStore.h"
#include "promises/runtime/RemoteHandler.h"
#include "promises/storage/Storage.h"
#include "promises/support/StrUtil.h"
#include "promises/wire/Encoder.h"

#include <chrono>
#include <cstdio>
#include <string>

using namespace promises;
using namespace promises::runtime;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  size_t PutCalls = 2000;   ///< End-to-end puts per variant.
  size_t Records = 100000;  ///< Largest recovery log length.
  std::string Out;          ///< JSON output path ("" = stdout only).
};

double wallNs(Clock::time_point T0) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::
                                 nanoseconds>(Clock::now() - T0)
                                 .count());
}

/// End-to-end sequential puts through the full client/server stack.
/// Returns {virtual ns/call, wall ns/call}.
struct PutCost {
  double VirtualNs = 0;
  double WallNs = 0;
};

PutCost runPuts(size_t Calls, bool Durable) {
  sim::Simulation S;
  net::SimNetwork Net(S, net::NetConfig());
  net::NodeId SN = Net.addNode("server");
  net::NodeId CN = Net.addNode("client");
  runtime::Guardian Server(Net, SN, "server");
  runtime::Guardian Client(Net, CN, "client");
  storage::StableStore *Wal = nullptr;
  storage::StorageConfig SC;
  if (Durable)
    Wal = new storage::StableStore(S, SC);
  apps::KvStoreConfig KC;
  KC.Wal = Wal; // SnapshotEvery stays on: compaction is part of the cost.
  apps::KvStore Kv = apps::installKvStore(Server, KC);

  sim::Time Span = 0;
  Client.spawnProcess("driver", [&] {
    auto H = bindHandler(Client, Client.newAgent(), Kv.Put);
    sim::Time T0 = S.now();
    for (size_t I = 0; I != Calls; ++I)
      H.call(strprintf("k%zu", I % 512), strprintf("v%zu", I));
    Span = S.now() - T0;
  });
  Clock::time_point W0 = Clock::now();
  S.run();
  double Wall = wallNs(W0);
  delete Wal;
  return {static_cast<double>(Span) / static_cast<double>(Calls),
          Wall / static_cast<double>(Calls)};
}

/// Raw append+sync wall cost, log only (no network, no handlers).
double runAppendWall(size_t Records) {
  sim::Simulation S;
  storage::StorageConfig SC;
  SC.SyncTime = 0; // Isolate the CPU cost; virtual sync time is policy.
  storage::StableStore Store(S, SC);
  wire::Bytes Payload(32, 0xab);
  Clock::time_point W0 = Clock::now();
  for (size_t I = 0; I != Records; ++I) {
    Store.append(Payload);
    if ((I & 63) == 0)
      Store.sync();
  }
  Store.sync();
  return wallNs(W0) / static_cast<double>(Records);
}

/// Builds an N-record kv redo log, then measures the wall time of the
/// full restart path: scan (CRC every record) + decode + apply.
struct RecoveryPoint {
  size_t Records = 0;
  double WallMs = 0;
  bool Complete = false;
};

RecoveryPoint runRecovery(size_t Records) {
  sim::Simulation S;
  storage::StorageConfig SC;
  SC.SyncTime = 0;
  storage::StableStore Store(S, SC);
  for (size_t I = 0; I != Records; ++I) {
    wire::Encoder E;
    E.writeString(strprintf("k%zu", I % 4096));
    E.writeString(strprintf("v%zu", I));
    Store.append(E.take());
  }
  Store.sync();

  Clock::time_point W0 = Clock::now();
  storage::StableStore::Recovery R = Store.scan();
  auto Data = apps::replayKvData(R);
  double Ms = wallNs(W0) / 1e6;

  bool Complete = !R.TornTail && R.Records.size() == Records &&
                  Data.size() == std::min<size_t>(Records, 4096) &&
                  Data.count("k0") != 0;
  return {Records, Ms, Complete};
}

/// Drives the fault model until both torn-tail detection paths fire: a
/// truncated final record (short read) and a CRC-damaged final record
/// (bit flip). Returns true only if both were detected and replay
/// stopped at the synced prefix each time.
bool runTornTail() {
  bool SawTruncated = false, SawDamaged = false;
  for (uint64_t Seed = 1; Seed != 257 && !(SawTruncated && SawDamaged);
       ++Seed) {
    sim::Simulation S;
    storage::StorageConfig SC;
    SC.SyncTime = 0;
    SC.Faults = {1.0, 1.0, Seed}; // Always lose, always tear.
    storage::StableStore Store(S, SC);
    wire::Encoder E1;
    E1.writeString("stable");
    E1.writeString("yes");
    Store.append(E1.take());
    Store.sync();
    wire::Encoder E2;
    E2.writeString("unsynced");
    E2.writeString("gone");
    wire::Bytes Rec = E2.take();
    uint64_t RecLen = 9 + Rec.size(); // Framing header + payload.
    Store.append(Rec);
    Store.crash(); // Tears the un-synced record.
    storage::StableStore::Recovery R = Store.scan();
    if (!R.TornTail || R.Records.size() != 1)
      return false; // Tear missed or replay ran past it.
    auto Data = apps::replayKvData(R);
    if (Data.size() != 1 || Data.count("stable") == 0)
      return false;
    // DiscardedBytes equal to the full record length means the tear
    // kept every byte and flipped one (the CRC path); anything shorter
    // is a partial prefix (the truncation path).
    if (R.DiscardedBytes == RecLen)
      SawDamaged = true;
    else if (R.DiscardedBytes > 0)
      SawTruncated = true;
    else
      return false; // Torn tail reported with nothing discarded.
  }
  return SawTruncated && SawDamaged;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  cli::Table Flags = {
      cli::integer("--put-calls", "N",
                   "end-to-end puts per variant (default 2000)", O.PutCalls,
                   1),
      cli::integer("--records", "N", "largest recovery log (default 100000)",
                   O.Records, 1),
      cli::text("--out", "FILE", "also write the JSON record to FILE",
                O.Out)};
  if (!cli::parse(Argc, Argv, Flags)) {
    cli::usage(Argv[0], Flags);
    return 2;
  }

  std::fprintf(stderr, "BM_PutOverhead %zu calls x 2 variants...\n",
               O.PutCalls);
  PutCost Volatile = runPuts(O.PutCalls, false);
  PutCost Durable = runPuts(O.PutCalls, true);
  std::fprintf(stderr, "BM_AppendWall %zu records...\n", O.Records);
  double AppendNs = runAppendWall(O.Records);
  std::fprintf(stderr, "BM_Recovery 1k/10k/%zuk records...\n",
               O.Records / 1000);
  RecoveryPoint R1 = runRecovery(1000);
  RecoveryPoint R10 = runRecovery(10000);
  RecoveryPoint R100 = runRecovery(O.Records);
  std::fprintf(stderr, "BM_TornTail...\n");
  bool Torn = runTornTail();

  bool Complete = R1.Complete && R10.Complete && R100.Complete;
  double RecPerSec =
      R100.WallMs > 0 ? static_cast<double>(R100.Records) /
                            (R100.WallMs / 1e3)
                      : 0;
  // The correctness bits are exact and the WAL overhead is virtual time;
  // replay and append are cold-start wall-clock batch jobs, where shared
  // runners are noisiest, so they may triple.
  std::string Record = cli::benchRecord(
      "bench_recovery", 10,
      {{"put_calls", O.PutCalls}, {"records", O.Records}},
      {{"replay_complete", Complete ? 1.0 : 0.0, "bool", cli::Higher, 0},
       {"torn_detected", Torn ? 1.0 : 0.0, "bool", cli::Higher, 0},
       {"wal_overhead_virtual_ns", Durable.VirtualNs - Volatile.VirtualNs,
        "ns", cli::Lower, 0.25},
       {"replay_wall_ms", R100.WallMs, "ms", cli::Lower, 2.0},
       {"append_wall_ns", AppendNs, "ns", cli::Lower, 2.0},
       {"replay_1k_wall_ms", R1.WallMs, "ms", cli::Lower, cli::ReportOnly},
       {"replay_10k_wall_ms", R10.WallMs, "ms", cli::Lower,
        cli::ReportOnly},
       {"replay_records_per_s", RecPerSec, "records/s", cli::Higher,
        cli::ReportOnly},
       {"put_volatile_virtual_ns", Volatile.VirtualNs, "ns", cli::Lower,
        cli::ReportOnly},
       {"put_volatile_wall_ns", Volatile.WallNs, "ns", cli::Lower,
        cli::ReportOnly},
       {"put_durable_virtual_ns", Durable.VirtualNs, "ns", cli::Lower,
        cli::ReportOnly},
       {"put_durable_wall_ns", Durable.WallNs, "ns", cli::Lower,
        cli::ReportOnly}});
  std::fputs(Record.c_str(), stdout);
  if (!O.Out.empty() && !cli::writeRecord(O.Out, Record))
    return 1;
  return Complete && Torn ? 0 : 1;
}
