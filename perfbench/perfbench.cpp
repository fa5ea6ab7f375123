//===- perfbench.cpp - Host-cost benchmark of the promises stack ----------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// What the host CPU pays to run the stack, on five workloads: two typed
// call shapes driven through RemoteHandler -> Guardian -> StreamTransport
// -> SimNetwork (rpc, stream), and loadsim scenarios run whole through
// load::runLoad (storm, neworder, and neworder on durable storage). The
// virtual-time results are the paper's claims and say nothing about host
// cost; this program times the host clock only. See README.md for the
// workloads, the metrics and the output contract.
//
//   perfbench --workload stream --seed 3 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same run is sampled by a SIGALRM profiler and the metrics are host
// nanoseconds per operation charged to each layer.
//
//===----------------------------------------------------------------------===//

#include "promises/apps/KvStore.h"
#include "promises/load/Load.h"
#include "promises/runtime/RemoteHandler.h"
#include "promises/wire/Frame.h"

#include <link.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace promises;

//===----------------------------------------------------------------------===//
// Allocation counting hook
//===----------------------------------------------------------------------===//

// Every heap allocation in the process. The fiber backend runs the whole
// simulation on one thread; relaxed ordering is enough.
static std::atomic<uint64_t> GAllocs{0};

void *operator new(std::size_t N) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
// Out of line, so that GCC does not see free() on a pointer from new.
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { ::operator delete(P); }
void operator delete(void *P, std::size_t) noexcept { ::operator delete(P); }
void operator delete[](void *P, std::size_t) noexcept { ::operator delete(P); }

namespace perfbench {

using Clock = std::chrono::steady_clock;

double nsSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - T0).count();
}

/// Nearest-rank percentile of \p V (0 < P <= 100); 0 for an empty sample.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t X = Seed + 0x9e3779b97f4a7c15ull * (Salt + 1);
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint64_t framesSealed() {
  const wire::FrameStats &S = wire::frameStats();
  return S.FramesSealed + S.FramesSealedInPlace;
}

/// Page faults the kernel served from memory so far (first touches).
uint64_t minorFaults() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<uint64_t>(U.ru_minflt);
}

//===----------------------------------------------------------------------===//
// Layer profiler
//===----------------------------------------------------------------------===//

// A layer is a directory of the library: include/promises/<dir>/ and
// src/<dir>/ together. A sampled program counter is charged to the layer
// of the innermost frame, inlined frames included, whose source file lies
// in this repository. Header-only code (codec, CRC32C framing, promises)
// thus counts for its own layer wherever the compiler inlined it, and
// standard-library code inlined into a layer's function for that layer.
// bench is this program (perfbench/); std is code compiled into the
// executable with no frame in the repository (standard-library templates
// instantiated out of line); libc is code outside the executable (malloc,
// memcpy, libstdc++.so); other is the rest: code without line information
// (the PLT stubs into shared libraries, the fiber switch's assembly) and
// directories no workload runs (actions, baseline, chaos).
constexpr const char *LayerNames[] = {
    "sim",     "net",  "wire",    "stream", "core", "runtime", "apps",
    "storage", "load", "support", "bench",  "std",  "libc",    "other"};
constexpr size_t NumLayers = std::size(LayerNames);

size_t layerIndex(std::string_view Name) {
  for (size_t L = 0; L != NumLayers; ++L)
    if (Name == LayerNames[L])
      return L;
  return layerIndex("other");
}

/// The layer of the source file \p Path as the line tables name it, or
/// nullopt for a file outside the repository. The build passes the
/// repository's real path, which is also how it names every source.
std::optional<size_t> layerOfFile(std::string_view Path) {
  static const std::string Root = std::string(PERFBENCH_SOURCE_ROOT) + "/";
  if (!Path.starts_with(Root))
    return std::nullopt;
  Path.remove_prefix(Root.size());
  if (Path.starts_with("perfbench/"))
    return layerIndex("bench");
  for (std::string_view Dir : {"include/promises/", "src/"}) {
    if (!Path.starts_with(Dir))
      continue;
    Path.remove_prefix(Dir.size());
    size_t Slash = Path.find('/');
    if (Slash != std::string_view::npos)
      return layerIndex(Path.substr(0, Slash));
  }
  return layerIndex("other");
}

/// The executable's code segments, where its program counters fall.
struct ExeCode {
  uintptr_t Bias = 0; ///< Run-time address minus file address.
  std::vector<std::pair<uintptr_t, uintptr_t>> Segments;

  static ExeCode find() {
    ExeCode E;
    dl_iterate_phdr(
        [](dl_phdr_info *Info, size_t, void *Out) {
          auto &E = *static_cast<ExeCode *>(Out);
          E.Bias = Info->dlpi_addr;
          for (size_t I = 0; I != Info->dlpi_phnum; ++I) {
            const auto &Ph = Info->dlpi_phdr[I];
            uintptr_t Lo = Info->dlpi_addr + Ph.p_vaddr;
            if (Ph.p_type == PT_LOAD && (Ph.p_flags & PF_X))
              E.Segments.push_back({Lo, Lo + Ph.p_memsz});
          }
          return 1; // The first object is the executable itself.
        },
        &E);
    return E;
  }

  bool contains(uintptr_t PC) const {
    for (const auto &[Lo, Hi] : Segments)
      if (PC >= Lo && PC < Hi)
        return true;
    return false;
  }
};

/// Samples the interrupted program counter every SampleUs of wall time
/// (SIGALRM) into a buffer; layerHits() resolves them after the run with
/// binutils' addr2line against the executable's debug line tables. The
/// run is one busy thread, so wall and CPU time coincide.
class Profiler {
public:
  static constexpr long SampleUs = 200;

  static void start(double Seconds) {
    Pcs.assign(static_cast<size_t>(2 * Seconds * 1e6 / SampleUs) + 4096, 0);
    Count.store(0, std::memory_order_relaxed);
    struct sigaction SA {};
    SA.sa_sigaction = onSample;
    SA.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&SA.sa_mask);
    sigaction(SIGALRM, &SA, nullptr);
    itimerval T{{0, SampleUs}, {0, SampleUs}};
    setitimer(ITIMER_REAL, &T, nullptr);
  }

  static void stop() {
    itimerval Off{};
    setitimer(ITIMER_REAL, &Off, nullptr);
    signal(SIGALRM, SIG_IGN);
  }

  /// Drops samples while set, so the reference passes are not profiled.
  static void pause(bool On) { Paused.store(On, std::memory_order_relaxed); }

  /// Samples per layer; nullopt when addr2line cannot resolve them.
  static std::optional<std::array<uint64_t, NumLayers>> layerHits() {
    std::array<uint64_t, NumLayers> Hits{};
    ExeCode Exe = ExeCode::find();
    std::map<uintptr_t, uint64_t> InExe; // File address -> samples.
    for (size_t I = 0, N = Count.load(); I != N; ++I) {
      if (Exe.contains(Pcs[I]))
        ++InExe[Pcs[I] - Exe.Bias];
      else
        ++Hits[layerIndex("libc")];
    }
    if (InExe.empty())
      return Hits;

    char Buf[PATH_MAX];
    ssize_t Len = readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
    if (Len <= 0)
      return std::nullopt;
    std::string ExePath(Buf, static_cast<size_t>(Len));
    std::string In = ExePath + ".pcs";
    if (ExePath.find('\'') != std::string::npos)
      return std::nullopt; // Not quotable for the shell below.
    {
      std::ofstream F(In);
      for (const auto &Entry : InExe)
        F << "0x" << std::hex << Entry.first << '\n';
      if (!F)
        return std::nullopt;
    }
    // For each address: a line with the address, then one file:line per
    // frame, innermost (inlined) first.
    std::string Cmd = "addr2line -a -i -e '" + ExePath + "' < '" + In + "'";
    FILE *P = popen(Cmd.c_str(), "r");
    if (!P)
      return std::nullopt;
    uint64_t Samples = 0;
    std::optional<size_t> Layer;
    bool Resolved = false;
    auto charge = [&] {
      if (Samples)
        Hits[Layer ? *Layer : layerIndex(Resolved ? "std" : "other")] +=
            Samples;
    };
    uint64_t Charged = 0;
    char Line[PATH_MAX + 64];
    while (std::fgets(Line, sizeof(Line), P)) {
      std::string_view L(Line);
      L = L.substr(0, L.find_first_of("\r\n"));
      if (L.starts_with("0x")) {
        charge();
        auto It = InExe.find(std::strtoull(Line, nullptr, 16));
        Samples = It == InExe.end() ? 0 : It->second;
        Charged += Samples;
        Layer.reset();
        Resolved = false;
        continue;
      }
      L = L.substr(0, L.find(" (discriminator"));
      L = L.substr(0, L.rfind(':'));
      if (L.empty() || L == "??" || Layer)
        continue;
      Resolved = true;
      Layer = layerOfFile(L);
    }
    charge();
    bool Ok = pclose(P) == 0;
    std::remove(In.c_str());
    if (!Ok || Charged != Count.load() - Hits[layerIndex("libc")])
      return std::nullopt;
    return Hits;
  }

private:
  // Async-signal-safe: stores into a buffer sized before start().
  static void onSample(int, siginfo_t *, void *Ctx) {
    const auto *UC = static_cast<const ucontext_t *>(Ctx);
#if defined(__x86_64__)
    uintptr_t PC = static_cast<uintptr_t>(UC->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    uintptr_t PC = static_cast<uintptr_t>(UC->uc_mcontext.pc);
#else
    uintptr_t PC = 0;
    (void)UC;
#endif
    size_t N = Count.load(std::memory_order_relaxed);
    if (Paused.load(std::memory_order_relaxed) || N == Pcs.size())
      return;
    Pcs[N] = PC;
    Count.store(N + 1, std::memory_order_relaxed);
  }

  static inline std::vector<uintptr_t> Pcs;
  static inline std::atomic<size_t> Count{0};
  static inline std::atomic<bool> Paused{false};
};

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

// The reference computation: chains of indirect calls through 256
// distinct targets, recursing up to 11 deep, identical on every pass and
// sharing no code or data with the library. Shared hosts change speed by
// up to 1.5x within seconds, and the loss falls on branch prediction
// (another tenant on the sibling hyperthread): plain arithmetic and memory
// loops barely slow, while the stack, which is mostly indirect calls and
// returns (std::function dispatch, virtual network calls, fiber switches),
// slows about as much as this reference. Every timed interval is reported
// as Ns * NominalNs / RefNs, with RefNs the mean of the passes just before
// and after it: host time at the speed where one pass takes NominalNs,
// about its time on a quiet 2.0 GHz Xeon vCPU.
template <int N> [[gnu::noinline]] uint64_t refTarget(uint64_t X) {
  return (X ^ (N * 0x9e3779b97f4a7c15ull)) * (2 * N + 1) + (X >> (N % 13));
}

template <int... Ns>
constexpr std::array<uint64_t (*)(uint64_t), sizeof...(Ns)>
refTargets(std::integer_sequence<int, Ns...>) {
  return {&refTarget<Ns>...};
}

constexpr auto RefTargets = refTargets(std::make_integer_sequence<int, 256>{});

[[gnu::noinline]] uint64_t refChain(uint64_t X, int Depth) {
  if (Depth == 0)
    return RefTargets[X & 255](X);
  return refChain(RefTargets[(X >> 8) & 255](X), Depth - 1) + 1;
}

struct Reference {
  static constexpr double NominalNs = 26000;

  static double passNs() {
    Profiler::pause(true);
    auto T0 = Clock::now();
    uint64_t X = 0x9e3779b97f4a7c15ull, Acc = 0;
    for (int I = 0; I != 256; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Acc += refChain(X, static_cast<int>(X % 12));
    }
    Sink = Acc;
    double Ns = nsSince(T0);
    Profiler::pause(false);
    return Ns;
  }

  static inline volatile uint64_t Sink = 0;
};

/// What one run measured. An op is one typed call (rpc, stream) or one
/// scenario arrival (storm: an echo call; neworder, neworder-durable: a
/// transaction). Times are normalized to the reference speed (see
/// Reference).
struct Result {
  std::vector<double> RoundNsPerOp; ///< One per round.
  std::vector<double> SetupS;       ///< One per set-up repetition.
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  uint64_t Allocs = 0; ///< Heap allocations inside the timed rounds.
  uint64_t Frames = 0; ///< Datagram frames sealed inside the timed rounds.
  uint64_t Faults = 0; ///< Minor page faults during the rounds.
  double RoundNs = 0;  ///< Sum over rounds.
  double WallNs = 0;   ///< The same, not normalized.
  std::vector<double> RefNs; ///< Reference pass times, for the log.
  bool Correct = true;
};

/// Times set-up repetitions and rounds into a Result.
class Meter {
public:
  explicit Meter(Result &R) : R(R) {}

  template <typename Fn> void setup(Fn &&Work) {
    R.SetupS.push_back(timed(Work) / 1e9);
  }

  /// Times one round; \p Work returns the number of ops it did.
  template <typename Fn> void round(Fn &&Work) {
    uint64_t Ops = 0, Allocs = 0, Frames = 0;
    uint64_t Faults0 = minorFaults();
    double Ns = timed([&] {
      uint64_t A0 = GAllocs.load(std::memory_order_relaxed);
      uint64_t F0 = framesSealed();
      Ops = Work();
      Allocs = GAllocs.load(std::memory_order_relaxed) - A0;
      Frames = framesSealed() - F0;
    });
    R.Faults += minorFaults() - Faults0;
    R.RoundNsPerOp.push_back(Ns /
                             static_cast<double>(std::max<uint64_t>(Ops, 1)));
    R.Ops += Ops;
    R.Allocs += Allocs;
    R.Frames += Frames;
    R.RoundNs += Ns;
    R.WallNs += LastWallNs;
  }

private:
  /// Times \p Work, bracketed by the reference passes before and after.
  template <typename Fn> double timed(Fn &&Work) {
    if (RefBefore == 0)
      RefBefore = warmRefNs();
    auto T0 = Clock::now();
    Work();
    LastWallNs = nsSince(T0);
    double RefAfter = warmRefNs();
    R.RefNs.push_back(RefAfter);
    double Ns = LastWallNs * Reference::NominalNs /
                (0.5 * (RefBefore + RefAfter));
    RefBefore = RefAfter;
    return Ns;
  }

  /// The measured work evicts the reference's branch targets; an untimed
  /// pass reloads them, so the timed pass sees only the host's speed.
  static double warmRefNs() {
    Reference::passNs();
    return Reference::passNs();
  }

  Result &R;
  double LastWallNs = 0;
  double RefBefore = 0;
};

/// Set-up repetitions per run; the median is reported.
constexpr int SetupReps = 21;

//===----------------------------------------------------------------------===//
// Typed workloads: rpc, stream
//===----------------------------------------------------------------------===//

struct TypedSpec {
  const char *Name;
  bool Rpc;        ///< Sequential RPC put/get pairs; else pipelined echo.
  size_t Window;   ///< Stream calls in flight (pipelined shape).
  size_t RoundOps; ///< Ops per timed round.
};

constexpr TypedSpec TypedSpecs[] = {
    {"rpc", true, 1, 128},
    {"stream", false, 64, 256},
};

/// Argument sizes, drawn per argument.
constexpr size_t MinBytes = 16, MaxBytes = 128;

/// One client guardian calling a KvStore guardian over the simulated
/// network, all defaults except a zero service time (the handler's virtual
/// sleep would only add scheduler events, not stack work).
struct TypedWorld {
  sim::Simulation Sim{sim::SimConfig{.Backend = sim::BackendKind::Fiber}};
  net::SimNetwork Net{Sim};
  runtime::Guardian Server{Net, Net.addNode("server"), "server"};
  runtime::Guardian Client{Net, Net.addNode("client"), "client"};
  apps::KvStore Kv;
  stream::AgentId Agent = 0;

  TypedWorld() {
    Sim.metrics().setEnabled(false);
    Kv = apps::installKvStore(Server, apps::KvStoreConfig{.ServiceTime = 0});
    Agent = Client.newAgent();
  }
};

/// The seeded inputs: a pool of argument strings and the keys they are
/// stored under. Ops walk the pool cyclically.
struct TypedInputs {
  std::vector<std::string> Vals;
  std::vector<std::string> Keys;

  explicit TypedInputs(uint64_t Seed) {
    Rng R(mixSeed(Seed, 1));
    Vals.resize(1024);
    for (std::string &V : Vals) {
      V.resize(R.between(MinBytes, MaxBytes));
      for (char &C : V)
        C = static_cast<char>('a' + R.below(26));
    }
    for (size_t I = 0; I != 256; ++I)
      Keys.push_back("key" + std::to_string(R.next() % 1000000));
  }
};

/// Drives ops against one world and checks every reply. The pipelined
/// shape keeps Window calls in flight across round boundaries.
class TypedCaller {
public:
  TypedCaller(TypedWorld &W, const TypedSpec &Sp, const TypedInputs &In)
      : Sp(Sp), In(In),
        Put(runtime::bindHandler(W.Client, W.Agent, W.Kv.Put)),
        Get(runtime::bindHandler(W.Client, W.Agent, W.Kv.Get)),
        Echo(runtime::bindHandler(W.Client, W.Agent, W.Kv.Echo)) {
    Ring.resize(Sp.Window);
  }

  /// Issues \p N ops (rpc: N/2 put/get pairs).
  void ops(size_t N) {
    if (Sp.Rpc) {
      for (size_t I = 0; I < N; I += 2) {
        const std::string &K = In.Keys[Next % In.Keys.size()];
        const std::string &V = In.Vals[Next % In.Vals.size()];
        ++Next;
        if (!Put.call(K, V).isNormal())
          ++Failed;
        auto O = Get.call(K);
        if (!O.isNormal() || O.value() != V)
          ++Failed;
      }
      return;
    }
    for (size_t I = 0; I != N; ++I) {
      Slot &S = Ring[Next % Sp.Window];
      if (S.P.valid())
        check(S);
      S.Val = Next % In.Vals.size();
      S.P = Echo.streamCall(In.Vals[S.Val]);
      ++Next;
    }
  }

  /// Claims every call still in flight.
  void drain() {
    for (Slot &S : Ring)
      if (S.P.valid())
        check(S);
  }

  uint64_t failed() const { return Failed; }

private:
  using EchoPromise = core::Promise<std::string>;
  struct Slot {
    EchoPromise P;
    size_t Val = 0;
  };

  void check(Slot &S) {
    const auto &O = S.P.claim();
    if (!O.isNormal() || O.value() != In.Vals[S.Val])
      ++Failed;
    S.P = EchoPromise();
  }

  const TypedSpec &Sp;
  const TypedInputs &In;
  runtime::RemoteHandler<wire::Unit(std::string, std::string)> Put;
  runtime::RemoteHandler<std::string(std::string), apps::NotFound> Get;
  runtime::RemoteHandler<std::string(std::string)> Echo;
  std::vector<Slot> Ring;
  uint64_t Next = 0;
  uint64_t Failed = 0;
};

Result runTyped(const TypedSpec &Sp, uint64_t Seed, double Seconds,
                bool Trace) {
  Result Res;
  Meter M(Res);
  TypedInputs In(Seed);

  // Set-up: a fresh world plus enough ops to fill the promise slabs,
  // sequence windows and fiber stack pools. The last world is measured.
  std::unique_ptr<TypedWorld> W;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    W.reset();
    M.setup([&] {
      W = std::make_unique<TypedWorld>();
      TypedCaller Warm(*W, Sp, In);
      W->Client.spawnProcess("warmup", [&] {
        Warm.ops(4 * Sp.RoundOps);
        Warm.drain();
      });
      W->Sim.run();
      Res.Failed += Warm.failed();
    });
  }

  TypedCaller D(*W, Sp, In);
  Res.RoundNsPerOp.reserve(1 << 20);
  W->Client.spawnProcess("caller", [&] {
    if (Trace)
      Profiler::start(Seconds);
    auto End = Clock::now() + std::chrono::duration<double>(Seconds);
    while (Clock::now() < End)
      M.round([&] {
        D.ops(Sp.RoundOps);
        return Sp.RoundOps;
      });
    if (Trace)
      Profiler::stop();
    D.drain();
  });
  W->Sim.run();
  Res.Failed += D.failed();

  stream::StreamCounters C = W->Client.transport().counters();
  if (C.CallsBroken != 0 || W->Client.liveCallProcessCount() != 0 ||
      W->Server.liveCallProcessCount() != 0) {
    std::fprintf(stderr, "perfbench: %llu broken calls or leaked processes\n",
                 static_cast<unsigned long long>(C.CallsBroken));
    Res.Correct = false;
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// Scenario workloads: storm, neworder, neworder-durable
//===----------------------------------------------------------------------===//

/// A workload that runs a loadsim scenario whole.
struct LoadSpec {
  const char *Name;
  const char *Scenario;
  /// WAL-backed servers and durable presumed-abort 2PC, as loadsim's
  /// --storage-faults (docs/DURABILITY.md); the scenario plans no crash.
  bool Durable;
};

constexpr LoadSpec LoadSpecs[] = {
    {"storm", "storm", false},
    {"neworder", "neworder", false},
    {"neworder-durable", "neworder", true},
};

/// Set-up runs scale the arrival window down to this share: the run is
/// then world construction, drain and the battery, with a few arrivals.
constexpr double SetupDurationScale = 0.1;

load::LoadOptions loadOptions(const LoadSpec &Sp, uint64_t Seed) {
  load::LoadOptions O;
  O.Seed = Seed;
  O.Scenario = *load::LoadScenario::byName(Sp.Scenario);
  O.Backend = sim::BackendKind::Fiber;
  O.ForceStorage = Sp.Durable;
  return O;
}

/// Arrivals that ended neither normally nor shed by admission control.
/// Shedding is the overload response the scenarios exist to exercise, and
/// the battery checks it; anything else is a failed op.
uint64_t failedArrivals(const load::LoadReport &R) {
  return R.Offered - std::min(R.Offered, R.Normal + R.Shed);
}

bool reportOk(const load::LoadReport &R, uint64_t Seed) {
  for (const std::string &V : R.Violations)
    std::fprintf(stderr, "perfbench: seed %llu: %s\n",
                 static_cast<unsigned long long>(Seed), V.c_str());
  return R.ok() && R.Completed == R.Offered;
}

Result runLoadWorkload(const LoadSpec &Sp, uint64_t Seed, double Seconds,
                       bool Trace) {
  Result Res;
  Meter M(Res);
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    load::LoadOptions O = loadOptions(Sp, mixSeed(Seed, 100 + Rep));
    O.DurationScale = SetupDurationScale;
    load::LoadReport R;
    M.setup([&] { R = load::runLoad(O); });
    Res.Correct &= reportOk(R, O.Seed);
  }

  // Each round is one whole scenario run on its own derived seed, so the
  // sequence of inputs is a function of --seed alone.
  Res.RoundNsPerOp.reserve(1 << 16);
  uint64_t FirstHash = 0;
  if (Trace)
    Profiler::start(Seconds);
  auto End = Clock::now() + std::chrono::duration<double>(Seconds);
  for (uint64_t Round = 0; Clock::now() < End; ++Round) {
    load::LoadOptions O = loadOptions(Sp, mixSeed(Seed, Round));
    load::LoadReport R;
    M.round([&] {
      R = load::runLoad(O);
      return R.Offered;
    });
    Res.Failed += failedArrivals(R);
    Res.Correct &= reportOk(R, O.Seed);
    if (Round == 0)
      FirstHash = R.TraceHash;
  }
  if (Trace)
    Profiler::stop();

  // Determinism oracle: the first round replays to the same trace hash.
  load::LoadReport Again = load::runLoad(loadOptions(Sp, mixSeed(Seed, 0)));
  if (Again.TraceHash != FirstHash) {
    std::fprintf(stderr, "perfbench: replay trace hash differs\n");
    Res.Correct = false;
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(const Result &R, const std::vector<Metric> &Ms) {
  std::string Out = "{\"correct\": ";
  Out += R.Correct && R.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Ops);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  I ? ", " : "", Ms[I].Name.c_str(),
                  std::isfinite(Ms[I].Value) ? Ms[I].Value : 0.0,
                  Ms[I].Unit);
    Out += Buf;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

std::vector<Metric> endToEnd(const Result &R) {
  double Ops = static_cast<double>(std::max<uint64_t>(R.Ops, 1));
  return {{"op_ns_p50", percentile(R.RoundNsPerOp, 50), "ns"},
          {"op_ns_p90", percentile(R.RoundNsPerOp, 90), "ns"},
          {"allocs_per_op", static_cast<double>(R.Allocs) / Ops, "count"},
          {"setup_s", percentile(R.SetupS, 50), "s"}};
}

std::optional<std::vector<Metric>> perLayer(const Result &R) {
  std::optional<std::array<uint64_t, NumLayers>> H = Profiler::layerHits();
  if (!H)
    return std::nullopt;
  double Ops = static_cast<double>(std::max<uint64_t>(R.Ops, 1));
  double NsPerOp = R.RoundNs / Ops;
  uint64_t Total = 0;
  for (uint64_t N : *H)
    Total += N;
  std::vector<Metric> Ms;
  for (size_t L = 0; L != NumLayers; ++L)
    Ms.push_back({std::string(LayerNames[L]) + "_ns",
                  Total ? NsPerOp * static_cast<double>((*H)[L]) /
                              static_cast<double>(Total)
                        : 0.0,
                  "ns"});
  Ms.push_back({"traced_op_ns", NsPerOp, "ns"});
  Ms.push_back({"wall_op_ns", R.WallNs / Ops, "ns"});
  Ms.push_back({"frames_per_op", static_cast<double>(R.Frames) / Ops,
                "count"});
  Ms.push_back({"minflt_per_op", static_cast<double>(R.Faults) / Ops,
                "count"});
  std::fprintf(stderr, "perfbench: %llu profile samples\n",
               static_cast<unsigned long long>(Total));
  return Ms;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "rpc|stream|storm|neworder|neworder-durable "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

} // namespace perfbench

int main(int argc, char **argv) {
  using namespace perfbench;
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage();
    const char *V = argv[++I];
    char *EndP = nullptr;
    if (A == "--workload")
      Workload = V;
    else if (A == "--seed")
      Seed = std::strtoull(V, &EndP, 10);
    else if (A == "--seconds")
      Seconds = std::strtod(V, &EndP);
    else if (A == "--trace")
      Trace = static_cast<int>(std::strtol(V, &EndP, 10));
    else
      return usage();
    if (EndP && *EndP != '\0')
      return usage();
  }
  if (!(Seconds > 0) || (Trace != 0 && Trace != 1))
    return usage();

  Result R;
  bool Known = false;
  for (const TypedSpec &Sp : TypedSpecs)
    if (Workload == Sp.Name) {
      R = runTyped(Sp, Seed, Seconds, Trace);
      Known = true;
    }
  for (const LoadSpec &Sp : LoadSpecs)
    if (Workload == Sp.Name) {
      R = runLoadWorkload(Sp, Seed, Seconds, Trace);
      Known = true;
    }
  if (!Known)
    return usage();

  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu rounds, %llu ops, %llu failed, "
               "p50 %.1f ns/op, p90 %.1f ns/op, wall mean %.1f ns/op, "
               "reference pass p50 %.0f ns\n",
               Workload.c_str(), static_cast<unsigned long long>(Seed),
               R.RoundNsPerOp.size(), static_cast<unsigned long long>(R.Ops),
               static_cast<unsigned long long>(R.Failed),
               percentile(R.RoundNsPerOp, 50), percentile(R.RoundNsPerOp, 90),
               R.WallNs / static_cast<double>(std::max<uint64_t>(R.Ops, 1)),
               percentile(R.RefNs, 50));
  if (!Trace) {
    printResult(R, endToEnd(R));
    return 0;
  }
  std::optional<std::vector<Metric>> Ms = perLayer(R);
  if (!Ms) {
    std::fprintf(stderr, "perfbench: addr2line could not resolve the "
                         "profile samples\n");
    return 1;
  }
  printResult(R, *Ms);
  return 0;
}
