//===- sim_backend_test.cpp - Fiber engine tests --------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// The kill/wound/critical-section machinery (paper Section 4.2) on the
// fiber engine (docs/RUNTIME.md): ProcessKilled unwinds through a
// userspace stack switch, and user code must not be able to tell. Plus
// reaping semantics (a finished process releases its execution resources
// immediately, so join/kill on a reaped process must stay safe) and a
// 100k-process spawn/claim stress.
//
//===----------------------------------------------------------------------===//

#include "promises/core/Promise.h"
#include "promises/sim/Simulation.h"
#include "promises/sim/Sync.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

using namespace promises;
using namespace promises::core;
using namespace promises::sim;

namespace {

TEST(FiberBackend, KillUnwindsABlockedProcessThroughTheSwitch) {
  // The victim suspends mid-body (a context switch with live stack frames,
  // including an RAII guard); the kill must resume it, throw ProcessKilled
  // from the blocking point, and run the destructors on the way out.
  Simulation S;
  WaitQueue Q(S);
  bool CleanupRan = false, ReachedEnd = false;
  struct Guard {
    bool &Flag;
    ~Guard() { Flag = true; }
  };
  ProcessHandle Victim = S.spawn("victim", [&] {
    Guard G{CleanupRan};
    Q.wait(); // Suspends; the kill unwinds from here.
    ReachedEnd = true;
  });
  S.spawn("killer", [&] { S.kill(Victim); });
  S.run();
  EXPECT_TRUE(Victim->finished());
  EXPECT_TRUE(CleanupRan);
  EXPECT_FALSE(ReachedEnd);
  EXPECT_EQ(Q.waiterCount(), 0u);
  EXPECT_EQ(S.liveProcessCount(), 0u);
}

TEST(FiberBackend, KillIsDeferredInsideACriticalSection) {
  Simulation S;
  bool SectionCompleted = false, AfterSection = false;
  ProcessHandle Victim = S.spawn("victim", [&] {
    CriticalSection CS;
    S.sleep(usec(100)); // Blocking point inside the section: kill defers.
    SectionCompleted = true;
    // Leaving the outermost section delivers the deferred kill, so the
    // line after the section must never run.
  });
  S.spawn("killer", [&] {
    S.sleep(usec(10));
    S.kill(Victim);
    EXPECT_TRUE(Victim->wounded());
    S.join(Victim);
    AfterSection = Victim->finished();
  });
  S.run();
  EXPECT_TRUE(SectionCompleted);
  EXPECT_TRUE(AfterSection);
}

TEST(FiberBackend, KillUnwindsThroughANestedMutexWait) {
  // SimCondVar::wait catches ProcessKilled, reacquires the mutex (another
  // suspension point — mid-unwind state must survive the switch), and
  // rethrows. This is the pattern that forces per-fiber exception-state
  // isolation.
  Simulation S;
  SimMutex M(S);
  SimCondVar Cv(S);
  bool LockReleased = false;
  ProcessHandle Victim = S.spawn("victim", [&] {
    SimMutex::Guard G(M);
    Cv.wait(M);
  });
  S.spawn("killer", [&] {
    S.sleep(usec(10));
    S.kill(Victim);
    S.join(Victim);
    // The unwind must have released the mutex on its way out.
    SimMutex::Guard G(M);
    LockReleased = true;
  });
  S.run();
  EXPECT_TRUE(Victim->finished());
  EXPECT_TRUE(LockReleased);
}

TEST(FiberBackend, FinishedProcessesAreReapedEagerly) {
  Simulation S;
  std::vector<ProcessHandle> Hs;
  for (int I = 0; I < 64; ++I)
    Hs.push_back(S.spawn("p" + std::to_string(I), [&] { S.sleep(usec(5)); }));
  EXPECT_EQ(S.liveProcessCount(), 64u);
  S.run();
  // All finished: the kernel dropped its handles, ours are the last.
  EXPECT_EQ(S.liveProcessCount(), 0u);
  for (const ProcessHandle &H : Hs) {
    EXPECT_TRUE(H->finished());
    EXPECT_TRUE(H.use_count() == 1) << "kernel still holds a reaped process";
  }
}

TEST(FiberBackend, JoinAndKillOnReapedProcessesAreSafe) {
  Simulation S;
  ProcessHandle Early = S.spawn("early", [] {});
  S.run(); // Early finishes and is reaped.
  ASSERT_TRUE(Early->finished());
  bool Joined = false;
  S.spawn("late", [&] {
    S.join(Early); // Must return immediately.
    Joined = true;
  });
  S.kill(Early);  // No-op on a finished (reaped) process.
  S.wound(Early); // Likewise.
  S.run();
  EXPECT_TRUE(Joined);
  EXPECT_FALSE(Early->wounded());
}

TEST(FiberBackend, KilledBeforeFirstTurnReleasesItsCaptures) {
  // The body lives inside the Process, which our handle keeps alive after
  // the run. A process killed before its first turn never enters its
  // body, yet finishing must still release the captures, inline or
  // heap-stored.
  Simulation S;
  auto Shared = std::make_shared<int>(7);
  std::array<char, 64> Pad{}; // Pushes the second body past the inline size.
  bool Ran = false;
  ProcessHandle Small = S.spawn("small", [Shared, &Ran] { Ran = true; });
  ProcessHandle Big = S.spawn("big", [Shared, Pad, &Ran] {
    Ran = Pad[0] == 0;
  });
  EXPECT_EQ(Shared.use_count(), 3);
  S.kill(Small);
  S.kill(Big);
  S.run();
  EXPECT_TRUE(Small->finished());
  EXPECT_TRUE(Big->finished());
  EXPECT_FALSE(Ran);
  EXPECT_EQ(Shared.use_count(), 1) << "a killed process kept its captures";
}

TEST(FiberBackend, ShutdownKillsUnfinishedProcessesInSpawnOrder) {
  // The kernel's live list keeps spawn order through reaps from its
  // middle, so teardown unwinds the survivors oldest first.
  std::vector<int> Unwound;
  {
    Simulation S;
    WaitQueue Forever(S);
    for (int I = 0; I != 5; ++I)
      S.spawn("p" + std::to_string(I), [&, I] {
        struct Note {
          std::vector<int> &Out;
          int Id;
          ~Note() { Out.push_back(Id); }
        } N{Unwound, I};
        if (I % 2 == 0)
          Forever.wait();
        else
          S.sleep(usec(1)); // Odd ones finish and are reaped.
      });
    S.run();
    EXPECT_EQ(S.liveProcessCount(), 3u);
    Unwound.clear(); // Drop the odd ones' normal exits.
  }
  EXPECT_EQ(Unwound, (std::vector<int>{0, 2, 4}));
}

TEST(FiberBackend, SpawnClaimStress) {
  // The scale satellite: many call processes blocked in claim() at once,
  // all 100k concurrently (at ~1 touched stack page each).
  const size_t Total = 100'000;
  Simulation S;
  size_t Claimed = 0;
  S.spawn("driver", [&] {
    auto [P, R] = makePromise<int>(S);
    std::vector<ProcessHandle> Batch;
    Batch.reserve(Total);
    for (size_t I = 0; I != Total; ++I)
      Batch.push_back(S.spawn("claimer", [&, P] {
        if (P.claim().isNormal())
          ++Claimed;
      }));
    S.sleep(usec(1)); // Let every claimer block on the promise.
    R.fulfill(Outcome<int>(7));
    for (const ProcessHandle &H : Batch)
      S.join(H);
  });
  S.run();
  EXPECT_EQ(Claimed, Total);
  EXPECT_EQ(S.liveProcessCount(), 0u);
  EXPECT_EQ(S.processesSpawned(), Total + 1);
}

TEST(FiberGuardPages, SmokeUnderGuardMode) {
  // Guard-page mode gives every stack its own mapping with a PROT_NONE
  // low page; functionally identical, just different allocation. Small N:
  // each pooled stack costs a map entry.
  SimConfig C;
  C.FiberGuardPages = true;
  Simulation S(C);
  WaitQueue Q(S);
  int Ran = 0;
  for (int I = 0; I < 32; ++I)
    S.spawn("g" + std::to_string(I), [&] {
      Q.wait();
      ++Ran;
    });
  S.spawn("waker", [&] {
    S.sleep(usec(10));
    Q.notifyAll();
  });
  S.run();
  EXPECT_EQ(Ran, 32);
  EXPECT_EQ(S.liveProcessCount(), 0u);
}

} // namespace
