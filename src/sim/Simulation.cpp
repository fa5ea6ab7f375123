//===- Simulation.cpp - Discrete-event kernel -----------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/sim/Simulation.h"

#include "promises/sim/Clock.h"

#include "FiberBackend.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>

using namespace promises::sim;

namespace promises::sim::detail {
/// The process currently holding the execution turn on this thread;
/// nullptr in scheduler context. FiberBackend::resume flips it around
/// each switch.
thread_local Process *CurrentProcTL = nullptr;
} // namespace promises::sim::detail

//===----------------------------------------------------------------------===//
// SimConfig
//===----------------------------------------------------------------------===//

bool SimConfig::defaultGuardPages() {
  static bool G = [] {
    const char *E = std::getenv("PROMISES_FIBER_GUARD");
    return E && *E && std::strcmp(E, "0") != 0;
  }();
  return G;
}

//===----------------------------------------------------------------------===//
// ClockDriver / MonotonicClock
//===----------------------------------------------------------------------===//

ClockDriver::~ClockDriver() = default;

Time MonotonicClock::read() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<Time>(Ts.tv_sec) * 1000000000ull +
         static_cast<Time>(Ts.tv_nsec);
}

//===----------------------------------------------------------------------===//
// Process
//===----------------------------------------------------------------------===//

Process::Process(SpawnKey, Simulation &S, uint64_t Id, std::string Name,
                 InlineFunction<void()> Body)
    : Sim(S), Id(Id), Name(std::move(Name)), Body(std::move(Body)), JoinQ(S),
      SleepQ(S) {}

Process::~Process() {
  if (!Exec)
    return;
  // Fail-safe for destruction without a clean reap (shutdown's fixpoint
  // exhausted, or a Simulation torn down mid-run): grant the fiber one
  // final turn with a kill pending so it unwinds and exits, then release
  // its resources. The Simulation is necessarily still alive here — reaped
  // processes have Exec == nullptr, and shutdown() reaps everything it
  // finishes before ~Simulation returns.
  if (!finished()) {
    if (WaitingOn) {
      WaitingOn->removeWaiter(this);
      WaitingOn = nullptr;
    }
    Sim.Backend->forceUnwind(*this);
  }
  Sim.Backend->reclaim(*this);
}

void Process::runBody() {
  try {
    deliverKill(); // A kill can land before the first turn.
    Body();
  } catch (ProcessKilled &) {
    // Forced termination unwound the body; nothing else to do.
  }
  Body = nullptr; // Release captured state deterministically.
  State = ProcState::Finished;
  assert(Sim.LiveProcs > 0 && "live-process counter underflow");
  --Sim.LiveProcs;
  JoinQ.notifyAll();
}

void Process::yieldToScheduler() {
  assert(detail::CurrentProcTL == this &&
         "yield from a context that lacks the turn");
  Sim.Backend->suspend(*this);
  deliverKill();
}

void Process::deliverKill() {
  if (!KillPending || Unwinding)
    return;
  if (CriticalDepth > 0 && !Sim.ShuttingDown)
    return; // Deferred: inside a critical section (paper, Section 4.2).
  Unwinding = true;
  throw ProcessKilled{};
}

//===----------------------------------------------------------------------===//
// WaitQueue
//===----------------------------------------------------------------------===//

void WaitQueue::enqueueCurrent(Process *P) {
  assert(P->WaitingOn == nullptr && "process already waiting");
  P->WaitingOn = this;
  P->State = ProcState::Blocked;
  P->WaitPrev = Tail;
  P->WaitNext = nullptr;
  (Tail ? Tail->WaitNext : Head) = P;
  Tail = P;
  ++Count;
}

WaitQueue::~WaitQueue() {
  // A queue should outlive its waiters, but during teardown after a
  // failed run (e.g. a violation left processes blocked at quiescence)
  // owners can be destroyed first. Detach the waiters so a later kill
  // does not dereference a dangling WaitingOn.
  for (Process *P = Head; P;) {
    Process *Next = P->WaitNext;
    P->WaitingOn = nullptr;
    P->WaitPrev = P->WaitNext = nullptr;
    P = Next;
  }
}

void WaitQueue::removeWaiter(Process *P) {
  assert(P->WaitingOn == this && "process not waiting here");
  (P->WaitPrev ? P->WaitPrev->WaitNext : Head) = P->WaitNext;
  (P->WaitNext ? P->WaitNext->WaitPrev : Tail) = P->WaitPrev;
  P->WaitPrev = P->WaitNext = nullptr;
  --Count;
}

void WaitQueue::wait() {
  Process *P = Simulation::current();
  assert(P && "WaitQueue::wait() outside a simulated process");
  P->deliverKill();
  enqueueCurrent(P);
  P->NotifiedFlag = false;
  P->yieldToScheduler();
}

bool WaitQueue::waitFor(Time Timeout) {
  Process *P = Simulation::current();
  assert(P && "WaitQueue::waitFor() outside a simulated process");
  P->deliverKill();
  // The timeout, one event and one wake, would be the next dispatch, so
  // nothing can notify this process before it: a timeout, made in place.
  if (Sim.continueInPlace(P, Sim.NowNs + Timeout, 2))
    return false;
  enqueueCurrent(P);
  P->NotifiedFlag = false;
  // The epoch guards against this timeout firing after the process has
  // been woken by other means (notify or kill) and has moved on.
  uint64_t Epoch = P->WaitEpoch;
  P->TimeoutEvent = Sim.schedule(Timeout, [this, P, Epoch] {
    if (P->WaitingOn == this && P->WaitEpoch == Epoch) {
      removeWaiter(P);
      P->WaitingOn = nullptr;
      Sim.makeReady(P);
    }
  });
  P->yieldToScheduler();
  return P->NotifiedFlag;
}

void WaitQueue::notifyOne() {
  if (!Head)
    return;
  Process *P = Head;
  removeWaiter(P);
  P->WaitingOn = nullptr;
  P->NotifiedFlag = true;
  Sim.makeReady(P);
}

void WaitQueue::notifyAll() {
  while (Head)
    notifyOne();
}

//===----------------------------------------------------------------------===//
// CriticalSection
//===----------------------------------------------------------------------===//

CriticalSection::CriticalSection()
    : Proc(Simulation::current()),
      ExceptionsAtEntry(std::uncaught_exceptions()) {
  assert(Proc && "critical section outside a simulated process");
  ++Proc->CriticalDepth;
}

CriticalSection::~CriticalSection() noexcept(false) {
  assert(Proc->CriticalDepth > 0 && "unbalanced critical section");
  --Proc->CriticalDepth;
  // Leaving the outermost section is a kill delivery point — but never
  // while another exception is already unwinding through us.
  if (Proc->CriticalDepth == 0 &&
      std::uncaught_exceptions() == ExceptionsAtEntry)
    Proc->deliverKill();
}

//===----------------------------------------------------------------------===//
// Simulation
//===----------------------------------------------------------------------===//

Simulation::Simulation() : Simulation(SimConfig()) {}

Simulation::Simulation(SimConfig Cfg)
    : Backend(std::make_unique<detail::FiberBackend>(Cfg)) {
  CtxSwitches = &Metrics.counter("sim.context_switches");
  Metrics.gaugeProbe("sim.event_queue_depth", [this] {
    return static_cast<double>(LiveTimed + ReadyCount);
  });
  Metrics.gaugeProbe("sim.live_processes", [this] {
    return static_cast<double>(liveProcessCount());
  });
  Metrics.gaugeProbe("sim.processes_spawned", [this] {
    return static_cast<double>(NextProcId);
  });
}

Simulation::~Simulation() { shutdown(); }

Process *Simulation::current() { return detail::CurrentProcTL; }

ProcessHandle Simulation::spawn(std::string Name,
                                InlineFunction<void()> Body) {
  auto P = std::make_shared<Process>(Process::SpawnKey{}, *this, NextProcId++,
                                     std::move(Name), std::move(Body));
  Backend->start(*P);
  ++LiveProcs;
  P->KernelRef = P;
  P->LivePrev = LiveTail;
  (LiveTail ? LiveTail->LiveNext : LiveHead) = P.get();
  LiveTail = P.get();
  // The start wake: the process first runs when the loop reaches it.
  pushReady(P.get());
  return P;
}

void Simulation::release(Process *P) {
  (P->LivePrev ? P->LivePrev->LiveNext : LiveHead) = P->LiveNext;
  (P->LiveNext ? P->LiveNext->LivePrev : LiveTail) = P->LivePrev;
  P->LivePrev = P->LiveNext = nullptr;
  // Moved out first: the reset may destroy *P.
  ProcessHandle Ref = std::move(P->KernelRef);
}

void Simulation::pushReady(Process *P) {
  assert(P->ReadyNext == nullptr && P != ReadyTail &&
         "process already has a pending wake");
  P->ReadyAt = NowNs;
  P->ReadySeq = ++NextEventSeq;
  (ReadyTail ? ReadyTail->ReadyNext : ReadyHead) = P;
  ReadyTail = P;
  ++ReadyCount;
}

uint64_t Simulation::schedule(Time Delay, InlineFunction<void()> Fn) {
  uint32_t Slot;
  if (FreeEventHead != UINT32_MAX) {
    Slot = FreeEventHead;
    FreeEventHead = EventPool[Slot].NextFree;
  } else {
    Slot = static_cast<uint32_t>(EventPool.size());
    EventPool.emplace_back();
  }
  EventRecord &R = EventPool[Slot];
  R.Fn = std::move(Fn);
  R.Armed = true;
  R.Cancelled = false;
  TimedHeap.push_back({NowNs + Delay, ++NextEventSeq, Slot, R.Gen});
  std::push_heap(TimedHeap.begin(), TimedHeap.end(), timedAfter);
  ++LiveTimed;
  return (static_cast<uint64_t>(R.Gen) << 32) | Slot;
}

void Simulation::cancel(uint64_t EventId) {
  if (!pending(EventId))
    return; // Already ran or already cancelled.
  EventRecord &R = EventPool[static_cast<uint32_t>(EventId)];
  R.Cancelled = true;
  R.Fn = nullptr; // Eager destruction, as the old map erase provided.
  --LiveTimed;
}

Simulation::TimedEvent *Simulation::peekTimed() {
  while (!TimedHeap.empty()) {
    TimedEvent &Top = TimedHeap.front();
    // A slot stays owned by its heap entry until that entry surfaces, so
    // the cancelled flag alone identifies tombstones.
    if (!EventPool[Top.Slot].Cancelled)
      return &Top;
    uint32_t Slot = Top.Slot;
    std::pop_heap(TimedHeap.begin(), TimedHeap.end(), timedAfter);
    TimedHeap.pop_back();
    releaseEventSlot(Slot);
  }
  return nullptr;
}

void Simulation::releaseEventSlot(uint32_t Slot) {
  EventRecord &R = EventPool[Slot];
  R.Fn = nullptr;
  R.Armed = false;
  R.Cancelled = false;
  ++R.Gen;
  R.NextFree = FreeEventHead;
  FreeEventHead = Slot;
}

void Simulation::makeReady(Process *P) {
  assert((P->State == ProcState::Blocked || P->State == ProcState::Created) &&
         "makeReady on a process that is not blocked");
  P->State = ProcState::Ready;
  ++P->WaitEpoch;
  // Cancel a pending waitFor timeout so it cannot linger in the queue and
  // artificially advance the clock after the process moved on.
  cancel(P->TimeoutEvent);
  pushReady(P);
}

void Simulation::switchTo(Process *P) {
  assert(detail::CurrentProcTL == nullptr && "nested switchTo");
  CtxSwitches->inc();
  P->State = ProcState::Running;
  Backend->resume(*P);
  // A process finishes inside its own context, then yields the turn one
  // last time; reclaim its resources as soon as the scheduler sees that.
  if (P->State == ProcState::Finished && P->Exec)
    reap(P);
}

// Kept out of line: it runs once per process, and inlined into switchTo
// it slowed every scheduler round trip by about 15 ns (GCC 12, -O3).
[[gnu::noinline]] void Simulation::reap(Process *P) {
  Backend->reclaim(*P);
  assert(P->Exec == nullptr && "reclaim left exec state behind");
  // Joiners were woken by runBody (their wake events hold raw Process*
  // but any external joiner reached via Simulation::join holds the
  // shared_ptr); dropping the kernel handle frees the Process once the
  // last external handle goes away.
  release(P);
}

bool Simulation::continueInPlace(Process *P, Time Wake, unsigned Draws) {
  // The round trip would queue the caller's wake at (Wake, a fresh seq),
  // behind everything already pending, and switch back to it only if the
  // loop reaches it next: no stop, the wake within the step's horizon,
  // nothing ready and no timed event at or before the wake. The real-time
  // loop and shutdown's fail-safe turn always take the round trip.
  if (Clock || StopRequested || ShuttingDown || ReadyHead ||
      Wake > StepHorizon)
    return false;
  if (TimedEvent *Ev = peekTimed(); Ev && Ev->At <= Wake)
    return false;
  // What the round trip leaves behind: the clock at the wake, the seqs
  // its event and wake would draw, and a new wait epoch.
  NowNs = Wake;
  NextEventSeq += Draws;
  ++P->WaitEpoch;
  return true;
}

bool Simulation::step(Time Horizon) {
  // Merge the ready FIFO and the timed queue by (At, Seq): dispatch order
  // is exactly what a single queue would produce, but the wake path (the
  // context-switch hot path) never touches the allocating tree. The FIFO
  // front is its minimum by construction — appends carry the current time
  // and a fresh seq, both non-decreasing.
  StepHorizon = Horizon;
  Process *RP = ReadyHead;
  TimedEvent *Ev = peekTimed();
  bool TakeReady =
      RP && (!Ev || RP->ReadyAt < Ev->At ||
             (RP->ReadyAt == Ev->At && RP->ReadySeq < Ev->Seq));
  if (TakeReady) {
    if (RP->ReadyAt > Horizon)
      return false;
    assert(RP->ReadyAt >= NowNs && "ready FIFO went backwards");
    NowNs = RP->ReadyAt;
    ReadyHead = RP->ReadyNext;
    if (!ReadyHead)
      ReadyTail = nullptr;
    RP->ReadyNext = nullptr;
    --ReadyCount;
    // The wake fires only if the process is still due to run (it may have
    // finished meanwhile via a shutdown-path kill).
    if (RP->State == ProcState::Ready || RP->State == ProcState::Created)
      switchTo(RP);
    return true;
  }
  if (!Ev)
    return false;
  if (Ev->At > Horizon)
    return false;
  assert(Ev->At >= NowNs && "event queue went backwards");
  NowNs = Ev->At;
  uint32_t Slot = Ev->Slot;
  std::pop_heap(TimedHeap.begin(), TimedHeap.end(), timedAfter);
  TimedHeap.pop_back();
  InlineFunction<void()> Fn = std::move(EventPool[Slot].Fn);
  releaseEventSlot(Slot);
  --LiveTimed;
  Fn();
  return true;
}

void Simulation::run() {
  assert(!inProcess() && "run() must be called from scheduler context");
  if (Clock) {
    runRealTime(UINT64_MAX);
    return;
  }
  StopRequested = false;
  while (!StopRequested && step(UINT64_MAX)) {
  }
}

bool Simulation::runFor(Time Duration) {
  assert(!inProcess() && "runFor() must be called from scheduler context");
  Time Horizon = Duration < UINT64_MAX - NowNs ? NowNs + Duration : UINT64_MAX;
  if (Clock) {
    runRealTime(Horizon);
    if (!StopRequested && NowNs < Horizon && Horizon != UINT64_MAX)
      NowNs = Horizon;
    return LiveTimed != 0;
  }
  StopRequested = false;
  while (!StopRequested && step(Horizon)) {
  }
  if (!StopRequested && NowNs < Horizon)
    NowNs = Horizon;
  return LiveTimed != 0;
}

void Simulation::advanceClockToWall(Time Wall) {
  // Never jump past pending work: an event armed for an earlier instant
  // must still dispatch at its own time (step() asserts monotonicity).
  Time Target = Wall;
  if (TimedEvent *Ev = peekTimed())
    Target = std::min(Target, Ev->At);
  if (ReadyHead)
    Target = std::min(Target, ReadyHead->ReadyAt);
  if (Target > NowNs)
    NowNs = Target;
}

void Simulation::runRealTime(Time Horizon) {
  StopRequested = false;
  // An idle tick still polls at this period, bounding how stale the
  // virtual clock can get while nothing is armed.
  constexpr Time MaxPoll = msec(100);
  while (!StopRequested) {
    Time Wall = std::min(Clock->now(), Horizon);
    // Dispatch everything due at or before the wall reading, in virtual
    // order — exactly the simulated loop, just bounded by real time.
    while (!StopRequested && step(Wall)) {
    }
    if (StopRequested)
      break;
    advanceClockToWall(Wall);
    if (Wall >= Horizon)
      break;
    // Quiescence exit only for an unbounded run: nothing live means no
    // local work can ever arise again (unsolicited IO into bound handlers
    // alone doesn't count — a live server keeps a blocked process). A
    // bounded run is a serve-this-long request and keeps polling.
    if (Horizon == UINT64_MAX && !ReadyHead && LiveTimed == 0 &&
        LiveProcs == 0)
      break;
    Time SleepNs = MaxPoll;
    if (TimedEvent *Ev = peekTimed())
      SleepNs = Ev->At > Wall ? Ev->At - Wall : 0;
    if (Horizon != UINT64_MAX)
      SleepNs = std::min(SleepNs, Horizon - Wall);
    // The driver polls IO while sleeping and may dispatch datagrams and
    // arm timers before returning.
    Clock->waitFor(SleepNs);
  }
}

void Simulation::sleep(Time Duration) {
  Process *P = current();
  assert(P && "sleep() outside a simulated process");
  P->SleepQ.waitFor(Duration);
}

void Simulation::yieldNow() {
  Process *P = current();
  assert(P && "yieldNow() outside a simulated process");
  P->deliverKill();
  if (continueInPlace(P, NowNs, 1))
    return;
  P->State = ProcState::Blocked;
  makeReady(P);
  P->yieldToScheduler();
}

void Simulation::join(const ProcessHandle &P) {
  Process *Cur = current();
  assert(Cur && "join() outside a simulated process");
  assert(P.get() != Cur && "a process cannot join itself");
  (void)Cur;
  while (!P->finished())
    P->JoinQ.wait();
}

void Simulation::woundImpl(Process *P) {
  if (P->State == ProcState::Finished)
    return;
  P->Wounded = true;
}

void Simulation::killImpl(Process *P) {
  if (P->State == ProcState::Finished)
    return;
  P->Wounded = true;
  P->KillPending = true;
  if (P->State == ProcState::Blocked &&
      (P->CriticalDepth == 0 || ShuttingDown)) {
    if (P->WaitingOn) {
      P->WaitingOn->removeWaiter(P);
      P->WaitingOn = nullptr;
    }
    makeReady(P);
  }
  // Created: the start event is already queued; the trampoline delivers.
  // Ready/Running: delivered at the next resume or blocking point.
}

void Simulation::shutdown() {
  ShuttingDown = true;
  // Killing one process can unblock others that then block elsewhere, so
  // iterate to a fixpoint (bounded for safety). Finished processes are
  // reaped (and unlinked from the live list) inside step(), so each round
  // only sees the still-unfinished ones. Killing never reaps, so the walk
  // is safe.
  for (int Round = 0; Round < 64 && LiveHead; ++Round) {
    for (Process *P = LiveHead; P; P = P->LiveNext)
      killImpl(P);
    StopRequested = false;
    while (step(UINT64_MAX)) {
    }
  }
  // If the fixpoint bound was exhausted, drop any pending wakes before the
  // fail-safe destructor path frees the processes they point at.
  ReadyHead = ReadyTail = nullptr;
  ReadyCount = 0;
  while (LiveHead) // Anything left goes through the ~Process fail-safe.
    release(LiveHead);
}
