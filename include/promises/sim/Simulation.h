//===- promises/sim/Simulation.h - Discrete-event kernel -------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event simulation kernel the whole system runs on.
///
/// The kernel provides *cooperative simulated processes*: exactly one
/// process (or the scheduler) runs at any instant, with control handed off
/// explicitly at blocking points. This gives the ergonomics of ordinary
/// blocking code (Argus processes block in `claim`, queue `deq`, `synch`,
/// ...) together with fully deterministic virtual time.
///
/// Every process runs as a stackful fiber on the scheduler's own OS thread
/// (docs/RUNTIME.md): a context switch is a few dozen instructions, so
/// millions of concurrent processes are practical.
///
/// The kernel also implements the termination machinery the paper's coenter
/// needs (Section 4.2): a process can be *wounded* and then killed, but the
/// kill is deferred while the process is inside a critical section, exactly
/// as the Argus runtime "keeps track of how many critical sections a
/// process is in and delays its termination until the count is zero".
///
/// Forced termination is delivered by throwing the internal ProcessKilled
/// exception from a blocking primitive; this is the single use of C++
/// exceptions in this codebase (see DESIGN.md). User-level "exceptions"
/// (the Argus termination model) are plain values.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_SIM_SIMULATION_H
#define PROMISES_SIM_SIMULATION_H

#include "promises/sim/Time.h"
#include "promises/support/InlineFunction.h"
#include "promises/support/Metrics.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace promises::sim {

class Simulation;
class WaitQueue;
class Process;
class ClockDriver;

namespace detail {
class FiberBackend;
struct FiberExec;
} // namespace detail

/// How simulated processes are executed: always as stackful fibers on one
/// OS thread (docs/RUNTIME.md). The single value survives only because
/// existing callers still assign it.
enum class BackendKind : uint8_t { Fiber };

/// Kernel configuration. Plain data; pass to the Simulation constructor.
struct SimConfig {
  /// Execution engine; Fiber is the only one.
  BackendKind Backend = BackendKind::Fiber;

  /// Virtual-address reservation per fiber stack (rounded up to a page).
  /// Stacks are carved from large MAP_NORESERVE slabs and pooled, so only
  /// pages a fiber actually touches become resident — a blocked call
  /// process costs about one page regardless of this setting.
  size_t FiberStackBytes = 128 * 1024;

  /// When true, every fiber stack is its own mapping with an inaccessible
  /// low guard page, so overflow faults instead of corrupting a neighbor.
  /// Costs one mmap/mprotect pair per pooled stack (and counts against
  /// vm.max_map_count), so it is off by default; also enabled by
  /// PROMISES_FIBER_GUARD=1. Intended for debugging runs, not 1M-process
  /// scale.
  bool FiberGuardPages = defaultGuardPages();

  /// PROMISES_FIBER_GUARD-resolved default (false when unset).
  static bool defaultGuardPages();
};

/// An id schedule() never returns (0 is a valid one): what a field holding
/// a timer's id reads while no timer is armed.
inline constexpr uint64_t NoEvent = UINT64_MAX;

/// Internal control-flow exception used to unwind a forcibly terminated
/// process from its current blocking point. Never thrown through user data;
/// caught by the process trampoline. User code must be exception-neutral
/// (RAII cleanup only) and must never swallow it.
struct ProcessKilled {};

/// Lifecycle states of a simulated process.
enum class ProcState : uint8_t {
  Created,  ///< Spawned, not yet run.
  Ready,    ///< Wake event scheduled; will run when it fires.
  Running,  ///< Currently holds the turn.
  Blocked,  ///< Waiting in a WaitQueue (or sleeping).
  Finished, ///< Body returned or process was killed.
};

/// A FIFO queue of blocked processes; the basic blocking primitive.
///
/// Waiters are linked intrusively through the Process objects themselves
/// (a process blocks in at most one queue at a time), so an idle queue is
/// three words and enqueue/dequeue/remove are O(1) with no allocation —
/// the per-process join and sleep queues below rely on this.
///
/// Only usable from inside simulated processes (wait side) and from any
/// single-runner context (notify side).
class WaitQueue {
public:
  explicit WaitQueue(Simulation &S) : Sim(S) {}
  ~WaitQueue();
  WaitQueue(const WaitQueue &) = delete;
  WaitQueue &operator=(const WaitQueue &) = delete;

  /// Blocks the current process until notified. Kill delivery point.
  void wait();

  /// Blocks until notified or until \p Timeout elapses. Returns true when
  /// woken by a notify, false on timeout. Kill delivery point. When the
  /// timeout would be the kernel's next dispatch, the wait continues in
  /// place (Simulation::sleep).
  bool waitFor(Time Timeout);

  /// Wakes the longest-waiting process, if any.
  void notifyOne();

  /// Wakes all waiting processes.
  void notifyAll();

  /// Number of processes currently blocked here.
  size_t waiterCount() const { return Count; }

  /// The simulation this queue blocks in (for deadline arithmetic in
  /// bounded claims).
  Simulation &simulation() const { return Sim; }

private:
  friend class Simulation;
  friend class Process;

  void removeWaiter(Process *P);
  void enqueueCurrent(Process *P);

  Simulation &Sim;
  Process *Head = nullptr; ///< Longest waiting (next to wake).
  Process *Tail = nullptr;
  size_t Count = 0;
};

/// A cooperative simulated process.
///
/// Created via Simulation::spawn. All members are manipulated only while
/// the process's fiber (or the scheduler) holds the single execution
/// turn, so no locking is needed.
class Process {
  /// Names the constructor, which make_shared needs public, but only the
  /// kernel can create one.
  struct SpawnKey {
    explicit SpawnKey() = default;
  };

public:
  Process(SpawnKey, Simulation &S, uint64_t Id, std::string Name,
          InlineFunction<void()> Body);
  Process(const Process &) = delete;
  Process &operator=(const Process &) = delete;
  ~Process();

  /// Monotonically increasing id, unique within the Simulation.
  uint64_t id() const { return Id; }

  /// Debug name given at spawn time.
  const std::string &name() const { return Name; }

  /// True once the body has returned or the process has been killed.
  bool finished() const { return State == ProcState::Finished; }

  /// True if the process has been wounded (asked to terminate). A wounded
  /// process is "greatly restricted" (paper, Section 4.2): the runtime
  /// refuses to start remote calls on its behalf.
  bool wounded() const { return Wounded; }

  /// Current nesting depth of critical sections.
  int criticalDepth() const { return CriticalDepth; }

private:
  friend class Simulation;
  friend class WaitQueue;
  friend class CriticalSection;
  friend class detail::FiberBackend;

  /// The trampoline core, run on the process's own fiber: delivers a
  /// pre-start kill, runs the body, absorbs ProcessKilled, marks Finished,
  /// and wakes joiners. The fiber then returns the turn to the scheduler
  /// for good.
  void runBody();

  /// Gives the turn back to the scheduler and blocks until it is returned.
  /// On resume, delivers a pending kill if it is safe to do so.
  void yieldToScheduler();

  /// Throws ProcessKilled if a kill is pending and deliverable here.
  void deliverKill();

  Simulation &Sim;
  const uint64_t Id;
  const std::string Name;
  InlineFunction<void()> Body;

  /// The fiber's execution record (stack and saved context). Null once
  /// the process has been reaped.
  detail::FiberExec *Exec = nullptr;

  // Simulation-side state; single-runner discipline, no locks needed.
  ProcState State = ProcState::Created;
  bool NotifiedFlag = false; ///< Set when woken by notify (vs timeout).
  bool Wounded = false;
  bool KillPending = false;
  bool Unwinding = false;      ///< ProcessKilled currently propagating.
  int CriticalDepth = 0;
  WaitQueue *WaitingOn = nullptr;
  Process *WaitPrev = nullptr; ///< Intrusive links within WaitingOn.
  Process *WaitNext = nullptr;
  Process *ReadyNext = nullptr; ///< Link in the scheduler's ready FIFO.
  Time ReadyAt = 0;             ///< (At, Seq) dispatch key of the pending
  uint64_t ReadySeq = 0;        ///< wake, merged against timed events.
  uint64_t WaitEpoch = 0;    ///< Incremented on every wait; guards stale
                             ///< timeout events.
  uint64_t TimeoutEvent = NoEvent; ///< Last waitFor timeout; cancelled on
                                   ///< any wake so it cannot advance the
                                   ///< clock (a no-op once it ran).

  WaitQueue JoinQ;  ///< Waiters in Simulation::join.
  WaitQueue SleepQ; ///< Private queue backing sleep().

  /// The kernel's own reference, held from spawn until reap so a process
  /// runs to completion even when every external handle is dropped.
  std::shared_ptr<Process> KernelRef;
  Process *LivePrev = nullptr; ///< Intrusive links in the kernel's list of
  Process *LiveNext = nullptr; ///< unreaped processes, in spawn order.
};

using ProcessHandle = std::shared_ptr<Process>;

/// RAII critical-section marker (the Argus built-in critical section).
///
/// While at least one CriticalSection is alive in a process, a pending kill
/// is deferred; it is delivered when the outermost section is left (or at
/// the next blocking point after that).
class CriticalSection {
public:
  CriticalSection();
  ~CriticalSection() noexcept(false);
  CriticalSection(const CriticalSection &) = delete;
  CriticalSection &operator=(const CriticalSection &) = delete;

private:
  Process *Proc;
  int ExceptionsAtEntry;
};

/// The discrete-event simulator: virtual clock, event queue, and process
/// scheduler. One Simulation per test/benchmark/example; a Simulation is
/// confined to the thread that runs it (its fibers all run there).
class Simulation {
public:
  Simulation();
  explicit Simulation(SimConfig Cfg);
  ~Simulation();
  Simulation(const Simulation &) = delete;
  Simulation &operator=(const Simulation &) = delete;

  /// Current virtual time.
  Time now() const { return NowNs; }

  /// The observability registry shared by every layer of this world (see
  /// docs/OBSERVABILITY.md). The kernel registers sim.context_switches,
  /// sim.event_queue_depth, sim.live_processes, and sim.processes_spawned.
  MetricsRegistry &metrics() { return Metrics; }
  const MetricsRegistry &metrics() const { return Metrics; }

  /// Creates a process that will start running at the current time (once
  /// the event loop reaches its start event).
  ///
  /// A spawn makes one allocation: the Process and its shared_ptr control
  /// block together. The body is stored in the Process itself (only a
  /// capture over InlineFunctionBytes goes to the heap), and the fiber
  /// backend reuses the execution records and stacks of reaped processes.
  ProcessHandle spawn(std::string Name, InlineFunction<void()> Body);

  /// Runs the event loop until no events remain or stop() is called.
  /// Must be called from outside any simulated process.
  ///
  /// With a clock driver installed this becomes the real-time loop (see
  /// sim/Clock.h): it returns at quiescence — no live processes, no armed
  /// timers, nothing ready — or on stop(). A server that should stay
  /// alive for unsolicited IO must keep a (blocked) process around.
  void run();

  /// Runs until virtual time reaches now()+Duration (or the queue drains,
  /// or stop()). Returns true if events remain. Advances the clock to the
  /// requested horizon even if the queue drains earlier.
  ///
  /// With a clock driver installed the horizon is a wall-clock deadline:
  /// the loop keeps polling the driver for IO until wall time reaches it
  /// (it does not return early at quiescence — new work can arrive from
  /// outside).
  bool runFor(Time Duration);

  /// Requests that run()/runFor() return after the current event.
  void stop() { StopRequested = true; }

  /// --- Real-time mode (sim/Clock.h; used by net::UdpNetwork) ---

  /// Installs (or, with nullptr, removes) the wall-clock driver. The
  /// driver must outlive every subsequent run()/runFor() call.
  void setClockDriver(ClockDriver *D) { Clock = D; }
  ClockDriver *clockDriver() const { return Clock; }

  /// Advances the virtual clock toward \p Wall, clamped to the earliest
  /// pending event so dispatch never observes time running backwards.
  /// Called by clock drivers before dispatching IO mid-wait, and by the
  /// real-time loop after each drain. No-op when \p Wall is in the past.
  void advanceClockToWall(Time Wall);

  /// --- Callable from inside a simulated process ---

  /// Blocks the calling process for \p Duration of virtual time. When its
  /// own wake would be the loop's next dispatch (nothing ready, no timed
  /// event due at or before it, no stop, within the run's horizon), it
  /// continues in place: the clock moves to the wake and the kernel's
  /// state ends as the round trip would leave it, with no switch.
  void sleep(Time Duration);

  /// Reschedules the calling process at the current time, letting other
  /// ready processes and events at this instant run first. With none, it
  /// continues in place.
  void yieldNow();

  /// Blocks the calling process until \p P finishes. Kill delivery point.
  /// Fine to call on an already-reaped process; returns immediately.
  void join(const ProcessHandle &P);

  /// The process currently holding the turn, or nullptr in scheduler
  /// context (event callbacks, code outside run()).
  static Process *current();

  /// True when called from inside a simulated process.
  static bool inProcess() { return current() != nullptr; }

  /// --- Termination (paper Section 4.2) ---

  /// Wounds \p P: marks it as asked-to-terminate without forcing unwind.
  /// The runtime refuses remote calls for wounded processes.
  void wound(const ProcessHandle &P) { woundImpl(P.get()); }

  /// Wounds \p P and forces termination at the next safe point: a blocking
  /// point (or critical-section exit) with critical depth zero. If \p P is
  /// currently blocked outside any critical section it is woken
  /// immediately to unwind. No-op on finished (including reaped)
  /// processes.
  void kill(const ProcessHandle &P) { killImpl(P.get()); }

  /// --- Events ---

  /// Schedules \p Fn to run in scheduler context after \p Delay. The
  /// callback must not block. Returns an id usable with cancel().
  uint64_t schedule(Time Delay, InlineFunction<void()> Fn);

  /// Cancels a scheduled callback; no-op if it already ran or was
  /// cancelled, and for NoEvent.
  void cancel(uint64_t EventId);

  /// True while \p EventId is armed: scheduled, not yet run and not
  /// cancelled. A callback's own id is no longer pending while it runs.
  bool pending(uint64_t EventId) const {
    auto Slot = static_cast<uint32_t>(EventId);
    if (Slot >= EventPool.size())
      return false;
    const EventRecord &R = EventPool[Slot];
    return R.Armed && !R.Cancelled &&
           R.Gen == static_cast<uint32_t>(EventId >> 32);
  }

  /// --- Introspection (used by tests and the E10 benchmark) ---

  /// Total number of scheduler->process handoffs so far. A direct measure
  /// of the process-management burden discussed in paper Section 4.3.
  /// A wait that continues in place makes none. (Thin view of the
  /// sim.context_switches registry counter.)
  uint64_t contextSwitches() const { return CtxSwitches->value(); }

  /// Number of processes spawned so far.
  uint64_t processesSpawned() const { return NextProcId; }

  /// Number of spawned processes that have not finished. A maintained
  /// counter, not a scan: O(1) at any scale.
  size_t liveProcessCount() const { return LiveProcs; }

private:
  friend class Process;
  friend class WaitQueue;

  /// One armed schedule() callback in the timed heap. Entries are small
  /// PODs ordered by (At, Seq) — the exact dispatch order the former
  /// std::map<QueueKey, function> gave — while the closure lives inline in
  /// a pooled EventRecord slot, so arming a timer costs no allocation at
  /// all (the old representation paid a tree node plus a hash-map node per
  /// event, on a path the transport hits several times per call).
  struct TimedEvent {
    Time At;
    uint64_t Seq;  ///< Global dispatch tiebreak (NextEventSeq).
    uint32_t Slot; ///< Index into EventPool.
    uint32_t Gen;  ///< EventPool[Slot].Gen at arm time.
  };
  /// Pooled per-event state, recycled through an intrusive freelist.
  /// Cancellation is lazy: cancel() flags the record (destroying the
  /// closure eagerly, as the map erase used to) and the tombstoned heap
  /// entry is dropped unexecuted — without advancing the clock — when it
  /// surfaces. The generation makes stale ids (event already ran, slot
  /// reused) miss, which is what the old hash-map lookup provided.
  struct EventRecord {
    InlineFunction<void()> Fn;
    uint32_t Gen = 0;      ///< Bumped on slot release; validates ids.
    uint32_t NextFree = 0; ///< Freelist link while free.
    bool Armed = false;
    bool Cancelled = false;
  };
  // Every timer and network delivery takes one of each. Sift-up/down
  // moves heap entries, so they stay a small POD; a record is its closure
  // plus 16 bytes of pool bookkeeping.
  static_assert(sizeof(TimedEvent) <= 24, "TimedEvent grew");
  static_assert(sizeof(EventRecord) <= sizeof(InlineFunction<void()>) + 16,
                "EventRecord grew");

  static bool timedAfter(const TimedEvent &A, const TimedEvent &B) {
    return A.At != B.At ? A.At > B.At : A.Seq > B.Seq;
  }

  /// Drops tombstoned (cancelled) entries off the top of the heap, then
  /// returns the next live timed event, or nullptr when none remain.
  TimedEvent *peekTimed();

  /// Returns \p Slot to the freelist, destroying its closure and bumping
  /// its generation so outstanding ids for it go stale.
  void releaseEventSlot(uint32_t Slot);

  /// Hands the turn to \p P and waits until it yields back; reaps it if it
  /// finished during the turn.
  void switchTo(Process *P);

  /// Schedules a wake event for a Blocked/Created process at now().
  void makeReady(Process *P);

  /// Appends \p P to the ready FIFO with a fresh (now, seq) dispatch key.
  void pushReady(Process *P);

  /// True when the running process \p P, about to block until \p Wake
  /// through a round trip that draws \p Draws event seqs, would be the
  /// loop's very next dispatch. Then the kernel state is advanced as that
  /// round trip would leave it, without a heap operation or a switch, and
  /// \p P simply continues.
  bool continueInPlace(Process *P, Time Wake, unsigned Draws);

  /// Releases a finished process's execution resources and drops the
  /// kernel's handle (joiners were already woken; external handles keep
  /// the object alive). Scheduler context only.
  void reap(Process *P);

  void woundImpl(Process *P);
  void killImpl(Process *P);

  /// Runs one event; returns false when the queue is empty or the next
  /// event lies beyond \p Horizon.
  bool step(Time Horizon);

  /// The run()/runFor() body when a clock driver is installed: drain due
  /// events, advance to wall, sleep in the driver until the next timer.
  /// Returns when wall time reaches \p Horizon, on stop(), or — only with
  /// an unbounded horizon — at quiescence.
  void runRealTime(Time Horizon);

  /// Kills all unfinished processes (ignoring critical sections) and
  /// drains; used by the destructor.
  void shutdown();

  /// Unlinks \p P from the live list and drops the kernel's reference,
  /// which destroys \p P unless an external handle holds it.
  void release(Process *P);

  /// Declared first so instrument handles outlive everything else.
  MetricsRegistry Metrics;
  Counter *CtxSwitches = nullptr; ///< sim.context_switches.

  /// The ~Process fail-safe reaches it; ~Simulation's shutdown() drops
  /// the kernel's reference to every process before any member dies.
  std::unique_ptr<detail::FiberBackend> Backend;

  Time NowNs = 0;
  ClockDriver *Clock = nullptr; ///< Non-null => real-time mode.
  bool StopRequested = false;
  bool ShuttingDown = false;
  uint64_t NextProcId = 0;
  uint64_t NextEventSeq = 0;
  size_t LiveProcs = 0;

  /// The two pending-work structures, merged by (time, seq) in step() so
  /// dispatch order is exactly the single-queue order:
  ///
  ///  * Ready FIFO — process wakes, linked intrusively through the
  ///    Process objects (each has at most one pending wake). Appends carry
  ///    the current time and a fresh seq, so the list is (At, Seq)-sorted
  ///    by construction and the wake-heavy hot path — a context switch —
  ///    allocates nothing.
  ///  * Timed heap — schedule() callbacks (timeouts, network delivery),
  ///    cancelled in O(1) by flagging the pooled record.
  Process *ReadyHead = nullptr;
  Process *ReadyTail = nullptr;
  size_t ReadyCount = 0; ///< FIFO length (for the queue-depth gauge).
  std::vector<TimedEvent> TimedHeap; ///< Min-heap via timedAfter.
  std::vector<EventRecord> EventPool;
  uint32_t FreeEventHead = UINT32_MAX; ///< Head of the free-slot list.
  size_t LiveTimed = 0; ///< Armed, not-cancelled events in TimedHeap.

  /// Unreaped processes in spawn order, linked through the processes
  /// (finished ones are reaped eagerly, so at quiescence this is empty
  /// even after millions of spawns). Shutdown kills in this order.
  Process *LiveHead = nullptr;
  Process *LiveTail = nullptr;

  /// The horizon of the step now dispatching. Kept last: declared beside
  /// NowNs it moved every dispatch field after it by 8 bytes, and
  /// perfbench's storm workload read about 1% slower.
  Time StepHorizon = 0;
};

// The body is stored inline; every Process a 1M-process run keeps alive
// costs this plus its fiber stack page (BENCH_6's RSS per process).
static_assert(sizeof(Process) <= 288, "Process grew");

} // namespace promises::sim

#endif // PROMISES_SIM_SIMULATION_H
