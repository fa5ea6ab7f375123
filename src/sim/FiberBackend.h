//===- FiberBackend.h - Stackful fibers on one OS thread -------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine that runs process bodies (docs/RUNTIME.md): every simulated
/// process is a stackful fiber, and the scheduler plus all fibers share one
/// OS thread. The scheduler only ever performs four operations on a
/// process's execution context — create it, transfer the turn in, take the
/// turn back, and release it — and Simulation calls them here directly.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_SIM_FIBERBACKEND_H
#define PROMISES_SIM_FIBERBACKEND_H

#include "promises/sim/Simulation.h"

#include <cstddef>
#include <utility>
#include <vector>

#if defined(__x86_64__) && defined(__ELF__)
#define PROMISES_FIBER_ASM 1
#else
#define PROMISES_FIBER_ASM 0
#include <ucontext.h>
#endif

#ifdef __SANITIZE_ADDRESS__
#define PROMISES_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PROMISES_ASAN 1
#endif
#endif
#ifndef PROMISES_ASAN
#define PROMISES_ASAN 0
#endif

namespace promises::sim::detail {

/// The process currently holding the execution turn on this thread
/// (nullptr in scheduler context). The switch hot path flips it with one
/// initial-exec TLS store. Defined in Simulation.cpp.
extern thread_local Process *CurrentProcTL;

/// Maps fiber stacks; they are never returned, only recycled with their
/// execution records (FiberBackend::reclaim). Two modes:
///
///  * Slab (default): stacks carved from 64 MiB MAP_NORESERVE anonymous
///    slabs — ~512 stacks per mapping, so 1M concurrent fibers use ~2000
///    mappings, far under vm.max_map_count. Only touched pages are
///    resident.
///  * Guard: each stack is its own mapping with a PROT_NONE low page, so
///    overflow faults deterministically. One mapping per stack; meant for
///    debugging, not 1M scale.
class StackPool {
public:
  StackPool(size_t StackBytes, bool Guard);
  StackPool(const StackPool &) = delete;
  StackPool &operator=(const StackPool &) = delete;
  ~StackPool();

  size_t stackBytes() const { return StackBytes; }

  /// Returns the low address of a fresh StackBytes region.
  void *allocate() { return Guard ? allocateGuarded() : carveFromSlab(); }

private:
  void *map(size_t Len, int ExtraFlags);
  void *allocateGuarded();
  void *carveFromSlab();

  const size_t PageSize;
  const size_t StackBytes;
  const bool Guard;
  std::vector<std::pair<void *, size_t>> Mappings;
  unsigned char *SlabCur = nullptr;
  size_t SlabLeft = 0;
};

/// Runs the processes of one Simulation. resume, start, reclaim and
/// forceUnwind are called from scheduler context, suspend from inside the
/// process being suspended; only one context runs at a time.
class FiberBackend {
public:
  explicit FiberBackend(const SimConfig &Cfg);
  ~FiberBackend();
  FiberBackend(const FiberBackend &) = delete;
  FiberBackend &operator=(const FiberBackend &) = delete;

  /// Gives a freshly spawned process an execution record and stack. The
  /// body does not run yet; the first resume() enters the trampoline,
  /// which calls Process::runBody.
  void start(Process &P);

  /// Scheduler side: hands the turn to \p P and returns once \p P has
  /// yielded it back (or finished).
  void resume(Process &P);

  /// Process side: gives the turn back to the scheduler; returns when the
  /// scheduler resumes this process again.
  void suspend(Process &P);

  /// Scheduler side, after \p P finished: recycles its record and stack
  /// and nulls the process's exec pointer.
  void reclaim(Process &P);

  /// Fail-safe for destroying a process that never finished (shutdown
  /// fixpoint exhausted): forces one final turn with a kill pending so the
  /// fiber unwinds and exits. Leaves \p P finished.
  void forceUnwind(Process &P);

  /// Runs on the fiber's own stack; the outermost frame of every process,
  /// entered only from the trampoline.
  void fiberMain() noexcept;

private:
  StackPool Pool;
  FiberExec *FreeExecs = nullptr; ///< Records of reaped fibers.
  Process *Active = nullptr;
  FiberExec *ActiveExec = nullptr;
#if PROMISES_FIBER_ASM
  void *SchedSP = nullptr; ///< Scheduler context while a fiber runs.
#else
  ucontext_t SchedCtx;
#endif
#if PROMISES_ASAN
  void *SchedFakeStack = nullptr;
  const void *SchedStackBottom = nullptr;
  size_t SchedStackSize = 0;
#endif
};

} // namespace promises::sim::detail

#endif // PROMISES_SIM_FIBERBACKEND_H
