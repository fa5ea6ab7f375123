//===- FiberBackend.cpp - Stackful fibers on one OS thread ----------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// The process engine (docs/RUNTIME.md): every simulated process is a
// stackful fiber, and the scheduler plus all fibers share one OS thread. A
// turn handoff is a userspace context switch — save six callee-saved
// registers, swap the stack pointer, restore — so switching costs tens of
// nanoseconds instead of two kernel context switches, and a million
// concurrent blocked processes fit in a few GB.
//
// Three pieces of machinery make this safe:
//
//  * Stack slabs. vm.max_map_count (~65k) forbids one mmap per stack at
//    1M-process scale, so stacks are carved from 64 MiB MAP_NORESERVE
//    slabs. Each stack stays with its execution record, and a reaped
//    process's record (stack included) goes on a freelist for the next
//    spawn, so a steady spawn rate allocates nothing here.
//    MADV_NOHUGEPAGE keeps a single touched page from ballooning to a
//    2 MiB huge page spanning sixteen neighboring stacks. An optional
//    guard-page mode (SimConfig / PROMISES_FIBER_GUARD=1) maps each stack
//    separately with an inaccessible low page for overflow detection in
//    debugging runs.
//
//  * Exception-state isolation. A fiber can suspend while an exception is
//    in flight (SimCondVar::wait catches ProcessKilled, reacquires the
//    mutex — which blocks — and rethrows), so the 16 bytes of libstdc++'s
//    per-thread __cxa_eh_globals are swapped on every switch. Without this
//    a `throw;` in one fiber could rethrow another fiber's exception.
//
//  * ASan fiber annotations. Under AddressSanitizer every switch brackets
//    the hop with __sanitizer_start_switch_fiber/finish_switch_fiber so
//    the fake-stack machinery follows the fiber, and start() unpoisons
//    each stack it hands out (see docs/RUNTIME.md).
//
// The context switch itself is hand-written System V x86-64 assembly; on
// other architectures the engine falls back to ucontext, which is
// makecontext/swapcontext — slower (it saves the signal mask) but portable.
//
//===----------------------------------------------------------------------===//

#include "FiberBackend.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <sys/mman.h>
#include <unistd.h>

#if PROMISES_ASAN
extern "C" {
void __sanitizer_start_switch_fiber(void **FakeStackSave, const void *Bottom,
                                    size_t Size);
void __sanitizer_finish_switch_fiber(void *FakeStackSave,
                                     const void **BottomOld, size_t *SizeOld);
void __asan_unpoison_memory_region(const volatile void *Addr, size_t Size);
}
#endif

// libstdc++'s per-thread exception bookkeeping: { __cxa_exception
// *caughtExceptions; unsigned uncaughtExceptions; } — 16 bytes on LP64.
// The header declaring the struct (unwind-cxx.h) is not installed, so
// declare the accessor opaquely and copy the bytes.
extern "C" void *__cxa_get_globals() noexcept;

namespace promises::sim::detail {
namespace {

struct EhGlobals {
  alignas(void *) unsigned char Bytes[16] = {};
};

/// __cxa_get_globals is an out-of-line libstdc++ call, but its result —
/// the address of this thread's eh state — is constant for the thread's
/// lifetime. Cache it so the twice-per-switch swap is six inline moves
/// instead of two PLT calls per scheduler round trip.
thread_local void *EhGlobalsAddr = nullptr;

inline void *ehGlobals() {
  void *A = EhGlobalsAddr;
  if (A == nullptr) [[unlikely]]
    EhGlobalsAddr = A = __cxa_get_globals();
  return A;
}

inline void swapEhGlobals(EhGlobals &Saved) {
  void *Live = ehGlobals();
  EhGlobals Tmp;
  std::memcpy(Tmp.Bytes, Live, sizeof(Tmp.Bytes));
  std::memcpy(Live, Saved.Bytes, sizeof(Saved.Bytes));
  Saved = Tmp;
}

//===----------------------------------------------------------------------===//
// Machine context switch
//===----------------------------------------------------------------------===//

#if PROMISES_FIBER_ASM

// void promises_fiber_switch(void **SaveSP, void *RestoreSP)
//
// Saves the System V callee-saved integer registers plus the return
// address on the current stack, stores the resulting stack pointer in
// *SaveSP, installs RestoreSP, and continues in the restored context. The
// SSE control words (mxcsr/x87) are left alone: the kernel never changes
// rounding modes, and the engine offers no such knob. No CFI is emitted
// — no exception ever crosses a switch (ProcessKilled is caught inside
// the fiber by the trampoline), so the unwinder never walks through here.
//
// The tail is pop+jmp rather than ret on purpose: a ret whose target does
// not match the call that pushed it (every switch, by definition) both
// mispredicts and desynchronizes the return-stack branch predictor, so
// each frame unwound afterwards mispredicts too. An indirect jmp predicts
// from the BTB and leaves the RSB alone — measured ~18 ns faster per
// scheduler round trip on this microarchitecture.
asm(".text\n"
    ".align 16\n"
    ".globl promises_fiber_switch\n"
    ".hidden promises_fiber_switch\n"
    ".type promises_fiber_switch,@function\n"
    "promises_fiber_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  popq %rcx\n"
    "  jmpq *%rcx\n"
    ".size promises_fiber_switch,.-promises_fiber_switch\n");

extern "C" void promises_fiber_switch(void **SaveSP, void *RestoreSP);

#endif // PROMISES_FIBER_ASM

/// The engine whose fiber currently holds (or is taking) the turn on this
/// thread. Set around every resume so the naked trampoline entry — which
/// receives no arguments — can find its world.
thread_local FiberBackend *CurBackend = nullptr;

/// The address the crafted initial frame "returns" into. Naked entry: no
/// arguments (the switch zeroed all callee-saved registers), so the fiber
/// finds its engine through the thread-local set by resume().
extern "C" void promisesFiberEntry() {
  CurBackend->fiberMain();
  std::abort(); // fiberMain never returns control here.
}

size_t roundUp(size_t N, size_t To) { return (N + To - 1) / To * To; }

[[noreturn]] void dieOOM(size_t Len) {
  std::fprintf(stderr,
               "promises: fiber stack mmap of %zu bytes failed; lower the "
               "process count or SimConfig::FiberStackBytes\n",
               Len);
  std::abort();
}

} // namespace

/// Per-fiber execution state (~40 bytes; the stack itself lives in the
/// pool). Allocated once and recycled, stack and all, through the
/// engine's freelist.
struct FiberExec {
#if PROMISES_FIBER_ASM
  void *SP = nullptr; ///< Saved stack pointer while not running.
#else
  ucontext_t Ctx;
#endif
  void *Stack = nullptr; ///< Low address of this record's stack region.
  EhGlobals Eh; ///< This fiber's exception state while suspended.
#if PROMISES_ASAN
  void *FakeStack = nullptr;
#endif
  FiberExec *NextFree = nullptr; ///< Freelist link while unused.
};

//===----------------------------------------------------------------------===//
// Stack pool
//===----------------------------------------------------------------------===//

StackPool::StackPool(size_t StackBytes, bool Guard)
    : PageSize(static_cast<size_t>(sysconf(_SC_PAGESIZE))),
      StackBytes(roundUp(StackBytes, PageSize)), Guard(Guard) {}

StackPool::~StackPool() {
  for (const auto &[Base, Len] : Mappings)
    munmap(Base, Len);
}

void *StackPool::map(size_t Len, int ExtraFlags) {
  void *P = mmap(nullptr, Len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | ExtraFlags, -1, 0);
  if (P == MAP_FAILED)
    dieOOM(Len);
  Mappings.emplace_back(P, Len);
  return P;
}

void *StackPool::allocateGuarded() {
  auto *Base = static_cast<unsigned char *>(map(StackBytes + PageSize, 0));
  if (mprotect(Base, PageSize, PROT_NONE) != 0) {
    std::fprintf(stderr, "promises: fiber guard mprotect failed\n");
    std::abort();
  }
  return Base + PageSize;
}

void *StackPool::carveFromSlab() {
  if (SlabLeft < StackBytes) {
    size_t SlabBytes = std::max<size_t>(64ull << 20, StackBytes);
    SlabCur = static_cast<unsigned char *>(map(SlabBytes, MAP_NORESERVE));
    SlabLeft = SlabBytes;
#ifdef MADV_NOHUGEPAGE
    // A transparent huge page spanning sixteen 128 KiB stacks would make
    // each fiber's single touched page cost 2 MiB of RSS.
    madvise(SlabCur, SlabBytes, MADV_NOHUGEPAGE);
#endif
  }
  void *S = SlabCur;
  SlabCur += StackBytes;
  SlabLeft -= StackBytes;
  return S;
}

//===----------------------------------------------------------------------===//
// FiberBackend
//===----------------------------------------------------------------------===//

FiberBackend::FiberBackend(const SimConfig &Cfg)
    : Pool(Cfg.FiberStackBytes, Cfg.FiberGuardPages) {}

FiberBackend::~FiberBackend() {
  while (FiberExec *E = FreeExecs) {
    FreeExecs = E->NextFree;
    delete E;
  }
}

void FiberBackend::start(Process &P) {
  FiberExec *E = FreeExecs;
  if (E) {
    FreeExecs = E->NextFree;
    void *Stk = E->Stack;
    *E = FiberExec();
    E->Stack = Stk;
  } else {
    E = new FiberExec();
    E->Stack = Pool.allocate();
  }
#if PROMISES_ASAN
  // A finished fiber's outermost frames (promisesFiberEntry, fiberMain)
  // never return, so their redzones stay poisoned on a recycled stack; a
  // fresh stack may lie where an earlier pool unmapped one, and munmap
  // leaves ASan's shadow behind. Either way the initial frame below would
  // trip a false stack-buffer-overflow.
  __asan_unpoison_memory_region(E->Stack, Pool.stackBytes());
#endif
#if PROMISES_FIBER_ASM
  // Craft an initial frame the switch's pops+ret will "return" into:
  // six zeroed callee-saved registers below the entry address, and a
  // zero fake return address above it so the frame base is recognizable.
  // After ret, rsp ≡ 8 (mod 16) — exactly the ABI state on function
  // entry — so the trampoline may call anything, SSE spills included.
  auto Top = reinterpret_cast<uintptr_t>(E->Stack) + Pool.stackBytes();
  auto *Slot = reinterpret_cast<uintptr_t *>(Top & ~uintptr_t(15));
  *--Slot = 0; // Fake return address: end of the line.
  *--Slot = reinterpret_cast<uintptr_t>(&promisesFiberEntry);
  for (int I = 0; I < 6; ++I)
    *--Slot = 0; // rbp, rbx, r12-r15.
  E->SP = Slot;
#else
  getcontext(&E->Ctx);
  E->Ctx.uc_stack.ss_sp = E->Stack;
  E->Ctx.uc_stack.ss_size = Pool.stackBytes();
  E->Ctx.uc_link = nullptr; // The trampoline switches home explicitly.
  makecontext(&E->Ctx, reinterpret_cast<void (*)()>(&promisesFiberEntry), 0);
#endif
  P.Exec = E;
}

void FiberBackend::resume(Process &P) {
  FiberExec *E = P.Exec;
  assert(E && "resume on a reaped process");
  assert(Active == nullptr && "nested fiber resume");
  FiberBackend *PrevBackend = CurBackend;
  CurBackend = this;
  Active = &P;
  ActiveExec = E;
  CurrentProcTL = &P;
  // Install the fiber's exception state (zeroed on first run); ours is
  // restored on the way back out.
  swapEhGlobals(E->Eh);
#if PROMISES_ASAN
  __sanitizer_start_switch_fiber(&SchedFakeStack, E->Stack, Pool.stackBytes());
#endif
#if PROMISES_FIBER_ASM
  promises_fiber_switch(&SchedSP, E->SP);
#else
  swapcontext(&SchedCtx, &E->Ctx);
#endif
  // Back in scheduler context: the fiber either suspended or finished.
#if PROMISES_ASAN
  __sanitizer_finish_switch_fiber(SchedFakeStack, nullptr, nullptr);
#endif
  swapEhGlobals(E->Eh);
  CurrentProcTL = nullptr;
  ActiveExec = nullptr;
  Active = nullptr;
  CurBackend = PrevBackend;
}

void FiberBackend::suspend(Process &P) {
  FiberExec *E = P.Exec;
  assert(CurBackend == this && Active == &P &&
         "suspend from a fiber that lacks the turn");
#if PROMISES_ASAN
  __sanitizer_start_switch_fiber(&E->FakeStack, SchedStackBottom,
                                 SchedStackSize);
#endif
#if PROMISES_FIBER_ASM
  promises_fiber_switch(&E->SP, SchedSP);
#else
  swapcontext(&E->Ctx, &SchedCtx);
#endif
  // Resumed for another turn.
#if PROMISES_ASAN
  __sanitizer_finish_switch_fiber(E->FakeStack, &SchedStackBottom,
                                  &SchedStackSize);
#endif
}

void FiberBackend::reclaim(Process &P) {
  FiberExec *E = P.Exec;
  if (!E)
    return;
  assert(P.finished() && "reclaiming an unfinished process");
  E->NextFree = FreeExecs;
  FreeExecs = E;
  P.Exec = nullptr;
}

void FiberBackend::forceUnwind(Process &P) {
  // One final turn with an unconditional kill armed: the trampoline (if
  // never started) or the blocking point the fiber sits in delivers
  // ProcessKilled, the body unwinds, and the trampoline switches home for
  // good.
  P.KillPending = true;
  P.CriticalDepth = 0; // Destruction overrides critical sections.
  resume(P);
  assert(P.finished() && "forced unwind did not finish");
}

/// noexcept is the backstop that turns an escaped non-ProcessKilled
/// exception into std::terminate at this frame instead of letting the
/// unwinder walk off the crafted stack base.
void FiberBackend::fiberMain() noexcept {
  Process &P = *Active;
#if PROMISES_ASAN
  // First gain of control: complete the scheduler's start_switch and
  // learn the scheduler stack's bounds for the hops back.
  __sanitizer_finish_switch_fiber(nullptr, &SchedStackBottom,
                                  &SchedStackSize);
#endif
  P.runBody();
  // Finished. Switch home for good; resume() observes Finished and the
  // scheduler reclaims the stack.
#if PROMISES_ASAN
  __sanitizer_start_switch_fiber(nullptr, SchedStackBottom, SchedStackSize);
#endif
#if PROMISES_FIBER_ASM
  void *Discard;
  promises_fiber_switch(&Discard, SchedSP);
#else
  swapcontext(&ActiveExec->Ctx, &SchedCtx); // Still this fiber's record.
#endif
  // A finished fiber must never be handed the turn again.
  std::abort();
}

} // namespace promises::sim::detail
