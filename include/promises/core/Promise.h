//===- promises/core/Promise.h - The promise data type ---------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central contribution: a *promise* is a strongly typed place
/// holder for a value that will exist in the future (Section 3).
///
///  * A promise is created *blocked*; when the call that computes it
///    completes, it becomes *ready* with the call's outcome, and "once a
///    promise is ready it remains ready from then on and its value never
///    changes again".
///  * `claim` waits until the promise is ready, then yields the outcome —
///    the normal result or the raised exception. "A promise can be claimed
///    multiple times; the same outcome will occur each time."
///  * `ready` tests readiness without blocking.
///
/// Unlike MultiLisp futures, promises are distinct types: no runtime check
/// is ever paid when using an ordinary value, and the possible exceptions
/// are part of the type (Section 3.3). The baseline library contains a
/// futures-style DynFuture for the comparison benchmark.
///
/// Promises are handed out by three producers: stream calls
/// (runtime::RemoteHandler::streamCall), local forks (core/Fork.h), and —
/// for plumbing — makePromise below, whose Resolver the "system" side
/// fulfills exactly once.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_CORE_PROMISE_H
#define PROMISES_CORE_PROMISE_H

#include "promises/core/Outcome.h"
#include "promises/sim/Simulation.h"

#include <memory>
#include <optional>
#include <utility>

namespace promises::core {

template <typename Ret, ExceptionType... Exs> class Resolver;

/// A strongly typed place holder for the outcome of an asynchronous call.
/// Copyable; copies share the same state (promises can be stored in
/// arrays and queues and claimed from any process, as in the grades
/// example).
template <typename Ret, ExceptionType... Exs> class Promise {
public:
  using OutcomeType = Outcome<Ret, Exs...>;

  /// An invalid promise (no state); valid() is false. Assigned over in
  /// container use.
  Promise() = default;
  Promise(const Promise &O) : St(O.St) {
    if (St)
      St->retain();
  }
  Promise(Promise &&O) noexcept : St(O.St) { O.St = nullptr; }
  Promise &operator=(const Promise &O) {
    if (O.St)
      O.St->retain();
    if (St)
      St->release();
    St = O.St;
    return *this;
  }
  Promise &operator=(Promise &&O) noexcept {
    if (this != &O) {
      if (St)
        St->release();
      St = O.St;
      O.St = nullptr;
    }
    return *this;
  }
  ~Promise() {
    if (St)
      St->release();
  }

  /// True if this promise refers to a call at all.
  bool valid() const { return St != nullptr; }

  /// True once the call has completed (never blocks).
  bool ready() const {
    assert(valid() && "ready() on an invalid promise");
    return St->Value.has_value();
  }

  /// Waits until the promise is ready and returns the outcome. Must run
  /// inside a simulated process when blocking is required; claiming an
  /// already-ready promise works anywhere. Kill delivery point while
  /// blocked.
  const OutcomeType &claim() const {
    assert(valid() && "claim() on an invalid promise");
    while (!St->Value.has_value()) {
      assert(St->Waiters && "blocking claim outside a simulation");
      St->Waiters->wait();
    }
    return *St->Value;
  }

  /// Claims, then moves the outcome out of the shared state instead of
  /// returning a reference into it, saving the copy of a heap-sized
  /// result. Only for a claimer holding the sole Promise handle (an RPC's
  /// own promise): any other copy would afterwards claim a moved-from
  /// outcome.
  OutcomeType take() && {
    claim();
    return std::move(*St->Value);
  }

  /// Bounded claim: waits until the promise is ready or until \p Duration
  /// of virtual time has elapsed, whichever comes first. Returns the
  /// outcome, or nullptr on timeout. A timeout leaves the promise
  /// untouched — "a promise can be claimed multiple times", so a later
  /// claim (bounded or not) can still succeed. Kill delivery point while
  /// blocked.
  const OutcomeType *claimFor(sim::Time Duration) const {
    assert(valid() && "claimFor() on an invalid promise");
    if (St->Value.has_value())
      return &*St->Value;
    assert(St->Waiters && "blocking claim outside a simulation");
    return claimUntil(St->Waiters->simulation().now() + Duration);
  }

  /// As claimFor, but with an absolute virtual-time deadline.
  const OutcomeType *claimUntil(sim::Time Deadline) const {
    assert(valid() && "claimUntil() on an invalid promise");
    while (!St->Value.has_value()) {
      assert(St->Waiters && "blocking claim outside a simulation");
      sim::Time Now = St->Waiters->simulation().now();
      if (Now >= Deadline)
        return nullptr;
      St->Waiters->waitFor(Deadline - Now);
    }
    return &*St->Value;
  }

  /// Claims and dispatches in one step (the except-statement idiom):
  ///
  /// \code
  ///   P.claimWith(
  ///     [](const double &Avg) { ... },
  ///     [](const Unavailable &U) { ... },
  ///     [](const auto &Others) { ... });
  /// \endcode
  template <typename... Fs> decltype(auto) claimWith(Fs &&...Handlers) const {
    return claim().visit(Visitor{std::forward<Fs>(Handlers)...});
  }

  /// Makes a promise that is born ready (used for immediate failures:
  /// where Argus would signal without creating a promise, this library
  /// returns a ready promise carrying the exception — claiming it raises
  /// the same exception in the same place).
  static Promise makeReady(OutcomeType O) {
    Promise P;
    P.St = State::acquire();
    P.St->Value.emplace(std::move(O));
    return P;
  }

private:
  friend class Resolver<Ret, Exs...>;
  template <typename R, ExceptionType... Es>
  friend std::pair<Promise<R, Es...>, Resolver<R, Es...>>
  makePromise(sim::Simulation &S);

  /// Promise state lives in per-type slabs threaded through a freelist:
  /// every call allocates one of these, so the general-purpose heap is the
  /// wrong tool (a malloc plus — before this — a second malloc for the
  /// wait queue, per promise). acquire()/release() recycle states for the
  /// process lifetime; one slab allocation amortizes over SlabStates
  /// promises. The refcount is deliberately non-atomic: the simulation
  /// runs at most one simulated process at a time, all on one thread, so
  /// contended increments cannot occur.
  struct State {
    std::optional<OutcomeType> Value;
    std::optional<sim::WaitQueue> Waiters; ///< Engaged unless born-ready.
    uint32_t Refs = 1;

    static constexpr size_t SlabStates = 64;

    void retain() { ++Refs; }
    void release() {
      if (--Refs != 0)
        return;
      this->~State();
      void *&Head = freeHead();
      *reinterpret_cast<void **>(this) = Head;
      Head = this;
    }

    static State *acquire() {
      void *&Head = freeHead();
      if (!Head) {
        static_assert(sizeof(State) >= sizeof(void *) &&
                      alignof(State) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
        char *Slab =
            static_cast<char *>(::operator new(SlabStates * sizeof(State)));
        for (size_t I = 0; I != SlabStates; ++I) {
          void *P = Slab + I * sizeof(State);
          *static_cast<void **>(P) = Head;
          Head = P;
        }
      }
      void *P = Head;
      Head = *static_cast<void **>(P);
      return ::new (P) State();
    }

  private:
    /// thread_local because a Simulation is confined to the thread that
    /// runs it, so simulations on separate threads never share a freelist.
    /// Slabs are never returned to the heap.
    static void *&freeHead() {
      thread_local void *Head = nullptr;
      return Head;
    }
  };

  // Every call takes a slab state: the outcome plus at most 48 bytes of
  // bookkeeping (the waiter queue and the refcount).
  static_assert(sizeof(State) <= sizeof(std::optional<OutcomeType>) + 48,
                "promise slab state grew");

  State *St = nullptr;
};

/// The producing end of a promise; fulfilled exactly once by the system
/// (stream reply processing, fork completion).
template <typename Ret, ExceptionType... Exs> class Resolver {
public:
  using PromiseType = Promise<Ret, Exs...>;
  using OutcomeType = Outcome<Ret, Exs...>;

  Resolver() = default;
  Resolver(const Resolver &O) : St(O.St) {
    if (St)
      St->retain();
  }
  Resolver(Resolver &&O) noexcept : St(O.St) { O.St = nullptr; }
  Resolver &operator=(const Resolver &O) {
    if (O.St)
      O.St->retain();
    if (St)
      St->release();
    St = O.St;
    return *this;
  }
  Resolver &operator=(Resolver &&O) noexcept {
    if (this != &O) {
      if (St)
        St->release();
      St = O.St;
      O.St = nullptr;
    }
    return *this;
  }
  ~Resolver() {
    if (St)
      St->release();
  }

  /// True if fulfill() may still be called.
  bool valid() const { return St != nullptr; }

  /// True once fulfilled.
  bool fulfilled() const {
    assert(valid());
    return St->Value.has_value();
  }

  /// Moves the promise from blocked to ready and wakes every claimer.
  /// Exactly-once; asserts on double fulfill.
  void fulfill(OutcomeType O) const {
    assert(valid() && "fulfill() on an invalid resolver");
    assert(!St->Value.has_value() && "promise fulfilled twice");
    St->Value.emplace(std::move(O));
    St->Waiters->notifyAll();
  }

private:
  template <typename R, ExceptionType... Es>
  friend std::pair<Promise<R, Es...>, Resolver<R, Es...>>
  makePromise(sim::Simulation &S);

  typename PromiseType::State *St = nullptr;
};

/// Creates a blocked promise and its resolver.
template <typename Ret, ExceptionType... Exs>
std::pair<Promise<Ret, Exs...>, Resolver<Ret, Exs...>>
makePromise(sim::Simulation &S) {
  using State = typename Promise<Ret, Exs...>::State;
  State *St = State::acquire();
  St->Waiters.emplace(S);
  Promise<Ret, Exs...> P;
  P.St = St;
  Resolver<Ret, Exs...> R;
  St->retain();
  R.St = St;
  return {std::move(P), std::move(R)};
}

} // namespace promises::core

#endif // PROMISES_CORE_PROMISE_H
