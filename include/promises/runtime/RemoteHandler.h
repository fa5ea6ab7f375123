//===- promises/runtime/RemoteHandler.h - Typed stream calls ---*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typed client side of handler calls — the library rendering of the
/// paper's call forms:
///
///   m := g.read_mail(u)        ~>  auto O = H.call(U);        (RPC)
///   x: pt := stream h(3)       ~>  auto P = H.streamCall(3);  (promise)
///   stream h(3)  [statement]   ~>  H.send(3);                 (send)
///   flush h / synch h          ~>  H.flush(); H.synch();
///
/// Each RemoteHandler is bound to an agent; all calls through handlers of
/// one (agent, entity, group) triple share one stream and are therefore
/// sequenced. Promises become ready in call order.
///
/// Where Argus raises an exception *instead of creating a promise* (encode
/// failure, already-broken stream), streamCall returns a promise that is
/// born ready with that exception — claiming it raises the same exception
/// at the same program point, so the paper's program structure carries
/// over unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_RUNTIME_REMOTEHANDLER_H
#define PROMISES_RUNTIME_REMOTEHANDLER_H

#include "promises/core/Exceptions.h"
#include "promises/core/Promise.h"
#include "promises/runtime/Guardian.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

namespace promises::runtime {

/// What RemoteHandler::synch reports: the transport's own result.
using stream::SynchResult;

/// Client retry policy for calls through one RemoteHandler. Retries only
/// re-issue calls that terminated with `unavailable` (transient,
/// conserving outcomes); exception replies and failures are final. A call
/// the user cancelled is never retried.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retries.
  int MaxAttempts = 1;
  /// Backoff before attempt 2, doubling per attempt (virtual time).
  sim::Time Backoff = sim::msec(1);
  /// Backoff ceiling.
  sim::Time BackoffMax = sim::msec(64);
  /// Per-endpoint retry token bucket size (shared across all handlers of
  /// the calling guardian to that endpoint). <= 0 disables budgeting.
  double Budget = 10.0;
  /// Tokens credited back per successful call, capped at Budget.
  double BudgetCredit = 0.5;
  /// When true (the default), only calls on a handler that was
  /// declareIdempotent()-ed are retried: an `unavailable` outcome does not
  /// say whether the call executed, so re-issuing a non-idempotent call
  /// risks duplicate effects.
  bool IdempotentOnly = true;
};

/// Identifies one issued call for cancellation. Obtained from
/// streamCallCancellable; invalid (S == 0) when the call failed locally
/// before reaching the stream.
struct CallHandle {
  stream::Seq S = 0;
  stream::Incarnation Inc = 0;
  bool valid() const { return S != 0; }
};

/// A handler reference bound to a local guardian and an agent — the thing
/// calls are made through.
template <typename Sig, core::ExceptionType... Exs> class RemoteHandler {
public:
  using Traits = SigTraits<Sig>;
  using Ret = typename Traits::RetType;
  using ArgsTuple = typename Traits::ArgsTuple;
  using OutcomeT = core::Outcome<Ret, Exs...>;
  using PromiseT = core::Promise<Ret, Exs...>;

  RemoteHandler() = default;
  RemoteHandler(Guardian &Local, stream::AgentId Agent,
                HandlerRef<Sig, Exs...> Ref)
      : Local(&Local), Agent(Agent), Ref(Ref) {}

  bool valid() const { return Local != nullptr && Ref.valid(); }
  const HandlerRef<Sig, Exs...> &ref() const { return Ref; }
  stream::AgentId agent() const { return Agent; }

  /// Attaches a retry policy: calls through this handler that terminate
  /// with `unavailable` are transparently re-issued (subject to the
  /// policy's idempotence rule, budget, and the call's deadline).
  RemoteHandler &withRetryPolicy(RetryPolicy P) {
    Policy = P;
    return *this;
  }
  const RetryPolicy &retryPolicy() const { return Policy; }

  /// Attaches a per-call deadline (relative virtual time): every call
  /// issued through this handler carries now+D on the wire, and the
  /// receiver drops it with unavailable("deadline expired") if execution
  /// has not started by then. 0 disables.
  RemoteHandler &withDeadline(sim::Time D) {
    Deadline = D;
    return *this;
  }
  sim::Time deadline() const { return Deadline; }

  /// Declares the remote handler idempotent: executing it twice is
  /// equivalent to executing it once, so a retry policy may re-issue it
  /// after `unavailable` even though the original may have executed.
  RemoteHandler &declareIdempotent(bool On = true) {
    Idempotent = On;
    return *this;
  }
  bool idempotent() const { return Idempotent; }

  /// Stream call: returns immediately with a (usually blocked) promise;
  /// the caller runs in parallel with the call (paper, Section 3).
  template <typename... As> PromiseT streamCall(As &&...Args) {
    return issue(/*NoReply=*/false, /*IsRpc=*/false, nullptr,
                 std::forward<As>(Args)...);
  }

  /// Stream call that can be cancelled: also returns a CallHandle to pass
  /// to cancel(). Cancellable calls are never auto-retried (a retry would
  /// invalidate the handle).
  template <typename... As>
  std::pair<PromiseT, CallHandle> streamCallCancellable(As &&...Args) {
    CallHandle H;
    PromiseT P = issue(/*NoReply=*/false, /*IsRpc=*/false, &H,
                       std::forward<As>(Args)...);
    return {std::move(P), H};
  }

  /// Best-effort cancellation of an in-flight call. If the call has not
  /// completed at the receiver, its execution is destroyed (or never
  /// started) and the promise is fulfilled with unavailable("cancelled"),
  /// in stream order. Returns false when the transport no longer knows
  /// the call (already fulfilled, stream restarted, ...) — the promise
  /// then resolves with the call's real outcome.
  bool cancel(const CallHandle &H) {
    assert(valid());
    if (!H.valid())
      return false;
    return Local->transport().cancelCall(Agent, Ref.Entity, Ref.Group, H.S,
                                         H.Inc);
  }

  /// RPC: sends immediately and blocks the calling process for the
  /// outcome. Must run inside a simulated process.
  template <typename... As> OutcomeT call(As &&...Args) {
    assert(sim::Simulation::inProcess() &&
           "RPC must be made from a simulated process");
    PromiseT P = issue(/*NoReply=*/false, /*IsRpc=*/true, nullptr,
                       std::forward<As>(Args)...);
    return std::move(P).take(); // The only handle: move, don't copy.
  }

  /// Send: a stream call whose normal result is discarded and never
  /// transmitted; exceptions are discoverable via synch. Returns the
  /// immediate issue error if the call could not even be made.
  template <typename... As> std::optional<core::Exn> send(As &&...Args) {
    PromiseT P = issue(/*NoReply=*/true, /*IsRpc=*/false, nullptr,
                       std::forward<As>(Args)...);
    if (P.ready()) {
      // Born-ready = immediate local failure. Claim exactly once and
      // convert the claimed outcome.
      const OutcomeT &O = P.claim();
      if (!O.isNormal())
        return O.toExn();
    }
    return std::nullopt;
  }

  /// Expedites buffered calls and replies on this handler's stream.
  void flush() {
    assert(valid());
    Local->transport().flush(Agent, Ref.Entity, Ref.Group);
  }

  /// Flush + wait until all earlier calls on the stream completed; report
  /// whether any terminated exceptionally since the last synch point.
  SynchResult synch() {
    assert(valid());
    return Local->transport().synch(Agent, Ref.Entity, Ref.Group);
  }

  /// Calls issued on this stream whose outcome is not yet known.
  stream::Seq outstanding() const {
    assert(valid());
    return Local->transport().outstandingCalls(Agent, Ref.Entity, Ref.Group);
  }

private:
  /// State threaded through the attempts of one retryable call. Held by
  /// shared_ptr: the issue callback and any scheduled re-attempt keep it
  /// alive; the promise side only holds the Resolver.
  struct RetryCtx {
    Guardian *G;
    stream::AgentId Agent;
    HandlerRef<Sig, Exs...> Ref;
    wire::Bytes Args;
    bool NoReply, IsRpc;
    sim::Time DeadlineAt;
    RetryPolicy Policy;
    int Attempt = 1;
    core::Resolver<Ret, Exs...> R;
  };

  /// Issues attempt Ctx->Attempt. On unavailable — the only conserving,
  /// possibly-transient outcome — schedules the next attempt on the
  /// virtual clock with doubled backoff, as long as attempts, deadline,
  /// and the per-endpoint retry budget allow. User-cancelled calls
  /// (unavailable("cancelled")) are final: retrying would resurrect a
  /// call the program explicitly tore down.
  static void issueAttempt(std::shared_ptr<RetryCtx> C) {
    auto Issue = C->G->transport().issueCall(
        C->Agent, C->Ref.Entity, C->Ref.Group, C->Ref.Port,
        wire::Bytes(C->Args), C->NoReply, C->IsRpc,
        [C](const stream::ReplyOutcome &RO) {
          if (RO.K == stream::ReplyOutcome::Kind::Unavailable &&
              RO.Reason != core::reasons::Cancelled &&
              C->Attempt < C->Policy.MaxAttempts &&
              (C->DeadlineAt == 0 ||
               C->G->simulation().now() < C->DeadlineAt) &&
              C->G->takeRetryToken(C->Ref.Entity, C->Policy.Budget)) {
            sim::Time Delay = C->Policy.Backoff;
            for (int I = 1; I < C->Attempt; ++I)
              Delay = std::min(C->Policy.BackoffMax, Delay * 2);
            ++C->Attempt;
            C->G->noteRetry(C->Agent, C->Attempt);
            // Scheduled (not process) context: the re-issue never blocks
            // on a full in-flight window; issueCall queues it.
            C->G->simulation().schedule(Delay, [C] { issueAttempt(C); });
            return;
          }
          if (RO.K == stream::ReplyOutcome::Kind::Normal)
            C->G->creditRetryToken(C->Ref.Entity, C->Policy.Budget,
                                   C->Policy.BudgetCredit);
          C->R.fulfill(detail::wireToOutcome<Ret, Exs...>(RO));
        },
        C->DeadlineAt);
    if (!Issue.Issued) {
      // Local refusal (shut down, circuit open, ...): final. Retrying
      // here would hammer an endpoint the breaker just isolated.
      // A re-attempt that lands here paid a retry token for an attempt
      // that never touched the network (the breaker opened between
      // scheduling and firing); refund it, or sustained fast-fails drain
      // the budget and block retries against healthy endpoints later.
      if (C->Attempt > 1)
        C->G->creditRetryToken(C->Ref.Entity, C->Policy.Budget, 1.0);
      C->R.fulfill(OutcomeT(core::Unavailable{Issue.Reason}));
    }
  }

  /// \p V as the declared parameter type \p T: the argument itself when
  /// its type already matches, else a converted temporary.
  template <typename T, typename A> static decltype(auto) asParam(A &&V) {
    if constexpr (std::is_same_v<std::remove_cvref_t<A>, T>)
      return static_cast<const T &>(V);
    else
      return T(std::forward<A>(V));
  }

  /// Encodes the arguments straight from the caller's values, byte for
  /// byte as the ArgsTuple codec would.
  template <typename... Ts, typename... As>
  static std::optional<wire::Bytes>
  encodeArgs(std::type_identity<std::tuple<Ts...>>, std::string *Why,
             As &&...Args) {
    static_assert(sizeof...(Ts) == sizeof...(As),
                  "wrong number of arguments for the handler signature");
    return wire::encodeValuesToBytes<Ts...>(
        Why, asParam<Ts>(std::forward<As>(Args))...);
  }

  template <typename... As>
  PromiseT issue(bool NoReply, bool IsRpc, CallHandle *HandleOut,
                 As &&...Args) {
    assert(valid() && "call through an unbound RemoteHandler");
    // A wounded process "cannot make any remote calls" (paper, 4.2).
    if (sim::Process *P = sim::Simulation::current(); P && P->wounded())
      return PromiseT::makeReady(
          OutcomeT(core::Unavailable{core::reasons::WoundedCaller}));
    // Encoding is synchronous caller work (paper, Section 3, step 1).
    if (sim::Simulation::inProcess() && Local->config().EncodeCpu != 0)
      Local->simulation().sleep(Local->config().EncodeCpu);
    std::string Why;
    auto ArgsB = encodeArgs(std::type_identity<ArgsTuple>{}, &Why,
                            std::forward<As>(Args)...);
    if (!ArgsB) // Encode failure: fail without making the call (step 1).
      return PromiseT::makeReady(
          OutcomeT(core::Failure{"could not encode: " + Why}));
    sim::Time DeadlineAt =
        Deadline != 0 ? Local->simulation().now() + Deadline : 0;
    bool Retryable = Policy.MaxAttempts > 1 && !NoReply &&
                     HandleOut == nullptr &&
                     (Idempotent || !Policy.IdempotentOnly);
    if (!Retryable) {
      auto [P, R] = core::makePromise<Ret, Exs...>(Local->simulation());
      auto Issue = Local->transport().issueCall(
          Agent, Ref.Entity, Ref.Group, Ref.Port, std::move(*ArgsB), NoReply,
          IsRpc,
          [R = R](const stream::ReplyOutcome &RO) {
            R.fulfill(detail::wireToOutcome<Ret, Exs...>(RO));
          },
          DeadlineAt);
      if (!Issue.Issued)
        return PromiseT::makeReady(OutcomeT(core::Unavailable{Issue.Reason}));
      if (HandleOut)
        *HandleOut = CallHandle{Issue.S, Issue.Inc};
      return P;
    }
    auto [P, R] = core::makePromise<Ret, Exs...>(Local->simulation());
    auto C = std::make_shared<RetryCtx>(
        RetryCtx{Local, Agent, Ref, std::move(*ArgsB), NoReply, IsRpc,
                 DeadlineAt, Policy, 1, R});
    issueAttempt(std::move(C));
    return P;
  }

  Guardian *Local = nullptr;
  stream::AgentId Agent = 0;
  HandlerRef<Sig, Exs...> Ref;
  RetryPolicy Policy;
  sim::Time Deadline = 0;
  bool Idempotent = false;
};

/// Binds \p Ref to \p Local and \p Agent.
template <typename Sig, core::ExceptionType... Exs>
RemoteHandler<Sig, Exs...> bindHandler(Guardian &Local, stream::AgentId Agent,
                                       HandlerRef<Sig, Exs...> Ref) {
  return RemoteHandler<Sig, Exs...>(Local, Agent, Ref);
}

} // namespace promises::runtime

#endif // PROMISES_RUNTIME_REMOTEHANDLER_H
