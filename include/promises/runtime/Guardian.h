//===- promises/runtime/Guardian.h - Active entities -----------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Guardians — the Argus active entities (paper Section 2.1). A guardian
/// resides entirely at a single node, provides *handlers* (typed ports,
/// grouped into port groups), and runs internal processes.
///
/// The runtime enforces the stream execution rule: "When a handler call
/// arrives at a guardian, the Argus system will delay its execution until
/// all earlier calls on its stream have completed", so calls on one stream
/// appear to execute in call order, while calls on different streams run
/// concurrently (the mailer example). The transport delivers a stream's
/// calls in seq order, so one runner process per stream executes them one
/// after another, and a call that arrives while an earlier one is live
/// waits in the stream's table of live calls: process-per-stream, which
/// the paper's Section 4.3 prefers to a process per call. A parallel
/// group's call gets a runner of its own.
///
/// When the guardian's node crashes, its transport shuts down and every
/// process it spawned is killed.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_RUNTIME_GUARDIAN_H
#define PROMISES_RUNTIME_GUARDIAN_H

#include "promises/runtime/Handler.h"

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace promises::runtime {

/// Configuration for one guardian.
struct GuardianConfig {
  stream::StreamConfig Stream;
  /// CPU time the *caller* pays to produce one call message (paper,
  /// Section 3, step 1: "The call message is produced by encoding the
  /// arguments" — encoding happens synchronously in the caller). This is
  /// what makes initiating many calls take time, and hence what stream
  /// composition overlaps (Section 4).
  sim::Time EncodeCpu = sim::usec(10);
  /// Admission control: when nonzero, an incoming call that would push the
  /// number of live handler calls (executing or queued) past this bound is
  /// shed immediately with unavailable("overloaded") instead of being
  /// admitted. 0 disables shedding.
  size_t MaxPendingCalls = 0;
  /// Per-stream admission quota: when nonzero, one stream (one agent's
  /// calls to one port group) may hold at most this many live calls
  /// (executing or queued); further calls on that stream are shed even if
  /// the global MaxPendingCalls bound has headroom. This is the
  /// tenant-isolation knob: a storming client exhausts its own quota, not
  /// the guardian. 0 disables the per-stream bound. Composes with
  /// MaxPendingCalls.
  size_t MaxPendingPerStream = 0;
};

/// An active entity: handler table, port groups, processes, and the
/// call-stream endpoint, on one network node.
class Guardian {
public:
  /// The group that handlers join by default ("all ports of handlers
  /// created when a guardian is created belong to the same group").
  static constexpr stream::GroupId DefaultGroup = 1;

  Guardian(net::Network &Net, net::NodeId Node, std::string Name,
           GuardianConfig Cfg = GuardianConfig());
  ~Guardian();
  Guardian(const Guardian &) = delete;
  Guardian &operator=(const Guardian &) = delete;

  net::Network &network() { return Net; }

  const GuardianConfig &config() const { return Cfg; }
  sim::Simulation &simulation() { return Sim; }
  stream::StreamTransport &transport() { return *Transport; }
  net::Address address() const { return Transport->address(); }
  net::NodeId nodeId() const { return Node; }
  const std::string &name() const { return Name; }
  bool crashed() const { return Crashed; }

  /// Creates a fresh port group (entities "determine the grouping of
  /// their ports when they create them" — e.g. one group per window).
  stream::GroupId createGroup() { return NextGroup++; }

  /// The paper's explicit override ("We may provide some explicit
  /// overrides to allow more sophisticated programs that process calls on
  /// the same stream in parallel"): calls to ports in \p Group skip the
  /// per-stream execution gate and run concurrently. Replies still reach
  /// the caller in call order (the transport buffers out-of-order
  /// completions), but side effects may interleave — the handlers must
  /// tolerate that.
  void setParallelGroup(stream::GroupId Group, bool Parallel = true) {
    if (Parallel)
      ParallelGroups.insert(Group);
    else
      ParallelGroups.erase(Group);
  }

  bool isParallelGroup(stream::GroupId Group) const {
    return ParallelGroups.count(Group) != 0;
  }

  /// Priority admission: calls to an exempt port are admitted even when
  /// MaxPendingCalls/MaxPendingPerStream are at their bound. Meant for
  /// completion-side protocol ports (two-phase prepare/commit/abort):
  /// shedding those strands resources the guardian already admitted work
  /// for — staged transactions, locks — turning overload into leaks,
  /// while the work they finish is bounded by calls that *were* admitted.
  void setShedExempt(stream::PortId Port, bool On = true) {
    if (On)
      ShedExemptPorts.insert(Port);
    else
      ShedExemptPorts.erase(Port);
  }

  bool isShedExempt(stream::PortId Port) const {
    return ShedExemptPorts.count(Port) != 0;
  }

  /// Registers a handler on \p Group. \p Impl is invoked — inside the
  /// stream's runner process, in call order per stream — with the decoded
  /// arguments, and returns the typed outcome. Returns the transmissible
  /// typed reference for clients. The name documents the call site
  /// only; the port number identifies the handler.
  ///
  /// \code
  ///   auto RecordGrade =
  ///       G.addHandler<double(std::string, int32_t), NoSuchStudent>(
  ///           "record_grade", Guardian::DefaultGroup,
  ///           [&](std::string Stu, int32_t Gr)
  ///               -> Outcome<double, NoSuchStudent> { ... });
  /// \endcode
  template <typename Sig, core::ExceptionType... Exs, typename Fn>
  HandlerRef<Sig, Exs...> addHandler([[maybe_unused]] std::string HandlerName,
                                     stream::GroupId Group, Fn Impl) {
    using Traits = SigTraits<Sig>;
    using Ret = typename Traits::RetType;
    using ArgsTuple = typename Traits::ArgsTuple;
    using OutcomeT = core::Outcome<Ret, Exs...>;
    stream::PortId Port = NextPort++;
    Executors[Port] = [this, Impl = std::move(Impl)](
                          stream::IncomingCall &IC) mutable {
      // Decoded straight from the frame the call arrived in.
      std::string Why;
      auto Args = wire::decodeFromBytes<ArgsTuple>(IC.Args, &Why);
      if (!Args) {
        // A decode failure at the receiver fails the call *and* breaks
        // the stream (paper, Section 3).
        IC.Complete(stream::ReplyStatus::Failure, 0, {},
                    "could not decode: " + Why);
        Transport->breakReceiverStream(IC.StreamTag,
                                       "could not decode: " + Why);
        return;
      }
      OutcomeT O = std::apply(Impl, std::move(*Args));
      stream::ReplyStatus St = stream::ReplyStatus::Normal;
      uint32_t Tag = 0;
      wire::Bytes Payload;
      std::string Reason;
      if (!detail::outcomeToWire<Ret, Exs...>(O, St, Tag, Payload, Reason)) {
        IC.Complete(stream::ReplyStatus::Failure, 0, {},
                    "could not encode: " + Reason);
        Transport->breakReceiverStream(IC.StreamTag,
                                       "could not encode: " + Reason);
        return;
      }
      IC.Complete(St, Tag, std::move(Payload), std::move(Reason));
    };
    HandlerRef<Sig, Exs...> Ref;
    Ref.Entity = Transport->address();
    Ref.Group = Group;
    Ref.Port = Port;
    return Ref;
  }

  /// Shorthand: register on the default group.
  template <typename Sig, core::ExceptionType... Exs, typename Fn>
  HandlerRef<Sig, Exs...> addHandler(std::string HandlerName, Fn Impl) {
    return addHandler<Sig, Exs...>(std::move(HandlerName), DefaultGroup,
                                   std::move(Impl));
  }

  /// Removes a handler; later calls to its port terminate with
  /// failure("no such port") — a permanent error, like calling a
  /// destroyed window. Idempotent.
  template <typename Sig, core::ExceptionType... Exs>
  void removeHandler(const HandlerRef<Sig, Exs...> &Ref) {
    Executors.erase(Ref.Port);
  }

  /// Allocates an agent for one client activity in this guardian.
  stream::AgentId newAgent() { return Transport->newAgent(); }

  /// Spawns a process owned by this guardian; it is killed if the
  /// guardian's node crashes.
  sim::ProcessHandle spawnProcess(std::string ProcName,
                                  InlineFunction<void()> Body);

  /// Number of handler calls this guardian has started executing (a thin
  /// view of the registry's runtime.calls_executed cell).
  uint64_t callsExecuted() const { return CallsExec->value(); }

  /// Number of orphaned call executions destroyed after stream death.
  uint64_t orphansDestroyed() const { return OrphansDestroyed->value(); }

  /// Number of delivered calls dropped because their deadline passed
  /// before execution started.
  uint64_t deadlinesExpired() const { return DeadlinesExpired->value(); }

  /// Number of incoming calls shed by admission control.
  uint64_t callsShed() const { return CallsShed->value(); }

  /// Number of retry attempts issued by this guardian's clients.
  uint64_t retriesIssued() const { return Retries->value(); }

  /// Retry budget: takes one retry token for calls to \p Remote. The
  /// bucket starts at \p Budget and is debited 1.0 per retry; successful
  /// calls credit it back (creditRetryToken), capped at \p Budget. Returns
  /// false when the bucket is exhausted — the caller must not retry.
  /// Budget <= 0 disables the mechanism (always allowed).
  bool takeRetryToken(const net::Address &Remote, double Budget);

  /// Credits \p Credit back into \p Remote's retry bucket (capped at
  /// \p Budget). Called on successful outcomes so sustained success
  /// replenishes the budget.
  void creditRetryToken(const net::Address &Remote, double Budget,
                        double Credit);

  /// Records one retry attempt (counter + trace event). \p Attempt is the
  /// 1-based attempt number about to be issued.
  void noteRetry(stream::AgentId Agent, int Attempt);

  /// Handler calls currently live: executing, or queued behind an earlier
  /// call of their stream. Must be 0 at quiescence: anything else means
  /// executor bookkeeping leaked on a kill path. Same quantity the
  /// runtime.live_call_processes gauge reads. Maintained as a counter (not
  /// a scan): the admission-control check reads it once per incoming call,
  /// and a per-call walk over every stream's table turns a storm into
  /// quadratic work.
  size_t liveCallProcessCount() const { return LiveCallProcs; }

  /// The calls in the stream tables, counted by a scan: what
  /// liveCallProcessCount() must equal at every instant.
  size_t tabledCallCount() const {
    size_t N = 0;
    for (const CallTable &T : Domains)
      N += T.size();
    return N;
  }

  /// Delivered handler calls queued behind an earlier call on their
  /// stream, with no runner yet. Must be 0 at quiescence.
  size_t gatedCallCount() const {
    size_t N = 0;
    for (const CallTable &T : Domains)
      T.forEach([&N](stream::Seq, const LiveCall &Call) { N += !Call.Runner; });
    return N;
  }

private:
  /// A delivered call, executing or queued.
  struct LiveCall {
    /// Moved out by the runner before the handler runs: a cancel or an
    /// orphan destruction erases the entry while a handler in a critical
    /// section can still complete the call.
    stream::IncomingCall Call;
    /// The process running this call, or about to; null while queued.
    sim::ProcessHandle Runner;
  };
  /// One stream's live calls in seq order, and the orphans to destroy when
  /// it dies. Only a serial stream's first call has a runner, which takes
  /// the queued ones in order; each parallel-group call has its own. The
  /// transport delivers a stream's calls in seq order, so they sit in a
  /// ring by seq, which keeps its slots once the stream goes quiet.
  using CallTable = stream::SeqRing<LiveCall>;

  /// The call table of stream \p Tag, made if absent.
  CallTable &table(uint64_t Tag);
  void onStreamDead(uint64_t Tag);

  void onIncomingCall(stream::IncomingCall IC);
  /// Spawns the runner that starts with call \p Sq of \p T.
  void startRunner(CallTable &T, stream::Seq Sq);
  /// The runner body: executes call \p Sq of \p T, then each queued call
  /// that becomes the table's first, yielding between two calls.
  void runCalls(CallTable &T, stream::Seq Sq);
  void runCall(stream::IncomingCall &IC);
  /// Transport cancel hook: drops call (Tag, Sq), kills its runner if it
  /// has one, and hands the queue behind it to a fresh runner.
  void cancelCall(uint64_t Tag, stream::Seq Sq);
  void onNodeCrash();
  /// {guardian, node, epoch}: a guardian rebuilt on a restarted node gets
  /// cells of its own.
  MetricLabels labels() const;

  net::Network &Net;
  /// Cached from Net at construction, saving an indirection per use.
  sim::Simulation &Sim;
  net::NodeId Node;
  std::string Name;
  GuardianConfig Cfg;
  MetricsRegistry &Reg;
  bool Crashed = false;
  stream::GroupId NextGroup = DefaultGroup + 1;
  stream::PortId NextPort = 1;
  Counter *CallsExec = nullptr;
  Counter *OrphansDestroyed = nullptr;
  Counter *DeadlinesExpired = nullptr;
  Counter *CallsShed = nullptr;
  Counter *Retries = nullptr;
  std::unique_ptr<stream::StreamTransport> Transport;
  std::map<stream::PortId, std::function<void(stream::IncomingCall &)>>
      Executors;
  /// The call tables by stream tag: tag T's is slot T - 1, as the
  /// transport hands tags out densely. A deque, so a table stays put
  /// while its runner holds it; a drained table keeps its ring too, so a
  /// call on a warm stream allocates nothing.
  std::deque<CallTable> Domains;
  /// Sum of the call tables' sizes, kept in lockstep with every
  /// insert/erase so admission control is O(1) per call.
  size_t LiveCallProcs = 0;
  std::set<stream::GroupId> ParallelGroups;
  std::set<stream::PortId> ShedExemptPorts;
  /// Per-remote retry token buckets (see takeRetryToken).
  std::map<net::Address, double> RetryTokens;
  /// Registers \p P in Procs (for kill-on-crash) and amortizes the table:
  /// once it doubles past the last sweep, finished handles are dropped so
  /// long-lived guardians stay O(live), not O(ever spawned).
  void trackProcess(sim::ProcessHandle P);
  /// Every process this guardian has spawned and not yet swept; the
  /// crash path kills them all. Finished entries are reclaimed by
  /// trackProcess's amortized sweep.
  std::vector<sim::ProcessHandle> Procs;
  size_t NextProcsSweep = 64;
};

} // namespace promises::runtime

#endif // PROMISES_RUNTIME_GUARDIAN_H
