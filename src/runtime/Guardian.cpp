//===- Guardian.cpp - Active entities --------------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/runtime/Guardian.h"

#include "promises/core/Exceptions.h"
#include "promises/support/StrUtil.h"

#include <algorithm>
#include <cassert>

using namespace promises;
using namespace promises::runtime;

Guardian::Guardian(net::Network &Net, net::NodeId Node, std::string Name,
                   GuardianConfig Cfg)
    : Net(Net), Sim(Net.simulation()), Node(Node), Name(std::move(Name)),
      Cfg(Cfg), Reg(Sim.metrics()) {
  Transport = std::make_unique<stream::StreamTransport>(Net, Node, Cfg.Stream);
  MetricLabels L = labels();
  CallsExec = &Reg.counter("runtime.calls_executed", L);
  OrphansDestroyed = &Reg.counter("runtime.orphans_destroyed", L);
  DeadlinesExpired = &Reg.counter("call.deadline_expired", L);
  CallsShed = &Reg.counter("call.shed", L);
  Retries = &Reg.counter("call.retries", L);
  Reg.gaugeProbe("runtime.handler_queue_depth", [this] {
    return static_cast<double>(gatedCallCount());
  }, L);
  Reg.gaugeProbe("runtime.live_call_processes", [this] {
    return static_cast<double>(LiveCallProcs);
  }, L);
  Transport->setCallSink(
      [this](stream::IncomingCall IC) { onIncomingCall(std::move(IC)); });
  Transport->setStreamDeadHook([this](uint64_t Tag) { onStreamDead(Tag); });
  Transport->setCallCancelHook(
      [this](uint64_t Tag, stream::Seq Sq) { cancelCall(Tag, Sq); });
  Net.onCrash(Node, [this] { onNodeCrash(); });
}

Guardian::~Guardian() {
  // Stop traffic first so no new call processes are spawned while the
  // executor table is being torn down. Outstanding callbacks are dropped
  // unrun: they may reach into processes and promises already gone.
  Transport->shutdown(/*Settle=*/false);
  // Freeze the probe gauges at their final value: the registry outlives
  // this guardian, and a probe capturing `this` must not dangle.
  MetricLabels L = labels();
  for (const char *G : {"runtime.handler_queue_depth",
                        "runtime.live_call_processes"}) {
    double Final = Reg.gauge(G, L).value();
    Reg.gaugeProbe(G, [Final] { return Final; }, L);
  }
}

MetricLabels Guardian::labels() const {
  return {{"guardian", Name},
          {"node", strprintf("%u", Node)},
          {"epoch", strprintf("%u", Transport->address().Epoch)}};
}

void Guardian::onNodeCrash() {
  Crashed = true;
  // The transport registered its crash observer first and has already shut
  // down; all that remains is to kill the guardian's processes and drop
  // the live calls, queued ones included: those have no process to unwind.
  for (const sim::ProcessHandle &P : Procs)
    Sim.kill(P);
  for (CallTable &T : Domains)
    T.clear();
  LiveCallProcs = 0;
}

sim::ProcessHandle Guardian::spawnProcess(std::string ProcName,
                                          InlineFunction<void()> Body) {
  assert(!Crashed && "spawnProcess on a crashed guardian");
  sim::ProcessHandle P =
      Sim.spawn(Name + "/" + ProcName, std::move(Body));
  trackProcess(P);
  return P;
}

void Guardian::trackProcess(sim::ProcessHandle P) {
  Procs.push_back(std::move(P));
  if (Procs.size() < NextProcsSweep)
    return;
  std::erase_if(Procs,
                [](const sim::ProcessHandle &H) { return H->finished(); });
  NextProcsSweep = std::max<size_t>(64, Procs.size() * 2);
}

Guardian::CallTable &Guardian::table(uint64_t Tag) {
  if (Tag > Domains.size())
    Domains.resize(Tag);
  return Domains[Tag - 1];
}

void Guardian::onIncomingCall(stream::IncomingCall IC) {
  if (Crashed)
    return;
  CallTable &T = table(IC.StreamTag);
  // Admission control: shed the call before it enters the table. The
  // reply is a conserving outcome — the sender sees
  // unavailable("overloaded") in order, like any other completion. Two
  // bounds compose: the guardian-wide MaxPendingCalls cap and the
  // per-stream MaxPendingPerStream quota (tenant isolation — one
  // storming stream cannot occupy every slot).
  bool OverGlobal =
      Cfg.MaxPendingCalls != 0 && LiveCallProcs >= Cfg.MaxPendingCalls;
  bool OverStream =
      Cfg.MaxPendingPerStream != 0 && T.size() >= Cfg.MaxPendingPerStream;
  if ((OverGlobal || OverStream) && ShedExemptPorts.count(IC.Port) == 0) {
    // A shed seq never enters the table, so no call waits on it.
    CallsShed->inc();
    Reg.emit({Sim.now(), EventKind::CallShed, Node,
              IC.StreamTag, IC.CallSeq, 0, {}});
    IC.Complete(stream::ReplyStatus::Unavailable, 0, {},
                core::reasons::Overloaded);
    return;
  }
  // The transport delivers a stream's calls in seq order, so a serial
  // call that finds an earlier call live waits in the table for that
  // call's runner; calls on different streams (different tags) proceed
  // concurrently. A parallel group's call skips the wait: the transport
  // reorders completions back into call order for the sender.
  bool Queued = !T.empty() && !isParallelGroup(IC.Group);
  auto It = T.emplace_hint(T.end(), IC.CallSeq, LiveCall{std::move(IC), {}});
  ++LiveCallProcs;
  if (!Queued)
    startRunner(T, It);
}

void Guardian::startRunner(CallTable &T, CallTable::iterator It) {
  // The body captures 24 bytes and is stored inline in the Process; the
  // constant name needs no formatting.
  It->second.Runner =
      Sim.spawn("call", [this, &T, Sq = It->first] { runCalls(T, Sq); });
  trackProcess(It->second.Runner);
}

void Guardian::runCalls(CallTable &T, stream::Seq Sq) {
  for (;;) {
    stream::IncomingCall IC = std::move(T.find(Sq)->second.Call);
    runCall(IC);
    // A cancel, an orphan destruction or a crash erases the entry of the
    // runner it kills; a handler in a critical section still gets here.
    auto It = T.find(Sq);
    if (It == T.end())
      return;
    sim::ProcessHandle Self = std::move(It->second.Runner);
    T.erase(It);
    --LiveCallProcs;
    if (T.empty() || T.begin()->second.Runner)
      return; // Drained, or a parallel group: every call has its runner.
    Sq = T.begin()->first;
    T.begin()->second.Runner = std::move(Self);
    // Whatever else is ready now runs before the next call, as it would
    // before a process of the call's own: traces keep their order.
    Sim.yieldNow();
  }
}

void Guardian::cancelCall(uint64_t Tag, stream::Seq Sq) {
  CallTable &T = table(Tag);
  auto It = T.find(Sq);
  if (It == T.end())
    return;
  // Tear the runner down through the same machinery as orphan
  // destruction; a queued call has none.
  if (It->second.Runner)
    Sim.kill(It->second.Runner);
  T.erase(It);
  --LiveCallProcs;
  if (!T.empty() && !T.begin()->second.Runner)
    startRunner(T, T.begin());
}

bool Guardian::takeRetryToken(const net::Address &Remote, double Budget) {
  if (Budget <= 0)
    return true;
  auto [It, Inserted] = RetryTokens.try_emplace(Remote, Budget);
  if (It->second < 1.0)
    return false;
  It->second -= 1.0;
  return true;
}

void Guardian::creditRetryToken(const net::Address &Remote, double Budget,
                                double Credit) {
  if (Budget <= 0)
    return;
  auto [It, Inserted] = RetryTokens.try_emplace(Remote, Budget);
  It->second = std::min(Budget, It->second + Credit);
}

void Guardian::noteRetry(stream::AgentId Agent, int Attempt) {
  Retries->inc();
  Reg.emit({Sim.now(), EventKind::CallRetry, Node, Agent,
            static_cast<uint64_t>(Attempt), 0, {}});
}

void Guardian::onStreamDead(uint64_t Tag) {
  // The stream broke or was superseded: destroy its orphaned executions
  // (paper, Section 4.2: the system "will find these computations and
  // destroy them later" — here, promptly). The call that triggered the
  // break may be the current runner's; it finishes that call and exits.
  if (Tag > Domains.size())
    return;
  CallTable &T = Domains[Tag - 1];
  sim::Process *Self = sim::Simulation::current();
  for (auto &[Seq, Call] : T) {
    if (Call.Runner && Call.Runner.get() == Self)
      continue;
    OrphansDestroyed->inc();
    Reg.emit({Sim.now(), EventKind::OrphanDestroyed, Node, Tag, Seq, 0, {}});
    if (Call.Runner)
      Sim.kill(Call.Runner);
  }
  // The clear covers every entry — including the current runner's, which
  // then finds its entry gone and exits — so the live counter drops by the
  // full table size here, exactly once.
  LiveCallProcs -= T.size();
  T.clear();
}

void Guardian::runCall(stream::IncomingCall &IC) {
  // "Calls on broken streams are discarded automatically, so user code
  // never needs to deal with them."
  if (Transport->isReceiverBroken(IC.StreamTag))
    return;
  // Deadline check happens at execution start, after any stream-order
  // gating: a call that spent its whole deadline queued behind earlier
  // calls is dropped without running the handler.
  if (IC.DeadlineNs != 0 && Sim.now() >= IC.DeadlineNs) {
    DeadlinesExpired->inc();
    Reg.emit({Sim.now(), EventKind::DeadlineExpired, Node,
              IC.StreamTag, IC.CallSeq, 0, {}});
    IC.Complete(stream::ReplyStatus::Unavailable, 0, {},
                core::reasons::DeadlineExpired);
    return;
  }
  CallsExec->inc();
  auto It = Executors.find(IC.Port);
  if (It == Executors.end()) {
    IC.Complete(stream::ReplyStatus::Failure, 0, {}, "no such port");
    return;
  }
  It->second(IC);
}
