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
    size_t N = 0;
    for (const auto &[Tag, D] : Domains)
      N += D.Waiting.size();
    return static_cast<double>(N);
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
  // down; all that remains is to kill the guardian's processes.
  for (const sim::ProcessHandle &P : Procs)
    Sim.kill(P);
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

Guardian::ExecDomain &Guardian::domain(uint64_t Tag) { return Domains[Tag]; }

void Guardian::onIncomingCall(stream::IncomingCall IC) {
  if (Crashed)
    return;
  ExecDomain &D = domain(IC.StreamTag);
  D.Parallel = isParallelGroup(IC.Group);
  // Admission control: shed the call before spawning a process for it.
  // The reply is a conserving outcome — the sender sees
  // unavailable("overloaded") in order, like any other completion. Two
  // bounds compose: the guardian-wide MaxPendingCalls cap and the
  // per-stream MaxPendingPerStream quota (tenant isolation — one
  // storming stream cannot occupy every slot).
  bool OverGlobal =
      Cfg.MaxPendingCalls != 0 && LiveCallProcs >= Cfg.MaxPendingCalls;
  bool OverStream = Cfg.MaxPendingPerStream != 0 &&
                    D.Running.size() >= Cfg.MaxPendingPerStream;
  if ((OverGlobal || OverStream) && ShedExemptPorts.count(IC.Port) == 0) {
    // A shed seq never enters Running, so no call gates on it.
    CallsShed->inc();
    if (Reg.enabled())
      Reg.emit({Sim.now(), EventKind::CallShed, Node,
                IC.StreamTag, IC.CallSeq, 0, {}});
    IC.Complete(stream::ReplyStatus::Unavailable, 0, {},
                core::reasons::Overloaded);
    return;
  }
  // One process (and agent) per call. The process waits for its turn so
  // that calls on the same stream appear to execute in call order; calls
  // on different streams (different tags) proceed concurrently. Both
  // bodies capture 32 bytes and are stored inline in the Process; the
  // constant name needs no formatting.
  auto Call = std::make_shared<stream::IncomingCall>(std::move(IC));
  sim::ProcessHandle P;
  // A handler killed mid-flight (node crash, orphan destruction) unwinds
  // out of the body without reaching trailing statements, so the executor
  // tables — which feed the probe gauges — are cleaned by a guard, not by
  // straight-line code.
  struct Cleanup {
    Guardian &G;
    ExecDomain &D;
    stream::Seq Mine;
    ~Cleanup() {
      D.Waiting.erase(Mine);
      if (D.Running.erase(Mine)) {
        --G.LiveCallProcs;
        G.wakeFirst(D);
      }
    }
  };
  if (D.Parallel) {
    // Explicit override: no gating; the transport reorders completions
    // back into call order for the sender.
    P = Sim.spawn("call", [this, Call, &D] {
      Cleanup C{*this, D, Call->CallSeq};
      runCall(*Call);
    });
  } else {
    // The transport delivers a stream's calls in seq order, so a call is
    // due once no earlier call of its stream is still running or gated:
    // once it is the first key of Running.
    P = Sim.spawn("call", [this, Call, &D] {
      stream::Seq Mine = Call->CallSeq;
      Cleanup C{*this, D, Mine};
      if (D.Running.begin()->first != Mine) {
        auto &Q = D.Waiting[Mine];
        if (!Q)
          Q = std::make_unique<sim::WaitQueue>(Sim);
        while (D.Running.begin()->first != Mine)
          Q->wait();
        D.Waiting.erase(Mine);
      }
      runCall(*Call);
    });
  }
  LiveCallProcs += D.Running.emplace(Call->CallSeq, P).second;
  trackProcess(std::move(P));
}

void Guardian::wakeFirst(ExecDomain &D) {
  if (D.Parallel || D.Running.empty())
    return;
  auto First = D.Waiting.find(D.Running.begin()->first);
  if (First != D.Waiting.end())
    First->second->notifyOne();
}

void Guardian::cancelCall(uint64_t Tag, stream::Seq Sq) {
  ExecDomain &D = domain(Tag);
  auto RIt = D.Running.find(Sq);
  if (RIt == D.Running.end())
    return;
  // Tear the call process down through the same machinery as orphan
  // destruction. Erase the Running entry here, not just in the process's
  // cleanup guard: a process killed before its first turn never runs its
  // body, so the guard never fires.
  Sim.kill(RIt->second);
  D.Running.erase(RIt);
  --LiveCallProcs;
  wakeFirst(D);
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
  if (Reg.enabled())
    Reg.emit({Sim.now(), EventKind::CallRetry, Node, Agent,
              static_cast<uint64_t>(Attempt), 0, {}});
}

void Guardian::onStreamDead(uint64_t Tag) {
  // The stream broke or was superseded: destroy its orphaned executions
  // (paper, Section 4.2: the system "will find these computations and
  // destroy them later" — here, promptly). The call that triggered the
  // break may be the current process; it finishes its own cleanup.
  auto It = Domains.find(Tag);
  if (It == Domains.end())
    return;
  sim::Process *Self = sim::Simulation::current();
  for (auto &[Seq, PH] : It->second.Running) {
    if (PH.get() == Self)
      continue;
    OrphansDestroyed->inc();
    if (Reg.enabled())
      Reg.emit({Sim.now(), EventKind::OrphanDestroyed, Node, Tag, Seq, 0, {}});
    Sim.kill(PH);
  }
  // The clear covers every entry — including the current process's, whose
  // cleanup guard will then erase nothing — so the live counter drops by
  // the full map size here, exactly once.
  LiveCallProcs -= It->second.Running.size();
  It->second.Running.clear();
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
    if (Reg.enabled())
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
