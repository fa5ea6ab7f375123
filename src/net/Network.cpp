//===- Network.cpp - The network core and the simulated backend -----------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/net/Network.h"

#include "promises/support/StrUtil.h"

#include <algorithm>
#include <cassert>

using namespace promises;
using namespace promises::net;
using sim::Time;

namespace {

/// Bits flipped per corrupted copy: 1..this.
constexpr uint32_t CorruptMaxBits = 8;

} // namespace

void Network::registerCells(MetricsRegistry &Reg, CounterCells &C,
                            MetricLabels Labels) {
  C.Sent = &Reg.counter("net.datagrams_sent", Labels);
  C.Delivered = &Reg.counter("net.datagrams_delivered", Labels);
  C.Dropped = &Reg.counter("net.datagrams_dropped", Labels);
  C.Duplicated = &Reg.counter("net.datagrams_duplicated", Labels);
  C.Corrupted = &Reg.counter("net.datagrams_corrupted", Labels);
  C.Bytes = &Reg.counter("net.bytes_sent", std::move(Labels));
}

Network::Network(sim::Simulation &S) : Sim(S), Reg(S.metrics()) {
  registerCells(Reg, Totals, {});
  StaleDrops = &Reg.counter("net.datagrams_stale_dropped", {});
}

Network::~Network() = default;

NodeId Network::addNode(std::string Name) {
  NodeId N = static_cast<NodeId>(Nodes.size());
  Node &Nd = Nodes.emplace_back();
  Nd.Name = std::move(Name);
  registerCells(Reg, Nd.Counters,
                {{"node", Nd.Name}, {"id", strprintf("%u", N)}});
  return N;
}

Address Network::bind(NodeId N, std::function<void(Datagram)> Handler) {
  Node &Nd = node(N);
  assert(Nd.Up && "bind on a crashed node");
  Address A{N, Nd.NextPort++, Nd.Epoch};
  onBind(A);
  Binds[A] = std::move(Handler);
  return A;
}

void Network::unbind(Address A) {
  if (Binds.erase(A))
    onUnbind(A);
}

void Network::onCrash(NodeId N, std::function<void()> Cb) {
  node(N).CrashObservers.push_back(std::move(Cb));
}

void Network::crash(NodeId N) {
  Node &Nd = node(N);
  if (!Nd.Up)
    return;
  Nd.Up = false;
  Reg.emit({Sim.now(), EventKind::NodeCrash, N, 0, 0, 0, Nd.Name});
  // Remove every binding on the node (addresses sort by node first);
  // later deliveries count as drops.
  auto It = Binds.lower_bound(Address{N, 0, 0});
  while (It != Binds.end() && It->first.Node == N) {
    Address A = It->first;
    It = Binds.erase(It);
    onUnbind(A);
  }
  // Fire observers once, then clear them (restart re-registers).
  std::vector<std::function<void()>> Observers;
  Observers.swap(Nd.CrashObservers);
  for (auto &Cb : Observers)
    Cb();
}

void Network::restart(NodeId N) {
  Node &Nd = node(N);
  assert(!Nd.Up && "restart of a node that is up");
  Nd.Up = true;
  // The new incarnation reuses port numbers (a rebooted kernel allocates
  // from port 1 again); the epoch bump keeps addresses from the old
  // incarnation dead — see the stale-epoch check in deliver().
  ++Nd.Epoch;
  Nd.NextPort = 1;
  onRestart(N);
  Reg.emit({Sim.now(), EventKind::NodeRestart, N, 0, 0, 0, Nd.Name});
}

void Network::countSend(NodeId From, uint64_t WireBytes) {
  CounterCells &C = node(From).Counters;
  Totals.Sent->inc();
  Totals.Bytes->inc(WireBytes);
  C.Sent->inc();
  C.Bytes->inc(WireBytes);
}

void Network::countDrop(NodeId To) {
  Totals.Dropped->inc();
  node(To).Counters.Dropped->inc();
}

bool Network::deliver(Datagram D) {
  Node &R = node(D.To.Node);
  if (!R.Up) {
    countDrop(D.To.Node);
    return false;
  }
  // A datagram sent before a crash must not land in the post-restart
  // incarnation, even if the new incarnation rebound the same port.
  if (D.To.Epoch != R.Epoch) {
    StaleDrops->inc();
    countDrop(D.To.Node);
    return false;
  }
  auto It = Binds.find(D.To);
  if (It == Binds.end()) {
    countDrop(D.To.Node);
    return false;
  }
  Totals.Delivered->inc();
  R.Counters.Delivered->inc();
  It->second(std::move(D));
  return true;
}

SimNetwork::SimNetwork(sim::Simulation &S, NetConfig C)
    : Network(S), Cfg(C), Rand(C.Seed) {}

SimNetwork::NodePaths &SimNetwork::paths(NodeId N) {
  if (N >= Paths.size())
    Paths.resize(N + 1);
  return Paths[N];
}

void SimNetwork::onRestart(NodeId N) {
  NodePaths &P = paths(N);
  P.TxFreeAt = Sim.now();
  P.RxFreeAt = Sim.now();
}

void SimNetwork::setPartitioned(NodeId A, NodeId B, bool Cut) {
  auto Key = std::minmax(A, B);
  if (Cut)
    Partitions.insert({Key.first, Key.second});
  else
    Partitions.erase({Key.first, Key.second});
}

bool SimNetwork::isPartitioned(NodeId A, NodeId B) const {
  auto Key = std::minmax(A, B);
  return Partitions.count({Key.first, Key.second}) != 0;
}

void SimNetwork::setLinkLoss(NodeId A, NodeId B, double Rate) {
  auto Key = std::minmax(A, B);
  LinkLoss[{Key.first, Key.second}] = Rate;
}

double SimNetwork::lossBetween(NodeId A, NodeId B) const {
  auto Key = std::minmax(A, B);
  auto It = LinkLoss.find({Key.first, Key.second});
  return It != LinkLoss.end() ? It->second : Cfg.LossRate;
}

SimNetwork::LinkStats &SimNetwork::linkStats(NodeId From, NodeId To) {
  auto [It, Inserted] = Links.try_emplace({From, To});
  if (Inserted) {
    MetricLabels L{{"link", nodeName(From) + "->" + nodeName(To)}};
    It->second.Drops = &Reg.counter("net.link_drops", L);
    It->second.LatencyUs = &Reg.histogram("net.link_latency_us", std::move(L));
  }
  return It->second;
}

void SimNetwork::dropOnLink(NodeId From, NodeId To) {
  countDrop(To);
  if (Reg.enabled())
    linkStats(From, To).Drops->inc();
}

void SimNetwork::send(Address From, Address To, wire::Bytes Payload) {
  uint64_t WireBytes = Payload.size() + Cfg.HeaderBytes;
  countSend(From.Node, WireBytes);
  if (!isUp(From.Node)) {
    dropOnLink(From.Node, To.Node);
    return;
  }

  // The transmit path is a serial resource: the datagram occupies it for
  // the kernel-call overhead plus the per-byte cost.
  NodePaths &Tx = paths(From.Node);
  Time Busy = Cfg.SendKernelOverhead + WireBytes * Cfg.PerByte;
  Time Start = std::max(Sim.now(), Tx.TxFreeAt);
  Tx.TxFreeAt = Start + Busy;

  // Loss and partition at transmission time.
  if (isPartitioned(From.Node, To.Node) ||
      Rand.chance(lossBetween(From.Node, To.Node))) {
    dropOnLink(From.Node, To.Node);
    return;
  }

  Time Jitter = Cfg.JitterMax != 0 ? Rand.below(Cfg.JitterMax + 1) : 0;
  Time ArriveAt = Tx.TxFreeAt + Cfg.Propagation + Jitter;
  int Copies = Rand.chance(Cfg.DupRate) ? 2 : 1;
  if (Copies == 2) {
    Totals.Duplicated->inc();
    node(From.Node).Counters.Duplicated->inc();
  }
  Time SentAt = Sim.now();
  for (int I = 0; I != Copies; ++I) {
    // The last copy adopts the payload instead of copying it: in the
    // common (no-dup) case the sealed buffer travels from the sender's
    // Encoder to the receiver's decoder with zero payload copies.
    Datagram D{From, To,
               I + 1 == Copies ? std::move(Payload) : wire::Bytes(Payload)};
    // Bounded reordering: an unlucky copy dawdles, letting later sends (or
    // its own twin) overtake it. Bit flips damage the copy in flight; it
    // still arrives and counts as delivered — detecting the damage is the
    // transport's job (wire/Frame.h checksums). Both draws are gated on
    // their rates, so runs with the knobs off consume no RNG state.
    Time Extra = 0;
    if (Rand.chance(Cfg.ReorderRate) && Cfg.ReorderMax != 0)
      Extra = Rand.below(Cfg.ReorderMax + 1);
    if (Rand.chance(Cfg.CorruptRate) && !D.Payload.empty()) {
      uint32_t Bits = 1 + static_cast<uint32_t>(Rand.below(CorruptMaxBits));
      for (uint32_t B = 0; B != Bits; ++B) {
        uint64_t Pos = Rand.below(D.Payload.size() * 8);
        D.Payload[Pos / 8] ^= static_cast<uint8_t>(1u << (Pos % 8));
      }
      Totals.Corrupted->inc();
      node(From.Node).Counters.Corrupted->inc();
      Reg.emit({Sim.now(), EventKind::DatagramCorrupted, From.Node, From.Port,
                Bits, 0, ""});
    }
    uint32_t Slot = park(std::move(D), SentAt);
    Sim.schedule(ArriveAt + Extra - Sim.now(), [this, Slot] { arrive(Slot); });
  }
}

uint32_t SimNetwork::park(Datagram D, Time SentAt) {
  uint32_t Slot = FreeFlight;
  if (Slot == UINT32_MAX) {
    Slot = static_cast<uint32_t>(Flights.size());
    Flights.emplace_back();
  } else {
    FreeFlight = Flights[Slot].NextFree;
  }
  Flights[Slot].D = std::move(D);
  Flights[Slot].SentAt = SentAt;
  return Slot;
}

Datagram SimNetwork::unpark(uint32_t Slot) {
  InFlight &F = Flights[Slot];
  Datagram D = std::move(F.D);
  F.NextFree = FreeFlight;
  FreeFlight = Slot;
  return D;
}

void SimNetwork::arrive(uint32_t Slot) {
  // Conditions are re-checked at arrival so that partitions and crashes
  // that happen while a datagram is in flight still drop it (the source of
  // the paper's *asynchronous* breaks).
  const Datagram &D = Flights[Slot].D;
  if (!isUp(D.To.Node) || isPartitioned(D.From.Node, D.To.Node)) {
    dropOnLink(D.From.Node, D.To.Node);
    unpark(Slot);
    return;
  }
  NodePaths &Rx = paths(D.To.Node);
  uint64_t WireBytes = D.Payload.size() + Cfg.HeaderBytes;
  Time Busy = Cfg.RecvKernelOverhead + WireBytes * Cfg.PerByte;
  Time Start = std::max(Sim.now(), Rx.RxFreeAt);
  Rx.RxFreeAt = Start + Busy;
  Sim.schedule(Start + Busy - Sim.now(), [this, Slot] { land(Slot); });
}

void SimNetwork::land(uint32_t Slot) {
  Time SentAt = Flights[Slot].SentAt;
  // Out of the pool before the handler runs: it may send, and so park.
  Datagram D = unpark(Slot);
  NodeId From = D.From.Node, To = D.To.Node;
  bool Delivered = deliver(std::move(D));
  if (!Reg.enabled())
    return;
  LinkStats &L = linkStats(From, To);
  if (Delivered)
    L.LatencyUs->observe(static_cast<double>(Sim.now() - SentAt) / 1e3);
  else
    L.Drops->inc();
}
