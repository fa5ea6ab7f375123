//===- promises/net/Network.h - Datagram network backends ------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The datagram network seam (docs/NETWORK.md). `Network` is the
/// unreliable-datagram service every layer above (StreamTransport,
/// Guardian, the send/receive baseline) is written against. It owns the
/// node lifecycle and the bindings once; two backends supply how a
/// datagram travels:
///
///  * `SimNetwork` (this file) — the deterministic in-process simulator
///    with the cost model that drives the paper's performance claims:
///
///     - every datagram costs a fixed *kernel-call overhead* plus a
///       per-byte serialization cost at each side (paper, Section 2:
///       "Buffering allows us to amortize the overhead of kernel calls and
///       the transmission delays for messages over several calls"),
///     - each node's transmit and receive paths are serial resources, so
///       per-message overheads bound throughput,
///     - one-way propagation delay bounds RPC latency,
///
///    plus seeded fault injection: message loss, duplication, reordering
///    jitter, bit-flip corruption, link partitions, and node crashes — the
///    raw material for broken streams (Section 2). The simulator is the
///    determinism/chaos oracle.
///
///  * `UdpNetwork` (net/UdpNetwork.h) — the same service over real
///    nonblocking UDP sockets and a real-time clock driver; the
///    measurement plane. Same frames, same transport, real kernel.
///
/// The stream transport carries its own integrity (CRC32C frames) and
/// recovery (retransmission) machinery, so both backends may drop,
/// duplicate, and reorder freely.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_NET_NETWORK_H
#define PROMISES_NET_NETWORK_H

#include "promises/sim/Simulation.h"
#include "promises/support/Rng.h"
#include "promises/wire/Codec.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace promises::net {

/// Identifies a node in the network.
using NodeId = uint32_t;

/// A bound datagram endpoint: (node, port number, node incarnation).
///
/// The epoch names the incarnation of the node the port was bound in. A
/// restart bumps the node's epoch and resets port allocation, so an
/// address minted before a crash can never alias a binding made after the
/// restart even when the port number is reused — datagrams addressed to a
/// previous epoch are dropped at delivery.
struct Address {
  NodeId Node = 0;
  uint32_t Port = 0;
  uint32_t Epoch = 0;

  friend bool operator==(const Address &A, const Address &B) {
    return A.Node == B.Node && A.Port == B.Port && A.Epoch == B.Epoch;
  }
  friend bool operator<(const Address &A, const Address &B) {
    if (A.Node != B.Node)
      return A.Node < B.Node;
    if (A.Epoch != B.Epoch)
      return A.Epoch < B.Epoch;
    return A.Port < B.Port;
  }
};

/// A delivered datagram.
struct Datagram {
  Address From;
  Address To;
  wire::Bytes Payload;
};

/// Cost model and fault parameters for the simulated backend. Defaults
/// approximate a late-1980s LAN RPC system; see DESIGN.md Section 5.
struct NetConfig {
  sim::Time SendKernelOverhead = sim::usec(50);
  sim::Time RecvKernelOverhead = sim::usec(20);
  sim::Time PerByte = sim::nsec(100); // 1 us per 10 bytes.
  sim::Time Propagation = sim::msec(2);
  uint32_t HeaderBytes = 32; ///< Fixed per-datagram framing overhead.
  double LossRate = 0.0;
  double DupRate = 0.0;
  sim::Time JitterMax = 0; ///< Uniform extra delay; >0 permits reordering.
  double CorruptRate = 0.0;   ///< Per-copy probability of in-flight bit flips.
  double ReorderRate = 0.0;   ///< Per-copy probability of bounded extra delay.
  sim::Time ReorderMax = 0;   ///< Extra delay drawn uniformly from [0, this].
  uint64_t Seed = 1;
};

/// Message and byte counters, per node and network-wide. A thin value view
/// assembled from the registry-backed cells (see support/Metrics.h); at
/// quiescence DatagramsSent + DatagramsDuplicated ==
/// DatagramsDelivered + DatagramsDropped, network-wide. Per node, a send
/// counts on the sender and a delivery or drop on the addressed node.
struct NetCounters {
  uint64_t DatagramsSent = 0;       ///< send() calls (copies not counted).
  uint64_t DatagramsDelivered = 0;
  uint64_t DatagramsDropped = 0;    ///< Loss, partition, crash, or no bind.
  uint64_t DatagramsDuplicated = 0; ///< Extra in-flight copies from DupRate.
  uint64_t DatagramsCorrupted = 0;  ///< Copies damaged in flight (bit flips).
  uint64_t BytesSent = 0;           ///< Includes per-datagram header bytes.
};

/// The unreliable-datagram network (docs/NETWORK.md). The core owns what
/// every backend shares: the node table (name, up, epoch, port
/// allocation, crash observers, counters), the bound handlers, the crash
/// and restart lifecycle, and delivery into a handler. A backend supplies
/// send(): how a datagram travels. Handlers run in scheduler context
/// (they must not block — hand off to processes via wait queues instead).
///
/// The contract every backend provides: datagrams are delivered at most
/// once per in-flight copy, whole or not at all, to the exact bound
/// address they were sent to, with the sender's bound address attached —
/// and may otherwise be lost, duplicated, or reordered arbitrarily.
class Network {
public:
  virtual ~Network();
  Network(const Network &) = delete;
  Network &operator=(const Network &) = delete;

  /// The simulation this network delivers into (also its timer source).
  sim::Simulation &simulation() const { return Sim; }

  /// Creates a new node, initially up. Backends may restrict which nodes
  /// are local (bindable) — see UdpNetwork.
  NodeId addNode(std::string Name);

  /// Name given to addNode.
  const std::string &nodeName(NodeId N) const { return node(N).Name; }

  /// Binds a fresh port on \p N to \p Handler and returns its address.
  Address bind(NodeId N, std::function<void(Datagram)> Handler);

  /// Removes a binding; datagrams to it are counted as dropped.
  void unbind(Address A);

  /// Sends \p Payload from \p From to \p To. Callable from process or
  /// scheduler context; never blocks (costs are modeled as resource
  /// occupancy or absorbed by per-peer send queues, not caller delay).
  virtual void send(Address From, Address To, wire::Bytes Payload) = 0;

  /// Takes a node down: all its bindings are removed, in-flight traffic to
  /// and from it is dropped, and crash observers fire.
  void crash(NodeId N);

  /// Brings a crashed node back up (with no bindings). The node enters a
  /// new epoch and port numbering restarts from 1, so addresses bound
  /// before the crash are permanently dead even if their port numbers are
  /// reused by the new incarnation.
  void restart(NodeId N);

  bool isUp(NodeId N) const { return node(N).Up; }

  /// Current incarnation of \p N (0 until the first restart).
  uint32_t nodeEpoch(NodeId N) const { return node(N).Epoch; }

  /// Registers a callback to run (in scheduler context) when \p N crashes.
  /// Observers fire once: a restarted node registers afresh.
  void onCrash(NodeId N, std::function<void()> Cb);

  /// Network-wide and per-node counter snapshots (thin views of the
  /// registry cells; see simulation().metrics() for the registry itself).
  NetCounters counters() const { return Totals.view(); }
  NetCounters counters(NodeId N) const { return node(N).Counters.view(); }

  /// Datagrams dropped because they addressed a previous node epoch
  /// (stale traffic from before a crash/restart). Also counted in
  /// DatagramsDropped.
  uint64_t staleEpochDrops() const { return StaleDrops->value(); }

protected:
  explicit Network(sim::Simulation &S);

  /// Registry-backed counter cells behind one NetCounters view.
  struct CounterCells {
    Counter *Sent = nullptr;
    Counter *Delivered = nullptr;
    Counter *Dropped = nullptr;
    Counter *Duplicated = nullptr;
    Counter *Corrupted = nullptr;
    Counter *Bytes = nullptr;
    NetCounters view() const {
      return {Sent->value(),       Delivered->value(), Dropped->value(),
              Duplicated->value(), Corrupted->value(), Bytes->value()};
    }
  };

  struct Node {
    std::string Name;
    bool Up = true;
    uint32_t Epoch = 0;
    uint32_t NextPort = 1;
    CounterCells Counters;
    std::vector<std::function<void()>> CrashObservers;
  };

  Node &node(NodeId N) {
    assert(N < Nodes.size() && "unknown node");
    return Nodes[N];
  }
  const Node &node(NodeId N) const {
    assert(N < Nodes.size() && "unknown node");
    return Nodes[N];
  }

  /// Counts one send of \p WireBytes on \p From and network-wide.
  void countSend(NodeId From, uint64_t WireBytes);

  /// Counts one dropped copy on the node it was addressed to and
  /// network-wide.
  void countDrop(NodeId To);

  /// Hands \p D to the handler bound at D.To, or drops it (counted) when
  /// that node is down, D.To names a previous epoch, or nothing is bound
  /// there. Returns whether the handler ran.
  bool deliver(Datagram D);

  /// Lifecycle hooks, no-ops by default. onBind runs before the handler is
  /// installed; onUnbind after a binding is removed, by unbind or crash;
  /// onRestart once the node is back up in its new epoch.
  virtual void onBind(Address) {}
  virtual void onUnbind(Address) {}
  virtual void onRestart(NodeId) {}

  sim::Simulation &Sim;
  MetricsRegistry &Reg;
  CounterCells Totals;

private:
  /// Binds the six cells against \p Reg under the standard net.* names.
  static void registerCells(MetricsRegistry &Reg, CounterCells &C,
                            MetricLabels Labels);

  std::vector<Node> Nodes;
  std::map<Address, std::function<void(Datagram)>> Binds;
  Counter *StaleDrops = nullptr;
};

/// The simulated backend: deterministic virtual-time delivery with the
/// paper's cost model and seeded fault injection.
class SimNetwork final : public Network {
public:
  SimNetwork(sim::Simulation &S, NetConfig C = NetConfig());

  /// Sends \p Payload from \p From to \p To, applying the cost model and
  /// fault processes.
  void send(Address From, Address To, wire::Bytes Payload) override;

  /// --- Faults ---

  /// Cuts or heals the (symmetric) link between two nodes.
  void setPartitioned(NodeId A, NodeId B, bool Cut);

  bool isPartitioned(NodeId A, NodeId B) const;

  /// Overrides the global loss rate on the (symmetric) link A<->B.
  void setLinkLoss(NodeId A, NodeId B, double Rate);

  /// Adjusts the byte-damage rate at runtime (chaos bursts). A corrupted
  /// copy has 1..8 of its payload bits flipped in flight; it still
  /// *arrives* (and counts as delivered) — detection is the transport's
  /// job via frame checksums (wire/Frame.h).
  void setCorruptRate(double Rate) { Cfg.CorruptRate = Rate; }

  /// Adjusts the duplication rate at runtime.
  void setDupRate(double Rate) { Cfg.DupRate = Rate; }

  /// Adjusts reordering: each copy independently suffers an extra delay in
  /// [0, Max] with probability \p Rate, letting later sends overtake it.
  void setReorder(double Rate, sim::Time Max) {
    Cfg.ReorderRate = Rate;
    Cfg.ReorderMax = Max;
  }

  /// --- Introspection ---

  /// Virtual time at which a node's transmit path becomes free; the
  /// transmit backlog is max(0, txFreeAt - now).
  sim::Time txFreeAt(NodeId N) const {
    return N < Paths.size() ? Paths[N].TxFreeAt : 0;
  }

private:
  /// A node's transmit and receive paths: serial resources, each free
  /// again at the recorded virtual time.
  struct NodePaths {
    sim::Time TxFreeAt = 0;
    sim::Time RxFreeAt = 0;
  };

  /// Per-directed-link observability, created lazily while enabled.
  struct LinkStats {
    Counter *Drops = nullptr;
    Histogram *LatencyUs = nullptr;
  };

  /// One datagram copy between send() and its delivery or drop, pooled
  /// in Flights and recycled through a freelist. The two schedule()
  /// closures a copy needs (arrival at the receiver, then delivery once
  /// its receive path frees) capture only {this, slot}, stored inline in
  /// the kernel's event record: with the pool warm, a datagram costs the
  /// network no allocation at all.
  struct InFlight {
    Datagram D;
    sim::Time SentAt = 0;
    uint32_t NextFree = 0; ///< Freelist link while the slot is free.
  };
  // One cache line: two addresses, the payload vector and the send time.
  static_assert(sizeof(InFlight) <= 64, "in-flight datagram record grew");

  /// The new incarnation's transmit and receive paths start idle.
  void onRestart(NodeId N) override;

  NodePaths &paths(NodeId N);
  double lossBetween(NodeId A, NodeId B) const;
  LinkStats &linkStats(NodeId From, NodeId To);
  void dropOnLink(NodeId From, NodeId To);
  /// Parks \p D in a pooled slot and returns the slot's index.
  uint32_t park(Datagram D, sim::Time SentAt);
  /// Moves the datagram out of \p Slot and returns the slot to the pool.
  Datagram unpark(uint32_t Slot);
  void arrive(uint32_t Slot);
  void land(uint32_t Slot);

  NetConfig Cfg;
  Rng Rand;
  std::vector<NodePaths> Paths; ///< By node; grown on first use.
  std::set<std::pair<NodeId, NodeId>> Partitions;
  std::map<std::pair<NodeId, NodeId>, double> LinkLoss;
  std::map<std::pair<NodeId, NodeId>, LinkStats> Links;
  std::vector<InFlight> Flights;
  uint32_t FreeFlight = UINT32_MAX; ///< Head of the free-slot list.
};

} // namespace promises::net

namespace promises::wire {
/// Addresses travel in messages (ports may be "sent as arguments and
/// results of remote calls", paper Section 2).
template <> struct Codec<net::Address> {
  static void encode(Encoder &E, const net::Address &A) {
    E.writeU32(A.Node);
    E.writeU32(A.Port);
    E.writeU32(A.Epoch);
  }
  static net::Address decode(Decoder &D) {
    net::Address A;
    A.Node = D.readU32();
    A.Port = D.readU32();
    A.Epoch = D.readU32();
    return A;
  }
};
} // namespace promises::wire

#endif // PROMISES_NET_NETWORK_H
