//===- promises/net/Network.h - Datagram network backends ------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The datagram network seam (docs/NETWORK.md). `Network` is the abstract
/// unreliable-datagram service every layer above (StreamTransport,
/// Guardian, the send/receive baseline) is written against; two backends
/// implement it:
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
  uint32_t CorruptMaxBits = 8; ///< Bits flipped per corruption: 1..this.
  double ReorderRate = 0.0;   ///< Per-copy probability of bounded extra delay.
  sim::Time ReorderMax = 0;   ///< Extra delay drawn uniformly from [0, this].
  uint64_t Seed = 1;
};

/// Message and byte counters, per node and network-wide. A thin value view
/// assembled from the registry-backed cells (see support/Metrics.h); at
/// quiescence DatagramsSent + DatagramsDuplicated ==
/// DatagramsDelivered + DatagramsDropped.
struct NetCounters {
  uint64_t DatagramsSent = 0;       ///< send() calls (copies not counted).
  uint64_t DatagramsDelivered = 0;
  uint64_t DatagramsDropped = 0;    ///< Loss, partition, crash, or no bind.
  uint64_t DatagramsDuplicated = 0; ///< Extra in-flight copies from DupRate.
  uint64_t DatagramsCorrupted = 0;  ///< Copies damaged in flight (bit flips).
  uint64_t BytesSent = 0;           ///< Includes per-datagram header bytes.
};

/// The abstract unreliable-datagram backend (docs/NETWORK.md). Owns node
/// state; endpoints are bound to callbacks that run in scheduler context
/// (they must not block — hand off to processes via wait queues instead).
///
/// The contract every backend provides: datagrams are delivered at most
/// once per in-flight copy, whole or not at all, to the exact bound
/// address they were sent to, with the sender's bound address attached —
/// and may otherwise be lost, duplicated, or reordered arbitrarily.
class Network {
public:
  virtual ~Network();
  Network() = default;
  Network(const Network &) = delete;
  Network &operator=(const Network &) = delete;

  /// The simulation this network delivers into (also its timer source).
  virtual sim::Simulation &simulation() = 0;

  /// Creates a new node, initially up. Backends may restrict which nodes
  /// are local (bindable) — see UdpNetwork.
  virtual NodeId addNode(std::string Name) = 0;

  /// Name given to addNode.
  virtual const std::string &nodeName(NodeId N) const = 0;

  /// Binds a fresh port on \p N to \p Handler and returns its address.
  virtual Address bind(NodeId N, std::function<void(Datagram)> Handler) = 0;

  /// Removes a binding; datagrams to it are counted as dropped.
  virtual void unbind(Address A) = 0;

  /// Sends \p Payload from \p From to \p To. Callable from process or
  /// scheduler context; never blocks (costs are modeled as resource
  /// occupancy or absorbed by per-peer send queues, not caller delay).
  virtual void send(Address From, Address To, wire::Bytes Payload) = 0;

  /// Takes a node down: all its bindings are removed, in-flight traffic to
  /// and from it is dropped, and crash observers fire.
  virtual void crash(NodeId N) = 0;

  /// Brings a crashed node back up (with no bindings). The node enters a
  /// new epoch and port numbering restarts from 1, so addresses bound
  /// before the crash are permanently dead even if their port numbers are
  /// reused by the new incarnation.
  virtual void restart(NodeId N) = 0;

  virtual bool isUp(NodeId N) const = 0;

  /// Current incarnation of \p N (0 until the first restart).
  virtual uint32_t nodeEpoch(NodeId N) const = 0;

  /// Registers a callback to run (in scheduler context) when \p N crashes.
  virtual void onCrash(NodeId N, std::function<void()> Cb) = 0;

  /// Network-wide and per-node counter snapshots (thin views of the
  /// registry cells; see simulation().metrics() for the registry itself).
  virtual NetCounters counters() const = 0;
  virtual NetCounters counters(NodeId N) const = 0;

protected:
  /// Registry-backed counter cells behind one NetCounters view; shared by
  /// the backends so both report under the same metric names.
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

  /// Binds the six cells against \p Reg under the standard net.* names.
  static void registerCells(MetricsRegistry &Reg, CounterCells &C,
                            MetricLabels Labels);
};

/// The simulated backend: deterministic virtual-time delivery with the
/// paper's cost model and seeded fault injection.
class SimNetwork final : public Network {
public:
  SimNetwork(sim::Simulation &S, NetConfig C = NetConfig());

  sim::Simulation &simulation() override { return Sim; }
  const NetConfig &config() const { return Cfg; }

  NodeId addNode(std::string Name) override;
  const std::string &nodeName(NodeId N) const override;
  Address bind(NodeId N, std::function<void(Datagram)> Handler) override;
  void unbind(Address A) override;

  /// Sends \p Payload from \p From to \p To, applying the cost model and
  /// fault processes.
  void send(Address From, Address To, wire::Bytes Payload) override;

  /// --- Faults ---

  void crash(NodeId N) override;
  void restart(NodeId N) override;
  bool isUp(NodeId N) const override;
  uint32_t nodeEpoch(NodeId N) const override;

  /// Cuts or heals the (symmetric) link between two nodes.
  void setPartitioned(NodeId A, NodeId B, bool Cut);

  bool isPartitioned(NodeId A, NodeId B) const;

  /// Overrides the global loss rate on the (symmetric) link A<->B.
  void setLinkLoss(NodeId A, NodeId B, double Rate);

  void onCrash(NodeId N, std::function<void()> Cb) override;

  /// Adjusts the byte-damage rate at runtime (chaos bursts). A corrupted
  /// copy has 1..CorruptMaxBits of its payload bits flipped in flight; it
  /// still *arrives* (and counts as delivered) — detection is the
  /// transport's job via frame checksums (wire/Frame.h).
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

  NetCounters counters() const override;
  NetCounters counters(NodeId N) const override;

  /// Virtual time at which a node's transmit path becomes free; the
  /// transmit backlog is max(0, txFreeAt - now).
  sim::Time txFreeAt(NodeId N) const;

  /// Datagrams dropped because they addressed a previous node epoch
  /// (stale traffic from before a crash/restart). Also counted in
  /// DatagramsDropped.
  uint64_t staleEpochDrops() const;

private:
  struct Node {
    std::string Name;
    bool Up = true;
    sim::Time TxFreeAt = 0;
    sim::Time RxFreeAt = 0;
    uint32_t Epoch = 0;
    uint32_t NextPort = 1;
    CounterCells Counters;
    std::vector<std::function<void()>> CrashObservers;
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

  Node &node(NodeId N);
  const Node &node(NodeId N) const;
  double lossBetween(NodeId A, NodeId B) const;
  LinkStats &linkStats(NodeId From, NodeId To);
  void countDrop(NodeId From, NodeId To);
  /// Parks \p D in a pooled slot and returns the slot's index.
  uint32_t park(Datagram D, sim::Time SentAt);
  /// Moves the datagram out of \p Slot and returns the slot to the pool.
  Datagram unpark(uint32_t Slot);
  void arrive(uint32_t Slot);
  void deliver(uint32_t Slot);

  sim::Simulation &Sim;
  MetricsRegistry &Reg;
  NetConfig Cfg;
  Rng Rand;
  std::vector<Node> Nodes;
  std::map<Address, std::function<void(Datagram)>> Binds;
  std::set<std::pair<NodeId, NodeId>> Partitions;
  std::map<std::pair<NodeId, NodeId>, double> LinkLoss;
  std::map<std::pair<NodeId, NodeId>, LinkStats> Links;
  CounterCells Totals;
  Counter *StaleDrops = nullptr;
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
