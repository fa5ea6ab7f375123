//===- promises/net/UdpNetwork.h - Real UDP socket backend -----*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real-socket implementation of the `net::Network` seam
/// (docs/NETWORK.md): every bound endpoint is a nonblocking UDP socket,
/// delivery is whatever the kernel's network stack does, and time is wall
/// time — UdpNetwork doubles as the Simulation's ClockDriver, so the
/// event loop sleeps in ppoll(2) over the open sockets and transport
/// timers fire at real nanosecond deadlines.
///
/// The byte stream is unchanged: the same 10-byte CRC32C frames the
/// simulator carries (wire/Frame.h) travel one-per-datagram, so an
/// unchanged StreamTransport provides sequencing, retransmission, and
/// integrity on top. The simulator stays the determinism/chaos oracle;
/// this backend is the measurement plane.
///
/// Addressing. A promises `Address` is (node, port, epoch); UDP gives us
/// (ip, udp-port). The mapping:
///
///  * A *local* node's promises port P is a socket bound to udp port
///    `BasePort + P` (or a kernel-assigned ephemeral port when the node
///    was added without a base — fine within one process, where the
///    reverse map is exact).
///  * A *remote* node (addRemoteNode) is (ip, base): sends to its
///    promises port P go to udp `base + P`, and datagrams arriving from
///    (ip, base+P) are attributed to From = {node, P, 0}.
///
/// No extra bytes travel on the wire for addressing — the udp source
/// address carries it. Epochs are meaningful only for nodes local to this
/// process (crash/restart of a remote process is a real crash; stale
/// traffic to a reused port is then filtered by the remote side's own
/// epoch check at bind-lookup time).
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_NET_UDPNETWORK_H
#define PROMISES_NET_UDPNETWORK_H

#include "promises/net/Network.h"
#include "promises/sim/Clock.h"

#include <memory>
#include <poll.h>
#include <unordered_map>

namespace promises::net {

/// The measurement-plane backend: real UDP sockets, real time.
///
/// Construction installs the instance as the Simulation's clock driver
/// (destruction removes it), flipping run()/runFor() into real-time mode
/// — see sim/Clock.h for the loop contract. Bound handlers are dispatched
/// from inside waitFor(), i.e. in scheduler context, exactly like the
/// simulated backend's delivery events. Every bound address opens a
/// socket on \p BindIp, a deployment address: loopback by default, since
/// the smoke and bench setups are single-machine; point it at a real
/// interface for cross-host runs.
class UdpNetwork final : public Network, public sim::ClockDriver {
public:
  explicit UdpNetwork(sim::Simulation &S,
                      const std::string &BindIp = "127.0.0.1");
  ~UdpNetwork() override;

  /// Creates a local node whose sockets bind kernel-assigned ephemeral
  /// ports. Only addressable from within this process (the reverse map is
  /// this instance's socket table), which is all single-process loopback
  /// runs — parity tests, bench_netpath — need.
  using Network::addNode;

  /// Creates a local node with a deterministic udp port block: promises
  /// port P binds udp `Base + P`. Required for cross-process runs, where
  /// the peer must be able to name this node's ports without asking.
  NodeId addNode(std::string Name, uint16_t Base);

  /// Registers a node that lives in another process at (\p Ip, \p Base).
  /// It cannot be bound here; it is a send target and a recognized
  /// datagram source. Crashing it only marks it down locally (sends
  /// drop); the remote process's actual life is its own.
  NodeId addRemoteNode(std::string Name, std::string Ip, uint16_t Base);

  void send(Address From, Address To, wire::Bytes Payload) override;

  /// Datagrams from udp sources no local or remote node accounts for.
  uint64_t unknownSourceDrops() const;

  /// Datagrams dropped because a socket's send queue overflowed.
  uint64_t sendQueueDrops() const;

  /// --- ClockDriver ---

  sim::Time now() override { return Wall.now(); }

  /// Sleeps in ppoll over all open sockets for at most \p Timeout,
  /// dispatching arriving datagrams and draining parked sends first.
  void waitFor(sim::Time Timeout) override;

private:
  struct Endpoint; // One bound promises port = one socket.

  /// Where a node's promises ports live in udp space. Nodes added through
  /// the plain addNode have no entry: local, on kernel-assigned ports.
  struct UdpPlace {
    uint16_t Base = 0;     ///< udp base port; 0 = kernel-assigned (local).
    bool Remote = false;
    uint32_t RemoteIp = 0; ///< Network byte order; remote nodes only.
  };

  /// Opens the socket behind a freshly bound address.
  void onBind(Address A) override;
  /// Closes the socket behind a removed binding.
  void onUnbind(Address A) override;

  const UdpPlace &place(NodeId N) const;
  NodeId addPlacedNode(std::string Name, UdpPlace P);
  /// Resolves a datagram source (ip, udp port) to a promises address;
  /// false when no node accounts for it.
  bool mapSource(uint32_t Ip, uint16_t Port, Address &Out) const;
  /// Receives everything pending on the socket, dispatching handlers. By
  /// fd so a handler that unbinds endpoints mid-dispatch can't dangle us.
  void drainRecv(int Fd);
  void drainSendQueue(Endpoint &E);
  void rebuildPollSet();

  uint32_t BindAddr; ///< The bind address, network byte order.
  sim::MonotonicClock Wall;
  std::vector<UdpPlace> Places; ///< By node; shorter when trailing nodes
                                ///< are plain local ones.
  /// Owning socket table by promises address. unique_ptr: endpoints are
  /// pointed into by the udp reverse map and the poll set.
  std::map<Address, std::unique_ptr<Endpoint>> Sockets;
  /// Local reverse map: (ip << 16 | udp port) -> endpoint.
  std::unordered_map<uint64_t, Endpoint *> ByUdp;
  std::unordered_map<int, Endpoint *> ByFd; ///< Socket fd -> endpoint.
  std::vector<pollfd> Pfds; ///< Rebuilt from Sockets each waitFor.
  std::vector<uint8_t> RecvBuf;
  Counter *UnknownSource = nullptr; ///< net.udp_unknown_source_dropped.
  Counter *QueueDrops = nullptr;    ///< net.udp_send_queue_drops.
};

} // namespace promises::net

#endif // PROMISES_NET_UDPNETWORK_H
