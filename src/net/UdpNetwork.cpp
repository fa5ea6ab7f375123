//===- UdpNetwork.cpp - Real UDP socket backend ---------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/net/UdpNetwork.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <netinet/in.h>
#include <sys/socket.h>
#include <ctime>
#include <unistd.h>

using namespace promises;
using namespace promises::net;

namespace {

/// IPv4 + UDP header bytes, counted into BytesSent like the simulated
/// backend's NetConfig::HeaderBytes.
constexpr uint64_t UdpWireOverhead = 28;

/// Promises ports a based or remote node may occupy: node base + PortSpan
/// bounds the udp range attributed to it when reverse-mapping datagram
/// sources.
constexpr uint32_t PortSpan = 256;

/// Receive buffer size — also the largest datagram accepted. Frames are
/// far smaller (MaxBatchBytes), so 64 KiB is generous.
constexpr size_t MaxDatagramBytes = 64 * 1024;

/// Per-socket cap on datagrams parked after EAGAIN/ENOBUFS; overflow is
/// dropped (and counted) like any other loss.
constexpr size_t MaxSendQueue = 4096;

/// SO_SNDBUF/SO_RCVBUF request per socket.
constexpr int SocketBufferBytes = 1 << 20;

[[noreturn]] void fatal(const char *What) {
  std::fprintf(stderr, "promises: udp backend: %s: %s\n", What,
               std::strerror(errno));
  std::abort();
}

in_addr parseIp(const std::string &Ip) {
  in_addr A{};
  if (::inet_pton(AF_INET, Ip.c_str(), &A) != 1) {
    std::fprintf(stderr, "promises: udp backend: bad IPv4 address '%s'\n",
                 Ip.c_str());
    std::abort();
  }
  return A;
}

uint64_t udpKey(uint32_t Ip, uint16_t Port) {
  return (static_cast<uint64_t>(Ip) << 16) | Port;
}

bool sendWouldBlock(int Err) {
  // ENOBUFS/ENOMEM are transient queue pressure on loopback; parking the
  // datagram and retrying on POLLOUT beats dropping it.
  return Err == EAGAIN || Err == EWOULDBLOCK || Err == ENOBUFS ||
         Err == ENOMEM;
}

} // namespace

/// One bound promises port: one nonblocking UDP socket plus the datagrams
/// parked when the kernel's send buffer pushed back, each with the node it
/// is addressed to so that a later hard error is charged there.
struct UdpNetwork::Endpoint {
  struct Parked {
    sockaddr_in Dst;
    NodeId To;
    wire::Bytes Bytes;
  };
  int Fd = -1;
  Address Addr;
  uint32_t Ip = 0;      ///< Bound address, network byte order.
  uint16_t UdpPort = 0; ///< Bound udp port, host byte order.
  std::deque<Parked> SendQ;
};

UdpNetwork::UdpNetwork(sim::Simulation &S, const std::string &BindIp)
    : Network(S), BindAddr(parseIp(BindIp).s_addr) {
  UnknownSource = &Reg.counter("net.udp_unknown_source_dropped", {});
  QueueDrops = &Reg.counter("net.udp_send_queue_drops", {});
  RecvBuf.resize(MaxDatagramBytes);
  assert(Sim.clockDriver() == nullptr &&
         "simulation already has a clock driver");
  Sim.setClockDriver(this);
}

UdpNetwork::~UdpNetwork() {
  for (auto &[A, E] : Sockets)
    ::close(E->Fd);
  if (Sim.clockDriver() == this)
    Sim.setClockDriver(nullptr);
}

const UdpNetwork::UdpPlace &UdpNetwork::place(NodeId N) const {
  static const UdpPlace Ephemeral;
  return N < Places.size() ? Places[N] : Ephemeral;
}

NodeId UdpNetwork::addPlacedNode(std::string Name, UdpPlace P) {
  NodeId N = Network::addNode(std::move(Name));
  Places.resize(N + 1);
  Places[N] = P;
  return N;
}

NodeId UdpNetwork::addNode(std::string Name, uint16_t Base) {
  assert(Base != 0 && "explicit base port must be nonzero");
  return addPlacedNode(std::move(Name), {Base, false, 0});
}

NodeId UdpNetwork::addRemoteNode(std::string Name, std::string Ip,
                                 uint16_t Base) {
  assert(Base != 0 && "remote nodes need a known base port");
  return addPlacedNode(std::move(Name), {Base, true, parseIp(Ip).s_addr});
}

void UdpNetwork::onBind(Address A) {
  const UdpPlace &P = place(A.Node);
  assert(!P.Remote && "bind on a remote node");
  if (P.Base != 0 && A.Port >= PortSpan) {
    std::fprintf(stderr, "promises: udp backend: node '%s' exhausted its "
                 "port block (PortSpan=%u)\n",
                 nodeName(A.Node).c_str(), unsigned(PortSpan));
    std::abort();
  }

  int Fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    fatal("socket");
  // Best effort: the kernel clamps to net.core.{r,w}mem_max.
  (void)::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &SocketBufferBytes,
                     sizeof SocketBufferBytes);
  (void)::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &SocketBufferBytes,
                     sizeof SocketBufferBytes);
  sockaddr_in Sa{};
  Sa.sin_family = AF_INET;
  Sa.sin_addr.s_addr = BindAddr;
  Sa.sin_port =
      htons(P.Base != 0 ? static_cast<uint16_t>(P.Base + A.Port) : 0);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof Sa) < 0)
    fatal("bind");
  socklen_t SaLen = sizeof Sa;
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Sa), &SaLen) < 0)
    fatal("getsockname");

  auto E = std::make_unique<Endpoint>();
  E->Fd = Fd;
  E->Addr = A;
  E->Ip = Sa.sin_addr.s_addr;
  E->UdpPort = ntohs(Sa.sin_port);
  ByUdp[udpKey(E->Ip, E->UdpPort)] = E.get();
  ByFd[Fd] = E.get();
  Sockets[A] = std::move(E);
}

void UdpNetwork::onUnbind(Address A) {
  auto It = Sockets.find(A);
  Endpoint &E = *It->second;
  ByUdp.erase(udpKey(E.Ip, E.UdpPort));
  ByFd.erase(E.Fd);
  ::close(E.Fd);
  Sockets.erase(It);
}

uint64_t UdpNetwork::unknownSourceDrops() const {
  return UnknownSource->value();
}

uint64_t UdpNetwork::sendQueueDrops() const { return QueueDrops->value(); }

void UdpNetwork::send(Address From, Address To, wire::Bytes Payload) {
  countSend(From.Node, Payload.size() + UdpWireOverhead);
  auto SrcIt = Sockets.find(From);
  // A crashed sender's sockets are closed: it has nothing to send from.
  // A receiver believed down is local knowledge only; an actually dead
  // remote just never answers — which is also fine.
  if (SrcIt == Sockets.end() || !isUp(To.Node)) {
    countDrop(To.Node);
    return;
  }

  sockaddr_in Dst{};
  Dst.sin_family = AF_INET;
  const UdpPlace &Rcv = place(To.Node);
  if (!Rcv.Remote) {
    // Exact-address lookup: a stale epoch or an unbound port has no
    // socket, so the datagram is unroutable — the same silent drop the
    // simulator models.
    auto DstIt = Sockets.find(To);
    if (DstIt == Sockets.end()) {
      countDrop(To.Node);
      return;
    }
    Dst.sin_addr.s_addr = DstIt->second->Ip;
    Dst.sin_port = htons(DstIt->second->UdpPort);
  } else {
    if (To.Port == 0 || To.Port >= PortSpan) {
      countDrop(To.Node);
      return;
    }
    Dst.sin_addr.s_addr = Rcv.RemoteIp;
    Dst.sin_port = htons(static_cast<uint16_t>(Rcv.Base + To.Port));
  }

  Endpoint &E = *SrcIt->second;
  // Anything already parked must go first to preserve per-socket order.
  if (!E.SendQ.empty()) {
    if (E.SendQ.size() >= MaxSendQueue) {
      QueueDrops->inc();
      countDrop(To.Node);
      return;
    }
    E.SendQ.push_back({Dst, To.Node, std::move(Payload)});
    return;
  }
  ssize_t R = ::sendto(E.Fd, Payload.data(), Payload.size(), 0,
                       reinterpret_cast<sockaddr *>(&Dst), sizeof Dst);
  if (R >= 0)
    return;
  if (sendWouldBlock(errno)) {
    E.SendQ.push_back({Dst, To.Node, std::move(Payload)});
    return;
  }
  // Hard send error (unreachable, etc.) — a lost datagram; the transport's
  // retransmission recovers or breaks the stream, as with any loss.
  countDrop(To.Node);
}

bool UdpNetwork::mapSource(uint32_t Ip, uint16_t Port, Address &Out) const {
  auto It = ByUdp.find(udpKey(Ip, Port));
  if (It != ByUdp.end()) {
    Out = It->second->Addr;
    return true;
  }
  for (NodeId N = 0; N != Places.size(); ++N) {
    const UdpPlace &P = Places[N];
    if (!P.Remote || P.RemoteIp != Ip)
      continue;
    if (Port > P.Base && Port < P.Base + PortSpan) {
      Out = Address{N, static_cast<uint32_t>(Port - P.Base), 0};
      return true;
    }
  }
  return false;
}

void UdpNetwork::drainRecv(int Fd) {
  // Bounded per poll round so one busy socket cannot starve the others;
  // whatever remains re-signals POLLIN on the next round. The endpoint is
  // re-looked-up per datagram because a handler may unbind sockets.
  for (int I = 0; I != 64; ++I) {
    auto FdIt = ByFd.find(Fd);
    if (FdIt == ByFd.end())
      return;
    Address To = FdIt->second->Addr;
    sockaddr_in Src{};
    socklen_t SrcLen = sizeof Src;
    ssize_t R = ::recvfrom(Fd, RecvBuf.data(), RecvBuf.size(), 0,
                           reinterpret_cast<sockaddr *>(&Src), &SrcLen);
    if (R < 0)
      return; // EAGAIN (or a transient error): nothing more now.
    Address From;
    if (!mapSource(Src.sin_addr.s_addr, ntohs(Src.sin_port), From)) {
      UnknownSource->inc();
      countDrop(To.Node);
      continue;
    }
    deliver({From, To, wire::Bytes(RecvBuf.data(), RecvBuf.data() + R)});
  }
}

void UdpNetwork::drainSendQueue(Endpoint &E) {
  while (!E.SendQ.empty()) {
    Endpoint::Parked &P = E.SendQ.front();
    ssize_t R = ::sendto(E.Fd, P.Bytes.data(), P.Bytes.size(), 0,
                         reinterpret_cast<sockaddr *>(&P.Dst), sizeof P.Dst);
    if (R < 0) {
      if (sendWouldBlock(errno))
        return; // Still pushed back; POLLOUT will retry.
      countDrop(P.To); // Hard error: drop this one, keep going.
    }
    E.SendQ.pop_front();
  }
}

void UdpNetwork::rebuildPollSet() {
  Pfds.clear();
  for (auto &[A, E] : Sockets) {
    short Ev = POLLIN;
    if (!E->SendQ.empty())
      Ev |= POLLOUT;
    Pfds.push_back(pollfd{E->Fd, Ev, 0});
  }
}

void UdpNetwork::waitFor(sim::Time Timeout) {
  // Bound any one sleep so a pathological timeout can't wedge the loop.
  Timeout = std::min<sim::Time>(Timeout, sim::sec(1));
  timespec Ts;
  Ts.tv_sec = static_cast<time_t>(Timeout / 1000000000ull);
  Ts.tv_nsec = static_cast<long>(Timeout % 1000000000ull);
  rebuildPollSet();
  if (Pfds.empty()) {
    ::nanosleep(&Ts, nullptr);
    return;
  }
  int N = ::ppoll(Pfds.data(), Pfds.size(), &Ts, nullptr);
  if (N <= 0)
    return; // Timeout (or EINTR): the run loop re-derives its deadline.
  // Handlers scheduled work must see a fresh clock — the virtual now()
  // went stale while we slept.
  Sim.advanceClockToWall(Wall.now());
  for (const pollfd &P : Pfds) {
    if (P.revents == 0)
      continue;
    if (P.revents & POLLOUT) {
      auto It = ByFd.find(P.fd);
      if (It != ByFd.end())
        drainSendQueue(*It->second);
    }
    if (P.revents & (POLLIN | POLLERR))
      drainRecv(P.fd);
  }
}
