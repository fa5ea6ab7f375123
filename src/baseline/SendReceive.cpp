//===- SendReceive.cpp - Explicit messaging baseline -----------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/baseline/SendReceive.h"

using namespace promises;
using namespace promises::baseline;

Mailbox::Mailbox(net::Network &Net, net::NodeId Node,
                 stream::StreamConfig Cfg)
    : Reg(Net.simulation().metrics()), Labels{{"node", Net.nodeName(Node)}} {
  MsgsSent = &Reg.counter("baseline.msgs_sent", Labels);
  MsgsReceived = &Reg.counter("baseline.msgs_received", Labels);
  Reg.gaugeProbe("baseline.inbox_depth", [this] {
    return static_cast<double>(Inbox.size());
  }, Labels);
  Transport = std::make_unique<stream::StreamTransport>(Net, Node, Cfg);
  InboxWaiters = std::make_unique<sim::WaitQueue>(Net.simulation());
  Transport->setCallSink([this](stream::IncomingCall IC) {
    // Every incoming "call" is a one-way message: complete right away
    // (sends omit normal replies on the wire) and enqueue the payload.
    IC.Complete(stream::ReplyStatus::Normal, 0, {}, "");
    // Sender address travels in-band; decode the envelope from the frame.
    wire::Decoder D(IC.Args);
    Msg M;
    M.From = wire::Codec<net::Address>::decode(D);
    M.Payload = D.readBytes();
    if (D.failed())
      return; // Malformed envelope: drop.
    MsgsReceived->inc();
    Inbox.push_back(std::move(M));
    InboxWaiters->notifyOne();
  });
}

Mailbox::~Mailbox() {
  // Freeze the probe gauge: the registry outlives this mailbox, and a
  // probe capturing `this` must not dangle.
  double Final = static_cast<double>(Inbox.size());
  Reg.gaugeProbe("baseline.inbox_depth", [Final] { return Final; }, Labels);
}

void Mailbox::sendMsg(net::Address To, wire::Bytes Payload) {
  auto It = Agents.find(To);
  if (It == Agents.end())
    It = Agents.emplace(To, Transport->newAgent()).first;
  MsgsSent->inc();
  wire::Encoder E;
  wire::Codec<net::Address>::encode(E, Transport->address());
  E.writeBytes(Payload.data(), Payload.size());
  Transport->issueCall(It->second, To, MsgGroup, MsgPort, E.take(),
                       /*NoReply=*/true, /*IsRpc=*/false,
                       /*OnReply=*/nullptr);
}

void Mailbox::flushTo(net::Address To) {
  auto It = Agents.find(To);
  if (It != Agents.end())
    Transport->flush(It->second, To, MsgGroup);
}

Msg Mailbox::receive() {
  while (Inbox.empty())
    InboxWaiters->wait();
  Msg M = std::move(Inbox.front());
  Inbox.pop_front();
  return M;
}

bool Mailbox::tryReceive(Msg &Out) {
  if (Inbox.empty())
    return false;
  Out = std::move(Inbox.front());
  Inbox.pop_front();
  return true;
}
