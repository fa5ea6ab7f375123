//===- property_flowcontrol_test.cpp - Window invariants under faults -----===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// A saturating producer drives one stream through a lossy / jittered /
// temporarily-partitioned link while sender-side flow control is on,
// checking as properties:
//
//   F1  the in-flight window never exceeds MaxInFlightCalls (sampled by a
//       monitor process AND via the window-occupancy histogram);
//   F2  a saturating producer actually blocks (the backpressure engages);
//   F3  conservation at quiescence: issued == fulfilled + broken, and with
//       a retry budget that outlives the faults, nothing breaks;
//   F4  the same configuration replays identically (determinism).
//
//===----------------------------------------------------------------------===//

#include "KeptOutcome.h"

#include "promises/stream/StreamTransport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

using namespace promises;
using namespace promises::stream;
using namespace promises::sim;

namespace {

wire::Bytes bytesOf(uint32_t V) {
  wire::Encoder E;
  E.writeU32(V);
  return E.take();
}

struct FlowParams {
  double Loss;
  uint64_t JitterUs;
  size_t Window; ///< MaxInFlightCalls; 0 = unbounded control run.
  bool Partition;
  uint64_t Seed;

  friend std::ostream &operator<<(std::ostream &OS, const FlowParams &P) {
    return OS << "loss" << static_cast<int>(P.Loss * 100) << "_jit"
              << P.JitterUs << "_w" << P.Window
              << (P.Partition ? "_part" : "") << "_s" << P.Seed;
  }
};

struct FlowResult {
  Time Elapsed = 0;
  uint64_t Datagrams = 0;
  size_t MaxSampledWindow = 0;  ///< Monitor process, every 500us.
  double MaxObservedWindow = 0; ///< window_occupancy histogram max.
  uint64_t Issued = 0, Fulfilled = 0, Broken = 0, Blocked = 0;
  int Normal = 0, Other = 0;
  bool ProducerFinished = false;
};

constexpr int NumCalls = 200;

FlowResult runSaturating(const FlowParams &FP) {
  FlowResult R;
  Simulation S;
  S.metrics().setEnabled(true);
  net::NetConfig NC;
  NC.LossRate = FP.Loss;
  NC.JitterMax = usec(FP.JitterUs);
  NC.Seed = FP.Seed;
  net::SimNetwork Net(S, NC);
  net::NodeId CN = Net.addNode("client");
  net::NodeId SN = Net.addNode("server");
  StreamConfig SC;
  SC.MaxInFlightCalls = FP.Window;
  SC.RetransmitTimeout = msec(5);
  SC.MaxRetries = 200; // Outlive every fault in the grid: no breaks.
  SC.RetransSeed = FP.Seed;
  StreamTransport Client(Net, CN, SC);
  StreamTransport Server(Net, SN, SC);
  Server.setCallSink([](IncomingCall IC) {
    IC.Complete(ReplyStatus::Normal, 0, copyOf(IC.Args), "");
  });

  if (FP.Partition) {
    S.schedule(msec(20), [&] { Net.setPartitioned(CN, SN, true); });
    S.schedule(msec(60), [&] { Net.setPartitioned(CN, SN, false); });
  }

  AgentId A = Client.newAgent();
  S.spawn("producer", [&] {
    for (uint32_t I = 0; I < NumCalls; ++I)
      Client.issueCall(A, Server.address(), 1, 1, bytesOf(I), false, false,
                       [&](const ReplyOutcome &O) {
                         if (O.K == ReplyOutcome::Kind::Normal)
                           ++R.Normal;
                         else
                           ++R.Other;
                       });
    Client.flush(A, Server.address(), 1);
    R.ProducerFinished = true;
  });
  S.spawn("monitor", [&] {
    while (!R.ProducerFinished ||
           Client.outstandingCalls(A, Server.address(), 1) > 0) {
      R.MaxSampledWindow = std::max(
          R.MaxSampledWindow, Client.senderWindowSize(A, Server.address(), 1));
      S.sleep(usec(500));
    }
  });
  S.run();

  R.Elapsed = S.now();
  R.Datagrams = Net.counters().DatagramsSent;
  const StreamCounters C = Client.counters();
  R.Issued = C.CallsIssued;
  R.Fulfilled = C.CallsFulfilled;
  R.Broken = C.CallsBroken;
  R.Blocked = C.CallsBlocked;
  R.MaxObservedWindow =
      S.metrics()
          .histogram("stream.window_occupancy",
                     {{"node", "client"}, {"epoch", "0"}, {"port", "1"}})
          .max();
  return R;
}

class FlowControlSweep : public ::testing::TestWithParam<FlowParams> {};

TEST_P(FlowControlSweep, WindowStaysBoundedAndNothingIsLost) {
  const FlowParams &FP = GetParam();
  FlowResult R = runSaturating(FP);
  EXPECT_TRUE(R.ProducerFinished);
  EXPECT_EQ(R.Normal, NumCalls);
  EXPECT_EQ(R.Other, 0);
  // F3: conservation at quiescence, with no breaks in this grid.
  EXPECT_EQ(R.Issued, R.Fulfilled + R.Broken);
  EXPECT_EQ(R.Broken, 0u);
  if (FP.Window > 0) {
    // F1: neither the sampling monitor nor the per-issue histogram ever
    // saw the window above its cap.
    EXPECT_LE(R.MaxSampledWindow, FP.Window);
    EXPECT_LE(R.MaxObservedWindow, static_cast<double>(FP.Window));
    // F2: a producer issuing far more calls than the window must block.
    EXPECT_GE(R.Blocked, 1u);
  } else {
    EXPECT_EQ(R.Blocked, 0u); // Unbounded control: never blocks.
  }
}

TEST_P(FlowControlSweep, RunsAreDeterministic) {
  FlowResult A = runSaturating(GetParam());
  FlowResult B = runSaturating(GetParam());
  EXPECT_EQ(A.Elapsed, B.Elapsed) << "F4 violated";
  EXPECT_EQ(A.Datagrams, B.Datagrams) << "F4 violated";
  EXPECT_EQ(A.Blocked, B.Blocked) << "F4 violated";
  EXPECT_EQ(A.MaxSampledWindow, B.MaxSampledWindow) << "F4 violated";
}

std::vector<FlowParams> flowGrid() {
  std::vector<FlowParams> Grid;
  uint64_t Seed = 4000;
  for (double L : {0.0, 0.25})
    for (uint64_t J : {uint64_t(0), uint64_t(2000)})
      for (size_t W : {size_t(2), size_t(8), size_t(32)})
        for (bool P : {false, true})
          Grid.push_back(FlowParams{L, J, W, P, ++Seed});
  // Unbounded control runs: flow control off, nothing ever blocks.
  Grid.push_back(FlowParams{0.0, 0, 0, false, ++Seed});
  Grid.push_back(FlowParams{0.25, 2000, 0, true, ++Seed});
  return Grid;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FlowControlSweep, ::testing::ValuesIn(flowGrid()),
    [](const ::testing::TestParamInfo<FlowParams> &Info) {
      std::ostringstream OS;
      OS << Info.param;
      return OS.str();
    });

} // namespace
