//===- observability_test.cpp - Unified observability core tests ----------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// The metrics registry (support/Metrics.h) and its wiring through the
// layers: instrument identity, gating, the trace sink (digest against a
// reference fold, per-kind counts, the ring past its cap, interned
// details), conservation invariants at quiescence, typed trace events on
// break/restart/orphan paths, and the exporters.
//
//===----------------------------------------------------------------------===//

#include "promises/runtime/RemoteHandler.h"
#include "promises/support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

using namespace promises;
using namespace promises::core;
using namespace promises::runtime;
using namespace promises::sim;

namespace {

//===----------------------------------------------------------------------===//
// Registry unit tests
//===----------------------------------------------------------------------===//

TEST(MetricsRegistry, CounterIdentityAndLabels) {
  MetricsRegistry R;
  Counter &A = R.counter("test.a");
  Counter &A2 = R.counter("test.a");
  EXPECT_EQ(&A, &A2);

  Counter &B = R.counter("test.a", {{"node", "x"}});
  EXPECT_NE(&A, &B);
  Counter &B2 = R.counter("test.a", {{"node", "x"}});
  EXPECT_EQ(&B, &B2);
  Counter &C = R.counter("test.a", {{"node", "y"}});
  EXPECT_NE(&B, &C);

  A.inc();
  A.inc(4);
  EXPECT_EQ(A.value(), 5u);
  EXPECT_EQ(B.value(), 0u);
}

TEST(MetricsRegistry, GaugeDirectAndProbe) {
  MetricsRegistry R;
  Gauge &G = R.gauge("test.g");
  EXPECT_EQ(G.value(), 0.0);
  G.set(3.5);
  G.add(0.5);
  EXPECT_EQ(G.value(), 4.0);

  double X = 7;
  Gauge &P = R.gaugeProbe("test.p", [&X] { return X; });
  EXPECT_EQ(P.value(), 7.0);
  X = 11;
  EXPECT_EQ(P.value(), 11.0); // Probes are read at access time.

  // gaugeProbe rebinds an existing gauge (used to freeze probes whose
  // captures are about to die).
  R.gaugeProbe("test.p", [] { return 2.0; });
  EXPECT_EQ(P.value(), 2.0);
}

TEST(MetricsRegistry, HistogramGatedOnEnabledFlag) {
  MetricsRegistry R;
  ASSERT_FALSE(R.enabled()); // Default off (no PROMISES_METRICS in env).
  Histogram &H = R.histogram("test.h");
  H.observe(10);
  EXPECT_EQ(H.count(), 0u); // Disabled: observe is a no-op.

  R.setEnabled(true);
  H.observe(10);
  H.observe(20);
  EXPECT_EQ(H.count(), 2u);
  EXPECT_EQ(H.min(), 10.0);
  EXPECT_EQ(H.max(), 20.0);
  EXPECT_EQ(H.mean(), 15.0);
}

TEST(MetricsRegistry, HistogramPercentilesAreOrderedAndBounded) {
  MetricsRegistry R;
  R.setEnabled(true);
  Histogram &H = R.histogram("test.h");
  EXPECT_EQ(H.percentile(50), 0.0); // Empty.
  for (int I = 1; I <= 1000; ++I)
    H.observe(static_cast<double>(I));
  EXPECT_EQ(H.count(), 1000u);
  double P50 = H.percentile(50), P90 = H.percentile(90),
         P99 = H.percentile(99);
  EXPECT_GE(P50, H.min());
  EXPECT_LE(P99, H.max());
  EXPECT_LE(P50, P90);
  EXPECT_LE(P90, P99);
  // Log-linear buckets: the approximation is within one sub-bucket.
  EXPECT_GE(P50, 250.0);
  EXPECT_LE(P50, 1000.0);
}

TEST(MetricsRegistry, HistogramPercentilesAreAccurateWithBoundedMemory) {
  // The log-linear (HDR-style) buckets promise two things at once: a
  // relative percentile error of at most 1/SubBuckets per bucket, and a
  // fixed memory footprint no matter how many samples arrive. Check the
  // accuracy against exact order statistics on distributions shaped like
  // the ones the load suite records (uniform latencies, a heavy tail,
  // and tight clusters), and pin the footprint.
  static_assert(sizeof(Histogram) < 20 * 1024,
                "histogram memory must stay O(1) per metric");

  auto exactPercentile = [](std::vector<double> &V, double P) {
    std::sort(V.begin(), V.end());
    size_t Rank = static_cast<size_t>((P / 100.0) *
                                      static_cast<double>(V.size() - 1));
    return V[Rank];
  };
  auto checkDistribution = [&](std::vector<double> Samples) {
    MetricsRegistry R;
    R.setEnabled(true);
    Histogram &H = R.histogram("test.acc");
    for (double S : Samples)
      H.observe(S);
    for (double P : {50.0, 90.0, 99.0, 99.9}) {
      double Exact = exactPercentile(Samples, P);
      double Approx = H.percentile(P);
      // One sub-bucket of slack on either side (~3.2% relative), plus a
      // +-1 absolute for the exact small-integer buckets.
      EXPECT_NEAR(Approx, Exact, Exact / Histogram::SubBuckets + 1.0)
          << "p" << P << " over " << Samples.size() << " samples";
    }
  };

  // Uniform 1..100k (typical latency-us range).
  std::vector<double> Uniform;
  for (int I = 1; I <= 100000; ++I)
    Uniform.push_back(static_cast<double>(I));
  checkDistribution(Uniform);

  // Heavy tail: x = 1/u^2 for a deterministic u sweep — spans 1..1e8.
  std::vector<double> Heavy;
  for (int I = 1; I <= 50000; ++I) {
    double U = static_cast<double>(I) / 50001.0;
    Heavy.push_back(1.0 / (U * U));
  }
  checkDistribution(Heavy);

  // Tight cluster far from 1: all mass inside one power-of-two range,
  // where the old geometric-midpoint buckets were off by up to 41%.
  std::vector<double> Cluster;
  for (int I = 0; I < 10000; ++I)
    Cluster.push_back(70000.0 + static_cast<double>(I % 100));
  checkDistribution(Cluster);
}

TEST(MetricsRegistry, PercentileIsTotalOnGarbageInput) {
  // percentile() is fed config- and flag-derived values directly, so it
  // must be a total function: out-of-range P clamps, NaN maps to the
  // minimum, and none of them may index buckets out of range in a build
  // with asserts stripped.
  MetricsRegistry R;
  R.setEnabled(true);
  Histogram &H = R.histogram("test.h");
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  // Empty histogram: every garbage P still returns 0, never a crash.
  EXPECT_EQ(H.percentile(NaN), 0.0);
  EXPECT_EQ(H.percentile(-5.0), 0.0);
  EXPECT_EQ(H.percentile(250.0), 0.0);
  for (int I = 1; I <= 100; ++I)
    H.observe(static_cast<double>(I));
  // Negative and NaN clamp to p0; above-100 clamps to p100.
  EXPECT_EQ(H.percentile(-5.0), H.percentile(0.0));
  EXPECT_EQ(H.percentile(NaN), H.percentile(0.0));
  EXPECT_EQ(H.percentile(250.0), H.percentile(100.0));
  EXPECT_EQ(H.percentile(std::numeric_limits<double>::infinity()),
            H.percentile(100.0));
  // And the clamped extremes stay inside the observed range.
  EXPECT_GE(H.percentile(0.0), H.min());
  EXPECT_LE(H.percentile(100.0), H.max());
}

TEST(MetricsRegistry, EventsGatedAndRecorded) {
  MetricsRegistry R;
  R.emit({100, EventKind::SenderBreak, 1, 2, 3, 0, "early"});
  // Disabled: nothing is recorded, digested or counted.
  EXPECT_TRUE(R.events().empty());
  EXPECT_EQ(R.eventsRecorded(), 0u);
  EXPECT_EQ(R.traceDigest(), MetricsRegistry::DigestBasis);
  for (size_t K = 0; K != NumEventKinds; ++K)
    EXPECT_EQ(R.eventCount(static_cast<EventKind>(K)), 0u);

  R.setEnabled(true);
  R.emit({200, EventKind::CallIssued, 1, 42, 7, 0, {}});
  ASSERT_EQ(R.events().size(), 1u);
  EXPECT_EQ(R.events()[0].TsNs, 200u);
  EXPECT_EQ(R.events()[0].Id, 42u);
  EXPECT_STREQ(eventKindName(R.events()[0].Kind), "call_issued");
  EXPECT_STREQ(eventKindName(EventKind::OrphanDestroyed),
               "orphan_destroyed");
  EXPECT_EQ(R.eventsRecorded(), 1u);
  EXPECT_EQ(R.eventCount(EventKind::CallIssued), 1u);
  EXPECT_EQ(R.eventCount(EventKind::SenderBreak), 0u);
}

// The digest's reference fold, written out independently of the
// registry: FNV-1a over each field as 8 little-endian bytes, then each
// Detail byte widened to a u64. tools/hashlist.golden was produced by
// exactly this fold.
uint64_t referenceFold(uint64_t H, const TraceEvent &E) {
  auto Word = [&H](uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  Word(E.TsNs);
  Word(static_cast<uint64_t>(E.Kind));
  Word(E.Node);
  Word(E.Id);
  Word(E.Seq);
  Word(E.DurNs);
  for (char C : E.Detail)
    Word(static_cast<unsigned char>(C));
  return H;
}

TEST(MetricsRegistry, DigestMatchesReferenceFold) {
  MetricsRegistry R;
  R.setEnabled(true);
  const TraceEvent Es[] = {
      {1000, EventKind::CallIssued, 1, 42, 7, 0, {}},
      {2000, EventKind::SenderBreak, 3, 42, 1, 0, "cannot communicate"},
      {3000, EventKind::CallSpan, 1, 42, 7, 2000, {}},
  };
  uint64_t H = 0xcbf29ce484222325ull;
  for (const TraceEvent &E : Es) {
    R.emit(E);
    H = referenceFold(H, E);
  }
  EXPECT_EQ(R.traceDigest(), H);
  EXPECT_EQ(R.eventsRecorded(), 3u);
}

TEST(MetricsRegistry, DigestCoversEventsPastTheCap) {
  // The buffer fills, then keeps the newest MaxEvents: about 60 MB, and
  // as much again for the copy events() returns.
  MetricsRegistry R;
  R.setEnabled(true);
  const uint64_t N = MetricsRegistry::MaxEvents + 1;
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint64_t I = 0; I != N; ++I) {
    TraceEvent E{I, EventKind::CallIssued, 1, 9, I, 0, {}};
    if (I == 0 || I == N - 1)
      E.Detail = I == 0 ? "first" : "last";
    R.emit(E);
    H = referenceFold(H, E);
  }
  EXPECT_EQ(R.eventsRecorded(), N);
  EXPECT_EQ(R.eventCount(EventKind::CallIssued), N);
  EXPECT_EQ(R.traceDigest(), H);

  // The oldest event fell out; the kept ones run oldest first.
  std::vector<TraceEvent> Kept = R.events();
  ASSERT_EQ(Kept.size(), MetricsRegistry::MaxEvents);
  EXPECT_EQ(Kept.front().Seq, 1u);
  EXPECT_EQ(Kept.back().Seq, N - 1);
  EXPECT_EQ(Kept.back().Detail, "last");
  std::vector<TraceEvent> Tail = R.recentEvents(2);
  ASSERT_EQ(Tail.size(), 2u);
  EXPECT_EQ(Tail[0].Seq, N - 2);
  EXPECT_EQ(Tail[1].Seq, N - 1);

  std::ostringstream Sum;
  R.writeSummary(Sum);
  EXPECT_NE(Sum.str().find("trace events: 1048576 captured, 1 dropped"),
            std::string::npos);
}

TEST(MetricsRegistry, DetailFromATemporaryReadsBackIntact) {
  MetricsRegistry R;
  R.setEnabled(true);
  // Longer than any small-string buffer, and dead once emit returns.
  R.emit({1, EventKind::ReceiverBreak, 2, 5, 0, 0,
          std::string("reason held by a temporary string, ") + "twice over"});
  R.emit({2, EventKind::Custom, 2, 5, 0, 0, std::string(40, 'x')});
  std::vector<TraceEvent> Es = R.events();
  ASSERT_EQ(Es.size(), 2u);
  EXPECT_EQ(Es[0].Detail, "reason held by a temporary string, twice over");
  EXPECT_EQ(Es[1].Detail, std::string(40, 'x'));
}

TEST(MetricsRegistry, DistinctDetailsPastTheTableKeepAPlaceholder) {
  // A break reason can be text off the wire, so the interned details are
  // bounded; the digest still folds every detail's own bytes.
  MetricsRegistry R;
  R.setEnabled(true);
  uint64_t H = MetricsRegistry::DigestBasis;
  for (size_t I = 0; I != MetricsRegistry::MaxDetails + 1; ++I) {
    std::string Reason = "reason " + std::to_string(I);
    TraceEvent E{I, EventKind::SenderBreak, 1, 2, 3, 0, Reason};
    R.emit(E);
    H = referenceFold(H, E);
  }
  EXPECT_EQ(R.traceDigest(), H);
  std::vector<TraceEvent> Last = R.recentEvents(2);
  ASSERT_EQ(Last.size(), 2u);
  EXPECT_EQ(Last[0].Detail,
            "reason " + std::to_string(MetricsRegistry::MaxDetails - 1));
  EXPECT_EQ(Last[1].Detail, "(detail table full)");
}

TEST(MetricsRegistry, ExportersEmitAllInstrumentKinds) {
  MetricsRegistry R;
  R.setEnabled(true);
  R.counter("test.c", {{"node", "n1"}}).inc(3);
  R.gauge("test.g").set(1.5);
  R.histogram("test.h").observe(8);
  R.emit({1000, EventKind::ReceiverBreak, 2, 5, 0, 0, "why \"quoted\""});
  R.emit({2000, EventKind::CallSpan, 2, 5, 1, 500, {}});

  std::ostringstream Sum;
  R.writeSummary(Sum);
  EXPECT_NE(Sum.str().find("test.c{node=n1} = 3"), std::string::npos);
  EXPECT_NE(Sum.str().find("test.g = 1.5"), std::string::npos);
  EXPECT_NE(Sum.str().find("trace events: 2 captured"), std::string::npos);

  std::ostringstream Jsonl;
  R.writeJsonLines(Jsonl);
  std::string J = Jsonl.str();
  EXPECT_NE(J.find("{\"type\":\"counter\",\"name\":\"test.c\","
                   "\"labels\":{\"node\":\"n1\"},\"value\":3}"),
            std::string::npos);
  EXPECT_NE(J.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(J.find("\"kind\":\"receiver_break\""), std::string::npos);
  EXPECT_NE(J.find("\\\"quoted\\\""), std::string::npos); // Escaped.
  EXPECT_NE(J.find("\"dur_ns\":500"), std::string::npos);

  std::ostringstream Chrome;
  R.writeChromeTrace(Chrome);
  std::string T = Chrome.str();
  EXPECT_NE(T.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(T.find("\"ph\":\"i\""), std::string::npos); // Instant event.
  EXPECT_NE(T.find("\"ph\":\"X\""), std::string::npos); // Span event.
  EXPECT_NE(T.find("\"dur\":0.5"), std::string::npos);  // 500ns = 0.5us.
}

namespace strictjson {

// A minimal, deliberately strict JSON value parser: exactly the RFC 8259
// grammar, nothing more. In particular a number must match
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? — the bare `nan`, `inf`,
// and `-nan` tokens iostreams print for non-finite doubles are syntax
// errors here, exactly as they are to Python's json module and jq. Used
// to prove the exporters emit machine-parseable output even when the
// instruments were fed garbage.
struct Parser {
  const char *P, *End;
  bool value() {
    skipWs();
    if (P == End)
      return false;
    switch (*P) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
  bool object() {
    ++P; // '{'
    skipWs();
    if (P != End && *P == '}')
      return ++P, true;
    for (;;) {
      skipWs();
      if (P == End || *P != '"' || !string())
        return false;
      skipWs();
      if (P == End || *P++ != ':')
        return false;
      if (!value())
        return false;
      skipWs();
      if (P == End)
        return false;
      if (*P == '}')
        return ++P, true;
      if (*P++ != ',')
        return false;
    }
  }
  bool array() {
    ++P; // '['
    skipWs();
    if (P != End && *P == ']')
      return ++P, true;
    for (;;) {
      if (!value())
        return false;
      skipWs();
      if (P == End)
        return false;
      if (*P == ']')
        return ++P, true;
      if (*P++ != ',')
        return false;
    }
  }
  bool string() {
    ++P; // '"'
    while (P != End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P == End)
          return false;
        if (*P == 'u') {
          for (int I = 0; I != 4; ++I)
            if (++P == End || !std::isxdigit(static_cast<unsigned char>(*P)))
              return false;
        }
      }
      ++P;
    }
    if (P == End)
      return false;
    ++P;
    return true;
  }
  bool number() {
    if (P != End && *P == '-')
      ++P;
    if (P == End || !std::isdigit(static_cast<unsigned char>(*P)))
      return false;
    if (*P == '0')
      ++P;
    else
      while (P != End && std::isdigit(static_cast<unsigned char>(*P)))
        ++P;
    if (P != End && *P == '.') {
      ++P;
      if (P == End || !std::isdigit(static_cast<unsigned char>(*P)))
        return false;
      while (P != End && std::isdigit(static_cast<unsigned char>(*P)))
        ++P;
    }
    if (P != End && (*P == 'e' || *P == 'E')) {
      ++P;
      if (P != End && (*P == '+' || *P == '-'))
        ++P;
      if (P == End || !std::isdigit(static_cast<unsigned char>(*P)))
        return false;
      while (P != End && std::isdigit(static_cast<unsigned char>(*P)))
        ++P;
    }
    return true;
  }
  bool literal(const char *L) {
    for (; *L; ++L)
      if (P == End || *P++ != *L)
        return false;
    return true;
  }
  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
};

bool parses(const std::string &S) {
  Parser Psr{S.data(), S.data() + S.size()};
  if (!Psr.value())
    return false;
  Psr.skipWs();
  return Psr.P == Psr.End;
}

} // namespace strictjson

TEST(MetricsRegistry, JsonlStaysParseableUnderNonFiniteInputs) {
  // Regression: a gauge probe that divides by zero or a histogram fed a
  // NaN latency used to poison the JSONL export with bare nan/inf tokens,
  // which strict parsers (Python json, jq, tools/check_bench.py) reject —
  // one bad sample made the whole metrics file unreadable. Non-finite
  // aggregates must now be emitted as 0.
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  MetricsRegistry R;
  R.setEnabled(true);
  R.gauge("test.poisoned_gauge").set(NaN);
  R.gaugeProbe("test.poisoned_probe", [Inf] { return -Inf; });
  Histogram &H = R.histogram("test.poisoned");
  H.observe(NaN); // Min/Max/Sum all become NaN.
  H.observe(Inf);
  H.observe(4.0);
  R.histogram("test.empty"); // Registered but never observed.

  std::ostringstream Jsonl;
  R.writeJsonLines(Jsonl);
  std::string Line;
  size_t Lines = 0;
  std::istringstream In(Jsonl.str());
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_TRUE(strictjson::parses(Line)) << "unparseable line: " << Line;
    EXPECT_EQ(Line.find("nan"), std::string::npos) << Line;
    EXPECT_EQ(Line.find("inf"), std::string::npos) << Line;
  }
  EXPECT_EQ(Lines, 4u);
  EXPECT_NE(Jsonl.str().find("\"name\":\"test.poisoned_gauge\",\"labels\":{},"
                             "\"value\":0}"),
            std::string::npos);

  // The human-readable summary must not print bare non-finite tokens
  // either (it feeds grep-based assertions in CI logs).
  std::ostringstream Sum;
  R.writeSummary(Sum);
  EXPECT_EQ(Sum.str().find("nan"), std::string::npos) << Sum.str();
  EXPECT_EQ(Sum.str().find("inf"), std::string::npos) << Sum.str();

  // Sanity: the strict parser itself rejects what the old exporter wrote.
  EXPECT_FALSE(strictjson::parses("{\"value\":nan}"));
  EXPECT_FALSE(strictjson::parses("{\"value\":-nan}"));
  EXPECT_FALSE(strictjson::parses("{\"value\":inf}"));
  EXPECT_TRUE(strictjson::parses("{\"value\":-1.5e-3,\"a\":[0,true,null]}"));
}

TEST(MetricsRegistry, FileExportersWriteFiles) {
  MetricsRegistry R;
  R.counter("test.c").inc();
  std::string Dir = ::testing::TempDir();
  std::string Jsonl = Dir + "/obs_test.metrics.jsonl";
  std::string Trace = Dir + "/obs_test.trace.json";
  EXPECT_TRUE(R.writeJsonLinesFile(Jsonl));
  EXPECT_TRUE(R.writeChromeTraceFile(Trace));
  EXPECT_FALSE(R.writeJsonLinesFile("/nonexistent-dir/x.jsonl"));

  std::ifstream In(Jsonl);
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  EXPECT_NE(Line.find("\"name\":\"test.c\""), std::string::npos);
  std::remove(Jsonl.c_str());
  std::remove(Trace.c_str());
}

//===----------------------------------------------------------------------===//
// Simulation wiring
//===----------------------------------------------------------------------===//

TEST(SimObservability, ContextSwitchCounterAndGauges) {
  Simulation S;
  S.spawn("p", [&] { S.sleep(usec(10)); });
  S.run();
  EXPECT_GT(S.contextSwitches(), 0u);
  EXPECT_EQ(S.metrics().counter("sim.context_switches").value(),
            S.contextSwitches());
  // The queue-depth and live-process gauges are probe-backed.
  EXPECT_EQ(S.metrics().gauge("sim.live_processes").value(), 0.0);
  EXPECT_EQ(S.metrics().gauge("sim.processes_spawned").value(), 1.0);
}

//===----------------------------------------------------------------------===//
// Conservation invariants at quiescence
//===----------------------------------------------------------------------===//

TEST(NetConservation, LossDupJitterQuiescence) {
  Simulation S;
  net::NetConfig NC;
  NC.LossRate = 0.25;
  NC.DupRate = 0.25;
  NC.JitterMax = usec(500);
  NC.Seed = 7;
  net::SimNetwork Net(S, NC);
  net::NodeId A = Net.addNode("a"), B = Net.addNode("b");
  int Got = 0;
  net::Address Dst = Net.bind(B, [&](net::Datagram) { ++Got; });
  net::Address Src = Net.bind(A, [](net::Datagram) {});
  for (int I = 0; I < 400; ++I)
    Net.send(Src, Dst, wire::Bytes{1, 2, 3});
  S.run();

  net::NetCounters C = Net.counters();
  EXPECT_EQ(C.DatagramsSent, 400u);
  EXPECT_GT(C.DatagramsDropped, 0u);
  EXPECT_GT(C.DatagramsDuplicated, 0u);
  EXPECT_EQ(static_cast<uint64_t>(Got), C.DatagramsDelivered);
  // Every in-flight copy was either delivered or dropped.
  EXPECT_EQ(C.DatagramsSent + C.DatagramsDuplicated,
            C.DatagramsDelivered + C.DatagramsDropped);
  // The per-node cells feed the same registry: the senders' view agrees
  // with the network-wide one.
  EXPECT_EQ(Net.counters(A).DatagramsSent, 400u);
  EXPECT_EQ(Net.counters(B).DatagramsDelivered, C.DatagramsDelivered);
}

struct WorldFixture : ::testing::Test {
  Simulation S;
  std::unique_ptr<net::SimNetwork> Net;
  std::unique_ptr<Guardian> Server, Client;
  HandlerRef<int32_t(int32_t)> Echo;
  net::NodeId SN = 0;

  void build(net::NetConfig NC = net::NetConfig()) {
    Net = std::make_unique<net::SimNetwork>(S, NC);
    GuardianConfig GC;
    GC.Stream.RetransmitTimeout = msec(10);
    GC.Stream.MaxRetries = 2;
    SN = Net->addNode("server");
    Server = std::make_unique<Guardian>(*Net, SN, "server", GC);
    Client = std::make_unique<Guardian>(*Net, Net->addNode("client"),
                                        "client", GC);
    Echo = Server->addHandler<int32_t(int32_t)>(
        "echo", [](int32_t V) -> Outcome<int32_t> { return V; });
  }
};

TEST_F(WorldFixture, StreamConservationCleanRun) {
  build();
  Client->spawnProcess("driver", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Echo);
    std::vector<Promise<int32_t>> Ps;
    for (int I = 0; I < 100; ++I)
      Ps.push_back(H.streamCall(int32_t(I)));
    H.flush();
    for (auto &P : Ps)
      P.claim();
  });
  S.run();

  stream::StreamCounters TC = Client->transport().counters();
  EXPECT_EQ(TC.CallsIssued, 100u);
  EXPECT_EQ(TC.CallsFulfilled, 100u);
  EXPECT_EQ(TC.CallsBroken, 0u);
  EXPECT_EQ(TC.CallsIssued, TC.CallsFulfilled + TC.CallsBroken);
  EXPECT_EQ(Server->callsExecuted(), 100u);
}

TEST_F(WorldFixture, StreamConservationAcrossCrashBreak) {
  build();
  // Crash the server before the call batches arrive (propagation is 2ms):
  // the calls terminate through the break path, and the invariant must
  // still balance.
  S.schedule(msec(1), [&] { Net->crash(SN); });
  Client->spawnProcess("driver", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Echo);
    std::vector<Promise<int32_t>> Ps;
    for (int I = 0; I < 50; ++I)
      Ps.push_back(H.streamCall(int32_t(I)));
    H.flush();
    int Broken = 0;
    for (auto &P : Ps)
      if (!P.claim().isNormal())
        ++Broken;
    EXPECT_GT(Broken, 0);
  });
  S.run();

  stream::StreamCounters TC = Client->transport().counters();
  EXPECT_EQ(TC.CallsIssued, 50u);
  EXPECT_GT(TC.CallsBroken, 0u);
  EXPECT_GT(TC.SenderBreaks, 0u);
  EXPECT_EQ(TC.CallsIssued, TC.CallsFulfilled + TC.CallsBroken);

  // Handlers killed by the crash must not linger in the executor tables:
  // the probe gauges read them, and at quiescence both drain to zero.
  MetricLabels SL{{"guardian", "server"}, {"node", "0"}, {"epoch", "0"}};
  EXPECT_EQ(S.metrics().gauge("runtime.live_call_processes", SL).value(), 0.0);
  EXPECT_EQ(S.metrics().gauge("runtime.handler_queue_depth", SL).value(), 0.0);
}

//===----------------------------------------------------------------------===//
// Typed trace events on the break / restart / orphan paths
//===----------------------------------------------------------------------===//

uint64_t countKind(const MetricsRegistry &R, EventKind K) {
  return R.eventCount(K);
}

TEST_F(WorldFixture, CrashEmitsBreakAndNodeEvents) {
  build();
  S.metrics().setEnabled(true);
  S.schedule(msec(1), [&] { Net->crash(SN); });
  S.schedule(msec(200), [&] { Net->restart(SN); });
  Client->spawnProcess("driver", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Echo);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    P.claim();
  });
  S.run();

  const MetricsRegistry &R = S.metrics();
  EXPECT_GE(countKind(R, EventKind::CallIssued), 1u);
  EXPECT_GE(countKind(R, EventKind::CallBatchTx), 1u);
  EXPECT_EQ(countKind(R, EventKind::SenderBreak), 1u);
  EXPECT_EQ(countKind(R, EventKind::NodeCrash), 1u);
  EXPECT_EQ(countKind(R, EventKind::NodeRestart), 1u);
  // The break event carries the reason in Detail.
  for (const TraceEvent &E : R.events())
    if (E.Kind == EventKind::SenderBreak) {
      EXPECT_FALSE(E.Detail.empty());
    }
}

TEST_F(WorldFixture, FulfilledCallEmitsSpanWithLatency) {
  build();
  S.metrics().setEnabled(true);
  Client->spawnProcess("driver", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Echo);
    auto P = H.streamCall(int32_t(9));
    H.flush();
    P.claim();
  });
  S.run();

  const MetricsRegistry &R = S.metrics();
  ASSERT_GE(countKind(R, EventKind::CallSpan), 1u);
  for (const TraceEvent &E : R.events())
    if (E.Kind == EventKind::CallSpan) {
      EXPECT_GT(E.DurNs, 0u); // Issue -> outcome took virtual time.
    }
  // The call-latency histogram observed the same span.
  Histogram &H = S.metrics().histogram(
      "stream.call_latency_us",
      {{"node", "client"}, {"epoch", "0"}, {"port", "1"}});
  EXPECT_GE(H.count(), 1u);
  EXPECT_GT(H.mean(), 0.0);
}

struct OrphanFixture : ::testing::Test {
  Simulation S;
  std::unique_ptr<net::SimNetwork> Net;
  std::unique_ptr<Guardian> Server, Client;
  HandlerRef<int32_t(int32_t)> SlowWork;

  void build() {
    Net = std::make_unique<net::SimNetwork>(S, net::NetConfig{});
    GuardianConfig GC;
    GC.Stream.RetransmitTimeout = msec(10);
    GC.Stream.MaxRetries = 2;
    Server = std::make_unique<Guardian>(*Net, Net->addNode("s"), "s", GC);
    Client = std::make_unique<Guardian>(*Net, Net->addNode("c"), "c", GC);
    SlowWork = Server->addHandler<int32_t(int32_t)>(
        "slow", [this](int32_t V) -> Outcome<int32_t> {
          S.sleep(sec(5));
          return V;
        });
  }
};

TEST_F(OrphanFixture, SupersededStreamEmitsOrphanDestroyed) {
  build();
  S.metrics().setEnabled(true);
  Client->spawnProcess("driver", [&] {
    auto A = Client->newAgent();
    auto H = bindHandler(*Client, A, SlowWork);
    auto P1 = H.streamCall(int32_t(1));
    H.flush();
    S.sleep(msec(20)); // Let the call start executing at the server.
    // Restart and call again: the new incarnation supersedes the old
    // receiver stream, destroying its in-flight execution.
    Client->transport().restart(A, Server->address(),
                                Guardian::DefaultGroup);
    auto P2 = H.streamCall(int32_t(2));
    H.flush();
    (void)P1;
    (void)P2;
  });
  S.run();

  const MetricsRegistry &R = S.metrics();
  EXPECT_EQ(Server->orphansDestroyed(), 1u);
  EXPECT_EQ(countKind(R, EventKind::StreamSuperseded), 1u);
  EXPECT_EQ(countKind(R, EventKind::OrphanDestroyed), 1u);
  EXPECT_GE(countKind(R, EventKind::StreamRestart), 1u);
  EXPECT_EQ(S.metrics()
                .counter("runtime.orphans_destroyed",
                         {{"guardian", "s"}, {"node", "0"}, {"epoch", "0"}})
                .value(),
            1u);
}

TEST_F(OrphanFixture, ExplicitReceiverBreakEmitsEvent) {
  build();
  S.metrics().setEnabled(true);
  Client->spawnProcess("driver", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), SlowWork);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    while (Server->transport().receiverStreamCount() == 0)
      S.sleep(msec(1));
    Server->transport().breakReceiverStream(1, "poisoned");
    P.claim();
  });
  S.run();

  const MetricsRegistry &R = S.metrics();
  ASSERT_EQ(countKind(R, EventKind::ReceiverBreak), 1u);
  for (const TraceEvent &E : R.events())
    if (E.Kind == EventKind::ReceiverBreak) {
      EXPECT_EQ(E.Detail, "poisoned");
    }
}

//===----------------------------------------------------------------------===//
// Disabled-path behavior: counters stay live, gated paths stay silent
//===----------------------------------------------------------------------===//

TEST_F(WorldFixture, DisabledRegistryKeepsCountersButNoEventsOrSamples) {
  build();
  ASSERT_FALSE(S.metrics().enabled());
  Client->spawnProcess("driver", [&] {
    auto H = bindHandler(*Client, Client->newAgent(), Echo);
    auto P = H.streamCall(int32_t(1));
    H.flush();
    P.claim();
  });
  S.run();

  EXPECT_EQ(Client->transport().counters().CallsIssued, 1u); // Always on.
  EXPECT_TRUE(S.metrics().events().empty());                 // Gated.
  EXPECT_EQ(S.metrics()
                .histogram("stream.call_latency_us",
                           {{"node", "client"}, {"epoch", "0"}, {"port", "1"}})
                .count(),
            0u); // Gated.
}

} // namespace
