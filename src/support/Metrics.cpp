//===- Metrics.cpp - Observability core -------------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/support/Metrics.h"

#include "promises/support/StrUtil.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>

using namespace promises;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

void Histogram::record(double Sample) {
  if (Count == 0) {
    Min = Max = Sample;
  } else {
    Min = std::min(Min, Sample);
    Max = std::max(Max, Sample);
  }
  ++Count;
  Sum += Sample;
  ++Buckets[bucketIndex(Sample)];
}

double Histogram::representative(size_t B) const {
  // Invert bucketIndex: bucket 0 covers "< 1"; otherwise recover the
  // (Shift, top-bits) pair and report the linear midpoint of
  // [Top << Shift, (Top + 1) << Shift). For raw indices below
  // 2 * SubBuckets the shift is 0 and the bucket holds exactly one
  // integer value.
  if (B == 0)
    return std::clamp(0.5, Min, Max);
  size_t Raw = B - 1;
  size_t Shift = Raw < 2 * SubBuckets ? 0 : Raw / SubBuckets - 1;
  size_t Top = Raw - Shift * SubBuckets;
  double V = std::ldexp(static_cast<double>(Top) + 0.5, static_cast<int>(Shift));
  return std::clamp(V, Min, Max);
}

double Histogram::percentile(double P) const {
  // Total function: out-of-range P clamps, NaN maps to the minimum, and
  // empty histograms return 0.0 — never index buckets from garbage (a
  // release build with asserts stripped must not walk out of range).
  if (!(P > 0.0))
    P = 0.0; // Negative or NaN.
  else if (P > 100.0)
    P = 100.0;
  if (Count == 0)
    return 0.0;
  uint64_t Rank = static_cast<uint64_t>((P / 100.0) *
                                        static_cast<double>(Count - 1));
  uint64_t Seen = 0;
  for (size_t B = 0; B < NumBuckets; ++B) {
    Seen += Buckets[B];
    if (Seen > Rank)
      return representative(B);
  }
  return Max;
}

//===----------------------------------------------------------------------===//
// Event kinds
//===----------------------------------------------------------------------===//

const char *promises::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::CallIssued:
    return "call_issued";
  case EventKind::CallSpan:
    return "call";
  case EventKind::CallBatchTx:
    return "call_batch_tx";
  case EventKind::ReplyBatchTx:
    return "reply_batch_tx";
  case EventKind::SenderBreak:
    return "sender_break";
  case EventKind::ReceiverBreak:
    return "receiver_break";
  case EventKind::StreamRestart:
    return "stream_restart";
  case EventKind::StreamSuperseded:
    return "stream_superseded";
  case EventKind::OrphanDestroyed:
    return "orphan_destroyed";
  case EventKind::NodeCrash:
    return "node_crash";
  case EventKind::NodeRestart:
    return "node_restart";
  case EventKind::SenderBlocked:
    return "sender_blocked";
  case EventKind::SenderUnblocked:
    return "sender_unblocked";
  case EventKind::DeadlineExpired:
    return "deadline_expired";
  case EventKind::CallCancelled:
    return "call_cancelled";
  case EventKind::CallRetry:
    return "call_retry";
  case EventKind::CallShed:
    return "call_shed";
  case EventKind::BreakerOpen:
    return "breaker_open";
  case EventKind::BreakerClose:
    return "breaker_close";
  case EventKind::DatagramCorrupted:
    return "datagram_corrupted";
  case EventKind::FrameCorruptDropped:
    return "frame_corrupt_dropped";
  case EventKind::Custom:
    break;
  }
  return "custom";
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

MetricsRegistry::MetricsRegistry() : EnabledFlag(enabledByEnvironment()) {}

bool MetricsRegistry::enabledByEnvironment() {
  const char *A = std::getenv("PROMISES_METRICS");
  const char *B = std::getenv("PROMISES_METRICS_DIR");
  return (A && A[0] != '\0') || (B && B[0] != '\0');
}

std::string MetricsRegistry::key(const std::string &Name,
                                 const MetricLabels &Labels) {
  size_t Size = Name.size() + 2;
  for (const auto &[L, V] : Labels)
    Size += L.size() + V.size() + 2;
  std::string K;
  K.reserve(Size);
  K += Name;
  K.push_back('{');
  for (const auto &[L, V] : Labels) {
    K += L;
    K.push_back('=');
    K += V;
    K.push_back(',');
  }
  K.push_back('}');
  return K;
}

MetricsRegistry::Instrument &MetricsRegistry::find(Type T,
                                                   const std::string &Name,
                                                   MetricLabels Labels) {
  auto [It, Inserted] = Instruments.try_emplace(key(Name, Labels));
  Instrument &I = It->second;
  if (Inserted) {
    I.T = T;
    I.Name = Name;
    I.Labels = std::move(Labels);
    switch (T) {
    case Type::Counter:
      I.C = &CounterPool.emplace_back(Counter());
      break;
    case Type::Gauge:
      I.G = &GaugePool.emplace_back(Gauge());
      break;
    case Type::Histogram:
      I.H = &HistogramPool.emplace_back(Histogram(&EnabledFlag));
      break;
    }
  }
  assert(I.T == T && "metric re-registered with a different type");
  return I;
}

Counter &MetricsRegistry::counter(const std::string &Name,
                                  MetricLabels Labels) {
  return *find(Type::Counter, Name, std::move(Labels)).C;
}

Gauge &MetricsRegistry::gauge(const std::string &Name, MetricLabels Labels) {
  return *find(Type::Gauge, Name, std::move(Labels)).G;
}

Gauge &MetricsRegistry::gaugeProbe(const std::string &Name,
                                   std::function<double()> Probe,
                                   MetricLabels Labels) {
  Gauge &G = *find(Type::Gauge, Name, std::move(Labels)).G;
  G.Probe = std::move(Probe);
  return G;
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      MetricLabels Labels) {
  return *find(Type::Histogram, Name, std::move(Labels)).H;
}

namespace {

uint64_t fnv1a(uint64_t H, uint64_t V) {
  for (int I = 0; I != 8; ++I) {
    H ^= (V >> (I * 8)) & 0xff;
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace

void MetricsRegistry::record(TraceEvent E) {
  uint64_t H = Digest;
  H = fnv1a(H, E.TsNs);
  H = fnv1a(H, static_cast<uint64_t>(E.Kind));
  H = fnv1a(H, E.Node);
  H = fnv1a(H, E.Id);
  H = fnv1a(H, E.Seq);
  H = fnv1a(H, E.DurNs);
  for (char C : E.Detail)
    H = fnv1a(H, static_cast<unsigned char>(C));
  Digest = H;
  ++KindCounts[static_cast<size_t>(E.Kind)];

  if (!E.Detail.empty()) {
    auto It = Details.lower_bound(E.Detail);
    if (It != Details.end() && *It == E.Detail)
      E.Detail = *It;
    else if (Details.size() < MaxDetails)
      E.Detail = *Details.emplace_hint(It, E.Detail);
    else
      E.Detail = "(detail table full)";
  }
  uint64_t S = Recorded % MaxEvents;
  if (S / BlockEvents == Blocks.size())
    Blocks.push_back(std::make_unique<TraceEvent[]>(BlockEvents));
  Blocks[S / BlockEvents][S % BlockEvents] = E;
  ++Recorded;
}

std::vector<TraceEvent> MetricsRegistry::recentEvents(size_t N) const {
  uint64_t Kept = std::min<uint64_t>(N, keptEvents());
  std::vector<TraceEvent> Out;
  Out.reserve(Kept);
  for (uint64_t I = Recorded - Kept; I != Recorded; ++I)
    Out.push_back(slot(I));
  return Out;
}

std::string promises::formatEvent(const TraceEvent &E) {
  std::string S = strprintf(
      "%.6fms node=%u %s id=%llu seq=%llu dur=%.6fms",
      static_cast<double>(E.TsNs) / 1e6, E.Node, eventKindName(E.Kind),
      (unsigned long long)E.Id, (unsigned long long)E.Seq,
      static_cast<double>(E.DurNs) / 1e6);
  if (!E.Detail.empty()) {
    S += ' ';
    S += E.Detail;
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

namespace {

void jsonEscape(std::ostream &OS, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        OS << Buf;
      } else {
        OS << C;
      }
    }
  }
}

void writeLabelsJson(std::ostream &OS, const MetricLabels &Labels) {
  OS << "{";
  bool First = true;
  for (const auto &[L, V] : Labels) {
    if (!First)
      OS << ",";
    First = false;
    OS << "\"";
    jsonEscape(OS, L);
    OS << "\":\"";
    jsonEscape(OS, V);
    OS << "\"";
  }
  OS << "}";
}

/// JSON has no spelling for nan/inf: the default operator<< would emit
/// them as bare tokens and make the whole line unparseable to a strict
/// reader (Python json, jq). A histogram fed a NaN sample, or a gauge
/// probe dividing by zero, poisons every downstream aggregate — render
/// any non-finite value as 0 so one bad sample cannot corrupt an export.
double finiteOrZero(double V) { return std::isfinite(V) ? V : 0.0; }

std::string labelsText(const MetricLabels &Labels) {
  if (Labels.empty())
    return "";
  std::string S = "{";
  for (size_t I = 0; I < Labels.size(); ++I) {
    if (I)
      S += ",";
    S += Labels[I].first + "=" + Labels[I].second;
  }
  S += "}";
  return S;
}

} // namespace

void MetricsRegistry::writeSummary(std::ostream &OS) const {
  for (const auto &[K, I] : Instruments) {
    OS << "  " << I.Name << labelsText(I.Labels) << " = ";
    switch (I.T) {
    case Type::Counter:
      OS << I.C->value();
      break;
    case Type::Gauge:
      OS << finiteOrZero(I.G->value());
      break;
    case Type::Histogram:
      if (I.H->count() == 0) {
        OS << "(no samples)";
      } else {
        OS << "count " << I.H->count() << ", mean "
           << finiteOrZero(I.H->mean()) << ", min "
           << finiteOrZero(I.H->min()) << ", p50 "
           << finiteOrZero(I.H->percentile(50)) << ", p90 "
           << finiteOrZero(I.H->percentile(90)) << ", p99 "
           << finiteOrZero(I.H->percentile(99)) << ", max "
           << finiteOrZero(I.H->max());
      }
      break;
    }
    OS << "\n";
  }
  if (Recorded)
    OS << "  trace events: " << keptEvents() << " captured, "
       << Recorded - keptEvents() << " dropped\n";
}

void MetricsRegistry::writeJsonLines(std::ostream &OS) const {
  for (const auto &[K, I] : Instruments) {
    OS << "{\"type\":\"";
    switch (I.T) {
    case Type::Counter:
      OS << "counter";
      break;
    case Type::Gauge:
      OS << "gauge";
      break;
    case Type::Histogram:
      OS << "histogram";
      break;
    }
    OS << "\",\"name\":\"";
    jsonEscape(OS, I.Name);
    OS << "\",\"labels\":";
    writeLabelsJson(OS, I.Labels);
    switch (I.T) {
    case Type::Counter:
      OS << ",\"value\":" << I.C->value();
      break;
    case Type::Gauge:
      OS << ",\"value\":" << finiteOrZero(I.G->value());
      break;
    case Type::Histogram:
      OS << ",\"count\":" << I.H->count()
         << ",\"sum\":" << finiteOrZero(I.H->sum())
         << ",\"min\":" << finiteOrZero(I.H->min())
         << ",\"max\":" << finiteOrZero(I.H->max())
         << ",\"mean\":" << finiteOrZero(I.H->mean())
         << ",\"p50\":" << finiteOrZero(I.H->percentile(50))
         << ",\"p90\":" << finiteOrZero(I.H->percentile(90))
         << ",\"p99\":" << finiteOrZero(I.H->percentile(99));
      break;
    }
    OS << "}\n";
  }
  for (const TraceEvent &E : events()) {
    OS << "{\"type\":\"event\",\"kind\":\"" << eventKindName(E.Kind)
       << "\",\"ts_ns\":" << E.TsNs << ",\"node\":" << E.Node
       << ",\"id\":" << E.Id << ",\"seq\":" << E.Seq;
    if (E.DurNs)
      OS << ",\"dur_ns\":" << E.DurNs;
    if (!E.Detail.empty()) {
      OS << ",\"detail\":\"";
      jsonEscape(OS, E.Detail);
      OS << "\"";
    }
    OS << "}\n";
  }
  if (Recorded > keptEvents())
    OS << "{\"type\":\"meta\",\"dropped_events\":"
       << Recorded - keptEvents() << "}\n";
}

void MetricsRegistry::writeChromeTrace(std::ostream &OS) const {
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  for (const TraceEvent &E : events()) {
    if (!First)
      OS << ",";
    First = false;
    // chrome://tracing timestamps are microseconds.
    OS << "\n{\"name\":\"" << eventKindName(E.Kind) << "\",\"cat\":\"promises\""
       << ",\"ph\":\"" << (E.DurNs ? "X" : "i") << "\",\"ts\":"
       << static_cast<double>(E.TsNs) / 1000.0;
    if (E.DurNs)
      OS << ",\"dur\":" << static_cast<double>(E.DurNs) / 1000.0;
    else
      OS << ",\"s\":\"t\"";
    OS << ",\"pid\":" << E.Node << ",\"tid\":" << E.Id
       << ",\"args\":{\"seq\":" << E.Seq;
    if (!E.Detail.empty()) {
      OS << ",\"detail\":\"";
      jsonEscape(OS, E.Detail);
      OS << "\"";
    }
    OS << "}}";
  }
  OS << "\n]}\n";
}

bool MetricsRegistry::writeJsonLinesFile(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  writeJsonLines(OS);
  return true;
}

bool MetricsRegistry::writeChromeTraceFile(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  writeChromeTrace(OS);
  return true;
}
