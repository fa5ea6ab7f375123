//===- promises/support/Metrics.h - Observability core ---------*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified observability core: one registry of named, labelled
/// counters, gauges, and histograms, plus the one sink for typed
/// TraceEvent records, shared by every layer (sim, net, stream, runtime,
/// baseline).
///
/// Design rules (see docs/OBSERVABILITY.md):
///
///  * Counters are *always on*: they are the storage behind the public
///    `counters()` accessors (NetCounters, StreamCounters, ...), which are
///    now thin value views assembled from registry cells. An increment is
///    one pointer indirection — the same cost class as the ad-hoc structs
///    they replace.
///  * Histograms and trace events are *gated*: when the registry is
///    disabled (the default) an observe()/emit() site costs one predicted
///    branch, so benchmarks are unaffected, and sites call them
///    unconditionally. Enable with MetricsRegistry::setEnabled(true) or the
///    PROMISES_METRICS / PROMISES_METRICS_DIR environment variables.
///  * Gauges may be backed by a *probe* callback (e.g. event-queue depth)
///    evaluated only at export time — zero hot-path cost.
///  * Every recorded event is folded into a running FNV-1a digest and a
///    per-kind count as it is recorded, so the digest and the counts cover
///    the whole run; the buffer keeps only the newest MaxEvents events, for
///    the exporters and post-mortems.
///
/// Exporters: a human-readable summary, JSON Lines (one metric per line),
/// and the chrome://tracing JSON format for the kept events.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_SUPPORT_METRICS_H
#define PROMISES_SUPPORT_METRICS_H

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace promises {

/// Metric labels, e.g. {{"node", "server"}}. Order is preserved and is
/// part of the metric identity.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry;

/// A monotonically increasing count. Always on (see file comment).
class Counter {
public:
  void inc(uint64_t N = 1) { V += N; }
  uint64_t value() const { return V; }

private:
  friend class MetricsRegistry;
  Counter() = default;
  uint64_t V = 0;
};

/// A point-in-time value, either set directly or read from a probe
/// callback at export time.
class Gauge {
public:
  void set(double X) { V = X; }
  void add(double D) { V += D; }
  double value() const { return Probe ? Probe() : V; }

private:
  friend class MetricsRegistry;
  Gauge() = default;
  double V = 0;
  std::function<double()> Probe;
};

/// A distribution accumulator with HDR-style log-linear buckets: each
/// power-of-two range is subdivided into 2^SubBucketBits linear
/// sub-buckets, so a bucket's relative width — and therefore the
/// percentile error — is at most 1/2^SubBucketBits (~3%), while memory
/// stays a fixed flat array (O(1) per metric, independent of sample
/// count; a million-client run costs the same 15 KiB as an idle one).
/// Exact count, sum, min, max; approximate percentiles clamped to
/// [min, max]. observe() is gated on the registry's enabled flag: one
/// predicted branch when observability is off.
class Histogram {
public:
  static constexpr size_t SubBucketBits = 5;
  static constexpr size_t SubBuckets = size_t{1} << SubBucketBits;
  /// Bucket 0 holds "< 1"; the rest cover the full uint64 range at
  /// SubBuckets of linear resolution per octave. The top value
  /// (UINT64_MAX, 64 significant bits) lands at shift 58, sub-index 63,
  /// so the flat index range is [0, 58 * SubBuckets + 64).
  static constexpr size_t NumBuckets =
      1 + (64 - SubBucketBits - 1) * SubBuckets + 2 * SubBuckets;

  void observe(double Sample) {
    if (!*Enabled)
      return;
    record(Sample);
  }

  uint64_t count() const { return Count; }
  double sum() const { return Sum; }
  double mean() const { return Count ? Sum / static_cast<double>(Count) : 0; }
  double min() const { return Count ? Min : 0; }
  double max() const { return Count ? Max : 0; }

  /// Approximate percentile by nearest rank over the buckets. \p P is
  /// clamped to [0, 100]; NaN is treated as 0 (the minimum). Returns 0.0
  /// when the histogram is empty. Total, not sanity-checked: callers often
  /// feed config- or flag-derived P straight in, and a bad value must not
  /// index buckets out of range in a build with asserts stripped.
  double percentile(double P) const;

private:
  friend class MetricsRegistry;
  explicit Histogram(const bool *Enabled) : Enabled(Enabled) {}

  void record(double Sample);

  /// Bucket 0 holds samples < 1 (and non-finite ones). For the rest the
  /// sample is truncated to uint64 and binned at its top SubBucketBits+1
  /// significant bits: Shift = bit_width(U) - (SubBucketBits + 1) (floored
  /// at 0), index = 1 + Shift * SubBuckets + (U >> Shift). Small values
  /// (U < 2 * SubBuckets) get exact integer buckets; larger ones keep
  /// SubBuckets of linear resolution per power-of-two range, so adjacent
  /// buckets are contiguous and each is at most 1/SubBuckets wide
  /// relative to its value.
  static size_t bucketIndex(double V) {
    if (!(V >= 1.0))
      return 0;
    uint64_t U = V >= 9.2e18 ? UINT64_MAX : static_cast<uint64_t>(V);
    int Shift = std::max(0, static_cast<int>(std::bit_width(U)) -
                                static_cast<int>(SubBucketBits) - 1);
    return 1 + static_cast<size_t>(Shift) * SubBuckets +
           static_cast<size_t>(U >> Shift);
  }

  double representative(size_t B) const;

  const bool *Enabled;
  uint64_t Count = 0;
  double Sum = 0, Min = 0, Max = 0;
  std::array<uint64_t, NumBuckets> Buckets{};
};

/// The typed trace events emitted at transport/runtime decision points:
/// the one trace path (docs/OBSERVABILITY.md).
enum class EventKind : uint8_t {
  CallIssued,       ///< Sender queued a call (Id=agent, Seq=call seq).
  CallSpan,         ///< A call's issue->outcome span (DurNs = latency).
  CallBatchTx,      ///< Call batch transmitted (Seq=calls in batch).
  ReplyBatchTx,     ///< Reply batch transmitted (Seq=replies in batch).
  SenderBreak,      ///< Sender side of a stream broke.
  ReceiverBreak,    ///< Receiver side of a stream broke.
  StreamRestart,    ///< Broken sender stream reincarnated (Seq=new inc).
  StreamSuperseded, ///< Receiver stream replaced by a newer incarnation.
  OrphanDestroyed,  ///< Orphaned call execution killed (Seq=call seq).
  NodeCrash,        ///< Network node went down.
  NodeRestart,      ///< Network node came back up.
  SenderBlocked,    ///< Issuer blocked on a full in-flight window
                    ///< (Seq=window occupancy).
  SenderUnblocked,  ///< Blocked issuer resumed (DurNs = time blocked).
  DeadlineExpired,  ///< Receiver dropped a call whose deadline passed
                    ///< before execution (Id=stream tag, Seq=call seq).
  CallCancelled,    ///< Call completed as cancelled (Id=stream tag).
  CallRetry,        ///< Client re-issued a call after `unavailable`
                    ///< (Id=agent, Seq=attempt number).
  CallShed,         ///< Guardian shed an incoming call under admission
                    ///< control (Id=stream tag, Seq=call seq).
  BreakerOpen,      ///< Endpoint circuit breaker tripped open (Id=agent,
                    ///< Seq=consecutive timeout breaks).
  BreakerClose,     ///< Breaker closed: a reply proved reachability.
  DatagramCorrupted,  ///< Network flipped bits in a datagram in flight
                      ///< (Seq=bits flipped).
  FrameCorruptDropped, ///< Transport rejected an arriving frame before
                       ///< decode (Detail=cause, Seq=frame bytes).
  Custom,           ///< Anything else; see Detail.
};

inline constexpr size_t NumEventKinds =
    static_cast<size_t>(EventKind::Custom) + 1;

/// Stable lowercase name for an event kind ("sender_break", ...).
const char *eventKindName(EventKind K);

/// One structured trace record. TsNs is virtual time. Recording it is one
/// store: the registry interns Detail, so a recorded event's Detail views
/// text the registry keeps for its whole life.
struct TraceEvent {
  uint64_t TsNs = 0;
  EventKind Kind = EventKind::Custom;
  uint32_t Node = 0;  ///< Originating network node, when known.
  uint64_t Id = 0;    ///< Agent id, stream tag, or process id.
  uint64_t Seq = 0;   ///< Call seq, incarnation, or batch size.
  uint64_t DurNs = 0; ///< When nonzero: a span [TsNs, TsNs + DurNs].
  std::string_view Detail; ///< Break reason etc.; often empty.
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) <= 56, "TraceEvent layout budget");

/// One line of text for \p E: virtual time in ms, node, kind, id, seq,
/// duration and detail (the post-mortem rendering).
std::string formatEvent(const TraceEvent &E);

/// The registry. One per Simulation (reachable from every layer via
/// sim::Simulation::metrics()); freestanding instances are fine in tests.
/// Instrument handles returned by counter()/gauge()/histogram() are stable
/// for the registry's lifetime.
class MetricsRegistry {
public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Gates histograms and trace events (counters and gauges stay live).
  bool enabled() const { return EnabledFlag; }
  void setEnabled(bool On) { EnabledFlag = On; }

  /// True when PROMISES_METRICS or PROMISES_METRICS_DIR is set in the
  /// environment; new registries start in this state.
  static bool enabledByEnvironment();

  /// Gets or creates the instrument with this name+labels identity.
  /// Re-requesting with a different type is a programming error (asserts).
  Counter &counter(const std::string &Name, MetricLabels Labels = {});
  Gauge &gauge(const std::string &Name, MetricLabels Labels = {});
  Histogram &histogram(const std::string &Name, MetricLabels Labels = {});

  /// Creates (or rebinds) a gauge whose value is read from \p Probe at
  /// export time.
  Gauge &gaugeProbe(const std::string &Name, std::function<double()> Probe,
                    MetricLabels Labels = {});

  /// Records the trace event of these fields (TraceEvent's, in order) if
  /// enabled. The event is built inside the branch, so a disabled registry
  /// costs the one flag test and sites call this unconditionally.
  void emit(uint64_t TsNs, EventKind Kind, uint32_t Node, uint64_t Id,
            uint64_t Seq, uint64_t DurNs = 0, std::string_view Detail = {}) {
    if (EnabledFlag)
      record(TraceEvent{TsNs, Kind, Node, Id, Seq, DurNs, Detail});
  }
  /// Records \p E if enabled.
  void emit(const TraceEvent &E) {
    if (EnabledFlag)
      record(E);
  }

  /// Events recorded since construction, including those the buffer no
  /// longer keeps.
  uint64_t eventsRecorded() const { return Recorded; }
  /// Recorded events of kind \p K.
  uint64_t eventCount(EventKind K) const {
    return KindCounts[static_cast<size_t>(K)];
  }
  /// FNV-1a over every recorded event, in record order: TsNs, Kind, Node,
  /// Id, Seq and DurNs as 8 little-endian bytes each, then each Detail
  /// byte widened to a u64. The offset basis while nothing is recorded.
  uint64_t traceDigest() const { return Digest; }

  /// The newest min(\p N, kept) recorded events, oldest first.
  std::vector<TraceEvent> recentEvents(size_t N) const;
  /// The kept events (the newest MaxEvents recorded), oldest first.
  std::vector<TraceEvent> events() const { return recentEvents(MaxEvents); }

  /// --- Exporters ---

  /// Human-readable table of all instruments.
  void writeSummary(std::ostream &OS) const;

  /// One JSON object per line per instrument, then one per trace event.
  void writeJsonLines(std::ostream &OS) const;

  /// The trace-event buffer in chrome://tracing JSON format (load via
  /// about:tracing or https://ui.perfetto.dev).
  void writeChromeTrace(std::ostream &OS) const;

  /// File convenience wrappers; return false if the file cannot be opened.
  bool writeJsonLinesFile(const std::string &Path) const;
  bool writeChromeTraceFile(const std::string &Path) const;

  static constexpr size_t MaxEvents = 1 << 20;
  static constexpr uint64_t DigestBasis = 0xcbf29ce484222325ull;
  /// Distinct details kept. A detail can be text off the wire (a peer's
  /// break reason), so past this many a new one is kept as a placeholder;
  /// the digest still folds its own bytes.
  static constexpr size_t MaxDetails = 1 << 12;

private:
  enum class Type : uint8_t { Counter, Gauge, Histogram };
  struct Instrument {
    Type T;
    std::string Name;
    MetricLabels Labels;
    Counter *C = nullptr;
    Gauge *G = nullptr;
    Histogram *H = nullptr;
  };

  static std::string key(const std::string &Name, const MetricLabels &Labels);
  Instrument &find(Type T, const std::string &Name, MetricLabels Labels);
  void record(const TraceEvent &E);

  bool EnabledFlag = false;
  // Deques give the handles stable addresses.
  std::deque<Counter> CounterPool;
  std::deque<Gauge> GaugePool;
  std::deque<Histogram> HistogramPool;
  std::map<std::string, Instrument> Instruments; ///< Sorted for export.
  /// The kept events: a ring of MaxEvents slots in blocks of BlockEvents,
  /// each allocated when recording first reaches it and never moved.
  /// Recorded event I sits in slot I % MaxEvents, so past MaxEvents each
  /// event overwrites the oldest.
  static constexpr size_t BlockEvents = 1 << 10;
  std::vector<std::unique_ptr<TraceEvent[]>> Blocks;
  const TraceEvent &slot(uint64_t I) const {
    uint64_t S = I % MaxEvents;
    return Blocks[S / BlockEvents][S % BlockEvents];
  }
  uint64_t keptEvents() const {
    return std::min<uint64_t>(Recorded, MaxEvents);
  }
  std::set<std::string, std::less<>> Details; ///< Interned Detail text.
  uint64_t Recorded = 0;
  uint64_t Digest = DigestBasis;
  std::array<uint64_t, NumEventKinds> KindCounts{};
};

} // namespace promises

#endif // PROMISES_SUPPORT_METRICS_H
