#ifndef DETECTIVE_COMMON_TRACE_H_
#define DETECTIVE_COMMON_TRACE_H_

// Thread-sharded span/instant-event tracing behind a global registry — the
// timeline companion to the aggregate counters of common/metrics.h.
//
// Design goals, in order (the same discipline as metrics::Registry):
//   1. The hot path must not contend. Every thread records into its own
//      fixed-capacity ring buffer of relaxed-atomic cells (created lazily on
//      first use); rings are merged at collection time. When the ring wraps,
//      the oldest events are overwritten and counted as dropped — tracing
//      never allocates or blocks on the recording path.
//   2. Instrumentation must compile out to nothing. DETECTIVE_TRACE_SPAN /
//      DETECTIVE_TRACE_INSTANT collapse to a no-op object when the build
//      sets DETECTIVE_METRICS_ENABLED=0 (CMake option DETECTIVE_METRICS=OFF);
//      the classes stay available either way so tools and tests always link.
//   3. Recording is off by default. Spans check one relaxed atomic and do
//      nothing until Registry::Start() flips it — an untraced run pays one
//      predictable branch per site.
//
// The exporter emits the Chrome trace-event JSON array format, loadable in
// chrome://tracing and Perfetto, documented in docs/observability.md and
// wired into `detective_clean --trace-json=FILE` and bench_util.h.
//
// Event names and arg keys MUST be string literals (or otherwise have static
// storage duration): cells store the pointers, not copies.
//
// Usage:
//
//   trace::Registry::Global().Start();
//   {
//     DETECTIVE_TRACE_SPAN("repair.round", {"round", round});
//     ...work...
//   }
//   DETECTIVE_TRACE_INSTANT("repair.version_emitted");
//   trace::Registry::Global().Stop();
//   trace::WriteChromeTraceJson(trace::Registry::Global().Collect(), path);

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

#ifndef DETECTIVE_METRICS_ENABLED
#define DETECTIVE_METRICS_ENABLED 1
#endif

namespace detective::trace {

/// Maximum key/value annotations per event (kept tiny: cells are POD).
inline constexpr size_t kMaxArgs = 2;

/// Events retained per thread before the ring wraps (oldest overwritten).
inline constexpr size_t kRingCapacity = size_t{1} << 14;

/// One integer annotation on an event. `key` must be a string literal.
struct Arg {
  const char* key = nullptr;
  int64_t value = 0;
};

/// A decoded event, detached from any ring (plain values, safe to copy).
struct Event {
  const char* name = nullptr;  // static string
  char phase = 'X';            // 'X' complete span | 'i' instant
  uint32_t tid = 0;            // dense per-ring thread id (registration order)
  uint64_t ts_ns = 0;          // start, ns since the process trace epoch
  uint64_t dur_ns = 0;         // span duration; 0 for instants
  uint8_t num_args = 0;
  std::array<Arg, kMaxArgs> args{};
};

/// Nanoseconds since the process-wide trace epoch (steady clock; the epoch
/// is anchored on first use, so all threads share one timeline).
uint64_t NowNs();

/// Per-thread event storage. Obtain via ThisThreadRing(); only the owning
/// thread writes, the registry reads at collection time.
///
/// Cells are relaxed atomics for the same reason metrics::Shard's are: a
/// collection racing a live writer must be TSan-clean. A racing collection
/// can observe a torn event only in the wrap-around case; collect after
/// joining workers (or after Stop()) for exact timelines.
class Ring {
 public:
  /// Appends one event (owner thread only). Never blocks; overwrites the
  /// oldest event once `kRingCapacity` are live.
  void Push(const Event& event);

 private:
  friend class Registry;

  struct Cell {
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint32_t> meta{0};  // phase | num_args << 8
    std::array<std::atomic<const char*>, kMaxArgs> arg_keys{};
    std::array<std::atomic<int64_t>, kMaxArgs> arg_values{};
  };

  uint32_t tid_ = 0;                     // assigned at registration
  std::atomic<uint64_t> pushed_{0};      // total events ever pushed
  std::vector<Cell> cells_{kRingCapacity};
};

/// Global on/off gate plus the set of live thread rings and the events of
/// exited threads. All methods are thread-safe.
class Registry {
 public:
  static Registry& Global();

  /// Discards everything recorded so far and starts recording. Call while
  /// no traced work is running (the reset races live writers otherwise).
  void Start();

  /// Stops recording. Already-recorded events stay collectable.
  void Stop();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Merges every live ring plus the folded events of exited threads,
  /// sorted by (tid, ts, -dur) so each thread's timeline is monotonic and
  /// enclosing spans precede the spans they contain.
  std::vector<Event> Collect();

  /// Events lost to ring wrap-around since Start() (coverage honesty: a
  /// nonzero value means the head of some thread's timeline is missing).
  uint64_t dropped_events();

  /// Ring lifecycle hooks — called by the thread-local ring holder, not
  /// meant for direct use. Unregistering folds the ring into retired_.
  void RegisterRing(Ring* ring);
  void UnregisterRing(Ring* ring);

 private:
  Registry() = default;

  /// Decodes the live slots of `ring` into `out` (registry mutex held).
  void CollectRingLocked(const Ring& ring, std::vector<Event>* out) const;

  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<Ring*> rings_;
  std::vector<Event> retired_;   // events of threads that have exited
  uint64_t retired_dropped_ = 0;
  uint32_t next_tid_ = 1;        // 0 is reserved for "unknown"
};

/// The calling thread's ring, created and registered on first use.
Ring& ThisThreadRing();

/// RAII span: records one complete ('X') event covering its lifetime.
/// Cheap no-op while the registry is disabled.
class Span {
 public:
  explicit Span(const char* name, Arg a = {}, Arg b = {});
  ~Span();

  /// Replaces the args, for values known only when the span ends.
  void SetArgs(Arg a, Arg b = {});

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;  // nullptr when recording was off at construction
  uint64_t start_ns_ = 0;
  std::array<Arg, kMaxArgs> args_;
  uint8_t num_args_ = 0;
};

/// Records one instant ('i') event at the current time.
void EmitInstant(const char* name, Arg a = {}, Arg b = {});

/// No-op twins so instrumentation sites compile identically (and argument
/// expressions stay type-checked) when DETECTIVE_METRICS=OFF.
class NoopSpan {
 public:
  explicit NoopSpan(const char*, Arg = {}, Arg = {}) {}
  void SetArgs(Arg, Arg = {}) {}
  NoopSpan(const NoopSpan&) = delete;
  NoopSpan& operator=(const NoopSpan&) = delete;
};
inline void NoopInstant(const char*, Arg = {}, Arg = {}) {}

/// Chrome trace-event JSON (array form): one object per event, `ts`/`dur`
/// in microseconds, plus thread_name metadata records. Loadable in
/// chrome://tracing and Perfetto.
std::string ToChromeTraceJson(const std::vector<Event>& events);

/// Writes ToChromeTraceJson(events) to `path`.
Status WriteChromeTraceJson(const std::vector<Event>& events,
                            const std::string& path);

}  // namespace detective::trace

#define DETECTIVE_TRACE_CONCAT_IMPL(a, b) a##b
#define DETECTIVE_TRACE_CONCAT(a, b) DETECTIVE_TRACE_CONCAT_IMPL(a, b)

#if DETECTIVE_METRICS_ENABLED

#define DETECTIVE_TRACE_SPAN(...)                                  \
  ::detective::trace::Span DETECTIVE_TRACE_CONCAT(                 \
      detective_trace_span_, __LINE__)(__VA_ARGS__)

#define DETECTIVE_TRACE_NAMED_SPAN(var, ...) ::detective::trace::Span var(__VA_ARGS__)

#define DETECTIVE_TRACE_INSTANT(...) ::detective::trace::EmitInstant(__VA_ARGS__)

#else  // !DETECTIVE_METRICS_ENABLED

#define DETECTIVE_TRACE_SPAN(...)                                  \
  ::detective::trace::NoopSpan DETECTIVE_TRACE_CONCAT(             \
      detective_trace_span_, __LINE__)(__VA_ARGS__)

#define DETECTIVE_TRACE_NAMED_SPAN(var, ...) \
  ::detective::trace::NoopSpan var(__VA_ARGS__)

#define DETECTIVE_TRACE_INSTANT(...) ::detective::trace::NoopInstant(__VA_ARGS__)

#endif  // DETECTIVE_METRICS_ENABLED

#endif  // DETECTIVE_COMMON_TRACE_H_
