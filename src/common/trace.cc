#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/string_util.h"

namespace detective::trace {

uint64_t NowNs() {
  // The epoch anchors on the first call so timestamps stay small and every
  // thread shares one timeline.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - epoch)
                                   .count());
}

// ---- Ring --------------------------------------------------------------------

void Ring::Push(const Event& event) {
  uint64_t sequence = pushed_.load(std::memory_order_relaxed);
  Cell& cell = cells_[sequence % kRingCapacity];
  cell.name.store(event.name, std::memory_order_relaxed);
  cell.ts_ns.store(event.ts_ns, std::memory_order_relaxed);
  cell.dur_ns.store(event.dur_ns, std::memory_order_relaxed);
  cell.meta.store(static_cast<uint32_t>(static_cast<unsigned char>(event.phase)) |
                      (static_cast<uint32_t>(event.num_args) << 8),
                  std::memory_order_relaxed);
  for (size_t i = 0; i < kMaxArgs; ++i) {
    cell.arg_keys[i].store(i < event.num_args ? event.args[i].key : nullptr,
                           std::memory_order_relaxed);
    cell.arg_values[i].store(i < event.num_args ? event.args[i].value : 0,
                             std::memory_order_relaxed);
  }
  // Publish after the cell is written; Collect() pairs with an acquire load.
  pushed_.store(sequence + 1, std::memory_order_release);
}

// ---- Registry ----------------------------------------------------------------

Registry& Registry::Global() {
  // Leaked on purpose: thread_local ring destructors may run after static
  // destructors would have torn a non-leaked registry down.
  static Registry* global = new Registry();
  return *global;
}

void Registry::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  retired_.clear();
  retired_dropped_ = 0;
  for (Ring* ring : rings_) {
    ring->pushed_.store(0, std::memory_order_relaxed);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Registry::Stop() { enabled_.store(false, std::memory_order_relaxed); }

void Registry::CollectRingLocked(const Ring& ring, std::vector<Event>* out) const {
  const uint64_t pushed = ring.pushed_.load(std::memory_order_acquire);
  const uint64_t live = std::min<uint64_t>(pushed, kRingCapacity);
  // Oldest retained event first: when the ring wrapped, the slot after the
  // write cursor holds it.
  const uint64_t first = pushed - live;
  for (uint64_t sequence = first; sequence < pushed; ++sequence) {
    const Ring::Cell& cell = ring.cells_[sequence % kRingCapacity];
    Event event;
    event.name = cell.name.load(std::memory_order_relaxed);
    if (event.name == nullptr) continue;  // torn racing write; skip
    uint32_t meta = cell.meta.load(std::memory_order_relaxed);
    event.phase = static_cast<char>(meta & 0xff);
    event.num_args = static_cast<uint8_t>(
        std::min<uint32_t>((meta >> 8) & 0xff, kMaxArgs));
    event.tid = ring.tid_;
    event.ts_ns = cell.ts_ns.load(std::memory_order_relaxed);
    event.dur_ns = cell.dur_ns.load(std::memory_order_relaxed);
    for (size_t i = 0; i < event.num_args; ++i) {
      event.args[i].key = cell.arg_keys[i].load(std::memory_order_relaxed);
      event.args[i].value = cell.arg_values[i].load(std::memory_order_relaxed);
      if (event.args[i].key == nullptr) event.num_args = static_cast<uint8_t>(i);
    }
    out->push_back(event);
  }
}

std::vector<Event> Registry::Collect() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out = retired_;
  for (const Ring* ring : rings_) CollectRingLocked(*ring, &out);
  // Monotonic timeline per thread; at equal start, enclosing (longer) spans
  // first so viewers nest children correctly.
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    return a.dur_ns > b.dur_ns;
  });
  return out;
}

uint64_t Registry::dropped_events() {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t dropped = retired_dropped_;
  for (const Ring* ring : rings_) {
    uint64_t pushed = ring->pushed_.load(std::memory_order_relaxed);
    if (pushed > kRingCapacity) dropped += pushed - kRingCapacity;
  }
  return dropped;
}

void Registry::RegisterRing(Ring* ring) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring->tid_ = next_tid_++;
  rings_.push_back(ring);
}

void Registry::UnregisterRing(Ring* ring) {
  std::lock_guard<std::mutex> lock(mutex_);
  CollectRingLocked(*ring, &retired_);
  uint64_t pushed = ring->pushed_.load(std::memory_order_relaxed);
  if (pushed > kRingCapacity) retired_dropped_ += pushed - kRingCapacity;
  std::erase(rings_, ring);
}

namespace {

/// Owns the thread's ring; folds it into the registry's retired events when
/// the thread exits so no recorded span is ever lost.
struct RingHolder {
  Ring ring;
  RingHolder() { Registry::Global().RegisterRing(&ring); }
  ~RingHolder() { Registry::Global().UnregisterRing(&ring); }
};

}  // namespace

Ring& ThisThreadRing() {
  thread_local RingHolder holder;
  return holder.ring;
}

// ---- Span / EmitInstant ------------------------------------------------------

Span::Span(const char* name, Arg a, Arg b)
    : name_(Registry::Global().enabled() ? name : nullptr), args_{a, b} {
  if (name_ == nullptr) return;
  num_args_ = b.key != nullptr ? 2 : (a.key != nullptr ? 1 : 0);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (name_ == nullptr || !Registry::Global().enabled()) return;
  Event event;
  event.name = name_;
  event.phase = 'X';
  event.ts_ns = start_ns_;
  event.dur_ns = NowNs() - start_ns_;
  event.num_args = num_args_;
  event.args = args_;
  ThisThreadRing().Push(event);
}

void Span::SetArgs(Arg a, Arg b) {
  if (name_ == nullptr) return;
  args_ = {a, b};
  num_args_ = b.key != nullptr ? 2 : (a.key != nullptr ? 1 : 0);
}

void EmitInstant(const char* name, Arg a, Arg b) {
  if (!Registry::Global().enabled()) return;
  Event event;
  event.name = name;
  event.phase = 'i';
  event.ts_ns = NowNs();
  event.num_args = b.key != nullptr ? 2 : (a.key != nullptr ? 1 : 0);
  event.args = {a, b};
  ThisThreadRing().Push(event);
}

// ---- Chrome trace-event export -----------------------------------------------

std::string ToChromeTraceJson(const std::vector<Event>& events) {
  std::string out = "[";
  bool first = true;
  auto begin_record = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };

  // Name the timeline rows once per thread id (Perfetto shows these).
  uint32_t last_tid = 0;
  for (const Event& event : events) {
    if (event.tid == last_tid) continue;
    last_tid = event.tid;
    begin_record();
    out += R"({"name": "thread_name", "ph": "M", "pid": 1, "tid": )";
    out += std::to_string(event.tid);
    out += R"(, "args": {"name": "detective-)" + std::to_string(event.tid) +
           "\"}}";
  }

  char number[32];
  for (const Event& event : events) {
    begin_record();
    out += "{\"name\": ";
    AppendJsonString(event.name, &out);
    out += ", \"cat\": \"detective\", \"ph\": \"";
    out.push_back(event.phase);
    out += "\", \"pid\": 1, \"tid\": ";
    out += std::to_string(event.tid);
    // Chrome trace timestamps are microseconds; three decimals keep ns.
    std::snprintf(number, sizeof(number), "%.3f",
                  static_cast<double>(event.ts_ns) / 1000.0);
    out += ", \"ts\": ";
    out += number;
    if (event.phase == 'X') {
      std::snprintf(number, sizeof(number), "%.3f",
                    static_cast<double>(event.dur_ns) / 1000.0);
      out += ", \"dur\": ";
      out += number;
    } else if (event.phase == 'i') {
      out += ", \"s\": \"t\"";  // thread-scoped instant
    }
    if (event.num_args > 0) {
      out += ", \"args\": {";
      for (size_t i = 0; i < event.num_args; ++i) {
        if (i > 0) out += ", ";
        AppendJsonString(event.args[i].key, &out);
        out += ": ";
        out += std::to_string(event.args[i].value);
      }
      out += "}";
    }
    out += "}";
  }
  out += first ? "]\n" : "\n]\n";
  return out;
}

Status WriteChromeTraceJson(const std::vector<Event>& events,
                            const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << ToChromeTraceJson(events);
  if (!out) {
    return Status::IOError("error writing trace JSON to ", path);
  }
  return Status::OK();
}

}  // namespace detective::trace
