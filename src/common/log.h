#ifndef DETECTIVE_COMMON_LOG_H_
#define DETECTIVE_COMMON_LOG_H_

// Structured, leveled logging — the machine-readable sibling of the
// stream-style macros in common/logging.h (which route through this sink so
// both APIs land in one stream).
//
// Every emission is one *event*: (level, component, event, message, fields).
// `component` names the subsystem ("clean", "obs", "repair"), `event` is a
// stable snake_case identifier greppable across versions, `message` is the
// human sentence, and `fields` carry the structured payload using the same
// key conventions as the quarantine/provenance JSONL schemas ("row", "rule",
// "column", "reason", "path", "error").
//
// Two sink modes:
//   * text (default): one line to stderr —
//       [ERROR clean] output_write_failed: error writing output: ... path="x"
//   * JSONL (`detective_clean --log-json=FILE`, logs::OpenJsonFile) —
//       {"ts_ms":1759...,"level":"error","component":"clean",
//        "event":"output_write_failed","msg":"error writing output: ...",
//        "path":"x"}
//     Reserved keys (ts_ms/level/component/event/msg) win on collision:
//     a field with a reserved name is emitted with an "f_" prefix.
//
// Error-level events are mirrored to stderr even in JSONL mode: a dying
// process must leave its last words where an operator will look first.
//
// Hot paths use the rate-limited macros below — DETECTIVE_LOG_ONCE fires on
// the first hit of the site only, DETECTIVE_LOG_EVERY_N on every Nth — so a
// per-tuple warning cannot melt a million-row run into gigabytes of stderr.
//
// Thread-safe: one mutex serializes formatting + writing. Do not log from
// the repair inner loops except through the rate-limited macros.

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace detective::logs {

enum class Level : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Stable wire name ("debug" | "info" | "warn" | "error").
std::string_view LevelName(Level level);

/// One typed key/value pair. Keys and string values are borrowed for the
/// duration of the Emit() call only (temporaries in the braced list are
/// safe: they outlive the full expression).
struct Field {
  enum class Kind : uint8_t { kString, kInt, kUint, kDouble, kBool };

  std::string_view key;
  Kind kind = Kind::kString;
  std::string_view str{};
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0;
  bool b = false;

  Field(std::string_view k, std::string_view v)
      : key(k), kind(Kind::kString), str(v) {}
  Field(std::string_view k, const char* v)
      : key(k), kind(Kind::kString), str(v) {}
  Field(std::string_view k, bool v) : key(k), kind(Kind::kBool), b(v) {}
  Field(std::string_view k, double v) : key(k), kind(Kind::kDouble), d(v) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && std::is_signed_v<T>,
                             int> = 0>
  Field(std::string_view k, T v)
      : key(k), kind(Kind::kInt), i(static_cast<int64_t>(v)) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && std::is_unsigned_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  Field(std::string_view k, T v)
      : key(k), kind(Kind::kUint), u(static_cast<uint64_t>(v)) {}
};

/// Minimum level that is emitted; defaults to kInfo. Thread-safe.
void SetLevel(Level level);
Level GetLevel();

/// Switches the sink to JSONL appended to `path` (truncates an existing
/// file). Failure leaves the text sink active.
Status OpenJsonFile(const std::string& path);

/// Flushes and closes the JSONL sink; subsequent events go to stderr text.
void CloseJsonFile();

/// True while a JSONL file sink is active.
bool JsonFileOpen() noexcept;

/// Core emission; prefer the level helpers below.
void Emit(Level level, std::string_view component, std::string_view event,
          std::string_view message, std::initializer_list<Field> fields = {});

inline void Debug(std::string_view component, std::string_view event,
                  std::string_view message,
                  std::initializer_list<Field> fields = {}) {
  Emit(Level::kDebug, component, event, message, fields);
}
inline void Info(std::string_view component, std::string_view event,
                 std::string_view message,
                 std::initializer_list<Field> fields = {}) {
  Emit(Level::kInfo, component, event, message, fields);
}
inline void Warn(std::string_view component, std::string_view event,
                 std::string_view message,
                 std::initializer_list<Field> fields = {}) {
  Emit(Level::kWarn, component, event, message, fields);
}
inline void Error(std::string_view component, std::string_view event,
                  std::string_view message,
                  std::initializer_list<Field> fields = {}) {
  Emit(Level::kError, component, event, message, fields);
}

/// Pre-formatted line from the legacy stream macros (common/logging.h):
/// routed through the active sink as event "legacy", bypassing the logs
/// threshold (the legacy macros filter with their own SetLogLevel policy).
/// `always_stderr` forces a stderr copy regardless of sink mode (fatal/
/// CHECK diagnostics must reach stderr before the abort).
void EmitLegacy(Level level, std::string_view text, bool always_stderr);

/// Events emitted since process start (any level at or above the
/// threshold); lets tests assert rate limiting without parsing output.
uint64_t EventsEmitted();

}  // namespace detective::logs

/// Logs at most once per call site for the process lifetime. Hot-path safe:
/// after the first hit this is one relaxed atomic load.
#define DETECTIVE_LOG_ONCE(level, component, event, message, ...)              \
  do {                                                                         \
    static ::std::atomic<bool> detective_log_once_fired{false};                \
    if (!detective_log_once_fired.load(::std::memory_order_relaxed) &&         \
        !detective_log_once_fired.exchange(true, ::std::memory_order_relaxed)) \
      ::detective::logs::Emit(level, component, event, message,                \
                              {__VA_ARGS__});                                  \
  } while (0)

/// Warn-once convenience for hot paths.
#define DETECTIVE_WARN_ONCE(component, event, message, ...)          \
  DETECTIVE_LOG_ONCE(::detective::logs::Level::kWarn, component, event, \
                     message __VA_OPT__(, ) __VA_ARGS__)

/// Logs the 1st, (n+1)th, (2n+1)th... hit of this call site.
#define DETECTIVE_LOG_EVERY_N(n, level, component, event, message, ...)       \
  do {                                                                        \
    static ::std::atomic<uint64_t> detective_log_every_count{0};              \
    if (detective_log_every_count.fetch_add(1, ::std::memory_order_relaxed) % \
            (n) ==                                                            \
        0)                                                                    \
      ::detective::logs::Emit(level, component, event, message,               \
                              {__VA_ARGS__});                                 \
  } while (0)

#endif  // DETECTIVE_COMMON_LOG_H_
