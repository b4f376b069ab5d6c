// Per-request trace spans: bounded-overwrite rings of span/instant events
// (an engine keeps one for its dispatcher, one for its synchronous callers),
// dumpable as Chrome trace_event JSON (chrome://tracing or
// Perfetto loadable).
//
// Events carry static-lifetime name/category strings (no allocation on the
// record path) and nanosecond timestamps from spgemm::monotonic_ns().  The
// ring overwrites oldest entries when full and counts drops, so a long-lived
// engine keeps the most recent window of activity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <vector>

#include "registry.hpp"

namespace spgemm::telemetry {

/// One trace event.  `ph` follows the Chrome trace_event phase codes we use:
/// 'X' = complete span (ts + dur), 'i' = instant.
struct TraceEvent {
  const char* name = "";       ///< static-lifetime literal
  const char* cat = "engine";  ///< category, static-lifetime literal
  char ph = 'X';
  std::uint64_t ts_ns = 0;   ///< start, monotonic_ns epoch
  std::uint64_t dur_ns = 0;  ///< 'X' only
  std::uint32_t pid = 0;     ///< trace "process": engine ring (0 = dispatcher)
  std::uint32_t tid = 0;     ///< trace "thread": 0 = lane, 1+w = overlay w
  std::uint64_t trace_id = 0;  ///< request trace id (0 = none)
  const char* arg_name = nullptr;  ///< optional numeric arg, static literal
  std::uint64_t arg = 0;
};

/// Bounded-overwrite event ring.  record() is mutex-guarded (one short
/// critical section per event, only on the enabled path); snapshot() returns
/// events oldest-first.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity)
      : buf_(std::max<std::size_t>(capacity, 1)) {}
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void record(const TraceEvent& e) noexcept {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lk(mu_);
    buf_[static_cast<std::size_t>(head_ % buf_.size())] = e;
    ++head_;
  }

  /// Events currently retained, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<TraceEvent> out;
    const std::uint64_t n = std::min<std::uint64_t>(head_, buf_.size());
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = head_ - n; i < head_; ++i)
      out.push_back(buf_[static_cast<std::size_t>(i % buf_.size())]);
    return out;
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// Total events ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const {
    std::lock_guard<std::mutex> lk(mu_);
    return head_;
  }

  /// Events lost to overwrite.
  [[nodiscard]] std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lk(mu_);
    return head_ > buf_.size() ? head_ - buf_.size() : 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> buf_;
  std::uint64_t head_ = 0;
};

/// Write the union of several rings as Chrome trace_event JSON.  Events are
/// globally sorted by timestamp; timestamps are rebased to the earliest event
/// and emitted in microseconds as the format requires.  Metadata events name
/// each (pid, tid) pair so lane and overlay tracks are labelled in the UI.
void write_chrome_trace(std::ostream& os,
                        const std::vector<const TraceRing*>& rings);

}  // namespace spgemm::telemetry
