// Phase-profiling scope macro.  TELEM_SPAN("handle.plan") times the enclosing
// scope into the shared spgemm_phase_seconds histogram family, labelled
// {phase="handle.plan"}.
//
// Cost model:
//   - compiled out entirely with -DSPGEMM_TELEMETRY_DISABLED (CMake option
//     SPGEMM_TELEMETRY=OFF);
//   - when compiled in but runtime-disabled: one relaxed load + branch at
//     scope entry (no clock read) and a predictable-not-taken branch at exit;
//   - when enabled: two steady_clock reads + one histogram observe.
//
// The histogram lookup happens once per call site via a function-local
// static, so steady-state cost is independent of registry size.
#pragma once

#include "../common/timer.hpp"
#include "registry.hpp"

namespace spgemm::telemetry {

/// RAII span feeding a histogram with the scope's duration in seconds.
class ScopedSpan {
 public:
  explicit ScopedSpan(Histogram& h) noexcept
      : hist_(&h), start_ns_(enabled() ? monotonic_ns() : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (start_ns_ != 0)
      hist_->observe(static_cast<double>(monotonic_ns() - start_ns_) * 1e-9);
  }

 private:
  Histogram* hist_;
  std::uint64_t start_ns_;
};

/// Record an externally measured phase duration (seconds) into the same
/// histogram family TELEM_SPAN uses.  For code that already times its phases
/// (e.g. the one-shot pass's per-tile symbolic/numeric accounting) and
/// wants them attributed without double-timing.
void phase_observe(const char* phase, double seconds);

}  // namespace spgemm::telemetry

#ifndef SPGEMM_TELEMETRY_DISABLED
#define SPGEMM_TELEM_CAT2(a, b) a##b
#define SPGEMM_TELEM_CAT(a, b) SPGEMM_TELEM_CAT2(a, b)
/// Time the enclosing scope into spgemm_phase_seconds{phase=name}.
/// `name` must be a string literal (it keys a function-local static).
#define TELEM_SPAN(name)                                                      \
  static ::spgemm::telemetry::Histogram& SPGEMM_TELEM_CAT(                    \
      telem_span_hist_, __LINE__) =                                           \
      ::spgemm::telemetry::registry().phase_histogram(name);                  \
  ::spgemm::telemetry::ScopedSpan SPGEMM_TELEM_CAT(telem_span_, __LINE__) {   \
    SPGEMM_TELEM_CAT(telem_span_hist_, __LINE__)                              \
  }
#else
#define TELEM_SPAN(name) \
  do {                   \
  } while (0)
#endif
