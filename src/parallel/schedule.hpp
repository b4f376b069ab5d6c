// Row-loop scheduling policies.
//
// The paper's Fig. 9 ablates plain OpenMP static/dynamic/guided scheduling
// against the flop-balanced partition of Fig. 6 ("balanced"), with the
// balanced variant further split by whether per-thread temporaries use the
// "single" or "parallel" allocation scheme.  Kernels take a SchedulePolicy
// so that ablation runs through the exact same code.
#pragma once

#include <omp.h>

#include "parallel/rows_to_threads.hpp"

namespace spgemm::parallel {

enum class SchedulePolicy {
  kStatic,            ///< #pragma omp for schedule(static)
  kDynamic,           ///< #pragma omp for schedule(dynamic)
  kGuided,            ///< #pragma omp for schedule(guided)
  kBalanced,          ///< RowsToThreads partition, "single" temp allocation
  kBalancedParallel,  ///< RowsToThreads partition, "parallel" temp allocation
};

inline const char* schedule_policy_name(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::kStatic:
      return "static";
    case SchedulePolicy::kDynamic:
      return "dynamic";
    case SchedulePolicy::kGuided:
      return "guided";
    case SchedulePolicy::kBalanced:
      return "balanced single";
    case SchedulePolicy::kBalancedParallel:
      return "balanced parallel";
  }
  return "?";
}

inline bool is_balanced(SchedulePolicy p) {
  return p == SchedulePolicy::kBalanced ||
         p == SchedulePolicy::kBalancedParallel;
}

/// RAII override of the run-sched ICV that `schedule(runtime)` loops read:
/// a plain policy's OpenMP schedule with its default chunk, restoring the
/// caller's schedule on exit.  One runtime loop then serves all three plain
/// policies.
class ScopedRunSchedule {
 public:
  explicit ScopedRunSchedule(SchedulePolicy policy) {
    omp_get_schedule(&kind_, &chunk_);
    omp_set_schedule(policy == SchedulePolicy::kDynamic  ? omp_sched_dynamic
                     : policy == SchedulePolicy::kGuided ? omp_sched_guided
                                                         : omp_sched_static,
                     0);
  }
  ScopedRunSchedule(const ScopedRunSchedule&) = delete;
  ScopedRunSchedule& operator=(const ScopedRunSchedule&) = delete;
  ~ScopedRunSchedule() { omp_set_schedule(kind_, chunk_); }

 private:
  omp_sched_t kind_ = omp_sched_static;
  int chunk_ = 0;
};

}  // namespace spgemm::parallel
