// Thin OpenMP convenience layer: thread-count resolution, a scoped
// override used by kernels that take an explicit `threads` option, and the
// owner loop every per-owner parallel region runs.
#pragma once

#include <omp.h>

namespace spgemm::parallel {

/// Resolve a user-facing thread-count option: 0 means "OpenMP default".
inline int resolve_threads(int requested) {
  return requested > 0 ? requested : omp_get_max_threads();
}

/// RAII override of omp_set_num_threads, restoring the prior value.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int threads)
      : previous_(omp_get_max_threads()), active_(threads > 0) {
    if (active_) omp_set_num_threads(threads);
  }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;
  ~ScopedNumThreads() {
    if (active_) omp_set_num_threads(previous_);
  }

 private:
  int previous_;
  bool active_;
};

/// Run fn(owner) for owners [0, owners) across the calling parallel team:
/// thread t takes owners t, t + team, ...  Call it inside a parallel
/// region.  A team shorter than requested (OMP_THREAD_LIMIT, a region
/// nested in a caller's parallel region with nesting off) still runs every
/// owner, where a `tid < owners` guard would silently drop the rest.
template <typename Fn>
void for_each_owner(int owners, Fn&& fn) {
  const int team = omp_get_num_threads();
  for (int owner = omp_get_thread_num(); owner < owners; owner += team) {
    fn(owner);
  }
}

}  // namespace spgemm::parallel
