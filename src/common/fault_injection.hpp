// Deterministic fault injection for chaos testing.
//
// Production SpGEMM libraries survive because their failure paths are
// exercised, not because failures never happen.  This framework compiles
// named fault points into the library's allocation sites, phase boundaries
// and cache mutation paths, so a test (or a CI sweep) can make the Nth pass
// through any point throw — deterministically — and then prove the
// invariants that matter: no leak, no deadlock, cache pins back to zero,
// results on the retry path bit-identical to the unfaulted run.
//
// Fault points come in two flavours:
//   SPGEMM_FAULT_ALLOC(name)   throws std::bad_alloc when triggered — used
//                              at allocation sites, so the engine's
//                              degradation ladder is what gets tested;
//   SPGEMM_FAULT_RAISE(name)   throws fault::InjectedFault (a runtime_error)
//                              — used at phase boundaries and cache paths,
//                              where the correct reaction is quarantine +
//                              typed failure, not retry.
//
// Disarmed cost: one relaxed atomic load of a global counter per pass —
// branch-predicted never-taken, no registration, no locks; the macros stay
// compiled in under NDEBUG so release builds can run chaos suites too.
//
// Arming:
//   * scoped C++ API:   fault::ScopedFault f("mem.pool.carve", 3);
//     (the 3rd pass through the point throws; optional count = how many
//     consecutive passes after that also throw, default 1)
//   * environment:      SPGEMM_FAULT=point:nth[:count] before first use,
//     activated by fault::arm_from_env() — the CI fault-injection smoke
//     sweep drives the whole registry this way, one process per point.
//
// Every name passed to a macro must be listed in fault::points(): the
// registry is the contract that lets a sweep enumerate all points without
// first executing them.  Debug builds abort on an unregistered name.
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>

namespace spgemm::fault {

/// The exception SPGEMM_FAULT_RAISE points throw.  Derives runtime_error so
/// generic handlers keep working; tests catch it specifically to tell an
/// injected fault from a genuine one.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& point)
      : std::runtime_error("injected fault at " + point) {}
};

/// Every fault point compiled into the library, in one place.  A chaos
/// suite or CI sweep iterates this; adding a fault point means adding its
/// name here (debug builds abort on an unregistered name).
inline constexpr const char* kPoints[] = {
    "mem.pool.carve",          // Arena::carve (mem/pool_allocator.cpp)
    "mem.pool.oversize",       // oversize operator new (mem/pool_allocator.cpp)
    "handle.plan.alloc",       // plan()'s aggregate allocations (spgemm_handle)
    "handle.plan.symbolic",    // before the kernel build pass (spgemm_handle)
    "handle.execute.numeric",  // before the numeric pass (spgemm_handle)
    "cache.insert",            // PlanCache entry creation (plan_cache.hpp)
    "cache.evict",             // PlanCache eviction path (plan_cache.hpp)
    "shard.spill.write",       // ShardStore spill write-out (shard/shard_store.hpp)
    "shard.load.map",          // ShardStore load/map read-back (shard/shard_store.hpp)
};
inline constexpr std::size_t kNumPoints = sizeof(kPoints) / sizeof(kPoints[0]);

namespace detail {
/// Number of armed faults; the fast-path gate every fault point loads.
extern std::atomic<int> g_armed;

/// Slow path: called only while something is armed.  Counts the pass and
/// returns true when this pass must throw.
bool should_trigger(const char* point) noexcept;
}  // namespace detail

/// Arm one fault: the `nth` pass (1-based) through `point` throws, as do the
/// `count - 1` passes after it.  Replaces any previous arming of the same
/// point.  Returns false (and arms nothing) when `point` is not registered
/// or nth/count are not positive.
bool arm(const std::string& point, std::uint64_t nth, std::uint64_t count = 1);

/// Parse and arm a `point:nth[:count]` spec.  Returns false on malformed
/// specs or unknown points.
bool arm_spec(const std::string& spec);

/// Arm from the SPGEMM_FAULT environment variable (same spec syntax); no-op
/// when unset.  Returns true when a fault was armed.
bool arm_from_env();

/// Disarm one point (keeps its pass counter) / disarm everything and reset
/// all counters.
void disarm(const std::string& point);
void disarm_all();

/// Passes observed / faults thrown at one point since the last disarm_all().
std::uint64_t passes(const std::string& point);
std::uint64_t triggered(const std::string& point);

/// RAII arming for tests: arms on construction, disarms (that point only)
/// on destruction.
class ScopedFault {
 public:
  explicit ScopedFault(std::string point, std::uint64_t nth = 1,
                       std::uint64_t count = 1)
      : point_(std::move(point)) {
    arm(point_, nth, count);
  }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
  ~ScopedFault() { disarm(point_); }

 private:
  std::string point_;
};

/// True when this pass through `point` must throw.  The macro form below is
/// what call sites use; this function is the testable core.
inline bool poll(const char* point) noexcept {
  if (detail::g_armed.load(std::memory_order_relaxed) == 0) return false;
  return detail::should_trigger(point);
}

}  // namespace spgemm::fault

/// Allocation-site fault point: triggered passes observe std::bad_alloc,
/// exactly what a real allocation failure at this site would raise.
#define SPGEMM_FAULT_ALLOC(point)            \
  do {                                       \
    if (::spgemm::fault::poll(point)) {      \
      throw std::bad_alloc();                \
    }                                        \
  } while (0)

/// Phase-boundary / cache-path fault point: triggered passes observe an
/// InjectedFault (runtime_error).
#define SPGEMM_FAULT_RAISE(point)                   \
  do {                                              \
    if (::spgemm::fault::poll(point)) {             \
      throw ::spgemm::fault::InjectedFault(point);  \
    }                                               \
  } while (0)
