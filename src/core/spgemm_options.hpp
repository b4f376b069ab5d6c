// User-facing knobs of the multiply() dispatcher, mirroring the paper's
// algorithm menu (Table 1) plus the scheduling/allocation ablations and the
// tiled structure-reuse pipeline of the two-phase driver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "accumulator/hash_vec.hpp"
#include "common/types.hpp"
#include "parallel/schedule.hpp"

namespace spgemm {

/// Kernel selection.  Paper codes map as: MKL -> kSpa, MKL-inspector ->
/// kSpa1p, KokkosKernels(kkmem) -> kKkHash (see DESIGN.md substitutions);
/// kHeap/kHash/kHashVector are the paper's own algorithms.
enum class Algorithm : std::uint8_t {
  kAuto,        ///< let the recipe (Table 4) decide
  kHeap,        ///< 1-phase, heap accumulator, always sorted output
  kHash,        ///< 2-phase, hash table, sortedness selectable
  kHashVector,  ///< 2-phase, SIMD-probed hash table, sortedness selectable
  kSpa,         ///< 2-phase, dense SPA (MKL stand-in), sortedness selectable
  kSpa1p,       ///< 1-phase, dense SPA, unsorted (MKL-inspector stand-in)
  kKkHash,      ///< 2-phase, two-level hash map (KokkosKernels stand-in)
  kMerge,       ///< 1-phase, iterative sorted-row merging (ViennaCL-like)
  kIkj,         ///< Sulatycke-Ghose IKJ baseline, O(n^2 + flop)
  kAdaptive,    ///< 2-phase poly-algorithm: per-row tiny/hash/SPA regimes
  kReference,   ///< serial std::map oracle (tests only)
};

const char* algorithm_name(Algorithm algo);

/// True when the kernel can emit unsorted output natively (Table 1).
constexpr bool supports_unsorted(Algorithm algo) {
  switch (algo) {
    case Algorithm::kHash:
    case Algorithm::kHashVector:
    case Algorithm::kSpa:
    case Algorithm::kSpa1p:
    case Algorithm::kKkHash:
    case Algorithm::kAdaptive:
      return true;
    default:
      return false;
  }
}

/// True when the kernel requires its inputs sorted: Heap and Merge consume
/// sorted B rows (Table 1), and IKJ is held to the same precondition; the
/// hash/SPA families accept any.
constexpr bool requires_sorted_input(Algorithm algo) {
  return algo == Algorithm::kHeap || algo == Algorithm::kMerge ||
         algo == Algorithm::kIkj;
}

/// Whether the two-phase driver captures the symbolic structure (per-row
/// accumulator slots) and replays it in the numeric phase instead of
/// re-probing.  Rows whose capture would overflow the budget re-probe
/// either way.
enum class StructureReuse : std::uint8_t {
  kOn,
  kOff,
};

/// Whether the two-phase driver resolves symbolic/capture keys through the
/// accumulators' batched multi-key probing pipeline (insert_tagged_batch:
/// vectorized hashing, chunk prefetch one block ahead, in-flight duplicate
/// shortcuts) instead of one insert per probe round.  Batched and per-key
/// paths are bit-identical by contract; the knob exists for ablation
/// (bench_abl_probing) and as a safety valve.  kAuto = on for kernels whose
/// accumulator opts in (Hash, HashVector).
enum class ProbeBatch : std::uint8_t {
  kAuto,
  kOn,
  kOff,
};

// ---- Fused epilogues --------------------------------------------------------

/// What runs over each output row while it is still cache-hot, before (or
/// instead of) materializing it into the output CSR.  GraphBLAS-style
/// fusion: the full intermediate's nnz never hits DRAM.
enum class EpilogueKind : std::uint8_t {
  kNone,        ///< plain SpGEMM, rows emitted verbatim
  kPruneScale,  ///< elementwise pow(v, inflation), drop below prune_below
                ///< (MCL's inflate+prune fused into the expansion product)
};

/// Value-typed description of a fused epilogue, so it can ride in
/// SpGemmOptions and engine Requests.  The defaulted operator== keeps
/// ensure_planned()'s options-equality check honest: changing any epilogue
/// field forces a replan.
struct EpilogueSpec {
  EpilogueKind kind = EpilogueKind::kNone;
  /// kPruneScale: elementwise exponent (MCL inflation).
  double inflation = 1.0;
  /// kPruneScale: entries with pow(v, inflation) < prune_below are dropped;
  /// a kept entry stores that double narrowed to the value type (threshold,
  /// then narrow).  Entries that cannot survive skip the pow() (see
  /// detail::PruneRule), with the same result as if every entry took it.
  double prune_below = 0.0;

  bool operator==(const EpilogueSpec&) const = default;

  [[nodiscard]] bool enabled() const { return kind != EpilogueKind::kNone; }

  /// FNV-1a over the spec's identity; 0 for kNone so unfused plan keys are
  /// unchanged.  Folded into PlanCache keys and plan fingerprints so a
  /// fused plan is never served to an unfused caller (and vice versa).
  [[nodiscard]] std::uint64_t fingerprint() const {
    if (!enabled()) return 0;
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(kind));
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(inflation));
    std::memcpy(&bits, &inflation, sizeof(bits));
    mix(bits);
    std::memcpy(&bits, &prune_below, sizeof(bits));
    mix(bits);
    return h == 0 ? 1 : h;
  }
};

struct SpGemmOptions {
  Algorithm algorithm = Algorithm::kAuto;
  SortOutput sort_output = SortOutput::kYes;
  /// 0 = use the OpenMP default thread count.
  int threads = 0;
  parallel::SchedulePolicy schedule =
      parallel::SchedulePolicy::kBalancedParallel;
  /// SIMD probing override for HashVector and the vectorized numeric
  /// replay (tests/ablation).  The SPGEMM_FORCE_PROBE environment variable
  /// overrides this in turn, and the result is clamped to what the build
  /// and the host support (common/cpu_features.hpp).
  ProbeKind probe = ProbeKind::kAuto;
  /// Batched multi-key probing for the symbolic/capture path (see
  /// ProbeBatch).
  ProbeBatch probe_batching = ProbeBatch::kAuto;

  // ---- ExecutionSchedule (parallel/execution_schedule.hpp) ---------------
  /// Symbolic-structure capture toggle (see StructureReuse).
  StructureReuse reuse = StructureReuse::kOn;
  /// Per-thread byte budget for the captured slot streams; it also sizes
  /// the tiles (model::choose_tile_rows).  Rows whose capture would
  /// overflow the budget fall back to classic re-probing.  0 = "use the
  /// path's default budget" (model::kDefaultReuseBudgetBytes for one-shot
  /// multiplies, model::kDefaultPlanBudgetBytes for persistent SpGemmHandle
  /// plans) — it does NOT disable capture; to turn capture off, set
  /// reuse = StructureReuse::kOff.
  std::size_t reuse_budget_bytes = 0;
  /// Fused per-row epilogue applied while each output row is cache-hot (see
  /// EpilogueSpec).  multiply_with_epilogue, SpGemmHandle and the engine
  /// run it; multiply, multiply_over and multiply_rap reject it with
  /// std::invalid_argument.  Part of plan identity: the defaulted == below
  /// means ensure_planned() replans when the epilogue changes, and the
  /// engine folds EpilogueSpec::fingerprint() into its PlanCache key.
  EpilogueSpec epilogue;

  bool operator==(const SpGemmOptions&) const = default;
};

/// Optional per-multiply measurements filled by multiply() and the
/// inspector-executor handle (core/spgemm_handle.hpp).
struct SpGemmStats {
  double setup_ms = 0.0;     ///< flop count + partition
  double symbolic_ms = 0.0;  ///< 0 for one-phase kernels
  double numeric_ms = 0.0;
  /// Inspector-executor amortization probes: wall time of the last plan()
  /// (symbolic + partition + capture + skeleton) and of the last execute()
  /// (numeric-only), plus how many executes the plan has served.  Zero for
  /// one-shot multiplies, whose pass interleaves the phases per tile and
  /// has no plan/execute split to report.
  double plan_ms = 0.0;
  double execute_ms = 0.0;
  std::uint64_t executions = 0;
  Offset flop = 0;           ///< scalar multiplications
  Offset nnz_out = 0;
  /// Total accumulator probe ROUNDS, both phases: table lines/slots
  /// visited.  Batched probing resolves in-flight duplicate keys without a
  /// round, so rounds alone under-report batched work — keys_resolved()
  /// normalizes (one key per resolution request on every path).
  std::uint64_t probes = 0;
  /// Per-phase probe-round split: the collision factor c of the cost model
  /// (§4.2.4, Eq. 2) is probe rounds per insertion *per phase*; summing
  /// only one phase understates it by roughly half.
  std::uint64_t symbolic_probes = 0;
  std::uint64_t numeric_probes = 0;
  /// Per-phase keys resolved (insert/accumulate requests) — identical for
  /// per-key and batched probing, which makes the two paths' probe-round
  /// counts comparable as rounds-per-key.
  std::uint64_t symbolic_keys = 0;
  std::uint64_t numeric_keys = 0;
  /// Tiled-driver observability: tiles processed, and how many rows had
  /// their symbolic structure captured and replayed (vs re-probed).
  std::uint64_t tile_count = 0;
  std::uint64_t reuse_rows_captured = 0;
  std::uint64_t reuse_rows_total = 0;
  /// Fused-epilogue observability: rows the epilogue hook processed and the
  /// wall time spent inside it (max across threads, like the phase spans).
  std::uint64_t epilogue_rows = 0;
  double epilogue_ms = 0.0;

  [[nodiscard]] std::uint64_t keys_resolved() const {
    return symbolic_keys + numeric_keys;
  }

  /// Average keys a probe round resolves (> 1 only under batched probing,
  /// where duplicate-in-flight shortcuts retire keys without a round).
  [[nodiscard]] double keys_per_round() const {
    return probes > 0 ? static_cast<double>(keys_resolved()) /
                            static_cast<double>(probes)
                      : 0.0;
  }

  [[nodiscard]] double reuse_hit_rate() const {
    return reuse_rows_total > 0
               ? static_cast<double>(reuse_rows_captured) /
                     static_cast<double>(reuse_rows_total)
               : 0.0;
  }

  [[nodiscard]] double total_ms() const {
    return setup_ms + symbolic_ms + numeric_ms;
  }
  /// The paper's MFLOPS convention: 2*flop (multiply+add) per second.
  [[nodiscard]] double mflops() const {
    const double ms = total_ms();
    return ms > 0.0 ? 2.0 * static_cast<double>(flop) / (ms * 1e3) : 0.0;
  }
};

}  // namespace spgemm
