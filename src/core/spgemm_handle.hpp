// SpGemmHandle — the inspector-executor surface of the library.
//
// The paper's strongest repeated-multiply baseline is MKL's inspector-
// executor, and KokkosKernels structures its whole SpGEMM API as a
// symbolic/numeric handle (Deveci et al.).  This handle is that model for
// every two-phase kernel of this library:
//
//   SpGemmHandle<int, double> h;
//   h.plan(a, b, opts);          // symbolic + partition + tiles + capture
//   for (step : steps) {
//     update_values(a);          // structure fixed, values free to change
//     const auto& c = h.execute(a, b);   // numeric-only replay
//   }
//
// plan() runs the symbolic phase once and PERSISTS everything the numeric
// phase needs: the flop-balanced row partition and tile plan, the per-owner
// accumulators and captured slot streams, and the output skeleton (row
// pointers + column indices).  Both passes are the row pipeline of
// core/spgemm_twophase.hpp (KernelPlan::build / execute) — the same
// symbolic and numeric row loops the one-shot multiply runs.  execute()
// then runs the numeric phase only: captured rows replay their slot stream
// with zero hash probing, budget-overflow rows re-probe, and every value
// lands directly at its final offset — no staging copy, no allocation, no
// zero-initializing resize.  The pooled output and all workspaces are
// grow-only across plan() calls, so one handle can serve a stream of
// differently-sized products without churning the allocator.
//
// Kernels: Hash, HashVector, SPA, KKHash and Adaptive (per-row tiny/hash/
// SPA regimes) all plan and execute through this one surface; kAuto defers
// to the Table 4 recipe (recipe::resolve) and falls back to Hash when the
// recipe picks a kernel without a symbolic phase.  Any semiring may be passed to execute()
// — the captured structure is algebra-independent.
//
// Structure contract: execute() inputs must have exactly the structure
// (rpts, cols) the plan was built from; values are free to change.  The
// full O(nnz) FNV fingerprint is taken at plan time; each execute() first
// tries an O(1) identity check (array addresses + dimensions + nnz) and
// only re-fingerprints when the caller hands in different objects.  A
// caller that mutates column indices IN PLACE defeats the O(1) check —
// call verify_structure() to force the full comparison.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/recipe.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_options.hpp"
#include "core/spgemm_policies.hpp"
#include "core/spgemm_twophase.hpp"
#include "core/structure_hash.hpp"
#include "matrix/csr.hpp"
#include "model/cost_model.hpp"
#include "parallel/execution_schedule.hpp"
#include "parallel/omp_utils.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace spgemm {

namespace detail {
/// Telemetry mirrors of the SpGemmStats counters, accumulated process-wide
/// across every handle.  The per-plan/-execute struct stays authoritative;
/// these give the scrapeable running totals.
struct HandleTelemetry {
  telemetry::Counter& plans;
  telemetry::Counter& executes;
  telemetry::Counter& symbolic_probes;
  telemetry::Counter& symbolic_keys;
  telemetry::Counter& numeric_probes;
  telemetry::Counter& numeric_keys;
  telemetry::Counter& flop;
  static HandleTelemetry& get() {
    auto& reg = telemetry::registry();
    static HandleTelemetry t{
        reg.counter("spgemm_handle_plans_total",
                    "SpGemmHandle::plan calls (symbolic phase builds)."),
        reg.counter("spgemm_handle_executes_total",
                    "SpGemmHandle numeric executes."),
        reg.counter("spgemm_probe_rounds_total",
                    "Accumulator probe rounds by phase.", "phase", "symbolic"),
        reg.counter("spgemm_keys_resolved_total",
                    "Accumulator keys resolved by phase.", "phase",
                    "symbolic"),
        reg.counter("spgemm_probe_rounds_total",
                    "Accumulator probe rounds by phase.", "phase", "numeric"),
        reg.counter("spgemm_keys_resolved_total",
                    "Accumulator keys resolved by phase.", "phase", "numeric"),
        reg.counter("spgemm_flop_total",
                    "Scalar multiplications planned (per plan, not per "
                    "execute).")};
    return t;
  }
};
}  // namespace detail

/// True for kernels that run the two-phase (symbolic + numeric) pipeline
/// and can therefore be planned and re-executed through SpGemmHandle.
constexpr bool is_two_phase(Algorithm algo) {
  switch (algo) {
    case Algorithm::kHash:
    case Algorithm::kHashVector:
    case Algorithm::kSpa:
    case Algorithm::kKkHash:
    case Algorithm::kAdaptive:
      return true;
    default:
      return false;
  }
}

namespace detail {

/// O(1) identity of a CSR structure: array addresses and dimensions prove
/// "same object, not reallocated", and a handful of sampled structure words
/// harden the check against an allocator returning a freed block at the
/// same address for a different matrix of equal size (iterative workloads
/// free/realloc same-sized matrices constantly).
template <IndexType IT, ValueType VT>
struct StructureId {
  const void* rpts = nullptr;
  const void* cols = nullptr;
  Offset nnz = 0;
  IT nrows = 0;
  IT ncols = 0;
  Offset rpts_mid = 0;
  IT col_first = 0;
  IT col_mid = 0;
  IT col_last = 0;

  static StructureId of(const CsrMatrix<IT, VT>& m) {
    StructureId id{m.rpts.data(), m.cols.data(), m.nnz(), m.nrows, m.ncols};
    if (!m.rpts.empty()) id.rpts_mid = m.rpts[m.rpts.size() / 2];
    const auto n = static_cast<std::size_t>(id.nnz);
    if (n > 0) {
      id.col_first = m.cols[0];
      id.col_mid = m.cols[n / 2];
      id.col_last = m.cols[n - 1];
    }
    return id;
  }
  bool operator==(const StructureId&) const = default;
};

}  // namespace detail

template <IndexType IT, ValueType VT>
class SpGemmHandle {
 public:
  SpGemmHandle() = default;

  /// Convenience: construct and plan in one step.
  SpGemmHandle(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
               SpGemmOptions opts = {}, SpGemmStats* stats = nullptr) {
    plan(a, b, opts, stats);
  }

  SpGemmHandle(const SpGemmHandle&) = delete;
  SpGemmHandle& operator=(const SpGemmHandle&) = delete;
  SpGemmHandle(SpGemmHandle&&) = default;
  SpGemmHandle& operator=(SpGemmHandle&&) = default;

  /// Inspect: symbolic phase + flop-balanced partition + ExecutionSchedule
  /// + slot-stream capture + output skeleton, all persisted in the handle.
  /// May be called again with a different product; workspaces and the
  /// pooled output are recycled grow-only.  `known_fingerprint` lets a
  /// caller that already holds the pair fingerprint (ensure_planned_hashed)
  /// skip the O(nnz) hash of both inputs.
  void plan(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
            SpGemmOptions opts = {}, SpGemmStats* stats = nullptr,
            const std::uint64_t* known_fingerprint = nullptr) {
    if (a.ncols != b.nrows) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmHandle::plan: inner dimensions disagree");
    }
    TELEM_SPAN("handle.plan");
    Timer plan_timer;
    requested_opts_ = opts;  // pre-resolution, for ensure_planned()
    stats_ = SpGemmStats{};
    executions_ = 0;
    pooled_cols_ready_ = false;
    planned_ = false;
    // Stands in for the partition / schedule / workspace / pooled-output
    // allocations this call makes: every plan attempt passes it exactly
    // once, which is what makes the engine's ladder tests deterministic.
    SPGEMM_FAULT_ALLOC("handle.plan.alloc");

    opts.algorithm = recipe::resolve(opts.algorithm, a, b, opts.sort_output,
                                     recipe::Operation::kSquare, is_two_phase);
    if (!is_two_phase(opts.algorithm)) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmHandle::plan: kernel has no symbolic phase to "
                        "plan (two-phase kernels only)");
    }
    parallel::ScopedNumThreads scoped(opts.threads);

    Timer timer;
    parallel::RowPartition part = detail::partition_rows(
        a, b, opts.schedule, parallel::resolve_threads(opts.threads));
    // Debug builds recompute and validate a caller-supplied fingerprint: a
    // wrong hash in a release build silently executes a stale plan (the
    // ensure_planned_hashed contract), so the one build mode that can
    // afford the O(nnz) check refuses to let it slide.
    assert(known_fingerprint == nullptr ||
           *known_fingerprint == pair_fingerprint(a, b));
    fingerprint_ = known_fingerprint != nullptr ? *known_fingerprint
                                                : pair_fingerprint(a, b);
    id_a_ = detail::StructureId<IT, VT>::of(a);
    id_b_ = detail::StructureId<IT, VT>::of(b);
    stats_.setup_ms = timer.millis();

    // A persistent plan trades memory for repeated numeric time, so its
    // default capture budget is the large plan budget; an explicit
    // reuse_budget_bytes overrides it.
    core_.configure(std::move(part), b.ncols, opts,
                    model::kDefaultPlanBudgetBytes);

    timer.reset();
    {
      TELEM_SPAN("handle.symbolic");
      SPGEMM_FAULT_RAISE("handle.plan.symbolic");
      emplace_kernel(b.ncols);
      visit_kernel(kernel_, [&](auto& kernel) { kernel.build(core_, a, b); });
    }
    stats_.symbolic_ms = timer.millis();

    planned_ = true;
    stats_.flop = core_.part.total_flop();
    stats_.nnz_out = core_.rpts.back();
    stats_.symbolic_probes = core_.symbolic_probes;
    stats_.symbolic_keys = core_.symbolic_keys;
    stats_.probes = core_.symbolic_probes;
    stats_.tile_count = core_.tile_count;
    stats_.reuse_rows_captured = core_.rows_captured;
    stats_.reuse_rows_total = static_cast<std::uint64_t>(a.nrows);
    stats_.plan_ms = plan_timer.millis();
    if (telemetry::enabled()) {
      auto& t = detail::HandleTelemetry::get();
      t.plans.add(1);
      t.symbolic_probes.add(stats_.symbolic_probes);
      t.symbolic_keys.add(stats_.symbolic_keys);
      t.flop.add(static_cast<std::uint64_t>(stats_.flop));
    }
    if (stats != nullptr) *stats = stats_;
  }

  /// Plan-or-adopt for callers whose structures drift occasionally (MCL:
  /// pruning changes the pattern early, then it freezes): replan only when
  /// the inputs' structure — or the requested options — differ from the
  /// current plan.  On a match the O(1) identity fast path is transferred
  /// to the new objects, so the following execute() skips the fingerprint
  /// entirely.  Returns true when a new plan was built.
  bool ensure_planned(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                      SpGemmOptions opts = {}, SpGemmStats* stats = nullptr) {
    if (opts == requested_opts_ && structure_matches(a, b)) {
      id_a_ = detail::StructureId<IT, VT>::of(a);
      id_b_ = detail::StructureId<IT, VT>::of(b);
      if (stats != nullptr) *stats = stats_;
      return false;
    }
    plan(a, b, opts, stats);
    return true;
  }

  /// ensure_planned for producers that maintain their inputs' structure
  /// fingerprints incrementally (core/structure_hash.hpp): the match check
  /// compares the caller's fingerprints against the plan's in O(1), with no
  /// pass over rpts/cols at all — MCL's stabilized iterations hit this
  /// path once inflate_and_prune hashes while it scans.  `fp_a`/`fp_b` MUST
  /// equal structure_fingerprint(a)/structure_fingerprint(b); in a release
  /// build a wrong fingerprint silently executes a stale plan, exactly like
  /// mutating columns in place behind the O(1) identity check.  Debug
  /// (!NDEBUG) builds recompute the pair fingerprint inside plan() and
  /// assert the caller's value matches.
  bool ensure_planned_hashed(const CsrMatrix<IT, VT>& a,
                             const CsrMatrix<IT, VT>& b, std::uint64_t fp_a,
                             std::uint64_t fp_b, SpGemmOptions opts = {},
                             SpGemmStats* stats = nullptr) {
    const std::uint64_t pair = pair_structure_hash(fp_a, fp_b);
    if (opts == requested_opts_ && planned_ && a.nrows == core_.nrows &&
        b.ncols == core_.ncols && a.ncols == b.nrows &&
        pair == fingerprint_) {
      id_a_ = detail::StructureId<IT, VT>::of(a);
      id_b_ = detail::StructureId<IT, VT>::of(b);
      if (stats != nullptr) *stats = stats_;
      return false;
    }
    plan(a, b, opts, stats, &pair);
    return true;
  }

  /// Numeric-only execute into the handle-pooled output.  The returned
  /// reference stays valid (and its buffers stay in place) until the next
  /// plan()/execute() call on this handle.
  template <typename SR = PlusTimes>
    requires SemiringFor<SR, VT>
  const CsrMatrix<IT, VT>& execute(const CsrMatrix<IT, VT>& a,
                                   const CsrMatrix<IT, VT>& b, SR sr = {},
                                   SpGemmStats* stats = nullptr) {
    execute_impl(a, b, pooled_, !pooled_cols_ready_, sr, stats);
    pooled_cols_ready_ = true;
    return pooled_;
  }

  /// Numeric-only execute into a caller-provided matrix (grow-only resize;
  /// the skeleton is copied in, values are computed fresh).
  template <typename SR = PlusTimes>
    requires SemiringFor<SR, VT>
  void execute_into(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                    CsrMatrix<IT, VT>& c, SR sr = {},
                    SpGemmStats* stats = nullptr) {
    execute_impl(a, b, c, /*fill_skeleton=*/true, sr, stats);
  }

  // ---- Plan introspection -------------------------------------------------

  [[nodiscard]] bool planned() const { return planned_; }
  [[nodiscard]] Algorithm algorithm() const { return core_.opts.algorithm; }
  [[nodiscard]] Offset nnz_out() const {
    return planned_ ? core_.rpts.back() : 0;
  }
  [[nodiscard]] Offset flop() const {
    return planned_ ? core_.part.total_flop() : 0;
  }
  [[nodiscard]] std::uint64_t symbolic_probes() const {
    return core_.symbolic_probes;
  }
  [[nodiscard]] std::uint64_t executions() const { return executions_; }
  [[nodiscard]] const SpGemmStats& stats() const { return stats_; }

  /// Bytes this handle retains across execute() calls: the output skeleton,
  /// every thread's capture streams / staged columns / row records,
  /// and the pooled output.  Capacities, not sizes — grow-only recycling
  /// means capacity is what the handle actually keeps from the allocator.
  /// Accumulator tables are excluded: their storage is pool-backed scratch
  /// shared through the thread caches, not plan-owned.  This is the
  /// eviction weight of engine::PlanCache.
  [[nodiscard]] std::size_t retained_bytes() const {
    std::size_t bytes = core_.rpts.capacity() * sizeof(Offset);
    bytes += pooled_.rpts.capacity() * sizeof(Offset) +
             pooled_.cols.capacity() * sizeof(IT) +
             pooled_.vals.capacity() * sizeof(VT);
    visit_kernel(kernel_, [&](const auto& kernel) {
      for (const auto& tp : kernel.threads) {
        bytes += (tp.capture.capacity() + tp.staged_cols.capacity() +
                  tp.out_cols.capacity()) * sizeof(IT);
        bytes += tp.out_vals.capacity() * sizeof(VT);
        bytes += tp.rows.capacity() * sizeof(detail::PlannedRow<IT>);
      }
    });
    return bytes;
  }

  /// Measured hash collision factor of the inspected product (probe
  /// rounds per scalar multiplication) — the c of the cost model's Eq. 2.
  /// The model defines c against per-key probing, where every key costs at
  /// least one round; the batched pipeline's duplicate-in-flight shortcut
  /// retires keys WITHOUT a round, so the raw round count is floored at
  /// one per key to keep c >= 1 regardless of how the plan probed.
  [[nodiscard]] double collision_factor() const {
    const auto f = static_cast<double>(flop());
    const auto rounds = static_cast<double>(
        std::max(core_.symbolic_probes, core_.symbolic_keys));
    return f > 0.0 ? rounds / f : 1.0;
  }

  /// Engine lanes hook: count the seats this handle's plan/execute passes
  /// hold in `sink`, so the serving engine can pack small products onto the
  /// rest as the pass workers drain (ExecutionSchedule::set_seat_sink).
  /// The sink must outlive every pass run while attached; detach with
  /// nullptr before it dies.  Callers serialize on the handle's execution
  /// anyway (the engine holds the plan-cache exec mutex), so this needs no
  /// lock.
  void set_seat_sink(std::atomic<int>* sink) {
    core_.schedule.set_seat_sink(sink);
  }

  /// Full O(nnz) structure comparison against the plan; never throws.
  [[nodiscard]] bool structure_matches(const CsrMatrix<IT, VT>& a,
                                       const CsrMatrix<IT, VT>& b) const {
    return planned_ && a.nrows == core_.nrows && b.ncols == core_.ncols &&
           a.ncols == b.nrows &&
           pair_fingerprint(a, b) == fingerprint_;
  }

  /// On-demand full verification (for callers that mutate column arrays in
  /// place, which the O(1) per-execute check cannot see).
  void verify_structure(const CsrMatrix<IT, VT>& a,
                        const CsrMatrix<IT, VT>& b) const {
    if (!structure_matches(a, b)) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmHandle: input structure differs from the plan");
    }
  }

 private:
  using AnyKernel =
      std::variant<std::monostate,
                   detail::KernelPlan<IT, VT, detail::HashPlanPolicy<IT, VT>>,
                   detail::KernelPlan<IT, VT,
                                      detail::HashVecPlanPolicy<IT, VT>>,
                   detail::KernelPlan<IT, VT, detail::SpaPlanPolicy<IT, VT>>,
                   detail::KernelPlan<IT, VT,
                                      detail::KkHashPlanPolicy<IT, VT>>,
                   detail::KernelPlan<IT, VT,
                                      detail::AdaptivePlanPolicy<IT, VT>>>;

  /// Make kernel_ hold the right alternative for the planned algorithm.
  /// When it already does (replanning the same kernel), only the policy is
  /// refreshed, so the per-thread accumulators, capture scratch and staged
  /// buffers are recycled grow-only instead of being torn down.
  template <typename Policy>
  void set_kernel(Policy policy) {
    using Plan = detail::KernelPlan<IT, VT, Policy>;
    if (Plan* live = std::get_if<Plan>(&kernel_)) {
      live->policy = std::move(policy);
    } else {
      kernel_.template emplace<Plan>(std::move(policy));
    }
  }

  void emplace_kernel(IT ncols_b) {
    detail::with_plan_policy<IT, VT>(
        core_.opts.algorithm, core_.opts.probe, ncols_b,
        [&](auto policy) { set_kernel(std::move(policy)); });
  }

  /// Run fn on the planned kernel; no-op before the first plan.
  template <typename Kernel, typename Fn>
  static void visit_kernel(Kernel& kernel, Fn&& fn) {
    std::visit(
        [&](auto& k) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(k)>,
                                        std::monostate>) {
            fn(k);
          }
        },
        kernel);
  }

  /// O(1) per-execute structure check; falls back to the full fingerprint
  /// when the caller hands in different objects than last time.
  void check_structure(const CsrMatrix<IT, VT>& a,
                       const CsrMatrix<IT, VT>& b) {
    const auto id_a = detail::StructureId<IT, VT>::of(a);
    const auto id_b = detail::StructureId<IT, VT>::of(b);
    if (id_a == id_a_ && id_b == id_b_) return;
    verify_structure(a, b);
    id_a_ = id_a;
    id_b_ = id_b;
  }

  template <typename SR>
  void execute_impl(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                    CsrMatrix<IT, VT>& c, bool fill_skeleton, SR /*sr*/,
                    SpGemmStats* stats) {
    if (!planned_) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmHandle::execute: no plan — call plan()");
    }
    check_structure(a, b);
    TELEM_SPAN("handle.execute");
    SPGEMM_FAULT_RAISE("handle.execute.numeric");
    Timer exec_timer;
    parallel::ScopedNumThreads scoped(core_.opts.threads);

    // A fused execute bypasses the skeleton fill entirely: the kept
    // structure depends on this execute's VALUES (pruning), and the full
    // intermediate must never be allocated — the fused execute sizes c to
    // the kept nnz only.
    const bool fused = core_.opts.epilogue.enabled();

    c.nrows = core_.nrows;
    c.ncols = core_.ncols;
    detail::PassTally work;
    visit_kernel(kernel_, [&](auto& kernel) {
      if (fill_skeleton && !fused) {
        TELEM_SPAN("handle.placement");
        c.rpts = core_.rpts;
        kernel.place_blocks(core_, core_.rpts.data(), c, /*skeleton=*/true);
        // Default-init resize: vals pages are first touched by the numeric
        // pass below, inside the thread that owns each row range.
        c.vals.resize(static_cast<std::size_t>(core_.rpts.back()));
      }
      TELEM_SPAN("handle.numeric");
      work = kernel.template execute<SR>(core_, a, b, c);
      if (fused) kernel.fold_epilogue(stats_);
    });

    c.sortedness = core_.opts.sort_output == SortOutput::kYes
                       ? Sortedness::kSorted
                       : Sortedness::kUnsorted;

    ++executions_;
    stats_.execute_ms = exec_timer.millis();
    stats_.numeric_ms = stats_.execute_ms;
    stats_.numeric_probes = work.num_probes;
    stats_.numeric_keys = work.num_keys;
    stats_.probes = stats_.symbolic_probes + work.num_probes;
    stats_.executions = executions_;
    if (fused) stats_.nnz_out = c.rpts.empty() ? 0 : c.rpts.back();
    if (telemetry::enabled()) {
      auto& t = detail::HandleTelemetry::get();
      t.executes.add(1);
      t.numeric_probes.add(work.num_probes);
      t.numeric_keys.add(work.num_keys);
    }
    if (stats != nullptr) *stats = stats_;
  }

  detail::PlanCore<IT, VT> core_;
  AnyKernel kernel_;
  std::uint64_t fingerprint_ = 0;  ///< pair structure fingerprint of the plan
  detail::StructureId<IT, VT> id_a_;
  detail::StructureId<IT, VT> id_b_;
  CsrMatrix<IT, VT> pooled_;
  SpGemmOptions requested_opts_;  ///< as passed to plan(), pre-resolution
  bool pooled_cols_ready_ = false;
  bool planned_ = false;
  std::uint64_t executions_ = 0;
  SpGemmStats stats_;
};

}  // namespace spgemm
