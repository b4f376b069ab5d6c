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
// phase needs: the flop-balanced row partition and tile plan, the per-thread
// accumulators and captured slot streams (the PR-1 capture/replay protocol
// of core/spgemm_twophase.hpp — the row-level code is literally shared), and
// the output skeleton (row pointers + column indices).  execute() then runs
// the numeric phase only: captured rows replay their slot stream with zero
// hash probing, budget-overflow rows re-probe, and every value lands
// directly at its final offset — no staging copy, no allocation, no
// zero-initializing resize.  The pooled output and all workspaces are
// grow-only across plan() calls, so one handle can serve a stream of
// differently-sized products without churning the allocator.
//
// Kernels: Hash, HashVector, SPA, KKHash and Adaptive (per-row tiny/hash/
// SPA regimes) all plan and execute through this one surface; kAuto defers
// to the Table 4 recipe and falls back to Hash when the recipe picks a
// kernel without a symbolic phase.  Any semiring may be passed to execute()
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

#include <omp.h>

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

#include "accumulator/row_sort.hpp"
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
#include "mem/default_init.hpp"
#include "mem/workspace.hpp"
#include "model/cost_model.hpp"
#include "parallel/execution_schedule.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/prefix_sum.hpp"
#include "parallel/rows_to_threads.hpp"
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
  telemetry::Counter& tile_steals;
  telemetry::Counter& pages_retouched;
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
                    "execute)."),
        reg.counter("spgemm_tile_steals_total",
                    "Tiles run by a thread other than their owner."),
        reg.counter("spgemm_pages_retouched_total",
                    "Pooled-output pages rewritten by their owning thread.")};
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

// ---- Persisted plan state -------------------------------------------------
//
// The per-kernel planning policies live in core/spgemm_policies.hpp; the
// fused one-shot driver runs the exact same policy objects.

/// One planned row: where its slot stream lives and how to emit it.
template <IndexType IT>
struct PlannedRow {
  std::size_t cap_off = 0;  ///< slot-stream start in the capture buffer
  IT nnz = 0;
  bool captured = false;  ///< replayable; otherwise execute re-probes
  bool sorted = false;    ///< columns recorded in ascending order
};

/// A row-range tile owned by one thread, with its offset into the thread's
/// staged skeleton columns.
struct PlannedTile {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::size_t stage_begin = 0;
};

/// Everything one thread persists between plan() and execute() calls: its
/// accumulator (prepared, keys clean), its captured slot streams, its tile
/// list and per-row records, and the skeleton columns it produced.
template <IndexType IT, ValueType VT, typename Acc>
struct ThreadPlan {
  explicit ThreadPlan(Acc a) : acc(std::move(a)) {}
  Acc acc;
  mem::ThreadScratch<IT> capture;
  std::size_t capture_entries = 0;
  std::vector<PlannedTile> tiles;
  std::vector<PlannedRow<IT>> rows;  ///< tile processing order
  mem::Buffer<IT> staged_cols;       ///< skeleton cols, processing order
  // ---- Fused-epilogue executes (numeric_fused) -------------------------
  // The kept (post-epilogue) entries of this thread's tiles, appended in
  // processing order, plus one record per tile for the placement copy.
  // Grow-only across executes, like every other workspace here; a row's
  // full intermediate lives only in row_vals/row_cols while cache-hot.
  mem::Buffer<IT> kept_cols;
  mem::Buffer<VT> kept_vals;
  std::vector<PlannedTile> kept_tiles;
  mem::Buffer<VT> row_vals;  ///< one row's values (captured + fallback)
  mem::Buffer<IT> row_cols;  ///< one fallback row's columns
  EpilogueState epi;
};

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

/// Kernel-independent plan state.
template <IndexType IT, ValueType VT>
struct PlanCore {
  SpGemmOptions opts;  ///< resolved: algorithm is a concrete two-phase one
  int nthreads = 1;
  IT nrows = 0;
  IT ncols = 0;
  parallel::RowPartition part;
  parallel::ExecutionSchedule schedule;  ///< persisted tile plan + policy
  std::size_t tile_rows = 0;
  bool capture_enabled = false;
  /// Requested batching mode for the build pass (kernels whose
  /// accumulator implements the batch-capture contract; kAuto defers to
  /// the per-thread table-size gate).
  ProbeBatch probe_batching = ProbeBatch::kAuto;
  /// Resolved execution tier of the vectorized numeric replay.
  ProbeKind replay_kind = ProbeKind::kScalar;
  std::size_t budget_entries = 0;
  std::uint64_t fingerprint = 0;
  StructureId<IT, VT> id_a;
  StructureId<IT, VT> id_b;
  mem::Buffer<Offset> rpts;  ///< output skeleton row pointers (scanned)
  std::uint64_t symbolic_probes = 0;
  std::uint64_t symbolic_keys = 0;
  std::uint64_t tile_count = 0;
  std::uint64_t rows_captured = 0;
};

/// Kernel-specific plan state + the plan/execute passes.  The row-level
/// work delegates to the shared primitives of core/spgemm_twophase.hpp.
template <IndexType IT, ValueType VT, typename Policy>
struct KernelPlan {
  using Acc = typename Policy::Acc;

  Policy policy;
  std::vector<ThreadPlan<IT, VT, Acc>> threads;

  explicit KernelPlan(Policy p) : policy(std::move(p)) {}

  /// Symbolic phase over all rows: capture slot streams, stage skeleton
  /// columns, record per-row counts into core.rpts (unscanned).  Tiles are
  /// handed out by the persisted ExecutionSchedule; the assignment this
  /// pass settles on (including any steals) is frozen into the per-thread
  /// tile lists, which execute() replays with perfect affinity.
  void build(PlanCore<IT, VT>& core, const CsrMatrix<IT, VT>& a,
             const CsrMatrix<IT, VT>& b) {
    const auto nrows = static_cast<std::size_t>(a.nrows);

    // Re-planning on a live handle recycles the per-thread state grow-only:
    // accumulators and capture scratch keep their (pool-backed) storage, and
    // the tile/row/staged vectors keep their capacity.
    if (threads.size() != static_cast<std::size_t>(core.nthreads)) {
      threads.clear();
      threads.reserve(static_cast<std::size_t>(core.nthreads));
      for (int t = 0; t < core.nthreads; ++t) {
        threads.emplace_back(policy.make());
      }
    }

    core.rpts.resize(nrows + 1);

    std::atomic<std::uint64_t> total_probes{0};
    std::atomic<std::uint64_t> total_keys{0};
    std::atomic<std::uint64_t> total_tiles{0};
    std::atomic<std::uint64_t> total_captured{0};
    constexpr bool kPolicyBatches = BatchProbe<Acc, IT>;

    core.schedule.begin_pass();
#pragma omp parallel num_threads(core.nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < core.part.threads()) {
        const auto utid = static_cast<std::size_t>(tid);
        ThreadPlan<IT, VT, Acc>& tp = threads[utid];
        Acc& acc = tp.acc;
        policy.prepare(acc, core.schedule.sizing_max_row_flop(tid), b.ncols);
        const bool batch_probes =
            kPolicyBatches && thread_batches(core.probe_batching, acc);

        const auto capture_flop_bound =
            static_cast<std::size_t>(core.schedule.capture_flop_bound(tid));
        tp.capture_entries =
            core.capture_enabled
                ? std::min(core.budget_entries, 2 * capture_flop_bound + 16)
                : 0;
        IT* cap = core.capture_enabled ? tp.capture.ensure(tp.capture_entries)
                                       : nullptr;

        tp.tiles.clear();
        tp.rows.clear();
        tp.staged_cols.clear();
        mem::ThreadScratch<IT> key_scratch;
        mem::ThreadScratch<IT> count_slot_scratch;
        std::size_t cap_used = 0;
        std::size_t stage_off = 0;
        std::uint64_t captured_count = 0;
        std::uint64_t tiles_done = 0;
        const std::uint64_t probes_before = acc.probes();
        const std::uint64_t keys_before = keys_resolved_of(acc);

        const auto process_tile = [&](std::size_t r0, std::size_t r1) {
          tp.tiles.push_back({r0, r1, stage_off});
          for (std::size_t i = r0; i < r1; ++i) {
            const Offset row_flop =
                core.part.flop_prefix[i + 1] - core.part.flop_prefix[i];
            const bool force_sorted = policy.begin_row(acc, row_flop);
            PlannedRow<IT> row;
            row.sorted =
                core.opts.sort_output == SortOutput::kYes || force_sorted;
            row.cap_off = cap_used;
            row.captured =
                cap != nullptr &&
                cap_used + 2 * static_cast<std::size_t>(row_flop) <=
                    tp.capture_entries;
            if (row.captured) {
              std::size_t ns;
              if constexpr (kPolicyBatches) {
                ns = batch_probes
                         ? capture_row_batch(acc, a, b, i, row_flop,
                                             cap + cap_used, key_scratch)
                         : capture_row(acc, a, b, i, cap + cap_used);
              } else {
                ns = capture_row(acc, a, b, i, cap + cap_used);
              }
              const std::size_t nnz = acc.count();
              row.nnz = static_cast<IT>(nnz);
              tp.staged_cols.resize(stage_off + nnz);
              record_gather(acc, nnz, row.sorted, cap + cap_used + ns,
                            tp.staged_cols.data() + stage_off);
              cap_used += ns + nnz;
              ++captured_count;
            } else {
              if constexpr (kPolicyBatches) {
                if (batch_probes) {
                  count_row_batch(acc, a, b, i, row_flop, key_scratch,
                                  count_slot_scratch);
                } else {
                  count_row(acc, a, b, i);
                }
              } else {
                count_row(acc, a, b, i);
              }
              const std::size_t nnz = acc.count();
              row.nnz = static_cast<IT>(nnz);
              tp.staged_cols.resize(stage_off + nnz);
              IT* out_cols = tp.staged_cols.data() + stage_off;
              acc.extract_keys(out_cols);
              if (row.sorted) sort_row(out_cols, nnz);
            }
            tp.rows.push_back(row);
            core.rpts[i] = static_cast<Offset>(row.nnz);
            stage_off += static_cast<std::size_t>(row.nnz);
            acc.reset();
          }
          ++tiles_done;
        };

        core.schedule.for_each_tile(
            tid, [&](std::size_t /*index*/, const parallel::TileRange& tile,
                     bool /*stolen*/) {
              process_tile(tile.row_begin, tile.row_end);
            });

        total_probes.fetch_add(acc.probes() - probes_before,
                               std::memory_order_relaxed);
        total_keys.fetch_add(keys_resolved_of(acc) - keys_before,
                             std::memory_order_relaxed);
        total_tiles.fetch_add(tiles_done, std::memory_order_relaxed);
        total_captured.fetch_add(captured_count, std::memory_order_relaxed);
      }
      core.schedule.worker_done();
    }

    core.rpts[nrows] = 0;
    parallel::exclusive_scan_inplace(core.rpts.data(), nrows + 1);
    core.symbolic_probes = total_probes.load(std::memory_order_relaxed);
    core.symbolic_keys = total_keys.load(std::memory_order_relaxed);
    core.tile_count = total_tiles.load(std::memory_order_relaxed);
    core.rows_captured = total_captured.load(std::memory_order_relaxed);
  }

  /// Copy the staged skeleton columns to their final offsets in `c.cols`
  /// (parallel, first touch by the owning thread).
  void place_cols(const PlanCore<IT, VT>& core, CsrMatrix<IT, VT>& c) const {
    c.cols.resize(static_cast<std::size_t>(core.rpts.back()));
#pragma omp parallel num_threads(core.nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < core.part.threads()) {
        const ThreadPlan<IT, VT, Acc>& tp =
            threads[static_cast<std::size_t>(tid)];
        for (const PlannedTile& tile : tp.tiles) {
          const auto dst = static_cast<std::size_t>(core.rpts[tile.row_begin]);
          const auto len =
              static_cast<std::size_t>(core.rpts[tile.row_end]) - dst;
          std::copy_n(tp.staged_cols.data() + tile.stage_begin, len,
                      c.cols.data() + dst);
        }
      }
    }
  }

  /// Probe-round and keys-resolved tallies of one numeric pass.
  struct NumericWork {
    std::uint64_t probes = 0;
    std::uint64_t keys = 0;
  };

  /// Numeric-only pass: replay captured rows, re-probe fallback rows,
  /// values written directly at their final offsets.
  template <typename SR>
  NumericWork numeric(const PlanCore<IT, VT>& core,
                      const CsrMatrix<IT, VT>& a,
                      const CsrMatrix<IT, VT>& b, CsrMatrix<IT, VT>& c) {
    std::atomic<std::uint64_t> total_probes{0};
    std::atomic<std::uint64_t> total_keys{0};
    core.schedule.reset_occupancy();
#pragma omp parallel num_threads(core.nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < core.part.threads()) {
        ThreadPlan<IT, VT, Acc>& tp = threads[static_cast<std::size_t>(tid)];
        Acc& acc = tp.acc;
        const IT* cap = tp.capture.data();
        const std::uint64_t probes_before = acc.probes();
        const std::uint64_t keys_before = keys_resolved_of(acc);
        std::size_t cursor = 0;
        for (const PlannedTile& tile : tp.tiles) {
          for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
            const PlannedRow<IT>& row = tp.rows[cursor++];
            const Offset row_flop =
                core.part.flop_prefix[i + 1] - core.part.flop_prefix[i];
            policy.begin_row(acc, row_flop);
            const auto off = static_cast<std::size_t>(core.rpts[i]);
            VT* out_vals = c.vals.data() + off;
            if (row.captured) {
              const IT* slot_stream = cap + row.cap_off;
              const std::size_t ns =
                  replay_row<SR>(acc, a, b, i, slot_stream, core.replay_kind);
              gather_values(static_cast<const VT*>(acc.slot_values()),
                            slot_stream + ns,
                            static_cast<std::size_t>(row.nnz), out_vals);
            } else {
              probe_row<SR>(acc, a, b, i);
              IT* out_cols = c.cols.data() + off;
              if (row.sorted) {
                acc.extract_sorted(out_cols, out_vals);
              } else {
                acc.extract_unsorted(out_cols, out_vals);
              }
              acc.reset();
            }
          }
        }
        total_probes.fetch_add(acc.probes() - probes_before,
                               std::memory_order_relaxed);
        total_keys.fetch_add(keys_resolved_of(acc) - keys_before,
                             std::memory_order_relaxed);
      }
      core.schedule.worker_done();
    }
    return {total_probes.load(std::memory_order_relaxed),
            total_keys.load(std::memory_order_relaxed)};
  }

  /// Fused-epilogue numeric pass: each row is computed into per-thread row
  /// scratch (captured rows replay + gather, fallback rows re-probe), the
  /// epilogue runs on it while cache-hot, and only the KEPT entries are
  /// appended to the thread's kept buffers.  The plan's full-intermediate
  /// skeleton (core.rpts / staged_cols) stays untouched plan state; the
  /// output CSR is sized to the kept nnz only — the intermediate product is
  /// never materialized.  `c.rpts` doubles as the kept-count scratch before
  /// its exclusive scan.
  template <typename SR>
  NumericWork numeric_fused(const PlanCore<IT, VT>& core,
                            const CsrMatrix<IT, VT>& a,
                            const CsrMatrix<IT, VT>& b,
                            const EpilogueContext<IT, VT>& ectx,
                            CsrMatrix<IT, VT>& c) {
    const EpilogueSpec& spec = core.opts.epilogue;
    const auto nrows = static_cast<std::size_t>(core.nrows);
    c.rpts.resize(nrows + 1);
    std::atomic<std::uint64_t> total_probes{0};
    std::atomic<std::uint64_t> total_keys{0};
    core.schedule.reset_occupancy();
#pragma omp parallel num_threads(core.nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < core.part.threads()) {
        ThreadPlan<IT, VT, Acc>& tp = threads[static_cast<std::size_t>(tid)];
        Acc& acc = tp.acc;
        const IT* cap = tp.capture.data();
        const std::uint64_t probes_before = acc.probes();
        const std::uint64_t keys_before = keys_resolved_of(acc);
        tp.epi.begin_pass(spec, static_cast<std::size_t>(b.ncols));
        tp.kept_tiles.clear();
        tp.kept_cols.clear();
        tp.kept_vals.clear();
        std::size_t cursor = 0;
        std::size_t kept_sz = 0;
        for (const PlannedTile& tile : tp.tiles) {
          tp.kept_tiles.push_back({tile.row_begin, tile.row_end, kept_sz});
          std::size_t stage_off = tile.stage_begin;
          for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
            const PlannedRow<IT>& row = tp.rows[cursor++];
            const Offset row_flop =
                core.part.flop_prefix[i + 1] - core.part.flop_prefix[i];
            policy.begin_row(acc, row_flop);
            const auto nnz = static_cast<std::size_t>(row.nnz);
            if (tp.row_vals.size() < nnz) tp.row_vals.resize(nnz);
            VT* vals = tp.row_vals.data();
            const IT* cols;
            if (row.captured) {
              const IT* slot_stream = cap + row.cap_off;
              const std::size_t ns =
                  replay_row<SR>(acc, a, b, i, slot_stream, core.replay_kind);
              gather_values(static_cast<const VT*>(acc.slot_values()),
                            slot_stream + ns, nnz, vals);
              cols = tp.staged_cols.data() + stage_off;
            } else {
              probe_row<SR>(acc, a, b, i);
              if (tp.row_cols.size() < nnz) tp.row_cols.resize(nnz);
              if (row.sorted) {
                acc.extract_sorted(tp.row_cols.data(), vals);
              } else {
                acc.extract_unsorted(tp.row_cols.data(), vals);
              }
              acc.reset();
              cols = tp.row_cols.data();
            }
            const std::uint64_t t0 = monotonic_ns();
            tp.kept_cols.resize(kept_sz + nnz);
            tp.kept_vals.resize(kept_sz + nnz);
            const std::size_t kept = apply_row_epilogue(
                spec, ectx, tp.epi, i, cols, vals, nnz,
                tp.kept_cols.data() + kept_sz, tp.kept_vals.data() + kept_sz);
            tp.kept_cols.resize(kept_sz + kept);
            tp.kept_vals.resize(kept_sz + kept);
            tp.epi.seconds +=
                static_cast<double>(monotonic_ns() - t0) * 1e-9;
            c.rpts[i] = static_cast<Offset>(kept);
            kept_sz += kept;
            stage_off += nnz;
          }
        }
        total_probes.fetch_add(acc.probes() - probes_before,
                               std::memory_order_relaxed);
        total_keys.fetch_add(keys_resolved_of(acc) - keys_before,
                             std::memory_order_relaxed);
      }
      core.schedule.worker_done();
    }

    // ---- Size the kept output and place every thread's kept tiles. -------
    c.rpts[nrows] = 0;
    parallel::exclusive_scan_inplace(c.rpts.data(), nrows + 1);
    const auto kept_nnz = static_cast<std::size_t>(c.rpts[nrows]);
    c.cols.resize(kept_nnz);
    c.vals.resize(kept_nnz);
#pragma omp parallel num_threads(core.nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < core.part.threads()) {
        const ThreadPlan<IT, VT, Acc>& tp =
            threads[static_cast<std::size_t>(tid)];
        for (const PlannedTile& tile : tp.kept_tiles) {
          const auto dst = static_cast<std::size_t>(c.rpts[tile.row_begin]);
          const auto len =
              static_cast<std::size_t>(c.rpts[tile.row_end]) - dst;
          std::copy_n(tp.kept_cols.data() + tile.stage_begin, len,
                      c.cols.data() + dst);
          std::copy_n(tp.kept_vals.data() + tile.stage_begin, len,
                      c.vals.data() + dst);
        }
      }
    }
    return {total_probes.load(std::memory_order_relaxed),
            total_keys.load(std::memory_order_relaxed)};
  }
};

}  // namespace detail

template <IndexType IT, ValueType VT>
class SpGemmHandle {
 public:
  SpGemmHandle() = default;

  /// Convenience: construct and plan in one step (the old SpGemmPlan
  /// constructor shape).
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

    if (opts.algorithm == Algorithm::kAuto) {
      opts.algorithm = recipe::select_for(
          a, b, recipe::Operation::kSquare, opts.sort_output,
          recipe::DataOrigin::kReal);
      if (!is_two_phase(opts.algorithm)) opts.algorithm = Algorithm::kHash;
    }
    if (!is_two_phase(opts.algorithm)) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmHandle::plan: kernel has no symbolic phase to "
                        "plan (two-phase kernels only)");
    }

    core_.opts = opts;
    core_.nrows = a.nrows;
    core_.ncols = b.ncols;
    core_.nthreads = parallel::resolve_threads(opts.threads);
    parallel::ScopedNumThreads scoped(opts.threads);

    Timer timer;
    const auto nrows = static_cast<std::size_t>(a.nrows);
    core_.part =
        parallel::is_balanced(opts.schedule)
            ? parallel::rows_to_threads(nrows, a.rpts.data(), a.cols.data(),
                                        b.rpts.data(), core_.nthreads)
            : parallel::rows_equal(nrows, a.rpts.data(), a.cols.data(),
                                   b.rpts.data(), core_.nthreads);
    // Debug builds recompute and validate a caller-supplied fingerprint: a
    // wrong hash in a release build silently executes a stale plan (the
    // ensure_planned_hashed contract), so the one build mode that can
    // afford the O(nnz) check refuses to let it slide.
    assert(known_fingerprint == nullptr ||
           *known_fingerprint == pair_fingerprint(a, b));
    core_.fingerprint =
        known_fingerprint != nullptr ? *known_fingerprint
                                     : pair_fingerprint(a, b);
    core_.id_a = detail::StructureId<IT, VT>::of(a);
    core_.id_b = detail::StructureId<IT, VT>::of(b);
    stats_.setup_ms = timer.millis();

    // A persistent plan trades memory for repeated numeric time, so its
    // default capture budget is the large plan budget; an explicit
    // reuse_budget_bytes (or the one-shot wrapper) overrides it.  The
    // resolution — and the ExecutionSchedule it cuts — is shared with the
    // fused one-shot driver.
    const detail::TileConfig cfg = detail::resolve_tile_config(
        core_.part, opts, nrows, model::kDefaultPlanBudgetBytes, sizeof(IT));
    core_.budget_entries = cfg.budget_entries;
    core_.capture_enabled = cfg.capture_enabled;
    core_.probe_batching = cfg.probe_batching;
    core_.replay_kind = resolve_probe_kind(opts.probe);
    core_.tile_rows = cfg.tile_rows;
    detail::build_schedule(core_.schedule, core_.part, opts, cfg);

    timer.reset();
    {
      TELEM_SPAN("handle.symbolic");
      SPGEMM_FAULT_RAISE("handle.plan.symbolic");
      emplace_kernel(b.ncols);
      std::visit(
          [&](auto& kernel) {
            if constexpr (!std::is_same_v<std::decay_t<decltype(kernel)>,
                                          std::monostate>) {
              kernel.build(core_, a, b);
            }
          },
          kernel_);
    }
    stats_.symbolic_ms = timer.millis();

    planned_ = true;
    stats_.flop = core_.part.total_flop();
    stats_.nnz_out = core_.rpts.back();
    stats_.symbolic_probes = core_.symbolic_probes;
    stats_.symbolic_keys = core_.symbolic_keys;
    stats_.probes = core_.symbolic_probes;
    stats_.tile_count = core_.tile_count;
    stats_.tile_steals = core_.schedule.steals();
    stats_.reuse_rows_captured = core_.rows_captured;
    stats_.reuse_rows_total = nrows;
    stats_.plan_ms = plan_timer.millis();
    if (telemetry::enabled()) {
      auto& t = detail::HandleTelemetry::get();
      t.plans.add(1);
      t.symbolic_probes.add(stats_.symbolic_probes);
      t.symbolic_keys.add(stats_.symbolic_keys);
      t.flop.add(static_cast<std::uint64_t>(stats_.flop));
      t.tile_steals.add(stats_.tile_steals);
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
      core_.id_a = detail::StructureId<IT, VT>::of(a);
      core_.id_b = detail::StructureId<IT, VT>::of(b);
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
        pair == core_.fingerprint) {
      core_.id_a = detail::StructureId<IT, VT>::of(a);
      core_.id_b = detail::StructureId<IT, VT>::of(b);
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
    execute_impl(a, b, pooled_, !pooled_cols_ready_, /*into_pooled=*/true,
                 sr, stats);
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
    execute_impl(a, b, c, /*fill_skeleton=*/true, /*into_pooled=*/false, sr,
                 stats);
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
  /// every thread's capture streams / staged columns / tile+row records,
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
    std::visit(
        [&](const auto& kernel) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(kernel)>,
                                        std::monostate>) {
            for (const auto& tp : kernel.threads) {
              bytes += tp.capture.capacity() * sizeof(IT);
              bytes += tp.staged_cols.capacity() * sizeof(IT);
              bytes += tp.rows.capacity() * sizeof(detail::PlannedRow<IT>);
              bytes += tp.tiles.capacity() * sizeof(detail::PlannedTile);
              bytes += tp.kept_cols.capacity() * sizeof(IT) +
                       tp.kept_vals.capacity() * sizeof(VT) +
                       tp.kept_tiles.capacity() * sizeof(detail::PlannedTile);
              bytes += tp.row_cols.capacity() * sizeof(IT) +
                       tp.row_vals.capacity() * sizeof(VT);
            }
          }
        },
        kernel_);
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

  /// Tile size (row cap) the plan settled on.
  [[nodiscard]] std::size_t planned_tile_rows() const {
    return core_.tile_rows;
  }

  /// The persisted tile schedule the plan's symbolic pass ran under and
  /// whose frozen assignment every execute() replays.
  [[nodiscard]] const parallel::ExecutionSchedule& schedule() const {
    return core_.schedule;
  }

  /// Engine lanes hook: mirror per-pass worker exits into `sink` so the
  /// serving engine can widen its small-product overlay as this handle's
  /// plan/execute workers drain (ExecutionSchedule::set_exit_sink).  The
  /// sink must outlive every pass run while attached; detach with nullptr
  /// before it dies.  Callers serialize on the handle's execution anyway
  /// (the engine holds the plan-cache exec mutex), so this needs no lock.
  void set_pass_exit_sink(std::atomic<int>* sink) {
    core_.schedule.set_exit_sink(sink);
  }

  // ---- Fused epilogues ----------------------------------------------------

  /// Mask operand for kMaskReduce executes (the spec itself rides in
  /// SpGemmOptions::epilogue).  The pointed-to matrix must outlive every
  /// execute() run while attached and must match the mask_fp the spec was
  /// keyed with; detach with nullptr.
  void set_epilogue_mask(const CsrMatrix<IT, VT>* mask) {
    epilogue_mask_ = mask;
  }

  /// Scalar outputs of the last fused execute (kMaskReduce's reduction,
  /// kPruneScale's optional column sums).  Overwritten by every fused
  /// execute on this handle.
  [[nodiscard]] const EpilogueResult& epilogue_result() const {
    return epilogue_result_;
  }

  /// Fraction of rows whose slot stream was captured (replayable).
  [[nodiscard]] double capture_rate() const {
    const auto n = static_cast<double>(stats_.reuse_rows_total);
    return n > 0.0 ? static_cast<double>(core_.rows_captured) / n : 0.0;
  }

  /// Whether capture pays at the measured collision factor (cost model).
  [[nodiscard]] bool reuse_pays() const {
    const std::size_t budget = core_.opts.reuse_budget_bytes > 0
                                   ? core_.opts.reuse_budget_bytes
                                   : model::kDefaultPlanBudgetBytes;
    return core_.opts.reuse != StructureReuse::kOff &&
           model::reuse_pays(collision_factor(), budget);
  }

  /// Full O(nnz) structure comparison against the plan; never throws.
  [[nodiscard]] bool structure_matches(const CsrMatrix<IT, VT>& a,
                                       const CsrMatrix<IT, VT>& b) const {
    return planned_ && a.nrows == core_.nrows && b.ncols == core_.ncols &&
           a.ncols == b.nrows &&
           pair_fingerprint(a, b) == core_.fingerprint;
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

  /// O(1) per-execute structure check; falls back to the full fingerprint
  /// when the caller hands in different objects than last time.
  void check_structure(const CsrMatrix<IT, VT>& a,
                       const CsrMatrix<IT, VT>& b) {
    const auto id_a = detail::StructureId<IT, VT>::of(a);
    const auto id_b = detail::StructureId<IT, VT>::of(b);
    if (id_a == core_.id_a && id_b == core_.id_b) return;
    verify_structure(a, b);
    core_.id_a = id_a;
    core_.id_b = id_b;
  }

  /// Rewrite every page of the pooled output's body arrays from its OWNING
  /// thread (the static tile assignment, not the frozen claim state that
  /// includes steals).  First-touch repair for pages a thief populated
  /// during the build pass; see SpGemmOptions::retouch_output_pages.
  std::uint64_t retouch_pooled_pages() {
    constexpr std::size_t kPageBytes = 4096;
    const auto touch = [](void* ptr, std::size_t bytes) -> std::uint64_t {
      auto* p = static_cast<volatile unsigned char*>(ptr);
      std::uint64_t pages = 0;
      for (std::size_t off = 0; off < bytes; off += kPageBytes) {
        p[off] = p[off];
        ++pages;
      }
      return pages;
    };
    std::atomic<std::uint64_t> total{0};
#pragma omp parallel num_threads(core_.nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < core_.part.threads()) {
        std::uint64_t local = 0;
        core_.schedule.for_each_owned_tile(
            tid, [&](const parallel::TileRange& tile) {
              const auto begin =
                  static_cast<std::size_t>(core_.rpts[tile.row_begin]);
              const auto len =
                  static_cast<std::size_t>(core_.rpts[tile.row_end]) - begin;
              if (len == 0) return;
              local += touch(pooled_.cols.data() + begin, len * sizeof(IT));
              local += touch(pooled_.vals.data() + begin, len * sizeof(VT));
            });
        total.fetch_add(local, std::memory_order_relaxed);
      }
    }
    return total.load(std::memory_order_relaxed);
  }

  template <typename SR>
  void execute_impl(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                    CsrMatrix<IT, VT>& c, bool fill_skeleton,
                    bool into_pooled, SR /*sr*/, SpGemmStats* stats) {
    if (!planned_) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmHandle::execute: no plan — call plan()");
    }
    check_structure(a, b);
    TELEM_SPAN("handle.execute");
    SPGEMM_FAULT_RAISE("handle.execute.numeric");
    Timer exec_timer;
    parallel::ScopedNumThreads scoped(core_.opts.threads);

    // Structural epilogues bypass the skeleton fill entirely: the kept
    // structure depends on this execute's VALUES (pruning), and the full
    // intermediate must never be allocated — numeric_fused sizes c to the
    // kept nnz only.
    const bool fused = detail::epilogue_fuses_rows(core_.opts.epilogue);
    const detail::EpilogueContext<IT, VT> ectx{epilogue_mask_,
                                               &epilogue_result_};
    if (fused) detail::validate_epilogue(core_.opts.epilogue, ectx, a, b);

    c.nrows = core_.nrows;
    c.ncols = core_.ncols;
    if (fill_skeleton && !fused) {
      TELEM_SPAN("handle.placement");
      c.rpts = core_.rpts;
      std::visit(
          [&](auto& kernel) {
            if constexpr (!std::is_same_v<std::decay_t<decltype(kernel)>,
                                          std::monostate>) {
              kernel.place_cols(core_, c);
            }
          },
          kernel_);
      // Default-init resize: vals pages are first touched by the numeric
      // pass below, inside the thread that owns each row range.
      c.vals.resize(static_cast<std::size_t>(core_.rpts.back()));
    }

    std::uint64_t num_probes = 0;
    std::uint64_t num_keys = 0;
    std::uint64_t epi_rows = 0;
    double epi_s = 0.0;
    {
      TELEM_SPAN("handle.numeric");
      std::visit(
          [&](auto& kernel) {
            if constexpr (!std::is_same_v<std::decay_t<decltype(kernel)>,
                                          std::monostate>) {
              if (fused) {
                const auto work = kernel.template numeric_fused<SR>(
                    core_, a, b, ectx, c);
                num_probes = work.probes;
                num_keys = work.keys;
                detail::fold_epilogue_partials(
                    core_.opts.epilogue, core_.nthreads,
                    static_cast<std::size_t>(core_.ncols),
                    [&](int t) -> const detail::EpilogueState& {
                      return kernel.threads[static_cast<std::size_t>(t)].epi;
                    },
                    &epilogue_result_, epi_rows, epi_s);
              } else {
                const auto work =
                    kernel.template numeric<SR>(core_, a, b, c);
                num_probes = work.probes;
                num_keys = work.keys;
              }
            }
          },
          kernel_);
    }

    c.sortedness = core_.opts.sort_output == SortOutput::kYes
                       ? Sortedness::kSorted
                       : Sortedness::kUnsorted;

    ++executions_;
    // NUMA repair once per plan, right after the pooled pages have all been
    // populated — fill_skeleton on the pooled path means THIS was the first
    // pooled execute, regardless of any execute_into() calls before it —
    // and only when the build pass actually migrated work off its owners.
    std::uint64_t retouched_now = 0;
    if (into_pooled && fill_skeleton && !fused &&
        core_.opts.retouch_output_pages && stats_.tile_steals > 0) {
      retouched_now = retouch_pooled_pages();
      stats_.pages_retouched += retouched_now;
    }
    stats_.execute_ms = exec_timer.millis();
    stats_.numeric_ms = stats_.execute_ms;
    stats_.numeric_probes = num_probes;
    stats_.numeric_keys = num_keys;
    stats_.probes = stats_.symbolic_probes + num_probes;
    stats_.executions = executions_;
    if (fused) {
      stats_.nnz_out = c.rpts.empty() ? 0 : c.rpts.back();
      stats_.epilogue_rows = epi_rows;
      stats_.epilogue_ms = epi_s * 1e3;
    }
    if (telemetry::enabled()) {
      auto& t = detail::HandleTelemetry::get();
      t.executes.add(1);
      t.numeric_probes.add(num_probes);
      t.numeric_keys.add(num_keys);
      t.pages_retouched.add(retouched_now);
      if (fused) {
        detail::EpilogueTelemetry::get()
            .for_kind(core_.opts.epilogue.kind)
            .add(epi_rows);
        telemetry::phase_observe("epilogue", epi_s);
      }
    }
    if (stats != nullptr) *stats = stats_;
  }

  detail::PlanCore<IT, VT> core_;
  AnyKernel kernel_;
  CsrMatrix<IT, VT> pooled_;
  SpGemmOptions requested_opts_;  ///< as passed to plan(), pre-resolution
  const CsrMatrix<IT, VT>* epilogue_mask_ = nullptr;
  EpilogueResult epilogue_result_;
  bool pooled_cols_ready_ = false;
  bool planned_ = false;
  std::uint64_t executions_ = 0;
  SpGemmStats stats_;
};

/// The pre-handle inspector-executor name, kept as an alias so existing
/// call sites keep compiling; new code should say SpGemmHandle.  Two
/// deliberate semantic changes from the legacy class: execute() returns a
/// reference into handle-POOLED storage (overwritten by the next execute()
/// or plan(); copy it, or use execute_into(), to keep a result), and the
/// per-execute structure check is O(1) identity instead of a full
/// re-fingerprint — in-place column mutation requires an explicit
/// verify_structure() call to detect.
template <IndexType IT, ValueType VT>
using SpGemmPlan = SpGemmHandle<IT, VT>;

}  // namespace spgemm
