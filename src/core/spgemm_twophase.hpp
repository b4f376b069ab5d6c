// The two-phase (symbolic + numeric) SpGEMM row pipeline.
//
// Gustavson's algorithm (paper Fig. 1) parallelized over rows with the
// paper's architecture-specific structure:
//   * a flop-balanced row partition (Fig. 6), each owner's range cut into
//     tiles by a parallel::ExecutionSchedule and run by that owner alone,
//   * one accumulator per owner, allocated inside the thread that runs it
//     ("parallel" memory scheme, §3.2) and reinitialized per row,
//   * a symbolic phase that counts nnz per output row, an exclusive scan
//     that sizes the output exactly, and a numeric phase that fills it
//     (§2, two-phase strategy).
// The accumulator type is a policy parameter (core/spgemm_policies.hpp):
// Hash, HashVector, SPA, the two-level hash map and the adaptive dual
// accumulator all flow through the same code, so the kernels differ only
// in their accumulation data structure — exactly the framing of the paper.
//
// There is ONE row pipeline, KernelPlan below, and every two-phase entry
// point drives it:
//   * multiply_once() — the one-shot product (multiply, multiply_over,
//     multiply_with_epilogue): symbolic then numeric per tile, while the
//     tile's A rows, B rows and accumulator state are still cache-hot;
//   * build() / execute() — SpGemmHandle's plan and its numeric replays;
//   * multiply_rap() (core/spgemm_rap.hpp) — an on-demand A*P row source
//     on the same PlanCore, schedule and placement.
// They share symbolic_row(), numeric_row() and place_blocks(), so one-shot
// and plan/execute products are bit-identical by construction.
//
// ---- Slot-stream capture protocol -----------------------------------------
//
// The symbolic pass of a captured row runs insert_tagged(), recording slot
// s (new key) or ~s (duplicate) per scalar product into the owner's
// capture buffer.  record_gather() then freezes the per-output-entry gather
// slots (sorted by column when requested) while the accumulator still
// holds the row, and emits the row's column indices.  The numeric pass
// replays the stream: one sequential read, value scattered to
// slot_values()[s] (store when s >= 0, fold when tagged ~s) — zero hash
// probing — and the folded row is gathered out through the recorded slots.
// Rows that do not fit the capture budget are only counted in the symbolic
// pass and re-probed (probe_row) in the numeric pass.
//
// The replayed value stream folds contributions in exactly the traversal
// order of the re-probing pass, so captured and re-probed products are
// bit-identical, sorted or unsorted.
//
// ---- Staging and placement ------------------------------------------------
//
// A pass whose output offsets are unknown until every row is counted (the
// one-shot product, fused-epilogue executes, RAP) computes each owner's
// rows, tile after tile, at a running cursor in its staging buffers, so an
// owner's staged rows are one contiguous block in row order.  After an
// exclusive scan over the per-row counts, place_blocks() copies each
// owner's block to its final offset (detail::place_rows, which the
// one-phase driver places through too).  The handle's skeleton columns are
// staged the same way, in build().  Staging and output arrays are
// mem::Buffer (default-init), so sizing C costs no zeroing pass and each
// placement copy is the first touch of its pages, in the thread that
// staged them.  An unfused execute knows its offsets from the plan and
// writes values in place.
//
// Every per-owner region runs its owners through parallel::for_each_owner,
// so a team shorter than requested (OMP_THREAD_LIMIT, a call from inside a
// caller's parallel region) still computes every row.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "accumulator/row_sort.hpp"
#include "common/cpu_features.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/epilogue.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_onephase.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "mem/workspace.hpp"
#include "model/cost_model.hpp"
#include "parallel/execution_schedule.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/prefix_sum.hpp"
#include "parallel/rows_to_threads.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace spgemm::detail {

// ---- Shared row-level primitives ------------------------------------------

/// Symbolic capture pass over row i: one tagged slot per scalar product.
/// Returns the stream length (== row flop).
template <IndexType IT, ValueType VT, typename Acc>
inline std::size_t capture_row(Acc& acc, const CsrMatrix<IT, VT>& a,
                               const CsrMatrix<IT, VT>& b, std::size_t i,
                               IT* slot_stream) {
  std::size_t ns = 0;
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
      slot_stream[ns++] =
          acc.insert_tagged(b.cols[static_cast<std::size_t>(l)]);
    }
  }
  return ns;
}

/// Classic symbolic pass over row i (count only, no capture).
template <IndexType IT, ValueType VT, typename Acc>
inline void count_row(Acc& acc, const CsrMatrix<IT, VT>& a,
                      const CsrMatrix<IT, VT>& b, std::size_t i) {
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
      acc.insert(b.cols[static_cast<std::size_t>(l)]);
    }
  }
}

/// Accumulators that implement the batch-capture contract (accumulator/
/// hash_table.hpp): insert_tagged_batch must be bit-identical to per-key
/// insert_tagged over the same stream.
template <typename Acc, typename IT>
concept BatchProbe = requires(Acc acc, const IT* keys, std::size_t n,
                              IT* slots) {
  acc.insert_tagged_batch(keys, n, slots);
};

/// Keys-resolved counter of an accumulator (0 for accumulators that do not
/// track it) — the probe-round normalizer of SpGemmStats.
template <typename Acc>
inline std::uint64_t keys_resolved_of(const Acc& acc) {
  if constexpr (requires { acc.keys_resolved(); }) {
    return acc.keys_resolved();
  } else {
    return 0;
  }
}

/// Resolve the per-thread batching decision AFTER the accumulator is
/// prepared: kOn forces the batch pipeline, kOff forbids it, kAuto defers
/// to the accumulator's table-size gate (accumulator/hash_table.hpp,
/// kBatchMinTableBytes) — batching a cache-resident table just pays the
/// stanza-copy pass for probes that were already cheap.
template <typename Acc>
inline bool thread_batches(ProbeBatch requested, const Acc& acc) {
  switch (requested) {
    case ProbeBatch::kOff:
      return false;
    case ProbeBatch::kOn:
      return true;
    default:
      if constexpr (requires { acc.batch_worthwhile(); }) {
        return acc.batch_worthwhile();
      } else {
        return true;
      }
  }
}

/// Stream row i's key stanzas into `key_scratch` (contiguous), then resolve
/// them through the accumulator's batched multi-key probing pipeline in one
/// call.  Same table state, same touched order, same tagged stream as
/// capture_row() — only the probe-work shape changes.
template <IndexType IT, ValueType VT, typename Acc>
  requires BatchProbe<Acc, IT>
inline std::size_t capture_row_batch(Acc& acc, const CsrMatrix<IT, VT>& a,
                                     const CsrMatrix<IT, VT>& b,
                                     std::size_t i, Offset row_flop,
                                     IT* slot_stream,
                                     mem::ThreadScratch<IT>& key_scratch) {
  // Single-stanza rows (one A entry) are already a contiguous key stream
  // in b.cols — probe them in place, no copy.
  if (a.rpts[i + 1] - a.rpts[i] == 1) {
    const auto k = static_cast<std::size_t>(
        a.cols[static_cast<std::size_t>(a.rpts[i])]);
    const auto off = static_cast<std::size_t>(b.rpts[k]);
    const auto len = static_cast<std::size_t>(b.rpts[k + 1]) - off;
    acc.insert_tagged_batch(b.cols.data() + off, len, slot_stream);
    return len;
  }
  IT* keys = key_scratch.ensure(static_cast<std::size_t>(row_flop));
  std::size_t ns = 0;
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    const auto off = static_cast<std::size_t>(b.rpts[k]);
    const auto len = static_cast<std::size_t>(b.rpts[k + 1]) - off;
    std::copy_n(b.cols.data() + off, len, keys + ns);
    ns += len;
  }
  acc.insert_tagged_batch(keys, ns, slot_stream);
  return ns;
}

/// Freeze the gather order of a captured row while the accumulator still
/// holds it: writes `nnz` gather slots and the matching column indices
/// (ascending by column when `sorted`).
template <IndexType IT, typename Acc>
inline void record_gather(const Acc& acc, std::size_t nnz, bool sorted,
                          IT* gather, IT* out_cols) {
  for (std::size_t t = 0; t < nnz; ++t) {
    const IT slot = acc.touched_slot(t);
    out_cols[t] = acc.key_at_slot(slot);
    gather[t] = slot;
  }
  if (sorted) sort_row(out_cols, gather, nnz);
}

/// One stanza of the numeric replay: scatter SR::mul(av, bvals[l]) through
/// the tagged slot stream (store when the tag is non-negative, fold into
/// slot ~e otherwise).  `kind` selects the execution tier at runtime:
///
///   kAvx512 — gather/scatter over 8 doubles per round, with
///     _mm256_conflict_epi32 guarding against two stream entries hitting
///     the same slot in one round (conflicting rounds run the scalar loop,
///     preserving the exact left-to-right fold order, so every tier is
///     bit-identical);
///   kAvx2   — 4x-unrolled scalar with the slot target prefetched a few
///     entries ahead (no lane-crossing gather worth its latency at 256
///     bits);
///   kScalar — the classic loop.
///
/// Only PlusTimes over (int32, double) vectorizes; any other semiring or
/// type combination runs the scalar/prefetch tiers.
template <typename SR, IndexType IT, ValueType VT>
inline void replay_stanza(VT* slot_vals, VT av, const VT* bvals,
                          const IT* stream, std::size_t len, ProbeKind kind) {
  const auto scalar_at = [&](std::size_t l) {
    const VT v = SR::mul(av, bvals[l]);
    const IT e = stream[l];
    if (e >= 0) {
      slot_vals[static_cast<std::size_t>(e)] = v;
    } else {
      SR::fold(slot_vals[static_cast<std::size_t>(~e)], v);
    }
  };
  std::size_t l = 0;
#if defined(__AVX512F__) && defined(__AVX512CD__) && defined(__AVX512VL__)
  if constexpr (std::is_same_v<IT, std::int32_t> &&
                std::is_same_v<VT, double> && std::is_same_v<SR, PlusTimes>) {
    if (kind == ProbeKind::kAvx512) {
      const __m512d av_v = _mm512_set1_pd(av);
      for (; l + 8 <= len; l += 8) {
        const __m256i e = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(stream + l));
        const __m256i sign = _mm256_srai_epi32(e, 31);
        const __m256i slots = _mm256_xor_si256(e, sign);  // e >= 0 ? e : ~e
        const __m256i conf = _mm256_conflict_epi32(slots);
        if (!_mm256_testz_si256(conf, conf)) {
          // Two entries target one slot: the fold order matters, run the
          // round scalar.
          for (std::size_t t = l; t < l + 8; ++t) scalar_at(t);
          continue;
        }
        const __m512d v = _mm512_mul_pd(av_v, _mm512_loadu_pd(bvals + l));
        const __m512d old = _mm512_i32gather_pd(slots, slot_vals, 8);
        const auto tagged = static_cast<__mmask8>(_mm256_movemask_ps(
            _mm256_castsi256_ps(sign)));
        _mm512_i32scatter_pd(slot_vals, slots,
                             _mm512_mask_add_pd(v, tagged, old, v), 8);
      }
    }
  }
#endif
  if (kind == ProbeKind::kAvx2) {
    constexpr std::size_t kDist = 16;
    const auto prefetch_at = [&](std::size_t t) {
      const IT e = stream[t];
      __builtin_prefetch(
          slot_vals + static_cast<std::size_t>(e >= 0 ? e : ~e), 1);
    };
    for (; l + 4 <= len && l + kDist + 4 <= len; l += 4) {
      prefetch_at(l + kDist);
      prefetch_at(l + kDist + 1);
      prefetch_at(l + kDist + 2);
      prefetch_at(l + kDist + 3);
      scalar_at(l);
      scalar_at(l + 1);
      scalar_at(l + 2);
      scalar_at(l + 3);
    }
  }
  for (; l < len; ++l) scalar_at(l);
}

/// Numeric replay of a captured row: one sequential read of the tagged slot
/// stream, values scattered into the accumulator's slot array with zero
/// probing.  Returns the stream length consumed.  `kind` picks the
/// replay_stanza() execution tier; every tier is bit-identical.
template <typename SR, IndexType IT, ValueType VT, typename Acc>
inline std::size_t replay_row(Acc& acc, const CsrMatrix<IT, VT>& a,
                              const CsrMatrix<IT, VT>& b, std::size_t i,
                              const IT* slot_stream,
                              ProbeKind kind = ProbeKind::kScalar) {
  VT* slot_vals = acc.slot_values();
  std::size_t ns = 0;
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    const VT av = a.vals[static_cast<std::size_t>(j)];
    const auto off = static_cast<std::size_t>(b.rpts[k]);
    const auto len = static_cast<std::size_t>(b.rpts[k + 1]) - off;
    replay_stanza<SR, IT, VT>(slot_vals, av, b.vals.data() + off,
                              slot_stream + ns, len, kind);
    ns += len;
  }
  return ns;
}

/// Classic re-probing numeric pass over row i (capture fallback).
template <typename SR, IndexType IT, ValueType VT, typename Acc>
inline void probe_row(Acc& acc, const CsrMatrix<IT, VT>& a,
                      const CsrMatrix<IT, VT>& b, std::size_t i) {
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    const VT av = a.vals[static_cast<std::size_t>(j)];
    for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
      acc.accumulate(b.cols[static_cast<std::size_t>(l)],
                     SR::mul(av, b.vals[static_cast<std::size_t>(l)]),
                     [](VT& fold_acc, VT v) { SR::fold(fold_acc, v); });
    }
  }
}

// ---- Plan state ------------------------------------------------------------

/// Kernel-independent plan state: the owner partition, the tile schedule
/// cut from it and the capture budget, plus the handle's output skeleton.
template <IndexType IT, ValueType VT>
struct PlanCore {
  SpGemmOptions opts;  ///< resolved: algorithm is a concrete two-phase one
  int nthreads = 1;    ///< owners of the partition
  IT nrows = 0;
  IT ncols = 0;
  parallel::RowPartition part;
  parallel::ExecutionSchedule schedule;  ///< persisted tile plan + policy
  bool capture_enabled = false;
  std::size_t budget_entries = 0;  ///< capture slots per owner
  /// Resolved execution tier of the vectorized numeric replay.
  ProbeKind replay_kind = ProbeKind::kScalar;
  mem::Buffer<Offset> rpts;  ///< output skeleton row pointers (scanned)
  std::uint64_t symbolic_probes = 0;
  std::uint64_t symbolic_keys = 0;
  std::uint64_t tile_count = 0;
  std::uint64_t rows_captured = 0;

  /// Adopt `partition` for a product into `ncols_out` columns, resolve the
  /// tiling and capture budget, and cut the schedule.  The one resolution
  /// every entry point shares, so they can never disagree on tile cuts or
  /// capture gating.  The budget is opts.reuse_budget_bytes, or
  /// `default_budget_bytes` when that is 0: the one-shot (cache-resident)
  /// and the persistent-plan capture economics differ.  Tiles hold
  /// model::choose_tile_rows rows, cut again by flop so one dense row
  /// cannot stall a tile's runner for long (the row cap still bounds the
  /// bookkeeping of tiles full of empty rows).
  void configure(parallel::RowPartition partition, IT ncols_out,
                 const SpGemmOptions& o, std::size_t default_budget_bytes) {
    opts = o;
    part = std::move(partition);
    nthreads = part.threads();
    const std::size_t rows = part.flop_prefix.size() - 1;
    nrows = static_cast<IT>(rows);
    ncols = ncols_out;
    const std::size_t budget_bytes = opts.reuse_budget_bytes > 0
                                         ? opts.reuse_budget_bytes
                                         : default_budget_bytes;
    const std::size_t tile_rows = model::choose_tile_rows(
        part.total_flop(), rows, budget_bytes, sizeof(IT));
    capture_enabled = opts.reuse == StructureReuse::kOn;
    budget_entries = budget_bytes / sizeof(IT);
    replay_kind = resolve_probe_kind(opts.probe);
    const double avg_row_flop =
        rows > 0 ? static_cast<double>(part.total_flop()) /
                       static_cast<double>(rows)
                 : 0.0;
    const auto tile_flop = static_cast<Offset>(
        std::max(1.0, avg_row_flop * static_cast<double>(tile_rows)));
    schedule.build(part, tile_rows, tile_flop);
  }

  /// Capture slots owner `t` needs (0 with capture off): a tile never
  /// records more than 2 * its flop in slots, so small products need far
  /// less scratch than the full budget.
  [[nodiscard]] std::size_t capture_entries(int t) const {
    if (!capture_enabled) return 0;
    const auto bound =
        static_cast<std::size_t>(schedule.capture_flop_bound(t));
    return std::min(budget_entries, 2 * bound + 16);
  }

  [[nodiscard]] Offset row_flop(std::size_t i) const {
    return part.flop_prefix[i + 1] - part.flop_prefix[i];
  }
};

/// One symbolic row: where its slot stream lives and how to emit it.
template <IndexType IT>
struct PlannedRow {
  std::size_t cap_off = 0;  ///< slot-stream start in the capture buffer
  IT nnz = 0;
  bool captured = false;  ///< replayable; otherwise the numeric pass re-probes
  bool sorted = false;    ///< columns emitted in ascending order
};

/// One owner's work in the current pass, folded after the parallel region.
struct PassTally {
  std::uint64_t sym_probes = 0;
  std::uint64_t sym_keys = 0;
  std::uint64_t num_probes = 0;
  std::uint64_t num_keys = 0;
  std::uint64_t tiles = 0;
  std::uint64_t captured = 0;
  double sym_s = 0.0;
  double num_s = 0.0;
};

/// Everything one owner keeps between passes.  The handle persists the
/// accumulator (prepared, keys clean), the captured slot streams, the row
/// records and the skeleton columns, all in the owner's row order.  The
/// out_* staging holds the rows of a pass whose offsets are known only
/// after it, until place_blocks() copies them out.  All of it is recycled
/// grow-only.
template <IndexType IT, ValueType VT, typename Acc>
struct ThreadPlan {
  explicit ThreadPlan(Acc a) : acc(std::move(a)) {}
  Acc acc;
  mem::ThreadScratch<IT> capture;
  std::vector<PlannedRow<IT>> rows;  ///< the owner's rows, in order
  mem::Buffer<IT> staged_cols;       ///< skeleton cols, one block
  mem::Buffer<IT> out_cols;
  mem::Buffer<VT> out_vals;
  EpilogueState epi;
  PassTally tally;
};

/// Pass-local scratch of the batched probe pipeline: a row's stanza keys,
/// and the slot sink of a row that is counted rather than captured.
template <IndexType IT>
struct BatchScratch {
  mem::ThreadScratch<IT> keys;
  mem::ThreadScratch<IT> slots;
};

// ---- The row pipeline -------------------------------------------------------

/// Symbolic probe of row i: records the row's tagged slot stream at
/// `stream` and returns its length, or only counts the row when `stream` is
/// null.  A non-null `batch` routes the probes through the accumulator's
/// batched pipeline; table state and stream are the same either way.  A
/// counted row's batched slots go to scratch: insert() and insert_tagged()
/// mutate the table identically, so the count agrees.
template <IndexType IT, ValueType VT, typename Acc>
inline std::size_t symbolic_row(Acc& acc, const CsrMatrix<IT, VT>& a,
                                const CsrMatrix<IT, VT>& b, std::size_t i,
                                Offset row_flop, IT* stream,
                                BatchScratch<IT>* batch) {
  if constexpr (BatchProbe<Acc, IT>) {
    if (batch != nullptr) {
      if (stream == nullptr) {
        stream = batch->slots.ensure(static_cast<std::size_t>(row_flop));
      }
      return capture_row_batch(acc, a, b, i, row_flop, stream, batch->keys);
    }
  }
  if (stream == nullptr) {
    count_row(acc, a, b, i);
    return 0;
  }
  return capture_row(acc, a, b, i, stream);
}

/// Numeric pass over one symbolic row.  A captured row replays its slot
/// stream and gathers its values to `out_vals` (its columns were fixed at
/// capture); any other row re-probes and extracts columns and values.
template <typename SR, IndexType IT, ValueType VT, typename Acc>
inline void numeric_row(Acc& acc, const CsrMatrix<IT, VT>& a,
                        const CsrMatrix<IT, VT>& b, std::size_t i,
                        const PlannedRow<IT>& row, const IT* stream,
                        ProbeKind kind, IT* out_cols, VT* out_vals) {
  if (row.captured) {
    const IT* gather = stream + replay_row<SR>(acc, a, b, i, stream, kind);
    const VT* slot_vals = acc.slot_values();
    for (std::size_t t = 0; t < static_cast<std::size_t>(row.nnz); ++t) {
      out_vals[t] = slot_vals[static_cast<std::size_t>(gather[t])];
    }
    return;
  }
  probe_row<SR>(acc, a, b, i);
  if (row.sorted) {
    acc.extract_sorted(out_cols, out_vals);
  } else {
    acc.extract_unsorted(out_cols, out_vals);
  }
  acc.reset();
}

/// Kernel-specific plan state and the passes of the row pipeline.
/// Policy: one of the per-kernel accumulator policies of
/// core/spgemm_policies.hpp (make / prepare / begin_row).
template <IndexType IT, ValueType VT, typename Policy>
struct KernelPlan {
  using Acc = typename Policy::Acc;
  using Thread = ThreadPlan<IT, VT, Acc>;

  Policy policy;
  std::vector<Thread> threads;

  explicit KernelPlan(Policy p) : policy(std::move(p)) {}

  /// One ThreadPlan per owner.  A live plan with the same owner count keeps
  /// its per-owner state, so re-planning recycles it grow-only.
  void ensure_threads(int owners) {
    if (threads.size() == static_cast<std::size_t>(owners)) return;
    threads.clear();
    threads.reserve(static_cast<std::size_t>(owners));
    for (int t = 0; t < owners; ++t) threads.emplace_back(policy.make());
  }

  /// Run fn(owner's ThreadPlan, owner) for every owner in one parallel
  /// region, whatever team size OpenMP delivers.  The pass charges every
  /// seat first; each owner's tally restarts at zero and its share of the
  /// pass ends with worker_done().
  template <typename Fn>
  void run_owners(const PlanCore<IT, VT>& core, Fn&& fn) {
    core.schedule.reset_occupancy();
#pragma omp parallel num_threads(core.nthreads)
    parallel::for_each_owner(core.nthreads, [&](int owner) {
      Thread& tp = threads[static_cast<std::size_t>(owner)];
      tp.tally = PassTally{};
      fn(tp, owner);
      core.schedule.worker_done();
    });
  }

  /// Size `acc` for the rows `owner` may run, then decide whether its
  /// symbolic probes batch (kAuto defers to the prepared table's size gate,
  /// see thread_batches()).  Returns the batch scratch or null.
  BatchScratch<IT>* prepare(const PlanCore<IT, VT>& core, Acc& acc, int owner,
                            BatchScratch<IT>& scratch) const {
    policy.prepare(acc, core.schedule.sizing_max_row_flop(owner), core.ncols);
    if constexpr (BatchProbe<Acc, IT>) {
      if (thread_batches(core.opts.probe_batching, acc)) return &scratch;
    }
    return nullptr;
  }

  /// The symbolic row loop, over one tile.  A row is captured into `cap`
  /// when its slot stream and gather slots fit the entries left after
  /// `cap_used`; other rows are only counted.  Appends one PlannedRow per
  /// row to tp.rows, and to `cols` each row's columns (captured rows) or
  /// room for them (counted rows, whose numeric pass extracts them);
  /// counts[i] receives the row's nnz.
  void symbolic_tile(const PlanCore<IT, VT>& core, Thread& tp, Acc& acc,
                     BatchScratch<IT>* batch, const CsrMatrix<IT, VT>& a,
                     const CsrMatrix<IT, VT>& b,
                     const parallel::TileRange& tile, IT* cap,
                     std::size_t cap_entries, std::size_t& cap_used,
                     mem::Buffer<IT>& cols, Offset* counts) {
    const Timer timer;
    const std::uint64_t probes0 = acc.probes();
    const std::uint64_t keys0 = keys_resolved_of(acc);
    for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
      const Offset row_flop = core.row_flop(i);
      const bool force_sorted = policy.begin_row(acc, row_flop);
      PlannedRow<IT> row;
      row.sorted = core.opts.sort_output == SortOutput::kYes || force_sorted;
      row.cap_off = cap_used;
      row.captured = cap != nullptr &&
                     cap_used + 2 * static_cast<std::size_t>(row_flop) <=
                         cap_entries;
      const std::size_t ns =
          symbolic_row(acc, a, b, i, row_flop,
                       row.captured ? cap + cap_used : nullptr, batch);
      const std::size_t nnz = acc.count();
      row.nnz = static_cast<IT>(nnz);
      const std::size_t stage = cols.size();
      cols.resize(stage + nnz);
      if (row.captured) {
        // Gather slots (and final column order) are fixed now, while the
        // accumulator still holds the row.
        record_gather(acc, nnz, row.sorted, cap + cap_used + ns,
                      cols.data() + stage);
        cap_used += ns + nnz;
        ++tp.tally.captured;
      }
      acc.reset();
      tp.rows.push_back(row);
      counts[i] = static_cast<Offset>(nnz);
    }
    ++tp.tally.tiles;
    tp.tally.sym_probes += acc.probes() - probes0;
    tp.tally.sym_keys += keys_resolved_of(acc) - keys0;
    tp.tally.sym_s += timer.seconds();
  }

  /// The numeric row loop, over one tile whose row records start at `rows`
  /// and whose captured columns start at cols[stage]; both cursors move
  /// past the tile.  With `in_place`, values (and re-probed columns) land at
  /// their final offsets core.rpts[i] in c.  Otherwise each row is computed
  /// at `out` in the owner's staging, compacted there by the fused epilogue
  /// of core.opts, if any, and its kept count goes to c.rpts[i].
  template <typename SR>
  void numeric_tile(const PlanCore<IT, VT>& core, Thread& tp, Acc& acc,
                    const IT* cap, const CsrMatrix<IT, VT>& a,
                    const CsrMatrix<IT, VT>& b,
                    const parallel::TileRange& tile,
                    const PlannedRow<IT>*& rows, const mem::Buffer<IT>& cols,
                    std::size_t& stage, CsrMatrix<IT, VT>& c, bool in_place,
                    std::size_t out) {
    const bool fused = core.opts.epilogue.enabled();
    const Timer timer;
    const std::uint64_t probes0 = acc.probes();
    const std::uint64_t keys0 = keys_resolved_of(acc);
    for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
      const PlannedRow<IT>& row = *rows++;
      policy.begin_row(acc, core.row_flop(i));
      const auto nnz = static_cast<std::size_t>(row.nnz);
      const IT* stream = row.captured ? cap + row.cap_off : nullptr;
      if (in_place) {
        const auto at = static_cast<std::size_t>(core.rpts[i]);
        numeric_row<SR>(acc, a, b, i, row, stream, core.replay_kind,
                        c.cols.data() + at, c.vals.data() + at);
      } else {
        if (tp.out_vals.size() < out + nnz) {
          tp.out_cols.resize(out + nnz);
          tp.out_vals.resize(out + nnz);
        }
        IT* dst_cols = tp.out_cols.data() + out;
        VT* dst_vals = tp.out_vals.data() + out;
        numeric_row<SR>(acc, a, b, i, row, stream, core.replay_kind, dst_cols,
                        dst_vals);
        std::size_t kept = nnz;
        if (fused) {
          // Forward compaction in place: `out` never passes the row's
          // staged columns, so only read entries are overwritten.
          const std::uint64_t t0 = monotonic_ns();
          kept = apply_row_epilogue(
              tp.epi, row.captured ? cols.data() + stage : dst_cols, dst_vals,
              nnz, dst_cols, dst_vals);
          tp.epi.seconds += static_cast<double>(monotonic_ns() - t0) * 1e-9;
        }
        c.rpts[i] = static_cast<Offset>(kept);
        out += kept;
      }
      stage += nnz;
    }
    if (!in_place) {
      tp.out_cols.resize(out);
      tp.out_vals.resize(out);
    }
    tp.tally.num_probes += acc.probes() - probes0;
    tp.tally.num_keys += keys_resolved_of(acc) - keys0;
    tp.tally.num_s += timer.seconds();
  }

  /// The placement loop: copy every owner's staged block to its final
  /// offset in c (sized here), in the thread that staged it.  `skeleton`
  /// copies the plan's columns (staged_cols) and leaves c.vals alone; a
  /// counted row's columns arrive unwritten, and every execute extracts
  /// them in place.  Otherwise the out_* staging moves, columns and values.
  void place_blocks(const PlanCore<IT, VT>& core, const Offset* rpts,
                    CsrMatrix<IT, VT>& c, bool skeleton) const {
    const auto nnz = static_cast<std::size_t>(rpts[core.nrows]);
    c.cols.resize(nnz);
    if (!skeleton) c.vals.resize(nnz);
#pragma omp parallel num_threads(core.nthreads)
    parallel::for_each_owner(core.nthreads, [&](int owner) {
      const auto t = static_cast<std::size_t>(owner);
      const Thread& tp = threads[t];
      place_rows(rpts, core.part.offsets[t], core.part.offsets[t + 1],
                 (skeleton ? tp.staged_cols : tp.out_cols).data(),
                 skeleton ? nullptr : tp.out_vals.data(), c);
    });
  }

  /// Scan the per-row counts in c.rpts and place the staged output.  With
  /// `adopt` and a single owner, that owner ran every tile in row order, so
  /// its staging IS the output: it is moved in without a copy.
  void place_output(const PlanCore<IT, VT>& core, CsrMatrix<IT, VT>& c,
                    bool adopt) {
    const auto nrows = static_cast<std::size_t>(core.nrows);
    c.rpts[nrows] = 0;
    parallel::exclusive_scan_inplace(c.rpts.data(), nrows + 1);
    if (adopt && core.nthreads == 1) {
      c.cols = std::move(threads[0].out_cols);
      c.vals = std::move(threads[0].out_vals);
      return;
    }
    place_blocks(core, c.rpts.data(), c, /*skeleton=*/false);
  }

  /// The owners' tallies of the last pass: counters summed, phase seconds
  /// of the slowest owner (phases interleave per tile, so per-owner sums
  /// are the only attribution available).
  [[nodiscard]] PassTally tally() const {
    PassTally sum;
    for (const Thread& tp : threads) {
      const PassTally& t = tp.tally;
      sum.sym_probes += t.sym_probes;
      sum.sym_keys += t.sym_keys;
      sum.num_probes += t.num_probes;
      sum.num_keys += t.num_keys;
      sum.tiles += t.tiles;
      sum.captured += t.captured;
      sum.sym_s = std::max(sum.sym_s, t.sym_s);
      sum.num_s = std::max(sum.num_s, t.num_s);
    }
    return sum;
  }

  /// Fold the owners' epilogue tallies (detail::fold_epilogue) into
  /// `stats`.
  void fold_epilogue(SpGemmStats& stats) const {
    detail::fold_epilogue(
        threads,
        [](const Thread& tp) -> const EpilogueState& { return tp.epi; },
        stats);
  }

  /// Plan: the symbolic pass over every tile, capturing slot streams and
  /// staging the skeleton columns, each owner's in one block in row order;
  /// per-row counts go to core.rpts, scanned.
  void build(PlanCore<IT, VT>& core, const CsrMatrix<IT, VT>& a,
             const CsrMatrix<IT, VT>& b) {
    const auto nrows = static_cast<std::size_t>(core.nrows);
    ensure_threads(core.nthreads);
    core.rpts.resize(nrows + 1);
    run_owners(core, [&](Thread& tp, int owner) {
      BatchScratch<IT> scratch;
      BatchScratch<IT>* batch = prepare(core, tp.acc, owner, scratch);
      const std::size_t cap_entries = core.capture_entries(owner);
      IT* cap = cap_entries > 0 ? tp.capture.ensure(cap_entries) : nullptr;
      tp.rows.clear();
      tp.staged_cols.clear();
      std::size_t cap_used = 0;
      core.schedule.for_each_tile(owner, [&](const parallel::TileRange& tile) {
        symbolic_tile(core, tp, tp.acc, batch, a, b, tile, cap, cap_entries,
                      cap_used, tp.staged_cols, core.rpts.data());
      });
    });
    core.rpts[nrows] = 0;
    parallel::exclusive_scan_inplace(core.rpts.data(), nrows + 1);
    const PassTally t = tally();
    core.symbolic_probes = t.sym_probes;
    core.symbolic_keys = t.sym_keys;
    core.tile_count = t.tiles;
    core.rows_captured = t.captured;
  }

  /// Execute the plan's numeric phase.  Unfused, values and re-probed
  /// columns land straight at their final offsets in c, whose skeleton the
  /// caller placed.  With a fused epilogue (core.opts.epilogue), each row is
  /// computed into its owner's staging and compacted there while cache-hot;
  /// c is sized to the kept entries only, so the intermediate product never
  /// materializes (c.rpts doubles as the kept-count scratch).
  template <typename SR>
  PassTally execute(const PlanCore<IT, VT>& core, const CsrMatrix<IT, VT>& a,
                    const CsrMatrix<IT, VT>& b, CsrMatrix<IT, VT>& c) {
    const bool fused = core.opts.epilogue.enabled();
    if (fused) c.rpts.resize(static_cast<std::size_t>(core.nrows) + 1);
    run_owners(core, [&](Thread& tp, int owner) {
      if (fused) {
        tp.epi.begin_pass(core.opts.epilogue);
        tp.out_cols.clear();
        tp.out_vals.clear();
      }
      const PlannedRow<IT>* rows = tp.rows.data();
      std::size_t stage = 0;
      core.schedule.for_each_tile(owner, [&](const parallel::TileRange& tile) {
        numeric_tile<SR>(core, tp, tp.acc, tp.capture.data(), a, b, tile,
                         rows, tp.staged_cols, stage, c, !fused,
                         tp.out_cols.size());
      });
    });
    if (fused) place_output(core, c, /*adopt=*/false);
    return tally();
  }

  /// The one-shot product: each owner runs symbolic then numeric per tile
  /// while the tile's rows are cache-hot, capturing into a buffer rewound
  /// per tile and staging its rows (compacted by the fused epilogue of
  /// core.opts, if any) for place_output().  The accumulator and scratch
  /// live inside the owner's share of the pass, so the pool takes them back
  /// on the thread that allocated them.
  template <typename SR>
  CsrMatrix<IT, VT> multiply_once(PlanCore<IT, VT>& core,
                                  const CsrMatrix<IT, VT>& a,
                                  const CsrMatrix<IT, VT>& b) {
    CsrMatrix<IT, VT> c(a.nrows, b.ncols);
    const bool fused = core.opts.epilogue.enabled();
    ensure_threads(core.nthreads);
    run_owners(core, [&](Thread& tp, int owner) {
      Acc acc = policy.make();
      BatchScratch<IT> scratch;
      BatchScratch<IT>* batch = prepare(core, acc, owner, scratch);
      const std::size_t cap_entries = core.capture_entries(owner);
      mem::ThreadScratch<IT> capture;
      IT* cap = cap_entries > 0 ? capture.ensure(cap_entries) : nullptr;
      if (fused) tp.epi.begin_pass(core.opts.epilogue);
      // Reserve at an optimistic compression ratio to limit regrowth.
      const auto flop =
          static_cast<std::size_t>(core.schedule.capture_flop_bound(owner));
      tp.out_cols.reserve(flop / 4 + 64);
      tp.out_vals.reserve(flop / 4 + 64);
      core.schedule.for_each_tile(owner, [&](const parallel::TileRange& tile) {
        // The tile's columns are staged at the owner's cursor, and its
        // numeric pass compacts its rows from there.
        const std::size_t out = tp.out_cols.size();
        std::size_t stage = out;
        std::size_t cap_used = 0;
        tp.rows.clear();
        symbolic_tile(core, tp, acc, batch, a, b, tile, cap, cap_entries,
                      cap_used, tp.out_cols, c.rpts.data());
        tp.out_vals.resize(tp.out_cols.size());
        const PlannedRow<IT>* rows = tp.rows.data();
        numeric_tile<SR>(core, tp, acc, cap, a, b, tile, rows, tp.out_cols,
                         stage, c, /*in_place=*/false, out);
      });
    });
    return c;
  }
};

// ---- One-shot entry ---------------------------------------------------------

/// The one-shot two-phase product with an explicit accumulator policy.
/// SR: the semiring policy (core/semiring.hpp); PlusTimes is ordinary
/// SpGEMM.  The symbolic phase is algebra-independent.  Runs
/// opts.epilogue, if any, on every row.
template <IndexType IT, ValueType VT, typename Policy,
          typename SR = PlusTimes>
  requires SemiringFor<SR, VT>
CsrMatrix<IT, VT> spgemm_two_phase(const CsrMatrix<IT, VT>& a,
                                   const CsrMatrix<IT, VT>& b,
                                   const SpGemmOptions& opts, Policy policy,
                                   SpGemmStats* stats, SR /*semiring*/ = {}) {
  TELEM_SPAN("oneshot.multiply");
  const int nthreads = parallel::resolve_threads(opts.threads);
  parallel::ScopedNumThreads scoped(opts.threads);

  Timer timer;
  PlanCore<IT, VT> core;
  core.configure(partition_rows(a, b, opts.schedule, nthreads), b.ncols, opts,
                 model::kDefaultReuseBudgetBytes);
  const double setup_s = timer.seconds();

  KernelPlan<IT, VT, Policy> plan(std::move(policy));
  CsrMatrix<IT, VT> c = plan.template multiply_once<SR>(core, a, b);
  timer.reset();
  plan.place_output(core, c, /*adopt=*/true);
  const double place_s = timer.seconds();

  const PassTally t = plan.tally();
  SpGemmStats epi_stats;
  if (opts.epilogue.enabled()) plan.fold_epilogue(epi_stats);
  if (telemetry::enabled()) {
    // The symbolic/numeric phases were timed per tile — feed the measured
    // spans rather than re-timing (capture shows up as the reuse_rows
    // counters, not a separate wall phase).
    telemetry::phase_observe("oneshot.setup", setup_s);
    telemetry::phase_observe("oneshot.symbolic", t.sym_s);
    telemetry::phase_observe("oneshot.numeric", t.num_s);
    telemetry::phase_observe("oneshot.placement", place_s);
  }
  if (stats != nullptr) {
    // The slowest owner's share of each phase; the scan + placement copy
    // fold into the numeric side.
    stats->setup_ms = setup_s * 1e3;
    stats->flop = core.part.total_flop();
    stats->symbolic_ms = t.sym_s * 1e3;
    stats->numeric_ms = (t.num_s + place_s) * 1e3;
    stats->nnz_out = c.rpts[static_cast<std::size_t>(a.nrows)];
    stats->symbolic_probes = t.sym_probes;
    stats->numeric_probes = t.num_probes;
    stats->probes = t.sym_probes + t.num_probes;
    stats->symbolic_keys = t.sym_keys;
    stats->numeric_keys = t.num_keys;
    stats->tile_count = t.tiles;
    stats->reuse_rows_captured = t.captured;
    stats->reuse_rows_total = static_cast<std::size_t>(a.nrows);
    stats->epilogue_rows = epi_stats.epilogue_rows;
    stats->epilogue_ms = epi_stats.epilogue_ms;
  }
  c.sortedness = opts.sort_output == SortOutput::kYes ? Sortedness::kSorted
                                                      : Sortedness::kUnsorted;
  return c;
}

}  // namespace spgemm::detail
