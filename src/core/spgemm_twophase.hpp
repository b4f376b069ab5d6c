// Tiled, structure-reusing two-phase (symbolic + numeric) SpGEMM machinery.
//
// This header holds two things:
//
//   1. The ROW-LEVEL capture/replay primitives (capture_row, count_row,
//      record_gather, replay_row, gather_values, probe_row).  They are the
//      single implementation of the slot-stream protocol shared by the fused
//      one-shot driver below AND by the persistent inspector-executor handle
//      (core/spgemm_handle.hpp) — plan/execute and one-shot multiplies run
//      the exact same per-row code, so their outputs are bit-identical.
//
//   2. The fused one-shot driver spgemm_two_phase(): Gustavson's algorithm
//      (paper Fig. 1) parallelized over rows with the paper's
//      architecture-specific structure:
//        * flop-balanced static row partition (Fig. 6) by default, or a
//          flop-balanced dynamic tile pool for skewed matrices,
//        * one accumulator per thread, allocated inside the owning thread
//          ("parallel" memory scheme, §3.2) and reinitialized per row,
//        * symbolic phase counts nnz per output row, a parallel exclusive
//          scan sizes the output exactly, the numeric phase fills it in
//          place (§2, two-phase strategy).
//      The accumulator type is a template parameter: Hash, HashVector, SPA
//      and the two-level hash map all flow through this one driver, so the
//      kernels differ only in their accumulation data structure — exactly
//      the framing of the paper.
//
// ---- Slot-stream capture protocol -----------------------------------------
//
// capture_row() runs the symbolic insertion loop with insert_tagged(),
// recording slot s (new key) or ~s (duplicate) per scalar product into a
// caller-provided stream.  record_gather() then freezes the per-output-entry
// gather slots (sorted by column when requested) while the accumulator still
// holds the row, and emits the row's column indices.  replay_row() re-reads
// the stream in the numeric phase: one sequential pass, value scattered to
// slot_values()[s] (store when s >= 0, fold when tagged ~s) — zero hash
// probing — and gather_values() pulls the folded row out through the
// recorded slots.  Rows that do not fit the capture budget use count_row()/
// probe_row(): the classic re-probing symbolic/numeric passes.
//
// The replayed value stream folds contributions in exactly the traversal
// order of the classic numeric pass, so captured and re-probed products are
// bit-identical, sorted or unsorted.
//
// ---- Fused tile loop of the one-shot driver -------------------------------
//
// Rows are processed in contiguous row *tiles* under a parallel::
// ExecutionSchedule (tile cuts from SpGemmOptions::tile_rows or the budget
// source; assignment static, dynamic or work-stealing).  For each tile the
// running thread executes the symbolic and numeric passes back to back,
// while the A rows, B rows and the accumulator state for those rows are
// still cache-hot.  Because global row offsets are unknown until every row
// is counted, the numeric pass writes into per-thread staging buffers;
// after a parallel exclusive scan over the per-row counts, a bulk copy
// places each tile's rows at their final offsets.  The staging and final
// arrays are mem::Buffer (default-init), so sizing C costs no zeroing pass
// and each thread's placement copy is the first touch of its pages — the
// multi-thread placement writes nnz(C) once instead of zero-fill + copy.
//
// The driver is a thin client of the schedule: it no longer owns tile cuts
// or claim logic, and it takes the same per-kernel policy objects
// (core/spgemm_policies.hpp) the persistent handle plans with, so one-shot
// and plan/execute products are bit-identical by construction.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "accumulator/row_sort.hpp"
#include "common/cpu_features.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/semiring.hpp"
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

/// Batched variant of count_row(): the resolved slots go to thread scratch
/// (rows over the capture budget need only the count).  insert() and
/// insert_tagged() mutate the table identically, so counts agree.
template <IndexType IT, ValueType VT, typename Acc>
  requires BatchProbe<Acc, IT>
inline void count_row_batch(Acc& acc, const CsrMatrix<IT, VT>& a,
                            const CsrMatrix<IT, VT>& b, std::size_t i,
                            Offset row_flop,
                            mem::ThreadScratch<IT>& key_scratch,
                            mem::ThreadScratch<IT>& slot_scratch) {
  IT* slots = slot_scratch.ensure(static_cast<std::size_t>(row_flop));
  capture_row_batch(acc, a, b, i, row_flop, slots, key_scratch);
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
      SR::add_into(slot_vals[static_cast<std::size_t>(~e)], v);
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

/// Pull a replayed row out of the slot array through its gather list.
template <IndexType IT, ValueType VT>
inline void gather_values(const VT* slot_vals, const IT* gather,
                          std::size_t nnz, VT* out_vals) {
  for (std::size_t t = 0; t < nnz; ++t) {
    out_vals[t] = slot_vals[static_cast<std::size_t>(gather[t])];
  }
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
                     [](VT& fold_acc, VT v) { SR::add_into(fold_acc, v); });
    }
  }
}

// ---- Fused row epilogues ----------------------------------------------------
//
// The epilogue hook runs over each output row right after its numeric pass,
// while the row (and the A/B rows that produced it) are still cache-hot.
// Structural epilogues (kPruneScale, kMaskReduce) compact or consume the row
// in place, so the full intermediate product is never materialized — its
// allocation vanishes from peak RSS.  The spec (EpilogueSpec) rides in
// SpGemmOptions; the typed operands ride here.

/// Typed companions of the untemplated EpilogueSpec: the mask operand of
/// kMaskReduce and the caller's result sink.
template <IndexType IT, ValueType VT>
struct EpilogueContext {
  const CsrMatrix<IT, VT>* mask = nullptr;  ///< kMaskReduce: mask matrix
  EpilogueResult* result = nullptr;         ///< optional scalar-output sink
};

/// Per-thread epilogue scratch and partial results.  mask_dense mirrors
/// matrix/ops.hpp masked_sum's dense scatter row (restored to zero after
/// every row); reduce/col_sums are partials folded in thread order after the
/// parallel region.
struct EpilogueState {
  std::vector<double> mask_dense;
  std::vector<double> col_sums;
  double reduce = 0.0;
  std::uint64_t rows = 0;
  double seconds = 0.0;

  void begin_pass(const EpilogueSpec& spec, std::size_t ncols) {
    reduce = 0.0;
    rows = 0;
    seconds = 0.0;
    if (spec.kind == EpilogueKind::kMaskReduce) {
      if (mask_dense.size() < ncols) mask_dense.assign(ncols, 0.0);
    } else if (spec.kind == EpilogueKind::kPruneScale &&
               spec.collect_column_sums) {
      col_sums.assign(ncols, 0.0);
    }
  }
};

/// Process-wide mirror of SpGemmStats::epilogue_rows, by epilogue kind.
struct EpilogueTelemetry {
  telemetry::Counter& prune_scale_rows;
  telemetry::Counter& mask_reduce_rows;
  telemetry::Counter& rap_rows;
  static EpilogueTelemetry& get() {
    auto& reg = telemetry::registry();
    static EpilogueTelemetry t{
        reg.counter("spgemm_epilogue_rows_total",
                    "Rows processed by a fused epilogue, by kind.", "kind",
                    "prune_scale"),
        reg.counter("spgemm_epilogue_rows_total",
                    "Rows processed by a fused epilogue, by kind.", "kind",
                    "mask_reduce"),
        reg.counter("spgemm_epilogue_rows_total",
                    "Rows processed by a fused epilogue, by kind.", "kind",
                    "rap")};
    return t;
  }
  telemetry::Counter& for_kind(EpilogueKind k) {
    switch (k) {
      case EpilogueKind::kMaskReduce:
        return mask_reduce_rows;
      case EpilogueKind::kRap:
        return rap_rows;
      default:
        return prune_scale_rows;
    }
  }
};

/// Apply the fused epilogue to one computed row i.  Reads `nnz` entries from
/// (cols_src, vals_src) and writes the kept entries to (cols_dst, vals_dst);
/// dst may alias src at a LOWER offset (forward compaction: the t-th source
/// entry is read before the kept-th destination entry is written, and
/// kept <= t always).  Returns the kept count.
///
/// kPruneScale transforms each value by pow(v, inflation) and keeps it iff
/// the transformed value is >= prune_below — the same per-element transform,
/// threshold, and emission order as apps inflate_and_prune, so the fused
/// output is bit-identical to unfused-then-postprocessed.  kMaskReduce
/// scatters the row into a dense scratch, sums the entries at the mask row's
/// positions into the thread partial (exactly masked_sum's per-row walk) and
/// keeps nothing.
template <IndexType IT, ValueType VT>
inline std::size_t apply_row_epilogue(const EpilogueSpec& spec,
                                      const EpilogueContext<IT, VT>& ctx,
                                      EpilogueState& state, std::size_t i,
                                      const IT* cols_src, const VT* vals_src,
                                      std::size_t nnz, IT* cols_dst,
                                      VT* vals_dst) {
  ++state.rows;
  switch (spec.kind) {
    case EpilogueKind::kPruneScale: {
      std::size_t kept = 0;
      const bool collect = spec.collect_column_sums;
      for (std::size_t t = 0; t < nnz; ++t) {
        const auto v = static_cast<VT>(
            std::pow(static_cast<double>(vals_src[t]), spec.inflation));
        if (static_cast<double>(v) >= spec.prune_below) {
          const IT col = cols_src[t];
          cols_dst[kept] = col;
          vals_dst[kept] = v;
          if (collect) {
            state.col_sums[static_cast<std::size_t>(col)] +=
                static_cast<double>(v);
          }
          ++kept;
        }
      }
      return kept;
    }
    case EpilogueKind::kMaskReduce: {
      const CsrMatrix<IT, VT>& mask = *ctx.mask;
      double* dense = state.mask_dense.data();
      for (std::size_t t = 0; t < nnz; ++t) {
        dense[static_cast<std::size_t>(cols_src[t])] =
            static_cast<double>(vals_src[t]);
      }
      for (Offset j = mask.row_begin(static_cast<IT>(i));
           j < mask.row_end(static_cast<IT>(i)); ++j) {
        state.reduce +=
            dense[static_cast<std::size_t>(mask.cols[static_cast<std::size_t>(j)])];
      }
      for (std::size_t t = 0; t < nnz; ++t) {
        dense[static_cast<std::size_t>(cols_src[t])] = 0.0;
      }
      return 0;
    }
    default: {
      if (cols_dst != cols_src) {
        std::copy_n(cols_src, nnz, cols_dst);
        std::copy_n(vals_src, nnz, vals_dst);
      }
      return nnz;
    }
  }
}

/// Fold per-thread epilogue partials in ascending thread order — under the
/// static partition that is ascending row-range order, so the fold is
/// deterministic for a fixed thread count.  It is NOT bitwise equal to a
/// sequential scan of the output (floating-point addition is not
/// associative); see README "Fused epilogues" for the caveat.  `state_of(t)`
/// returns thread t's EpilogueState.
template <typename GetState>
inline void fold_epilogue_partials(const EpilogueSpec& spec, int nthreads,
                                   std::size_t ncols, GetState&& state_of,
                                   EpilogueResult* result,
                                   std::uint64_t& rows_out,
                                   double& max_seconds_out) {
  rows_out = 0;
  max_seconds_out = 0.0;
  for (int t = 0; t < nthreads; ++t) {
    const EpilogueState& st = state_of(t);
    rows_out += st.rows;
    max_seconds_out = std::max(max_seconds_out, st.seconds);
  }
  if (result == nullptr) return;
  result->reset(spec.kind == EpilogueKind::kPruneScale &&
                        spec.collect_column_sums
                    ? ncols
                    : 0);
  result->rows = rows_out;
  for (int t = 0; t < nthreads; ++t) {
    const EpilogueState& st = state_of(t);
    result->reduce += st.reduce;
    if (!result->col_sums.empty() && !st.col_sums.empty()) {
      for (std::size_t cidx = 0; cidx < result->col_sums.size(); ++cidx) {
        result->col_sums[cidx] += st.col_sums[cidx];
      }
    }
  }
}

/// True when the spec's kind runs through the per-row hook of the two-phase
/// paths (kRap is executed by multiply_rap(), not the hook).
inline bool epilogue_fuses_rows(const EpilogueSpec& spec) {
  return spec.kind == EpilogueKind::kPruneScale ||
         spec.kind == EpilogueKind::kMaskReduce;
}

/// Shared argument validation of the two fused paths.
template <IndexType IT, ValueType VT>
inline void validate_epilogue(const EpilogueSpec& spec,
                              const EpilogueContext<IT, VT>& ctx,
                              const CsrMatrix<IT, VT>& a,
                              const CsrMatrix<IT, VT>& b) {
  if (spec.kind != EpilogueKind::kMaskReduce) return;
  if (ctx.mask == nullptr) {
    throw std::invalid_argument(
        "epilogue: kMaskReduce requires a mask matrix (EpilogueContext::mask "
        "/ SpGemmHandle::set_epilogue_mask)");
  }
  if (ctx.mask->nrows != a.nrows || ctx.mask->ncols != b.ncols) {
    throw std::invalid_argument("epilogue: mask dimensions mismatch product");
  }
}

// ---- Shared tiling/capture configuration ----------------------------------

/// Resolved tiling and capture-budget configuration.  One resolution serves
/// both the fused one-shot driver below and SpGemmHandle::plan(), so the
/// two paths can never disagree on tile cuts or capture gating.
struct TileConfig {
  std::size_t budget_entries = 0;  ///< capture slots per thread
  bool capture_enabled = false;
  /// Requested batching mode for the symbolic/capture path; kAuto defers
  /// to each thread accumulator's table-size gate (thread_batches()).
  ProbeBatch probe_batching = ProbeBatch::kAuto;
  std::size_t tile_rows = 0;     ///< row cap per tile
  Offset tile_flop_target = 0;   ///< flop cut target; 0 = row cap only
};

/// `default_budget_bytes` distinguishes the one-shot (cache-resident) from
/// the persistent-plan capture economics; an explicit
/// opts.reuse_budget_bytes overrides either, and BudgetSource::kMemoryModel
/// derives both the budget and the tile size from the modeled fast tier.
inline TileConfig resolve_tile_config(const parallel::RowPartition& part,
                                      const SpGemmOptions& opts,
                                      std::size_t nrows,
                                      std::size_t default_budget_bytes,
                                      std::size_t bytes_per_slot) {
  TileConfig cfg;
  cfg.probe_batching = opts.probe_batching;
  std::size_t budget_bytes = opts.reuse_budget_bytes;
  std::size_t derived_tile_rows = 0;
  if (opts.budget_source == BudgetSource::kMemoryModel) {
    const model::ScheduleBudgets budgets = model::derive_schedule_budgets(
        opts.fast_tier, part.threads(), part.total_flop(), nrows,
        bytes_per_slot);
    if (budget_bytes == 0) budget_bytes = budgets.capture_budget_bytes;
    derived_tile_rows = budgets.tile_rows;
  } else {
    if (budget_bytes == 0) budget_bytes = default_budget_bytes;
    derived_tile_rows = model::choose_tile_rows(part.total_flop(), nrows,
                                                budget_bytes, bytes_per_slot);
  }
  // kAuto decides before any symbolic pass has run, so it uses the model's
  // a-priori collision factor; plan-driven callers (SpGemmHandle::
  // reuse_pays) substitute the measured value instead.
  cfg.capture_enabled =
      opts.reuse == StructureReuse::kOn ||
      (opts.reuse == StructureReuse::kAuto &&
       model::reuse_pays(model::kDefaultCollisionFactor, budget_bytes));
  cfg.budget_entries = budget_bytes / bytes_per_slot;
  if (opts.tile_rows > 0) {
    // An explicit tile_rows is a user contract: exact row cuts, no flop cut.
    cfg.tile_rows = opts.tile_rows;
  } else {
    cfg.tile_rows = derived_tile_rows;
    // Budget-derived tiles are additionally flop-balanced so one dense row
    // cannot stall a tile's runner for long (the row cap still bounds the
    // bookkeeping of tiles full of empty rows).
    const double avg_row_flop =
        nrows > 0 ? static_cast<double>(part.total_flop()) /
                        static_cast<double>(nrows)
                  : 0.0;
    cfg.tile_flop_target = static_cast<Offset>(std::max(
        1.0, avg_row_flop * static_cast<double>(cfg.tile_rows)));
  }
  return cfg;
}

/// Build the ExecutionSchedule for one resolved configuration.
inline void build_schedule(parallel::ExecutionSchedule& schedule,
                           const parallel::RowPartition& part,
                           const SpGemmOptions& opts, const TileConfig& cfg) {
  schedule.build(part, opts.tile_schedule, cfg.tile_rows,
                 cfg.tile_flop_target);
}

// ---- Fused one-shot driver ------------------------------------------------

/// Per-row capture record within the current tile.
template <IndexType IT>
struct RowCapture {
  std::size_t stage_off = 0;  ///< row start in the thread staging buffers
  std::size_t cap_off = 0;    ///< slot-stream start in the capture buffer
  IT nnz = 0;
  bool captured = false;
  bool sorted = false;  ///< columns emitted in ascending order
};

/// One processed tile, remembered for the final placement copy.
struct TileRecord {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::size_t stage_begin = 0;
};

/// Policy: one of the per-kernel accumulator policies of
/// core/spgemm_policies.hpp (make / prepare / begin_row).
/// SR: the semiring policy (core/semiring.hpp); PlusTimes is ordinary
/// SpGEMM.  The symbolic phase is algebra-independent.
template <IndexType IT, ValueType VT, typename Policy,
          typename SR = PlusTimes>
  requires SemiringFor<SR, VT>
CsrMatrix<IT, VT> spgemm_two_phase(const CsrMatrix<IT, VT>& a,
                                   const CsrMatrix<IT, VT>& b,
                                   const SpGemmOptions& opts, Policy policy,
                                   SpGemmStats* stats, SR /*semiring*/ = {},
                                   const EpilogueContext<IT, VT>* epi =
                                       nullptr) {
  TELEM_SPAN("oneshot.multiply");
  const int nthreads = parallel::resolve_threads(opts.threads);
  parallel::ScopedNumThreads scoped(opts.threads);

  Timer timer;
  const auto nrows = static_cast<std::size_t>(a.nrows);
  parallel::RowPartition part =
      parallel::is_balanced(opts.schedule)
          ? parallel::rows_to_threads(nrows, a.rpts.data(), a.cols.data(),
                                      b.rpts.data(), nthreads)
          : parallel::rows_equal(nrows, a.rpts.data(), a.cols.data(),
                                 b.rpts.data(), nthreads);

  // ---- Resolve the tiling/reuse configuration and cut the schedule. ------
  const TileConfig cfg = resolve_tile_config(
      part, opts, nrows, model::kDefaultReuseBudgetBytes, sizeof(IT));
  const bool reuse_enabled = cfg.capture_enabled;
  const std::size_t budget_entries = cfg.budget_entries;
  // Resolve the replay execution tier ONCE (env + ISA clamping); the
  // parallel loops below dispatch on plain values.  The batching decision
  // is per thread (its accumulator's table size is not known until
  // prepare()).
  constexpr bool kPolicyBatches = BatchProbe<typename Policy::Acc, IT>;
  const ProbeKind replay_kind = resolve_probe_kind(opts.probe);
  parallel::ExecutionSchedule schedule;
  build_schedule(schedule, part, opts, cfg);
  const bool static_tiles =
      opts.tile_schedule == parallel::TileSchedule::kStatic;

  // ---- Fused epilogue wiring (see "Fused row epilogues" above). ----------
  const EpilogueSpec& espec = opts.epilogue;
  const bool fused = epilogue_fuses_rows(espec);
  const EpilogueContext<IT, VT> no_epi_ctx{};
  const EpilogueContext<IT, VT>& ectx = epi != nullptr ? *epi : no_epi_ctx;
  if (fused) validate_epilogue(espec, ectx, a, b);
  std::vector<EpilogueState> epi_states(
      fused ? static_cast<std::size_t>(nthreads) : 0);

  const double setup_s = timer.seconds();
  if (stats != nullptr) {
    stats->setup_ms = setup_s * 1e3;
    stats->flop = part.total_flop();
  }

  CsrMatrix<IT, VT> c(a.nrows, b.ncols);

  // Per-thread staging (cols/vals in processing order) and tile records for
  // the placement copy; inner buffers grow inside the owning thread.
  std::vector<mem::Buffer<IT>> staged_cols(
      static_cast<std::size_t>(nthreads));
  std::vector<mem::Buffer<VT>> staged_vals(
      static_cast<std::size_t>(nthreads));
  std::vector<std::vector<TileRecord>> records(
      static_cast<std::size_t>(nthreads));
  std::vector<double> sym_seconds(static_cast<std::size_t>(nthreads), 0.0);
  std::vector<double> num_seconds(static_cast<std::size_t>(nthreads), 0.0);

  std::atomic<std::uint64_t> total_sym_probes{0};
  std::atomic<std::uint64_t> total_num_probes{0};
  std::atomic<std::uint64_t> total_sym_keys{0};
  std::atomic<std::uint64_t> total_num_keys{0};
  std::atomic<std::uint64_t> total_tiles{0};
  std::atomic<std::uint64_t> total_rows_captured{0};

  timer.reset();
#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    if (tid < part.threads()) {
      const auto utid = static_cast<std::size_t>(tid);
      auto acc = policy.make();
      policy.prepare(acc, schedule.sizing_max_row_flop(tid), b.ncols);
      const bool batch_probes =
          kPolicyBatches && thread_batches(cfg.probe_batching, acc);

      auto& scols = staged_cols[utid];
      auto& svals = staged_vals[utid];
      auto& recs = records[utid];
      EpilogueState* est = fused ? &epi_states[utid] : nullptr;
      if (est != nullptr) {
        est->begin_pass(espec, static_cast<std::size_t>(b.ncols));
      }
      if (static_tiles) {
        // Reserve at an optimistic compression ratio to limit regrowth.
        const std::size_t thread_flop = static_cast<std::size_t>(
            part.flop_prefix[part.offsets[utid + 1]] -
            part.flop_prefix[part.offsets[utid]]);
        scols.reserve(thread_flop / 4 + 64);
        svals.reserve(thread_flop / 4 + 64);
      }

      // A tile never records more than 2 * its flop in slots, so small
      // products need far less scratch than the full budget.
      const auto capture_flop_bound =
          static_cast<std::size_t>(schedule.capture_flop_bound(tid));
      const std::size_t capture_entries =
          std::min(budget_entries, 2 * capture_flop_bound + 16);
      mem::ThreadScratch<IT> capture_scratch;
      IT* cap =
          reuse_enabled ? capture_scratch.ensure(capture_entries) : nullptr;
      // Stanza key buffer (and count-path slot sink) of the batched probing
      // pipeline; grow-only per row.
      mem::ThreadScratch<IT> key_scratch;
      mem::ThreadScratch<IT> count_slot_scratch;
      std::vector<RowCapture<IT>> meta;

      std::uint64_t last_probes = acc.probes();
      std::uint64_t last_keys = keys_resolved_of(acc);
      std::uint64_t sym_probes = 0;
      std::uint64_t num_probes = 0;
      std::uint64_t sym_keys = 0;
      std::uint64_t num_keys = 0;
      std::uint64_t tiles_done = 0;
      std::uint64_t rows_captured = 0;
      Timer tile_timer;

      const auto process_tile = [&](std::size_t r0, std::size_t r1) {
        meta.assign(r1 - r0, RowCapture<IT>{});
        const std::size_t stage_begin = scols.size();
        std::size_t cap_used = 0;
        std::size_t stage_off = stage_begin;

        // ---- Symbolic over the tile. ---------------------------------
        tile_timer.reset();
        for (std::size_t i = r0; i < r1; ++i) {
          RowCapture<IT>& row = meta[i - r0];
          const Offset row_flop =
              part.flop_prefix[i + 1] - part.flop_prefix[i];
          const bool force_sorted = policy.begin_row(acc, row_flop);
          row.sorted =
              opts.sort_output == SortOutput::kYes || force_sorted;
          row.captured =
              reuse_enabled &&
              cap_used + 2 * static_cast<std::size_t>(row_flop) <=
                  capture_entries;
          row.stage_off = stage_off;
          row.cap_off = cap_used;
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
            // Gather slots (and final column order) are fixed now, while
            // the accumulator still holds the row.
            scols.resize(stage_off + nnz);
            record_gather(acc, nnz, row.sorted, cap + cap_used + ns,
                          scols.data() + stage_off);
            cap_used += ns + nnz;
            ++rows_captured;
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
            row.nnz = static_cast<IT>(acc.count());
            scols.resize(stage_off + static_cast<std::size_t>(row.nnz));
          }
          c.rpts[i] = static_cast<Offset>(row.nnz);
          stage_off += static_cast<std::size_t>(row.nnz);
          acc.reset();
        }
        sym_seconds[utid] += tile_timer.seconds();
        {
          const std::uint64_t cur = acc.probes();
          sym_probes += cur - last_probes;
          last_probes = cur;
          const std::uint64_t cur_keys = keys_resolved_of(acc);
          sym_keys += cur_keys - last_keys;
          last_keys = cur_keys;
        }

        // ---- Numeric over the tile (A/B rows still cache-hot). -------
        tile_timer.reset();
        svals.resize(scols.size());
        // Fused epilogues compact each finished row forward to `compact`,
        // so only the kept entries survive the tile (the full row lives
        // exactly as long as it is cache-hot).
        std::size_t compact = stage_begin;
        for (std::size_t i = r0; i < r1; ++i) {
          const RowCapture<IT>& row = meta[i - r0];
          const Offset row_flop =
              part.flop_prefix[i + 1] - part.flop_prefix[i];
          policy.begin_row(acc, row_flop);
          if (row.captured) {
            const IT* slot_stream = cap + row.cap_off;
            const std::size_t ns =
                replay_row<SR>(acc, a, b, i, slot_stream, replay_kind);
            gather_values(static_cast<const VT*>(acc.slot_values()),
                          slot_stream + ns,
                          static_cast<std::size_t>(row.nnz),
                          svals.data() + row.stage_off);
          } else {
            probe_row<SR>(acc, a, b, i);
            IT* out_cols = scols.data() + row.stage_off;
            VT* out_vals = svals.data() + row.stage_off;
            if (row.sorted) {
              acc.extract_sorted(out_cols, out_vals);
            } else {
              acc.extract_unsorted(out_cols, out_vals);
            }
            acc.reset();
          }
          if (est != nullptr) {
            const std::uint64_t t0 = monotonic_ns();
            const std::size_t kept = apply_row_epilogue(
                espec, ectx, *est, i, scols.data() + row.stage_off,
                svals.data() + row.stage_off,
                static_cast<std::size_t>(row.nnz), scols.data() + compact,
                svals.data() + compact);
            est->seconds +=
                static_cast<double>(monotonic_ns() - t0) * 1e-9;
            c.rpts[i] = static_cast<Offset>(kept);
            compact += kept;
          }
        }
        if (est != nullptr) {
          scols.resize(compact);
          svals.resize(compact);
        }
        num_seconds[utid] += tile_timer.seconds();
        {
          const std::uint64_t cur = acc.probes();
          num_probes += cur - last_probes;
          last_probes = cur;
          const std::uint64_t cur_keys = keys_resolved_of(acc);
          num_keys += cur_keys - last_keys;
          last_keys = cur_keys;
        }

        recs.push_back({r0, r1, stage_begin});
        ++tiles_done;
      };

      schedule.for_each_tile(
          tid, [&](std::size_t /*index*/, const parallel::TileRange& tile,
                   bool /*stolen*/) {
            process_tile(tile.row_begin, tile.row_end);
          });

      total_sym_probes.fetch_add(sym_probes, std::memory_order_relaxed);
      total_num_probes.fetch_add(num_probes, std::memory_order_relaxed);
      total_sym_keys.fetch_add(sym_keys, std::memory_order_relaxed);
      total_num_keys.fetch_add(num_keys, std::memory_order_relaxed);
      total_tiles.fetch_add(tiles_done, std::memory_order_relaxed);
      total_rows_captured.fetch_add(rows_captured,
                                    std::memory_order_relaxed);
    }
  }

  // ---- Size the output: parallel exclusive scan over per-row counts. -----
  Timer place_timer;
  c.rpts[nrows] = 0;
  parallel::exclusive_scan_inplace(c.rpts.data(), nrows + 1);

  if (nthreads == 1) {
    // One thread processes every tile in row order, so its staging buffers
    // ARE the final cols/vals: adopt them and skip the placement copy
    // entirely.
    c.cols = std::move(staged_cols[0]);
    c.vals = std::move(staged_vals[0]);
  } else {
    const auto nnz_c = static_cast<std::size_t>(c.rpts[nrows]);
    // Default-init resize: no zeroing pass; the placement copies below are
    // the first touch of every page, in the thread that owns the tile.
    c.cols.resize(nnz_c);
    c.vals.resize(nnz_c);

    // ---- Place every staged tile at its final offset (bulk copies). ------
#pragma omp parallel num_threads(nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < part.threads()) {
        const auto utid = static_cast<std::size_t>(tid);
        for (const TileRecord& rec : records[utid]) {
          const auto dst = static_cast<std::size_t>(c.rpts[rec.row_begin]);
          const auto len =
              static_cast<std::size_t>(c.rpts[rec.row_end]) - dst;
          std::copy_n(staged_cols[utid].data() + rec.stage_begin, len,
                      c.cols.data() + dst);
          std::copy_n(staged_vals[utid].data() + rec.stage_begin, len,
                      c.vals.data() + dst);
        }
      }
    }
  }
  const double place_ms = place_timer.millis();

  // Slowest thread's share of each interleaved phase (the phases fuse per
  // tile, so per-thread accumulation is the only attribution available).
  double sym_s = 0.0;
  double num_s = 0.0;
  for (int t = 0; t < nthreads; ++t) {
    sym_s = std::max(sym_s, sym_seconds[static_cast<std::size_t>(t)]);
    num_s = std::max(num_s, num_seconds[static_cast<std::size_t>(t)]);
  }

  // ---- Fold per-thread epilogue partials (ascending thread order, which
  // is ascending row-range order under the static partition). ------------
  double epi_s = 0.0;
  std::uint64_t epi_rows = 0;
  if (fused) {
    fold_epilogue_partials(
        espec, nthreads, static_cast<std::size_t>(b.ncols),
        [&](int t) -> const EpilogueState& {
          return epi_states[static_cast<std::size_t>(t)];
        },
        ectx.result, epi_rows, epi_s);
    if (telemetry::enabled()) {
      EpilogueTelemetry::get().for_kind(espec.kind).add(epi_rows);
      telemetry::phase_observe("epilogue", epi_s);
    }
  }

  if (telemetry::enabled()) {
    // The symbolic/numeric phases were already timed per tile above — feed
    // the measured spans rather than re-timing (capture shows up as the
    // reuse_rows counters, not a separate wall phase).
    telemetry::phase_observe("oneshot.setup", setup_s);
    telemetry::phase_observe("oneshot.symbolic", sym_s);
    telemetry::phase_observe("oneshot.numeric", num_s);
    telemetry::phase_observe("oneshot.placement", place_ms * 1e-3);
  }

  if (stats != nullptr) {
    // Report the slowest thread's share of each phase and fold the scan +
    // placement copy into the numeric side.
    stats->symbolic_ms = sym_s * 1e3;
    stats->numeric_ms = num_s * 1e3 + place_ms;
    stats->nnz_out = c.rpts[nrows];
    stats->symbolic_probes =
        total_sym_probes.load(std::memory_order_relaxed);
    stats->numeric_probes = total_num_probes.load(std::memory_order_relaxed);
    stats->probes = stats->symbolic_probes + stats->numeric_probes;
    stats->symbolic_keys = total_sym_keys.load(std::memory_order_relaxed);
    stats->numeric_keys = total_num_keys.load(std::memory_order_relaxed);
    stats->tile_count = total_tiles.load(std::memory_order_relaxed);
    stats->tile_steals = schedule.steals();
    stats->reuse_rows_captured =
        total_rows_captured.load(std::memory_order_relaxed);
    stats->reuse_rows_total = nrows;
    stats->epilogue_rows = epi_rows;
    stats->epilogue_ms = epi_s * 1e3;
  }

  c.sortedness = opts.sort_output == SortOutput::kYes
                     ? Sortedness::kSorted
                     : Sortedness::kUnsorted;
  return c;
}

}  // namespace spgemm::detail
