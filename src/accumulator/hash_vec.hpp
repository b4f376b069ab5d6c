// Chunked, SIMD-probed hash accumulator — the HashVector algorithm
// (paper §4.2.2, Fig. 8b; probing scheme after Ross [28]).
//
// The table is an array of 64-byte chunks of int32 keys (16 on AVX-512,
// 8 on AVX2, and an 8-wide scalar emulation otherwise).  The hash selects a
// chunk; one vector compare tests every key in it, a second compare against
// the empty marker (-1) finds free slots.  Entries fill each chunk from the
// front, so a chunk with free space that does not contain the key proves the
// key absent — probing can stop.  Collisions spill to the next chunk
// (linear probing over chunks).
//
// ---- Batched multi-key probing --------------------------------------------
//
// insert_tagged() resolves ONE key per probe round, which leaves the vector
// units idle between chunk compares and exposes every chunk line load's full
// latency.  insert_tagged_batch() resolves a whole key stream instead:
//
//   * the hash of a full vector register of keys is computed at once
//     (32-bit multiplicative hashing vectorizes exactly because the chunk
//     mask fits 32 bits),
//   * the home chunk line of every key in the NEXT block is prefetched
//     while the current block resolves — the software pipeline that hides
//     the table's DRAM/L2 latency, which dominates the symbolic phase at
//     scale (Deveci et al., 1801.03065),
//   * duplicate keys in flight inside a block are found up front —
//     _mm512_conflict_epi32 on AVX-512, a lane-rotation compare ladder on
//     AVX2 — and resolved by copying the earlier lane's slot instead of
//     re-walking the table.
//
// Lanes still RESOLVE strictly in stream order (each walk sees every earlier
// insertion), so the slot assignments, the touched-slot order, and therefore
// every downstream capture/replay artifact are bit-identical to n sequential
// insert_tagged() calls.  The duplicate shortcut is sound for the same
// reason: a later occurrence of a key always finds it at the slot the first
// occurrence claimed.
//
// Only int32 keys are SIMD-accelerated; other index types use the scalar
// chunk walk (same layout, same semantics), keeping the kernel generic.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "accumulator/hash_table.hpp"
#include "accumulator/row_sort.hpp"
#include "common/cpu_features.hpp"
#include "common/types.hpp"
#include "mem/workspace.hpp"

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace spgemm {

template <IndexType IT, ValueType VT>
class HashVecAccumulator {
 public:
  static constexpr IT kEmpty = static_cast<IT>(-1);
  /// Keys per chunk: one 64-byte cache line of int32 keys.
  static constexpr std::size_t kChunk = 64 / sizeof(std::int32_t);

  explicit HashVecAccumulator(ProbeKind probe = ProbeKind::kAuto) {
    set_probe_kind(probe);
  }

  /// Resolution happens HERE (plus construction), never in the probe loop:
  /// the chunk walk and the batch dispatch switch on a pre-resolved member,
  /// so the hot path carries no kAuto/ISA-ceiling re-evaluation.
  void set_probe_kind(ProbeKind probe) {
    resolved_ = resolve_probe_kind(probe);
  }

  [[nodiscard]] ProbeKind probe_kind() const { return resolved_; }

  /// Prepare at least `size` key slots (rounded to whole chunks, power-of-
  /// two chunk count).  Same grow-only contract as HashAccumulator.
  void prepare(std::size_t size) {
    std::size_t chunks = std::bit_ceil(
        std::max<std::size_t>((size + kChunk - 1) / kChunk, 2));
    const std::size_t slots = chunks * kChunk;
    keys_ = keys_scratch_.ensure(slots);
    vals_ = vals_scratch_.ensure(slots);
    touched_ = touched_scratch_.ensure(slots);
    if (slots > initialized_) {
      std::fill(keys_, keys_ + slots, kEmpty);
      initialized_ = slots;
    } else if (count_ > 0) {
      reset();
    }
    chunk_mask_ = chunks - 1;
    table_slots_ = slots;
    count_ = 0;
  }

  /// Whether batched probing pays on this table under ProbeBatch::kAuto
  /// (see accumulator/hash_table.hpp, kBatchMinTableBytes).
  [[nodiscard]] bool batch_worthwhile() const {
    return table_slots_ * sizeof(IT) >= kBatchMinTableBytes;
  }

  bool insert(IT key) {
    ++keys_resolved_;
    std::int64_t slot = find_or_claim(key);
    if (slot < 0) return false;  // already present
    touched_[count_++] = static_cast<IT>(slot);
    return true;
  }

  /// Capture variant of insert(): slot s (>= 0) when newly inserted, ~s
  /// when already present (find_or_claim's -(s+1) encoding is exactly ~s).
  IT insert_tagged(IT key) {
    ++keys_resolved_;
    std::int64_t slot = find_or_claim(key);
    if (slot >= 0) touched_[count_++] = static_cast<IT>(slot);
    return static_cast<IT>(slot);
  }

  /// Batched capture: resolves keys[0..n) exactly as n sequential
  /// insert_tagged() calls would — identical slot assignments, identical
  /// touched order, identical tagged encoding in slots_out — but amortized:
  /// vectorized hashing, chunk-line prefetch one block ahead, and in-flight
  /// duplicates short-circuited to the earlier lane's result.
  void insert_tagged_batch(const IT* keys, std::size_t n, IT* slots_out) {
    keys_resolved_ += n;
    if constexpr (std::is_same_v<IT, std::int32_t>) {
      switch (resolved_) {
#if defined(__AVX512F__)
        case ProbeKind::kAvx512:
          batch_avx512(keys, n, slots_out);
          return;
#endif
#if defined(__AVX2__)
        case ProbeKind::kAvx2:
          batch_avx2(keys, n, slots_out);
          return;
#endif
        default:
          break;
      }
    }
    batch_scalar(keys, n, slots_out);
  }

  [[nodiscard]] VT* slot_values() { return vals_; }

  [[nodiscard]] IT touched_slot(std::size_t i) const { return touched_[i]; }

  [[nodiscard]] IT key_at_slot(IT slot) const {
    return keys_[static_cast<std::size_t>(slot)];
  }

  template <typename Fold>
  void accumulate(IT key, VT value, Fold fold) {
    ++keys_resolved_;
    std::int64_t slot = find_or_claim(key);
    if (slot < 0) {
      fold(vals_[static_cast<std::size_t>(-slot - 1)], value);
    } else {
      vals_[static_cast<std::size_t>(slot)] = value;
      touched_[count_++] = static_cast<IT>(slot);
    }
  }

  void accumulate(IT key, VT value) {
    accumulate(key, value, [](VT& acc, VT v) { acc += v; });
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  void extract_unsorted(IT* out_cols, VT* out_vals) const {
    for (std::size_t i = 0; i < count_; ++i) {
      const auto pos = static_cast<std::size_t>(touched_[i]);
      out_cols[i] = keys_[pos];
      out_vals[i] = vals_[pos];
    }
  }

  void extract_keys(IT* out_cols) const {
    for (std::size_t i = 0; i < count_; ++i) {
      out_cols[i] = keys_[static_cast<std::size_t>(touched_[i])];
    }
  }

  void extract_sorted(IT* out_cols, VT* out_vals) {
    extract_unsorted(out_cols, out_vals);
    sort_row(out_cols, out_vals, count_);
  }

  void reset() {
    for (std::size_t i = 0; i < count_; ++i) {
      keys_[static_cast<std::size_t>(touched_[i])] = kEmpty;
    }
    count_ = 0;
  }

  /// Probe ROUNDS: chunk lines visited.  One batched round resolves a key
  /// exactly like one per-key round, but duplicate-in-flight shortcuts skip
  /// rounds entirely — compare keys_resolved() for work normalization.
  [[nodiscard]] std::uint64_t probes() const { return probes_; }

  /// Keys resolved (insert/accumulate requests), batched or not.
  [[nodiscard]] std::uint64_t keys_resolved() const { return keys_resolved_; }

 private:
  /// Core probe: returns the claimed slot index (>= 0) when the key was
  /// inserted, or -(slot+1) when the key already lives at `slot`.
  std::int64_t find_or_claim(IT key) {
    return find_or_claim_from(chunk_of(key), key);
  }

  std::int64_t find_or_claim_from(std::size_t chunk, IT key) {
    while (true) {
      ++probes_;
      const std::size_t base = chunk * kChunk;
      int found = -1;
      int first_empty = -1;
      if constexpr (std::is_same_v<IT, std::int32_t>) {
        probe_chunk_simd(base, key, found, first_empty);
      } else {
        probe_chunk_scalar(base, key, found, first_empty);
      }
      if (found >= 0) {
        return -static_cast<std::int64_t>(base + static_cast<std::size_t>(
                                                     found)) -
               1;
      }
      if (first_empty >= 0) {
        const std::size_t slot =
            base + static_cast<std::size_t>(first_empty);
        keys_[slot] = key;
        return static_cast<std::int64_t>(slot);
      }
      chunk = (chunk + 1) & chunk_mask_;
    }
  }

  /// Resolve one batch lane whose home chunk is already computed (and whose
  /// chunk line was prefetched a block ago): the tagged-slot result plus the
  /// touched-list append of insert_tagged().
  IT resolve_lane(std::size_t chunk, IT key) {
    const std::int64_t slot = find_or_claim_from(chunk, key);
    if (slot >= 0) touched_[count_++] = static_cast<IT>(slot);
    return static_cast<IT>(slot);
  }

  /// Finish a batch lane from merged hit/empty masks of one chunk probe,
  /// with no data-dependent branch.  A mixed found/new stream makes the
  /// probe outcome unpredictable, so the per-key walk eats a pipeline
  /// flush per key; here the outcome steers only selects.  The state
  /// transition is identical to insert_tagged(): storing the key over
  /// itself on a hit is a value-level no-op, and the speculative touched_
  /// write lands at count_, which the table-size policy (strictly greater
  /// than the distinct-key bound) keeps in bounds.
  /// `m = hit | empty` must be nonzero; `pos` is its lowest set lane.
  IT finish_lane(std::size_t slot, unsigned hit, unsigned pos, IT key) {
    const bool found = ((hit >> pos) & 1u) != 0;
    keys_[slot] = key;
    touched_[count_] = static_cast<IT>(slot);
    count_ += static_cast<std::size_t>(!found);
    const IT s = static_cast<IT>(slot);
    return found ? static_cast<IT>(~s) : s;
  }

#if defined(__AVX512F__)
  /// Branchless batched walk, 512-bit probe: one round per chunk, a single
  /// well-predicted branch for the rare spill to the next chunk.
  IT resolve_lane_avx512(std::size_t chunk, std::int32_t key) {
    const __m512i kv = _mm512_set1_epi32(key);
    const __m512i ev = _mm512_set1_epi32(-1);
    while (true) {
      ++probes_;
      const std::size_t base = chunk * kChunk;
      const __m512i line = _mm512_loadu_si512(
          reinterpret_cast<const void*>(keys_ + base));
      const auto hit =
          static_cast<unsigned>(_mm512_cmpeq_epi32_mask(line, kv));
      const unsigned m =
          hit | static_cast<unsigned>(_mm512_cmpeq_epi32_mask(line, ev));
      if (m != 0) [[likely]] {
        const auto pos = static_cast<unsigned>(std::countr_zero(m));
        return finish_lane(base + pos, hit, pos, key);
      }
      chunk = (chunk + 1) & chunk_mask_;
    }
  }
#endif

#if defined(__AVX2__)
  /// Branchless batched walk, 256-bit probe: two half-chunk rounds.
  IT resolve_lane_avx2(std::size_t chunk, std::int32_t key) {
    const __m256i kv = _mm256_set1_epi32(key);
    const __m256i ev = _mm256_set1_epi32(-1);
    while (true) {
      ++probes_;
      const std::size_t base = chunk * kChunk;
      for (std::size_t half = 0; half < 2; ++half) {
        const __m256i line = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(keys_ + base) + half);
        const auto hit = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(line, kv))));
        const unsigned m =
            hit | static_cast<unsigned>(_mm256_movemask_ps(
                      _mm256_castsi256_ps(_mm256_cmpeq_epi32(line, ev))));
        if (m != 0) {
          const auto pos = static_cast<unsigned>(std::countr_zero(m));
          return finish_lane(base + half * 8 + pos, hit, pos, key);
        }
      }
      chunk = (chunk + 1) & chunk_mask_;
    }
  }
#endif

  /// An earlier occurrence of the same key resolved to `r`; this occurrence
  /// therefore finds the key present at the slot `r` names: ~r when the
  /// earlier lane inserted (r >= 0), r itself when it was already tagged.
  static IT duplicate_of(IT r) { return r >= 0 ? static_cast<IT>(~r) : r; }

  void batch_scalar(const IT* keys, std::size_t n, IT* slots_out) {
    // The scalar tier of the batch pipeline: same walk, same results; the
    // only batching effect is the home-chunk prefetch a few keys ahead.
    constexpr std::size_t kDist = 8;
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kDist < n) {
        __builtin_prefetch(keys_ + chunk_of(keys[i + kDist]) * kChunk);
      }
      slots_out[i] = resolve_lane(chunk_of(keys[i]), keys[i]);
    }
  }

#if defined(__AVX512F__)
  void batch_avx512(const std::int32_t* keys, std::size_t n,
                    std::int32_t* slots_out) {
    constexpr std::size_t W = 16;
    // The 32-bit vector hash equals the scalar 64-bit one because the chunk
    // mask keeps only low bits (chunk count <= 2^28 for int32 tables).
    assert(chunk_mask_ <= 0xFFFFFFFFu);
    const __m512i mult = _mm512_set1_epi32(static_cast<int>(2654435761u));
    const __m512i mask = _mm512_set1_epi32(static_cast<int>(chunk_mask_));
    alignas(64) std::int32_t chunk_lane[2][W];
    alignas(64) std::int32_t dup_lane[W];
    const auto hash_block = [&](std::size_t base, int buf) {
      const __m512i k = _mm512_loadu_si512(
          reinterpret_cast<const void*>(keys + base));
      _mm512_store_si512(
          reinterpret_cast<void*>(chunk_lane[buf]),
          _mm512_and_si512(_mm512_mullo_epi32(k, mult), mask));
      for (std::size_t l = 0; l < W; ++l) {
        _mm_prefetch(reinterpret_cast<const char*>(
                         keys_ + static_cast<std::size_t>(
                                     static_cast<std::uint32_t>(
                                         chunk_lane[buf][l])) *
                                     kChunk),
                     _MM_HINT_T0);
      }
    };
    std::size_t i = 0;
    int cur = 0;
    if (n >= W) hash_block(0, 0);
    // Found-vs-new steering: the branchless resolve wins whenever the
    // stream's found/new mix is even slightly unpredictable (each per-key
    // walk eats a pipeline flush per surprise), so only a block that was
    // ENTIRELY one outcome — where the per-key walk's branch predicts
    // perfectly and its load-only hits skip the branchless path's
    // unconditional stores — steers the next block to the per-key walk.
    // Both resolvers are bit-identical; steering is purely performance.
    unsigned prev_tagged = W / 2;
    // Conflict detection runs under the same hysteresis as the AVX2 dup
    // ladder: on while blocks keep showing in-flight duplicates, off (with
    // a periodic re-probe) while they don't.  Lanes a disengaged check
    // misses still resolve correctly through the walk — the shortcut only
    // skips work.
    bool dup_check = true;
    unsigned dup_blocks_off = 0;
    for (; i + W <= n; i += W, cur ^= 1) {
      // Software pipeline: hash + prefetch the NEXT block before resolving
      // this one, so its chunk lines are in flight during the walks below.
      if (i + 2 * W <= n) hash_block(i + W, cur ^ 1);
      const bool branchless = prev_tagged != 0 && prev_tagged != W;
      unsigned tagged = 0;
      bool have_dups = false;
#if defined(__AVX512CD__)
      if (!dup_check && ++dup_blocks_off >= 32) {
        dup_check = true;
        dup_blocks_off = 0;
      }
      if (dup_check) {
        const __m512i k = _mm512_loadu_si512(
            reinterpret_cast<const void*>(keys + i));
        const __m512i conf = _mm512_conflict_epi32(k);
        have_dups = _mm512_test_epi32_mask(conf, conf) != 0;
        if (have_dups) {
          _mm512_store_si512(reinterpret_cast<void*>(dup_lane), conf);
        }
        dup_check = have_dups;
      }
#endif
      if (have_dups) {
        for (std::size_t l = 0; l < W; ++l) {
          const auto dup = static_cast<std::uint32_t>(dup_lane[l]);
          const auto chunk = static_cast<std::size_t>(
              static_cast<std::uint32_t>(chunk_lane[cur][l]));
          const IT r =
              dup != 0
                  ? duplicate_of(slots_out[i + static_cast<std::size_t>(
                                                   std::countr_zero(dup))])
                  : (branchless ? resolve_lane_avx512(chunk, keys[i + l])
                                : resolve_lane(chunk, keys[i + l]));
          slots_out[i + l] = r;
          tagged += static_cast<unsigned>(r < 0);
        }
      } else {
        for (std::size_t l = 0; l < W; ++l) {
          const auto chunk = static_cast<std::size_t>(
              static_cast<std::uint32_t>(chunk_lane[cur][l]));
          const IT r = branchless ? resolve_lane_avx512(chunk, keys[i + l])
                                  : resolve_lane(chunk, keys[i + l]);
          slots_out[i + l] = r;
          tagged += static_cast<unsigned>(r < 0);
        }
      }
      prev_tagged = tagged;
    }
    for (; i < n; ++i) {
      slots_out[i] = resolve_lane(chunk_of(keys[i]), keys[i]);
    }
  }
#endif

#if defined(__AVX2__)
  void batch_avx2(const std::int32_t* keys, std::size_t n,
                  std::int32_t* slots_out) {
    constexpr std::size_t W = 8;
    assert(chunk_mask_ <= 0xFFFFFFFFu);
    const __m256i mult = _mm256_set1_epi32(static_cast<int>(2654435761u));
    const __m256i mask = _mm256_set1_epi32(static_cast<int>(chunk_mask_));
    alignas(32) std::int32_t chunk_lane[2][W];
    const auto hash_block = [&](std::size_t base, int buf) {
      const __m256i k = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(keys + base));
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(chunk_lane[buf]),
          _mm256_and_si256(_mm256_mullo_epi32(k, mult), mask));
      for (std::size_t l = 0; l < W; ++l) {
        _mm_prefetch(reinterpret_cast<const char*>(
                         keys_ + static_cast<std::size_t>(
                                     static_cast<std::uint32_t>(
                                         chunk_lane[buf][l])) *
                                     kChunk),
                     _MM_HINT_T0);
      }
    };
    std::size_t i = 0;
    int cur = 0;
    if (n >= W) hash_block(0, 0);
    // The ladder below costs ~7 vector compares per block, so it runs
    // under hysteresis: on while it keeps finding in-flight duplicates,
    // off (with a periodic re-probe) while the stream shows none.  Lanes
    // a disengaged ladder misses still resolve correctly — they walk the
    // table and find the earlier lane's insertion, exactly like the per-
    // key path — so the ladder is purely a work-skipping device.
    bool ladder_on = true;
    unsigned blocks_off = 0;
    // Same found-vs-new steering as the AVX-512 batch (see above).
    unsigned prev_tagged = W / 2;
    for (; i + W <= n; i += W, cur ^= 1) {
      if (i + 2 * W <= n) hash_block(i + W, cur ^ 1);
      const __m256i k = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(keys + i));
      // Lane-rotation duplicate ladder (no conflict instruction on AVX2):
      // compare the block against itself rotated by s = 1..7; lane l >= s
      // matching its rotation duplicates lane l - s.  Larger s overwrite
      // smaller, but ANY earlier equal lane yields the same normalized
      // result, so the source choice is free.
      std::int8_t dup_src[W];
      std::fill(dup_src, dup_src + W, std::int8_t{-1});
      if (!ladder_on && ++blocks_off >= 32) {
        ladder_on = true;
        blocks_off = 0;
      }
      if (ladder_on) {
        unsigned any = 0;
        for (int s = 1; s < static_cast<int>(W); ++s) {
          const __m256i idx = _mm256_setr_epi32(
              (0 - s) & 7, (1 - s) & 7, (2 - s) & 7, (3 - s) & 7,
              (4 - s) & 7, (5 - s) & 7, (6 - s) & 7, (7 - s) & 7);
          const __m256i rot = _mm256_permutevar8x32_epi32(k, idx);
          auto m = static_cast<unsigned>(_mm256_movemask_ps(
              _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, rot))));
          m &= (0xFFu << s) & 0xFFu;  // wrapped lanes compare a LATER lane
          any |= m;
          while (m != 0) {
            const int l = std::countr_zero(m);
            dup_src[l] = static_cast<std::int8_t>(l - s);
            m &= m - 1;
          }
        }
        ladder_on = any != 0;
      }
      const bool branchless = prev_tagged != 0 && prev_tagged != W;
      unsigned tagged = 0;
      for (std::size_t l = 0; l < W; ++l) {
        const auto chunk = static_cast<std::size_t>(
            static_cast<std::uint32_t>(chunk_lane[cur][l]));
        const IT r =
            dup_src[l] >= 0
                ? duplicate_of(slots_out[i + static_cast<std::size_t>(
                                                 dup_src[l])])
                : (branchless ? resolve_lane_avx2(chunk, keys[i + l])
                              : resolve_lane(chunk, keys[i + l]));
        slots_out[i + l] = r;
        tagged += static_cast<unsigned>(r < 0);
      }
      prev_tagged = tagged;
    }
    for (; i < n; ++i) {
      slots_out[i] = resolve_lane(chunk_of(keys[i]), keys[i]);
    }
  }
#endif

  void probe_chunk_scalar(std::size_t base, IT key, int& found,
                          int& first_empty) const {
    for (std::size_t i = 0; i < kChunk; ++i) {
      const IT k = keys_[base + i];
      if (k == key) {
        found = static_cast<int>(i);
        return;
      }
      if (k == kEmpty) {
        // Chunks fill from the front: the first empty slot ends the row.
        first_empty = static_cast<int>(i);
        return;
      }
    }
  }

  void probe_chunk_simd(std::size_t base, std::int32_t key, int& found,
                        int& first_empty) const {
    switch (resolved_) {
#if defined(__AVX512F__)
      case ProbeKind::kAvx512: {
        const __m512i keys = _mm512_loadu_si512(
            reinterpret_cast<const void*>(keys_ + base));
        const __mmask16 hit =
            _mm512_cmpeq_epi32_mask(keys, _mm512_set1_epi32(key));
        if (hit != 0) {
          found = std::countr_zero(static_cast<unsigned>(hit));
          return;
        }
        const __mmask16 empty =
            _mm512_cmpeq_epi32_mask(keys, _mm512_set1_epi32(-1));
        if (empty != 0) {
          first_empty = std::countr_zero(static_cast<unsigned>(empty));
        }
        return;
      }
#endif
#if defined(__AVX2__)
      case ProbeKind::kAvx2: {
        // Two 8-lane probes cover the 16-key chunk.
        for (int half = 0; half < 2; ++half) {
          const __m256i keys = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(keys_ + base) + half);
          const unsigned hit = static_cast<unsigned>(_mm256_movemask_ps(
              _mm256_castsi256_ps(
                  _mm256_cmpeq_epi32(keys, _mm256_set1_epi32(key)))));
          if (hit != 0) {
            found = half * 8 + std::countr_zero(hit);
            return;
          }
          const unsigned empty = static_cast<unsigned>(_mm256_movemask_ps(
              _mm256_castsi256_ps(
                  _mm256_cmpeq_epi32(keys, _mm256_set1_epi32(-1)))));
          if (empty != 0) {
            first_empty = half * 8 + std::countr_zero(empty);
            return;
          }
        }
        return;
      }
#endif
      default:
        probe_chunk_scalar(base, key, found, first_empty);
        return;
    }
  }

  [[nodiscard]] std::size_t chunk_of(IT key) const {
    return (static_cast<std::size_t>(static_cast<std::uint64_t>(key) *
                                     2654435761ULL)) &
           chunk_mask_;
  }

  mem::ThreadScratch<IT> keys_scratch_;
  mem::ThreadScratch<VT> vals_scratch_;
  mem::ThreadScratch<IT> touched_scratch_;
  IT* keys_ = nullptr;
  VT* vals_ = nullptr;
  IT* touched_ = nullptr;
  std::size_t chunk_mask_ = 0;
  std::size_t table_slots_ = 0;
  std::size_t count_ = 0;
  std::size_t initialized_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t keys_resolved_ = 0;
  ProbeKind resolved_ = ProbeKind::kScalar;
};

}  // namespace spgemm
