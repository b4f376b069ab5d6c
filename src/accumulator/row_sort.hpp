// Row sort: the one primitive that orders an output row by column index.
//
// Every sorted emission in the library goes through sort_row(): the capture
// drivers' gather freeze (record_gather in core/spgemm_twophase.hpp), the
// accumulators' extract_sorted() and the plan's key-only skeleton rows.  A
// row's keys are DISTINCT (an accumulator holds each column once), so the
// ascending order is unique: every path below yields the same permutation,
// and which one runs can never change an output bit.
//
// The path is picked from the row itself (no option selects it):
//   * n <= kRowSortInsertionMax — insertion sort.
//   * the key span fits the bitmap, i.e. it covers at most
//     kRowSortSpanFactor * n 64-bit words ((max - min) / 64 < 4n) — bitmap
//     rank: one bit per key over [min, max], a prefix popcount per 64-bit
//     word, and each entry moves to rank = prefix[word] + popcount(bits
//     below it).  O(n + span/64) with no comparisons; the keys are
//     re-emitted by walking the set bits.
//   * otherwise (few keys spread over a wide range) — comparison sort.
//
// The paper (§5, Table 4) measures how much of a hash SpGEMM sorting costs.
// With a comparison sort per row it was about half of a sorted Hash
// power-law A^2 in this library; see README "Sorted output".
//
// Scratch is thread-local and grow-only: 16 bytes per bitmap word (at most
// 64 bytes per key, at the gate) plus a copy of the payload.  The bitmap is
// all-zero between calls: a call clears exactly the words of its own span
// while it reads the keys back out.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace spgemm {

/// Rows of at most this many keys are insertion-sorted.
inline constexpr std::size_t kRowSortInsertionMax = 32;

/// Bitmap-rank gate: used when the row's span needs at most this many
/// 64-bit words per key, which bounds the word passes by O(n).
inline constexpr std::size_t kRowSortSpanFactor = 4;

/// Whether a row of `n` distinct keys in [lo, hi] takes the bitmap-rank
/// path of sort_row().
template <IndexType IT>
[[nodiscard]] inline bool row_sort_uses_bitmap(IT lo, IT hi, std::size_t n) {
  using UT = std::make_unsigned_t<IT>;
  const auto span = static_cast<std::uint64_t>(
      static_cast<UT>(static_cast<UT>(hi) - static_cast<UT>(lo)));
  return n > kRowSortInsertionMax && (span >> 6) < kRowSortSpanFactor * n;
}

namespace detail {

/// Marks the keys-only form of sort_row().
struct NoPayload {};

/// One bitmap word and the number of keys in all lower words.
struct RankWord {
  std::uint64_t bits = 0;
  std::uint64_t below = 0;
};

/// The calling thread's bitmap, all-zero between sort_row() calls.
inline std::vector<RankWord>& rank_words() {
  thread_local std::vector<RankWord> words;
  return words;
}

/// The calling thread's copy of the payload being placed.
template <typename P>
std::vector<P>& payload_copy() {
  thread_local std::vector<P> copy;
  return copy;
}

template <IndexType IT, typename P>
void insertion_sort_row(IT* keys, P* payload, std::size_t n) {
  constexpr bool kCarry = !std::is_same_v<P, NoPayload>;
  for (std::size_t i = 1; i < n; ++i) {
    const IT key = keys[i];
    std::size_t j = i;
    if constexpr (kCarry) {
      const P value = payload[i];
      for (; j > 0 && keys[j - 1] > key; --j) {
        keys[j] = keys[j - 1];
        payload[j] = payload[j - 1];
      }
      payload[j] = value;
    } else {
      for (; j > 0 && keys[j - 1] > key; --j) keys[j] = keys[j - 1];
    }
    keys[j] = key;
  }
}

template <IndexType IT, typename P>
void bitmap_rank_sort_row(IT* keys, P* payload, std::size_t n, IT lo, IT hi) {
  constexpr bool kCarry = !std::is_same_v<P, NoPayload>;
  using UT = std::make_unsigned_t<IT>;
  const auto base = static_cast<UT>(lo);
  const auto span = static_cast<UT>(static_cast<UT>(hi) - base);
  const std::size_t nwords = static_cast<std::size_t>(span >> 6) + 1;
  // Every allocation happens before the first bit is set: a throw past that
  // point would leave the thread's bitmap dirty for its next row.
  std::vector<RankWord>& scratch = rank_words();
  if (scratch.size() < nwords) scratch.resize(nwords);  // new words are zero
  RankWord* words = scratch.data();
  if constexpr (kCarry) payload_copy<P>().assign(payload, payload + n);

  for (std::size_t i = 0; i < n; ++i) {
    const UT off = static_cast<UT>(keys[i]) - base;
    words[off >> 6].bits |= std::uint64_t{1} << (off & 63);
  }
  std::uint64_t below = 0;
  for (std::size_t w = 0; w < nwords; ++w) {
    words[w].below = below;
    below += static_cast<std::uint64_t>(std::popcount(words[w].bits));
  }
  assert(below == n && "sort_row: keys must be distinct");

  if constexpr (kCarry) {
    const P* moved = payload_copy<P>().data();
    for (std::size_t i = 0; i < n; ++i) {
      const UT off = static_cast<UT>(keys[i]) - base;
      const RankWord& word = words[off >> 6];
      const std::uint64_t lower = (std::uint64_t{1} << (off & 63)) - 1;
      const int lower_keys = std::popcount(word.bits & lower);
      payload[word.below + static_cast<std::uint64_t>(lower_keys)] = moved[i];
    }
  }

  // Re-emit the keys in ascending order, clearing each word behind us.
  std::size_t out = 0;
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t bits = words[w].bits;
    words[w].bits = 0;
    const UT word_base = base + static_cast<UT>(w << 6);
    for (; bits != 0; bits &= bits - 1) {
      keys[out++] = static_cast<IT>(
          word_base + static_cast<UT>(std::countr_zero(bits)));
    }
  }
}

template <IndexType IT, typename P>
void comparison_sort_row(IT* keys, P* payload, std::size_t n) {
  if constexpr (std::is_same_v<P, NoPayload>) {
    std::sort(keys, keys + n);
  } else {
    thread_local std::vector<std::pair<IT, P>> pairs;
    pairs.resize(n);
    for (std::size_t i = 0; i < n; ++i) pairs[i] = {keys[i], payload[i]};
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = pairs[i].first;
      payload[i] = pairs[i].second;
    }
  }
}

template <IndexType IT, typename P>
void sort_row_impl(IT* keys, P* payload, std::size_t n) {
  if (n <= kRowSortInsertionMax) {
    insertion_sort_row(keys, payload, n);
    return;
  }
  // Branch-free min/max: std::minmax_element's pairwise compare mispredicts
  // on every other key of an unordered row.
  IT lo = keys[0];
  IT hi = keys[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, keys[i]);
    hi = std::max(hi, keys[i]);
  }
  if (row_sort_uses_bitmap(lo, hi, n)) {
    bitmap_rank_sort_row(keys, payload, n, lo, hi);
  } else {
    comparison_sort_row(keys, payload, n);
  }
}

}  // namespace detail

/// Order the `n` DISTINCT keys ascending and apply the same permutation to
/// payload[0, n) (slots, values).
template <IndexType IT, typename P>
void sort_row(IT* keys, P* payload, std::size_t n) {
  detail::sort_row_impl(keys, payload, n);
}

/// Keys-only form: order the `n` DISTINCT keys ascending.
template <IndexType IT>
void sort_row(IT* keys, std::size_t n) {
  detail::sort_row_impl<IT, detail::NoPayload>(keys, nullptr, n);
}

}  // namespace spgemm
