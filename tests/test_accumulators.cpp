// Accumulator unit tests: hash table, SIMD-chunked hash table, SPA,
// two-level hash map, stream heap.  Every accumulator is driven through the
// same insert/accumulate/extract/reset protocol the kernels use.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "accumulator/hash_table.hpp"
#include "accumulator/hash_vec.hpp"
#include "accumulator/heap.hpp"
#include "accumulator/row_sort.hpp"
#include "accumulator/spa.hpp"
#include "accumulator/two_level_hash.hpp"
#include "common/random.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;

TEST(HashTableSizePolicy, StrictlyGreaterPowerOfTwo) {
  EXPECT_EQ(hash_table_size_for(0, 100), 1u);
  EXPECT_EQ(hash_table_size_for(1, 100), 2u);
  EXPECT_EQ(hash_table_size_for(7, 100), 8u);
  EXPECT_EQ(hash_table_size_for(8, 100), 16u);   // strictly greater
  EXPECT_EQ(hash_table_size_for(63, 100), 64u);
  EXPECT_EQ(hash_table_size_for(64, 100), 128u);
}

TEST(HashTableSizePolicy, CappedByColumnCount) {
  // flop bound 10^6 but only 100 columns: table need not exceed 128.
  EXPECT_EQ(hash_table_size_for(1000000, 100), 128u);
}

// ---------------------------------------------------------------------------
// Protocol-level tests shared by all map-like accumulators via a typed suite.
// ---------------------------------------------------------------------------

template <typename Acc>
void prepare_for(Acc& acc, std::size_t entries, std::size_t ncols);

template <>
void prepare_for(HashAccumulator<I, double>& acc, std::size_t entries,
                 std::size_t ncols) {
  acc.prepare(hash_table_size_for(static_cast<Offset>(entries), ncols));
}
template <>
void prepare_for(HashVecAccumulator<I, double>& acc, std::size_t entries,
                 std::size_t ncols) {
  acc.prepare(hash_table_size_for(static_cast<Offset>(entries), ncols));
}
template <>
void prepare_for(SpaAccumulator<I, double>& acc, std::size_t /*entries*/,
                 std::size_t ncols) {
  acc.prepare(ncols);
}
template <>
void prepare_for(TwoLevelHashAccumulator<I, double>& acc, std::size_t entries,
                 std::size_t /*ncols*/) {
  acc.prepare(entries + 1);
}

template <typename Acc>
class MapAccumulatorTest : public ::testing::Test {};

using MapAccumulators =
    ::testing::Types<HashAccumulator<I, double>,
                     HashVecAccumulator<I, double>, SpaAccumulator<I, double>,
                     TwoLevelHashAccumulator<I, double>>;
TYPED_TEST_SUITE(MapAccumulatorTest, MapAccumulators);

TYPED_TEST(MapAccumulatorTest, InsertCountsDistinctKeys) {
  TypeParam acc;
  prepare_for(acc, 64, 1000);
  EXPECT_TRUE(acc.insert(5));
  EXPECT_TRUE(acc.insert(17));
  EXPECT_FALSE(acc.insert(5));
  EXPECT_TRUE(acc.insert(999));
  EXPECT_EQ(acc.count(), 3u);
}

TYPED_TEST(MapAccumulatorTest, AccumulateSumsDuplicates) {
  TypeParam acc;
  prepare_for(acc, 64, 1000);
  acc.accumulate(3, 1.0);
  acc.accumulate(7, 2.0);
  acc.accumulate(3, 0.25);
  ASSERT_EQ(acc.count(), 2u);
  std::vector<I> cols(2);
  std::vector<double> vals(2);
  acc.extract_unsorted(cols.data(), vals.data());
  std::map<I, double> got;
  for (std::size_t i = 0; i < 2; ++i) got[cols[i]] = vals[i];
  EXPECT_DOUBLE_EQ(got[3], 1.25);
  EXPECT_DOUBLE_EQ(got[7], 2.0);
}

TYPED_TEST(MapAccumulatorTest, ResetClearsState) {
  TypeParam acc;
  prepare_for(acc, 64, 1000);
  acc.accumulate(1, 1.0);
  acc.accumulate(2, 1.0);
  acc.reset();
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_TRUE(acc.insert(1));  // key 1 must be forgotten
}

/// Widest key range a sorted-extraction test row spans: 2^30 keys, except
/// for the SPA, whose dense arrays cover every column (2^20 there still
/// spreads 1000 keys too thin for the bitmap-rank path).
template <typename Acc>
constexpr std::size_t kWideKeyRange = std::size_t{1} << 30;
template <>
constexpr std::size_t kWideKeyRange<SpaAccumulator<I, double>> =
    std::size_t{1} << 20;

/// `n` distinct keys drawn from [0, range), in random order.
std::vector<I> distinct_keys(std::size_t n, std::size_t range,
                             SplitMix64& rng) {
  std::set<I> picked;
  if (2 * n >= range) {
    for (std::size_t k = 0; k < range; ++k) picked.insert(static_cast<I>(k));
    while (picked.size() > n) {
      picked.erase(static_cast<I>(rng.next_below(range)));
    }
  } else {
    while (picked.size() < n) {
      picked.insert(static_cast<I>(rng.next_below(range)));
    }
  }
  std::vector<I> keys(picked.begin(), picked.end());
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.next_below(i)]);
  }
  return keys;
}

TYPED_TEST(MapAccumulatorTest, SortedExtractionAscends) {
  // Rows of 1 to 1000 distinct keys over a narrow (bitmap-rank) and a wide
  // (comparison) key range, every key accumulated once or twice.
  SplitMix64 rng(77);
  int bitmap_rows = 0;
  int comparison_rows = 0;
  for (const std::size_t range :
       {std::size_t{1000}, kWideKeyRange<TypeParam>}) {
    for (const std::size_t n : {1, 31, 32, 33, 150, 1000}) {
      const std::vector<I> keys = distinct_keys(n, range, rng);
      TypeParam acc;
      prepare_for(acc, 2 * n, range);
      std::map<I, double> oracle;
      for (const I key : keys) {
        for (int rep = 0; rep < 1 + (key % 2); ++rep) {
          const double v = rng.next_double();
          acc.accumulate(key, v);
          oracle[key] += v;
        }
      }
      ASSERT_EQ(acc.count(), n);
      if (row_sort_uses_bitmap(oracle.begin()->first,
                               oracle.rbegin()->first, n)) {
        ++bitmap_rows;
      } else if (n > kRowSortInsertionMax) {
        ++comparison_rows;
      }
      std::vector<I> cols(n);
      std::vector<double> vals(n);
      acc.extract_sorted(cols.data(), vals.data());
      std::size_t idx = 0;
      for (const auto& [key, val] : oracle) {
        ASSERT_EQ(cols[idx], key) << "range " << range << " n " << n;
        ASSERT_EQ(vals[idx], val) << "range " << range << " n " << n;
        ++idx;
      }
    }
  }
  EXPECT_GT(bitmap_rows, 0);
  EXPECT_GT(comparison_rows, 0);
}

TYPED_TEST(MapAccumulatorTest, ReuseAcrossManyRows) {
  // Simulates the kernel loop: many rows, one prepare, reset between rows.
  TypeParam acc;
  prepare_for(acc, 128, 4096);
  SplitMix64 rng(123);
  for (int row = 0; row < 200; ++row) {
    std::map<I, double> oracle;
    const int inserts = 1 + static_cast<int>(rng.next_below(100));
    for (int i = 0; i < inserts; ++i) {
      const I key = static_cast<I>(rng.next_below(4096));
      const double v = rng.next_double();
      acc.accumulate(key, v);
      oracle[key] += v;
    }
    ASSERT_EQ(acc.count(), oracle.size()) << "row " << row;
    std::vector<I> cols(oracle.size());
    std::vector<double> vals(oracle.size());
    acc.extract_sorted(cols.data(), vals.data());
    std::size_t idx = 0;
    for (const auto& [key, val] : oracle) {
      ASSERT_EQ(cols[idx], key) << "row " << row;
      ASSERT_NEAR(vals[idx], val, 1e-12) << "row " << row;
      ++idx;
    }
    acc.reset();
  }
}

TYPED_TEST(MapAccumulatorTest, GrowBetweenPreparations) {
  TypeParam acc;
  prepare_for(acc, 16, 64);
  acc.insert(1);
  acc.reset();
  prepare_for(acc, 4096, 100000);
  EXPECT_TRUE(acc.insert(99999));
  EXPECT_EQ(acc.count(), 1u);
}

TYPED_TEST(MapAccumulatorTest, HandlesKeyZero) {
  TypeParam acc;
  prepare_for(acc, 16, 64);
  EXPECT_TRUE(acc.insert(0));
  EXPECT_FALSE(acc.insert(0));
}

TYPED_TEST(MapAccumulatorTest, FillToBound) {
  // Insert every key in [0, 64): accumulators must cope with a row whose
  // distinct-key count reaches the sizing bound.
  TypeParam acc;
  prepare_for(acc, 64, 64);
  for (I k = 0; k < 64; ++k) EXPECT_TRUE(acc.insert(k));
  for (I k = 0; k < 64; ++k) EXPECT_FALSE(acc.insert(k));
  EXPECT_EQ(acc.count(), 64u);
}

// ---------------------------------------------------------------------------
// sort_row() against std::sort: distinct keys of either index width, narrow
// and wide spans, spans at the bitmap gate, keys at both ends of the type.
// ---------------------------------------------------------------------------

template <typename K>
class RowSortTest : public ::testing::Test {};

using RowSortKeyTypes = ::testing::Types<std::int32_t, std::int64_t>;
TYPED_TEST_SUITE(RowSortTest, RowSortKeyTypes);

/// `n` distinct keys in [lo, lo + span], random order; lo and lo + span are
/// always among them so the row's span is exactly `span`.
template <typename K>
std::vector<K> keys_spanning(K lo, std::uint64_t span, std::size_t n,
                             SplitMix64& rng) {
  using UK = std::make_unsigned_t<K>;
  const auto at = [&](std::uint64_t off) {
    return static_cast<K>(static_cast<UK>(lo) + static_cast<UK>(off));
  };
  std::set<K> picked{lo, at(span)};
  while (picked.size() < n) picked.insert(at(rng.next_below(span + 1)));
  std::vector<K> keys(picked.begin(), picked.end());
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.next_below(i)]);
  }
  return keys;
}

/// sort_row() with a value payload, with an index payload and keys-only
/// must all agree with std::sort of (key, index) pairs.
template <typename K>
void expect_sort_row_matches_std_sort(const std::vector<K>& keys,
                                      const std::string& label) {
  const std::size_t n = keys.size();
  std::vector<std::pair<K, std::int32_t>> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = {keys[i], static_cast<std::int32_t>(i)};
  }
  std::sort(expected.begin(), expected.end());

  std::vector<K> with_index = keys;
  std::vector<std::int32_t> index(n);
  std::iota(index.begin(), index.end(), 0);
  sort_row(with_index.data(), index.data(), n);

  std::vector<K> with_value = keys;
  std::vector<double> value(n);
  for (std::size_t i = 0; i < n; ++i) value[i] = 0.5 + static_cast<double>(i);
  sort_row(with_value.data(), value.data(), n);

  std::vector<K> keys_only = keys;
  sort_row(keys_only.data(), n);

  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(with_index[i], expected[i].first) << label << " at " << i;
    ASSERT_EQ(index[i], expected[i].second) << label << " at " << i;
    ASSERT_EQ(with_value[i], expected[i].first) << label << " at " << i;
    ASSERT_EQ(value[i], 0.5 + expected[i].second) << label << " at " << i;
    ASSERT_EQ(keys_only[i], expected[i].first) << label << " at " << i;
  }
}

TYPED_TEST(RowSortTest, MatchesStdSortOnRandomRows) {
  using K = TypeParam;
  constexpr K kMax = std::numeric_limits<K>::max();
  constexpr K kMin = std::numeric_limits<K>::min();
  SplitMix64 rng(1804);
  int bitmap_rows = 0;
  int comparison_rows = 0;
  // Many rows back to back on one thread: a row that left its bitmap
  // words dirty would corrupt the next one.
  for (int row = 0; row < 400; ++row) {
    const std::size_t n = 1 + rng.next_below(row % 4 == 0 ? 2000 : 120);
    // Spans from tight (every key in a few words) to far past the gate.
    const std::uint64_t span =
        n == 1 ? 0
               : (n - 1) + rng.next_below(std::uint64_t{1}
                                          << (rng.next_below(5) * 6));
    K lo;
    switch (row % 4) {
      case 0: lo = 0; break;
      case 1: lo = static_cast<K>(kMax - static_cast<K>(span)); break;
      case 2: lo = static_cast<K>(rng.next_below(1u << 20)); break;
      default: lo = static_cast<K>(kMin + static_cast<K>(rng.next_below(64)));
    }
    const std::vector<K> keys = keys_spanning(lo, span, n, rng);
    const auto [lo_it, hi_it] = std::minmax_element(keys.begin(), keys.end());
    if (row_sort_uses_bitmap(*lo_it, *hi_it, n)) {
      ++bitmap_rows;
    } else if (n > kRowSortInsertionMax) {
      ++comparison_rows;
    }
    expect_sort_row_matches_std_sort(keys, "row " + std::to_string(row));
  }
  EXPECT_GT(bitmap_rows, 50);
  EXPECT_GT(comparison_rows, 50);
}

TYPED_TEST(RowSortTest, GateBoundaryAndTypeExtremes) {
  using K = TypeParam;
  constexpr K kMax = std::numeric_limits<K>::max();
  constexpr K kMin = std::numeric_limits<K>::min();
  SplitMix64 rng(4);
  constexpr std::size_t n = 64;
  // The last span the bitmap takes, and the first it refuses.
  const std::uint64_t fits = kRowSortSpanFactor * n * 64 - 1;
  for (const K lo : {K{0}, static_cast<K>(kMax - static_cast<K>(fits + 1)),
                     kMin}) {
    const std::vector<K> tight = keys_spanning(lo, fits, n, rng);
    const std::vector<K> wide = keys_spanning(lo, fits + 1, n, rng);
    EXPECT_TRUE(row_sort_uses_bitmap(lo, static_cast<K>(lo + fits), n));
    EXPECT_FALSE(
        row_sort_uses_bitmap(lo, static_cast<K>(lo + fits + 1), n));
    expect_sort_row_matches_std_sort(tight, "at the gate");
    expect_sort_row_matches_std_sort(wide, "past the gate");
  }
  // Rows holding the type's extreme keys, and one spanning all of it.
  expect_sort_row_matches_std_sort(
      keys_spanning(static_cast<K>(kMax - 100), 100, 101, rng), "top 101");
  expect_sort_row_matches_std_sort(keys_spanning(kMin, 100, 50, rng),
                                   "bottom 50");
  std::vector<K> extremes{kMax, kMin, 0, -1, 1, static_cast<K>(kMax - 1)};
  for (K k = 2; extremes.size() < 40; ++k) extremes.push_back(k * 1000);
  expect_sort_row_matches_std_sort(extremes, "full type span");
  // Trivial rows.
  expect_sort_row_matches_std_sort(std::vector<K>{}, "empty");
  expect_sort_row_matches_std_sort(std::vector<K>{kMax}, "single");
}

// ---------------------------------------------------------------------------
// SPA bitmap: bitwise agreement with the hash accumulator, row after row.
// ---------------------------------------------------------------------------

/// One row's emitted entries.
struct EmittedRow {
  std::vector<I> cols;
  std::vector<double> vals;
};

/// Folds `keys` (with `vals`) into a prepared accumulator, emits the row
/// sorted or in insertion order and resets the accumulator.
template <typename Acc, typename Fold>
EmittedRow fold_row(Acc& acc, const std::vector<I>& keys,
                    const std::vector<double>& vals, bool sorted, Fold fold) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    acc.accumulate(keys[i], vals[i], fold);
  }
  EmittedRow row;
  row.cols.resize(acc.count());
  row.vals.resize(acc.count());
  if (sorted) {
    acc.extract_sorted(row.cols.data(), row.vals.data());
  } else {
    acc.extract_unsorted(row.cols.data(), row.vals.data());
  }
  acc.reset();
  return row;
}

void expect_rows_bitwise_equal(const EmittedRow& got, const EmittedRow& want,
                               const std::string& label) {
  ASSERT_EQ(got.cols, want.cols) << label;
  ASSERT_EQ(got.vals.size(), want.vals.size()) << label;
  for (std::size_t i = 0; i < got.vals.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.vals[i]),
              std::bit_cast<std::uint64_t>(want.vals[i]))
        << label << " entry " << i;
  }
}

/// The distinct keys of `keys` in first-occurrence order.
std::vector<I> first_occurrences(const std::vector<I>& keys) {
  std::vector<I> order;
  std::set<I> seen;
  for (const I key : keys) {
    if (seen.insert(key).second) order.push_back(key);
  }
  return order;
}

/// Columns (not a multiple of 64) of the SPA tests: wide enough that a
/// row of 40 keys spread over all of them fails the bitmap gate.
constexpr std::size_t kSpaCols = (std::size_t{1} << 20) + 37;

/// A key stream of `len` draws from [lo, lo + span), or from `pool` keys
/// of that range when `pool` > 0 (duplicate-heavy), followed by `extra`.
std::vector<I> key_stream(std::size_t len, std::size_t lo, std::size_t span,
                          std::size_t pool, const std::vector<I>& extra,
                          SplitMix64& rng) {
  std::vector<I> choices;
  for (std::size_t p = 0; p < pool; ++p) {
    choices.push_back(static_cast<I>(lo + rng.next_below(span)));
  }
  std::vector<I> keys;
  for (std::size_t i = 0; i < len; ++i) {
    keys.push_back(pool > 0 ? choices[rng.next_below(pool)]
                            : static_cast<I>(lo + rng.next_below(span)));
  }
  keys.insert(keys.end(), extra.begin(), extra.end());
  return keys;
}

TEST(SpaAccumulator, MatchesHashBitwiseRowAfterRow) {
  // One SPA and one hash table, prepared once, fold the same rows: random
  // and duplicate-heavy streams, rows that take the word walk, rows that
  // fall back to the sort (insertion or comparison) and the edge keys 0,
  // 63, 64 and ncols - 1.  Each row after a walked or a sorted row proves
  // the bitmap came back clean from reset().
  const auto last = static_cast<I>(kSpaCols - 1);
  const std::vector<I> edges = {0, 63, 64, last, 64, 0};
  struct Shape {
    std::size_t len, lo, span, pool;
    bool edges;
  };
  const Shape shapes[] = {
      {400, 0, 3000, 0, true},         // walk: dense narrow span
      {40, 0, kSpaCols, 0, false},     // sort: 40 keys spread wide
      {2000, 500, 700, 40, false},     // walk: duplicate-heavy
      {20, 60, 10, 0, true},           // sort: insertion (<= 32 keys)
      {300, kSpaCols - 5000, 5000, 0, true},  // walk at the top end
      {60, 0, kSpaCols, 3, true},      // few keys, many repeats, wide
      {5000, 0, 6000, 0, true},        // walk
  };
  SplitMix64 rng(2024);
  HashAccumulator<I, double> hash;
  hash.prepare(hash_table_size_for(8192, kSpaCols));
  SpaAccumulator<I, double> spa;
  spa.prepare(kSpaCols);
  const auto plus = [](double& acc, double v) { acc += v; };
  int walked = 0;
  int sorted_back = 0;
  for (int round = 0; round < 3; ++round) {
    for (const Shape& s : shapes) {
      const std::vector<I> keys = key_stream(
          s.len, s.lo, s.span, s.pool, s.edges ? edges : std::vector<I>{},
          rng);
      std::vector<double> vals;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        vals.push_back(rng.next_double() - 0.5);
      }
      const std::vector<I> order = first_occurrences(keys);
      const auto [lo, hi] = std::minmax_element(order.begin(), order.end());
      const bool walk = row_sort_uses_bitmap(*lo, *hi, order.size());
      walked += walk ? 1 : 0;
      sorted_back += walk ? 0 : 1;
      for (const bool sorted : {true, false}) {
        const std::string label = "round " + std::to_string(round) +
                                  " len " + std::to_string(s.len) +
                                  (sorted ? " sorted" : " unsorted");
        const EmittedRow want = fold_row(hash, keys, vals, sorted, plus);
        const EmittedRow got = fold_row(spa, keys, vals, sorted, plus);
        expect_rows_bitwise_equal(got, want, label);
        if (!sorted) {
          EXPECT_EQ(got.cols, order) << label << ": not first-occurrence";
        } else {
          EXPECT_TRUE(std::is_sorted(got.cols.begin(), got.cols.end()))
              << label;
        }
      }
    }
  }
  EXPECT_GT(walked, 0);
  EXPECT_GT(sorted_back, 0);
}

TEST(SpaAccumulator, SpeculativeFoldNeverLeaksIntoANewKey) {
  // accumulate() folds into the stored value before it knows whether the
  // key is new.  Under min, a stale -100 from the previous row would win
  // every fold; a new key must take its first value instead.
  const auto min_fold = [](double& acc, double v) { acc = std::min(acc, v); };
  SpaAccumulator<I, double> spa;
  spa.prepare(kSpaCols);
  HashAccumulator<I, double> hash;
  hash.prepare(hash_table_size_for(256, kSpaCols));
  std::vector<I> keys;
  for (I k = 0; k < 100; ++k) keys.push_back(k * 7);
  const std::vector<double> stale(keys.size(), -100.0);
  fold_row(spa, keys, stale, true, min_fold);
  fold_row(hash, keys, stale, true, min_fold);

  std::vector<I> again;
  std::vector<double> vals;
  std::map<I, double> oracle;
  SplitMix64 rng(5);
  for (const I key : keys) {
    for (int rep = 0; rep < 3; ++rep) {
      again.push_back(key);
      vals.push_back(1.0 + rng.next_double());
      const auto [it, fresh] = oracle.emplace(key, vals.back());
      if (!fresh) it->second = std::min(it->second, vals.back());
    }
  }
  for (const bool sorted : {true, false}) {
    const EmittedRow got = fold_row(spa, again, vals, sorted, min_fold);
    expect_rows_bitwise_equal(got,
                              fold_row(hash, again, vals, sorted, min_fold),
                              sorted ? "min sorted" : "min unsorted");
    for (std::size_t i = 0; i < got.cols.size(); ++i) {
      EXPECT_EQ(got.vals[i], oracle.at(got.cols[i])) << "key " << got.cols[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Hash-specific behaviour.
// ---------------------------------------------------------------------------

TEST(HashAccumulator, ProbeCounterGrowsUnderCollisions) {
  HashAccumulator<I, double> acc;
  acc.prepare(64);
  const auto before = acc.probes();
  for (I k = 0; k < 48; ++k) acc.insert(k * 64);  // force collisions
  EXPECT_GT(acc.probes(), before + 47);           // > 1 probe per insert
}

TEST(HashVecAccumulator, AllProbeKindsAgree) {
  // Same insert sequence through scalar, AVX2 and AVX-512 probing must give
  // identical contents (insertion order may differ from scalar hash, but
  // within HashVector the layout rule is deterministic and shared).
  SplitMix64 rng(2024);
  std::vector<I> keys;
  for (int i = 0; i < 400; ++i) {
    keys.push_back(static_cast<I>(rng.next_below(512)));
  }
  std::vector<std::pair<std::vector<I>, std::vector<double>>> results;
  for (const ProbeKind kind :
       {ProbeKind::kScalar, ProbeKind::kAvx2, ProbeKind::kAvx512}) {
    HashVecAccumulator<I, double> acc(kind);
    acc.prepare(1024);
    for (const I k : keys) acc.accumulate(k, static_cast<double>(k) + 0.5);
    std::vector<I> cols(acc.count());
    std::vector<double> vals(acc.count());
    acc.extract_sorted(cols.data(), vals.data());
    results.emplace_back(std::move(cols), std::move(vals));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].first, results[0].first);
    EXPECT_EQ(results[i].second, results[0].second);
  }
}

// ---------------------------------------------------------------------------
// Batched multi-key probing: the batch-capture contract demands that
// insert_tagged_batch be bit-identical to per-key insert_tagged — same slot
// assignments, same touched order, same replayed values — at every probe
// tier and for any split of the stream into batches.
// ---------------------------------------------------------------------------

std::size_t striding(std::size_t n) { return n < 4 ? 3 : n; }

template <typename Acc>
void check_batch_matches_perkey(Acc& per_key, Acc& batched,
                                const std::vector<I>& keys, SplitMix64& rng,
                                const char* what) {
  const std::size_t n = keys.size();
  std::vector<I> ref_slots(n);
  std::vector<I> got_slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref_slots[i] = per_key.insert_tagged(keys[i]);
  }
  // Random batch sizes exercise the vector blocks AND the scalar tails.
  std::size_t off = 0;
  while (off < n) {
    const std::size_t len =
        std::min<std::size_t>(n - off, 1 + rng.next_below(striding(n)));
    batched.insert_tagged_batch(keys.data() + off, len, got_slots.data() + off);
    off += len;
  }
  ASSERT_EQ(got_slots, ref_slots) << what;
  ASSERT_EQ(batched.count(), per_key.count()) << what;
  for (std::size_t i = 0; i < per_key.count(); ++i) {
    ASSERT_EQ(batched.touched_slot(i), per_key.touched_slot(i))
        << what << " touched " << i;
  }
  ASSERT_EQ(batched.keys_resolved(), per_key.keys_resolved()) << what;
  // A batch may shed probe rounds (duplicate-in-flight shortcut), never add.
  ASSERT_LE(batched.probes(), per_key.probes()) << what;

  // Replay a value stream through both tagged slot streams and compare the
  // extracted rows exactly (store on tag >= 0, fold on ~slot — the capture
  // protocol of core/spgemm_twophase.hpp).
  const auto replay = [&](Acc& acc, const std::vector<I>& slots) {
    double* vals = acc.slot_values();
    for (std::size_t i = 0; i < n; ++i) {
      const double v = 0.5 + static_cast<double>(i % 17);
      const I e = slots[i];
      if (e >= 0) {
        vals[static_cast<std::size_t>(e)] = v;
      } else {
        vals[static_cast<std::size_t>(~e)] += v;
      }
    }
    std::vector<I> cols(acc.count());
    std::vector<double> out(acc.count());
    acc.extract_unsorted(cols.data(), out.data());
    return std::pair{cols, out};
  };
  const auto [ref_cols, ref_vals] = replay(per_key, ref_slots);
  const auto [got_cols, got_vals] = replay(batched, got_slots);
  EXPECT_EQ(got_cols, ref_cols) << what;
  EXPECT_EQ(got_vals, ref_vals) << what;  // exact: same folds, same order
}

TEST(HashVecAccumulator, BatchedProbingMatchesPerKeyAllTiers) {
  SplitMix64 rng(20260730);
  for (int round = 0; round < 24; ++round) {
    // Alternate randomized and duplicate-heavy (MCL-like) key streams; the
    // tiny universes guarantee duplicates inside one vector block, driving
    // the conflict/rotation shortcut paths.
    const std::size_t universe = (round % 3 == 0)   ? 24
                                 : (round % 3 == 1) ? 700
                                                    : 60000;
    const std::size_t n = 1 + rng.next_below(1200);
    std::vector<I> keys(n);
    for (auto& k : keys) k = static_cast<I>(rng.next_below(universe));
    for (const ProbeKind kind :
         {ProbeKind::kScalar, ProbeKind::kAvx2, ProbeKind::kAvx512}) {
      HashVecAccumulator<I, double> per_key(kind);
      HashVecAccumulator<I, double> batched(kind);
      prepare_for(per_key, n, universe);
      prepare_for(batched, n, universe);
      check_batch_matches_perkey(per_key, batched, keys, rng,
                                 probe_kind_name(kind));
    }
  }
}

TEST(HashAccumulator, BatchedProbingMatchesPerKey) {
  SplitMix64 rng(4242);
  for (int round = 0; round < 12; ++round) {
    const std::size_t universe = round % 2 == 0 ? 40 : 5000;
    const std::size_t n = 1 + rng.next_below(800);
    std::vector<I> keys(n);
    for (auto& k : keys) k = static_cast<I>(rng.next_below(universe));
    HashAccumulator<I, double> per_key;
    HashAccumulator<I, double> batched;
    prepare_for(per_key, n, universe);
    prepare_for(batched, n, universe);
    check_batch_matches_perkey(per_key, batched, keys, rng, "hash");
  }
}

TEST(ProbeKindResolution, EnvForceOverridesAndClamps) {
  // Save/restore any force the CI matrix leg set for this whole binary.
  const char* prev = std::getenv("SPGEMM_FORCE_PROBE");
  const std::string saved = prev != nullptr ? prev : "";
  ASSERT_EQ(setenv("SPGEMM_FORCE_PROBE", "scalar", 1), 0);
  EXPECT_EQ(resolve_probe_kind(ProbeKind::kAuto), ProbeKind::kScalar);
  EXPECT_EQ(resolve_probe_kind(ProbeKind::kAvx512), ProbeKind::kScalar);
  ASSERT_EQ(unsetenv("SPGEMM_FORCE_PROBE"), 0);
  // Unforced: kAuto resolves to a concrete tier the host supports, and any
  // request resolves to something no wider than that.
  const ProbeKind widest = resolve_probe_kind(ProbeKind::kAuto);
  EXPECT_NE(widest, ProbeKind::kAuto);
  EXPECT_LE(static_cast<int>(resolve_probe_kind(ProbeKind::kAvx512)),
            static_cast<int>(ProbeKind::kAvx512));
  EXPECT_EQ(resolve_probe_kind(ProbeKind::kScalar), ProbeKind::kScalar);
  if (prev != nullptr) {
    ASSERT_EQ(setenv("SPGEMM_FORCE_PROBE", saved.c_str(), 1), 0);
  }
}

TEST(HashVecAccumulator, ChunkOverflowSpillsToNextChunk) {
  // 2 chunks of 16 keys; insert 20 distinct keys mapping everywhere: all
  // must be found again.
  HashVecAccumulator<I, double> acc;
  acc.prepare(32);
  for (I k = 0; k < 20; ++k) EXPECT_TRUE(acc.insert(k * 97));
  for (I k = 0; k < 20; ++k) EXPECT_FALSE(acc.insert(k * 97));
}

TEST(TwoLevelHash, ChainsUnderSmallBucketArray) {
  TwoLevelHashAccumulator<I, double> acc;
  acc.prepare(5000);
  for (I k = 0; k < 5000; ++k) ASSERT_TRUE(acc.insert(k));
  EXPECT_EQ(acc.count(), 5000u);
  EXPECT_GT(acc.probes(), 0u);
}

// ---------------------------------------------------------------------------
// Stream heap.
// ---------------------------------------------------------------------------

TEST(StreamHeap, OrdersByColumn) {
  StreamHeap<I, double> heap;
  heap.prepare(8);
  for (const I col : {5, 1, 9, 3, 7}) {
    heap.push({col, 1.0, 0, 1});
  }
  std::vector<I> popped;
  while (!heap.empty()) {
    popped.push_back(heap.top().col);
    heap.pop();
  }
  EXPECT_EQ(popped, (std::vector<I>{1, 3, 5, 7, 9}));
}

TEST(StreamHeap, ReplaceTopKeepsHeapProperty) {
  StreamHeap<I, double> heap;
  heap.prepare(8);
  for (const I col : {2, 4, 6, 8}) heap.push({col, 1.0, 0, 1});
  HeapStream<I, double> s = heap.top();
  EXPECT_EQ(s.col, 2);
  s.col = 7;  // advance the minimum stream past several others
  heap.replace_top(s);
  std::vector<I> popped;
  while (!heap.empty()) {
    popped.push_back(heap.top().col);
    heap.pop();
  }
  EXPECT_EQ(popped, (std::vector<I>{4, 6, 7, 8}));
}

TEST(StreamHeap, DuplicateColumnsAllSurface) {
  StreamHeap<I, double> heap;
  heap.prepare(4);
  heap.push({3, 1.0, 0, 1});
  heap.push({3, 2.0, 0, 1});
  heap.push({1, 3.0, 0, 1});
  EXPECT_EQ(heap.top().col, 1);
  heap.pop();
  EXPECT_EQ(heap.top().col, 3);
  heap.pop();
  EXPECT_EQ(heap.top().col, 3);
  heap.pop();
  EXPECT_TRUE(heap.empty());
}

TEST(StreamHeap, PrepareResetsSize) {
  StreamHeap<I, double> heap;
  heap.prepare(4);
  heap.push({1, 1.0, 0, 1});
  heap.prepare(4);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
}

TEST(StreamHeap, RandomizedSortAgainstStdSort) {
  SplitMix64 rng(31337);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.next_below(200);
    StreamHeap<I, double> heap;
    heap.prepare(n);
    std::vector<I> expected;
    for (std::size_t i = 0; i < n; ++i) {
      const I col = static_cast<I>(rng.next_below(1000));
      expected.push_back(col);
      heap.push({col, 0.0, 0, 1});
    }
    std::sort(expected.begin(), expected.end());
    std::vector<I> got;
    while (!heap.empty()) {
      got.push_back(heap.top().col);
      heap.pop();
    }
    ASSERT_EQ(got, expected) << "round " << round;
  }
}

}  // namespace
}  // namespace spgemm
