// Structural operations on CSR matrices: transpose, column permutation
// (the paper's device for producing unsorted inputs), column extraction
// (tall-skinny construction, §5.5), comparison and reductions.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"
#include "matrix/csr.hpp"

namespace spgemm {

/// C = A^T.  Output rows are emitted in ascending column order (sorted).
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> transpose(const CsrMatrix<IT, VT>& a) {
  CsrMatrix<IT, VT> out(a.ncols, a.nrows);
  const std::size_t nnz = static_cast<std::size_t>(a.nnz());
  out.cols.resize(nnz);
  out.vals.resize(nnz);

  // Count entries per output row (= input column).
  for (std::size_t j = 0; j < nnz; ++j) {
    ++out.rpts[static_cast<std::size_t>(a.cols[j]) + 1];
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(a.ncols); ++i) {
    out.rpts[i + 1] += out.rpts[i];
  }
  std::vector<Offset> cursor(out.rpts.begin(), out.rpts.end() - 1);
  for (IT i = 0; i < a.nrows; ++i) {
    for (Offset j = a.row_begin(i); j < a.row_end(i); ++j) {
      const auto c = static_cast<std::size_t>(
          a.cols[static_cast<std::size_t>(j)]);
      const auto slot = static_cast<std::size_t>(cursor[c]++);
      out.cols[slot] = i;
      out.vals[slot] = a.vals[static_cast<std::size_t>(j)];
    }
  }
  out.sortedness = Sortedness::kSorted;
  return out;
}

/// Relabel columns by a random permutation (seeded).  This is how the paper
/// prepares "unsorted" inputs (§5.1): the structure is equivalent up to
/// column order but rows are no longer ascending.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> permute_columns_randomly(const CsrMatrix<IT, VT>& a,
                                           std::uint64_t seed) {
  std::vector<IT> perm(static_cast<std::size_t>(a.ncols));
  std::iota(perm.begin(), perm.end(), IT{0});
  SplitMix64 rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  CsrMatrix<IT, VT> out = a;
  for (auto& c : out.cols) c = perm[static_cast<std::size_t>(c)];
  out.sortedness = Sortedness::kUnsorted;
  return out;
}

/// B = A(:, selected): keep the chosen columns, compacted and relabelled to
/// 0..k-1 in the order given.  Builds the tall-skinny right-hand side of
/// §5.5 when `selected` is a random sample of columns.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> extract_columns(const CsrMatrix<IT, VT>& a,
                                  const std::vector<IT>& selected) {
  std::vector<IT> relabel(static_cast<std::size_t>(a.ncols), IT{-1});
  for (std::size_t k = 0; k < selected.size(); ++k) {
    const IT c = selected[k];
    if (c < 0 || c >= a.ncols) {
      throw std::out_of_range("extract_columns: column out of range");
    }
    relabel[static_cast<std::size_t>(c)] = static_cast<IT>(k);
  }

  CsrMatrix<IT, VT> out(a.nrows, static_cast<IT>(selected.size()));
  for (IT i = 0; i < a.nrows; ++i) {
    Offset count = 0;
    for (Offset j = a.row_begin(i); j < a.row_end(i); ++j) {
      if (relabel[static_cast<std::size_t>(
              a.cols[static_cast<std::size_t>(j)])] >= 0) {
        ++count;
      }
    }
    out.rpts[static_cast<std::size_t>(i) + 1] = count;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(a.nrows); ++i) {
    out.rpts[i + 1] += out.rpts[i];
  }
  out.cols.resize(static_cast<std::size_t>(out.nnz()));
  out.vals.resize(static_cast<std::size_t>(out.nnz()));
  for (IT i = 0; i < a.nrows; ++i) {
    auto slot = static_cast<std::size_t>(out.row_begin(i));
    for (Offset j = a.row_begin(i); j < a.row_end(i); ++j) {
      const IT nc = relabel[static_cast<std::size_t>(
          a.cols[static_cast<std::size_t>(j)])];
      if (nc >= 0) {
        out.cols[slot] = nc;
        out.vals[slot] = a.vals[static_cast<std::size_t>(j)];
        ++slot;
      }
    }
  }
  // Relabelling is order-preserving only if `selected` was ascending.
  out.sortedness = std::is_sorted(selected.begin(), selected.end())
                       ? a.sortedness
                       : Sortedness::kUnsorted;
  return out;
}

/// Uniform random sample (without replacement) of k columns, ascending.
template <IndexType IT>
std::vector<IT> sample_columns(IT ncols, IT k, std::uint64_t seed) {
  std::vector<IT> all(static_cast<std::size_t>(ncols));
  std::iota(all.begin(), all.end(), IT{0});
  SplitMix64 rng(seed);
  for (IT i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(i) +
                   rng.next_below(static_cast<std::uint64_t>(ncols - i));
    std::swap(all[static_cast<std::size_t>(i)], all[j]);
  }
  all.resize(static_cast<std::size_t>(k));
  std::sort(all.begin(), all.end());
  return all;
}

/// Numeric equality of two matrices allowing unsorted rows and rounding.
/// Rows are compared as (column, value) multisets with |a-b| <=
/// tol * max(1, |a|, |b|) per entry; explicit zeros are NOT dropped.
/// Non-finite entries compare exactly, NaN matching only NaN.
template <IndexType IT, ValueType VT>
bool approx_equal(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                  double tol = 1e-9) {
  if (a.nrows != b.nrows || a.ncols != b.ncols) return false;
  for (IT i = 0; i < a.nrows; ++i) {
    if (a.row_nnz(i) != b.row_nnz(i)) return false;
    const auto len = static_cast<std::size_t>(a.row_nnz(i));
    std::vector<std::pair<IT, VT>> ra(len), rb(len);
    for (std::size_t j = 0; j < len; ++j) {
      const auto pa = static_cast<std::size_t>(a.row_begin(i)) + j;
      const auto pb = static_cast<std::size_t>(b.row_begin(i)) + j;
      ra[j] = {a.cols[pa], a.vals[pa]};
      rb[j] = {b.cols[pb], b.vals[pb]};
    }
    auto by_col = [](const auto& x, const auto& y) {
      return x.first < y.first;
    };
    std::sort(ra.begin(), ra.end(), by_col);
    std::sort(rb.begin(), rb.end(), by_col);
    for (std::size_t j = 0; j < len; ++j) {
      if (ra[j].first != rb[j].first) return false;
      const double va = static_cast<double>(ra[j].second);
      const double vb = static_cast<double>(rb[j].second);
      if (!std::isfinite(va) || !std::isfinite(vb)) {
        if (std::isnan(va) ? !std::isnan(vb) : va != vb) return false;
        continue;
      }
      const double scale =
          std::max({1.0, std::abs(va), std::abs(vb)});
      if (std::abs(va - vb) > tol * scale) return false;
    }
  }
  return true;
}

/// sum over nonzeros of mask of (C .* mask): the masked reduction used by
/// triangle counting (sum of wedge counts over actual edges).  Both inputs
/// may be unsorted.
template <IndexType IT, ValueType VT>
double masked_sum(const CsrMatrix<IT, VT>& c, const CsrMatrix<IT, VT>& mask) {
  if (c.nrows != mask.nrows || c.ncols != mask.ncols) {
    throw std::invalid_argument("masked_sum: dimension mismatch");
  }
  double total = 0.0;
  std::vector<double> dense;
#pragma omp parallel private(dense) reduction(+ : total)
  {
    dense.assign(static_cast<std::size_t>(c.ncols), 0.0);
#pragma omp for schedule(dynamic, 128)
    for (IT i = 0; i < c.nrows; ++i) {
      for (Offset j = c.row_begin(i); j < c.row_end(i); ++j) {
        dense[static_cast<std::size_t>(c.cols[static_cast<std::size_t>(j)])] =
            static_cast<double>(c.vals[static_cast<std::size_t>(j)]);
      }
      for (Offset j = mask.row_begin(i); j < mask.row_end(i); ++j) {
        total += dense[static_cast<std::size_t>(
            mask.cols[static_cast<std::size_t>(j)])];
      }
      for (Offset j = c.row_begin(i); j < c.row_end(i); ++j) {
        dense[static_cast<std::size_t>(c.cols[static_cast<std::size_t>(j)])] =
            0.0;
      }
    }
  }
  return total;
}

}  // namespace spgemm
