// Markov clustering (MCL) — the paper's §1/§5.4 motivating application
// (HipMCL [5]): alternate expansion (M = M^2, the SpGEMM the paper
// benchmarks as "squaring a matrix"), inflation (elementwise power and
// column re-normalization) and pruning of small entries until the matrix
// reaches a fixed point; clusters are read off the attractor structure.
//
// Pruning changes M's structure from one iteration to the next until the
// iteration nears its fixed point, so a replayable plan pays only for a
// structure that comes back.  The handle front plans only what it has just
// seen: an expansion whose M fingerprint differs from the previous
// iteration's ("first sight") runs one-shot and keeps no plan
// (MclResult::one_shots); a repeat plans on its first return
// (plan_builds) and replays after that (plan_reuses).  The engine front
// keeps the engine's own plan cache, which plans every new structure.
#pragma once

#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "core/structure_hash.hpp"
#include "engine/spgemm_engine.hpp"
#include "matrix/ops.hpp"

namespace spgemm::apps {

struct MclParams {
  double inflation = 2.0;    ///< elementwise exponent
  double prune_below = 1e-4; ///< drop entries smaller than this
  int max_iterations = 64;
  double convergence_eps = 1e-8;  ///< max |M - M_prev| entry change
  /// Fuse inflation+pruning into the expansion's numeric pass as a
  /// kPruneScale epilogue: each M^2 row is powered and thresholded while
  /// cache-hot and only kept entries are staged, so the unpruned M^2 never
  /// materializes.  Both ways apply one keep rule (detail::PruneRule) per
  /// element in the same order, so the clustering is bit-identical by
  /// construction; column re-normalization stays an exact post-pass over
  /// the (much smaller) pruned matrix.
  bool fuse_epilogue = true;
};

template <IndexType IT>
struct MclResult {
  std::vector<IT> cluster_of;  ///< cluster id per vertex (0..k-1, dense)
  IT clusters = 0;
  int iterations = 0;
  bool converged = false;
  /// How each expansion ran; the three sum to `iterations`.  one_shots ran
  /// without a plan (handle front, first sight of a structure); plan_builds
  /// built a replayable plan (the handle on a structure's first repeat, the
  /// engine on a plan-cache miss); plan_reuses replayed one.  As the
  /// iteration approaches its fixed point the structure stabilizes and
  /// replays take over.
  int one_shots = 0;
  int plan_builds = 0;
  int plan_reuses = 0;
  /// Every expansion's SpGemmStats, summed: flop, nnz_out (kept entries
  /// when fused), symbolic_ms (0 for a replay or a one-phase kernel),
  /// numeric_ms, epilogue_rows and epilogue_ms.
  SpGemmStats expansion_stats;
};

namespace detail {

/// Normalize columns to sum 1 (a column-stochastic matrix).  Works on CSR
/// by accumulating column sums first.
template <IndexType IT, ValueType VT>
void normalize_columns(CsrMatrix<IT, VT>& m) {
  std::vector<double> colsum(static_cast<std::size_t>(m.ncols), 0.0);
  for (std::size_t j = 0; j < m.cols.size(); ++j) {
    colsum[static_cast<std::size_t>(m.cols[j])] +=
        static_cast<double>(m.vals[j]);
  }
  for (std::size_t j = 0; j < m.cols.size(); ++j) {
    const double s = colsum[static_cast<std::size_t>(m.cols[j])];
    if (s > 0.0) {
      m.vals[j] = static_cast<VT>(static_cast<double>(m.vals[j]) / s);
    }
  }
}

/// Elementwise power then drop entries below the prune threshold, by the
/// fused kPruneScale epilogue's own rule (spgemm::detail::PruneRule).  When
/// `structure_hash` is non-null it receives structure_fingerprint(out),
/// maintained incrementally while the scan emits — the expansion handle's
/// ensure_planned_hashed can then validate a stabilized iteration in O(1)
/// instead of re-reading the whole structure.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> inflate_and_prune(const CsrMatrix<IT, VT>& m,
                                    double inflation, double prune_below,
                                    std::uint64_t* structure_hash = nullptr) {
  const spgemm::detail::PruneRule rule(inflation, prune_below);
  CsrMatrix<IT, VT> out(m.nrows, m.ncols);
  out.cols.reserve(m.cols.size());
  out.vals.reserve(m.vals.size());
  FnvHasher rpts_chain;
  FnvHasher cols_chain;
  rpts_chain.mix(0);  // rpts[0], part of the fingerprint's rpts stream
  for (IT i = 0; i < m.nrows; ++i) {
    Offset kept = 0;
    for (Offset j = m.row_begin(i); j < m.row_end(i); ++j) {
      double inflated = 0.0;
      if (rule.keep(static_cast<double>(m.vals[static_cast<std::size_t>(j)]),
                    inflated)) {
        const IT col = m.cols[static_cast<std::size_t>(j)];
        out.cols.push_back(col);
        out.vals.push_back(static_cast<VT>(inflated));
        cols_chain.mix(static_cast<std::uint64_t>(col));
        ++kept;
      }
    }
    const Offset row_end = out.rpts[static_cast<std::size_t>(i)] + kept;
    out.rpts[static_cast<std::size_t>(i) + 1] = row_end;
    rpts_chain.mix(static_cast<std::uint64_t>(row_end));
  }
  out.sortedness = m.sortedness;
  if (structure_hash != nullptr) {
    *structure_hash =
        combine_structure_hash(rpts_chain.value(), cols_chain.value());
  }
  return out;
}

/// Max absolute entrywise difference (rows compared as sorted lists).
template <IndexType IT, ValueType VT>
double max_entry_change(const CsrMatrix<IT, VT>& a,
                        const CsrMatrix<IT, VT>& b) {
  double worst = 0.0;
  std::vector<double> dense(static_cast<std::size_t>(a.ncols), 0.0);
  for (IT i = 0; i < a.nrows; ++i) {
    for (Offset j = a.row_begin(i); j < a.row_end(i); ++j) {
      dense[static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)])] =
          static_cast<double>(a.vals[static_cast<std::size_t>(j)]);
    }
    for (Offset j = b.row_begin(i); j < b.row_end(i); ++j) {
      const auto c = static_cast<std::size_t>(
          b.cols[static_cast<std::size_t>(j)]);
      worst = std::max(worst,
                       std::abs(dense[c] -
                                static_cast<double>(
                                    b.vals[static_cast<std::size_t>(j)])));
      dense[c] = 0.0;
    }
    for (Offset j = a.row_begin(i); j < a.row_end(i); ++j) {
      const auto c = static_cast<std::size_t>(
          a.cols[static_cast<std::size_t>(j)]);
      worst = std::max(worst, std::abs(dense[c]));
      dense[c] = 0.0;
    }
  }
  return worst;
}

/// M = normalize(A + I): self-loops added (standard MCL practice), columns
/// made stochastic.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> mcl_initial_matrix(const CsrMatrix<IT, VT>& graph) {
  CooMatrix<IT, VT> assembly;
  assembly.nrows = graph.nrows;
  assembly.ncols = graph.ncols;
  for (IT i = 0; i < graph.nrows; ++i) {
    assembly.push_back(i, i, VT{1});
    for (Offset j = graph.row_begin(i); j < graph.row_end(i); ++j) {
      assembly.push_back(i, graph.cols[static_cast<std::size_t>(j)],
                         VT{1});
    }
  }
  CsrMatrix<IT, VT> m = csr_from_coo(std::move(assembly));
  normalize_columns(m);
  return m;
}

/// How one expansion ran (MclResult's three counters).
enum class ExpansionRun { kOneShot, kPlanBuilt, kPlanReused };

/// One M^2, owned: the product, its stats and how it ran.
template <IndexType IT, ValueType VT>
struct Expansion {
  CsrMatrix<IT, VT> c;
  SpGemmStats stats;
  ExpansionRun run = ExpansionRun::kOneShot;
};

/// The expand-inflate-prune fixed-point loop plus cluster interpretation,
/// shared by the handle-based and engine-based fronts.  `expand` computes
/// one M^2: (m, fingerprint(m)) -> Expansion, whose product run_mcl takes
/// by value.  M's structure fingerprint rides along incrementally: paid
/// once up front, then maintained by inflate_and_prune while it scans, so
/// stabilized iterations validate their plan (or hit the plan cache) in
/// O(1) instead of re-hashing O(nnz) every expansion.
template <IndexType IT, ValueType VT, typename Expand>
MclResult<IT> run_mcl(CsrMatrix<IT, VT> m, const MclParams& params,
                      Expand&& expand) {
  MclResult<IT> out;
  std::uint64_t m_hash = structure_fingerprint(m);
  for (int iter = 0; iter < params.max_iterations; ++iter) {
    Expansion<IT, VT> expanded = expand(m, m_hash);
    switch (expanded.run) {
      case ExpansionRun::kOneShot:
        ++out.one_shots;
        break;
      case ExpansionRun::kPlanBuilt:
        ++out.plan_builds;
        break;
      case ExpansionRun::kPlanReused:
        ++out.plan_reuses;
        break;
    }
    SpGemmStats& sum = out.expansion_stats;
    sum.flop += expanded.stats.flop;
    sum.nnz_out += expanded.stats.nnz_out;
    sum.symbolic_ms += expanded.stats.symbolic_ms;
    sum.numeric_ms += expanded.stats.numeric_ms;
    sum.epilogue_rows += expanded.stats.epilogue_rows;
    sum.epilogue_ms += expanded.stats.epilogue_ms;
    std::uint64_t next_hash = 0;
    CsrMatrix<IT, VT> next;
    if (params.fuse_epilogue) {
      // The expansion already inflated and pruned each row in its numeric
      // pass (kPruneScale epilogue); fingerprint the small kept structure.
      next = std::move(expanded.c);
      next_hash = structure_fingerprint(next);
    } else {
      next = inflate_and_prune(expanded.c, params.inflation,
                               params.prune_below, &next_hash);
    }
    normalize_columns(next);
    ++out.iterations;
    const bool converged =
        max_entry_change(m, next) < params.convergence_eps;
    m = std::move(next);
    m_hash = next_hash;
    if (converged) {
      out.converged = true;
      break;
    }
  }

  // Interpret the limit matrix: attractors are vertices with weight on
  // their own column; every vertex joins the cluster of the attractor(s)
  // it flows to (largest entry in its column).
  const auto n = static_cast<std::size_t>(m.nrows);
  std::vector<IT> attractor_of(n, IT{-1});
  std::vector<double> best(n, -1.0);
  for (IT i = 0; i < m.nrows; ++i) {
    for (Offset j = m.row_begin(i); j < m.row_end(i); ++j) {
      const auto col = static_cast<std::size_t>(
          m.cols[static_cast<std::size_t>(j)]);
      const auto v = static_cast<double>(
          m.vals[static_cast<std::size_t>(j)]);
      if (v > best[col]) {
        best[col] = v;
        attractor_of[col] = i;  // column col flows to attractor row i
      }
    }
  }
  // Collapse attractor ids to dense cluster labels (attractors that share
  // a row belong together).
  out.cluster_of.assign(n, IT{-1});
  std::vector<IT> label_of_attractor(n, IT{-1});
  IT next_label = 0;
  for (std::size_t v = 0; v < n; ++v) {
    IT a = attractor_of[v];
    if (a < 0) a = static_cast<IT>(v);  // isolated vertex: own cluster
    if (label_of_attractor[static_cast<std::size_t>(a)] < 0) {
      label_of_attractor[static_cast<std::size_t>(a)] = next_label++;
    }
    out.cluster_of[v] = label_of_attractor[static_cast<std::size_t>(a)];
  }
  out.clusters = next_label;
  return out;
}

}  // namespace detail

/// Run MCL on the (undirected) graph adjacency matrix.  A first sight of
/// M's structure (its fingerprint differs from the previous iteration's)
/// runs a one-shot expansion, multiply_with_epilogue when fused or
/// multiply when not, with the caller's kernel; under kAuto a dense output
/// row that fits recipe::kDenseRowMaxBytes makes that the one-phase SPA.
/// A repeated structure goes through one persistent inspector-executor
/// handle: it plans on the first repeat and each later M^2 is a
/// numeric-only replay.  Every path gives Hash's bytes, so the clustering
/// does not depend on which ran.
template <IndexType IT, ValueType VT>
MclResult<IT> markov_cluster(const CsrMatrix<IT, VT>& graph,
                             const MclParams& params = {},
                             SpGemmOptions opts = {}) {
  if (params.fuse_epilogue) {
    opts.epilogue.kind = EpilogueKind::kPruneScale;
    opts.epilogue.inflation = params.inflation;
    opts.epilogue.prune_below = params.prune_below;
  }
  // The one-shot runs what multiply_with_epilogue runs; the handle needs a
  // two-phase kernel (kAuto resolves through plan()'s recipe).  Other
  // requests map to Hash on both.
  SpGemmOptions once = opts;
  if (once.algorithm != Algorithm::kAuto &&
      !spgemm::detail::runs_epilogue(once.algorithm)) {
    once.algorithm = Algorithm::kHash;
  }
  SpGemmOptions planned = opts;
  if (planned.algorithm != Algorithm::kAuto &&
      !is_two_phase(planned.algorithm)) {
    planned.algorithm = Algorithm::kHash;
  }
  SpGemmHandle<IT, VT> expansion;
  std::optional<std::uint64_t> last_hash;
  return detail::run_mcl<IT, VT>(
      detail::mcl_initial_matrix(graph), params,
      [&](const CsrMatrix<IT, VT>& m, std::uint64_t m_hash) {
        detail::Expansion<IT, VT> e;
        const bool repeat = last_hash == m_hash;
        last_hash = m_hash;
        if (!repeat) {
          e.c = params.fuse_epilogue
                    ? multiply_with_epilogue(m, m, once, &e.stats)
                    : multiply(m, m, once, &e.stats);
          return e;
        }
        e.run = expansion.ensure_planned_hashed(m, m, m_hash, m_hash, planned)
                    ? detail::ExpansionRun::kPlanBuilt
                    : detail::ExpansionRun::kPlanReused;
        expansion.execute_into(m, m, e.c, PlusTimes{}, &e.stats);
        // A replay runs no symbolic phase; the handle's stats keep the
        // figure of the plan it replays.
        if (e.run == detail::ExpansionRun::kPlanReused) {
          e.stats.symbolic_ms = 0.0;
        }
        return e;
      });
}

/// MCL with its expansion rounds streamed through a shared serving engine
/// (engine/spgemm_engine.hpp): each M^2 is submitted as a request whose
/// fingerprints ride along from inflate_and_prune, so stabilized
/// iterations hit the engine's PlanCache — and because the cache is the
/// ENGINE's, many concurrent clusterings (or any other tenants) share one
/// plan store and one worker pool.  The engine plans every structure it
/// has not cached, so one_shots stays 0 and plan_builds/plan_reuses report
/// cache misses/hits as seen by this stream; expansion_stats folds each
/// Product's stats.
template <IndexType IT, ValueType VT>
MclResult<IT> markov_cluster(const CsrMatrix<IT, VT>& graph,
                             engine::SpGemmEngine<IT, VT>& eng,
                             const MclParams& params = {}) {
  EpilogueSpec epilogue;
  if (params.fuse_epilogue) {
    epilogue.kind = EpilogueKind::kPruneScale;
    epilogue.inflation = params.inflation;
    epilogue.prune_below = params.prune_below;
  }
  return detail::run_mcl<IT, VT>(
      detail::mcl_initial_matrix(graph), params,
      [&](const CsrMatrix<IT, VT>& m, std::uint64_t m_hash) {
        typename engine::SpGemmEngine<IT, VT>::Request req;
        req.a = &m;
        req.b = &m;
        req.fp_a = m_hash;
        req.fp_b = m_hash;
        req.has_fingerprints = true;
        req.epilogue = epilogue;
        auto product = eng.submit(req).get();
        return detail::Expansion<IT, VT>{
            std::move(product.c), product.stats,
            product.cache_hit ? detail::ExpansionRun::kPlanReused
                              : detail::ExpansionRun::kPlanBuilt};
      });
}

}  // namespace spgemm::apps
