// Markov clustering (MCL) driven by SpGEMM expansion (paper §1; HipMCL):
// cluster a planted-partition graph and check the recovered communities,
// timing the repeated A^2 products that dominate the algorithm.
//
//   ./markov_clustering [communities] [community_size]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/markov_cluster.hpp"
#include "spgemm/spgemm.hpp"

int main(int argc, char** argv) {
  using namespace spgemm;

  const int communities = argc > 1 ? std::atoi(argv[1]) : 16;
  const int size = argc > 2 ? std::atoi(argv[2]) : 24;
  const std::int32_t n = communities * size;

  // Planted partition: dense cliques plus a sparse ring of bridges.
  CooMatrix<std::int32_t, double> coo;
  coo.nrows = n;
  coo.ncols = n;
  SplitMix64 rng(5);
  for (int c = 0; c < communities; ++c) {
    const std::int32_t base = c * size;
    for (std::int32_t i = 0; i < size; ++i) {
      for (std::int32_t j = i + 1; j < size; ++j) {
        if (rng.next_double() < 0.6) {
          coo.push_back(base + i, base + j, 1.0);
          coo.push_back(base + j, base + i, 1.0);
        }
      }
    }
    // One bridge to the next community.
    const std::int32_t u = base;
    const std::int32_t v = ((c + 1) % communities) * size;
    coo.push_back(u, v, 1.0);
    coo.push_back(v, u, 1.0);
  }
  const auto graph = csr_from_coo(std::move(coo));
  std::printf("planted graph: %d vertices, %lld edges, %d communities\n", n,
              static_cast<long long>(graph.nnz()), communities);

  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  Timer timer;
  const auto result = apps::markov_cluster(graph, apps::MclParams{}, opts);
  std::printf("MCL: %d clusters in %d iterations (%.2f ms), %s\n",
              result.clusters, result.iterations, timer.millis(),
              result.converged ? "converged" : "iteration budget hit");
  std::printf("expansions: %d one-shot first sights, %d plan builds, "
              "%d numeric-only replays (structure froze %s convergence)\n",
              result.one_shots, result.plan_builds, result.plan_reuses,
              result.plan_reuses > 0 ? "before" : "only at");

  // Score: fraction of vertices whose label matches the majority label of
  // their planted community.
  int correct = 0;
  for (int c = 0; c < communities; ++c) {
    std::vector<int> votes(static_cast<std::size_t>(result.clusters), 0);
    for (int i = 0; i < size; ++i) {
      ++votes[static_cast<std::size_t>(
          result.cluster_of[static_cast<std::size_t>(c * size + i)])];
    }
    int majority = 0;
    for (const int v : votes) majority = std::max(majority, v);
    correct += majority;
  }
  std::printf("community recovery: %.1f%% of vertices in their planted "
              "community's majority cluster\n",
              100.0 * correct / n);
  return 0;
}
