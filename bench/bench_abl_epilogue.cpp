// Ablation: fused epilogue pipelines vs unfused multiply-then-postprocess.
//
// Three pipelines, each measured fused and unfused:
//   * MCL expansion round: M^2 with inflation+pruning fused as a
//     kPruneScale epilogue vs materialize-then-inflate_and_prune;
//   * triangle counting: count_triangles_fused's masked L*U product
//     (multiply_masked, which computes only the closed wedges) vs
//     materialize-the-wedges-then-masked_sum;
//   * Galerkin RAP: multiply_rap vs R*(A*P) with the AP intermediate.
//
// Wall time is measured in-process (fused variants first, after a full-scale
// fused warm-up so neither side pays OpenMP spin-up or first-touch costs).
// The mcl-paired row runs the fused and unfused MCL pipelines back to back,
// order alternating, over kMclPairs pairs; its paired_ratio is the median
// per-pair fused / unfused wall time, the comparison CI gates below 1.0.
// Peak RSS is measured differently: getrusage's high-water mark is
// process-monotonic and malloc recycles freed arena pages across variants,
// so in-process deltas smear the attribution.  Instead each variant re-execs
// this binary as a CHILD process (SPGEMM_ABL_RSS_CHILD=<variant>) that
// builds the same inputs, runs the pipeline once, and reports its own peak —
// identical baselines, no shared arena, so unfused_peak - fused_peak is
// exactly the footprint fusion never allocates.  *-intermediate-estimate
// rows carry model::fused_epilogue_savings_estimate of the intermediate the
// unfused pipeline materialized — the minimum saving CI asserts between the
// fused and unfused peaks (ci.yml bench-smoke, scale 12).
//
//   SPGEMM_BENCH_SCALE=N    rmat scale (default 14; acceptance runs 16)
//   SPGEMM_BENCH_TRIALS=N   timing repetitions (default 3)
//   SPGEMM_BENCH_THREADS=N  OpenMP threads
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define SPGEMM_ABL_HAS_CHILD_RSS 1
#else
#define SPGEMM_ABL_HAS_CHILD_RSS 0
#endif

#include "apps/amg_galerkin.hpp"
#include "apps/markov_cluster.hpp"
#include "apps/triangle_count.hpp"
#include "bench_util.hpp"
#include "matrix/rmat.hpp"
#include "model/memory_model.hpp"

namespace spgemm::bench {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;

constexpr int kMclIterations = 6;
constexpr int kMclPairs = 40;

struct Measured {
  double ms = 0.0;             ///< median wall time of one run
  long long rss_delta = 0;     ///< peak RSS (child process) or delta
  long long executions = 0;    ///< iterations per run (MCL rows)
  Offset intermediate_nnz = 0; ///< nnz the unfused pipeline materialized
};

/// Median-of-trials wall time with an in-process peak-RSS delta as the
/// fallback when child-process measurement is unavailable.
template <typename Fn>
Measured measure(Fn&& run) {
  Measured out;
  const auto rss_before = static_cast<long long>(peak_rss_bytes());
  std::vector<double> times;
  for (int t = 0; t < std::max(1, trials()); ++t) {
    Timer timer;
    out.intermediate_nnz = run(out);
    times.push_back(timer.millis());
  }
  std::sort(times.begin(), times.end());
  out.ms = times[times.size() / 2];
  out.rss_delta =
      static_cast<long long>(peak_rss_bytes()) - rss_before;
  return out;
}

void add_row(JsonReporter& json, const std::string& kernel,
             const std::string& matrix, const Measured& m) {
  BenchRecord rec;
  rec.kernel = kernel;
  rec.matrix = matrix;
  rec.threads = bench_threads();
  rec.total_ms = m.ms;
  rec.peak_rss_bytes = m.rss_delta;
  rec.executions = m.executions;
  rec.nnz_out = m.intermediate_nnz;
  json.add(std::move(rec));
  std::printf("%-22s %10.2f ms   peak rss %.1f MiB   intermediate nnz %lld\n",
              kernel.c_str(), m.ms,
              static_cast<double>(m.rss_delta) / (1024.0 * 1024.0),
              static_cast<long long>(m.intermediate_nnz));
}

void add_estimate_row(JsonReporter& json, const std::string& kernel,
                      const std::string& matrix, Offset nnz,
                      std::size_t nrows) {
  BenchRecord rec;
  rec.kernel = kernel;
  rec.matrix = matrix;
  rec.threads = bench_threads();
  rec.nnz_out = nnz;
  rec.peak_rss_bytes = static_cast<long long>(
      model::fused_epilogue_savings_estimate(nnz, nrows));
  std::printf("%-22s estimate %.1f MiB (nnz %lld)\n", kernel.c_str(),
              static_cast<double>(rec.peak_rss_bytes) / (1024.0 * 1024.0),
              static_cast<long long>(nnz));
  json.add(std::move(rec));
}

/// One full run of a named pipeline variant — the unit both the timing loop
/// and the child-process RSS probe execute.
void run_variant_once(const std::string& name, const Matrix& a,
                      const Matrix& p, const SpGemmOptions& opts) {
  if (name == "mcl-fused" || name == "mcl-unfused") {
    apps::MclParams params;
    params.max_iterations = kMclIterations;
    params.convergence_eps = 0.0;
    params.fuse_epilogue = (name == "mcl-fused");
    apps::markov_cluster(a, params, opts);
  } else if (name == "tricount-fused") {
    apps::count_triangles_fused(a, opts);
  } else if (name == "tricount-unfused") {
    apps::count_triangles(a, opts);
  } else if (name == "rap-fused") {
    apps::galerkin_product_fused(a, p, opts);
  } else if (name == "rap-unfused") {
    apps::galerkin_product(a, p, opts);
  } else {
    std::fprintf(stderr, "unknown variant %s\n", name.c_str());
    std::exit(2);
  }
}

/// Fused vs unfused MCL, paired: the two pipelines run back to back, fused
/// first in even pairs and unfused first in odd ones, and each pair
/// contributes its fused / unfused wall-time ratio.  Returns the median
/// pair ratio.  Medians of two separate trial runs would compare run order
/// and machine drift as much as fusion.
double paired_mcl_ratio(const Matrix& a, const Matrix& p,
                        const SpGemmOptions& opts, int pairs) {
  const auto run_ms = [&](const char* variant) {
    Timer timer;
    run_variant_once(variant, a, p, opts);
    return timer.millis();
  };
  std::vector<double> ratios;
  for (int i = 0; i < pairs; ++i) {
    const bool fused_first = i % 2 == 0;
    const double first = run_ms(fused_first ? "mcl-fused" : "mcl-unfused");
    const double second = run_ms(fused_first ? "mcl-unfused" : "mcl-fused");
    ratios.push_back(fused_first ? first / second : second / first);
  }
  return latency_percentile(ratios, 0.5);
}

/// Re-exec this binary with SPGEMM_ABL_RSS_CHILD=<variant>; the child
/// builds the same inputs, runs the variant once, and prints its own
/// process-wide peak RSS.  Returns -1 when unavailable (parent falls back
/// to in-process deltas).
long long child_peak_rss(const std::string& exe, const std::string& variant) {
#if SPGEMM_ABL_HAS_CHILD_RSS
  const std::string cmd =
      "SPGEMM_ABL_RSS_CHILD=" + variant + " '" + exe + "' 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char line[256];
  long long peak = -1;
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    long long v = 0;
    if (std::sscanf(line, "RSS_PEAK %lld", &v) == 1) peak = v;
  }
  if (::pclose(pipe) != 0) return -1;
  return peak;
#else
  (void)exe;
  (void)variant;
  return -1;
#endif
}

std::string self_exe(const char* argv0) {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[static_cast<std::size_t>(n)] = '\0';
    return buf;
  }
#endif
  return argv0 != nullptr ? argv0 : "";
}

}  // namespace
}  // namespace spgemm::bench

int main(int, char** argv) {
  using namespace spgemm;
  using namespace spgemm::bench;

  const int scale = bench_scale(14);
  const char* child_variant = std::getenv("SPGEMM_ABL_RSS_CHILD");

  Matrix a = rmat_matrix<I, double>(RmatParams::g500(scale, 8, 7));
  for (auto& v : a.vals) v = 1.0;
  const Matrix p = apps::aggregation_prolongator<I, double>(a.nrows, 8);
  SpGemmOptions opts;
  opts.threads = bench_threads();
  opts.sort_output = SortOutput::kYes;

  if (child_variant != nullptr) {
    // RSS-probe child: run the one variant, report our own peak, exit.
    run_variant_once(child_variant, a, p, opts);
    std::printf("RSS_PEAK %lld\n",
                static_cast<long long>(peak_rss_bytes()));
    return 0;
  }

  print_banner("ablation: fused epilogues",
               "fused per-row epilogues vs materialize-then-postprocess");
  JsonReporter json("abl_epilogue");
  const std::string matrix = "rmat-" + std::to_string(scale);
  std::printf("input: rmat scale %d, edge factor 8\n\n", scale);

  // Warm-up at full scale through the FUSED pipelines: spins up the OpenMP
  // pool and first-touches plan- and matrix-scale pages so the timing loop
  // below compares steady-state work, not cold-start costs.
  for (const char* v : {"mcl-fused", "tricount-fused", "rap-fused"}) {
    run_variant_once(v, a, p, opts);
  }

  // ---- timing: fused variants first (in-process RSS fallback stays
  //      attributable that way — the counter is process-monotonic) --------
  Measured mcl_fused;
  {
    apps::MclParams params;
    params.max_iterations = kMclIterations;
    params.convergence_eps = 0.0;  // fixed iteration count: comparable rows
    params.fuse_epilogue = true;
    mcl_fused = measure([&](Measured& out) -> Offset {
      out.executions = apps::markov_cluster(a, params, opts).iterations;
      return 0;
    });
    if (mcl_fused.executions > 0) {
      mcl_fused.ms /= static_cast<double>(mcl_fused.executions);
    }
  }

  long long triangles_fused = 0;
  Measured tri_fused = measure([&](Measured&) -> Offset {
    triangles_fused = apps::count_triangles_fused(a, opts).triangles;
    return 0;
  });

  Measured rap_fused = measure([&](Measured&) -> Offset {
    return static_cast<Offset>(
        apps::galerkin_product_fused(a, p, opts).coarse.nnz());
  });

  Measured mcl_unfused;
  {
    apps::MclParams params;
    params.max_iterations = kMclIterations;
    params.convergence_eps = 0.0;
    params.fuse_epilogue = false;
    mcl_unfused = measure([&](Measured& out) -> Offset {
      out.executions = apps::markov_cluster(a, params, opts).iterations;
      return 0;
    });
    if (mcl_unfused.executions > 0) {
      mcl_unfused.ms /= static_cast<double>(mcl_unfused.executions);
    }
  }

  long long triangles_unfused = 0;
  Measured tri_unfused = measure([&](Measured&) -> Offset {
    const auto result = apps::count_triangles(a, opts);
    triangles_unfused = result.triangles;
    return static_cast<Offset>(result.wedges.nnz());
  });
  if (triangles_fused != triangles_unfused) {
    std::fprintf(stderr, "FUSED/UNFUSED TRIANGLE MISMATCH: %lld vs %lld\n",
                 triangles_fused, triangles_unfused);
    return 1;
  }

  Offset ap_nnz = 0;
  Measured rap_unfused = measure([&](Measured&) -> Offset {
    ap_nnz = apps::galerkin_product(a, p, opts).ap_stats.nnz_out;
    return ap_nnz;
  });

  BenchRecord mcl_paired;
  mcl_paired.kernel = "mcl-paired";
  mcl_paired.matrix = matrix;
  mcl_paired.threads = bench_threads();
  mcl_paired.paired_ratio = paired_mcl_ratio(a, p, opts, kMclPairs);

  // ---- peak RSS: one child process per variant, identical baselines ------
  const std::string exe = self_exe(argv[0]);
  struct Probe {
    const char* variant;
    Measured* row;
  };
  for (const Probe& pr : {Probe{"mcl-fused", &mcl_fused},
                          Probe{"mcl-unfused", &mcl_unfused},
                          Probe{"tricount-fused", &tri_fused},
                          Probe{"tricount-unfused", &tri_unfused},
                          Probe{"rap-fused", &rap_fused},
                          Probe{"rap-unfused", &rap_unfused}}) {
    const long long peak = child_peak_rss(exe, pr.variant);
    if (peak >= 0) pr.row->rss_delta = peak;
  }

  add_row(json, "mcl-fused", matrix, mcl_fused);
  add_row(json, "tricount-fused", matrix, tri_fused);
  add_row(json, "rap-fused", matrix, rap_fused);
  add_row(json, "mcl-unfused", matrix, mcl_unfused);
  add_row(json, "tricount-unfused", matrix, tri_unfused);
  add_row(json, "rap-unfused", matrix, rap_unfused);
  std::printf("%-22s fused / unfused time, median of %d paired runs: %.3f\n",
              "mcl-paired", kMclPairs, mcl_paired.paired_ratio);
  json.add(std::move(mcl_paired));

  // ---- intermediate-size estimates (the M^2 expansion here is safe now:
  // all RSS numbers came from child processes) -----------------------------
  {
    const Matrix m0 = apps::detail::mcl_initial_matrix(a);
    const Matrix m2 = multiply(m0, m0, opts);
    add_estimate_row(json, "mcl-intermediate-estimate", matrix,
                     static_cast<Offset>(m2.nnz()),
                     static_cast<std::size_t>(m0.nrows));
  }
  add_estimate_row(json, "tricount-intermediate-estimate", matrix,
                   tri_unfused.intermediate_nnz,
                   static_cast<std::size_t>(a.nrows));
  add_estimate_row(json, "rap-intermediate-estimate", matrix, ap_nnz,
                   static_cast<std::size_t>(a.nrows));

  json.flush();
  return 0;
}
