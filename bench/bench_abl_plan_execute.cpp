// Ablation: inspector-executor amortization — plan once, execute N, versus
// N one-shot multiplies (machine-readable; needs no google-benchmark).
//
// Two workloads exercise the SpGemmHandle surface end to end:
//   * A^2 on a scale-16 Graph500 RMAT (the paper's squaring benchmark) for
//     every two-phase kernel: values are rescaled between executes so the
//     handle really re-folds the numeric phase each iteration;
//   * an AMG Galerkin re-assembly sequence (fixed R/P structure, stiffness
//     values changing per time step) through apps::GalerkinReassembler.
//
// Emits BENCH_abl_plan_execute.json with, per kernel: the one-shot total
// time, the one-time plan cost, and the average per-execute cost.  The
// amortization claim is execute_ms < one-shot total_ms — the symbolic
// phase, partition, capture and output allocation are all off the repeated
// path.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/amg_galerkin.hpp"
#include "bench_util.hpp"
#include "core/spgemm_handle.hpp"
#include "matrix/rmat.hpp"

namespace {

using namespace spgemm;
using namespace spgemm::bench;

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;

constexpr int kExecutes = 8;

struct AmortizedRow {
  double one_shot_ms = 0.0;
  double plan_ms = 0.0;
  double execute_ms = 0.0;  ///< average of kExecutes numeric-only runs
};

/// Median-of-trials one-shot multiply plus plan-once/execute-N timings.
AmortizedRow measure_kernel(Matrix& a, const KernelSpec& spec) {
  AmortizedRow row;
  SpGemmOptions opts;
  opts.algorithm = spec.algorithm;
  opts.sort_output = spec.sort;
  opts.threads = bench_threads();

  {  // one-shot: warm-up + median of trials
    multiply(a, a, opts);
    std::vector<double> times;
    for (int t = 0; t < std::max(1, trials()); ++t) {
      Timer timer;
      multiply(a, a, opts);
      times.push_back(timer.millis());
    }
    std::sort(times.begin(), times.end());
    row.one_shot_ms = times[times.size() / 2];
  }

  {  // plan once, execute N with changing values
    Timer timer;
    SpGemmHandle<I, double> handle(a, a, opts);
    row.plan_ms = timer.millis();
    double total = 0.0;
    for (int e = 0; e < kExecutes; ++e) {
      for (auto& v : a.vals) v *= 1.0001;  // values-only update
      timer.reset();
      handle.execute(a, a);
      total += timer.millis();
    }
    row.execute_ms = total / kExecutes;
    for (auto& v : a.vals) v = 1.0;  // restore for the next kernel
  }
  return row;
}

}  // namespace

int main() {
  print_banner("plan/execute ablation",
               "inspector-executor amortization: plan once, execute N");
  JsonReporter json("abl_plan_execute");
  const int threads = bench_threads();

  // ---- A^2, scale-16 G500 (paper squaring benchmark). ---------------------
  // SPGEMM_BENCH_SCALE overrides the scale (CI smoke runs at 12).
  const int scale = bench_scale(16);
  const int ef = full_scale() ? 16 : 8;
  Matrix a = rmat_matrix<I, double>(RmatParams::g500(scale, ef, 7));
  for (auto& v : a.vals) v = 1.0;
  const std::string matrix_name =
      "g500_s" + std::to_string(scale) + "_e" + std::to_string(ef);
  std::printf("\nA^2 on %s (%d rows, %lld nnz), %d executes per plan\n",
              matrix_name.c_str(), a.nrows, static_cast<long long>(a.nnz()),
              kExecutes);
  print_header("kernel", {"one-shot ms", "plan ms", "exec ms", "speedup"},
               14);

  const std::vector<KernelSpec> legend = {
      {"Hash", Algorithm::kHash, SortOutput::kNo},
      {"HashVec", Algorithm::kHashVector, SortOutput::kNo},
      {"MKL*", Algorithm::kSpa, SortOutput::kNo},
      {"Kokkos*", Algorithm::kKkHash, SortOutput::kNo},
      {"Adaptive", Algorithm::kAdaptive, SortOutput::kNo},
  };
  for (const KernelSpec& spec : legend) {
    const AmortizedRow row = measure_kernel(a, spec);
    print_row(spec.label,
              {row.one_shot_ms, row.plan_ms, row.execute_ms,
               row.execute_ms > 0.0 ? row.one_shot_ms / row.execute_ms : 0.0},
              "%14.2f");
    BenchRecord rec;
    rec.kernel = spec.label;
    rec.matrix = matrix_name;
    rec.threads = threads;
    rec.total_ms = row.one_shot_ms;
    rec.plan_ms = row.plan_ms;
    rec.execute_ms = row.execute_ms;
    rec.executions = kExecutes;
    json.add(std::move(rec));
  }

  // ---- AMG Galerkin re-assembly sequence. ---------------------------------
  const I side = full_scale() ? 512 : 256;
  auto fine = apps::poisson_2d<I, double>(side, side);
  const auto p = apps::aggregation_prolongator<I, double>(fine.nrows, 4);
  SpGemmOptions amg_opts;
  amg_opts.algorithm = Algorithm::kHash;
  amg_opts.threads = threads;
  const std::string amg_name =
      "poisson2d_" + std::to_string(side) + "x" + std::to_string(side);
  std::printf("\nAMG RAP sequence on %s, %d time steps\n", amg_name.c_str(),
              kExecutes);

  double one_shot_total = 0.0;
  for (int step = 0; step < kExecutes; ++step) {
    for (auto& v : fine.vals) v *= 1.0001;
    Timer timer;
    const auto result = apps::galerkin_product(fine, p, amg_opts);
    one_shot_total += timer.millis();
    (void)result;
  }

  Timer plan_timer;
  apps::GalerkinReassembler<I, double> rap(fine, p, amg_opts);
  const double rap_plan_ms = plan_timer.millis();
  double rap_total = 0.0;
  for (int step = 0; step < kExecutes; ++step) {
    for (auto& v : fine.vals) v *= 1.0001;
    Timer timer;
    rap.reassemble(fine);
    rap_total += timer.millis();
  }

  print_header("pipeline", {"per-step ms", "plan ms"}, 14);
  print_row("RAP one-shot", {one_shot_total / kExecutes, 0.0}, "%14.2f");
  print_row("RAP reassemble", {rap_total / kExecutes, rap_plan_ms},
            "%14.2f");

  BenchRecord one_shot_rec;
  one_shot_rec.kernel = "RAP one-shot";
  one_shot_rec.matrix = amg_name;
  one_shot_rec.threads = threads;
  one_shot_rec.total_ms = one_shot_total / kExecutes;
  one_shot_rec.executions = kExecutes;
  json.add(std::move(one_shot_rec));

  BenchRecord rap_rec;
  rap_rec.kernel = "RAP reassemble";
  rap_rec.matrix = amg_name;
  rap_rec.threads = threads;
  rap_rec.total_ms = rap_total / kExecutes;
  rap_rec.plan_ms = rap_plan_ms;
  rap_rec.execute_ms = rap_total / kExecutes;
  rap_rec.executions = kExecutes;
  json.add(std::move(rap_rec));

  json.flush();
  return 0;
}
