// Ablation: the ExecutionSchedule — tile-fused one-shot vs unfused
// plan+execute-once (machine-readable; needs no google-benchmark).
//
// One-shot multiply() runs the tile-fused driver (symbolic+numeric back to
// back per tile, A/B rows cache-hot) on the same schedule the handle plans
// with.  Rows "fused one-shot" vs "plan+execute once" on the scale-16 G500
// squaring benchmark show what the fusion is worth for a product computed
// exactly once.  The two run back to back in kSchedulePairs rounds, fused
// first in even rounds and planned first in odd ones, so neither side
// always runs on the other's warm caches; each row is its side's median,
// and the "schedule-paired" row's paired_ratio is the median per-round
// fused / planned time (above 1 where planning wins).  All three rows go
// to BENCH_abl_schedule.json.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/spgemm_handle.hpp"
#include "matrix/rmat.hpp"

namespace {

using namespace spgemm;
using namespace spgemm::bench;

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;

/// Fused-vs-planned rounds.
constexpr int kSchedulePairs = 20;

double median_ms(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

template <typename Fn>
double time_once(Fn&& fn) {
  Timer timer;
  fn();
  return timer.millis();
}

}  // namespace

int main() {
  print_banner("schedule ablation",
               "ExecutionSchedule: fused one-shot vs plan+execute once");
  JsonReporter json("abl_schedule");
  const int threads = bench_threads();

  const int scale = bench_scale(16);
  const int ef = full_scale() ? 16 : 8;
  Matrix a = rmat_matrix<I, double>(RmatParams::g500(scale, ef, 7));
  for (auto& v : a.vals) v = 1.0;
  const std::string matrix_name =
      "g500_s" + std::to_string(scale) + "_e" + std::to_string(ef);
  std::printf("\nA^2 on %s (%d rows, %lld nnz): fused vs unfused one-shot\n",
              matrix_name.c_str(), a.nrows, static_cast<long long>(a.nnz()));
  print_header("path", {"total ms"}, 14);

  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.sort_output = SortOutput::kNo;
  opts.threads = threads;

  // multiply() IS the fused path now; the unfused baseline is the exact
  // sequence multiply() ran before: fresh handle, plan, execute-once.
  const auto fused_run = [&] { multiply(a, a, opts); };
  const auto planned_run = [&] {
    SpGemmOptions handle_opts = opts;
    handle_opts.reuse_budget_bytes = model::kDefaultReuseBudgetBytes;
    SpGemmHandle<I, double> handle(a, a, handle_opts);
    Matrix c;
    handle.execute_into(a, a, c);
  };
  fused_run();
  planned_run();
  std::vector<double> fused_times;
  std::vector<double> planned_times;
  std::vector<double> ratios;
  for (int i = 0; i < kSchedulePairs; ++i) {
    const bool fused_first = i % 2 == 0;
    const double first = fused_first ? time_once(fused_run)
                                     : time_once(planned_run);
    const double second = fused_first ? time_once(planned_run)
                                      : time_once(fused_run);
    fused_times.push_back(fused_first ? first : second);
    planned_times.push_back(fused_first ? second : first);
    ratios.push_back(fused_times.back() / planned_times.back());
  }
  const double fused_ms = median_ms(fused_times);
  const double unfused_ms = median_ms(planned_times);
  const double paired_ratio = median_ms(ratios);
  print_row("fused one-shot", {fused_ms}, "%14.2f");
  print_row("plan+execute once", {unfused_ms}, "%14.2f");
  std::printf("fused / planned time, median of %d paired rounds: %.3f\n",
              kSchedulePairs, paired_ratio);

  BenchRecord fused;
  fused.kernel = "fused one-shot";
  fused.matrix = matrix_name;
  fused.threads = threads;
  fused.total_ms = fused_ms;
  json.add(std::move(fused));
  BenchRecord unfused;
  unfused.kernel = "plan+execute once";
  unfused.matrix = matrix_name;
  unfused.threads = threads;
  unfused.total_ms = unfused_ms;
  json.add(std::move(unfused));
  BenchRecord paired;
  paired.kernel = "schedule-paired";
  paired.matrix = matrix_name;
  paired.threads = threads;
  paired.paired_ratio = paired_ratio;
  json.add(std::move(paired));

  json.flush();
  return 0;
}
