// spgemm_tool: command-line SpGEMM over MatrixMarket files.
//
//   spgemm_tool A.mtx [B.mtx] [options]
//
//   --algorithm=NAME   heap|hash|hashvector|spa|spa1p|kkhash|merge|ikj|
//                      adaptive|auto
//   --unsorted         emit unsorted rows (the paper's fast path)
//   --threads=N        OpenMP thread count (default: runtime's choice)
//   --output=PATH      write C as MatrixMarket (default: stats only)
//   --square           ignore B and compute A^2 (default when B omitted)
//
// Prints the multiply statistics (flop, nnz, compression ratio, phase
// timings, MFLOPS) plus the Table 4 recipe's suggestion for the input.  The
// `algorithm` line names the kernel that ran: for --algorithm=auto, Table
// 4's pick, or SPA-1p in place of Hash when a dense output row fits in
// cache (recipe::kDenseRowMaxBytes).
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "spgemm/spgemm.hpp"

namespace {

spgemm::Algorithm parse_algorithm(const std::string& name) {
  using spgemm::Algorithm;
  if (name == "heap") return Algorithm::kHeap;
  if (name == "hash") return Algorithm::kHash;
  if (name == "hashvector") return Algorithm::kHashVector;
  if (name == "spa") return Algorithm::kSpa;
  if (name == "spa1p") return Algorithm::kSpa1p;
  if (name == "kkhash") return Algorithm::kKkHash;
  if (name == "merge") return Algorithm::kMerge;
  if (name == "ikj") return Algorithm::kIkj;
  if (name == "adaptive") return Algorithm::kAdaptive;
  if (name == "auto") return Algorithm::kAuto;
  std::fprintf(stderr, "unknown algorithm '%s'\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spgemm;

  std::string path_a;
  std::string path_b;
  std::optional<std::string> output;
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kAuto;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--algorithm=", 0) == 0) {
      opts.algorithm = parse_algorithm(arg.substr(12));
    } else if (arg == "--unsorted") {
      opts.sort_output = SortOutput::kNo;
    } else if (arg.rfind("--threads=", 0) == 0) {
      opts.threads = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--output=", 0) == 0) {
      output = arg.substr(9);
    } else if (arg == "--square") {
      path_b.clear();
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: spgemm_tool A.mtx [B.mtx] [--algorithm=NAME] "
                  "[--unsorted] [--threads=N] [--output=C.mtx]\n");
      return 0;
    } else if (path_a.empty()) {
      path_a = arg;
    } else {
      path_b = arg;
    }
  }
  if (path_a.empty()) {
    std::fprintf(stderr, "usage: spgemm_tool A.mtx [B.mtx] [options] "
                         "(--help for details)\n");
    return 2;
  }

  try {
    const auto a = io::read_matrix_market<std::int32_t, double>(path_a);
    const auto b = path_b.empty()
                       ? a
                       : io::read_matrix_market<std::int32_t, double>(path_b);
    std::printf("A: %d x %d, %lld nnz  (%s)\n", a.nrows, a.ncols,
                static_cast<long long>(a.nnz()), path_a.c_str());
    if (!path_b.empty()) {
      std::printf("B: %d x %d, %lld nnz  (%s)\n", b.nrows, b.ncols,
                  static_cast<long long>(b.nnz()), path_b.c_str());
    }

    const Algorithm recipe_pick = recipe::select_for(
        a, b, recipe::Operation::kSquare, opts.sort_output,
        recipe::DataOrigin::kReal);
    std::printf("recipe (Table 4) suggests: %s\n",
                algorithm_name(recipe_pick));

    // What multiply() runs: the Table 4 pick with the dense-row rule.
    const Algorithm ran =
        recipe::resolve(opts.algorithm, a, b, opts.sort_output);
    SpGemmStats stats;
    const auto c = multiply(a, b, opts, &stats);
    std::printf(
        "C = A*B: %d x %d, %lld nnz\n"
        "  algorithm : %s (%s output)\n"
        "  flop      : %lld  (compression ratio %.2f)\n"
        "  timings   : setup %.2f ms, symbolic %.2f ms, numeric %.2f ms\n"
        "  rate      : %.1f MFLOPS\n",
        c.nrows, c.ncols, static_cast<long long>(c.nnz()),
        algorithm_name(ran),
        opts.sort_output == SortOutput::kYes ? "sorted" : "unsorted",
        static_cast<long long>(stats.flop),
        static_cast<double>(stats.flop) /
            static_cast<double>(std::max<Offset>(stats.nnz_out, 1)),
        stats.setup_ms, stats.symbolic_ms, stats.numeric_ms,
        stats.mflops());

    if (output) {
      io::write_matrix_market(*output, c);
      std::printf("wrote %s\n", output->c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
