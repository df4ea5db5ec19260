// Micro-benchmarks for the LIR optimizer and the compiled element-wise
// kernels.
//
// Three exhibits, all recorded in the JSON report:
//   * micro_elemwise — wall-clock seconds of an element-wise-heavy script on
//     the VM at p=1: the unfused -O0 LIR vs the fused -O2 LIR. Fusion is
//     meant to make -O2 the faster of the two.
//   * micro_licm — total communication ops of a loop whose body re-reads
//     loop-invariant m(i,j) / sum(v) values every iteration: -O0 keeps the
//     per-iteration broadcasts and reductions, -O2 hoists them out.
//   * micro_coalesce — total communication ops of an nbody-shaped loop that
//     takes the means of two vectors it updates every iteration: -O0 makes
//     one allreduce per mean, -O2 one per pair.
#include <chrono>

#include "figure_common.hpp"

namespace {

using namespace otter;
using namespace otter::bench;

const char* kElemwiseScript = R"(n = 50000;
iters = 40;
a = rand(n, 1);
b = rand(n, 1);
c = zeros(n, 1);
for it = 1:iters
  t1 = a .* b;
  t2 = t1 + c .* 0.5;
  t3 = sqrt(abs(t2)) + a;
  c = t3 - b .* 0.25;
end
fprintf('elemwise checksum %.6f\n', sum(c) / n);
)";

const char* kLicmScript = R"(n = 64;
iters = 200;
m = rand(n, n);
v = rand(n, 1);
s = 0;
for it = 1:iters
  pivot = m(3, 5);
  total = sum(v);
  s = s + pivot + total + it;
end
fprintf('licm checksum %.6f\n', s);
)";

const char* kCoalesceScript = R"(n = 4096;
iters = 100;
x = rand(n, 1);
y = rand(n, 1);
for it = 1:iters
  cx = mean(x);
  cy = mean(y);
  x = x + 0.001 * (cx - x);
  y = y + 0.001 * (cy - y);
end
fprintf('coalesce checksum %.6f %.6f\n', mean(x), mean(y));
)";

struct Measured {
  double wall_seconds = 0.0;
  uint64_t comm_ops = 0;
};

/// Compiles at `level` and runs on the VM, measuring wall-clock time and
/// comm ops.
Measured run_level(const std::string& source, int level, int np) {
  driver::CompileOptions copts;
  copts.opt.level = level;
  auto compiled = driver::compile_script(source, {}, copts);
  if (!compiled->ok) {
    std::cerr << "micro_opt: compile failed:\n" << compiled->diags.to_string();
    std::exit(1);
  }
  auto start = std::chrono::steady_clock::now();
  driver::ParallelRun r =
      driver::run_parallel(compiled->lir, mpi::ideal(np), np);
  auto stop = std::chrono::steady_clock::now();
  Measured m;
  m.wall_seconds = std::chrono::duration<double>(stop - start).count();
  m.comm_ops = r.times.total_ops();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(argc, argv);

  std::printf("=== micro_opt: optimizer + kernel fast path ===\n\n");

  // Exhibit 1: element-wise throughput at p=1. Best-of-3 to keep scheduler
  // noise out of the committed numbers.
  double baseline = 1e300;
  double optimized = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    baseline =
        std::min(baseline, run_level(kElemwiseScript, 0, 1).wall_seconds);
    optimized =
        std::min(optimized, run_level(kElemwiseScript, 2, 1).wall_seconds);
  }
  bench_records().push_back({"micro_elemwise", "ideal", 1, 50000, baseline, 0,
                             "vm-O0"});
  bench_records().push_back({"micro_elemwise", "ideal", 1, 50000, optimized,
                             0, "vm-O2"});
  std::printf("element-wise script, p=1 (wall seconds, best of 3):\n");
  std::printf("  -O0 unfused        %10.4f s\n", baseline);
  std::printf("  -O2 fused          %10.4f s\n", optimized);
  std::printf("  speedup            %10.2fx\n\n", baseline / optimized);

  // Exhibits 2 and 3: communication ops of a LICM-friendly loop and of an
  // nbody-shaped loop whose reductions coalesce.
  const struct {
    const char* bench;
    const char* title;
    const char* script;
    long size;
  } kCommExhibits[] = {
      {"micro_licm", "LICM loop", kLicmScript, 64},
      {"micro_coalesce", "coalescing loop", kCoalesceScript, 4096},
  };
  for (const auto& ex : kCommExhibits) {
    for (int np : {2, 4}) {
      Measured before = run_level(ex.script, 0, np);
      Measured after = run_level(ex.script, 2, np);
      bench_records().push_back({ex.bench, "ideal", np, ex.size,
                                 before.wall_seconds, before.comm_ops,
                                 "executor-O0"});
      bench_records().push_back({ex.bench, "ideal", np, ex.size,
                                 after.wall_seconds, after.comm_ops,
                                 "executor-O2"});
      std::printf("%s, p=%d (total comm ops):\n", ex.title, np);
      std::printf("  -O0  %10llu ops\n",
                  static_cast<unsigned long long>(before.comm_ops));
      std::printf("  -O2  %10llu ops  (%.1f%% of -O0)\n\n",
                  static_cast<unsigned long long>(after.comm_ops),
                  100.0 * static_cast<double>(after.comm_ops) /
                      static_cast<double>(before.comm_ops ? before.comm_ops
                                                          : 1));
    }
  }

  write_bench_json();
  return 0;
}
