// Micro-benchmark for abstract-interpretation guard elimination (PR:
// "abstract-interpretation engine + static ShapeGuard elimination").
//
// One exhibit, recorded in the JSON report as micro_guard_elim: a
// reduction-heavy loop whose matrix extents come from rand (so type
// inference degrades every reduction to a guarded E5003 call site), but
// where most extents are provably >= 2 or provably square, so the -O2
// abstract interpreter deletes the guards statically. One extent may be 1,
// keeping its guards alive — the honest case the analysis must not touch.
//
// Reported per opt level: wall seconds of the loop on the VM and the
// ShapeGuard count left in the LIR (the "guards" JSON field). The
// acceptance target is >= 50% of guards eliminated at -O2.
#include <chrono>

#include "figure_common.hpp"

namespace {

using namespace otter;
using namespace otter::bench;

// Extents n, m are in [2, 9] (provable), k is in [1, 9] (possibly a
// vector: unprovable). B is square by construction. Every reduction in the
// loop body re-executes its shape guard each iteration at -O0.
const char* kGuardScript = R"(iters = 2000;
n = floor(rand * 8) + 2;
m = floor(rand * 8) + 2;
k = floor(rand * 8) + 1;
A = rand(n, m);
B = rand(n, n);
C = rand(n, k);
s = 0;
for it = 1:iters
  s = s + sum(sum(A)) + sum(mean(B)) + sum(max(A)) + sum(min(B)) + sum(sum(C));
end
fprintf('absint checksum %.6f\n', s / iters);
)";

struct Measured {
  double wall_seconds = 0.0;
  uint64_t comm_ops = 0;
  long guards_in_lir = 0;
};

long count_guards(const std::vector<lower::LInstrPtr>& body) {
  long n = 0;
  for (const lower::LInstrPtr& in : body) {
    if (in->op == lower::LOp::ShapeGuard) ++n;
    n += count_guards(in->body);
  }
  return n;
}

/// Compiles at `level` and runs the loop on the VM at p=1, reporting wall
/// time and the ShapeGuard count surviving in the LIR.
Measured run_level(int level) {
  driver::CompileOptions copts;
  copts.opt.level = level;
  auto compiled = driver::compile_script(kGuardScript, {}, copts);
  if (!compiled->ok) {
    std::cerr << "micro_absint: compile failed:\n"
              << compiled->diags.to_string();
    std::exit(1);
  }
  Measured m;
  m.guards_in_lir = count_guards(compiled->lir.script);
  for (const lower::LFunction& fn : compiled->lir.functions) {
    m.guards_in_lir += count_guards(fn.body);
  }
  auto start = std::chrono::steady_clock::now();
  driver::ParallelRun r = driver::run_parallel(compiled->lir, mpi::ideal(1), 1);
  auto stop = std::chrono::steady_clock::now();
  m.wall_seconds = std::chrono::duration<double>(stop - start).count();
  m.comm_ops = r.times.total_ops();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(argc, argv);

  std::printf("=== micro_absint: static ShapeGuard elimination ===\n\n");

  Measured before;
  Measured after;
  double t0 = 1e300;
  double t2 = 1e300;
  // Best-of-3 wall time; the guard counts are deterministic.
  for (int rep = 0; rep < 3; ++rep) {
    before = run_level(0);
    t0 = std::min(t0, before.wall_seconds);
    after = run_level(2);
    t2 = std::min(t2, after.wall_seconds);
  }
  before.wall_seconds = t0;
  after.wall_seconds = t2;

  bench_records().push_back({"micro_guard_elim", "ideal", 1, 0,
                             before.wall_seconds, before.comm_ops,
                             "executor-O0", before.guards_in_lir});
  bench_records().push_back({"micro_guard_elim", "ideal", 1, 0,
                             after.wall_seconds, after.comm_ops,
                             "executor-O2-guard-elim", after.guards_in_lir});

  long eliminated = before.guards_in_lir - after.guards_in_lir;
  double rate = before.guards_in_lir
                    ? 100.0 * static_cast<double>(eliminated) /
                          static_cast<double>(before.guards_in_lir)
                    : 0.0;
  std::printf("reduction-heavy loop, p=1 (wall seconds, best of 3):\n");
  std::printf("  -O0 guarded        %10.4f s  (%ld ShapeGuards in LIR)\n",
              before.wall_seconds, before.guards_in_lir);
  std::printf("  -O2 guard-elim     %10.4f s  (%ld ShapeGuards in LIR)\n",
              after.wall_seconds, after.guards_in_lir);
  std::printf("  guards eliminated  %10ld    (%.0f%% of -O0)\n\n", eliminated,
              rate);

  write_bench_json();
  return 0;
}
