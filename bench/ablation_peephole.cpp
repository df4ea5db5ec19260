// Ablation B: the peephole pass (paper pass 6).
//
// "The sixth pass of the compiler performs peephole optimizations, looking
//  for ways in which a sequence of run-time library calls can be replaced
//  by a single call."
// Conjugate gradient computes two inner products (x'*x) per iteration; the
// peephole pass folds each transpose + multiply + element-broadcast chain
// into one ML_dot (a single allreduce). Without it the transpose performs a
// full alltoall redistribution every iteration.
#include "figure_common.hpp"

namespace {

using namespace otter;
using namespace otter::bench;

/// Runs cg's -O0 LIR, with only the peephole pass applied when `peephole`.
double run_cg(const std::string& src, bool peephole,
              const mpi::MachineProfile& m, int p) {
  auto compiled = driver::compile_script(src, {}, {.opt = {.level = 0}});
  if (!compiled->ok) {
    std::cerr << compiled->diags.to_string();
    std::exit(1);
  }
  if (peephole) lower::run_peephole(compiled->lir);
  if (codegen::CompiledProgram::toolchain_available()) {
    std::string error;
    auto program = codegen::CompiledProgram::build(compiled->lir, &error);
    if (program) {
      std::ostringstream out;
      mpi::RunResult r = mpi::run_spmd(
          m, p, [&](mpi::Comm& comm) { program->run(comm, out, {}); });
      return r.max_vtime();
    }
  }
  return driver::run_parallel(compiled->lir, m, p, {}).times.max_vtime();
}

}  // namespace

int main() {
  std::printf("=== Ablation B: peephole pass on/off (conjugate gradient) ===\n");
  std::printf("virtual seconds (lower is better); the peephole pass turns\n"
              "x'*x into a single ML_dot call\n\n");
  std::printf("%-18s %4s %12s %12s %9s\n", "machine", "P", "peephole",
              "disabled", "ratio");
  std::string src = with_size(load_script("cg.m"), "n", 1024);
  for (const MachinePoints& m : paper_machines()) {
    for (int p : {4, m.profile.max_ranks}) {
      double on = run_cg(src, true, m.profile, p);
      double off = run_cg(src, false, m.profile, p);
      std::printf("%-18s %4d %12.4f %12.4f %8.2fx\n", m.profile.name.c_str(),
                  p, on, off, off / on);
      std::fflush(stdout);
    }
  }
  std::printf("\n");
  return 0;
}
