// Reproduces Figure 2: relative single-CPU performance of
//   * The MathWorks interpreter (our baseline interpreter),
//   * the MATCOM compiler (stand-in: Otter at -O0, statement-at-a-time
//     translation with no peephole pass and no optimizer — a sequential
//     commercial compiler design point), and
//   * the Otter compiler (full pipeline)
// on the four benchmark applications. The paper reports Otter beating the
// interpreter on all four scripts and splitting 2-2 against MATCOM.
#include "figure_common.hpp"

namespace {

using namespace otter;
using namespace otter::bench;

/// Single-CPU seconds of the compiled script (1 rank, ideal network = pure
/// compute time).
double compiled_1cpu(const std::string& source, bool full_pipeline) {
  // The MATCOM stand-in translates statement-at-a-time (-O0). The Otter
  // column runs the default pipeline (-O2, peephole first).
  driver::CompileOptions copts;
  if (!full_pipeline) copts = {.opt = {.level = 0}};
  auto compiled = driver::compile_script(source, {}, copts);
  if (!compiled->ok) {
    std::cerr << "fig2: compile failed:\n" << compiled->diags.to_string();
    std::exit(1);
  }
  mpi::MachineProfile one_cpu = mpi::ideal(1);
  one_cpu.cpu_scale = 1.0;  // measure compute time
  if (codegen::CompiledProgram::toolchain_available()) {
    std::string error;
    auto program = codegen::CompiledProgram::build(compiled->lir, &error);
    if (program) {
      std::ostringstream out;
      mpi::RunResult r = mpi::run_spmd(one_cpu, 1, [&](mpi::Comm& comm) {
        program->run(comm, out, {});
      });
      return r.max_vtime();
    }
  }
  driver::ParallelRun r = driver::run_parallel(compiled->lir, one_cpu, 1, {});
  return r.times.max_vtime();
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv);
  std::printf("=== Figure 2: relative performance on a single CPU ===\n");
  std::printf("(interpreter = 1.0; higher is better; the paper shows Otter\n"
              " beating the interpreter on all four scripts and splitting\n"
              " 2-2 against the MATCOM compiler)\n\n");
  std::printf("%-22s %14s %14s %14s\n", "script", "interpreter",
              "MATCOM-like", "Otter");

  struct App {
    const char* label;
    const char* file;
  };
  const App apps[] = {
      {"conjugate gradient", "cg.m"},
      {"ocean engineering", "ocean.m"},
      {"n-body problem", "nbody.m"},
      {"transitive closure", "transclos.m"},
  };
  for (const App& app : apps) {
    std::string source = load_script(app.file);
    driver::InterpRun interp = driver::run_interpreter(source);
    double matcom = compiled_1cpu(source, /*full_pipeline=*/false);
    double otter = compiled_1cpu(source, /*full_pipeline=*/true);
    std::string id = std::string("fig2_") + app.file;
    bench_records().push_back(
        {id, "interpreter", 1, 0, interp.cpu_seconds, 0, "interpreter"});
    bench_records().push_back({id, "1cpu", 1, 0, matcom, 0, "matcom-like"});
    bench_records().push_back({id, "1cpu", 1, 0, otter, 0, "otter"});
    std::printf("%-22s %14.2f %14.2f %14.2f\n", app.label, 1.0,
                interp.cpu_seconds / matcom, interp.cpu_seconds / otter);
    std::fflush(stdout);
  }
  std::printf("\n");
  write_bench_json();
  return 0;
}
