// Quickstart: compile a MATLAB script and run it on simulated parallel
// hardware in ~30 lines.
//
//   $ ./build/examples/quickstart
//
// The public API used here:
//   driver::compile_script  — the whole compiler pipeline (parse, resolve,
//                             SSA + type inference, lowering, and the -O2
//                             optimizer, peephole first)
//   driver::run_parallel    — SPMD execution on a virtual-time machine model
//   mpi::meiko_cs2 et al.   — the paper's three machine profiles
#include <iostream>

#include "driver/pipeline.hpp"

int main() {
  const std::string script = R"(
% Estimate pi by integrating sqrt(1 - x^2) over [0, 1] with trapz.
n = 100001;
x = linspace(0, 1, n);
y = sqrt(1 - x .* x);
approx = 4 * trapz(x, y);
fprintf('pi is approximately %.8f\n', approx);
)";

  // 1. Compile (all six passes of the paper's pipeline, then -O2).
  auto compiled = otter::driver::compile_script(script);
  if (!compiled->ok) {
    compiled->diags.print(std::cerr);
    return 1;
  }

  // 2. Run on 8 CPUs of a simulated Meiko CS-2.
  auto run = otter::driver::run_parallel(compiled->lir,
                                         otter::mpi::meiko_cs2(), 8);
  std::cout << run.output;

  // 3. Compare against the baseline interpreter on one CPU of the same
  //    (simulated) machine — hence the cpu_scale factor on the baseline.
  auto interp = otter::driver::run_interpreter(script);
  double baseline = interp.cpu_seconds * otter::mpi::meiko_cs2().cpu_scale;
  std::cout << "interpreter (1 CPU of the CS-2): " << baseline << " virtual s\n"
            << "compiled    (8 CPUs of the CS-2): " << run.times.max_vtime()
            << " virtual s\n"
            << "speedup over the interpreter: "
            << baseline / run.times.max_vtime() << "x\n";
  return 0;
}
