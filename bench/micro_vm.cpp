// Micro-benchmark for the register-bytecode VM (src/vm).
//
// One exhibit, recorded in the JSON report as micro_vm_dispatch: wall-clock
// seconds of a dispatch-bound script (scalar loops, element indexing,
// in-place updates) at p=1, run by the baseline interpreter (the semantic
// oracle, a tree-walking evaluator over dynamic values) and by the VM on
// the default -O2 LIR. The delta is what compilation to register bytecode
// buys on per-statement work: pre-resolved register slots instead of
// name lookups, flat dispatch instead of recursive tree walking, and the
// GetEl/SetEl inline caches. CI's bench-smoke asserts the VM is more than
// 2x faster than the interpreter from the recorded JSON.
#include <algorithm>
#include <chrono>

#include "figure_common.hpp"
#include "vm/bcgen.hpp"

namespace {

using namespace otter;
using namespace otter::bench;

// Scalar-dense double loop with element touches at the rep boundary. The
// inner loop is pure per-statement dispatch — the interpreter pays a
// hash-map name lookup plus AST-node recursion per operand, the VM one
// indexed register read — while the per-rep GetEl/SetEl keep the element
// inline caches in play. Element reads inside the hot loop would dilute the
// exhibit: dispatch is what this exhibit isolates.
const char* kDispatchScript = R"(reps = 24;
n = 200000;
s = 0;
a = rand(24, 2);
for rep = 1:reps
  base = a(rep, 1);
  for i = 1:n
    s = s + (i + base) * 0.5 - rep * 0.125;
  end
  a(rep, 2) = s * 1e-9;
end
fprintf('dispatch checksum %.6f\n', s * 1e-12);
)";

/// Best-of-3 wall seconds of `run`.
template <typename Run>
double best_of_3(Run run) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto start = std::chrono::steady_clock::now();
    run();
    auto stop = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(argc, argv);
  std::printf("=== micro_vm: register-bytecode VM vs interpreter ===\n\n");

  driver::CompileOptions copts;  // the default -O2 pipeline
  auto c = driver::compile_script(kDispatchScript, {}, copts);
  if (!c->ok) {
    std::cerr << "micro_vm: compile failed:\n" << c->diags.to_string();
    return 1;
  }
  // The bytecode module is compiled once, outside the timed region —
  // matching how the VM actually runs (otterd compiles bytecode into the
  // artifact cache once and reuses it across executions).
  vm::BcModule mod = vm::compile_bytecode(c->lir);
  driver::ExecOptions eopts;
  eopts.bytecode = &mod;
  double interp = best_of_3([] { driver::run_interpreter(kDispatchScript); });
  double vm = best_of_3(
      [&] { driver::run_parallel(c->lir, mpi::ideal(1), 1, eopts); });
  bench_records().push_back({"micro_vm_dispatch", "ideal", 1, 200000, interp,
                             0, "interpreter"});
  bench_records().push_back({"micro_vm_dispatch", "ideal", 1, 200000, vm, 0,
                             "vm-O2"});
  std::printf("dispatch-bound script, p=1 (best of 3):\n");
  std::printf("  interpreter    %10.4f s\n", interp);
  std::printf("  bytecode VM    %10.4f s  (-O2)\n", vm);
  std::printf("  speedup        %10.2fx\n\n", interp / vm);

  write_bench_json();
  return 0;
}
