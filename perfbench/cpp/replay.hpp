// Helpers both workload files share that call into the Otter library: the
// interpreter oracle and the phase-by-phase compile replay of the traced
// runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "driver/pipeline.hpp"
#include "vm/bcgen.hpp"

namespace perfbench {

/// A script's interpreter output for one seed: the output oracle.
struct Reference {
  std::string output;
  double interp_cpu_s = 0.0;  ///< the interpreter's CPU seconds
};

/// Runs the interpreter in a forked child, so its memory stays out of the
/// workload's peak RSS. The caller must have no other threads running.
Reference interp_reference(const std::string& src, uint64_t seed);

/// driver::compile_script(src, {}, CompileOptions{}) replayed one public call
/// at a time, each inside its own span under `parent` ("frontend.parse",
/// "sema.resolve", "sema.infer", "lower.lower", "analysis.absint",
/// "lower.opt", "analysis.verify"). Callers compare lower::dump_lir of the
/// result with compile_script's to prove the replay is the same pipeline.
std::unique_ptr<otter::driver::CompileResult> compile_phases(
    const std::string& src, Tracer& t, uint64_t sample, int64_t parent);

/// The compile-phase span names compile_phases records, plus "vm.bcgen".
const std::vector<std::string>& compile_span_names();

/// Count metrics of one compiled script: tokens, LIR statements, optimizer
/// report, bytecode size and generated-C size. They must repeat exactly.
std::vector<std::pair<std::string, double>> compile_counts(
    const std::string& src, const otter::driver::CompileResult& cr,
    const otter::vm::BcModule& mod);

}  // namespace perfbench
