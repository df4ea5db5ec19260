// Direct SPMD execution: runs LIR against the distributed run-time library
// under minimpi. Semantically identical to the generated C code (both call
// the same run-time functions); used by tests, examples, and the benchmark
// harness without needing an external C compiler.
//
// One engine runs every opt level: the register-based bytecode VM (src/vm/).
// execute_lir compiles the program to bytecode (unless a precompiled module
// is supplied) and dispatches it.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "driver/checkpoint.hpp"
#include "lower/lir.hpp"
#include "minimpi/comm.hpp"

namespace otter::vm {
struct BcModule;
struct VmStats;
}  // namespace otter::vm

namespace otter::driver {

struct ExecOptions {
  uint64_t rand_seed = 1;
  rt::Dist dist = rt::Dist::RowBlock;  // data-distribution strategy
  /// Failure handling + fault injection for the surrounding SPMD run
  /// (consumed by run_parallel / the cc runner, not per-rank execution).
  mpi::SpmdOptions spmd;
  /// Checkpoint/restart policy; consumed by run_parallel, which creates the
  /// shared coordinator below when enabled.
  CheckpointOptions ckpt;
  /// Shared checkpoint rendezvous for the current run. Set internally by
  /// run_parallel — per-rank execution deposits snapshots through it and
  /// restores its frame from it on resume. Leave null when calling
  /// execute_lir directly.
  CheckpointCoordinator* checkpoint = nullptr;
  /// Precompiled bytecode (borrowed; must have been compiled from the same
  /// LProgram). run_parallel compiles the module once before spawning
  /// ranks; when null, execute_lir compiles one privately.
  const vm::BcModule* bytecode = nullptr;
  /// Optional inline-cache counter sink (shared across ranks; flushed once
  /// per rank at run end).
  vm::VmStats* vm_stats = nullptr;
};

/// Runs the lowered program as this rank's part of the SPMD computation.
/// Only rank 0 writes to `out`. Throws rt::RtError / mpi::MpiError on
/// run-time failures; rt::RtError is re-raised with rank and statement
/// context ("rank 3: line 12 (matmul): …") so a parallel failure names its
/// origin.
void execute_lir(const lower::LProgram& prog, mpi::Comm& comm,
                 std::ostream& out, const ExecOptions& opts = {});

/// The MATLAB-style fprintf rendering loop of the VM (mirroring the
/// interpreter's): the format string is consumed repeatedly until the
/// flattened scalar argument stream is exhausted, backslash escapes and %%
/// are expanded, and %d/%i convert through long long.
void fprintf_stream(std::ostream& out, const std::string& fmt,
                    const std::vector<double>& data);

}  // namespace otter::driver
