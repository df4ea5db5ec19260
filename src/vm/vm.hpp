// Dispatch loop of the register-based bytecode VM (see bcgen.hpp for
// the instruction set). One Vm instance runs per rank; the BcModule is
// shared and immutable. Uses computed-goto dispatch on GCC/Clang and a
// switch loop elsewhere (see OTTER_VM_NO_COMPUTED_GOTO in vm.cpp).
//
// Observable behaviour is defined by the interpreter (the semantic oracle):
// identical output bytes and rand stream. Operands and statements evaluate
// in source order, so rand draws, comm ops and virtual time follow the LIR
// statement sequence; runtime errors carry "line N (op): message" context
// and a stable E-code; checkpoint blobs use the layout documented at
// capture_state in vm.cpp, and a resumed run's output is bitwise identical
// to a fault-free run's.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>

#include "driver/exec.hpp"
#include "vm/bcgen.hpp"

namespace otter::vm {

/// Inline-cache behaviour counters, aggregated across all ranks of a run
/// (each rank's VM flushes its local tallies once at run end, hence the
/// atomics). A site stops counting once it self-disables after
/// `kStableHits` consecutive hits — the version check itself never turns
/// off, so `hits`/`misses` measure warm-up and shape churn, not steady
/// state.
struct VmStats {
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> cache_disabled{0};  ///< sites that reached stable state
  std::atomic<uint64_t> instrs{0};          ///< dispatched bytecode instructions
};

/// Number of consecutive inline-cache hits after which a site self-disables
/// its statistics bookkeeping.
inline constexpr uint32_t kStableHits = 16;

/// Runs the compiled module as this rank's part of the SPMD computation —
/// what driver::execute_lir dispatches to (same contract: only rank 0
/// writes `out`; rt::RtError is re-raised with statement context).
void execute_bytecode(const BcModule& mod, mpi::Comm& comm, std::ostream& out,
                      const driver::ExecOptions& opts);

}  // namespace otter::vm
