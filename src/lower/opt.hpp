// LIR optimizer (between lowering and execution/codegen): the only place
// passes run.
//
// The paper's performance model says communication volume dominates, so the
// passes target run-time-library calls: the peephole pass (paper pass 6)
// folds call sequences into single calls, loop-invariant communication is
// hoisted out of loops (the fix for what lint's W3207 only reports),
// duplicate communication calls in a block are merged, CopyMat chains are
// propagated away, `x ± s*eye(r, c)` updates x without building the
// identity, chains of element-wise statements whose intermediate is dead
// afterwards are fused into one local loop, dead statements are deleted,
// and runs of independent reductions share one vector allreduce.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lower/lir.hpp"

namespace otter::lower {

/// One shape guard the abstract interpreter proved redundant. The optimizer
/// matches proofs to ShapeGuard instructions by source position + builtin
/// name; it never decides redundancy itself (lower must not depend on
/// analysis, so the proof arrives as plain data).
struct GuardProof {
  SourceLoc loc;        ///< location of the guarded reduction call
  std::string builtin;  ///< builtin name carried by the guard ("sum", ...)
};

/// Optimizer configuration. Level 0 runs nothing: the LIR stays as lowered,
/// one statement at a time. A positive level (2, the compiler default) runs
/// the whole pipeline.
struct OptOptions {
  int level = 2;
  /// Not a switch: a positive level always deletes proven ShapeGuards.
  /// Kept as a constant for callers that still read the name.
  static constexpr bool guard_elim = true;
  /// Guards the abstract interpreter proved can never fire (see
  /// analysis/absint.hpp). Only guards matching an entry here are deleted.
  std::vector<GuardProof> guard_proofs{};
};

/// What the optimizer did: counters for tests/benches, plus one record per
/// hoisted communication op so the driver can cross-link W3207 findings
/// ("the warning is gone because the compiler performed the hoist").
struct OptReport {
  struct Hoist {
    SourceLoc loc;       ///< location of the hoisted instruction
    std::string target;  ///< variable the hoisted op defines
    std::string op;      ///< lop_name() of the hoisted op
  };
  std::vector<Hoist> hoists;
  size_t fused = 0;              ///< producer Elemwise folded into consumers
  size_t cse_removed = 0;        ///< duplicate communication calls replaced
  size_t copies_propagated = 0;  ///< reads redirected through CopyMat sources
  size_t swept = 0;              ///< dead pure statements DSE removed
  size_t guards_seen = 0;        ///< ShapeGuard instructions in the input LIR
  size_t coalesced = 0;          ///< allreduces saved by reduction groups
  size_t eyes_folded = 0;        ///< eye temporaries folded into eye updates
  /// Guards deleted because an absint proof matched; the verifier
  /// cross-checks each entry against the proof list (E6009).
  std::vector<GuardProof> guards_eliminated;

  [[nodiscard]] size_t total() const {
    return hoists.size() + fused + cse_removed + copies_propagated + swept +
           guards_eliminated.size() + coalesced + eyes_folded;
  }
};

/// Runs the pass pipeline over `prog` in place when `opts.level` is
/// positive:
///   peephole → per scope: copy-prop → comm CSE → eye folding → elemwise
///   fusion → comm LICM → guard elimination → copy-prop → DSE over the
///   whole program until it removes nothing → reduction coalescing.
/// Output re-verifies: hoists are wrapped in a trip-count guard so zero-trip
/// loops keep their semantics, and hoisted ML_tmp targets are pre-defined so
/// the verifier's all-paths rule (E6002) still holds.
OptReport run_opt(LProgram& prog, const OptOptions& opts);

/// The peephole pass (paper pass 6) in isolation, for tests and the
/// ablation: folds run-time-call sequences such as transpose + multiply +
/// element-read into single ML_dot calls.
void run_peephole(LProgram& prog);

/// One liveness-driven dead-statement elimination pass in isolation, for
/// tests. Removes pure instructions whose results no later statement or
/// observable output can read. Returns the number of instructions removed.
size_t run_dse(LProgram& prog);

}  // namespace otter::lower
