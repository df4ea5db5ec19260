// LIR optimizer (between lowering and execution/codegen).
//
// The paper's performance model says communication volume dominates, so the
// passes target run-time-library calls: loop-invariant communication is
// hoisted out of loops (the fix for what lint's W3207 only reports),
// duplicate communication calls in a block are merged, CopyMat chains are
// propagated away, chains of element-wise statements whose intermediate
// is dead afterwards are fused into one local loop, and runs of independent
// reductions share one vector allreduce.
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

/// Optimizer configuration. Levels: 0 disables everything, 1 enables copy
/// propagation and the unread-definition sweep, 2 (the compiler default)
/// adds element-wise fusion, communication CSE, communication LICM,
/// proof-backed shape-guard elimination, and reduction coalescing.
struct OptOptions {
  int level = 2;
  bool fuse = true;      ///< cross-statement element-wise fusion (level >= 2)
  bool licm = true;      ///< hoist loop-invariant communication (level >= 2)
  bool cse = true;       ///< merge duplicate communication calls (level >= 2)
  bool copyprop = true;  ///< propagate through CopyMat chains (level >= 1)
  bool guard_elim = true;  ///< delete proven ShapeGuards (level >= 2)
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
  size_t swept = 0;              ///< unread pure definitions removed
  size_t guards_seen = 0;        ///< ShapeGuard instructions in the input LIR
  size_t coalesced = 0;          ///< allreduces saved by reduction groups
  /// Guards deleted because an absint proof matched; the verifier
  /// cross-checks each entry against the proof list (E6009).
  std::vector<GuardProof> guards_eliminated;

  [[nodiscard]] size_t total() const {
    return hoists.size() + fused + cse_removed + copies_propagated + swept +
           guards_eliminated.size() + coalesced;
  }
};

/// Runs the pass pipeline over `prog` in place:
///   copy-prop → comm CSE → elemwise fusion → comm LICM → guard elimination
///   → copy-prop → sweep → reduction coalescing.
/// Output re-verifies: hoists are wrapped in a trip-count guard so zero-trip
/// loops keep their semantics, and hoisted ML_tmp targets are pre-defined so
/// the verifier's all-paths rule (E6002) still holds.
OptReport run_opt(LProgram& prog, const OptOptions& opts);

}  // namespace otter::lower
