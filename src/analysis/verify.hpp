// --verify-lir: structural self-check of the lowered IR.
//
// Lowering (paper passes 4 and 5) and the optimizer (pass 6 on) promise the
// executor and the C backend a small set of invariants; this verifier
// enforces them after every compile so miscompiles surface as located
// E6xxx diagnostics instead of wrong answers or crashes downstream:
//   E6001  reference to a variable not declared in the scope
//   E6002  compiler temporary (ML_tmpN) used before it is defined
//   E6003  operand arity wrong for the opcode
//   E6004  operand kind wrong (matrix where a scalar is expected, a matrix
//          leaf in a replicated scalar tree, destination of the wrong kind)
//   E6005  malformed control flow (break/continue outside a loop, if with
//          no arms or a non-final else, loop without condition/bounds)
//   E6006  run-time-library function call malformed (unknown instance,
//          argument/result count or kind mismatch)
//   E6007  malformed owner-guarded element write
//   E6008  missing or malformed expression tree (elemwise/scalar trees,
//          ragged matrix literals)
//   E6009  shape guard deleted without a matching abstract-interpretation
//          proof (optimizer and analyzer disagree about a guard)
//   E6010  malformed reduction group (fewer than two members, mixed
//          reduction classes, a non-matrix operand, a repeated destination)
#pragma once

#include "lower/lir.hpp"
#include "lower/opt.hpp"
#include "support/diag.hpp"

namespace otter::analysis {

/// Verifies every scope of a lowered program. Reports each violation
/// through `diags` (as errors) and returns the number of violations.
size_t verify_lir(const lower::LProgram& lir, DiagEngine& diags);

/// Cross-checks the optimizer's guard-elimination record against the
/// analyzer's proof list: every deleted ShapeGuard must match a proof by
/// source position and builtin name. Violations are E6009 errors; returns
/// the number found.
size_t verify_guard_elimination(const lower::OptReport& report,
                                const std::vector<lower::GuardProof>& proofs,
                                DiagEngine& diags);

}  // namespace otter::analysis
