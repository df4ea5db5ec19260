// AST → LIR lowering (paper passes 4 and 5). Lowering translates one
// statement at a time and runs no optimization: the peephole pass (paper
// pass 6) and every later pass run in run_opt (lower/opt.hpp).
#pragma once

#include "frontend/ast.hpp"
#include "lower/lir.hpp"
#include "sema/infer.hpp"
#include "support/budget.hpp"
#include "support/diag.hpp"

namespace otter::lower {

struct LowerOptions {
  /// Shared per-compilation resource gate; lowering stops emitting once the
  /// LIR instruction or wall-clock budget is exhausted. May be null.
  BudgetGate* budget = nullptr;
};

/// Lowers the resolved, inferred program into LIR. Reports constructs
/// outside the compiler's subset through diags.
LProgram lower_program(Program& prog, const sema::InferResult& inf,
                       DiagEngine& diags, const LowerOptions& opts = {});

}  // namespace otter::lower
