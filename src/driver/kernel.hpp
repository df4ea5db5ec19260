// Compiled element-wise kernels, run by the VM's EwKern superinstruction:
// the paper's pass-4 loop over each processor's local elements.
//
// compile_kernel() flattens an Elemwise tree once into postfix code with
// pre-resolved operand slots: matrix leaves become slots bound to local
// buffers once per statement execution, and scalar leaves become slots
// evaluated once per statement (lowering hoists every other scalar subtree,
// rand included, into its own ScalarAssign). Kernel::run strip-mines the
// local elements into blocks of kBlock and walks the postfix ops once per
// block; each Bin/Un runs one inner loop over the block whose operator is a
// compile-time constant, so the per-element cost is the arithmetic itself.
//
// Contract, which the VM relies on:
//  * bit-identity: every element sees exactly the interpreter's operations
//    in the interpreter's order (no reassociation, no contraction — the
//    build pins -ffp-contract=off), each op defined once by
//    rt::ew_apply_bin/un;
//  * aliasing: dst may alias a matrix operand; the block's result is stored
//    by the last op, after every read of that block;
//  * no rand: a block loop cannot keep the per-element draw order, so the
//    tree must be rand-free (the verifier reports E6008, and bytecode
//    generation traps on unverified LIR).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lower/lir.hpp"

namespace otter::driver {

/// One postfix step.
struct KOp {
  enum class K : uint8_t {
    PushImm,     ///< push `imm`
    PushScalar,  ///< push pre-evaluated scalar slot `slot`
    PushMat,     ///< push matrix slot `slot`
    Bin,         ///< pop b, pop a, push a `bop` b
    Un,          ///< pop a, push `uop` a
  };
  K k = K::PushImm;
  double imm = 0.0;
  uint32_t slot = 0;
  rt::EwBin bop = rt::EwBin::Add;
  rt::EwUn uop = rt::EwUn::Neg;
};

/// One stack entry while a block runs: element i is `p[i * step]`, so
/// matrix leaves and intermediates walk with step 1 and scalar leaves are
/// broadcast with step 0.
struct KView {
  const double* p = nullptr;
  size_t step = 0;
};

/// Working memory for Kernel::run, owned by the caller and reused across
/// runs: one block of intermediates and one view per stack level.
struct KWork {
  std::vector<double> blocks;
  std::vector<KView> views;
};

/// A compiled element-wise tree with at least one matrix leaf.
struct Kernel {
  /// Local elements per block: 2 KiB per stack level stays in L1.
  static constexpr size_t kBlock = 256;

  std::vector<KOp> ops;
  /// Matrix slot -> variable name, in pre-order-first-leaf order, so
  /// mats.front() is the matrix the output takes its shape from.
  std::vector<std::string> mats;
  /// Scalar slot -> subtree to evaluate once per statement execution.
  std::vector<const lower::LExpr*> scalars;
  size_t max_stack = 0;

  /// Computes the `n` local elements into `dst`. `mat_ptrs[i]` is the local
  /// buffer of matrix slot i and `scalar_vals[i]` the value of scalar
  /// slot i.
  void run(double* dst, const double* const* mat_ptrs,
           const double* scalar_vals, KWork& work, size_t n) const;
};

/// Compiles `tree`, which must be rand-free and have a matrix leaf. The
/// result's lifetime is bounded by `tree`'s (scalar slots point into it).
Kernel compile_kernel(const lower::LExpr& tree);

}  // namespace otter::driver
