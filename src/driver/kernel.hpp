// Compiled element-wise kernels, run by the VM's EwKern superinstruction.
//
// Re-interpreting the LExpr tree for every local element costs one
// recursive walk per element. A Kernel compiles the tree once into flat
// postfix code with pre-resolved operand slots: matrix leaves become span
// indices bound once per statement execution, scalar leaves become slots
// evaluated once per statement (lowering guarantees an element-wise tree's
// scalar subtrees are Imm/ScalarVar only — anything more complex, including
// rand, was hoisted into its own ScalarAssign), and the per-element work is
// a tight loop over a small value stack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lower/lir.hpp"

namespace otter::driver {

/// One postfix step.
struct KOp {
  enum class K : uint8_t {
    PushImm,     ///< push `imm`
    PushScalar,  ///< push pre-evaluated scalar slot `slot`
    PushMat,     ///< push element l of matrix slot `slot`
    Bin,         ///< pop b, pop a, push a `bop` b
    Un,          ///< pop a, push `uop` a
  };
  K k = K::PushImm;
  double imm = 0.0;
  uint16_t slot = 0;
  rt::EwBin bop = rt::EwBin::Add;
  rt::EwUn uop = rt::EwUn::Neg;
};

/// One pre-resolved operand of a pattern-specialised kernel: a matrix slot
/// (indexed per element), a scalar slot, or an immediate.
struct KOperand {
  enum class K : uint8_t { Mat, Slot, Imm };
  K k = K::Imm;
  uint16_t slot = 0;
  double imm = 0.0;
};

/// Whole-kernel shapes with dedicated element loops. The postfix programs
/// the fuser produces are overwhelmingly a handful of shapes (a single
/// binary op, a single unary op, or an axpy-style `a +- s .* b`); running
/// those through the generic per-element postfix interpreter costs several
/// dispatches plus stack traffic per element. Classified once at kernel
/// compile time; Generic falls back to the interpreter.
enum class KPat : uint8_t {
  Generic,
  Bin2,  ///< dst[l] = o1 bop o2
  Un1,   ///< dst[l] = uop(o1)
  Axpy,  ///< dst[l] = o1 bop2 (o2 * o3), bop2 in {Add, Sub}
};

/// A compiled LExpr tree. `ok == false` means the tree cannot be kernelized
/// (it draws rand, whose per-element semantics a once-per-statement slot
/// would change) and the caller must fall back to per-element evaluation
/// (the VM's EwTree).
struct Kernel {
  std::vector<KOp> ops;
  /// Matrix slot -> variable name, in pre-order-first-leaf order, so
  /// mats.front() is the matrix the output takes its shape from (the same
  /// leaf EwTree's shape_mreg names).
  std::vector<std::string> mats;
  /// Scalar slot -> subtree to evaluate once per statement execution.
  std::vector<const lower::LExpr*> scalars;
  size_t max_stack = 0;
  bool ok = false;

  /// Pattern specialisation (see KPat). Operand order and the exact
  /// ew_apply_* call sequence match the postfix interpreter, so the two
  /// paths produce bit-identical results.
  KPat pat = KPat::Generic;
  KOperand o1, o2, o3;
  rt::EwBin pbop = rt::EwBin::Add;   ///< Bin2's operator
  rt::EwBin pbop2 = rt::EwBin::Add;  ///< Axpy's outer Add/Sub
  rt::EwUn puop = rt::EwUn::Neg;     ///< Un1's operator

  /// Evaluates the postfix program for local element `l`. `mat_ptrs[i]` is
  /// the local buffer of matrix slot i, `scalar_vals[i]` the pre-evaluated
  /// value of scalar slot i, `stack` has room for max_stack doubles.
  [[nodiscard]] double eval(const double* const* mat_ptrs,
                            const double* scalar_vals, double* stack,
                            size_t l) const {
    size_t sp = 0;
    for (const KOp& op : ops) {
      switch (op.k) {
        case KOp::K::PushImm:
          stack[sp++] = op.imm;
          break;
        case KOp::K::PushScalar:
          stack[sp++] = scalar_vals[op.slot];
          break;
        case KOp::K::PushMat:
          stack[sp++] = mat_ptrs[op.slot][l];
          break;
        case KOp::K::Bin:
          stack[sp - 2] = rt::ew_apply_bin(op.bop, stack[sp - 2], stack[sp - 1]);
          --sp;
          break;
        case KOp::K::Un:
          stack[sp - 1] = rt::ew_apply_un(op.uop, stack[sp - 1]);
          break;
      }
    }
    return stack[0];
  }

  /// Runs the kernel over all `n` local elements into `dst`. Equivalent to
  /// calling eval() for every l in [0, n) but dispatches the pattern once
  /// per statement instead of interpreting postfix per element. Safe when
  /// dst aliases an operand buffer: element l is fully read before dst[l]
  /// is written, matching the per-element loop's aliasing contract.
  void run(double* dst, const double* const* mat_ptrs,
           const double* scalar_vals, double* stack, size_t n) const {
    // Non-matrix operands walk a zero-stride pointer so every pattern loop
    // is a plain pointer walk with no per-element kind dispatch.
    auto bind = [&](const KOperand& o, double& imm_box,
                    size_t& step) -> const double* {
      switch (o.k) {
        case KOperand::K::Mat:
          step = 1;
          return mat_ptrs[o.slot];
        case KOperand::K::Slot:
          step = 0;
          return &scalar_vals[o.slot];
        case KOperand::K::Imm:
          break;
      }
      step = 0;
      imm_box = o.imm;
      return &imm_box;
    };
    double c1 = 0.0, c2 = 0.0, c3 = 0.0;
    size_t s1 = 0, s2 = 0, s3 = 0;
    switch (pat) {
      case KPat::Bin2: {
        const double* p1 = bind(o1, c1, s1);
        const double* p2 = bind(o2, c2, s2);
        for (size_t l = 0; l < n; ++l, p1 += s1, p2 += s2) {
          dst[l] = rt::ew_apply_bin(pbop, *p1, *p2);
        }
        return;
      }
      case KPat::Un1: {
        const double* p1 = bind(o1, c1, s1);
        for (size_t l = 0; l < n; ++l, p1 += s1) {
          dst[l] = rt::ew_apply_un(puop, *p1);
        }
        return;
      }
      case KPat::Axpy: {
        const double* p1 = bind(o1, c1, s1);
        const double* p2 = bind(o2, c2, s2);
        const double* p3 = bind(o3, c3, s3);
        for (size_t l = 0; l < n; ++l, p1 += s1, p2 += s2, p3 += s3) {
          dst[l] = rt::ew_apply_bin(
              pbop2, *p1, rt::ew_apply_bin(rt::EwBin::Mul, *p2, *p3));
        }
        return;
      }
      case KPat::Generic:
        break;
    }
    for (size_t l = 0; l < n; ++l) {
      dst[l] = eval(mat_ptrs, scalar_vals, stack, l);
    }
  }
};

/// Compiles `tree` (element-wise or pure scalar) into postfix form. The
/// result's lifetime is bounded by `tree`'s (scalar slots point into it).
Kernel compile_kernel(const lower::LExpr& tree);

}  // namespace otter::driver
