// The compiled instances of rt::matmul's local kernel (dmatrix.cpp). Internal:
// the tests and micro-benchmarks run every instance this CPU supports;
// rt::matmul runs only the widest.
#pragma once

#include <cstddef>
#include <span>

namespace otter::rt::detail {

/// One instance of the register-tiled kernel
/// C (m x n) = A (m x kdim) * B (kdim x n), all row-major and dense.
/// Every instance gives the interpreter's i-j-k result bit for bit.
struct MatmulKernel {
  const char* isa;   ///< instruction set it needs, e.g. "avx512f"
  const char* name;  ///< isa and tile shape, e.g. "avx512f 8x16"
  size_t rows;       ///< rows of A per register tile
  size_t cols;       ///< columns of B per register tile
  void (*run)(const double* a, const double* b, double* c, size_t m,
              size_t kdim, size_t n);
};

/// The instances this CPU can run: the baseline first, the widest last.
std::span<const MatmulKernel> matmul_kernels();

/// The instance rt::matmul runs: the widest in matmul_kernels(), picked once
/// per process from CPUID.
const MatmulKernel& matmul_kernel();

}  // namespace otter::rt::detail
