// Tests for the distributed run-time library: every operation is compared
// against a straightforward sequential reference, swept over rank counts and
// both distribution strategies (TEST_P property sweeps).
// FromFullToFullRoundTripsMatrix lives in sweep_ids_test.cpp.
#include "rtlib/dmatrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "rt_sweep.hpp"
#include "rtlib/matmul_kernels.hpp"
#include "support/rng.hpp"

namespace otter::rt {
namespace {

using mpi::Comm;
using mpi::ideal;
using mpi::run_spmd;

// -- bitwise kernel checks ------------------------------------------------------
// matmul, matvec and transpose must reproduce the interpreter bit for bit
// (its i-j-k loop: start at +0.0, add a(i,k) * b(k,j) in ascending k).

/// Extents on both sides of the kernels' edges: the register tiles' rows
/// (4, 6 or 8) and columns (4, 8 or 16), the 128-column matmul panel and the
/// 32x32 transpose block.
constexpr size_t kEdgeSizes[] = {1, 3, 4, 5, 8, 13, 16, 17, 130};
constexpr size_t kInnerSizes[] = {1, 7, 129};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Values in [-1, 1): sums of their products round, so a change in
/// summation order changes the bits.
std::vector<double> rand_data(size_t n, uint64_t seed) {
  Lcg g(seed);
  std::vector<double> v(n);
  for (double& x : v) x = 2.0 * g.next() - 1.0;
  return v;
}

/// The NaN this machine's arithmetic makes (0 * Inf), computed at run time.
/// Using it as the NaN input too gives every NaN in a test the same bits, so
/// results do not depend on which operand a NaN sum returns, which C++ leaves
/// open.
double machine_nan() {
  volatile double zero = 0.0;
  return zero * kInf;
}

/// Compares with memcmp, because EXPECT_DOUBLE_EQ equates -0.0 with +0.0 and
/// never matches NaN.
void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      ADD_FAILURE() << what << ": element " << i << " is " << got[i]
                    << ", want " << want[i];
      return;
    }
  }
}

/// C = A * B in the interpreter's order.
std::vector<double> ref_matmul(const std::vector<double>& a,
                               const std::vector<double>& b, size_t m,
                               size_t kdim, size_t n) {
  std::vector<double> c(m * n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < kdim; ++k) acc += a[i * kdim + k] * b[k * n + j];
      c[i * n + j] = acc;
    }
  }
  return c;
}

/// Operands of C = A * B with values in [-1, 1) and special values placed
/// so that a skipped term or a fused multiply-add changes C's bits.
std::pair<std::vector<double>, std::vector<double>> matmul_operands(
    size_t m, size_t kdim, size_t n) {
  auto da = rand_data(m * kdim, 1000 * m + kdim);
  auto db = rand_data(kdim * n, 1000 * n + kdim + 1);
  // -0.0 * Inf = NaN must reach C(m-1, 0): no zero term is skipped.
  da[(m - 1) * kdim + kdim - 1] = -0.0;
  db[(kdim - 1) * n] = kInf;
  // NaN and -Inf spread along a column and a row of C.
  db[n - 1] = machine_nan();
  da[0] = -kInf;
  return {std::move(da), std::move(db)};
}

std::string shape_name(size_t m, size_t kdim, size_t n) {
  return std::to_string(m) + "x" + std::to_string(kdim) + " * " +
         std::to_string(kdim) + "x" + std::to_string(n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtSweep,
    ::testing::Values(SweepParam{1, Dist::RowBlock, {0x56, 0x00, 0x00}},
                      SweepParam{2, Dist::RowBlock, {0x6E, 0x89, 0xDA}},
                      SweepParam{3, Dist::RowBlock, {0x00, 0x00, 0x00}},
                      SweepParam{4, Dist::RowBlock, {0xFF, 0xFF, 0xFF}},
                      SweepParam{7, Dist::RowBlock, {0x00, 0x00, 0x00}},
                      SweepParam{8, Dist::RowBlock, {0x56, 0x00, 0x00}},
                      SweepParam{1, Dist::Cyclic, {0x00, 0x00, 0x00}},
                      SweepParam{2, Dist::Cyclic, {0x56, 0x00, 0x00}},
                      SweepParam{3, Dist::Cyclic, {0x56, 0x00, 0x00}},
                      SweepParam{5, Dist::Cyclic, {0x7F, 0x00, 0x00}},
                      SweepParam{8, Dist::Cyclic, {0x7F, 0x00, 0x00}}),
    param_name);

TEST(Layout, RowBlockCoversAllItemsExactlyOnce) {
  for (size_t n : {0u, 1u, 5u, 16u, 17u, 100u}) {
    for (int p : {1, 2, 3, 7, 16}) {
      Layout l(n, p, Dist::RowBlock);
      std::vector<int> hits(n, 0);
      size_t total = 0;
      for (int r = 0; r < p; ++r) {
        total += l.count(r);
        for (size_t i = 0; i < l.count(r); ++i) {
          size_t g = l.to_global(r, i);
          ASSERT_LT(g, n);
          hits[g]++;
          EXPECT_EQ(l.owner(g), r) << "n=" << n << " p=" << p << " g=" << g;
          EXPECT_EQ(l.to_local(g), i);
        }
      }
      EXPECT_EQ(total, n);
      for (size_t g = 0; g < n; ++g) EXPECT_EQ(hits[g], 1);
    }
  }
}

TEST(Layout, CyclicCoversAllItemsExactlyOnce) {
  for (size_t n : {0u, 1u, 5u, 16u, 33u}) {
    for (int p : {1, 2, 5, 8}) {
      Layout l(n, p, Dist::Cyclic);
      std::vector<int> hits(n, 0);
      for (int r = 0; r < p; ++r) {
        for (size_t i = 0; i < l.count(r); ++i) {
          size_t g = l.to_global(r, i);
          ASSERT_LT(g, n);
          hits[g]++;
          EXPECT_EQ(l.owner(g), r);
          EXPECT_EQ(l.to_local(g), i);
        }
      }
      for (size_t g = 0; g < n; ++g) EXPECT_EQ(hits[g], 1);
    }
  }
}

TEST(Layout, BlockIsContiguous) {
  Layout l(10, 3, Dist::RowBlock);
  for (int r = 0; r < 3; ++r) {
    for (size_t i = 1; i < l.count(r); ++i) {
      EXPECT_EQ(l.to_global(r, i), l.to_global(r, i - 1) + 1);
    }
  }
}

TEST_P(RtSweep, FromFullToFullRoundTripsVectors) {
  auto data = iota_data(13);
  spmd([&](Comm& c) {
    DMat row = from_full(c, 1, 13, data, D());
    EXPECT_EQ(to_full(c, row), data);
    DMat col = from_full(c, 13, 1, data, D());
    EXPECT_EQ(to_full(c, col), data);
  });
}

TEST_P(RtSweep, LocalElementCountsSumToTotal) {
  spmd([&](Comm& c) {
    DMat m(c, 11, 5, D());
    double local = static_cast<double>(m.local_elements());
    double total = c.allreduce_scalar(local, Comm::ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(total, 55.0);
  });
}

TEST_P(RtSweep, FillConstructors) {
  spmd([&](Comm& c) {
    EXPECT_EQ(to_full(c, fill_zeros(c, 3, 3, D())),
              std::vector<double>(9, 0.0));
    EXPECT_EQ(to_full(c, fill_ones(c, 2, 5, D())),
              std::vector<double>(10, 1.0));
    auto eye = to_full(c, fill_eye(c, 3, 4, D()));
    for (size_t r = 0; r < 3; ++r) {
      for (size_t cc = 0; cc < 4; ++cc) {
        EXPECT_DOUBLE_EQ(eye[r * 4 + cc], r == cc ? 1.0 : 0.0);
      }
    }
  });
}

TEST_P(RtSweep, RangeMatchesSequential) {
  spmd([&](Comm& c) {
    auto v = to_full(c, fill_range(c, 2.0, 3.0, 14.0, D()));
    std::vector<double> expect = {2, 5, 8, 11, 14};
    EXPECT_EQ(v, expect);
    auto down = to_full(c, fill_range(c, 5.0, -2.0, 0.0, D()));
    std::vector<double> expect2 = {5, 3, 1};
    EXPECT_EQ(down, expect2);
  });
}

TEST_P(RtSweep, RandIsDistributionIndependent) {
  // rand(r, c) must produce the sequential LCG sequence regardless of the
  // rank count or layout.
  std::vector<double> expect(6 * 7);
  Lcg g(42);
  for (double& x : expect) x = g.next();
  spmd([&](Comm& c) {
    auto got = to_full(c, fill_rand(c, 6, 7, 42, 0, D()));
    EXPECT_EQ(got, expect);
  });
}

TEST_P(RtSweep, RandSeqOffsetContinuesSequence) {
  Lcg g(7);
  for (int i = 0; i < 10; ++i) g.next();
  std::vector<double> expect(4);
  for (double& x : expect) x = g.next();
  spmd([&](Comm& c) {
    auto got = to_full(c, fill_rand(c, 1, 4, 7, 10, D()));
    EXPECT_EQ(got, expect);
  });
}

TEST_P(RtSweep, GetSetElement) {
  spmd([&](Comm& c) {
    DMat m = fill_zeros(c, 6, 6, D());
    set_element(c, m, 4, 2, 3.25);
    EXPECT_DOUBLE_EQ(get_element(c, m, 4, 2), 3.25);
    EXPECT_DOUBLE_EQ(get_element(c, m, 0, 0), 0.0);
    DMat v = fill_range(c, 1, 1, 8, D());
    EXPECT_DOUBLE_EQ(get_element(c, v, 0, 5), 6.0);
    set_element(c, v, 0, 5, -1.0);
    EXPECT_DOUBLE_EQ(get_element(c, v, 0, 5), -1.0);
  });
}

TEST_P(RtSweep, ElementwiseBinary) {
  auto da = iota_data(8 * 3, 1.0);
  auto db = iota_data(8 * 3, 0.5);
  spmd([&](Comm& c) {
    DMat a = from_full(c, 8, 3, da, D());
    DMat b = from_full(c, 8, 3, db, D());
    auto sum = to_full(c, ew_binary(c, EwBin::Add, a, b));
    auto prod = to_full(c, ew_binary(c, EwBin::Mul, a, b));
    for (size_t i = 0; i < da.size(); ++i) {
      EXPECT_DOUBLE_EQ(sum[i], da[i] + db[i]);
      EXPECT_DOUBLE_EQ(prod[i], da[i] * db[i]);
    }
  });
}

TEST_P(RtSweep, ElementwiseScalarBroadcast) {
  auto da = iota_data(10);
  spmd([&](Comm& c) {
    DMat a = from_full(c, 1, 10, da, D());
    auto left = to_full(c, ew_binary_scalar(c, EwBin::Sub, a, 2.0, true));
    auto right = to_full(c, ew_binary_scalar(c, EwBin::Sub, a, 2.0, false));
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_DOUBLE_EQ(left[i], 2.0 - da[i]);
      EXPECT_DOUBLE_EQ(right[i], da[i] - 2.0);
    }
  });
}

TEST_P(RtSweep, ElementwiseUnary) {
  auto da = iota_data(12);
  spmd([&](Comm& c) {
    DMat a = from_full(c, 12, 1, da, D());
    auto neg = to_full(c, ew_unary(c, EwUn::Neg, a));
    auto ab = to_full(c, ew_unary(c, EwUn::Abs, a));
    for (size_t i = 0; i < 12; ++i) {
      EXPECT_DOUBLE_EQ(neg[i], -da[i]);
      EXPECT_DOUBLE_EQ(ab[i], std::fabs(da[i]));
    }
  });
}

TEST_P(RtSweep, UnalignedElementwiseThrows) {
  spmd([&](Comm& c) {
    DMat a = fill_zeros(c, 4, 4, D());
    DMat b = fill_zeros(c, 4, 5, D());
    EXPECT_THROW(ew_binary(c, EwBin::Add, a, b), RtError);
  });
}

TEST_P(RtSweep, MatMulMatchesReference) {
  for (size_t M : kEdgeSizes) {
    for (size_t K : kInnerSizes) {
      for (size_t N : kEdgeSizes) {
        auto [da, db] = matmul_operands(M, K, N);
        auto ref = ref_matmul(da, db, M, K, N);
        spmd([&](Comm& c) {
          DMat a = from_full(c, M, K, da, D());
          DMat b = from_full(c, K, N, db, D());
          expect_same_bits(to_full(c, matmul(c, a, b)), ref,
                           shape_name(M, K, N));
        });
      }
    }
  }
}

// Every register-tile instance this CPU runs (the baseline always does),
// called directly on shapes on both sides of its row and column edges and
// of the 128-column panel.
TEST(MatMulKernels, EveryInstanceMatchesReference) {
  for (const detail::MatmulKernel& k : detail::matmul_kernels()) {
    const size_t r = k.rows;
    const size_t w = k.cols;
    for (size_t M : {r - 1, r, r + 1, 2 * r + 1}) {
      for (size_t K : kInnerSizes) {
        for (size_t N : {w - 1, w, w + 1, size_t{127}, size_t{129},
                         size_t{130}}) {
          auto [da, db] = matmul_operands(M, K, N);
          std::vector<double> c(M * N, 42.0);
          k.run(da.data(), db.data(), c.data(), M, K, N);
          expect_same_bits(c, ref_matmul(da, db, M, K, N),
                           std::string(k.name) + ": " + shape_name(M, K, N));
        }
      }
    }
  }
}

TEST(MatMulKernels, PicksTheWidestListed) {
  const auto all = detail::matmul_kernels();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(&detail::matmul_kernel(), &all.back());
  EXPECT_STREQ(matmul_kernel_name(), all.back().name);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i].rows * all[i].cols, all[i - 1].rows * all[i - 1].cols)
        << all[i].name;
  }
#if defined(__x86_64__)
  // The list is exactly what this CPU supports.
  std::vector<std::string> want{"sse2"};
  if (__builtin_cpu_supports("avx2")) want.emplace_back("avx2");
  if (__builtin_cpu_supports("avx512f")) want.emplace_back("avx512f");
  std::vector<std::string> got;
  for (const detail::MatmulKernel& k : all) got.emplace_back(k.isa);
  EXPECT_EQ(got, want);
#endif
}

TEST_P(RtSweep, MatMulInnerMismatchThrows) {
  spmd([&](Comm& c) {
    DMat a = fill_zeros(c, 3, 4, D());
    DMat b = fill_zeros(c, 5, 3, D());
    EXPECT_THROW(matmul(c, a, b), RtError);
  });
}

TEST_P(RtSweep, MatVecMatchesReference) {
  for (size_t M : kEdgeSizes) {
    for (size_t K : kInnerSizes) {
      auto da = rand_data(M * K, 1000 * M + K);
      auto dx = rand_data(K, K + 1);
      // Inf * -0.0 = NaN must reach y(M-1); the other rows add a signed
      // zero to +0.0. A NaN in A fills y(0).
      dx[0] = -0.0;
      da[(M - 1) * K] = kInf;
      da[K - 1] = machine_nan();
      auto ref = ref_matmul(da, dx, M, K, 1);
      spmd([&](Comm& c) {
        DMat a = from_full(c, M, K, da, D());
        DMat x = from_full(c, K, 1, dx, D());
        expect_same_bits(to_full(c, matvec(c, a, x)), ref,
                         shape_name(M, K, 1));
      });
    }
  }
}

TEST_P(RtSweep, VecMatMatchesReference) {
  constexpr size_t M = 6;
  constexpr size_t N = 9;
  auto da = iota_data(M * N);
  auto dx = iota_data(M, 2.0);
  std::vector<double> ref(N, 0.0);
  for (size_t i = 0; i < M; ++i) {
    for (size_t j = 0; j < N; ++j) ref[j] += dx[i] * da[i * N + j];
  }
  spmd([&](Comm& c) {
    DMat a = from_full(c, M, N, da, D());
    DMat x = from_full(c, 1, M, dx, D());
    auto got = to_full(c, vecmat(c, x, a));
    for (size_t j = 0; j < N; ++j) EXPECT_NEAR(got[j], ref[j], 1e-9);
  });
}

TEST_P(RtSweep, OuterProductMatchesReference) {
  auto dc = iota_data(7, 1.5);
  auto dr = iota_data(5, -2.0);
  spmd([&](Comm& c) {
    DMat col = from_full(c, 7, 1, dc, D());
    DMat row = from_full(c, 1, 5, dr, D());
    auto got = to_full(c, outer(c, col, row));
    for (size_t i = 0; i < 7; ++i) {
      for (size_t j = 0; j < 5; ++j) {
        EXPECT_NEAR(got[i * 5 + j], dc[i] * dr[j], 1e-12);
      }
    }
  });
}

TEST_P(RtSweep, DotMatchesReference) {
  auto da = iota_data(23);
  auto db = iota_data(23, 0.3);
  double ref = std::inner_product(da.begin(), da.end(), db.begin(), 0.0);
  spmd([&](Comm& c) {
    DMat a = from_full(c, 23, 1, da, D());
    DMat b = from_full(c, 23, 1, db, D());
    EXPECT_NEAR(dot(c, a, b), ref, 1e-9);
  });
}

TEST_P(RtSweep, Reductions) {
  auto da = iota_data(31);
  double rsum = std::accumulate(da.begin(), da.end(), 0.0);
  double rmin = *std::min_element(da.begin(), da.end());
  double rmax = *std::max_element(da.begin(), da.end());
  spmd([&](Comm& c) {
    DMat a = from_full(c, 1, 31, da, D());
    EXPECT_NEAR(reduce_sum(c, a), rsum, 1e-9);
    EXPECT_DOUBLE_EQ(reduce_min(c, a), rmin);
    EXPECT_DOUBLE_EQ(reduce_max(c, a), rmax);
    EXPECT_NEAR(reduce_mean(c, a), rsum / 31.0, 1e-9);
  });
}

TEST_P(RtSweep, ColwiseSumAndMean) {
  constexpr size_t R = 8;
  constexpr size_t C = 5;
  auto da = iota_data(R * C);
  spmd([&](Comm& c) {
    DMat a = from_full(c, R, C, da, D());
    auto s = to_full(c, colwise_sum(c, a, false));
    auto m = to_full(c, colwise_sum(c, a, true));
    for (size_t j = 0; j < C; ++j) {
      double ref = 0.0;
      for (size_t i = 0; i < R; ++i) ref += da[i * C + j];
      EXPECT_NEAR(s[j], ref, 1e-9);
      EXPECT_NEAR(m[j], ref / R, 1e-9);
    }
  });
}

TEST_P(RtSweep, ColwiseMinMax) {
  constexpr size_t R = 6;
  constexpr size_t C = 4;
  auto da = iota_data(R * C, -1.0);
  spmd([&](Comm& c) {
    DMat a = from_full(c, R, C, da, D());
    auto mn = to_full(c, colwise_minmax(c, a, true));
    auto mx = to_full(c, colwise_minmax(c, a, false));
    for (size_t j = 0; j < C; ++j) {
      double lo = 1e300;
      double hi = -1e300;
      for (size_t i = 0; i < R; ++i) {
        lo = std::min(lo, da[i * C + j]);
        hi = std::max(hi, da[i * C + j]);
      }
      EXPECT_DOUBLE_EQ(mn[j], lo);
      EXPECT_DOUBLE_EQ(mx[j], hi);
    }
  });
}

TEST_P(RtSweep, TransposeMatchesReference) {
  for (size_t R : kEdgeSizes) {
    for (size_t C : kEdgeSizes) {
      auto da = rand_data(R * C, 1000 * R + C);
      da[0] = -0.0;
      da[R * C / 2] = -kInf;
      da[R * C - 1] = machine_nan();
      std::vector<double> ref(R * C);
      for (size_t i = 0; i < R; ++i) {
        for (size_t j = 0; j < C; ++j) ref[j * R + i] = da[i * C + j];
      }
      spmd([&](Comm& c) {
        DMat a = from_full(c, R, C, da, D());
        expect_same_bits(to_full(c, transpose(c, a)), ref,
                         std::to_string(R) + "x" + std::to_string(C) + "'");
      });
    }
  }
}

TEST_P(RtSweep, TransposeVector) {
  auto da = iota_data(9);
  spmd([&](Comm& c) {
    DMat row = from_full(c, 1, 9, da, D());
    DMat col = transpose(c, row);
    EXPECT_EQ(col.rows(), 9u);
    EXPECT_EQ(col.cols(), 1u);
    EXPECT_EQ(to_full(c, col), da);
  });
}

TEST_P(RtSweep, SliceVector) {
  auto da = iota_data(20);
  spmd([&](Comm& c) {
    DMat v = from_full(c, 1, 20, da, D());
    auto got = to_full(c, slice_vector(c, v, 3, 11));
    std::vector<double> expect(da.begin() + 3, da.begin() + 12);
    EXPECT_EQ(got, expect);
  });
}

TEST_P(RtSweep, SliceWholeVectorIsIdentity) {
  auto da = iota_data(10);
  spmd([&](Comm& c) {
    DMat v = from_full(c, 10, 1, da, D());
    EXPECT_EQ(to_full(c, slice_vector(c, v, 0, 9)), da);
  });
}

TEST_P(RtSweep, AssignSlice) {
  auto da = iota_data(15);
  auto dv = iota_data(5, 10.0);
  spmd([&](Comm& c) {
    DMat x = from_full(c, 1, 15, da, D());
    DMat v = from_full(c, 1, 5, dv, D());
    assign_slice(c, x, 4, 8, v);
    auto got = to_full(c, x);
    for (size_t i = 0; i < 15; ++i) {
      double expect = (i >= 4 && i <= 8) ? dv[i - 4] : da[i];
      EXPECT_DOUBLE_EQ(got[i], expect) << "i=" << i;
    }
  });
}

TEST_P(RtSweep, ExtractRowAndColumn) {
  constexpr size_t R = 6;
  constexpr size_t C = 8;
  auto da = iota_data(R * C);
  spmd([&](Comm& c) {
    DMat a = from_full(c, R, C, da, D());
    auto row = to_full(c, extract_row(c, a, 4));
    auto col = to_full(c, extract_col(c, a, 2));
    for (size_t j = 0; j < C; ++j) EXPECT_DOUBLE_EQ(row[j], da[4 * C + j]);
    for (size_t i = 0; i < R; ++i) EXPECT_DOUBLE_EQ(col[i], da[i * C + 2]);
  });
}

TEST_P(RtSweep, AssignRowAndColumn) {
  constexpr size_t R = 5;
  constexpr size_t C = 6;
  auto da = iota_data(R * C);
  auto drow = iota_data(C, 100.0);
  auto dcol = iota_data(R, -50.0);
  spmd([&](Comm& c) {
    DMat a = from_full(c, R, C, da, D());
    DMat vr = from_full(c, 1, C, drow, D());
    DMat vc = from_full(c, R, 1, dcol, D());
    assign_row(c, a, 2, vr);
    assign_col(c, a, 3, vc);
    auto got = to_full(c, a);
    for (size_t i = 0; i < R; ++i) {
      for (size_t j = 0; j < C; ++j) {
        double expect = da[i * C + j];
        if (i == 2) expect = drow[j];
        if (j == 3) expect = dcol[i];  // column write came second
        EXPECT_DOUBLE_EQ(got[i * C + j], expect) << i << "," << j;
      }
    }
  });
}

TEST_P(RtSweep, TrapzMatchesReference) {
  auto dy = iota_data(27);
  double ref = 0.0;
  for (size_t i = 0; i + 1 < dy.size(); ++i) ref += 0.5 * (dy[i] + dy[i + 1]);
  spmd([&](Comm& c) {
    DMat y = from_full(c, 1, 27, dy, D());
    EXPECT_NEAR(trapz(c, y), ref, 1e-9);
  });
}

TEST_P(RtSweep, TrapzXYMatchesReference) {
  auto dy = iota_data(19);
  std::vector<double> dx(19);
  for (size_t i = 0; i < 19; ++i) dx[i] = 0.3 * static_cast<double>(i * i);
  double ref = 0.0;
  for (size_t i = 0; i + 1 < 19; ++i) {
    ref += 0.5 * (dx[i + 1] - dx[i]) * (dy[i + 1] + dy[i]);
  }
  spmd([&](Comm& c) {
    DMat x = from_full(c, 1, 19, dx, D());
    DMat y = from_full(c, 1, 19, dy, D());
    EXPECT_NEAR(trapz_xy(c, x, y), ref, 1e-9);
  });
}

// norm(v) lowers to sqrt(dot(v, v)): one matrix as both operands.
TEST_P(RtSweep, Norm2) {
  auto dv = iota_data(14);
  double ref = std::sqrt(std::inner_product(dv.begin(), dv.end(), dv.begin(), 0.0));
  spmd([&](Comm& c) {
    DMat v = from_full(c, 14, 1, dv, D());
    EXPECT_NEAR(std::sqrt(dot(c, v, v)), ref, 1e-12);
  });
}

TEST_P(RtSweep, FormatMatchesShape) {
  spmd([&](Comm& c) {
    DMat m = from_full(c, 2, 2, std::vector<double>{1, 2, 3, 4.5}, D());
    std::string s = format_dmat(c, m);
    if (c.rank() == 0) {
      EXPECT_EQ(s, "1 2\n3 4.5\n");
    } else {
      EXPECT_TRUE(s.empty());
    }
  });
}

TEST(RtEdge, EmptyMatrixOps) {
  run_spmd(ideal(8), 3, [](Comm& c) {
    DMat e = fill_zeros(c, 0, 0);
    EXPECT_EQ(e.numel(), 0u);
    EXPECT_EQ(to_full(c, e).size(), 0u);
  });
}

TEST(RtEdge, SingleElementMatrix) {
  run_spmd(ideal(8), 4, [](Comm& c) {
    DMat m = fill_value(c, 1, 1, 6.5);
    EXPECT_DOUBLE_EQ(get_element(c, m, 0, 0), 6.5);
    EXPECT_DOUBLE_EQ(reduce_sum(c, m), 6.5);
  });
}

TEST(RtEdge, MoreRanksThanRows) {
  // 8 ranks, 3-row matrix: some ranks own nothing.
  auto da = iota_data(3 * 4);
  run_spmd(ideal(8), 8, [&](Comm& c) {
    DMat a = from_full(c, 3, 4, da);
    EXPECT_EQ(to_full(c, a), da);
    DMat b = from_full(c, 4, 3, iota_data(12, 2.0));
    auto got = to_full(c, matmul(c, a, b));
    EXPECT_EQ(got.size(), 9u);
  });
}

TEST(RtEdge, OutOfRangeElementThrows) {
  run_spmd(ideal(4), 2, [](Comm& c) {
    DMat m = fill_zeros(c, 3, 3);
    EXPECT_THROW(
        {
          if (c.rank() == 0) get_element(c, m, 5, 0);
          throw RtError("match");  // other ranks throw too: keep lockstep
        },
        RtError);
  });
}

// ---- dimension validation (E5007) -------------------------------------------

TEST(RtDims, CheckedDimRejectsBadDoubles) {
  EXPECT_EQ(checked_dim(0.0, "row"), 0u);
  EXPECT_EQ(checked_dim(42.0, "row"), 42u);
  const double bad[] = {-1.0, 2.5,
                        std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(),
                        9007199254740992.0 /* 2^53 */};
  for (double v : bad) {
    try {
      checked_dim(v, "row");
      FAIL() << "checked_dim(" << v << ") should have thrown";
    } catch (const RtError& e) {
      EXPECT_EQ(e.code, "E5007") << v;
    }
  }
}

TEST(RtDims, CheckExtentsRejectsOverflowingProducts) {
  check_extents(0, 0);  // empty is fine
  check_extents(1, kMaxMatrixElements);
  try {
    check_extents(kMaxMatrixElements, 2);
    FAIL() << "overflow-prone extents should have thrown";
  } catch (const RtError& e) {
    EXPECT_EQ(e.code, "E5007");
  }
}

TEST(RtDims, ConstructorValidatesBeforeAllocating) {
  run_spmd(ideal(1), 1, [](Comm& c) {
    try {
      DMat m(c, kMaxMatrixElements, 8, Dist::RowBlock);
      FAIL() << "DMat with overflowing extents should have thrown";
    } catch (const RtError& e) {
      EXPECT_EQ(e.code, "E5007");
    }
  });
}

}  // namespace
}  // namespace otter::rt
