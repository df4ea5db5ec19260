// Sweep cases listed under parameter dumps that differ from the rest of their
// sweep (ctest names a case after its parameter's bytes; see E2eParam and
// SweepParam). A fixture has one parameter list per executable, so these
// cases run in an executable of their own.
#include <gtest/gtest.h>

#include "e2e_sweep.hpp"
#include "rt_sweep.hpp"

namespace otter {
namespace driver {
namespace {

INSTANTIATE_TEST_SUITE_P(
    Ranks, E2e,
    ::testing::Values(E2eParam{1, rt::Dist::RowBlock, {0x1E, 0x09, 0x00}},
                      E2eParam{2, rt::Dist::RowBlock, {0x00, 0xC0, 0xCA}},
                      E2eParam{3, rt::Dist::RowBlock, {0x00, 0xD0, 0xCA}},
                      E2eParam{5, rt::Dist::RowBlock, {0x00, 0xC5, 0xCA}},
                      E2eParam{8, rt::Dist::RowBlock, {0x00, 0x00, 0x00}},
                      E2eParam{1, rt::Dist::Cyclic, {0x00, 0x00, 0x00}},
                      E2eParam{4, rt::Dist::Cyclic, {0x00, 0x00, 0x00}},
                      E2eParam{7, rt::Dist::Cyclic, {0x00, 0x00, 0x00}}),
    param_name);

TEST_P(E2e, ScalarArithmeticAndPrint) {
  check("x = 2 + 3 * 4;\nfprintf('%g\\n', x);");
}

}  // namespace
}  // namespace driver

namespace rt {
namespace {

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtSweep,
    ::testing::Values(SweepParam{1, Dist::RowBlock, {0x00, 0x00, 0x00}},
                      SweepParam{2, Dist::RowBlock, {0x00, 0x00, 0x00}},
                      SweepParam{3, Dist::RowBlock, {0x00, 0x00, 0x00}},
                      SweepParam{4, Dist::RowBlock, {0x00, 0x00, 0x00}},
                      SweepParam{7, Dist::RowBlock, {0x00, 0x00, 0x00}},
                      SweepParam{8, Dist::RowBlock, {0x00, 0x00, 0x00}},
                      SweepParam{1, Dist::Cyclic, {0x00, 0x00, 0x00}},
                      SweepParam{2, Dist::Cyclic, {0x00, 0x00, 0x00}},
                      SweepParam{3, Dist::Cyclic, {0x00, 0x00, 0x00}},
                      SweepParam{5, Dist::Cyclic, {0x00, 0x00, 0x00}},
                      SweepParam{8, Dist::Cyclic, {0x00, 0x00, 0x00}}),
    param_name);

TEST_P(RtSweep, FromFullToFullRoundTripsMatrix) {
  auto data = iota_data(9 * 4);
  spmd([&](mpi::Comm& c) {
    DMat m = from_full(c, 9, 4, data, D());
    EXPECT_EQ(to_full(c, m), data);
  });
}

}  // namespace
}  // namespace rt
}  // namespace otter
