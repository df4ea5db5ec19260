// The RtSweep fixture: run-time library property tests swept over rank counts
// and both distribution strategies. rtlib_test.cpp and sweep_ids_test.cpp
// instantiate it.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rtlib/dmatrix.hpp"

namespace otter::rt {

/// Deterministic test data.
inline std::vector<double> iota_data(size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = scale * (static_cast<double>(i % 17) - 8.0) +
           0.25 * static_cast<double>(i % 5);
  }
  return v;
}

// ctest names each case after gtest's byte dump of its parameter, so the
// struct must have no padding: padding bytes are undefined and would change
// the names from one build to the next. `name_tail` holds the bytes the cases
// are listed under; the tests never read it.
struct SweepParam {
  int nranks;
  Dist dist;
  std::array<uint8_t, 3> name_tail;
};
static_assert(sizeof(SweepParam) == 8, "SweepParam must have no padding bytes");

inline std::string param_name(
    const ::testing::TestParamInfo<SweepParam>& info) {
  return "P" + std::to_string(info.param.nranks) +
         (info.param.dist == Dist::RowBlock ? "_block" : "_cyclic");
}

class RtSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  [[nodiscard]] int P() const { return GetParam().nranks; }
  [[nodiscard]] Dist D() const { return GetParam().dist; }

  /// Runs `body` on the sweep's rank count with an ideal network.
  void spmd(const std::function<void(mpi::Comm&)>& body) {
    mpi::run_spmd(mpi::ideal(32), P(), body);
  }
};

}  // namespace otter::rt
