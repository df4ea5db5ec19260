// The E2e sweep fixture: a script's output through the compiled pipeline on
// 1..8 ranks, under both data distributions, must match the interpreter byte
// for byte. e2e_test.cpp and sweep_ids_test.cpp instantiate it.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "driver/pipeline.hpp"
#include "interp/interp.hpp"

namespace otter::driver {

// ctest names each case after gtest's byte dump of its parameter (the
// "# GetParam() = 8-byte object <...>" suffix), so the struct must have no
// padding: padding bytes are undefined and would change the names from one
// build to the next. `name_tail` holds the bytes the cases are listed under;
// the tests never read it.
struct E2eParam {
  int nranks;
  rt::Dist dist;
  std::array<uint8_t, 3> name_tail;
};
static_assert(sizeof(E2eParam) == 8, "E2eParam must have no padding bytes");

inline std::string param_name(const ::testing::TestParamInfo<E2eParam>& info) {
  // Appended piece by piece: GCC 12 at -O3 flags "P" + std::to_string(...)
  // with a false -Wrestrict.
  std::string name = "P";
  name += std::to_string(info.param.nranks);
  name += info.param.dist == rt::Dist::RowBlock ? "_block" : "_cyclic";
  return name;
}

class E2e : public ::testing::TestWithParam<E2eParam> {
 protected:
  /// Compiles + runs `source` on the parameterised rank count and checks the
  /// output matches the interpreter exactly.
  void check(const std::string& source,
             const std::map<std::string, std::string>& mfiles = {}) {
    sema::MFileLoader loader = [&mfiles](const std::string& name)
        -> std::optional<std::string> {
      auto it = mfiles.find(name);
      if (it == mfiles.end()) return std::nullopt;
      return it->second;
    };
    InterpRun expected = run_interpreter(source, loader);

    auto compiled = compile_script(source, loader, {.opt = {.level = 0}});
    ASSERT_TRUE(compiled->ok) << compiled->diags.to_string();
    ExecOptions opts;
    opts.dist = GetParam().dist;
    ParallelRun got =
        run_parallel(compiled->lir, mpi::ideal(16), GetParam().nranks, opts);
    EXPECT_EQ(got.output, expected.output)
        << "P=" << GetParam().nranks << " source:\n" << source;
  }
};

}  // namespace otter::driver
