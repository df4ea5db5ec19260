// Code-generation tests: emitted C must contain the paper's idioms, compile
// with the host compiler, and produce byte-identical output to both the
// interpreter and the direct executor.
#include <gtest/gtest.h>

#include "codegen/ccrun.hpp"
#include "codegen/emit.hpp"
#include "driver/pipeline.hpp"

namespace otter::codegen {
namespace {

std::string emit_for(const std::string& src) {
  auto c = driver::compile_script(src);
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  return emit_cpp(c->lir);
}

TEST(Emit, MatMulBecomesRuntimeCall) {
  std::string cpp = emit_for("a = rand(8, 8); b = rand(8, 8); c = a * b;");
  EXPECT_NE(cpp.find("rt::matmul(ctx.comm"), std::string::npos) << cpp;
}

TEST(Emit, ElementwiseBecomesLocalForLoop) {
  // The paper's §3 example: a = b * c + d(i,j) — matrix add becomes a local
  // loop over each processor's elements.
  std::string cpp = emit_for(
      "b = rand(6, 6); c = rand(6, 6); d = rand(6, 6); i = 2; j = 3;\n"
      "a = b * c + d(i, j);");
  EXPECT_NE(cpp.find("rt::matmul"), std::string::npos);
  EXPECT_NE(cpp.find("for (long ML_i"), std::string::npos);
  // The remote element read is a broadcast.
  EXPECT_NE(cpp.find("rt::get_element"), std::string::npos);
}

TEST(Emit, ElementWriteUsesGuardedStore) {
  std::string cpp = emit_for("a = zeros(4, 4); i = 2; j = 3;\n"
                             "a(i, j) = a(i, j) / 2;");
  EXPECT_NE(cpp.find("rt::set_element"), std::string::npos) << cpp;
}

TEST(Emit, DotProductFoldedByPeephole) {
  std::string cpp = emit_for("x = rand(16, 1); r = x' * x; disp(r);");
  EXPECT_NE(cpp.find("rt::dot(ctx.comm"), std::string::npos) << cpp;
  // No transpose left behind.
  EXPECT_EQ(cpp.find("rt::transpose"), std::string::npos) << cpp;
}

TEST(Emit, FunctionInstanceEmitted) {
  auto c = driver::compile_script(
      "y = sq(4); disp(y);", [](const std::string& n) -> std::optional<std::string> {
        if (n == "sq") return "function y = sq(x)\ny = x * x;\n";
        return std::nullopt;
      });
  ASSERT_TRUE(c->ok);
  std::string cpp = emit_cpp(c->lir);
  EXPECT_NE(cpp.find("void otter_fn_sq_si(Ctx& ctx"), std::string::npos) << cpp;
}

TEST(Emit, EntrySymbolConfigurable) {
  auto c = driver::compile_script("x = 1;");
  ASSERT_TRUE(c->ok);
  EmitOptions o;
  o.entry_symbol = "my_entry";
  std::string cpp = emit_cpp(c->lir, o);
  EXPECT_NE(cpp.find("void my_entry("), std::string::npos);
}

class CcE2e : public ::testing::TestWithParam<int> {
 protected:
  /// Output of `src` built as generated C and run on the parameterised rank
  /// count.
  std::string run_generated(const std::string& src) {
    auto compiled = driver::compile_script(src);
    EXPECT_TRUE(compiled->ok) << compiled->diags.to_string();
    std::string error;
    auto program = CompiledProgram::build(compiled->lir, &error);
    EXPECT_TRUE(program.has_value()) << error;
    if (!program) return {};
    std::ostringstream out;
    mpi::run_spmd(mpi::ideal(8), GetParam(), [&](mpi::Comm& comm) {
      program->run(comm, out, {});
    });
    return out.str();
  }
};

INSTANTIATE_TEST_SUITE_P(Ranks, CcE2e, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "P" + std::to_string(i.param);
                         });

/// Full authenticity path: generated C == interpreter == direct executor.
TEST_P(CcE2e, GeneratedCodeMatchesInterpreter) {
  if (!CompiledProgram::toolchain_available()) {
    GTEST_SKIP() << "no host C++ compiler available";
  }
  const std::string src = R"(n = 16;
a = rand(n, n);
b = rand(n, n);
c = a * b + 2 * eye(n, n);
fprintf('%.8f\n', sum(sum(c)));
x = rand(n, 1);
r = x' * x;
fprintf('%.8f\n', r);
s = 0;
for i = 1:10
  s = s + i * i;
end
fprintf('%g\n', s);)";

  driver::InterpRun expected = driver::run_interpreter(src);
  auto compiled = driver::compile_script(src);
  ASSERT_TRUE(compiled->ok) << compiled->diags.to_string();

  driver::ParallelRun direct =
      driver::run_parallel(compiled->lir, mpi::ideal(8), GetParam());
  EXPECT_EQ(direct.output, expected.output);

  std::string error;
  auto program = CompiledProgram::build(compiled->lir, &error);
  ASSERT_TRUE(program.has_value()) << error;
  std::ostringstream out;
  mpi::run_spmd(mpi::ideal(8), GetParam(), [&](mpi::Comm& comm) {
    program->run(comm, out, {});
  });
  EXPECT_EQ(out.str(), expected.output);
}

TEST_P(CcE2e, GeneratedControlFlowAndSlices) {
  if (!CompiledProgram::toolchain_available()) {
    GTEST_SKIP() << "no host C++ compiler available";
  }
  const std::string src = R"(v = 1:20;
w = v(3:12);
total = 0;
k = 1;
while k <= 5
  if mod(k, 2) == 0
    total = total + sum(w) * k;
  else
    total = total - k;
  end
  k = k + 1;
end
fprintf('%g\n', total);
m = zeros(3, 5);
m(2, :) = linspace(1, 2, 5);
disp(m);)";

  EXPECT_EQ(run_generated(src), driver::run_interpreter(src).output);
}

TEST_P(CcE2e, GeneratedCodeHandlesInfAndNaN) {
  if (!CompiledProgram::toolchain_available()) {
    GTEST_SKIP() << "no host C++ compiler available";
  }
  // Inf and NaN constants must be valid C++, and a zero in A skips no term
  // of the matmul (0 * Inf = NaN).
  const std::string src = R"(a = zeros(8, 8);
a(1, 2) = 1;
a(2, 1) = 1;
b = ones(8, 8);
b(1, 1) = Inf;
c = a * b;
fprintf('%g\n', c(1, 1));
disp(c);
fprintf('%g %g %g\n', -Inf, NaN, c(2, 1) - Inf);)";

  EXPECT_EQ(run_generated(src), driver::run_interpreter(src).output);
}

}  // namespace
}  // namespace otter::codegen
