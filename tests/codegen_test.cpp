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
  auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
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
  auto c = driver::compile_script("x = rand(16, 1); r = x' * x; disp(r);", {},
                                  {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  lower::run_peephole(c->lir);
  std::string cpp = emit_cpp(c->lir);
  EXPECT_NE(cpp.find("rt::dot(ctx.comm"), std::string::npos) << cpp;
  // No transpose left behind.
  EXPECT_EQ(cpp.find("rt::transpose"), std::string::npos) << cpp;
}

TEST(Emit, FunctionInstanceEmitted) {
  auto c = driver::compile_script(
      "y = sq(4); disp(y);", [](const std::string& n) -> std::optional<std::string> {
        if (n == "sq") return "function y = sq(x)\ny = x * x;\n";
        return std::nullopt;
      }, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok);
  std::string cpp = emit_cpp(c->lir);
  EXPECT_NE(cpp.find("void otter_fn_sq_si(Ctx& ctx"), std::string::npos) << cpp;
}

TEST(Emit, EntrySymbolConfigurable) {
  auto c = driver::compile_script("x = 1;", {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok);
  EmitOptions o;
  o.entry_symbol = "my_entry";
  std::string cpp = emit_cpp(c->lir, o);
  EXPECT_NE(cpp.find("void my_entry("), std::string::npos);
}

class CcE2e : public ::testing::TestWithParam<int> {
 protected:
  /// Output of `src` built as generated C at opt `level` and run on the
  /// parameterised rank count.
  std::string run_generated(const std::string& src, int level = 0) {
    auto compiled =
        driver::compile_script(src, {}, {.opt = {.level = level}});
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
  auto compiled = driver::compile_script(src, {}, {.opt = {.level = 0}});
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

// Coalesced reductions (a group in the loop, one after it) run the same
// grouped allreduce in generated C as on the VM.
TEST_P(CcE2e, GroupedReductionsMatchTheVm) {
  if (!CompiledProgram::toolchain_available()) {
    GTEST_SKIP() << "no host C++ compiler available";
  }
  const std::string src = R"(x = rand(9, 1);
y = rand(9, 1);
s = 0;
for k = 1:3
  a = mean(x);
  b = sum(y);
  m1 = max(x);
  m2 = max(y);
  s = s + a * b + m1 - m2;
  x = x + 0.5 * a;
  y = y - 0.25 * b;
end
fprintf('%.17g %.17g %.17g\n', s, min(x), min(y));)";
  auto compiled = driver::compile_script(src);
  ASSERT_TRUE(compiled->ok) << compiled->diags.to_string();
  EXPECT_EQ(compiled->opt_report.coalesced, 3u)
      << lower::dump_lir(compiled->lir);
  driver::ParallelRun vm =
      driver::run_parallel(compiled->lir, mpi::ideal(8), GetParam());

  std::string error;
  auto program = CompiledProgram::build(compiled->lir, &error);
  ASSERT_TRUE(program.has_value()) << error;
  std::ostringstream out;
  mpi::RunResult r = mpi::run_spmd(mpi::ideal(8), GetParam(),
                                   [&](mpi::Comm& comm) {
                                     program->run(comm, out, {});
                                   });
  EXPECT_EQ(out.str(), vm.output);
  EXPECT_EQ(r.total_ops(), vm.times.total_ops());
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

// Generated C checks element-wise alignment before its loop instead of
// reading past the shorter buffer; the shapes are hidden from inference.
TEST_P(CcE2e, UnalignedOperandsFailCoded) {
  if (!CompiledProgram::toolchain_available()) {
    GTEST_SKIP() << "no host C++ compiler available";
  }
  for (const char* src : {
           "a = ones(5 + floor(rand * 0.5), 1);\n"
           "b = ones(3 + floor(rand * 0.5), 1);\nc = a + b;\ndisp(c(1))\n",
           "a = ones(3 + floor(rand * 0.5), 1);\n"
           "b = ones(1 + floor(rand * 0.5), 1);\nc = a + b;\ndisp(c(1))\n",
       }) {
    SCOPED_TRACE(src);
    try {
      run_generated(src);
      FAIL() << "unaligned operands did not fail";
    } catch (const mpi::SpmdFailure& e) {
      EXPECT_EQ(e.first().code, "E5001");
      EXPECT_NE(e.first().what.find("element-wise op on unaligned operands"),
                std::string::npos)
          << e.first().what;
    }
  }
}

// norm(v) lowers to sqrt(dot(v, v)): norm of a matrix fails in rt::dot.
TEST_P(CcE2e, NormOfAMatrixFailsCoded) {
  if (!CompiledProgram::toolchain_available()) {
    GTEST_SKIP() << "no host C++ compiler available";
  }
  try {
    run_generated("a = rand(3, 3);\nn = norm(a);\ndisp(n)\n");
    FAIL() << "norm of a matrix did not fail";
  } catch (const mpi::SpmdFailure& e) {
    EXPECT_EQ(e.first().code, "E5001");
    EXPECT_EQ(e.first().what,
              "line 2 (dot): dot: expected equal-length vectors");
  }
}

// The -O2 eye update in generated C: every form against the interpreter,
// and a hidden shape mismatch with the VM's whole message.
TEST_P(CcE2e, EyeUpdateMatchesTheInterpreter) {
  if (!CompiledProgram::toolchain_available()) {
    GTEST_SKIP() << "no host C++ compiler available";
  }
  const std::string src = R"(sv = [2, -0.0, Inf, NaN, -NaN];
k = 3 + floor(rand() * 0);
for i = 1:5
  s = sv(i);
  x = -zeros(k, k + 2);
  x(1, 1) = 1.5;
  x(2, 4) = -2.25;
  v = -zeros(k, k);
  y1 = x + s * eye(k, k + 2);
  y2 = x - eye(k, k + 2) * s;
  y3 = eye(k, k + 2) * s - x;
  y4 = eye(k, k + 2) + x;
  v = v + s * eye(k);
  x = x - s * eye(k, k + 2);
  fprintf('%.17g ', y1, y2, y3, y4, v, x);
  fprintf('\n');
end)";
  EXPECT_EQ(driver::compile_script(src)->opt_report.eyes_folded, 6u);
  EXPECT_EQ(run_generated(src, 2), driver::run_interpreter(src).output);
  try {
    run_generated(
        "a = ones(3, 3);\nk = 4 + floor(rand() * 0);\n"
        "a = a + 2 * eye(3, k);\ndisp(a);\n",
        2);
    FAIL() << "3x3 + eye(3, 4) did not fail";
  } catch (const mpi::SpmdFailure& e) {
    EXPECT_EQ(e.first().code, "E5001");
    EXPECT_EQ(e.first().what,
              "line 3 (elemwise): element-wise op on unaligned operands: "
              "3x3 vs 3x4");
  }
}

// x(1) and x(1, 1) of a scalar-stored x are x; x(2) fails on its line.
TEST_P(CcE2e, IndexedScalarReadsAndFailsCoded) {
  if (!CompiledProgram::toolchain_available()) {
    GTEST_SKIP() << "no host C++ compiler available";
  }
  const std::string src =
      "x = 5;\nk = 1 + floor(rand() * 0);\n"
      "y = x(1) + x(1, 1) + x(k) + x(end);\ndisp(y);\n";
  for (int level : {0, 2}) {
    EXPECT_EQ(run_generated(src, level), driver::run_interpreter(src).output);
    try {
      run_generated("x = 5;\ny = x(2);\ndisp(y);\n", level);
      FAIL() << "x(2) of a scalar did not fail at -O" << level;
    } catch (const mpi::SpmdFailure& e) {
      EXPECT_EQ(e.first().code, "E5001");
      EXPECT_EQ(e.first().what,
                "line 2 (get-elem): get_element: index out of range");
    }
  }
}

}  // namespace
}  // namespace otter::codegen
