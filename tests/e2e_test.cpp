// End-to-end differential tests: every script must print byte-identical
// output through (a) the baseline interpreter and (b) the compiled pipeline
// executed on 1..8 ranks under both data distributions. This is the
// compiler's main correctness oracle. ScalarArithmeticAndPrint lives in
// sweep_ids_test.cpp.
#include <gtest/gtest.h>

#include "e2e_sweep.hpp"

namespace otter::driver {
namespace {

INSTANTIATE_TEST_SUITE_P(
    Ranks, E2e,
    ::testing::Values(E2eParam{1, rt::Dist::RowBlock, {0x00, 0x00, 0x00}},
                      E2eParam{2, rt::Dist::RowBlock, {0x55, 0x00, 0x00}},
                      E2eParam{3, rt::Dist::RowBlock, {0x00, 0x00, 0x00}},
                      E2eParam{5, rt::Dist::RowBlock, {0x55, 0x00, 0x00}},
                      E2eParam{8, rt::Dist::RowBlock, {0x55, 0x00, 0x00}},
                      E2eParam{1, rt::Dist::Cyclic, {0x7F, 0x00, 0x00}},
                      E2eParam{4, rt::Dist::Cyclic, {0x7F, 0x00, 0x00}},
                      E2eParam{7, rt::Dist::Cyclic, {0x55, 0x00, 0x00}}),
    param_name);

TEST_P(E2e, DisplayAssignment) {
  check("x = 7");
}

TEST_P(E2e, MatrixLiteralDisplay) {
  check("m = [1, 2; 3, 4]");
}

TEST_P(E2e, ElementwiseOps) {
  check("a = [1, 2, 3, 4, 5, 6, 7];\nb = [7, 6, 5, 4, 3, 2, 1];\n"
        "c = a .* b + 2;\ndisp(c);\nd = a ./ b;\nfprintf('%.3f ', d);\n"
        "fprintf('\\n');");
}

TEST_P(E2e, ScalarMatrixBroadcast) {
  check("v = 1:10;\nw = 2 * v - 1;\ndisp(sum(w));\nu = 10 ./ v;\n"
        "fprintf('%.4g\\n', sum(u));");
}

TEST_P(E2e, MatMul) {
  check("a = [1, 2; 3, 4];\nb = [5, 6; 7, 8];\nc = a * b;\ndisp(c);");
}

TEST_P(E2e, BiggerMatMul) {
  check("n = 17;\na = rand(n, n);\nb = rand(n, n);\nc = a * b;\n"
        "fprintf('%.6f\\n', sum(sum(c)));");
}

TEST_P(E2e, MatMulZeroTimesInfIsNaN) {
  // c(1,1) sums a(1,1) * b(1,1) = 0 * Inf = NaN: a zero in A skips no term.
  check("a = zeros(8, 8);\na(1, 2) = 1;\na(2, 1) = 1;\nb = ones(8, 8);\n"
        "b(1, 1) = Inf;\nc = a * b;\nfprintf('%g\\n', c(1, 1));\ndisp(c);");
}

TEST_P(E2e, MatVecAndDot) {
  check("a = [1, 2; 3, 4; 5, 6];\nx = [1; 2];\ny = a * x;\ndisp(y);\n"
        "v = [1; 2; 3];\nr = v' * v;\nfprintf('%g\\n', r);");
}

TEST_P(E2e, OuterProduct) {
  check("x = [1; 2; 3];\ny = [4; 5];\nm = x * y';\ndisp(m);");
}

TEST_P(E2e, Transpose) {
  check("m = [1, 2, 3; 4, 5, 6];\nt = m';\ndisp(t);");
}

TEST_P(E2e, Reductions) {
  check("v = 1:0.5:20;\nfprintf('%g %g %g %g\\n', sum(v), mean(v), min(v), "
        "max(v));");
}

TEST_P(E2e, ColwiseReductions) {
  check("m = [1, 5; 2, 4; 3, 3];\ndisp(sum(m));\ndisp(mean(m));\n"
        "disp(min(m));\ndisp(max(m));");
}

TEST_P(E2e, NormAndDotBuiltins) {
  check("x = [3; 4];\nfprintf('%g\\n', norm(x));\n"
        "fprintf('%g\\n', dot([1, 2, 3], [4, 5, 6]));");
}

TEST_P(E2e, TrapzBoth) {
  check("y = [0, 1, 2, 3, 4];\nfprintf('%g\\n', trapz(y));\n"
        "x = [0, 2, 4, 6, 8];\nfprintf('%g\\n', trapz(x, y));");
}

TEST_P(E2e, RangesAndLinspace) {
  check("v = 3:3:18;\ndisp(v);\nw = linspace(0, 1, 5);\ndisp(w);");
}

TEST_P(E2e, ZerosOnesEye) {
  check("disp(zeros(2, 3));\ndisp(ones(2));\ndisp(eye(3));\ndisp(eye(2, 4));");
}

TEST_P(E2e, RandReproducible) {
  check("m = rand(4, 5);\nfprintf('%.12f\\n', sum(sum(m)));\n"
        "s = rand;\nfprintf('%.12f\\n', s);");
}

TEST_P(E2e, ElementReadWrite) {
  check("m = zeros(3, 3);\nm(2, 3) = 7;\nm(1, 1) = m(2, 3) + 1;\ndisp(m);");
}

TEST_P(E2e, OwnerComputesElementUpdate) {
  // The paper's pass-5 example shape: a(i,j) = a(i,j) / b(j,i).
  check("a = [2, 4; 6, 8];\nb = [2, 2; 2, 2];\ni = 1; j = 2;\n"
        "a(i, j) = a(i, j) / b(j, i);\ndisp(a);");
}

TEST_P(E2e, VectorElementAccess) {
  check("v = 10:10:80;\nfprintf('%g %g %g\\n', v(1), v(4), v(end));\n"
        "v(3) = -1;\ndisp(sum(v));");
}

TEST_P(E2e, RowColumnSlices) {
  check("m = [1, 2, 3; 4, 5, 6; 7, 8, 9];\nr = m(2, :);\ndisp(r);\n"
        "c = m(:, 3);\ndisp(c);");
}

TEST_P(E2e, RowColumnAssignment) {
  check("m = zeros(3, 4);\nm(2, :) = 1:4;\nm(:, 1) = [9; 8; 7];\ndisp(m);");
}

TEST_P(E2e, VectorSlicesAndShift) {
  // The ocean script's shift idiom: v(2:end) etc.
  check("v = 1:12;\nhead = v(1:6);\ntail = v(7:end);\ndisp(sum(head));\n"
        "disp(sum(tail));\nshifted = v(2:end) - v(1:end-1);\ndisp(sum(shifted));");
}

TEST_P(E2e, SliceAssignment) {
  check("v = zeros(1, 10);\nv(3:7) = 1:5;\ndisp(v);");
}

TEST_P(E2e, IfElseChain) {
  check("x = 3;\nif x > 5\n disp('big');\nelseif x > 2\n disp('mid');\n"
        "else\n disp('small');\nend");
}

TEST_P(E2e, WhileLoop) {
  check("k = 0;\ns = 0;\nwhile k < 10\n k = k + 1;\n s = s + k * k;\nend\n"
        "fprintf('%g\\n', s);");
}

TEST_P(E2e, WhileWithMatrixStateCondition) {
  // Condition recomputed from distributed state each iteration.
  check("v = ones(1, 8);\nit = 0;\nwhile sum(v) < 100\n v = v * 1.5;\n"
        " it = it + 1;\nend\nfprintf('%d %.4f\\n', it, sum(v));");
}

TEST_P(E2e, ForLoopAccumulation) {
  check("s = 0;\nfor i = 1:100\n s = s + i;\nend\nfprintf('%g\\n', s);");
}

TEST_P(E2e, ForLoopNegativeStep) {
  check("s = 0;\nfor i = 20:-3:1\n s = s + i;\nend\nfprintf('%g\\n', s);");
}

TEST_P(E2e, NestedLoopsBreakContinue) {
  check("t = 0;\nfor i = 1:5\n if mod(i, 2) == 0\n  continue\n end\n"
        " for j = 1:5\n  if j > i\n   break\n  end\n  t = t + j;\n end\nend\n"
        "fprintf('%g\\n', t);");
}

TEST_P(E2e, LoopOverMatrixUpdates) {
  check("m = zeros(4, 4);\nfor i = 1:4\n for j = 1:4\n  m(i, j) = i * 10 + j;\n"
        " end\nend\ndisp(m);\nfprintf('%g\\n', sum(sum(m)));");
}

TEST_P(E2e, UserFunctionScalar) {
  check("y = sq(7);\nfprintf('%g\\n', y);",
        {{"sq", "function y = sq(x)\ny = x * x;\n"}});
}

TEST_P(E2e, UserFunctionMatrix) {
  check("m = scaled_eye(4, 2.5);\ndisp(m);\nfprintf('%g\\n', sum(sum(m)));",
        {{"scaled_eye",
          "function m = scaled_eye(n, s)\nm = s * eye(n, n);\n"}});
}

TEST_P(E2e, UserFunctionMultipleOutputs) {
  check("[s, p] = sumprod(3, 4);\nfprintf('%g %g\\n', s, p);",
        {{"sumprod",
          "function [s, p] = sumprod(a, b)\ns = a + b;\np = a * b;\n"}});
}

TEST_P(E2e, UserFunctionCallsFunction) {
  check("r = outer_fn(3);\nfprintf('%g\\n', r);",
        {{"outer_fn", "function y = outer_fn(x)\ny = inner_fn(x) + 1;\n"},
         {"inner_fn", "function y = inner_fn(x)\ny = 2 * x;\n"}});
}

TEST_P(E2e, FunctionSpecialisedTwice) {
  check("a = twice(3);\nb = twice(ones(2, 2));\nfprintf('%g %g\\n', a, "
        "sum(sum(b)));",
        {{"twice", "function y = twice(x)\ny = x * 2;\n"}});
}

TEST_P(E2e, SizeLengthNumel) {
  check("m = zeros(3, 7);\n[r, c] = size(m);\n"
        "fprintf('%d %d %d %d\\n', r, c, length(m), numel(m));");
}

TEST_P(E2e, ElementwiseBuiltins) {
  check("v = [-2.5, -1, 0, 1, 2.5];\ndisp(abs(v));\ndisp(floor(v));\n"
        "disp(ceil(v));\ndisp(sign(v));\nw = [1, 4, 9];\ndisp(sqrt(w));");
}

TEST_P(E2e, TranscendentalBuiltins) {
  check("v = linspace(0, 1, 7);\nfprintf('%.10f\\n', sum(exp(v)) + "
        "sum(sin(v)) + sum(cos(v)));");
}

TEST_P(E2e, MinMaxTwoArg) {
  check("v = [3, 1, 4, 1, 5];\ndisp(min(v, 3));\ndisp(max(v, 2));\n"
        "fprintf('%g\\n', max(7, 3));");
}

TEST_P(E2e, LogicalOps) {
  check("v = [0, 1, 2, 0, 3];\nw = [1, 1, 0, 0, 2];\ndisp(v & w);\n"
        "disp(v | w);\ndisp(~v);\nfprintf('%g\\n', 3 > 2 && 1 < 2);");
}

TEST_P(E2e, ComparisonMatrix) {
  check("v = 1:10;\nm = v > 5;\ndisp(m);\nfprintf('%g\\n', sum(v .* m));");
}

TEST_P(E2e, ErrorBuiltinAborts) {
  std::string src = "x = 1;\nif x > 0\n error('boom');\nend";
  InterpRun expected;
  EXPECT_THROW(run_interpreter(src), ::otter::interp::InterpError);
  auto compiled = compile_script(src, {}, {.opt = {.level = 0}});
  ASSERT_TRUE(compiled->ok) << compiled->diags.to_string();
  ExecOptions opts;
  opts.dist = GetParam().dist;
  try {
    run_parallel(compiled->lir, mpi::ideal(16), GetParam().nranks, opts);
    FAIL() << "expected SpmdFailure";
  } catch (const mpi::SpmdFailure& e) {
    // Every rank executes the error() statement, so the aggregated failure
    // names at least one primary rank with statement context.
    EXPECT_GE(e.primary_count(), 1u);
    EXPECT_NE(std::string(e.first().what).find("boom"), std::string::npos)
        << e.what();
  }
}

TEST_P(E2e, MiniConjugateGradient) {
  // Scaled-down CG: the paper's first benchmark.
  check(R"(n = 24;
a = rand(n, n);
a = a + a';
a = a + n * eye(n, n);
b = rand(n, 1);
x = zeros(n, 1);
r = b;
p = r;
rho = r' * r;
for it = 1:20
  q = a * p;
  alpha = rho / (p' * q);
  x = x + alpha * p;
  r = r - alpha * q;
  rho_new = r' * r;
  beta = rho_new / rho;
  rho = rho_new;
  p = r + beta * p;
end
res = a * x - b;
rn = sqrt(res' * res);
if rn < 1e-6
  disp('converged');
else
  disp('NOT converged');
end
fprintf('x checksum %.6f\n', sum(x));)");
  // Note: the checksum is printed to 1e-6 only — distributed reductions sum
  // in a different order than the sequential interpreter, so low-order bits
  // of accumulated dot products legitimately differ at P > 1.
}

TEST_P(E2e, MiniTransitiveClosure) {
  check(R"(n = 12;
a = rand(n, n) > 0.82;
a = a + eye(n, n);
steps = ceil(log(n) / log(2));
for k = 1:steps
  a = a * a;
  a = a > 0;
end
fprintf('reachable %g\n', sum(sum(a)));)");
}

TEST_P(E2e, MiniNbody) {
  check(R"(n = 40;
x = rand(n, 1);
y = rand(n, 1);
m = rand(n, 1) + 0.5;
vx = zeros(n, 1);
vy = zeros(n, 1);
dt = 0.01;
for step = 1:10
  cx = mean(x);
  cy = mean(y);
  total = sum(m);
  dx = cx - x;
  dy = cy - y;
  d2 = dx .* dx + dy .* dy + 0.05;
  f = total ./ d2;
  vx = vx + dt * f .* dx;
  vy = vy + dt * f .* dy;
  x = x + dt * vx;
  y = y + dt * vy;
end
fprintf('%.10f %.10f\n', sum(x), sum(y));)");
}

TEST_P(E2e, MiniOcean) {
  check(R"(n = 64;
t = linspace(0, 2 * pi, n);
eta = 0.4 * sin(t) + 0.1 * sin(2 * t);
u = 0.8 * cos(t);
du = u(2:end) - u(1:end-1);
dudt = zeros(1, n);
dudt(1:n-1) = du / (t(2) - t(1));
cd = 1.2; cm = 2.0; rho = 1025; d = 0.5;
fdrag = 0.5 * rho * cd * d * u .* abs(u);
finert = rho * cm * pi * (d^2) / 4 * dudt;
f = fdrag + finert;
work = trapz(t, f .* u);
fprintf('peak %.6f work %.6f\n', max(f), work);)");
}

}  // namespace
}  // namespace otter::driver
