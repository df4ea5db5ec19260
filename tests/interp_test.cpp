#include "interp/interp.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "frontend/parser.hpp"

namespace otter::interp {
namespace {

using ::otter::parse_string;

/// Runs a script, returning printed output.
std::string run(const std::string& script) { return run_script(script); }

/// Runs a script and returns the final value of `name` (must be real scalar).
double run_scalar(const std::string& script, const std::string& name = "r") {
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string(script, sm, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.to_string();
  Program prog;
  prog.script = std::move(f.script);
  std::ostringstream out;
  Interp in(prog, out);
  in.run();
  const Value* v = in.lookup(name);
  EXPECT_NE(v, nullptr) << "variable " << name << " not set";
  return to_double(*v, {});
}

TEST(Interp, ScalarArithmetic) {
  EXPECT_DOUBLE_EQ(run_scalar("r = 2 + 3 * 4;"), 14.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = (2 + 3) * 4;"), 20.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = 7 / 2;"), 3.5);
  EXPECT_DOUBLE_EQ(run_scalar("r = 2^10;"), 1024.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = -2^2;"), -4.0);  // -(2^2)
}

TEST(Interp, ComparisonAndLogical) {
  EXPECT_DOUBLE_EQ(run_scalar("r = 3 < 4;"), 1.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = 3 >= 4;"), 0.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = 1 && 0;"), 0.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = 1 || 0;"), 1.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = ~0;"), 1.0);
}

TEST(Interp, ShortCircuitSkipsRhs) {
  // Division by zero on rhs is never evaluated.
  EXPECT_DOUBLE_EQ(run_scalar("x = 0; r = x ~= 0 && 1/x > 0;"), 0.0);
}

TEST(Interp, MatrixLiteralAndIndexing) {
  EXPECT_DOUBLE_EQ(run_scalar("m = [1, 2; 3, 4]; r = m(2, 1);"), 3.0);
  EXPECT_DOUBLE_EQ(run_scalar("m = [1, 2; 3, 4]; r = m(1, 2);"), 2.0);
}

TEST(Interp, MatrixLiteralConcatenatesBlocks) {
  EXPECT_DOUBLE_EQ(
      run_scalar("a = [1, 2]; b = [3, 4]; m = [a, b]; r = m(4);"), 4.0);
  EXPECT_DOUBLE_EQ(
      run_scalar("a = [1, 2]; m = [a; a]; r = m(2, 2);"), 2.0);
}

TEST(Interp, RangeExpression) {
  EXPECT_DOUBLE_EQ(run_scalar("v = 1:5; r = sum(v);"), 15.0);
  EXPECT_DOUBLE_EQ(run_scalar("v = 10:-2:2; r = v(3);"), 6.0);
  EXPECT_DOUBLE_EQ(run_scalar("v = 1:0.5:3; r = length(v);"), 5.0);
}

TEST(Interp, EmptyRange) {
  EXPECT_DOUBLE_EQ(run_scalar("v = 5:1; r = length(v);"), 0.0);
}

TEST(Interp, EndInIndex) {
  EXPECT_DOUBLE_EQ(run_scalar("v = 2:2:10; r = v(end);"), 10.0);
  EXPECT_DOUBLE_EQ(run_scalar("v = 1:10; r = v(end-3);"), 7.0);
  EXPECT_DOUBLE_EQ(run_scalar("v = 1:10; w = v(2:end); r = sum(w);"), 54.0);
}

TEST(Interp, ColonSliceRowAndColumn) {
  EXPECT_DOUBLE_EQ(
      run_scalar("m = [1, 2; 3, 4]; row = m(2, :); r = sum(row);"), 7.0);
  EXPECT_DOUBLE_EQ(
      run_scalar("m = [1, 2; 3, 4]; col = m(:, 1); r = sum(col);"), 4.0);
}

TEST(Interp, VectorGatherIndexing) {
  EXPECT_DOUBLE_EQ(
      run_scalar("v = [10, 20, 30, 40]; w = v([4, 1]); r = w(1) - w(2);"),
      30.0);
}

TEST(Interp, IndexedAssignmentUpdatesElement) {
  EXPECT_DOUBLE_EQ(
      run_scalar("m = zeros(2, 2); m(1, 2) = 7; r = m(1, 2);"), 7.0);
}

TEST(Interp, IndexedAssignmentGrowsVector) {
  EXPECT_DOUBLE_EQ(run_scalar("v = [1, 2]; v(5) = 9; r = length(v);"), 5.0);
  EXPECT_DOUBLE_EQ(run_scalar("v = [1, 2]; v(5) = 9; r = v(3);"), 0.0);
}

TEST(Interp, AutoVivifyFromUndefined) {
  EXPECT_DOUBLE_EQ(run_scalar("x(3) = 5; r = length(x);"), 3.0);
}

TEST(Interp, CopyOnWriteAssignmentSemantics) {
  // b must not alias a.
  EXPECT_DOUBLE_EQ(
      run_scalar("a = [1, 2]; b = a; b(1) = 99; r = a(1);"), 1.0);
}

TEST(Interp, MatrixScalarBroadcast) {
  EXPECT_DOUBLE_EQ(run_scalar("m = [1, 2; 3, 4]; n = m + 10; r = n(2, 2);"),
                   14.0);
  EXPECT_DOUBLE_EQ(run_scalar("m = [1, 2]; n = 2 ./ m; r = n(2);"), 1.0);
}

TEST(Interp, MatrixMatrixElementwise) {
  EXPECT_DOUBLE_EQ(
      run_scalar("a = [1, 2]; b = [3, 4]; c = a .* b; r = sum(c);"), 11.0);
}

TEST(Interp, ShapeMismatchThrows) {
  EXPECT_THROW(run("a = [1, 2]; b = [1, 2, 3]; c = a + b;"), InterpError);
}

TEST(Interp, MatMul) {
  EXPECT_DOUBLE_EQ(
      run_scalar("a = [1, 2; 3, 4]; b = [5, 6; 7, 8]; c = a * b; r = c(2, 1);"),
      43.0);
}

TEST(Interp, MatVecMul) {
  EXPECT_DOUBLE_EQ(
      run_scalar("a = [1, 2; 3, 4]; x = [1; 1]; y = a * x; r = y(2);"), 7.0);
}

TEST(Interp, InnerDimensionMismatchThrows) {
  EXPECT_THROW(run("a = [1, 2; 3, 4]; b = [1, 2, 3]; c = a * b;"), InterpError);
}

TEST(Interp, VectorDotViaTranspose) {
  EXPECT_DOUBLE_EQ(
      run_scalar("x = [1; 2; 3]; r = x' * x;"), 14.0);
}

TEST(Interp, OuterProduct) {
  EXPECT_DOUBLE_EQ(
      run_scalar("x = [1; 2]; y = [3; 4]; m = x * y'; r = m(2, 1);"), 6.0);
}

TEST(Interp, Transpose) {
  EXPECT_DOUBLE_EQ(
      run_scalar("m = [1, 2; 3, 4]; t = m'; r = t(1, 2);"), 3.0);
}

TEST(Interp, ComplexTransposeConjugates) {
  EXPECT_DOUBLE_EQ(
      run_scalar("z = [1+2i, 3]; w = z'; r = imag(w(1));"), -2.0);
  EXPECT_DOUBLE_EQ(
      run_scalar("z = [1+2i, 3]; w = z.'; r = imag(w(1));"), 2.0);
}

TEST(Interp, ComplexArithmetic) {
  EXPECT_DOUBLE_EQ(run_scalar("z = (1+2i) * (3-1i); r = real(z);"), 5.0);
  EXPECT_DOUBLE_EQ(run_scalar("z = (1+2i) * (3-1i); r = imag(z);"), 5.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = abs(3+4i);"), 5.0);
}

TEST(Interp, IfElse) {
  EXPECT_DOUBLE_EQ(run_scalar("x = 5;\nif x > 3\n r = 1;\nelse\n r = 2;\nend"),
                   1.0);
  EXPECT_DOUBLE_EQ(run_scalar("x = 1;\nif x > 3\n r = 1;\nelse\n r = 2;\nend"),
                   2.0);
}

TEST(Interp, ElseifChain) {
  EXPECT_DOUBLE_EQ(
      run_scalar("x = 0;\nif x > 0\n r = 1;\nelseif x < 0\n r = -1;\nelse\n "
                 "r = 0;\nend"),
      0.0);
}

TEST(Interp, WhileLoop) {
  EXPECT_DOUBLE_EQ(
      run_scalar("k = 0; s = 0;\nwhile k < 5\n k = k + 1; s = s + k;\nend\nr = s;"),
      15.0);
}

TEST(Interp, ForLoopSum) {
  EXPECT_DOUBLE_EQ(
      run_scalar("s = 0;\nfor i = 1:10\n s = s + i;\nend\nr = s;"), 55.0);
}

TEST(Interp, ForLoopWithStep) {
  EXPECT_DOUBLE_EQ(
      run_scalar("s = 0;\nfor i = 10:-3:1\n s = s + i;\nend\nr = s;"), 22.0);
}

TEST(Interp, BreakExitsLoop) {
  EXPECT_DOUBLE_EQ(
      run_scalar(
          "s = 0;\nfor i = 1:10\n if i == 4\n  break\n end\n s = s + i;\nend\nr = s;"),
      6.0);
}

TEST(Interp, ContinueSkipsIteration) {
  EXPECT_DOUBLE_EQ(
      run_scalar(
          "s = 0;\nfor i = 1:5\n if mod(i, 2) == 0\n  continue\n end\n s = s + "
          "i;\nend\nr = s;"),
      9.0);
}

TEST(Interp, ForOverMatrixIteratesColumns) {
  EXPECT_DOUBLE_EQ(
      run_scalar("m = [1, 2, 3; 4, 5, 6]; s = 0;\nfor c = m\n s = s + "
                 "c(2);\nend\nr = s;"),
      15.0);
}

TEST(Interp, BuiltinConstructors) {
  EXPECT_DOUBLE_EQ(run_scalar("m = zeros(3); r = numel(m);"), 9.0);
  EXPECT_DOUBLE_EQ(run_scalar("m = ones(2, 3); r = sum(sum(m));"), 6.0);
  EXPECT_DOUBLE_EQ(run_scalar("m = eye(3); r = sum(sum(m));"), 3.0);
  EXPECT_DOUBLE_EQ(run_scalar("m = eye(2, 4); r = m(2, 2);"), 1.0);
}

TEST(Interp, RandIsDeterministicAndInRange) {
  double a = run_scalar("m = rand(10, 10); r = max(max(m));");
  EXPECT_GT(a, 0.0);
  EXPECT_LT(a, 1.0);
  // Deterministic across runs.
  EXPECT_DOUBLE_EQ(run_scalar("r = rand;"), run_scalar("r = rand;"));
}

TEST(Interp, SizeFunction) {
  EXPECT_DOUBLE_EQ(run_scalar("m = zeros(3, 7); r = size(m, 2);"), 7.0);
  EXPECT_DOUBLE_EQ(run_scalar("m = zeros(3, 7); [a, b] = size(m); r = a * b;"),
                   21.0);
}

TEST(Interp, SumMeanOverMatrixAreColumnwise) {
  EXPECT_DOUBLE_EQ(
      run_scalar("m = [1, 2; 3, 4]; s = sum(m); r = s(1);"), 4.0);
  EXPECT_DOUBLE_EQ(
      run_scalar("m = [1, 2; 3, 4]; s = mean(m); r = s(2);"), 3.0);
}

TEST(Interp, MinMaxReductionAndElementwise) {
  EXPECT_DOUBLE_EQ(run_scalar("v = [3, 1, 4, 1, 5]; r = min(v);"), 1.0);
  EXPECT_DOUBLE_EQ(run_scalar("v = [3, 1, 4, 1, 5]; r = max(v);"), 5.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = max(3, 7);"), 7.0);
  EXPECT_DOUBLE_EQ(
      run_scalar("v = [1, 5, 3]; w = min(v, 2); r = sum(w);"), 5.0);
}

TEST(Interp, DotAndNorm) {
  EXPECT_DOUBLE_EQ(run_scalar("r = dot([1, 2, 3], [4, 5, 6]);"), 32.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = norm([3; 4]);"), 5.0);
}

TEST(Interp, TrapzUnitSpacing) {
  // trapz of f(x)=x over 0..4 sampled at integers = 8.
  EXPECT_DOUBLE_EQ(run_scalar("r = trapz([0, 1, 2, 3, 4]);"), 8.0);
}

TEST(Interp, TrapzWithCoordinates) {
  EXPECT_DOUBLE_EQ(
      run_scalar("x = [0, 2, 4]; y = [0, 2, 4]; r = trapz(x, y);"), 8.0);
}

TEST(Interp, ElementwiseMathBuiltins) {
  EXPECT_DOUBLE_EQ(run_scalar("r = sqrt(16);"), 4.0);
  EXPECT_DOUBLE_EQ(run_scalar("v = sqrt([4, 9]); r = v(2);"), 3.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = floor(3.7);"), 3.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = ceil(3.2);"), 4.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = round(3.5);"), 4.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = abs(-2.5);"), 2.5);
  EXPECT_DOUBLE_EQ(run_scalar("r = mod(-1, 3);"), 2.0);
  EXPECT_DOUBLE_EQ(run_scalar("r = rem(-1, 3);"), -1.0);
  EXPECT_NEAR(run_scalar("r = sin(pi / 2);"), 1.0, 1e-12);
  EXPECT_NEAR(run_scalar("r = exp(log(5));"), 5.0, 1e-12);
}

TEST(Interp, LinspaceEndpoints) {
  EXPECT_DOUBLE_EQ(run_scalar("v = linspace(0, 1, 5); r = v(2);"), 0.25);
  EXPECT_DOUBLE_EQ(run_scalar("v = linspace(2, 8, 4); r = v(end);"), 8.0);
}

TEST(Interp, RepmatTiles) {
  EXPECT_DOUBLE_EQ(
      run_scalar("m = repmat([1, 2], 2, 3); r = size(m, 2);"), 6.0);
  EXPECT_DOUBLE_EQ(run_scalar("m = repmat(7, 2, 2); r = sum(sum(m));"), 28.0);
}

TEST(Interp, DispOutput) {
  EXPECT_EQ(run("disp(42);"), "42\n");
  EXPECT_EQ(run("disp('hi');"), "hi\n");
}

TEST(Interp, DisplayOnMissingSemicolon) {
  EXPECT_EQ(run("x = 3"), "x =\n3\n");
}

// Void builtins produce no value, so a missing semicolon displays nothing
// extra and leaves `ans` alone (the compiled code lowers them the same way).
TEST(Interp, VoidBuiltinStatementDisplaysNoAns) {
  EXPECT_EQ(run("disp(42)"), "42\n");
  EXPECT_EQ(run("fprintf('%d\\n', 7)"), "7\n");
  EXPECT_EQ(run("5;\ndisp(1)\nans"), "1\nans =\n5\n");
}

TEST(Interp, FprintfFormats) {
  EXPECT_EQ(run("fprintf('%d items\\n', 3);"), "3 items\n");
  EXPECT_EQ(run("fprintf('%.2f\\n', pi);"), "3.14\n");
  EXPECT_EQ(run("fprintf('%g %g\\n', [1.5, 2.5]);"), "1.5 2.5\n");
}

TEST(Interp, FprintfCyclesFormat) {
  EXPECT_EQ(run("fprintf('%d\\n', [1, 2, 3]);"), "1\n2\n3\n");
}

TEST(Interp, ErrorBuiltinThrows) {
  EXPECT_THROW(run("error('boom');"), InterpError);
}

TEST(Interp, UndefinedVariableThrows) {
  EXPECT_THROW(run("y = no_such_thing + 1;"), InterpError);
}

TEST(Interp, AnsVariable) {
  EXPECT_DOUBLE_EQ(run_scalar("3 + 4;\nr = ans;"), 7.0);
}

TEST(Interp, ImaginaryUnitIdentifiers) {
  EXPECT_DOUBLE_EQ(run_scalar("z = 2 + 3 * i; r = imag(z);"), 3.0);
  // A variable named i shadows the imaginary unit.
  EXPECT_DOUBLE_EQ(run_scalar("i = 10; z = 2 + 3 * i; r = z;"), 32.0);
}

}  // namespace
}  // namespace otter::interp
