// Second interpreter battery: edge cases, error behaviour, and additional
// differential checks against the compiled pipeline.
#include <gtest/gtest.h>

#include "driver/pipeline.hpp"
#include "interp/interp.hpp"

namespace otter::interp {
namespace {

std::string run(const std::string& s) { return run_script(s); }

/// Output must also match the compiled pipeline at 2 and 5 ranks.
void check_both(const std::string& src) {
  std::string expected = run(src);
  auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  for (int p : {2, 5}) {
    auto r = driver::run_parallel(c->lir, mpi::ideal(8), p);
    EXPECT_EQ(r.output, expected) << "P=" << p;
  }
}

// -- interpreter-only semantics ------------------------------------------------

TEST(Interp2, EmptyMatrixArithmetic) {
  EXPECT_EQ(run("a = []; b = a + a; disp(numel(b));"), "0\n");
  EXPECT_EQ(run("a = []; disp(sum(a));"), "0\n");
}

TEST(Interp2, ScalarIndexingOfScalar) {
  EXPECT_EQ(run("x = 5; disp(x(1));"), "5\n");
  EXPECT_EQ(run("x = 5; disp(x(1, 1));"), "5\n");
}

TEST(Interp2, OutOfRangeScalarIndexThrows) {
  EXPECT_THROW(run("x = 5; disp(x(2));"), InterpError);
}

TEST(Interp2, NegativeIndexThrows) {
  EXPECT_THROW(run("v = 1:3; disp(v(0));"), InterpError);
  EXPECT_THROW(run("v = 1:3; disp(v(-1));"), InterpError);
}

TEST(Interp2, FractionalIndexThrows) {
  EXPECT_THROW(run("v = 1:3; disp(v(1.5));"), InterpError);
}

TEST(Interp2, GrowthPreservesColumnOrientation) {
  EXPECT_EQ(run("v = [1; 2]; v(4) = 9; [r, c] = size(v);\n"
                "fprintf('%d %d\\n', r, c);"),
            "4 1\n");
}

TEST(Interp2, TwoDimGrowth) {
  EXPECT_EQ(run("m = zeros(2, 2); m(3, 4) = 7;\n"
                "fprintf('%d %d %g\\n', size(m, 1), size(m, 2), sum(sum(m)));"),
            "3 4 7\n");
}

TEST(Interp2, WhileFalseNeverRuns) {
  EXPECT_EQ(run("x = 0;\nwhile 0\n x = 9;\nend\ndisp(x);"), "0\n");
}

TEST(Interp2, MatrixTruthinessAllNonzero) {
  EXPECT_EQ(run("if [1, 2, 3]\n disp('yes');\nelse\n disp('no');\nend"),
            "yes\n");
  EXPECT_EQ(run("if [1, 0, 3]\n disp('yes');\nelse\n disp('no');\nend"),
            "no\n");
  EXPECT_EQ(run("if []\n disp('yes');\nelse\n disp('no');\nend"), "no\n");
}

TEST(Interp2, ComplexSqrt) {
  // sqrt of a genuinely complex value stays complex: sqrt(3+4i) = 2+1i.
  // (A zero-imaginary complex like -4+0i demotes to real first — documented
  // Otter semantics — so its sqrt is NaN, as for any negative real.)
  EXPECT_EQ(run("z = sqrt(3 + 4i); fprintf('%g %g\\n', real(z), imag(z));"),
            "2 1\n");
}

TEST(Interp2, ConjAndAbs) {
  EXPECT_EQ(run("z = 3 + 4i; w = conj(z);\n"
                "fprintf('%g %g %g\\n', real(w), imag(w), abs(z));"),
            "3 -4 5\n");
}

TEST(Interp2, ComplexMatrixElementwise) {
  EXPECT_EQ(run("z = [1+1i, 2]; w = z .* z;\n"
                "fprintf('%g %g\\n', real(w(1)), imag(w(1)));"),
            "0 2\n");
}

TEST(Interp2, StringsCompareAndDisplay) {
  EXPECT_EQ(run("s = 'abc'; disp(s);"), "abc\n");
  EXPECT_EQ(run("s = 'x'; disp(length(s));"), "1\n");
}

TEST(Interp2, FprintfPercentEscape) {
  EXPECT_EQ(run("fprintf('100%%\\n');"), "100%\n");
}

TEST(Interp2, FprintfFieldWidths) {
  EXPECT_EQ(run("fprintf('[%6.2f]\\n', pi);"), "[  3.14]\n");
  EXPECT_EQ(run("fprintf('[%-4d]\\n', 7);"), "[7   ]\n");
}

TEST(Interp2, NestedFunctionScopesAreIsolated) {
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string("x = 10;\ny = bump(1);\nfprintf('%g %g\\n', x, y);",
                              sm, diags);
  Program prog;
  prog.script = std::move(f.script);
  DiagEngine d2(&sm);
  ParsedFile fn = parse_string("function y = bump(x)\nx = x + 1;\ny = x;\n",
                               sm, d2, "bump.m");
  for (auto& g : fn.functions) prog.functions.emplace(g->name, std::move(g));
  std::ostringstream out;
  Interp in(prog, out);
  in.run();
  EXPECT_EQ(out.str(), "10 2\n");  // caller's x untouched
}

TEST(Interp2, RecursionWorksInInterpreter) {
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string("disp(fact(5));", sm, diags);
  Program prog;
  prog.script = std::move(f.script);
  DiagEngine d2(&sm);
  ParsedFile fn = parse_string(
      "function y = fact(n)\nif n <= 1\n y = 1;\nelse\n y = n * fact(n - 1);\nend\n",
      sm, d2, "fact.m");
  for (auto& g : fn.functions) prog.functions.emplace(g->name, std::move(g));
  std::ostringstream out;
  Interp in(prog, out);
  in.run();
  EXPECT_EQ(out.str(), "120\n");
}

TEST(Interp2, DeepRecursionLimited) {
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string("disp(inf_rec(1));", sm, diags);
  Program prog;
  prog.script = std::move(f.script);
  DiagEngine d2(&sm);
  ParsedFile fn = parse_string(
      "function y = inf_rec(n)\ny = inf_rec(n + 1);\n", sm, d2, "inf_rec.m");
  for (auto& g : fn.functions) prog.functions.emplace(g->name, std::move(g));
  std::ostringstream out;
  Interp in(prog, out);
  EXPECT_THROW(in.run(), InterpError);
}

TEST(Interp2, MinMaxWithInfinities) {
  EXPECT_EQ(run("disp(min([Inf, 3, 5]));"), "3\n");
  EXPECT_EQ(run("disp(max([-Inf, -3]));"), "-3\n");
}

TEST(Interp2, ProdBuiltin) {
  EXPECT_EQ(run("disp(prod([1, 2, 3, 4]));"), "24\n");
  EXPECT_EQ(run("m = [1, 2; 3, 4]; p = prod(m); disp(p(2));"), "8\n");
}

TEST(Interp2, TransposeOfTransposeIsIdentity) {
  EXPECT_EQ(run("m = [1, 2; 3, 4]; d = m'' - m; disp(sum(sum(abs(d))));"),
            "0\n");
}

// -- differential (interpreter == compiled at several rank counts) --------------

TEST(Interp2, DiffChainedComparisonMask) {
  check_both("v = 1:20;\nmask = (v > 5) & (v <= 15);\n"
             "fprintf('%g\\n', sum(v .* mask));");
}

TEST(Interp2, DiffPrefixSumLoop) {
  check_both("n = 12;\nv = 1:n;\nacc = zeros(1, n);\nrunning = 0;\n"
             "for k = 1:n\n running = running + v(k);\n acc(k) = running;\nend\n"
             "disp(acc);");
}

TEST(Interp2, DiffJacobiIteration) {
  check_both(R"(n = 20;
a = rand(n, n) + n * eye(n, n);
b = rand(n, 1);
x = zeros(n, 1);
d = zeros(n, 1);
for i = 1:n
  d(i) = a(i, i);
end
for it = 1:15
  r = b - a * x;
  x = x + r ./ d;
end
res = b - a * x;
fprintf('%.6f\n', sqrt(res' * res));)");
}

TEST(Interp2, DiffPowerIteration) {
  check_both(R"(n = 16;
a = rand(n, n);
a = a + a';
v = ones(n, 1);
for it = 1:30
  w = a * v;
  v = w / norm(w);
end
lambda = v' * (a * v);
fprintf('%.6f\n', lambda);)");
}

TEST(Interp2, DiffHistogramByElementWrites) {
  check_both(R"(bins = zeros(1, 10);
data = rand(1, 200);
for k = 1:200
  b = floor(data(k) * 10) + 1;
  bins(b) = bins(b) + 1;
end
disp(bins);
fprintf('%g\n', sum(bins));)");
}

TEST(Interp2, DiffFunctionWithLoopAndEarlyReturn) {
  std::string src = "r = first_over(0.9);\nfprintf('%d\\n', r);";
  std::map<std::string, std::string> mfiles = {
      {"first_over",
       "function idx = first_over(t)\nv = rand(1, 100);\nidx = -1;\n"
       "for k = 1:100\n if v(k) > t\n  idx = k;\n  return\n end\nend\n"}};
  sema::MFileLoader loader = [&](const std::string& n)
      -> std::optional<std::string> {
    auto it = mfiles.find(n);
    if (it == mfiles.end()) return std::nullopt;
    return it->second;
  };
  auto expected = driver::run_interpreter(src, loader);
  auto c = driver::compile_script(src, loader, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  for (int p : {1, 3}) {
    auto r = driver::run_parallel(c->lir, mpi::ideal(8), p);
    EXPECT_EQ(r.output, expected.output) << "P=" << p;
  }
}

TEST(Interp2, DiffNestedConditionalsInLoop) {
  check_both(R"(s1 = 0; s2 = 0; s3 = 0;
for k = 1:50
  x = mod(k * 7, 11);
  if x < 3
    s1 = s1 + x;
  elseif x < 7
    s2 = s2 + x;
  else
    s3 = s3 + x;
  end
end
fprintf('%g %g %g\n', s1, s2, s3);)");
}

TEST(Interp2, DiffColumnAndRowOps) {
  check_both(R"(m = rand(6, 9);
cs = sum(m);
rs = sum(m');
fprintf('%.8f %.8f\n', sum(cs), sum(rs));
top = m(1, :);
left = m(:, 1);
fprintf('%.8f %.8f\n', sum(top), sum(left));)");
}

TEST(Interp2, DiffMovingAverageSlices) {
  check_both(R"(n = 30;
v = rand(1, n);
sm = (v(1:n-2) + v(2:n-1) + v(3:n)) / 3;
fprintf('%.8f %d\n', sum(sm), length(sm));)");
}

}  // namespace
}  // namespace otter::interp
