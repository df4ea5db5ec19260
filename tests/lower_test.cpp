// Lowering-pass tests: the LIR must show the paper's pass-4/5/6 structure —
// communication operations hoisted to statement level as run-time calls,
// element-wise math fused into local loops, owner guards on element writes,
// and the peephole pass folding call sequences.
#include <gtest/gtest.h>

#include "driver/pipeline.hpp"

namespace otter::lower {
namespace {

/// The -O0 (as lowered) LIR, with the peephole pass applied on request.
std::unique_ptr<driver::CompileResult> lowered(const std::string& src,
                                               bool peephole) {
  auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  if (peephole) run_peephole(c->lir);
  return c;
}

std::string lir_for(const std::string& src, bool peephole = true) {
  return dump_lir(lowered(src, peephole)->lir);
}

bool compile_fails(const std::string& src) {
  auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
  return !c->ok;
}

TEST(Lower, PaperSection3Example) {
  // a = b * c + d(i,j): multiply via run-time call, element read via
  // broadcast, the add as a fused element-wise loop.
  std::string lir = lir_for(
      "b = rand(4, 4); c = rand(4, 4); d = rand(4, 4); i = 1; j = 2;\n"
      "a = b * c + d(i, j);");
  EXPECT_NE(lir.find("ML_matrix_multiply"), std::string::npos) << lir;
  EXPECT_NE(lir.find("ML_broadcast"), std::string::npos) << lir;
  EXPECT_NE(lir.find("for-each-local a ="), std::string::npos) << lir;
}

TEST(Lower, ElementWriteGetsOwnerGuard) {
  // Paper pass 5: a(i,j) = a(i,j) / b(j,i).
  std::string lir = lir_for(
      "a = rand(4, 4); b = rand(4, 4); i = 1; j = 2;\n"
      "a(i, j) = a(i, j) / b(j, i);");
  EXPECT_NE(lir.find("ML_set_element_guarded"), std::string::npos) << lir;
  // Both right-hand-side elements arrive by broadcast.
  size_t first = lir.find("ML_broadcast");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(lir.find("ML_broadcast", first + 1), std::string::npos);
}

TEST(Lower, ScalarExpressionsStayReplicated) {
  std::string lir = lir_for("x = 3; y = 2 * x + 1;");
  EXPECT_NE(lir.find("y = (+ (* 2 x) 1)"), std::string::npos) << lir;
}

TEST(Lower, ElementwiseChainsFuseIntoOneLoop) {
  // A whole chain of element-wise ops becomes a single fused loop.
  std::string lir = lir_for(
      "u = rand(1, 64); v = rand(1, 64);\nw = 2 * u + v .* v - sqrt(u);");
  size_t first = lir.find("for-each-local w =");
  ASSERT_NE(first, std::string::npos) << lir;
  // No intermediate element-wise temporaries between the operators.
  EXPECT_EQ(lir.find("for-each-local ML_tmp"), std::string::npos) << lir;
}

TEST(Lower, MatVecSelectedByShape) {
  std::string lir = lir_for("a = rand(8, 8); x = rand(8, 1); y = a * x;");
  EXPECT_NE(lir.find("ML_matrix_vector_multiply"), std::string::npos) << lir;
}

TEST(Lower, OuterProductSelectedByShape) {
  std::string lir = lir_for("x = rand(8, 1); y = rand(8, 1); m = x * y';");
  EXPECT_NE(lir.find("ML_outer_product"), std::string::npos) << lir;
}

TEST(Lower, PeepholeFoldsInnerProductIntoDot) {
  std::string with_pp = lir_for("x = rand(64, 1); r = x' * x; disp(r);", true);
  EXPECT_NE(with_pp.find("ML_dot"), std::string::npos) << with_pp;
  EXPECT_EQ(with_pp.find("ML_transpose"), std::string::npos) << with_pp;

  std::string without = lir_for("x = rand(64, 1); r = x' * x; disp(r);", false);
  EXPECT_EQ(without.find("ML_dot"), std::string::npos) << without;
  EXPECT_NE(without.find("ML_transpose"), std::string::npos) << without;
}

TEST(Lower, PeepholeKeepsTransposeWithOtherUses) {
  // The transposed value is used again — the transpose must survive.
  std::string lir = lir_for(
      "x = rand(8, 1); t = x'; a = t * x; b = sum(t); disp(a + b);");
  EXPECT_NE(lir.find("ML_transpose"), std::string::npos) << lir;
}

TEST(Lower, WhileConditionRecomputedInLoop) {
  // Distributed state in the condition: the reduction must live inside the
  // while body (re-evaluated every iteration).
  std::string lir = lir_for(
      "v = ones(1, 8);\nwhile sum(v) < 100\n v = v * 2;\nend\ndisp(sum(v));");
  size_t wh = lir.find("while");
  size_t red = lir.find("ML_reduce_sum");
  ASSERT_NE(wh, std::string::npos);
  ASSERT_NE(red, std::string::npos);
  EXPECT_GT(red, wh) << lir;
}

TEST(Lower, TemporariesUseMlTmpNaming) {
  // The paper's generated-code examples name temporaries ML_tmpN.
  std::string lir = lir_for("a = rand(4, 4); b = rand(4, 4); c = a * b + a;");
  EXPECT_NE(lir.find("ML_tmp"), std::string::npos) << lir;
}

TEST(Lower, SlicesBecomeRuntimeCalls) {
  std::string lir = lir_for(
      "v = 1:32; w = v(5:20); m = rand(4, 4); r = m(2, :); c = m(:, 3);\n"
      "disp(sum(w) + sum(r) + sum(c));");
  EXPECT_NE(lir.find("ML_slice"), std::string::npos) << lir;
  EXPECT_NE(lir.find("ML_extract_row"), std::string::npos) << lir;
  EXPECT_NE(lir.find("ML_extract_col"), std::string::npos) << lir;
}

// -- subset boundaries: constructs the compiler must reject cleanly -----------

TEST(Lower, ComplexValuesRejected) {
  EXPECT_TRUE(compile_fails("z = 2 + 3i; disp(z);"));
}

TEST(Lower, GeneralGatherIndexingRejected) {
  EXPECT_TRUE(compile_fails("v = 1:10; w = v([1, 5, 7]); disp(w);"));
}

TEST(Lower, ColonReshapeRejected) {
  EXPECT_TRUE(compile_fails("m = rand(3, 3); v = m(:); disp(v);"));
}

TEST(Lower, GlobalRejected) {
  EXPECT_TRUE(compile_fails("global g;\ng = 1;"));
}

TEST(Lower, BreakOutsideLoopRejected) {
  // Caught by the LIR verifier during fuzzing: a top-level break lowered
  // to a BreakOp the executor has no loop to bind it to. Now rejected up
  // front (the interpreter still accepts it and simply stops the script).
  EXPECT_TRUE(compile_fails("break;"));
  EXPECT_TRUE(compile_fails("x = 1;\nif x\n  continue;\nend"));
  auto c = driver::compile_script("break;", {}, {.opt = {.level = 0}});
  EXPECT_FALSE(c->ok);
  EXPECT_NE(c->diags.to_string().find("E4030"), std::string::npos)
      << c->diags.to_string();
}

TEST(Lower, MatrixPowerRejected) {
  EXPECT_TRUE(compile_fails("m = rand(3, 3); p = m^2; disp(p);"));
}

TEST(Lower, InterpreterStillRunsRejectedConstructs) {
  // The same constructs remain valid in the interpreter (the compiler's
  // subset is smaller, as in the paper).
  auto run = driver::run_interpreter("z = 2 + 3i; disp(real(z));");
  EXPECT_EQ(run.output, "2\n");
  auto run2 =
      driver::run_interpreter("v = 1:10; w = v([1, 5, 7]); disp(sum(w));");
  EXPECT_EQ(run2.output, "13\n");
}


TEST(Lower, PeepholeDotCarriesEarliestSourceLoc) {
  // P1 folds transpose + multiply + element-read into one ML_dot; the
  // fused instruction must keep the earliest location of the sequence so
  // lint/verifier findings about it point at the right line. The `...`
  // continuation spreads the statement over two lines.
  auto c = lowered(
      "x = rand(64, 1);\ny = rand(64, 1);\ns = x' ...\n  * y;\ndisp(s);", true);
  const LInstr* dot = nullptr;
  for (const LInstrPtr& in : c->lir.script) {
    if (in->op == LOp::DotProd) dot = in.get();
  }
  ASSERT_NE(dot, nullptr) << dump_lir(c->lir);
  EXPECT_TRUE(dot->loc.valid());
  EXPECT_EQ(dot->loc.line, 3u);
}

TEST(Lower, PeepholeTransposeDropKeepsEarliestSourceLoc) {
  // P2 deletes the transpose feeding a vector-matrix multiply; the
  // surviving multiply inherits the transpose's (earlier) location.
  auto c = lowered(
      "x = rand(8, 1);\nA = rand(8, 8);\nd = x' ...\n  * A;\ndisp(d(1));", true);
  const LInstr* vm = nullptr;
  for (const LInstrPtr& in : c->lir.script) {
    if (in->op == LOp::VecMat) vm = in.get();
  }
  ASSERT_NE(vm, nullptr) << dump_lir(c->lir);
  EXPECT_TRUE(vm->loc.valid());
  EXPECT_EQ(vm->loc.line, 3u);
}

}  // namespace
}  // namespace otter::lower
