// LIR optimizer tests: golden pre/post-opt dumps for fusion, communication
// LICM, communication CSE and copy propagation; semantic equivalence of
// -O0 vs -O2 and of the compiled kernels against the interpreter oracle; the
// zero-trip loop guard; the post-opt LIR verifier; and the W3207 lint
// cross-link ("the warning is a note once the optimizer performs the fix").
#include <gtest/gtest.h>

#include "analysis/lint.hpp"
#include "analysis/verify.hpp"
#include "driver/pipeline.hpp"

namespace otter::lower {
namespace {

std::unique_ptr<driver::CompileResult> compile_at(const std::string& src,
                                                  int level) {
  driver::CompileOptions copts;
  copts.opt.level = level;
  copts.keep_preopt = true;
  auto c = driver::compile_script(src, {}, copts);
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  return c;
}

std::string lir_at(const std::string& src, int level) {
  return dump_lir(compile_at(src, level)->lir);
}

std::string run_at(const std::string& src, int level, int np) {
  auto c = compile_at(src, level);
  return driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), np)
      .output;
}

size_t count_of(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// -- fusion -------------------------------------------------------------------

const char* kFusionSrc =
    "a = rand(8, 1); b = rand(8, 1); c = rand(8, 1);\n"
    "t1 = a .* b;\n"
    "t2 = t1 + c;\n"
    "d = t2 .* 2;\n"
    "disp(sum(d));\n";

TEST(OptFuse, DeadIntermediatesFuseIntoOneLoop) {
  auto c = compile_at(kFusionSrc, 2);
  // Pre-opt: one element-wise loop per statement.
  EXPECT_EQ(count_of(c->preopt_lir, "for-each-local"), 3u) << c->preopt_lir;
  // Post-opt: a single fused loop producing d; t1/t2 are gone entirely.
  std::string post = dump_lir(c->lir);
  EXPECT_EQ(count_of(post, "for-each-local"), 1u) << post;
  EXPECT_NE(post.find("for-each-local d ="), std::string::npos) << post;
  EXPECT_EQ(post.find("t1"), std::string::npos) << post;
  EXPECT_GE(c->opt_report.fused, 2u);
}

TEST(OptFuse, SharedIntermediateIsNotLost) {
  // t1 is read twice: fusing must not change observable results.
  std::string src =
      "a = rand(8, 1); b = rand(8, 1);\n"
      "t1 = a .* b;\n"
      "c = t1 + 1;\n"
      "d = t1 - 1;\n"
      "disp(sum(c) + sum(d));\n";
  EXPECT_EQ(run_at(src, 0, 1), run_at(src, 2, 1));
}

TEST(OptFuse, NoFuseOptionKeepsChains) {
  driver::CompileOptions copts;
  copts.opt.fuse = false;
  auto c = driver::compile_script(kFusionSrc, {}, copts);
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  EXPECT_EQ(c->opt_report.fused, 0u);
}

// -- communication LICM -------------------------------------------------------

const char* kLicmSrc =
    "n = 64;\n"
    "m = rand(n, n); v = rand(n, 1);\n"
    "s = 0;\n"
    "for it = 1:5\n"
    "  p = m(3, 5);\n"
    "  r = sum(v);\n"
    "  s = s + p + r;\n"
    "end\n"
    "disp(s);\n";

TEST(OptLicm, HoistsInvariantCommOutOfLoop) {
  auto c = compile_at(kLicmSrc, 2);
  std::string post = dump_lir(c->lir);
  size_t loop = post.find("for it");
  ASSERT_NE(loop, std::string::npos) << post;
  // Both communication calls moved before the loop (under the trip guard).
  EXPECT_LT(post.find("ML_broadcast"), loop) << post;
  EXPECT_LT(post.find("ML_reduce_sum"), loop) << post;
  ASSERT_EQ(c->opt_report.hoists.size(), 2u);
  EXPECT_EQ(c->opt_report.hoists[0].op, "get-elem");
  EXPECT_EQ(c->opt_report.hoists[1].op, "reduce");
  // Pre-opt: both calls still inside the loop.
  EXPECT_GT(c->preopt_lir.find("ML_broadcast"), c->preopt_lir.find("for it"))
      << c->preopt_lir;
  // Results agree with the unoptimized program at several rank counts.
  for (int np : {1, 3}) {
    EXPECT_EQ(run_at(kLicmSrc, 0, np), run_at(kLicmSrc, 2, np));
  }
}

TEST(OptLicm, ZeroTripLoopSkipsHoistedOps) {
  // The guard must re-check the trip count: with n = 0 the hoisted sum
  // never runs and t keeps its pre-loop value on every path.
  std::string src =
      "n = 0; v = rand(8, 1); t = 5;\n"
      "for k = 1:n\n"
      "  t = sum(v);\n"
      "end\n"
      "disp(t);\n";
  std::string expect = run_at(src, 0, 1);
  EXPECT_NE(expect.find("5"), std::string::npos) << expect;
  EXPECT_EQ(expect, run_at(src, 2, 1));
  // And a downward zero-trip loop.
  std::string down =
      "v = rand(8, 1); t = 7;\n"
      "for k = 3:-1:5\n"
      "  t = sum(v);\n"
      "end\n"
      "disp(t);\n";
  EXPECT_EQ(run_at(down, 0, 1), run_at(down, 2, 1));
}

TEST(OptLicm, RmwTargetStaysInLoop) {
  // s reads itself: not hoistable, every iteration matters.
  std::string src =
      "v = rand(8, 1); s = 0;\n"
      "for k = 1:4\n"
      "  s = s + sum(v);\n"
      "end\n"
      "disp(s);\n";
  auto c = compile_at(src, 2);
  std::string post = dump_lir(c->lir);
  size_t loop = post.find("for k");
  ASSERT_NE(loop, std::string::npos);
  // The reduce itself is loop-invariant and may be hoisted, but the
  // accumulation stays put and results agree.
  EXPECT_EQ(run_at(src, 0, 1), run_at(src, 2, 1));
}

TEST(OptLicm, NoLicmOptionKeepsCommInLoop) {
  driver::CompileOptions copts;
  copts.opt.licm = false;
  auto c = driver::compile_script(kLicmSrc, {}, copts);
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  EXPECT_TRUE(c->opt_report.hoists.empty());
  std::string post = dump_lir(c->lir);
  EXPECT_GT(post.find("ML_reduce_sum"), post.find("for it")) << post;
}

// -- communication CSE --------------------------------------------------------

TEST(OptCse, DuplicateReduceMergesInBlock) {
  std::string src =
      "v = rand(16, 1);\n"
      "a = sum(v);\n"
      "b = sum(v);\n"
      "disp(a + b);\n";
  auto c0 = compile_at(src, 0);
  auto c2 = compile_at(src, 2);
  EXPECT_EQ(count_of(dump_lir(c0->lir), "ML_reduce_sum"), 2u);
  EXPECT_EQ(count_of(dump_lir(c2->lir), "ML_reduce_sum"), 1u)
      << dump_lir(c2->lir);
  EXPECT_GE(c2->opt_report.cse_removed, 1u);
  EXPECT_EQ(run_at(src, 0, 1), run_at(src, 2, 1));
}

TEST(OptCse, RedefinedOperandBlocksMerge) {
  // v changes between the two sums: both reductions must survive.
  std::string src =
      "v = rand(16, 1);\n"
      "a = sum(v);\n"
      "v = v + 1;\n"
      "b = sum(v);\n"
      "disp(a + b);\n";
  auto c2 = compile_at(src, 2);
  EXPECT_EQ(count_of(dump_lir(c2->lir), "ML_reduce_sum"), 2u)
      << dump_lir(c2->lir);
  EXPECT_EQ(run_at(src, 0, 1), run_at(src, 2, 1));
}

// -- copy propagation ---------------------------------------------------------

TEST(OptCopyProp, CopyThenUseLosesTheCopy) {
  // The PR's golden case: a = b; c = a + 1 — the CopyMat disappears and c
  // is computed straight from b.
  std::string src =
      "b = rand(4, 1);\n"
      "a = b;\n"
      "c = a + 1;\n"
      "disp(sum(c));\n";
  auto c = compile_at(src, 2);
  EXPECT_NE(c->preopt_lir.find("ML_copy"), std::string::npos)
      << c->preopt_lir;
  std::string post = dump_lir(c->lir);
  EXPECT_EQ(post.find("ML_copy"), std::string::npos) << post;
  EXPECT_GE(c->opt_report.copies_propagated, 1u);
  EXPECT_EQ(run_at(src, 0, 1), run_at(src, 2, 1));
}

TEST(OptCopyProp, DisplayedCopyKeepsItsName) {
  // `a` itself is observable here (disp prints the variable): the copy may
  // be rewritten internally but output must not change.
  std::string src =
      "b = rand(4, 1);\n"
      "a = b;\n"
      "a\n"
      "c = a + 1;\n"
      "disp(sum(c));\n";
  EXPECT_EQ(run_at(src, 0, 1), run_at(src, 2, 1));
}

// -- compiled kernels ---------------------------------------------------------

TEST(OptKernels, KernelAndTreeWalkAgree) {
  std::string src =
      "a = rand(33, 1); b = rand(33, 1);\n"
      "c = sqrt(abs(a - b)) .* 2 + a .* b - 1;\n"
      "c = c + a;\n"
      "s = sum(c);\n"
      "disp(s);\n";
  std::string expect = driver::run_interpreter(src).output;
  for (int np : {1, 3}) {
    EXPECT_EQ(run_at(src, 2, np), expect) << "np=" << np;
  }
}

TEST(OptKernels, RandTreesKeepPerDrawSemantics) {
  // rand inside a scalar statement draws from the sequence; the kernel
  // path must not change how many draws happen or their order.
  std::string src =
      "x = rand;\n"
      "y = rand;\n"
      "disp(x);\n"
      "disp(y);\n";
  EXPECT_EQ(run_at(src, 2, 1), driver::run_interpreter(src).output);
}

// -- whole-program equivalence and the verifier -------------------------------

TEST(OptDifferential, LevelsAgreeAcrossPrograms) {
  const char* programs[] = {
      kFusionSrc,
      kLicmSrc,
      // while-loop with an invariant reduce and a real exit condition
      "v = rand(8, 1); s = 0; k = 0;\n"
      "while k < 3\n"
      "  s = s + sum(v);\n"
      "  k = k + 1;\n"
      "end\n"
      "disp(s);\n",
      // branch-heavy: optimizer must respect control flow
      "v = rand(8, 1); t = 0;\n"
      "if sum(v) > 0\n"
      "  t = sum(v);\n"
      "else\n"
      "  t = 1;\n"
      "end\n"
      "disp(t);\n",
      // copies into and out of a loop
      "a = rand(6, 1); s = 0;\n"
      "for k = 1:3\n"
      "  b = a;\n"
      "  s = s + sum(b);\n"
      "end\n"
      "disp(s);\n",
  };
  for (const char* src : programs) {
    for (int np : {1, 3}) {
      EXPECT_EQ(run_at(src, 0, np), run_at(src, 2, np))
          << "np=" << np << "\n"
          << src;
    }
  }
}

TEST(OptVerify, PostOptLirPassesVerifier) {
  for (const char* src : {kFusionSrc, kLicmSrc}) {
    auto c = compile_at(src, 2);
    EXPECT_EQ(analysis::verify_lir(c->lir, c->diags), 0u)
        << c->diags.to_string();
  }
}

// -- lint cross-link ----------------------------------------------------------

TEST(OptLint, HoistedW3207BecomesNote) {
  // Lint on the raw LIR reports the loop-invariant communication; with the
  // optimizer's hoist report cross-linked, the finding set is identical
  // except W3207, which turns into a non-counted note.
  auto raw = compile_at(kLicmSrc, 0);
  auto optimized = compile_at(kLicmSrc, 2);
  ASSERT_FALSE(optimized->opt_report.hoists.empty());

  DiagEngine plain_diags(nullptr);
  size_t plain = analysis::run_lint(raw->prog, raw->inf, raw->lir,
                                    plain_diags, {});
  size_t plain_w3207 = 0;
  for (const Diagnostic& d : plain_diags.diagnostics()) {
    if (d.code == "W3207") ++plain_w3207;
  }
  EXPECT_GE(plain_w3207, 1u);

  analysis::LintOptions lopts;
  for (const OptReport::Hoist& h : optimized->opt_report.hoists) {
    lopts.hoisted.push_back(h.loc);
  }
  DiagEngine linked_diags(nullptr);
  size_t linked = analysis::run_lint(raw->prog, raw->inf, raw->lir,
                                     linked_diags, lopts);
  // Same findings minus the hoisted W3207s...
  EXPECT_EQ(linked, plain - plain_w3207);
  // ...which are still visible as notes.
  size_t notes = 0;
  for (const Diagnostic& d : linked_diags.diagnostics()) {
    if (d.code == "W3207" && d.severity == DiagSeverity::Note) ++notes;
  }
  EXPECT_EQ(notes, plain_w3207);
}

}  // namespace
}  // namespace otter::lower
