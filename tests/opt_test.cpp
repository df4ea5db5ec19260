// LIR optimizer tests: golden pre/post-opt dumps for fusion, communication
// LICM, communication CSE and copy propagation; semantic equivalence of
// -O0 vs -O2 and of the compiled kernels against the interpreter oracle; the
// zero-trip loop guard; the post-opt LIR verifier; and the W3207 lint
// cross-link ("the warning is a note once the optimizer performs the fix").
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "analysis/lint.hpp"
#include "analysis/verify.hpp"
#include "driver/pipeline.hpp"

namespace otter::lower {
namespace {

std::unique_ptr<driver::CompileResult> compile_at(
    const std::string& src, int level, const sema::MFileLoader& loader = {}) {
  driver::CompileOptions copts;
  copts.opt.level = level;
  copts.keep_preopt = true;
  auto c = driver::compile_script(src, loader, copts);
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  return c;
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

// -- dead-statement elimination -----------------------------------------------

TEST(OptDse, DeadReaderInLoopFreesItsAllreduce) {
  // One DSE pass settles the loop's liveness before it removes the dead
  // t = y + 1, so y = sum(v) still looks live; -O2 repeats DSE until it
  // removes nothing, and the allreduce goes too.
  std::string src =
      "v = rand(8, 1);\n"
      "y = sum(v);\n"
      "for k = 1:3\n"
      "  t = y + 1;\n"
      "end\n"
      "disp(3);\n";
  auto c = compile_at(src, 0);
  EXPECT_GE(run_dse(c->lir), 1u);
  EXPECT_EQ(count_of(dump_lir(c->lir), "ML_reduce_sum"), 1u)
      << dump_lir(c->lir);
  std::string post = dump_lir(compile_at(src, 2)->lir);
  EXPECT_EQ(count_of(post, "ML_reduce_sum"), 0u) << post;
  EXPECT_EQ(run_at(src, 0, 3), run_at(src, 2, 3));
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

// -- reduction coalescing -----------------------------------------------------

// Small integers: every sum and product is exact, so the interpreter's
// sequential order and the ranks' tree order print the same bits.
const char* kVectors =
    "x = floor(rand(7, 1) * 4) + 1; y = floor(rand(7, 1) * 4) + 1;\n"
    "z = floor(rand(7, 1) * 4) + 1;\n";

/// Compiles `src` at -O2, checks that it prints the interpreter's output at
/// np 1 and 3, and returns how many allreduces coalescing saved.
size_t coalesced_in(const std::string& src,
                    const sema::MFileLoader& loader = {}) {
  auto c = compile_at(src, 2, loader);
  const std::string expected = driver::run_interpreter(src, loader).output;
  for (int np : {1, 3}) {
    EXPECT_EQ(driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), np)
                  .output,
              expected)
        << "np=" << np << "\n" << src;
  }
  return c->opt_report.coalesced;
}

TEST(OptCoalesce, NbodyLoopGroupsAtO2Only) {
  std::ifstream in(std::string(OTTER_SCRIPTS_DIR) + "/nbody.m");
  ASSERT_TRUE(in);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string src = ss.str();
  src.replace(src.find("n = 5000;"), 9, "n = 50;");
  src.replace(src.find("steps = 40;"), 11, "steps = 4;");

  auto c0 = compile_at(src, 0);
  EXPECT_EQ(c0->opt_report.coalesced, 0u);
  EXPECT_EQ(dump_lir(c0->lir).find("ML_reduce_group"), std::string::npos);
  auto c2 = compile_at(src, 2);
  std::string post = dump_lir(c2->lir);
  // One group per step (the two means) and one per pair after the loop.
  EXPECT_EQ(c2->opt_report.coalesced, 3u) << post;
  size_t loop = post.find("for step");
  size_t group = post.find("ML_reduce_group(mean(x), mean(y))");
  ASSERT_NE(group, std::string::npos) << post;
  EXPECT_GT(group, loop) << post;
  EXPECT_EQ(coalesced_in(src), 3u);
}

TEST(OptCoalesce, MembersShareOneReductionClass) {
  const struct {
    const char* reds;
    size_t coalesced;
  } kCases[] = {
      {"a = sum(x); b = mean(y);", 1}, {"a = sum(x); b = max(y);", 0},
      {"a = min(x); b = min(y);", 1},  {"a = max(x); b = max(y);", 1},
      {"a = prod(x); b = prod(y);", 1}, {"a = mean(x); b = min(y);", 0},
  };
  for (const auto& k : kCases) {
    std::string src = std::string(kVectors) + k.reds +
                      "\nfprintf('%.17g %.17g\\n', a, b);\n";
    EXPECT_EQ(coalesced_in(src), k.coalesced) << k.reds;
  }
}

TEST(OptCoalesce, ThreeInARowMakeOneGroup) {
  std::string src = std::string(kVectors) +
                    "a = sum(x); b = mean(y); c = sum(z);\n"
                    "fprintf('%.17g %.17g %.17g\\n', a, b, c);\n";
  EXPECT_EQ(coalesced_in(src), 2u);
  std::string post = dump_lir(compile_at(src, 2)->lir);
  EXPECT_EQ(count_of(post, "ML_reduce_group"), 1u) << post;
  EXPECT_NE(post.find("ML_reduce_group(sum(x), mean(y), sum(z))"),
            std::string::npos)
      << post;
}

TEST(OptCoalesce, ElementwiseLoopFprintfAndIfEndTheRun) {
  const char* kBetween[] = {
      "w = x .* 2;\n",
      "fprintf('%.17g\\n', a);\n",
      "if a > 1\n  q = 1;\nelse\n  q = 2;\nend\n",
  };
  for (const char* between : kBetween) {
    std::string src = std::string(kVectors) + "w = z;\nq = 0;\na = sum(x);\n" +
                      between +
                      "b = sum(y);\n"
                      "fprintf('%.17g %.17g %g %g\\n', a, b, q, w(2));\n";
    EXPECT_EQ(coalesced_in(src), 0u) << src;
    std::string post = dump_lir(compile_at(src, 2)->lir);
    EXPECT_EQ(count_of(post, "ML_reduce_sum(x)"), 1u) << post;
  }
}

TEST(OptCoalesce, GroupsFormInIfArmsAndFunctionBodies) {
  std::string arm = std::string(kVectors) +
                    "a = 0; b = 0;\n"
                    "if x(1) > -1\n  a = sum(x);\n  b = mean(y);\nend\n"
                    "fprintf('%.17g %.17g\\n', a, b);\n";
  EXPECT_EQ(coalesced_in(arm), 1u);
  auto c = compile_at(arm, 2);
  for (const LInstrPtr& in : c->lir.script) {
    EXPECT_NE(in->op, LOp::ReduceGroup) << dump_lir(c->lir);
    if (in->op == LOp::IfOp) {
      ASSERT_FALSE(in->arms.empty());
      EXPECT_EQ(in->arms[0].body.front()->op, LOp::ReduceGroup)
          << dump_lir(c->lir);
    }
  }

  sema::MFileLoader loader =
      [](const std::string& name) -> std::optional<std::string> {
    if (name == "both") return "function s = both(u, v)\ns = sum(u) + mean(v);\n";
    return std::nullopt;
  };
  std::string call = std::string(kVectors) +
                     "s = both(x, y);\nfprintf('%.17g\\n', s);\n";
  EXPECT_EQ(coalesced_in(call, loader), 1u);
  auto f = compile_at(call, 2, loader);
  ASSERT_EQ(f->lir.functions.size(), 1u);
  EXPECT_EQ(f->lir.functions[0].body.front()->op, LOp::ReduceGroup)
      << dump_lir(f->lir);
}

// Rules no lowering output can reach (a Reduce always writes a fresh
// temporary) are checked on hand-built LIR: the -O0 LIR of kPrelude with
// statements spliced in front of its fprintf, then the -O2 optimizer.

const char* kPrelude =
    "x = floor(rand(7, 1) * 4) + 1; y = floor(rand(7, 1) * 4) + 1;\n"
    "A = rand(3, 4);\np = 0; q = 0; r = 0;\n";
const char* kPreludePrint = "fprintf('%.17g %.17g %.17g\\n', p, q, r);\n";

LInstrPtr reduce_into(const std::string& dst, RedKind k,
                      const std::string& mat) {
  auto in = std::make_unique<LInstr>(LOp::Reduce);
  in->sdst = dst;
  in->red = k;
  LOperand o;
  o.is_matrix = true;
  o.mat = mat;
  in->args.push_back(std::move(o));
  return in;
}

LInstrPtr assign(const std::string& dst, LExprPtr tree) {
  auto in = std::make_unique<LInstr>(LOp::ScalarAssign);
  in->sdst = dst;
  in->tree = std::move(tree);
  return in;
}

/// Splices `mid` into the prelude's LIR, optimizes at -O2, checks that the
/// result verifies and prints the interpreter's output for `same_as` (the
/// MATLAB statements `mid` spells out) at np 1 and 3, and returns how many
/// allreduces coalescing saved.
size_t coalesced_spliced(std::vector<LInstrPtr> mid, const std::string& same_as) {
  auto c = compile_at(std::string(kPrelude) + kPreludePrint, 0);
  std::vector<LInstrPtr>& body = c->lir.script;
  body.insert(body.end() - 1, std::make_move_iterator(mid.begin()),
              std::make_move_iterator(mid.end()));
  OptReport rep = run_opt(c->lir, OptOptions{});
  DiagEngine diags(nullptr);
  EXPECT_EQ(analysis::verify_lir(c->lir, diags), 0u) << diags.to_string();
  const std::string src = std::string(kPrelude) + same_as + kPreludePrint;
  const std::string expected = driver::run_interpreter(src).output;
  for (int np : {1, 3}) {
    EXPECT_EQ(driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), np)
                  .output,
              expected)
        << "np=" << np << "\n" << dump_lir(c->lir);
  }
  return rep.coalesced;
}

TEST(OptCoalesce, StatementBetweenMayReadTheFirstResult) {
  std::vector<LInstrPtr> mid;
  mid.push_back(reduce_into("p", RedKind::Sum, "x"));
  mid.push_back(assign("r", lbin(EwBin::Add, lsvar("p"), limm(1))));
  mid.push_back(reduce_into("q", RedKind::Sum, "y"));
  EXPECT_EQ(coalesced_spliced(std::move(mid),
                              "p = sum(x); r = p + 1; q = sum(y);\n"),
            1u);
}

TEST(OptCoalesce, ReadOfTheLaterDestinationBlocks) {
  std::vector<LInstrPtr> mid;
  mid.push_back(reduce_into("p", RedKind::Sum, "x"));
  mid.push_back(assign("r", lbin(EwBin::Add, lsvar("q"), limm(1))));
  mid.push_back(reduce_into("q", RedKind::Sum, "y"));
  EXPECT_EQ(coalesced_spliced(std::move(mid),
                              "p = sum(x); r = q + 1; q = sum(y);\n"),
            0u);
}

TEST(OptCoalesce, WriteOfTheLaterDestinationBlocks) {
  // The write in between draws rand, so DSE must keep it although the
  // reduction overwrites q.
  std::vector<LInstrPtr> mid;
  mid.push_back(reduce_into("p", RedKind::Max, "x"));
  auto draw = std::make_unique<LExpr>();
  draw->kind = LExpr::Kind::RandScalar;
  mid.push_back(assign("q", std::move(draw)));
  mid.push_back(reduce_into("q", RedKind::Max, "y"));
  EXPECT_EQ(coalesced_spliced(std::move(mid),
                              "p = max(x); q = rand; q = max(y);\n"),
            0u);
}

TEST(OptCoalesce, ShapeGuardBlocks) {
  std::vector<LInstrPtr> mid;
  mid.push_back(reduce_into("p", RedKind::Min, "x"));
  auto guard = std::make_unique<LInstr>(LOp::ShapeGuard);
  LOperand m;
  m.is_matrix = true;
  m.mat = "A";
  LOperand what;
  what.is_string = true;
  what.str = "sum";
  guard->args.push_back(std::move(m));
  guard->args.push_back(std::move(what));
  mid.push_back(std::move(guard));
  mid.push_back(reduce_into("q", RedKind::Min, "y"));
  EXPECT_EQ(coalesced_spliced(std::move(mid), "p = min(x); q = min(y);\n"),
            0u);
}

// Every class prints the same %.17g bits at -O0 (one allreduce per call)
// and -O2 (one per group), whatever the rank count and distribution: signed
// zeros, infinities, NaN, and vectors shorter than np, whose empty local
// parts contribute the class's identity.
TEST(OptCoalesce, SameBitsAtBothLevels) {
  const std::string src =
      "u = [-0.0, 1.5, -2.25];\n"
      "v = [Inf, -1, 3, -Inf];\n"
      "w = [NaN, 2, 4];\n"
      "e = [-0.0, -0.0];\n"
      "g = rand(1, 11) - 0.5;\n"
      "s1 = sum(u); s2 = mean(g); s3 = sum(e); s4 = mean(v); s5 = mean(w);\n"
      "m1 = min(v); m2 = min(w); m3 = min(e);\n"
      "x1 = max(w); x2 = max(u); x3 = max(v);\n"
      "p1 = prod(u); p2 = prod(v); p3 = prod(g);\n"
      "fprintf('%.17g %.17g %.17g %.17g %.17g\\n', s1, s2, s3, s4, s5);\n"
      "fprintf('%.17g %.17g %.17g\\n', m1, m2, m3);\n"
      "fprintf('%.17g %.17g %.17g\\n', x1, x2, x3);\n"
      "fprintf('%.17g %.17g %.17g\\n', p1, p2, p3);\n";
  auto c0 = compile_at(src, 0);
  auto c2 = compile_at(src, 2);
  EXPECT_EQ(c2->opt_report.coalesced, 10u) << dump_lir(c2->lir);
  for (rt::Dist dist : {rt::Dist::RowBlock, rt::Dist::Cyclic}) {
    driver::ExecOptions eo;
    eo.dist = dist;
    for (int np = 1; np <= 5; ++np) {
      auto ideal = mpi::profile_by_name("ideal");
      EXPECT_EQ(driver::run_parallel(c0->lir, ideal, np, eo).output,
                driver::run_parallel(c2->lir, ideal, np, eo).output)
          << "np=" << np << " cyclic=" << (dist == rt::Dist::Cyclic);
    }
  }
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
