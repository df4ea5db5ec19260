// Register-bytecode VM tests (src/vm): disassembly goldens for the compiled
// form, output identity with the interpreter over the fig2 application
// corpus at several rank counts (plus pinned comm-op counts), the
// inline-cache hit/miss/self-disable protocol, and checkpoint crash+resume
// bitwise identity.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "driver/pipeline.hpp"
#include "vm/bcgen.hpp"
#include "vm/vm.hpp"

namespace otter {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<driver::CompileResult> compile(const std::string& src,
                                               int level = 2) {
  driver::CompileOptions copts;  // the default pipeline: -O2
  copts.opt.level = level;
  auto c = driver::compile_script(src, {}, copts);
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  return c;
}

driver::ParallelRun run_vm(const lower::LProgram& lir, int np,
                           vm::VmStats* stats = nullptr) {
  driver::ExecOptions eo;
  eo.vm_stats = stats;
  return driver::run_parallel(lir, mpi::profile_by_name("ideal"), np, eo);
}

std::string dump_of(const std::string& src) {
  auto c = compile(src);
  vm::BcModule mod = vm::compile_bytecode(c->lir);
  return vm::dump_bytecode(mod);
}

// ---- bytecode goldens -------------------------------------------------------

// The exact compiled form of a scalar-only script: operand slots resolved to
// dense register numbers at compile time, a Boundary before every top-level
// statement past the first, no name lookups anywhere.
TEST(VmBytecode, GoldenScalarScript) {
  EXPECT_EQ(dump_of("x = 1;\ny = x + 2;\ndisp(y)\n"),
            "== script (sregs=4 mregs=0)\n"
            "  0000  ldimm     s1(x) 1\n"
            "  0001  boundary  stmt 1\n"
            "  0002  ldimm     s3 2\n"
            "  0003  bin       s2(y) <- s1(x) op0 s3\n"
            "  0004  boundary  stmt 2\n"
            "  0005  disp      s2(y)\n"
            "  0006  ret       \n");
}

// A fused element-wise chain compiles to one EwKern superinstruction wired
// to inline-cache slot 0; the reduction pipeline keeps its dedicated ops.
TEST(VmBytecode, GoldenFusedKernelScript) {
  EXPECT_EQ(dump_of("a = rand(4,4);\nb = a .* a + 1;\ndisp(sum(sum(b)))\n"),
            "== script (sregs=4 mregs=3)\n"
            "  0000  ldimm     s2 4\n"
            "  0001  ldimm     s3 4\n"
            "  0002  fillrand  m0(a) s2 s3\n"
            "  0003  boundary  stmt 1\n"
            "  0004  ewkern    m1(b) ops=5 mats=[m0(a)] cache=0\n"
            "  0005  boundary  stmt 2\n"
            "  0006  colwise   m2(ML_tmp1) m1(b) red0\n"
            "  0007  boundary  stmt 3\n"
            "  0008  reduce    s1(ML_tmp2) m2(ML_tmp1) red0\n"
            "  0009  boundary  stmt 4\n"
            "  0010  disp      s1(ML_tmp2)\n"
            "  0011  ret       \n");
}

// Control flow is jump-target-resolved at compile time: a counted loop
// becomes a ForPrep/ForNext pair whose exit pc is baked into the stream.
TEST(VmBytecode, LoopsAreJumpResolved) {
  std::string d = dump_of(
      "s = 0;\nfor i = 1:10\n  s = s + i;\nend\ndisp(s)\n");
  EXPECT_NE(d.find("forprep"), std::string::npos) << d;
  size_t next = d.find("fornext");
  ASSERT_NE(next, std::string::npos) << d;
  EXPECT_NE(d.find("exit=", next), std::string::npos) << d;
  // No unresolved label or name-lookup artifacts in the dump.
  EXPECT_EQ(d.find("label"), std::string::npos) << d;
}

// User functions compile to their own chunks, and calls carry pre-resolved
// argument/result register lists.
TEST(VmBytecode, FunctionsGetTheirOwnChunks) {
  driver::CompileOptions copts;
  auto c2 = driver::compile_script(
      "x = twice(3);\ndisp(x)\n",
      [](const std::string& name) -> std::optional<std::string> {
        if (name == "twice") return "function y = twice(v)\ny = v * 2;\n";
        return std::nullopt;
      },
      copts);
  ASSERT_TRUE(c2->ok) << c2->diags.to_string();
  vm::BcModule mod = vm::compile_bytecode(c2->lir);
  ASSERT_EQ(mod.functions.size(), 1u);
  std::string d = vm::dump_bytecode(mod);
  EXPECT_NE(d.find("== " + mod.functions[0].chunk.name), std::string::npos)
      << d;
  EXPECT_NE(d.find("call"), std::string::npos) << d;
}

// ---- fig2 corpus identity ---------------------------------------------------

class VmCorpus : public ::testing::TestWithParam<int> {};

// Total comm ops of each fig2 script on the default -O2 LIR and on the LIR
// as lowered (-O0) at np = 1, 2 and 4 (the ideal profile). Any change here
// is a change in what the program communicates, which must be deliberate.
// nbody's -O2 figures are 43 allreduces (4 ops each at np = 2, 12 at
// np = 4): reduction coalescing merges each step's two means, and the two
// pairs after the loop, into one allreduce apiece.
const std::map<std::string, std::array<uint64_t, 3>> kCorpusOps = {
    {"cg.m", {0, 324, 1308}},
    {"nbody.m", {0, 172, 516}},
    {"ocean.m", {0, 64, 264}},
    {"transclos.m", {0, 44, 240}},
};
// At -O0 nbody also re-reduces the loop-invariant sum(m) every step (no
// LICM): 124 allreduces. cg's 52 inner products x'*y run without the
// peephole pass: each is a vector transpose (a count-only alltoallv,
// 2p(p-1) ops), a matmul that allgathers both vectors (4p(p-1)) and a
// broadcast of the 1x1 result (2(p-1)) instead of one allreduce (4(p-1)),
// so 10 more ops each at np = 2 and 66 at np = 4.
const std::map<std::string, std::array<uint64_t, 3>> kCorpusOpsO0 = {
    {"cg.m", {0, 844, 4740}},
    {"nbody.m", {0, 496, 1488}},
    {"ocean.m", {0, 64, 264}},
    {"transclos.m", {0, 44, 240}},
};

// The paper's four applications must print exactly the interpreter's
// output at every rank count and opt level, with the pinned comm-op counts.
TEST_P(VmCorpus, TreeAndVmAreObservationallyIdentical) {
  const int np = GetParam();
  const size_t np_index = np == 1 ? 0 : np == 2 ? 1 : 2;
  std::vector<fs::path> scripts;
  for (const auto& e : fs::directory_iterator(OTTER_SCRIPTS_DIR)) {
    if (e.path().extension() == ".m") scripts.push_back(e.path());
  }
  ASSERT_FALSE(scripts.empty());
  std::sort(scripts.begin(), scripts.end());
  for (const fs::path& p : scripts) {
    std::ifstream in(p);
    ASSERT_TRUE(in) << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string expected = driver::run_interpreter(ss.str()).output;
    for (int level : {2, 0}) {
      auto c = compile(ss.str(), level);
      ASSERT_TRUE(c->ok) << p;
      auto vm = run_vm(c->lir, np);
      SCOPED_TRACE(p.filename().string() + " -O" + std::to_string(level) +
                   " np=" + std::to_string(np));
      EXPECT_EQ(vm.output, expected);
      const auto& table = level == 2 ? kCorpusOps : kCorpusOpsO0;
      auto ops = table.find(p.filename().string());
      ASSERT_NE(ops, table.end()) << "no pinned comm-op count";
      EXPECT_EQ(vm.times.total_ops(), ops->second[np_index]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, VmCorpus, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "P" + std::to_string(info.param);
                         });

// A runtime error carries the failing statement's line, its LIR op, the
// run-time library's message, and a stable code.
TEST(VmIdentity, ErrorsMatchTheTreeExecutor) {
  // The index is computed from matrix contents, so the bounds failure only
  // exists at run time.
  auto c = compile(
      "a = rand(3, 3);\ni = floor(a(1, 1) * 0) + 5;\ndisp(a(i, 1))\n");
  try {
    run_vm(c->lir, 1);
    FAIL() << "out-of-range index did not fail";
  } catch (const mpi::SpmdFailure& e) {
    EXPECT_EQ(e.first().what,
              "line 3 (get-elem): get_element: index out of range");
    EXPECT_EQ(e.first().code, "E5001");
  }
}

// norm(v) lowers to sqrt(dot(v, v)), so norm of a matrix fails in rt::dot,
// on the norm line and with E5001, at either opt level.
TEST(VmIdentity, NormOfAMatrixFailsCoded) {
  for (int level : {0, 2}) {
    auto c = compile("a = rand(3, 3);\nn = norm(a);\ndisp(n)\n", level);
    try {
      run_vm(c->lir, 2);
      FAIL() << "norm of a matrix did not fail at -O" << level;
    } catch (const mpi::SpmdFailure& e) {
      EXPECT_EQ(e.first().what,
                "line 2 (dot): dot: expected equal-length vectors");
      EXPECT_EQ(e.first().code, "E5001");
    }
  }
}

// The rand() stream is drawn as the interpreter draws it: a script whose
// output threads rand state through matrix fills and scalar draws agrees.
TEST(VmIdentity, RandStreamMatches) {
  const std::string src =
      "a = rand(5, 3);\nx = rand;\nb = rand(2, 7);\n"
      "disp(sum(sum(a)) + x * 1000 + sum(sum(b)))\n";
  auto c = compile(src);
  EXPECT_EQ(run_vm(c->lir, 2).output, driver::run_interpreter(src).output);
}

// ---- inline caches ----------------------------------------------------------

// A loop-resident kernel site over stable shapes misses once, then hits
// until it reaches kStableHits consecutive hits and self-disables its
// bookkeeping.
TEST(VmInlineCache, StableShapesHitThenSelfDisable) {
  auto c = compile(
      "a = rand(8, 8);\ns = 0;\n"
      "for i = 1:40\n  b = a .* a + i;\n  s = s + sum(sum(b));\nend\n"
      "disp(s)\n");
  vm::VmStats stats;
  run_vm(c->lir, 1, &stats);
  EXPECT_GE(stats.cache_misses.load(), 1u);
  // 40 iterations over one stable site: at least kStableHits counted hits
  // before the site froze its stats.
  EXPECT_GE(stats.cache_hits.load(), uint64_t{vm::kStableHits});
  EXPECT_GE(stats.cache_disabled.load(), 1u);
  EXPECT_GT(stats.instrs.load(), 0u);
}

// Shape churn re-arms the site every iteration: reassigning the input to a
// fresh matrix bumps its version, so the site keeps missing and never
// reaches the stable state.
TEST(VmInlineCache, ShapeChurnKeepsMissing) {
  auto c = compile(
      "s = 0;\n"
      "for i = 2:21\n  a = rand(i, i + 1);\n  b = a .* a;\n"
      "  s = s + sum(sum(b));\nend\ndisp(s)\n");
  vm::VmStats stats;
  run_vm(c->lir, 1, &stats);
  EXPECT_GE(stats.cache_misses.load(), 20u);
  EXPECT_EQ(stats.cache_disabled.load(), 0u);
}

// The stats plumbing aggregates across ranks, and a hit on one rank is a
// hit on every rank (the cache key is version-based, not pointer-based).
TEST(VmInlineCache, StatsAggregateAcrossRanks) {
  auto c = compile(
      "a = rand(8, 8);\ns = 0;\n"
      "for i = 1:10\n  b = a .* a;\n  s = s + sum(sum(b));\nend\ndisp(s)\n");
  vm::VmStats np1;
  run_vm(c->lir, 1, &np1);
  vm::VmStats np4;
  run_vm(c->lir, 4, &np4);
  EXPECT_EQ(np4.cache_hits.load(), np1.cache_hits.load() * 4);
  EXPECT_EQ(np4.cache_misses.load(), np1.cache_misses.load() * 4);
}

// ---- checkpoint crash+resume ------------------------------------------------

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "otter-vmckpt-XXXXXX");
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    path = ::mkdtemp(buf.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Many top-level statements (each a checkpoint candidate) threading rand
/// state, communication, and in-place kernel updates — the state a
/// checkpoint must capture bit-exactly.
std::string checkpointable_script() {
  std::ostringstream ss;
  ss << "A = rand(8, 8);\n"
        "b = rand(8, 1);\n"
        "x = zeros(8, 1);\n"
        "r = b;\n";
  for (int i = 0; i < 8; ++i) {
    ss << "q = A * r;\n"
          "alpha = sum(r .* r) / sum(r .* q);\n"
          "x = x + alpha .* r;\n"
          "r = r - alpha .* q;\n"
          "disp(sum(x));\n";
  }
  ss << "disp(sum(x .* x));\n";
  return ss.str();
}

// A run that crashes mid-flight and resumes from a checkpoint must
// reproduce the fault-free output bitwise — and that output must itself
// match the interpreter.
TEST(VmCheckpoint, CrashResumeIsBitwiseIdentical) {
  constexpr int kNp = 2;
  auto c = compile(checkpointable_script());
  auto ref = run_vm(c->lir, kNp);
  ASSERT_EQ(ref.output,
            driver::run_interpreter(checkpointable_script()).output);
  for (int crash_rank = 0; crash_rank < kNp; ++crash_rank) {
    uint64_t crash_op = ref.times.ops[static_cast<size_t>(crash_rank)] / 2;
    ASSERT_GT(crash_op, 0u);
    TempDir dir;
    driver::ExecOptions eo;
    eo.ckpt = {2, dir.path, false};
    eo.spmd.fault.crash_rank = crash_rank;
    eo.spmd.fault.crash_at_op = crash_op;
    driver::RetryOptions ropts;
    ropts.max_attempts = 3;
    auto rr = driver::run_with_retries(c->lir, mpi::profile_by_name("ideal"),
                                       kNp, eo, ropts);
    SCOPED_TRACE("crash_rank=" + std::to_string(crash_rank) + "@" +
                 std::to_string(crash_op));
    ASSERT_TRUE(rr.ok) << (rr.failures.empty() ? "" : rr.failures.back().what);
    EXPECT_TRUE(rr.run.resumed);
    EXPECT_GT(rr.run.resumed_statement, 0u);
    EXPECT_EQ(rr.run.output, ref.output);
  }
}

}  // namespace
}  // namespace otter
