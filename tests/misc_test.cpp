// Tests for the supporting substrates: the deterministic RNG's skip-ahead,
// matrix data files (the paper's sample-data-file mechanism), the `load`
// builtin end to end, diagnostics rendering, and direct-executor specifics.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "driver/pipeline.hpp"
#include "support/matio.hpp"
#include "support/rng.hpp"

namespace otter {
namespace {

// -- RNG ------------------------------------------------------------------------

TEST(Rng, DiscardMatchesStepping) {
  // Property: discard(n) == n calls to next(), for many n.
  for (uint64_t n : {0ULL, 1ULL, 2ULL, 7ULL, 64ULL, 1000ULL, 123457ULL}) {
    Lcg a(99);
    for (uint64_t i = 0; i < n; ++i) a.next();
    Lcg b(99);
    b.discard(n);
    EXPECT_DOUBLE_EQ(a.next(), b.next()) << "n=" << n;
  }
}

TEST(Rng, ValueAtIndexesSequence) {
  Lcg g(5);
  std::vector<double> seq;
  for (int i = 0; i < 20; ++i) seq.push_back(g.next());
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(Lcg::value_at(5, i), seq[i]) << "i=" << i;
  }
}

TEST(Rng, ValuesInUnitInterval) {
  Lcg g(1);
  for (int i = 0; i < 10000; ++i) {
    double v = g.next();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  EXPECT_NE(Lcg(1).next(), Lcg(2).next());
}

// -- matrix files -----------------------------------------------------------------

class MatIo : public ::testing::Test {
 protected:
  std::string path_ = "/tmp/otter_matio_test.dat";
  void TearDown() override { std::remove(path_.c_str()); }

  void write(const std::string& text) {
    std::ofstream out(path_);
    out << text;
  }
};

TEST_F(MatIo, RoundTrip) {
  std::vector<double> data = {1, 2.5, 3, -4, 5e3, 0.001};
  ASSERT_TRUE(write_mat_file(path_, 2, 3, data));
  auto mf = read_mat_file(path_);
  ASSERT_TRUE(mf.has_value());
  EXPECT_EQ(mf->rows, 2u);
  EXPECT_EQ(mf->cols, 3u);
  EXPECT_EQ(mf->data, data);
  EXPECT_FALSE(mf->all_integer);
}

TEST_F(MatIo, IntegerDetection) {
  write("1 2 3\n4 5 6\n");
  auto mf = read_mat_file(path_);
  ASSERT_TRUE(mf.has_value());
  EXPECT_TRUE(mf->all_integer);
}

TEST_F(MatIo, CommentsAndBlankLinesIgnored) {
  write("% a comment\n\n1 2\n% another\n3 4\n\n");
  auto mf = read_mat_file(path_);
  ASSERT_TRUE(mf.has_value());
  EXPECT_EQ(mf->rows, 2u);
  EXPECT_EQ(mf->cols, 2u);
}

TEST_F(MatIo, RaggedRowsRejected) {
  write("1 2 3\n4 5\n");
  std::string err;
  EXPECT_FALSE(read_mat_file(path_, &err).has_value());
  EXPECT_NE(err.find("ragged"), std::string::npos);
}

TEST_F(MatIo, MalformedNumberRejected) {
  write("1 two 3\n");
  EXPECT_FALSE(read_mat_file(path_).has_value());
}

TEST_F(MatIo, MissingFileRejected) {
  std::string err;
  EXPECT_FALSE(read_mat_file("/nonexistent/x.dat", &err).has_value());
  EXPECT_FALSE(err.empty());
}

// -- load builtin end to end ---------------------------------------------------------

class LoadBuiltin : public ::testing::Test {
 protected:
  std::string path_ = "/tmp/otter_load_test.dat";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(LoadBuiltin, InterpreterLoads) {
  write_mat_file(path_, 2, 2, {1, 2, 3, 4});
  auto run = driver::run_interpreter("m = load('" + path_ + "'); disp(sum(sum(m)));");
  EXPECT_EQ(run.output, "10\n");
}

TEST_F(LoadBuiltin, CompilerInfersShapeFromSampleFile) {
  // Paper pass 3: type and rank come from the sample data file.
  write_mat_file(path_, 3, 4, std::vector<double>(12, 1.0));
  auto c = driver::compile_script("m = load('" + path_ + "');\n"
                                  "v = sum(m);\ndisp(sum(v));",
                                  {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  // sum(m) of a known 3x4 must have been inferred as a row vector: the
  // second sum reduces it to a scalar and compiles cleanly.
}

TEST_F(LoadBuiltin, MissingSampleFileIsCompileError) {
  auto c = driver::compile_script("m = load('/nonexistent/q.dat'); disp(m);",
                                  {}, {.opt = {.level = 0}});
  EXPECT_FALSE(c->ok);
  EXPECT_NE(c->diags.to_string().find("sample data file"), std::string::npos);
}

TEST_F(LoadBuiltin, DistributedLoadMatchesInterpreter) {
  std::vector<double> data(5 * 7);
  for (size_t i = 0; i < data.size(); ++i) data[i] = 0.5 * static_cast<double>(i);
  write_mat_file(path_, 5, 7, data);
  std::string src = "m = load('" + path_ + "');\ndisp(m);\n"
                    "fprintf('%g\\n', sum(sum(m)));";
  auto expected = driver::run_interpreter(src);
  auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  for (int p : {1, 3, 8}) {
    auto run = driver::run_parallel(c->lir, mpi::ideal(8), p);
    EXPECT_EQ(run.output, expected.output) << "P=" << p;
  }
}

// -- executor specifics ----------------------------------------------------------------

TEST(Exec, RandSequenceSharedBetweenScalarAndMatrixDraws) {
  // rand scalars and rand matrices consume one global sequence, matching
  // the interpreter exactly.
  std::string src = "a = rand;\nm = rand(2, 3);\nb = rand;\n"
                    "fprintf('%.15f %.15f %.15f\\n', a, b, sum(sum(m)));";
  auto expected = driver::run_interpreter(src);
  auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok);
  auto run = driver::run_parallel(c->lir, mpi::ideal(8), 4);
  EXPECT_EQ(run.output, expected.output);
}

TEST(Exec, SeedOptionChangesData) {
  std::string src = "fprintf('%.15f\\n', rand);";
  auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok);
  driver::ExecOptions s1;
  s1.rand_seed = 1;
  driver::ExecOptions s2;
  s2.rand_seed = 2;
  auto r1 = driver::run_parallel(c->lir, mpi::ideal(4), 2, s1);
  auto r2 = driver::run_parallel(c->lir, mpi::ideal(4), 2, s2);
  EXPECT_NE(r1.output, r2.output);
}

TEST(Exec, RuntimeErrorsPropagateFromRanks) {
  std::string src = "v = 1:4;\nx = v(9);\ndisp(x);";
  auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  try {
    driver::run_parallel(c->lir, mpi::ideal(4), 3);
    FAIL() << "expected SpmdFailure";
  } catch (const mpi::SpmdFailure& e) {
    EXPECT_GE(e.primary_count(), 1u);
    // The aggregate names the failing rank; the wrapped RtError carries the
    // failing statement.
    EXPECT_NE(std::string(e.what()).find("rank "), std::string::npos)
        << e.what();
    EXPECT_NE(e.first().what.find("line 2"), std::string::npos) << e.what();
  }
}

TEST(Exec, VirtualTimesGrowWithModelledLatency) {
  // The same program on a slower network must take more virtual time.
  std::string src = "s = 0;\nfor k = 1:20\n v = rand(1, 64);\n s = s + "
                    "sum(v);\nend\nfprintf('%.4f\\n', s);";
  auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok);
  mpi::MachineProfile fast = mpi::ideal(8);
  mpi::MachineProfile slow = mpi::ideal(8);
  slow.intra_latency = slow.inter_latency = 1e-3;
  auto rf = driver::run_parallel(c->lir, fast, 4);
  auto rs = driver::run_parallel(c->lir, slow, 4);
  EXPECT_EQ(rf.output, rs.output);
  EXPECT_GT(rs.times.max_vtime(), rf.times.max_vtime());
}

// -- diagnostics -----------------------------------------------------------------------

TEST(Diag, RendersLocationAndSnippet) {
  SourceManager sm;
  uint32_t f = sm.add_buffer("demo.m", "x = 1;\ny = oops + 1;\n");
  DiagEngine diags(&sm);
  diags.error({f, 2, 5}, "undefined variable 'oops'");
  std::string out = diags.to_string();
  EXPECT_NE(out.find("demo.m:2:5"), std::string::npos);
  EXPECT_NE(out.find("y = oops + 1;"), std::string::npos);
  EXPECT_NE(out.find("^"), std::string::npos);
}

TEST(Diag, CountsOnlyErrors) {
  DiagEngine diags;
  diags.warning({}, "w");
  diags.note({}, "n");
  EXPECT_FALSE(diags.has_errors());
  diags.error({}, "e");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 1u);
}

}  // namespace
}  // namespace otter
