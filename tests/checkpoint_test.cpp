// Checkpoint/restart tests: snapshot primitive + DMat round-trips for every
// layout, corrupt/truncated-file rejection with generation fallback, prune
// retention, and the differential recovery invariant — a run with injected
// crashes plus restore is bitwise-identical to a fault-free run, for every
// crashing rank and every checkpoint interval in the matrix.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "driver/checkpoint.hpp"
#include "driver/pipeline.hpp"
#include "rtlib/dmatrix.hpp"
#include "support/snapshot.hpp"

namespace otter {
namespace {

namespace fs = std::filesystem;
using driver::CheckpointCoordinator;
using driver::CheckpointOptions;
using rt::DMat;

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "otter-ckpt-XXXXXX");
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    path = ::mkdtemp(buf.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::vector<std::byte> rank_blob(int tag) {
  snap::Writer w;
  w.u32(static_cast<uint32_t>(tag));
  w.str("payload-" + std::to_string(tag));
  return w.take();
}

snap::CheckpointMeta meta_at(uint64_t gen, uint64_t stmt, uint32_t nranks) {
  snap::CheckpointMeta m;
  m.generation = gen;
  m.statement = stmt;
  m.nranks = nranks;
  m.interval = 4;
  return m;
}

std::unique_ptr<driver::CompileResult> compile(const std::string& src) {
  driver::CompileOptions copts;
  auto c = driver::compile_script(src, {}, copts);
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  return c;
}

/// Compile with the optimizer off, so runtime-error scripts are not
/// constant-folded into compile-time diagnostics.
std::unique_ptr<driver::CompileResult> compile_O0(const std::string& src) {
  auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  return c;
}

/// fig3-style workload: a steepest-descent iteration unrolled into many
/// top-level statements (each a quiescent checkpoint candidate) with
/// matvec communication and rand() state threading through. Shapes are
/// literal so inference proves every reduction operand is a vector.
std::string fig3_style_script(int iters) {
  std::ostringstream ss;
  ss << "A = rand(8, 8);\n"
        "b = rand(8, 1);\n"
        "x = zeros(8, 1);\n"
        "r = b;\n";
  for (int i = 0; i < iters; ++i) {
    ss << "q = A * r;\n"
          "alpha = sum(r .* r) / sum(r .* q);\n"
          "x = x + alpha .* r;\n"
          "r = r - alpha .* q;\n"
          "disp(sum(x));\n";
  }
  ss << "disp(sum(x .* x));\n"
        "disp(sqrt(sum(r .* r)));\n";
  return ss.str();
}

// -- snapshot primitives ------------------------------------------------------

TEST(SnapshotFormat, PrimitiveRoundTripIsBitExact) {
  snap::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-0.0);
  w.f64(std::nan(""));
  w.f64(5e-324);  // smallest denormal
  std::string with_null("null\0inside", 11);
  w.str(with_null);
  w.blob(rank_blob(7));

  snap::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.f64(), 5e-324);
  EXPECT_EQ(r.str(), with_null);
  EXPECT_EQ(r.blob(), rank_blob(7));
  EXPECT_TRUE(r.at_end());
}

TEST(SnapshotFormat, ReaderIsBoundsChecked) {
  snap::Writer w;
  w.u32(42);
  snap::Reader r(w.buffer());
  EXPECT_THROW(r.u64(), snap::SnapshotError);
  snap::Writer lying;
  lying.u64(1u << 20);  // claims a megabyte of string follows
  snap::Reader r2(lying.buffer());
  EXPECT_THROW(r2.str(), snap::SnapshotError);
}

TEST(SnapshotFormat, WriteThenLoadLatestRoundTrips) {
  TempDir dir;
  std::vector<std::vector<std::byte>> ranks = {rank_blob(0), rank_blob(1)};
  snap::write_checkpoint(dir.path, meta_at(3, 12, 2), ranks, "out so far\n");

  std::vector<std::string> warnings;
  auto ck = snap::load_latest(dir.path, &warnings);
  ASSERT_TRUE(ck.has_value());
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(ck->meta.generation, 3u);
  EXPECT_EQ(ck->meta.statement, 12u);
  EXPECT_EQ(ck->meta.nranks, 2u);
  EXPECT_EQ(ck->rank_state, ranks);
  EXPECT_EQ(ck->output_prefix, "out so far\n");
}

TEST(SnapshotFormat, EveryFlippedByteIsDetected) {
  TempDir dir;
  snap::write_checkpoint(dir.path, meta_at(1, 4, 2),
                         {rank_blob(0), rank_blob(1)}, "prefix");
  std::string file = dir.path + "/gen-1.ckpt";
  std::ifstream in(file, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // Flip every byte in turn: CRC or framing must reject each mutant (a
  // mutant that still parses must at least parse to the same content).
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutant = bytes;
    mutant[i] = static_cast<char>(mutant[i] ^ 0x40);
    std::string mpath = dir.path + "/mutant.bin";
    std::ofstream(mpath, std::ios::binary) << mutant;
    EXPECT_THROW(snap::read_checkpoint(mpath), snap::SnapshotError)
        << "byte " << i << " flip went undetected";
  }
}

TEST(SnapshotFormat, TruncationAtEveryPointIsDetected) {
  TempDir dir;
  snap::write_checkpoint(dir.path, meta_at(1, 4, 2),
                         {rank_blob(0), rank_blob(1)}, "prefix");
  std::ifstream in(dir.path + "/gen-1.ckpt", std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  for (size_t keep = 0; keep < bytes.size(); keep += 3) {
    std::string mpath = dir.path + "/trunc.bin";
    std::ofstream(mpath, std::ios::binary) << bytes.substr(0, keep);
    EXPECT_THROW(snap::read_checkpoint(mpath), snap::SnapshotError)
        << "truncation to " << keep << " bytes went undetected";
  }
}

TEST(SnapshotFormat, CorruptNewestFallsBackToPriorGeneration) {
  TempDir dir;
  snap::write_checkpoint(dir.path, meta_at(1, 4, 1), {rank_blob(1)}, "one");
  snap::write_checkpoint(dir.path, meta_at(2, 8, 1), {rank_blob(2)}, "two");
  {  // flip one payload byte in the newest generation
    std::fstream f(dir.path + "/gen-2.ckpt",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    f.put(static_cast<char>(0x5A));
  }
  std::vector<std::string> warnings;
  auto ck = snap::load_latest(dir.path, &warnings);
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->meta.generation, 1u);
  EXPECT_EQ(ck->output_prefix, "one");
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings[0].find("E5005"), std::string::npos) << warnings[0];
}

TEST(SnapshotFormat, TornManifestFallsBackToScan) {
  TempDir dir;
  snap::write_checkpoint(dir.path, meta_at(5, 20, 1), {rank_blob(5)}, "five");
  std::ofstream(dir.path + "/MANIFEST", std::ios::binary) << "otter-check";
  std::vector<std::string> warnings;
  auto ck = snap::load_latest(dir.path, &warnings);
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->meta.generation, 5u);
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings[0].find("E5005"), std::string::npos);
}

TEST(SnapshotFormat, MissingDirectoryIsJustEmpty) {
  std::vector<std::string> warnings;
  EXPECT_FALSE(
      snap::load_latest("/nonexistent/otter-ckpt-dir", &warnings).has_value());
  EXPECT_TRUE(warnings.empty());
}

TEST(SnapshotFormat, PruneKeepsNewestGenerationsWithinBudget) {
  TempDir dir;
  uint64_t per_file = 0;
  for (uint64_t g = 1; g <= 5; ++g) {
    std::string f =
        snap::write_checkpoint(dir.path, meta_at(g, g * 4, 1),
                               {rank_blob(static_cast<int>(g))}, "x");
    per_file = static_cast<uint64_t>(fs::file_size(f));
  }
  // Budget for ~2 files: the three oldest go, the newest two stay.
  uint64_t freed = snap::prune_checkpoints(dir.path, per_file * 2 + 1);
  EXPECT_GT(freed, 0u);
  EXPECT_FALSE(fs::exists(dir.path + "/gen-1.ckpt"));
  EXPECT_FALSE(fs::exists(dir.path + "/gen-2.ckpt"));
  EXPECT_FALSE(fs::exists(dir.path + "/gen-3.ckpt"));
  EXPECT_TRUE(fs::exists(dir.path + "/gen-4.ckpt"));
  EXPECT_TRUE(fs::exists(dir.path + "/gen-5.ckpt"));
  // The manifest still points at a live file.
  auto ck = snap::load_latest(dir.path, nullptr);
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->meta.generation, 5u);
  // Even an absurdly small budget never deletes the newest two.
  snap::prune_checkpoints(dir.path, 1);
  EXPECT_TRUE(fs::exists(dir.path + "/gen-4.ckpt"));
  EXPECT_TRUE(fs::exists(dir.path + "/gen-5.ckpt"));
}

// -- DMat serialization -------------------------------------------------------

void roundtrip_dmat(mpi::Comm& comm, const DMat& m) {
  snap::Writer w;
  m.save_snapshot(w);
  snap::Reader r(w.buffer());
  DMat back = DMat::load_snapshot(r, comm.rank());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.cols(), m.cols());
  EXPECT_TRUE(back.layout() == m.layout());
  ASSERT_EQ(back.local_elements(), m.local_elements());
  auto a = m.local();
  auto b = back.local();
  for (size_t i = 0; i < a.size(); ++i) {
    // Bitwise comparison — the recovery invariant is bit-exactness.
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0) << "element " << i;
  }
}

TEST(DMatSnapshot, RoundTripEveryLayoutAndRankCount) {
  for (int np : {1, 2, 3}) {
    mpi::run_spmd(mpi::profile_by_name("ideal"), np, [&](mpi::Comm& comm) {
      for (rt::Dist dist : {rt::Dist::RowBlock, rt::Dist::Cyclic}) {
        roundtrip_dmat(comm, rt::fill_rand(comm, 7, 5, 42, 0, dist));  // matrix
        roundtrip_dmat(comm, rt::fill_rand(comm, 9, 1, 42, 35, dist));  // col
        roundtrip_dmat(comm, rt::fill_rand(comm, 1, 6, 42, 44, dist));  // row
        roundtrip_dmat(comm, rt::fill_value(comm, 1, 1, -3.25, dist));  // 1x1
        roundtrip_dmat(comm, rt::fill_zeros(comm, 0, 0, dist));  // empty
      }
    });
  }
}

TEST(DMatSnapshot, PayloadLayoutMismatchRejected) {
  mpi::run_spmd(mpi::profile_by_name("ideal"), 2, [&](mpi::Comm& comm) {
    snap::Writer w;
    rt::fill_ones(comm, 6, 6).save_snapshot(w);
    snap::Reader r(w.buffer());
    // Restoring rank 1's blob as rank 0 must fail the layout count check
    // (6 rows over 2 ranks split 3/3, but a corrupt blob could disagree).
    snap::Writer bad;
    bad.u64(6);  // rows
    bad.u64(6);  // cols
    bad.u64(6);  // layout n
    bad.u32(2);  // p
    bad.u8(0);   // RowBlock
    bad.u64(1);  // claims one local element — expectation is 18
    bad.f64(1.0);
    snap::Reader rb(bad.buffer());
    EXPECT_THROW(DMat::load_snapshot(rb, comm.rank()), snap::SnapshotError);
  });
}

// -- coordinator --------------------------------------------------------------

TEST(Coordinator, RankCountMismatchStartsFresh) {
  TempDir dir;
  snap::write_checkpoint(dir.path, meta_at(1, 4, 3),
                         {rank_blob(0), rank_blob(1), rank_blob(2)}, "x");
  CheckpointOptions opts{4, dir.path, true};
  CheckpointCoordinator co(opts, 2, [] { return std::string(); });
  EXPECT_FALSE(co.load());
  EXPECT_FALSE(co.resumed());
  auto warnings = co.take_warnings();
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings[0].find("E5005"), std::string::npos);
}

// -- end-to-end recovery ------------------------------------------------------

driver::ParallelRun run_plain(const lower::LProgram& lir, int np) {
  return driver::run_parallel(lir, mpi::profile_by_name("ideal"), np, {});
}

TEST(CheckpointRecovery, CheckpointedRunMatchesPlainRun) {
  auto c = compile(fig3_style_script(6));
  auto ref = run_plain(c->lir, 2);
  TempDir dir;
  driver::ExecOptions eo;
  eo.ckpt = {2, dir.path, false};
  auto ck = driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), 2, eo);
  EXPECT_EQ(ck.output, ref.output);
  EXPECT_GT(ck.checkpoints_written, 5u);
  EXPECT_FALSE(ck.resumed);
  EXPECT_TRUE(ck.warnings.empty()) << ck.warnings[0];
  // The checkpoint barriers add comm ops, deterministically.
  EXPECT_GT(ck.times.total_ops(), ref.times.total_ops());
}

TEST(CheckpointRecovery, ResumeOnEmptyDirectoryStartsFresh) {
  auto c = compile(fig3_style_script(3));
  auto ref = run_plain(c->lir, 2);
  TempDir dir;
  driver::ExecOptions eo;
  eo.ckpt = {4, dir.path, true};  // resume requested, nothing there
  auto run = driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), 2, eo);
  EXPECT_FALSE(run.resumed);
  EXPECT_EQ(run.output, ref.output);
}

// The acceptance criterion: crash-at-each-rank × crash-at-each-interval,
// recovery must reproduce the fault-free output bitwise.
TEST(CheckpointRecovery, CrashMatrixRecoversBitwiseIdentical) {
  constexpr int kNp = 2;
  auto c = compile(fig3_style_script(8));
  auto ref = run_plain(c->lir, kNp);
  for (uint32_t interval : {1u, 2u, 4u}) {
    for (int crash_rank = 0; crash_rank < kNp; ++crash_rank) {
      // Crash mid-run, by that rank's own fault-free op count. The
      // checkpointed run has *more* ops (barriers), so this op index lands
      // strictly inside the run and after at least one checkpoint.
      uint64_t crash_op = ref.times.ops[static_cast<size_t>(crash_rank)] / 2;
      ASSERT_GT(crash_op, 0u);
      TempDir dir;
      driver::ExecOptions eo;
      eo.ckpt = {interval, dir.path, false};
      eo.spmd.fault.crash_rank = crash_rank;
      eo.spmd.fault.crash_at_op = crash_op;
      driver::RetryOptions ropts;
      ropts.max_attempts = 3;
      auto rr = driver::run_with_retries(c->lir, mpi::profile_by_name("ideal"),
                                         kNp, eo, ropts);
      SCOPED_TRACE("interval=" + std::to_string(interval) + " crash_rank=" +
                   std::to_string(crash_rank) + "@" + std::to_string(crash_op));
      ASSERT_TRUE(rr.ok) << (rr.failures.empty() ? "" : rr.failures.back().what);
      EXPECT_EQ(rr.attempts, 2);
      EXPECT_TRUE(rr.run.resumed);
      EXPECT_GT(rr.run.resumed_statement, 0u);
      EXPECT_EQ(rr.run.output, ref.output);  // the differential invariant
      EXPECT_FALSE(rr.non_retryable);
    }
  }
}

// Coalesced reductions at the top level: each group is one statement with
// its own boundary, and a crash at any comm op around one (checkpointing
// every statement) resumes to the fault-free output.
TEST(CheckpointRecovery, CrashAroundTopLevelGroupResumesBitwise) {
  constexpr int kNp = 2;
  auto c = compile(
      "x = rand(9, 1); y = rand(9, 1);\n"
      "a = mean(x); b = mean(y);\n"
      "x = x + a; y = y - b;\n"
      "c = sum(x); d = sum(y); e = sum(x .* y);\n"
      "fprintf('%.17g %.17g %.17g %.17g %.17g\\n', a, b, c, d, e);\n");
  ASSERT_GE(c->opt_report.coalesced, 2u);
  size_t groups = 0;
  for (const lower::LInstrPtr& in : c->lir.script) {
    groups += in->op == lower::LOp::ReduceGroup ? 1 : 0;
  }
  ASSERT_EQ(groups, 2u) << lower::dump_lir(c->lir);
  auto ref = run_plain(c->lir, kNp);
  for (int crash_rank = 0; crash_rank < kNp; ++crash_rank) {
    for (uint64_t crash_op = 1;
         crash_op <= ref.times.ops[static_cast<size_t>(crash_rank)];
         ++crash_op) {
      TempDir dir;
      driver::ExecOptions eo;
      eo.ckpt = {1, dir.path, false};
      eo.spmd.fault.crash_rank = crash_rank;
      eo.spmd.fault.crash_at_op = crash_op;
      driver::RetryOptions ropts;
      ropts.max_attempts = 3;
      auto rr = driver::run_with_retries(c->lir, mpi::profile_by_name("ideal"),
                                         kNp, eo, ropts);
      SCOPED_TRACE("crash_rank=" + std::to_string(crash_rank) + "@" +
                   std::to_string(crash_op));
      ASSERT_TRUE(rr.ok) << (rr.failures.empty() ? "" : rr.failures.back().what);
      EXPECT_EQ(rr.attempts, 2);
      EXPECT_EQ(rr.run.output, ref.output);
    }
  }
}

TEST(CheckpointRecovery, CorruptNewestCheckpointFallsBackAndStillRecovers) {
  constexpr int kNp = 2;
  auto c = compile(fig3_style_script(8));
  auto ref = run_plain(c->lir, kNp);
  TempDir dir;
  // Crash a checkpointed run late so several generations exist.
  driver::ExecOptions eo;
  eo.ckpt = {2, dir.path, false};
  eo.spmd.fault.crash_rank = 1;
  eo.spmd.fault.crash_at_op = (ref.times.ops[1] * 3) / 4;
  EXPECT_THROW(
      driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), kNp, eo),
      mpi::SpmdFailure);
  // Corrupt the newest generation the crashed run left behind.
  auto newest = snap::load_latest(dir.path, nullptr);
  ASSERT_TRUE(newest.has_value());
  ASSERT_GT(newest->meta.generation, 1u);
  {
    std::fstream f(newest->file,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(fs::file_size(newest->file) / 2));
    f.put('\x7F');
  }
  // Resume without faults: the ladder must reject the corrupt newest
  // generation (E5005 warning, not a failure) and recover from the prior
  // one, still reproducing the fault-free output exactly.
  driver::ExecOptions resume_eo;
  resume_eo.ckpt = {2, dir.path, true};
  auto run =
      driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), kNp, resume_eo);
  EXPECT_TRUE(run.resumed);
  EXPECT_EQ(run.output, ref.output);
  ASSERT_FALSE(run.warnings.empty());
  EXPECT_NE(run.warnings[0].find("E5005"), std::string::npos);
}

TEST(CheckpointRecovery, GenerationNumberingContinuesAcrossResume) {
  auto c = compile(fig3_style_script(8));
  auto ref = run_plain(c->lir, 2);
  TempDir dir;
  driver::ExecOptions eo;
  eo.ckpt = {2, dir.path, false};
  eo.spmd.fault.crash_rank = 0;
  eo.spmd.fault.crash_at_op = ref.times.ops[0] / 2;
  EXPECT_THROW(
      driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), 2, eo),
      mpi::SpmdFailure);
  auto before = snap::load_latest(dir.path, nullptr);
  ASSERT_TRUE(before.has_value());
  driver::ExecOptions resume_eo;
  resume_eo.ckpt = {2, dir.path, true};
  auto run =
      driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), 2, resume_eo);
  EXPECT_EQ(run.output, ref.output);
  auto after = snap::load_latest(dir.path, nullptr);
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(after->meta.generation, before->meta.generation);
  EXPECT_GT(after->meta.statement, before->meta.statement);
}

// -- retry policy (non-retryable short-circuit) -------------------------------

TEST(RetryPolicy, DeterministicRuntimeErrorShortCircuits) {
  // Out-of-range element read: an RtError that recurs on every attempt.
  // The index is computed (not a literal) so it reaches the runtime check.
  auto c =
      compile_O0("a = ones(2, 2);\ni = sum(ones(5, 1));\nx = a(i, 1);\n");
  driver::RetryOptions ropts;
  ropts.max_attempts = 4;
  auto rr = driver::run_with_retries(c->lir, mpi::profile_by_name("ideal"), 2,
                                     {}, ropts);
  EXPECT_FALSE(rr.ok);
  EXPECT_EQ(rr.attempts, 1);  // no retries were burned
  EXPECT_TRUE(rr.non_retryable);
  ASSERT_EQ(rr.failures.size(), 1u);
  EXPECT_FALSE(rr.failures[0].code.empty());
  EXPECT_EQ(rr.backoff_vtime, 0.0);
}

TEST(RetryPolicy, CancelledRunIsNotRetried) {
  auto c = compile(fig3_style_script(4));
  std::atomic<bool> cancel{true};
  driver::ExecOptions eo;
  eo.spmd.cancel = &cancel;
  driver::RetryOptions ropts;
  ropts.max_attempts = 4;
  auto rr = driver::run_with_retries(c->lir, mpi::profile_by_name("ideal"), 2,
                                     eo, ropts);
  EXPECT_FALSE(rr.ok);
  EXPECT_EQ(rr.attempts, 1);
  EXPECT_TRUE(rr.non_retryable);
  ASSERT_FALSE(rr.failures.empty());
}

TEST(RetryPolicy, InjectedCrashWithoutCheckpointsStaysRetryable) {
  auto c = compile(fig3_style_script(4));
  driver::ExecOptions eo;
  eo.spmd.fault.crash_rank = 0;
  eo.spmd.fault.crash_at_op = 1;  // fires on every attempt; no checkpoints
  driver::RetryOptions ropts;
  ropts.max_attempts = 3;
  auto rr = driver::run_with_retries(c->lir, mpi::profile_by_name("ideal"), 2,
                                     eo, ropts);
  EXPECT_FALSE(rr.ok);
  EXPECT_EQ(rr.attempts, 3);  // all attempts spent — the fault is "transient"
  EXPECT_FALSE(rr.non_retryable);
}

TEST(RetryPolicy, RankFailureCarriesDiagCode) {
  auto c =
      compile_O0("a = ones(2, 2);\ni = sum(ones(7, 1));\nx = a(1, i);\n");
  try {
    driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), 2, {});
    FAIL() << "expected SpmdFailure";
  } catch (const mpi::SpmdFailure& e) {
    EXPECT_EQ(e.first().code, "E5001");
  }
}

}  // namespace
}  // namespace otter
