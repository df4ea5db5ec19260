// Failure-path tests for the fault-tolerant SPMD runtime: abort propagation,
// the deadlock watchdog, deterministic fault injection, collective argument
// validation, and driver-level retries. Every test here must terminate on
// its own — a hang is the regression these paths exist to prevent.
#include "minimpi/comm.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>

#include "driver/pipeline.hpp"

namespace otter::mpi {
namespace {

// -- failure propagation ------------------------------------------------------

TEST(FaultPropagation, RankCrashMidCollectiveCompletes) {
  // Acceptance scenario: rank 2 of 8 throws mid-collective. Peers blocked in
  // the allreduce tree must be woken and torn down, not left hanging.
  try {
    run_spmd(ideal(8), 8, [](Comm& c) {
      c.barrier();
      if (c.rank() == 2) throw std::runtime_error("rank 2 exploded");
      (void)c.allreduce_scalar(1.0, Comm::ReduceOp::Sum);
    });
    FAIL() << "expected SpmdFailure";
  } catch (const SpmdFailure& e) {
    EXPECT_EQ(e.primary_count(), 1u);
    EXPECT_EQ(e.first().rank, 2);
    EXPECT_TRUE(e.first().primary);
    EXPECT_NE(e.first().what.find("rank 2 exploded"), std::string::npos);
    // At least one peer was blocked in the collective and aborted in
    // sympathy, with the poison message naming the origin.
    ASSERT_GT(e.failures().size(), 1u);
    bool saw_secondary = false;
    for (const RankFailure& f : e.failures()) {
      if (f.primary) continue;
      saw_secondary = true;
      EXPECT_NE(f.what.find("aborted: rank 2 failed"), std::string::npos);
    }
    EXPECT_TRUE(saw_secondary);
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos);
  }
}

TEST(FaultPropagation, PostAbortCommunicationThrows) {
  // A rank that is busy computing when the network is poisoned must fail at
  // its *next* communication op instead of talking to a dead run.
  try {
    run_spmd(ideal(4), 4, [](Comm& c) {
      if (c.rank() == 0) throw std::runtime_error("early death");
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      c.send_scalar((c.rank() + 1) % 4, 1, 1.0);  // post-abort: must throw
      FAIL() << "send on a poisoned network returned";
    });
    FAIL() << "expected SpmdFailure";
  } catch (const SpmdFailure& e) {
    EXPECT_EQ(e.primary_count(), 1u);
    EXPECT_EQ(e.failures().size(), 4u);
  }
}

TEST(FaultPropagation, CleanRanksDoNotAppearInFailure) {
  // Ranks that finish before the failure are not part of the report.
  try {
    run_spmd(ideal(3), 3, [](Comm& c) {
      if (c.rank() == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::runtime_error("late failure");
      }
    });
    FAIL() << "expected SpmdFailure";
  } catch (const SpmdFailure& e) {
    EXPECT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.first().rank, 1);
  }
}

// -- deadlock watchdog --------------------------------------------------------

TEST(Watchdog, DiagnosesRecvRing) {
  // Acceptance scenario: a ring of mutual recvs nobody feeds. Detection is
  // structural (all live ranks blocked, nothing deliverable), not timed, so
  // this finishes in milliseconds.
  constexpr int kP = 4;
  try {
    run_spmd(ideal(kP), kP, [](Comm& c) {
      (void)c.recv_scalar((c.rank() + 1) % kP, 77);
    });
    FAIL() << "expected SpmdFailure";
  } catch (const SpmdFailure& e) {
    EXPECT_EQ(e.primary_count(), 0u);  // nobody failed on their own
    EXPECT_EQ(e.failures().size(), static_cast<size_t>(kP));
    std::string what = e.what();
    EXPECT_NE(what.find("deadlock detected"), std::string::npos) << what;
    EXPECT_NE(what.find("wait-for graph"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0 waits on rank 1 (tag 77)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 3 waits on rank 0 (tag 77)"), std::string::npos)
        << what;
  }
}

TEST(Watchdog, DiagnosesWaitOnExitedRank) {
  // Rank 1 waits for a message rank 0 never sent; rank 0 exits. The ring
  // has collapsed to one blocked rank — still a deadlock.
  try {
    run_spmd(ideal(2), 2, [](Comm& c) {
      if (c.rank() == 1) (void)c.recv_scalar(0, 5);
    });
    FAIL() << "expected SpmdFailure";
  } catch (const SpmdFailure& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("deadlock detected"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1 waits on rank 0 (tag 5)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("already exited"), std::string::npos) << what;
  }
}

TEST(Watchdog, BackstopDeadlineFiresOnWedgedRun) {
  // Rank 0 is stuck in "compute" (a host sleep), so the structural deadlock
  // check cannot fire — the wall-clock backstop must.
  SpmdOptions opts;
  opts.watchdog_timeout = 0.2;
  auto t0 = std::chrono::steady_clock::now();
  try {
    run_spmd(
        ideal(2), 2,
        [](Comm& c) {
          if (c.rank() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(800));
            c.send_scalar(1, 3, 1.0);  // poisoned by then: throws
          } else {
            (void)c.recv_scalar(0, 3);
          }
        },
        opts);
    FAIL() << "expected SpmdFailure";
  } catch (const SpmdFailure& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_EQ(e.primary_count(), 0u);
  }
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0).count();
  EXPECT_LT(secs, 10.0);  // bounded by the sleep + deadline, not forever
}

// -- deterministic fault injection --------------------------------------------

SpmdOptions plan(const std::string& spec) {
  SpmdOptions o;
  o.fault = FaultPlan::parse(spec);
  return o;
}

TEST(FaultInjection, PlanParseRoundTrip) {
  FaultPlan p = FaultPlan::parse(
      "seed=42,drop=0.1,dup=0.05,corrupt=0.01,delay=0.2,delay-secs=0.005,"
      "crash=2@7");
  EXPECT_EQ(p.seed, 42u);
  EXPECT_DOUBLE_EQ(p.drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(p.duplicate_prob, 0.05);
  EXPECT_DOUBLE_EQ(p.corrupt_prob, 0.01);
  EXPECT_DOUBLE_EQ(p.delay_prob, 0.2);
  EXPECT_DOUBLE_EQ(p.delay_seconds, 0.005);
  EXPECT_EQ(p.crash_rank, 2);
  EXPECT_EQ(p.crash_at_op, 7u);
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(FaultPlan::parse(p.describe()).describe(), p.describe());
  EXPECT_FALSE(FaultPlan{}.enabled());
  EXPECT_THROW(FaultPlan::parse("drop=2.0"), MpiError);
  EXPECT_THROW(FaultPlan::parse("bogus=1"), MpiError);
  EXPECT_THROW(FaultPlan::parse("crash=-1"), MpiError);
}

TEST(FaultInjection, MalformedPlanIsACodedEagerError) {
  // Every malformed spec is a FaultPlanError carrying the stable E0013
  // code, so otterc can reject it before spawning ranks and otterd can
  // map it to a structured response.
  for (const char* spec : {"crash=zz", "crash=1@", "crash=1@x", "crash=1@0",
                           "crash=", "seed=abc", "seed=", "seed=-3",
                           "drop=nope", "drop=", "=0.5", "crash=1@2@3"}) {
    try {
      FaultPlan::parse(spec);
      FAIL() << "accepted malformed spec: " << spec;
    } catch (const FaultPlanError& e) {
      EXPECT_STREQ(e.diag_code(), "E0013") << spec;
      EXPECT_NE(std::string(e.what()).find("malformed fault plan"),
                std::string::npos)
          << spec;
    }
  }
  // Well-formed specs still parse (no over-rejection).
  EXPECT_NO_THROW(FaultPlan::parse("seed=7,crash=0@1"));
  EXPECT_NO_THROW(FaultPlan::parse("crash=3"));
  EXPECT_NO_THROW(FaultPlan::parse(""));
}

TEST(FaultInjection, DroppedMessageIsDiagnosedDeterministically) {
  auto once = [] {
    try {
      run_spmd(
          ideal(2), 2,
          [](Comm& c) {
            if (c.rank() == 0) {
              c.send_scalar(1, 9, 42.0);  // eaten by the network
            } else {
              (void)c.recv_scalar(0, 9);
            }
          },
          plan("seed=3,drop=1.0"));
      return std::string("no failure");
    } catch (const SpmdFailure& e) {
      return std::string(e.what());
    }
  };
  std::string first = once();
  EXPECT_NE(first.find("deadlock detected"), std::string::npos) << first;
  EXPECT_EQ(first, once());  // same seed, bit-identical diagnosis
}

TEST(FaultInjection, CorruptionIsDeterministic) {
  auto once = [] {
    std::vector<double> got(4, 0.0);
    run_spmd(
        ideal(2), 2,
        [&](Comm& c) {
          std::vector<double> data = {1.0, 2.0, 3.0, 4.0};
          if (c.rank() == 0) {
            c.send(1, 1, data.data(), data.size() * sizeof(double));
          } else {
            c.recv(0, 1, got.data(), got.size() * sizeof(double));
          }
        },
        plan("seed=11,corrupt=1.0"));
    return got;
  };
  std::vector<double> a = once();
  EXPECT_NE(a, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));  // a byte flipped
  EXPECT_EQ(a, once());  // the *same* byte every run
}

TEST(FaultInjection, DuplicateDeliversTwice) {
  run_spmd(
      ideal(2), 2,
      [](Comm& c) {
        if (c.rank() == 0) {
          c.send_scalar(1, 4, 7.0);
        } else {
          // The duplicated payload satisfies two receives of the same
          // (src, tag) — an injected at-least-once delivery.
          EXPECT_DOUBLE_EQ(c.recv_scalar(0, 4), 7.0);
          EXPECT_DOUBLE_EQ(c.recv_scalar(0, 4), 7.0);
        }
      },
      plan("seed=5,dup=1.0"));
}

TEST(FaultInjection, DelayAddsVirtualTime) {
  RunResult r = run_spmd(
      ideal(2), 2,
      [](Comm& c) {
        if (c.rank() == 0) {
          c.send_scalar(1, 2, 1.0);
        } else {
          (void)c.recv_scalar(0, 2);
        }
        c.finish();
      },
      plan("seed=1,delay=1.0,delay-secs=0.25"));
  EXPECT_GE(r.vtimes[1], 0.25);  // receiver waited out the injected delay
  EXPECT_LT(r.vtimes[0], 0.25);  // sender unaffected
}

TEST(FaultInjection, CrashAtKthOpNamesRankAndOp) {
  try {
    run_spmd(
        ideal(3), 3,
        [](Comm& c) {
          for (int i = 0; i < 4; ++i) c.barrier();
        },
        plan("seed=1,crash=1@3"));
    FAIL() << "expected SpmdFailure";
  } catch (const SpmdFailure& e) {
    EXPECT_EQ(e.primary_count(), 1u);
    EXPECT_EQ(e.first().rank, 1);
    EXPECT_NE(e.first().what.find("crashed at communication op 3"),
              std::string::npos)
        << e.first().what;
    // The crashed op never completed: two ops were.
    EXPECT_EQ(e.first().ops_completed, 2u);
  }
}

// -- argument validation ------------------------------------------------------

TEST(Validation, CollectiveCountsMismatchIsDescriptive) {
  for (const char* which : {"allgatherv", "gatherv", "scatterv"}) {
    std::string w = which;
    try {
      run_spmd(ideal(3), 3, [&](Comm& c) {
        std::vector<size_t> counts(2, 1);  // wrong: 2 entries for 3 ranks
        std::vector<double> in(1, 0.0);
        std::vector<double> out(3, 0.0);
        if (w == "allgatherv") c.allgatherv(in.data(), out.data(), counts);
        if (w == "gatherv") c.gatherv(in.data(), out.data(), counts, 0);
        if (w == "scatterv") c.scatterv(out.data(), in.data(), counts, 0);
      });
      FAIL() << "expected SpmdFailure for " << w;
    } catch (const SpmdFailure& e) {
      std::string what = e.first().what;
      EXPECT_NE(what.find(w), std::string::npos) << what;
      EXPECT_NE(what.find("2 entries"), std::string::npos) << what;
      EXPECT_NE(what.find("3 ranks"), std::string::npos) << what;
    }
  }
}

TEST(Validation, RecvSizeMismatchNamesPeerTagAndBytes) {
  try {
    run_spmd(ideal(2), 2, [](Comm& c) {
      double v = 1.0;
      if (c.rank() == 0) {
        c.send(1, 6, &v, sizeof v);
      } else {
        double big[4];
        c.recv(0, 6, big, sizeof big);
      }
    });
    FAIL() << "expected SpmdFailure";
  } catch (const SpmdFailure& e) {
    std::string what = e.first().what;
    EXPECT_NE(what.find("at rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("from rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("tag 6"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 32 bytes, got 8"), std::string::npos) << what;
  }
}

TEST(Validation, BadPeerRankNamesRankAndTag) {
  try {
    run_spmd(ideal(2), 2, [](Comm& c) {
      if (c.rank() == 0) c.send_scalar(5, 8, 1.0);
    });
    FAIL() << "expected SpmdFailure";
  } catch (const SpmdFailure& e) {
    EXPECT_NE(e.first().what.find("bad destination rank 5"), std::string::npos);
    EXPECT_NE(e.first().what.find("tag 8"), std::string::npos);
  }
}

}  // namespace
}  // namespace otter::mpi

// -- driver-level degradation -------------------------------------------------

namespace otter::driver {
namespace {

std::unique_ptr<CompileResult> compile_or_die(const std::string& src) {
  auto c = compile_script(src, {}, {.opt = {.level = 0}});
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  return c;
}

TEST(Retry, PermanentFaultExhaustsAttempts) {
  auto c = compile_or_die("x = 1 + 1;\ns = 0;\nfor k = 1:8\n s = s + "
                          "sum(rand(1, 16));\nend\nfprintf('%.3f\\n', s);");
  ExecOptions opts;
  opts.spmd.fault = mpi::FaultPlan::parse("crash=1@2");  // crashes every run
  RetryOptions retry;
  retry.max_attempts = 3;
  RetryRun rr = run_with_retries(c->lir, mpi::ideal(4), 2, opts, retry);
  EXPECT_FALSE(rr.ok);
  EXPECT_EQ(rr.attempts, 3);
  ASSERT_EQ(rr.failures.size(), 3u);
  for (const AttemptFailure& f : rr.failures) {
    EXPECT_NE(f.what.find("crashed at communication op 2"), std::string::npos);
  }
  EXPECT_GT(rr.backoff_vtime, 0.0);
}

TEST(Retry, CleanRunTakesOneAttempt) {
  auto c = compile_or_die("fprintf('%d\\n', 42);");
  RetryRun rr = run_with_retries(c->lir, mpi::ideal(4), 2);
  EXPECT_TRUE(rr.ok);
  EXPECT_EQ(rr.attempts, 1);
  EXPECT_EQ(rr.run.output, "42\n");
  EXPECT_DOUBLE_EQ(rr.backoff_vtime, 0.0);
}

TEST(Retry, TransientFaultsRecoverViaReseed) {
  // Probabilistic drops behave like a flaky network: reseeding per attempt
  // lets a retry succeed. Find a seed whose first attempt fails, then show
  // run_with_retries pushes through it and charges virtual backoff.
  auto c = compile_or_die("s = 0;\nfor k = 1:4\n s = s + sum(rand(1, "
                          "8));\nend\nfprintf('%.3f\\n', s);");
  ExecOptions opts;
  // Low enough that a reseeded schedule is often drop-free, high enough
  // that some seed in the probe range fails on its first attempt.
  opts.spmd.fault.drop_prob = 0.02;
  uint64_t failing_seed = 0;
  for (uint64_t s = 1; s <= 64 && failing_seed == 0; ++s) {
    opts.spmd.fault.seed = s;
    try {
      run_parallel(c->lir, mpi::ideal(4), 4, opts);
    } catch (const mpi::SpmdFailure&) {
      failing_seed = s;
    }
  }
  ASSERT_NE(failing_seed, 0u) << "no failing seed found: drops never bit";
  opts.spmd.fault.seed = failing_seed;
  RetryOptions retry;
  retry.max_attempts = 20;
  RetryRun rr = run_with_retries(c->lir, mpi::ideal(4), 4, opts, retry);
  EXPECT_TRUE(rr.ok) << "no reseeded attempt succeeded";
  EXPECT_GT(rr.attempts, 1);
  EXPECT_FALSE(rr.failures.empty());
  EXPECT_GT(rr.backoff_vtime, 0.0);
  // Virtual clocks carry the backoff penalty of the failed attempts.
  EXPECT_GE(rr.run.times.max_vtime(), rr.backoff_vtime);
}

TEST(Exec, RtErrorCarriesRankAndStatementContext) {
  auto c = compile_or_die("v = 1:4;\nx = v(9);\ndisp(x);");
  try {
    run_parallel(c->lir, mpi::ideal(4), 2);
    FAIL() << "expected SpmdFailure";
  } catch (const mpi::SpmdFailure& e) {
    // Rank attribution lives in the aggregate; the per-rank message carries
    // the failing statement (line + LIR op).
    EXPECT_NE(std::string(e.what()).find("rank "), std::string::npos)
        << e.what();
    const std::string& what = e.first().what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("get-elem"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace otter::driver
