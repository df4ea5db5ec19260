// Crash matrix for the process-isolated execution tier (DESIGN.md §17):
// children die by SIGSEGV, SIGKILL, _exit, OOM, and deadline at p = 1/2/4,
// and in every case the Service keeps answering with the right stable
// E-code while the breaker/supervisor counters advance. Also covers the
// resource governor surface: per-request budgets (E5006), dimension
// validation (E5007), large payloads on huge-page mappings, and the
// governor/sandbox stats plumbing.
//
// Note on death modes under sanitizers: ASan intercepts SIGSEGV and turns
// it into a nonzero _exit after printing a report, so assertions here pin
// the E0014 classification, never the "signal 11" message text.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <string>

#include "driver/pipeline.hpp"
#include "interp/value.hpp"
#include "rtlib/dmatrix.hpp"
#include "service/sandbox.hpp"
#include "service/server.hpp"
#include "support/governor.hpp"
#include "support/json.hpp"
#include "support/sanitizer.hpp"

namespace json = otter::json;
using otter::service::IsolateMode;
using otter::service::Service;
using otter::service::ServiceConfig;

namespace {

ServiceConfig sandbox_cfg() {
  ServiceConfig cfg;
  cfg.isolate = IsolateMode::Process;
  cfg.allow_fault_plans = true;
  return cfg;
}

/// Builds a compile_run request line. `salt` keeps script hashes distinct
/// so the circuit breaker never couples unrelated test cases.
std::string request(const std::string& salt, int np,
                    const std::string& extra_json_fields = "") {
  json::JValue req{json::JObject{}};
  req.set("op", "compile_run");
  req.set("script", "x = " + salt + ";\ndisp(x);\n");
  req.set("np", np);
  std::string line = req.dump();
  if (!extra_json_fields.empty()) {
    line.insert(line.size() - 1, "," + extra_json_fields);
  }
  return line;
}

json::JValue roundtrip(Service& svc, const std::string& line) {
  auto v = json::parse(svc.process_line(line));
  EXPECT_TRUE(v.has_value() && v->is_object()) << line;
  return v ? *v : json::JValue();
}

uint64_t stat_of(const json::JValue& resp, const char* key) {
  const json::JValue* stats = resp.get("stats");
  EXPECT_NE(stats, nullptr);
  return stats != nullptr ? static_cast<uint64_t>(stats->get_number(key, 0))
                          : 0;
}

}  // namespace

// ---- the crash matrix -------------------------------------------------------

TEST(SandboxCrashMatrix, ChildDeathsBecomeE0014AtEveryWidth) {
  Service svc(sandbox_cfg());
  int salt = 0;
  for (const char* how : {"segv", "kill", "exit"}) {
    for (int np : {1, 2, 4}) {
      json::JValue resp = roundtrip(
          svc, request(std::to_string(100 + salt++), np,
                       std::string("\"test_kill\":\"") + how + "\""));
      EXPECT_EQ(resp.get_string("status", ""), "runtime_error")
          << how << " np=" << np;
      EXPECT_EQ(resp.get_string("code", ""), "E0014") << how << " np=" << np;
      // The service survived: a normal request still works.
      json::JValue ok = roundtrip(
          svc, request(std::to_string(200 + salt++), np));
      EXPECT_EQ(ok.get_string("status", ""), "ok") << how << " np=" << np;
    }
  }
  // Every forked child was reaped; crash deaths were counted.
  json::JValue stats = roundtrip(svc, R"({"op":"stats"})");
  EXPECT_EQ(stat_of(stats, "sandbox_spawned"), stat_of(stats, "sandbox_reaped"));
  EXPECT_GE(stat_of(stats, "worker_crashes"), 9u);
}

TEST(SandboxCrashMatrix, HungChildIsKilledAtTheDeadline) {
  ServiceConfig cfg = sandbox_cfg();
  cfg.default_deadline = 1.0;
  cfg.kill_grace = 0.2;
  Service svc(cfg);
  for (int np : {1, 2}) {
    json::JValue resp =
        roundtrip(svc, request("301", np, "\"test_kill\":\"hang\""));
    EXPECT_EQ(resp.get_string("status", ""), "deadline") << "np=" << np;
    EXPECT_EQ(resp.get_string("code", ""), "E0009") << "np=" << np;
  }
  json::JValue stats = roundtrip(svc, R"({"op":"stats"})");
  EXPECT_GE(stat_of(stats, "sandbox_killed"), 2u);
  EXPECT_EQ(stat_of(stats, "sandbox_spawned"), stat_of(stats, "sandbox_reaped"));
}

TEST(SandboxCrashMatrix, OomingChildAnswersE5006) {
  Service svc(sandbox_cfg());
  for (int np : {1, 2, 4}) {
    // zeros(1200)^2 x 8 bytes ≈ 11.5 MB against a 1 MiB budget. The dim is
    // computed at run time so no compile-time path can intercept it.
    json::JValue req{json::JObject{}};
    req.set("op", "compile_run");
    req.set("script", "n = 600 + 600;\na = zeros(n);\ndisp(a(1,1));\n");
    req.set("np", np);
    req.set("mem_mb", 1);
    json::JValue resp = roundtrip(svc, req.dump());
    EXPECT_EQ(resp.get_string("status", ""), "runtime_error") << "np=" << np;
    EXPECT_EQ(resp.get_string("code", ""), "E5006") << "np=" << np;
    // The child's governor ledger rode back in the response.
    const json::JValue* gov = resp.get("governor");
    ASSERT_NE(gov, nullptr);
    EXPECT_GE(gov->get_number("denials", 0), 1) << "np=" << np;
  }
  // The daemon process itself never paid for the denied buffers.
  json::JValue ok = roundtrip(svc, request("302", 1));
  EXPECT_EQ(ok.get_string("status", ""), "ok");
}

TEST(SandboxCrashMatrix, RepeatCrashersGetQuarantined) {
  ServiceConfig cfg = sandbox_cfg();
  cfg.breaker.threshold = 3;
  Service svc(cfg);
  const std::string line = request("400", 1, "\"test_kill\":\"segv\"");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(roundtrip(svc, line).get_string("code", ""), "E0014") << i;
  }
  json::JValue resp = roundtrip(svc, line);
  EXPECT_EQ(resp.get_string("status", ""), "quarantined");
  EXPECT_EQ(resp.get_string("code", ""), "E0010");
  EXPECT_GE(stat_of(resp, "breaker_trips"), 1u);
}

TEST(SandboxCrashMatrix, RetryLadderRespawnsCrashedChildren) {
  Service svc(sandbox_cfg());
  json::JValue resp = roundtrip(
      svc, request("500", 1, "\"test_kill\":\"segv\",\"retries\":2"));
  // test_kill is deterministic, so every respawn dies too — but the ladder
  // must have run its full length before giving up.
  EXPECT_EQ(resp.get_string("code", ""), "E0014");
  EXPECT_EQ(resp.get_number("attempts", 0), 3);
  EXPECT_EQ(stat_of(resp, "worker_retries"), 2u);
}

TEST(SandboxCrashMatrix, ChildStderrComesBackInTheResponse) {
  Service svc(sandbox_cfg());
  json::JValue resp =
      roundtrip(svc, request("600", 1, "\"test_kill\":\"exit\""));
  EXPECT_EQ(resp.get_string("code", ""), "E0014");
  EXPECT_NE(resp.get_string("worker_stderr", "").find("test_kill=exit"),
            std::string::npos);
}

// ---- sandboxed success path -------------------------------------------------

TEST(SandboxRun, NormalScriptsRunToCompletionInChildren) {
  Service svc(sandbox_cfg());
  json::JValue resp = roundtrip(svc, request("7", 2));
  ASSERT_EQ(resp.get_string("status", ""), "ok");
  EXPECT_NE(resp.get_string("output", "").find("7"), std::string::npos);
  EXPECT_NE(resp.get("governor"), nullptr);
  EXPECT_GE(stat_of(resp, "sandbox_spawned"), 1u);

  // The artifact cache lives in the parent: a repeat request is a warm hit
  // even though the previous execution happened in a child that is gone.
  json::JValue again = roundtrip(svc, request("7", 2));
  EXPECT_EQ(again.get_string("status", ""), "ok");
  EXPECT_EQ(again.get_string("cache", ""), "hit");
}

// ---- request-field validation -----------------------------------------------

TEST(SandboxAdmission, TestKillRequiresProcessIsolation) {
  ServiceConfig cfg;  // library default: isolate=None
  cfg.allow_fault_plans = true;
  Service svc(cfg);
  json::JValue resp =
      roundtrip(svc, request("800", 1, "\"test_kill\":\"segv\""));
  EXPECT_EQ(resp.get_string("status", ""), "bad_request");
  EXPECT_EQ(resp.get_string("code", ""), "E0012");
}

TEST(SandboxAdmission, TestKillRequiresFaultInjectionOptIn) {
  ServiceConfig cfg = sandbox_cfg();
  cfg.allow_fault_plans = false;
  Service svc(cfg);
  json::JValue resp =
      roundtrip(svc, request("801", 1, "\"test_kill\":\"segv\""));
  EXPECT_EQ(resp.get_string("code", ""), "E0012");
}

TEST(SandboxAdmission, MalformedFieldsAreE0011) {
  Service svc(sandbox_cfg());
  EXPECT_EQ(roundtrip(svc, request("802", 1, "\"test_kill\":\"sigfoo\""))
                .get_string("code", ""),
            "E0011");
  EXPECT_EQ(roundtrip(svc, request("803", 1, "\"mem_mb\":-5"))
                .get_string("code", ""),
            "E0011");
  EXPECT_EQ(roundtrip(svc, request("804", 1, "\"retries\":-1"))
                .get_string("code", ""),
            "E0011");
  EXPECT_EQ(roundtrip(svc, request("805", 1, "\"retries\":99"))
                .get_string("code", ""),
            "E0011");
}

// ---- governor: in-process (isolate=none) regression -------------------------

TEST(Governor, TinyBudgetFailsBigZerosInProcessWithE5006) {
  ServiceConfig cfg;  // isolate=None: the pre-sandbox barriers must still
  Service svc(cfg);   // turn a budget denial into a coded response.
  json::JValue req{json::JObject{}};
  req.set("op", "compile_run");
  req.set("script", "n = 600 + 600;\na = zeros(n);\ndisp(a(1,1));\n");
  req.set("np", 1);
  req.set("mem_mb", 1);
  json::JValue resp = roundtrip(svc, req.dump());
  EXPECT_EQ(resp.get_string("status", ""), "runtime_error");
  EXPECT_EQ(resp.get_string("code", ""), "E5006");
  // The failing rank carries statement context for debuggability.
  const json::JValue* failures = resp.get("failures");
  ASSERT_NE(failures, nullptr);
  ASSERT_FALSE(failures->as_array().empty());
  EXPECT_NE(failures->as_array()[0].get_string("what", "").find("line"),
            std::string::npos);
  // A follow-up unbudgeted request is unaffected by the lapsed budget.
  json::JValue ok = roundtrip(svc, request("900", 1));
  EXPECT_EQ(ok.get_string("status", ""), "ok");
}

TEST(Governor, LedgerChargesAndReleases) {
  auto& g = otter::gov::ResourceGovernor::instance();
  otter::gov::ScopedBudget budget(1 << 20);
  g.charge(1000);
  EXPECT_GE(g.stats().used, 1000u);
  EXPECT_THROW(g.charge(2u << 20), otter::gov::BudgetExceeded);
  EXPECT_GE(g.stats().denials, 1u);
  g.release(1000);
  // Clamped release never underflows even if over-released.
  g.release(1u << 30);
  EXPECT_EQ(g.stats().used, 0u);
}

TEST(Governor, BudgetExceededCarriesAccounting) {
  try {
    otter::gov::ScopedBudget budget(4096);
    otter::gov::ResourceGovernor::instance().charge(1u << 20);
    FAIL() << "charge should have thrown";
  } catch (const otter::gov::BudgetExceeded& e) {
    EXPECT_EQ(e.budget, 4096u);
    EXPECT_EQ(e.requested, 1u << 20);
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
}

TEST(Governor, InterpreterBudgetDenialIsE5006) {
  otter::gov::ScopedBudget budget(1 << 20);
  try {
    otter::driver::run_interpreter("n = 600 + 600;\na = zeros(n);\n", {}, 1);
    FAIL() << "zeros(1200) should have exceeded the 1 MiB budget";
  } catch (const otter::interp::InterpError& e) {
    EXPECT_EQ(e.code(), "E5006");
  }
}

// ---- governor: large payloads on their own huge-page mappings ---------------

// Sizes on both sides of the 2 MiB mapping threshold, one with a partial
// 4 KiB page, and a whole 2048x2048 matrix.
TEST(Governor, LargePayloadsStartAtPositiveZeroAfterADirtyOneIsFreed) {
  auto& g = otter::gov::ResourceGovernor::instance();
  for (size_t bytes : {(size_t{2} << 20) - 8, size_t{2} << 20,
                       (size_t{2} << 20) + 8, (size_t{3} << 20) + 24,
                       size_t{32} << 20}) {
    SCOPED_TRACE(bytes);
    const size_t n = bytes / sizeof(double);
    const uint64_t baseline = g.stats().used;
    {
      otter::gov::DoubleBuffer dirty(n, -0.0);
      dirty.back() = 1.5;
      EXPECT_EQ(g.stats().used, baseline + bytes);
    }
    EXPECT_EQ(g.stats().used, baseline);
    {
      otter::gov::DoubleBuffer fresh(n);
      size_t nonzero = 0;
      for (double v : fresh) nonzero += v != 0.0 || std::signbit(v);
      EXPECT_EQ(nonzero, 0u);
      EXPECT_EQ(g.stats().used, baseline + bytes);
    }
    EXPECT_EQ(g.stats().used, baseline);
  }
}

// allocate_large guarantees zero-filled memory in every build: the mmap
// path gets it from the kernel, the sanitizer build's operator new path
// clears it (ASan fills fresh heap memory with a nonzero byte).
TEST(Governor, AllocateLargeReturnsZeroedMemoryAfterADirtyFree) {
  for (size_t bytes : {size_t{2} << 20, (size_t{3} << 20) + 24}) {
    SCOPED_TRACE(bytes);
    void* dirty = otter::gov::allocate_large(bytes);
    std::memset(dirty, 0xA5, bytes);
    otter::gov::deallocate_large(dirty, bytes);
    auto* fresh = static_cast<unsigned char*>(otter::gov::allocate_large(bytes));
    size_t nonzero = 0;
    for (size_t i = 0; i < bytes; ++i) nonzero += fresh[i] != 0;
    EXPECT_EQ(nonzero, 0u);
    otter::gov::deallocate_large(fresh, bytes);
  }
}

// DMat writes +0.0 itself only below the large-payload threshold and takes
// allocate_large's zeroes above it: either way a matrix built right after a
// dirty one of the same size is freed reads +0.0 everywhere.
TEST(Governor, FreshDMatReadsPositiveZeroAfterADirtyOneIsFreed) {
  otter::mpi::run_spmd(otter::mpi::ideal(1), 1, [](otter::mpi::Comm& c) {
    // 1024 x 300 is 2.3 MiB; 20 x 30 stays on the small-payload path.
    for (auto [rows, cols] : {std::pair<size_t, size_t>{1024, 300},
                              std::pair<size_t, size_t>{20, 30}}) {
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
      {
        otter::rt::DMat dirty(c, rows, cols);
        for (double& v : dirty.local()) v = -0.0;
        dirty.local()[0] = std::nan("");
      }
      otter::rt::DMat fresh(c, rows, cols);
      size_t bad = 0;
      for (double v : fresh.local()) bad += v != 0.0 || std::signbit(v);
      EXPECT_EQ(bad, 0u);
    }
  });
}

TEST(Governor, BudgetBelowALargePayloadThrowsAndChargesNothing) {
  auto& g = otter::gov::ResourceGovernor::instance();
  const uint64_t baseline = g.stats().used;
  otter::gov::ScopedBudget budget(baseline + (size_t{16} << 20));
  EXPECT_THROW(otter::gov::DoubleBuffer((size_t{32} << 20) / sizeof(double)),
               otter::gov::BudgetExceeded);
  EXPECT_EQ(g.stats().used, baseline);
}

// No address space holds a 1 PiB mapping, so the host allocation fails
// after the charge and the charge must be refunded.
TEST(Governor, FailedHostAllocationRefundsTheCharge) {
#ifdef OTTER_SANITIZED
  GTEST_SKIP() << "sanitizer build: the sanitizer allocator aborts on "
                  "oversized requests instead of throwing";
#endif
  auto& g = otter::gov::ResourceGovernor::instance();
  const uint64_t baseline = g.stats().used;
  EXPECT_THROW(otter::gov::Accounted<double>().allocate(size_t{1} << 47),
               std::bad_alloc);
  EXPECT_EQ(g.stats().used, baseline);
}

// A fresh 2048x2048 rand matrix faults in 2 MiB at a time: 16 huge-page
// faults plus a few for the rest of the call. On 4 KiB pages it takes
// 8,193.
TEST(Governor, FreshLargeMatrixFaultsInHugePages) {
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string modes;
  std::getline(thp, modes);
  if (modes.empty() || modes.find("[never]") != std::string::npos) {
    GTEST_SKIP() << "transparent huge pages are unavailable or disabled";
  }
#ifdef OTTER_SANITIZED
  GTEST_SKIP() << "sanitizer build: payloads stay on operator new";
#endif
  long faults = -1;
  otter::mpi::run_spmd(otter::mpi::ideal(1), 1, [&](otter::mpi::Comm& c) {
    rusage before{};
    rusage after{};
    getrusage(RUSAGE_THREAD, &before);
    otter::rt::DMat m = otter::rt::fill_rand(c, 2048, 2048, 1, 0);
    getrusage(RUSAGE_THREAD, &after);
    faults = after.ru_minflt - before.ru_minflt;
  });
  EXPECT_GE(faults, 0);
  EXPECT_LT(faults, 1024);
}

// ---- dimension validation (E5007) -------------------------------------------

TEST(DimValidation, InterpreterBadDimsAreE5007) {
  for (const char* script :
       {"a = zeros(0 - 3);\n", "a = ones(2.5);\n", "a = rand(1 / 0);\n"}) {
    try {
      otter::driver::run_interpreter(script, {}, 1);
      FAIL() << script;
    } catch (const otter::interp::InterpError& e) {
      EXPECT_EQ(e.code(), "E5007") << script << " — " << e.what();
    }
  }
}


TEST(DimValidation, RuntimeComputedBadDimsAreE5007) {
  Service svc(ServiceConfig{});
  // Negative and enormous extents, both computed at run time so inference
  // cannot fold them away; `a` is used afterwards so dead-statement
  // elimination cannot drop the allocation either.
  for (const char* script :
       {"n = 1 - 5;\na = zeros(n);\nb = a + 1;\ndisp(b);\n",
        "n = 10 ^ 10;\na = zeros(n);\nb = a + 1;\ndisp(b);\n"}) {
    json::JValue req{json::JObject{}};
    req.set("op", "compile_run");
    req.set("script", script);
    req.set("np", 1);
    json::JValue resp = roundtrip(svc, req.dump());
    EXPECT_EQ(resp.get_string("status", ""), "runtime_error") << script;
    EXPECT_EQ(resp.get_string("code", ""), "E5007") << script;
  }
}
