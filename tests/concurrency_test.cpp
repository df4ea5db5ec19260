// Concurrent-pipeline stress tests (run under TSan in CI): many threads
// driving full compiles — and whole Service requests — simultaneously, with
// a mix of valid scripts, scripts with E-coded diagnostics, and scripts
// that blow resource budgets. Pins down the re-entrancy audit: DiagEngine,
// the pipeline, the LIR optimizer, the artifact cache, and the breaker must
// all be safe for concurrent use with no cross-talk between compilations.
#include <gtest/gtest.h>

#include <atomic>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "driver/pipeline.hpp"
#include "service/server.hpp"
#include "support/json.hpp"

namespace json = otter::json;
using otter::driver::CompileOptions;
using otter::service::Service;
using otter::service::ServiceConfig;

namespace {

/// Concatenates by appending: GCC 12 at -O3 flags "lit" + std::to_string(...)
/// with a false -Wrestrict.
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string s;
  for (std::string_view p : parts) s += p;
  return s;
}

constexpr int kThreads = 8;
constexpr int kScriptsPerThread = 24;

std::string valid_script(int t, int i) {
  int n = 2 + (t + i) % 6;
  return "a = ones(" + std::to_string(n) + "," + std::to_string(n) +
         "); b = a * 2; disp(sum(sum(b)))";
}

std::string invalid_script(int t, int i) {
  // Unbalanced paren: a deterministic E2xxx parse diagnostic.
  return cat({"x", std::to_string(t), " = (1 + ", std::to_string(i)});
}

}  // namespace

TEST(Concurrency, ParallelCompilesKeepDiagnosticsSeparate) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      for (int i = 0; i < kScriptsPerThread; ++i) {
        CompileOptions copts;
        std::string tag = cat({"t", std::to_string(t), "_s", std::to_string(i)});
        copts.source_name = tag;
        const int kind = i % 3;
        std::string src;
        if (kind == 0) {
          src = valid_script(t, i);
        } else if (kind == 1) {
          src = invalid_script(t, i);
        } else {
          src = valid_script(t, i);
          copts.budget.max_ast_nodes = 4;  // guaranteed E0003
        }
        auto compiled = otter::driver::compile_script(src, {}, copts);
        if (kind == 0) {
          if (!compiled->ok) ++failures;
          continue;
        }
        if (compiled->ok || !compiled->diags.has_errors()) {
          ++failures;
          continue;
        }
        // Every diagnostic this compile rendered must cite THIS compile's
        // buffer — a foreign tag means engines interleaved across threads.
        std::string rendered = compiled->diags.to_string();
        if (rendered.find(tag) == std::string::npos) ++failures;
        for (int other = 0; other < kThreads; ++other) {
          if (other != t &&
              rendered.find(cat({"t", std::to_string(other), "_"})) !=
                  std::string::npos) {
            ++failures;
          }
        }
        std::string code =
            compiled->diags.diagnostics().front().code;
        if (kind == 1 && code.substr(0, 2) != "E2") ++failures;
        if (kind == 2 && code != "E0003") ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Concurrency, ServiceHandlesMixedConcurrentRequests) {
  ServiceConfig cfg;
  cfg.max_np = 4;
  Service svc(cfg);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &svc, &failures] {
      for (int i = 0; i < kScriptsPerThread; ++i) {
        json::JValue req{json::JObject{}};
        std::string id = cat({"t", std::to_string(t), "_r", std::to_string(i)});
        req.set("id", id);
        const int kind = i % 3;
        const char* expect = "ok";
        if (kind == 0) {
          req.set("script", valid_script(t, i));
          req.set("np", 1 + (t + i) % 2);
        } else if (kind == 1) {
          req.set("script", invalid_script(t, i));
          expect = "compile_error";
        } else {
          req.set("script", "x = 1");
          req.set("np", 99);  // over max_np
          expect = "bad_request";
        }
        auto resp = json::parse(svc.process_line(req.dump()));
        if (!resp || !resp->is_object()) {
          ++failures;  // a torn/interleaved response line would land here
          continue;
        }
        // The echoed id is the cross-talk detector: a response built from
        // another thread's request would carry the wrong one.
        if (resp->get_string("id", "") != id) ++failures;
        if (resp->get_string("status", "") != expect) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto stats = svc.stats();
  EXPECT_EQ(stats.received,
            static_cast<uint64_t>(kThreads * kScriptsPerThread));
  EXPECT_EQ(stats.internal_errors, 0u);
}

TEST(Concurrency, SharedCachedArtifactRunsConcurrently) {
  Service svc;
  const std::string line =
      R"js({"script":"a = ones(6,6); disp(sum(sum(a + a)))","np":2})js";
  // Warm the cache once, then hammer the same artifact from every thread:
  // all runs share one const LProgram through shared_ptr.
  auto warm = json::parse(svc.process_line(line));
  ASSERT_TRUE(warm && warm->get_string("status", "") == "ok");

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        auto resp = json::parse(svc.process_line(line));
        if (!resp || resp->get_string("status", "") != "ok" ||
            resp->get_string("output", "") != "72\n" ||
            resp->get_string("cache", "") != "hit") {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.stats().cache_hits, static_cast<uint64_t>(kThreads * 8));
  EXPECT_EQ(svc.stats().cache_misses, 1u);
}
