// Tests for the otterd service layer: the JSON protocol helpers, the
// content-addressed artifact cache, the circuit breaker, admission
// shedding, and the Service request barrier itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "driver/pipeline.hpp"
#include "service/breaker.hpp"
#include "service/cache.hpp"
#include "service/hash.hpp"
#include "service/server.hpp"
#include "support/json.hpp"

namespace json = otter::json;
using otter::service::ArtifactCache;
using otter::service::CircuitBreaker;
using otter::service::Service;
using otter::service::ServiceConfig;
using otter::service::WorkerPool;

namespace {

json::JValue parse_ok(const std::string& text) {
  json::ParseError err;
  auto v = json::parse(text, &err);
  EXPECT_TRUE(v.has_value()) << text << " — " << err.reason;
  return v ? *v : json::JValue();
}

std::string request(const std::string& script, int np = 1) {
  json::JValue req{json::JObject{}};
  req.set("op", "compile_run");
  req.set("script", script);
  req.set("np", np);
  return req.dump();
}

}  // namespace

// ---- JSON ------------------------------------------------------------------

TEST(ServiceJson, RoundTripsDocuments) {
  const char* doc =
      R"({"op":"compile_run","np":4,"ok":true,"list":[1,2.5,"x",null]})";
  json::JValue v = parse_ok(doc);
  EXPECT_EQ(v.get_string("op", ""), "compile_run");
  EXPECT_EQ(v.get_number("np", 0), 4);
  EXPECT_TRUE(v.get_bool("ok", false));
  EXPECT_EQ(v.get("list")->as_array().size(), 4u);
  EXPECT_EQ(parse_ok(v.dump()).dump(), v.dump());
}

TEST(ServiceJson, EscapesControlCharacters) {
  std::string nasty = "line1\nline2\ttab\x01" "end\"quote\\slash";
  std::string esc = json::json_escape(nasty);
  EXPECT_EQ(esc.find('\n'), std::string::npos);
  EXPECT_NE(esc.find("\\n"), std::string::npos);
  EXPECT_NE(esc.find("\\t"), std::string::npos);
  EXPECT_NE(esc.find("\\u0001"), std::string::npos);
  EXPECT_NE(esc.find("\\\""), std::string::npos);
  // The escaped form must survive a parse round-trip unchanged.
  json::JValue v = parse_ok("\"" + esc + "\"");
  EXPECT_EQ(v.as_string(), nasty);
}

TEST(ServiceJson, ReplacesInvalidUtf8) {
  // 0xFF can never appear in UTF-8; 0xC3 alone is a truncated sequence.
  std::string bad = "ok\xff then\xc3";
  std::string esc = json::json_escape(bad);
  EXPECT_EQ(esc.find('\xff'), std::string::npos);
  EXPECT_NE(esc.find("\\ufffd"), std::string::npos);  // U+FFFD, escaped
  // Valid multi-byte UTF-8 passes through untouched.
  std::string good = "caf\xc3\xa9";
  EXPECT_EQ(json::json_escape(good), good);
}

TEST(ServiceJson, RejectsMalformedAndTooDeep) {
  json::ParseError err;
  EXPECT_FALSE(json::parse("{\"a\":", &err).has_value());
  EXPECT_FALSE(json::parse("{\"a\":1} trailing", &err).has_value());
  EXPECT_FALSE(json::parse("", &err).has_value());
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json::parse(deep, &err, 64).has_value());
  EXPECT_TRUE(json::parse(deep, &err, 128).has_value());
}

TEST(ServiceJson, DumpNeverEmitsRawNewlines) {
  json::JValue v{json::JObject{}};
  v.set("msg", "a\nb\rc");
  v.set("arr", json::JValue(json::JArray{1, 2}));
  EXPECT_EQ(v.dump().find('\n'), std::string::npos);
}

// ---- content hash + cache --------------------------------------------------

TEST(ServiceHash, IsStableAndContentSensitive) {
  std::string a = otter::service::script_hash("x = 1");
  EXPECT_EQ(a, otter::service::script_hash("x = 1"));
  EXPECT_NE(a, otter::service::script_hash("x = 2"));
  EXPECT_EQ(a.size(), 16u);
}

TEST(ServiceCache, KeyCoversEveryCompileKnob) {
  using otter::service::artifact_key;
  std::string h = otter::service::script_hash("x = 1");
  EXPECT_NE(artifact_key(h, 0, "ideal", false),
            artifact_key(h, 2, "ideal", false));
  EXPECT_NE(artifact_key(h, 2, "ideal", false),
            artifact_key(h, 2, "meiko_cs2", false));
  EXPECT_NE(artifact_key(h, 2, "ideal", false),
            artifact_key(h, 2, "ideal", true));
}

TEST(ServiceCache, LruEvictsUnderByteBudget) {
  ArtifactCache cache(300);
  auto art = [](size_t bytes) {
    auto a = std::make_shared<otter::service::Artifact>();
    a->bytes = bytes;
    return a;
  };
  cache.insert("a", art(100));
  cache.insert("b", art(100));
  cache.insert("c", art(100));
  EXPECT_EQ(cache.entries(), 3u);
  ASSERT_NE(cache.lookup("a"), nullptr);  // bump "a": "b" is now LRU
  cache.insert("d", art(100));
  EXPECT_EQ(cache.lookup("b"), nullptr);  // evicted
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("d"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes(), 300u);
}

TEST(ServiceCache, OversizedArtifactIsNotCachedAndCountersTrack) {
  ArtifactCache cache(100);
  auto big = std::make_shared<otter::service::Artifact>();
  big->bytes = 500;
  cache.insert("big", big);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.lookup("big"), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServiceCache, InsertRaceKeepsIncumbent) {
  ArtifactCache cache(1000);
  auto first = std::make_shared<otter::service::Artifact>();
  first->bytes = 10;
  auto second = std::make_shared<otter::service::Artifact>();
  second->bytes = 10;
  cache.insert("k", first);
  cache.insert("k", second);  // lost the compile race
  EXPECT_EQ(cache.lookup("k"), first);
  EXPECT_EQ(cache.bytes(), 10u);
}

// ---- circuit breaker -------------------------------------------------------

TEST(ServiceBreaker, TripsAfterThresholdAndProbesAfterCooldown) {
  double now = 0.0;
  CircuitBreaker breaker({.threshold = 3, .cooldown_seconds = 10.0},
                         [&now] { return now; });
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Allow);
  breaker.record_failure("h");
  breaker.record_failure("h");
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Allow);  // 2 < 3
  breaker.record_failure("h");
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Quarantined);
  EXPECT_EQ(breaker.trip_count(), 1u);
  EXPECT_EQ(breaker.open_count(), 1u);
  EXPECT_NEAR(breaker.retry_after("h"), 10.0, 1e-9);

  now = 9.9;
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Quarantined);
  now = 10.0;
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Probe);
  // Only one probe at a time; concurrent requests stay rejected.
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Quarantined);
}

TEST(ServiceBreaker, ProbeSuccessClosesProbeFailureReopens) {
  double now = 0.0;
  CircuitBreaker breaker({.threshold = 1, .cooldown_seconds = 5.0},
                         [&now] { return now; });
  breaker.record_failure("h");
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Quarantined);

  now = 5.0;
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Probe);
  breaker.record_failure("h");  // probe crashed: full cooldown again
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Quarantined);
  now = 9.9;
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Quarantined);
  now = 10.0;
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Probe);
  breaker.record_success("h");  // probe ran clean: breaker closes
  EXPECT_EQ(breaker.admit("h"), CircuitBreaker::Verdict::Allow);
  EXPECT_EQ(breaker.open_count(), 0u);
}

TEST(ServiceBreaker, KeysAreIndependent) {
  CircuitBreaker breaker({.threshold = 1, .cooldown_seconds = 100.0});
  breaker.record_failure("bad");
  EXPECT_EQ(breaker.admit("bad"), CircuitBreaker::Verdict::Quarantined);
  EXPECT_EQ(breaker.admit("good"), CircuitBreaker::Verdict::Allow);
}

// ---- retry backoff (satellite: capped exponential + deterministic jitter) --

TEST(RetryBackoff, CapsTheExponentialSchedule) {
  otter::driver::RetryOptions r;
  r.backoff = 1.0;
  r.backoff_factor = 10.0;
  r.backoff_cap = 25.0;
  r.jitter = 0.0;
  EXPECT_DOUBLE_EQ(otter::driver::retry_backoff_for(r, 1), 1.0);
  EXPECT_DOUBLE_EQ(otter::driver::retry_backoff_for(r, 2), 10.0);
  EXPECT_DOUBLE_EQ(otter::driver::retry_backoff_for(r, 3), 25.0);   // capped
  EXPECT_DOUBLE_EQ(otter::driver::retry_backoff_for(r, 10), 25.0);  // stays
}

TEST(RetryBackoff, JitterIsDeterministicPerSeedAndBounded) {
  otter::driver::RetryOptions r;
  r.backoff = 2.0;
  r.backoff_factor = 1.0;
  r.backoff_cap = 0.0;
  r.jitter = 0.25;
  r.jitter_seed = 42;
  double first = otter::driver::retry_backoff_for(r, 1);
  EXPECT_DOUBLE_EQ(first, otter::driver::retry_backoff_for(r, 1));
  EXPECT_GE(first, 2.0 * 0.75);
  EXPECT_LE(first, 2.0 * 1.25);
  // Different attempts and different seeds draw different factors.
  EXPECT_NE(first, otter::driver::retry_backoff_for(r, 2));
  r.jitter_seed = 43;
  EXPECT_NE(first, otter::driver::retry_backoff_for(r, 1));
}

// ---- worker pool -----------------------------------------------------------

TEST(ServicePool, ShedsWhenQueueIsFull) {
  WorkerPool pool(1, 2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};
  auto blocker = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    ran.fetch_add(1);
  };
  ASSERT_TRUE(pool.try_submit(blocker));  // occupies the single worker
  // Wait for the worker to pick the blocker up so the queue is empty.
  while (pool.queued() > 0) std::this_thread::yield();
  ASSERT_TRUE(pool.try_submit(blocker));
  ASSERT_TRUE(pool.try_submit(blocker));
  EXPECT_FALSE(pool.try_submit(blocker));  // queue full: shed
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.shutdown();  // drains the queue before joining
  EXPECT_EQ(ran.load(), 3);
  EXPECT_FALSE(pool.try_submit(blocker));  // stopped pools shed everything
}

// ---- the Service itself ----------------------------------------------------

TEST(ServiceProtocol, PingStatsAndUnknownOp) {
  Service svc;
  json::JValue pong = parse_ok(svc.process_line(R"({"op":"ping","id":7})"));
  EXPECT_EQ(pong.get_string("status", ""), "ok");
  EXPECT_TRUE(pong.get_bool("pong", false));
  EXPECT_EQ(pong.get_number("id", 0), 7);

  json::JValue stats = parse_ok(svc.process_line(R"({"op":"stats"})"));
  EXPECT_EQ(stats.get_string("status", ""), "ok");
  EXPECT_EQ(stats.get("stats")->get_number("received", -1), 2);

  json::JValue bad = parse_ok(svc.process_line(R"({"op":"launch_missiles"})"));
  EXPECT_EQ(bad.get_string("status", ""), "bad_request");
  EXPECT_EQ(bad.get_string("code", ""), "E0011");
}

TEST(ServiceProtocol, MalformedRequestsGetE0011) {
  Service svc;
  for (const char* line : {"not json at all", "[1,2,3]", "{\"script\": 42}",
                           "{\"op\":\"compile_run\"}"}) {
    json::JValue resp = parse_ok(svc.process_line(line));
    EXPECT_EQ(resp.get_string("status", ""), "bad_request") << line;
    EXPECT_EQ(resp.get_string("code", ""), "E0011") << line;
  }
  EXPECT_EQ(svc.stats().bad_requests, 4u);
}

TEST(ServiceProtocol, AdmissionLimitsGetE0012) {
  ServiceConfig cfg;
  cfg.max_script_bytes = 64;
  cfg.max_np = 4;
  cfg.allow_fault_plans = false;
  Service svc(cfg);

  json::JValue big = parse_ok(svc.process_line(request(std::string(200, ' '))));
  EXPECT_EQ(big.get_string("code", ""), "E0012");

  json::JValue np = parse_ok(svc.process_line(request("x = 1", 64)));
  EXPECT_EQ(np.get_string("code", ""), "E0012");

  json::JValue fp = parse_ok(svc.process_line(
      R"({"script":"x = 1","fault_plan":"crash=0@1"})"));
  EXPECT_EQ(fp.get_string("code", ""), "E0012");
}

TEST(ServiceProtocol, CompilesRunsAndCaches) {
  Service svc;
  std::string line = request("a = ones(4,4); disp(sum(sum(a * 2)))", 2);

  json::JValue r1 = parse_ok(svc.process_line(line));
  EXPECT_EQ(r1.get_string("status", ""), "ok");
  EXPECT_EQ(r1.get_string("output", ""), "32\n");
  EXPECT_EQ(r1.get_string("cache", ""), "miss");
  EXPECT_EQ(r1.get_string("hash", "").size(), 16u);

  json::JValue r2 = parse_ok(svc.process_line(line));
  EXPECT_EQ(r2.get_string("status", ""), "ok");
  EXPECT_EQ(r2.get_string("output", ""), "32\n");
  EXPECT_EQ(r2.get_string("cache", ""), "hit");
  EXPECT_EQ(svc.stats().cache_hits, 1u);
  EXPECT_EQ(svc.stats().cache_misses, 1u);
  EXPECT_EQ(svc.stats().ok, 2u);
}

TEST(ServiceProtocol, CompileOnlyRequestSkipsExecution) {
  Service svc;
  json::JValue resp = parse_ok(
      svc.process_line(R"js({"script":"x = ones(3,3)","run":false})js"));
  EXPECT_EQ(resp.get_string("status", ""), "ok");
  EXPECT_EQ(resp.get("output"), nullptr);
  EXPECT_EQ(resp.get_string("cache", ""), "miss");
}

TEST(ServiceProtocol, CompileErrorsCarryCodeAndDiagnostics) {
  Service svc;
  json::JValue resp = parse_ok(svc.process_line(request("x = (")));
  EXPECT_EQ(resp.get_string("status", ""), "compile_error");
  EXPECT_EQ(resp.get_string("code", "").substr(0, 2), "E2");
  const json::JValue* diags = resp.get("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_FALSE(diags->as_array().empty());
  EXPECT_EQ(diags->as_array()[0].get_string("severity", ""), "error");
  EXPECT_EQ(svc.stats().compile_errors, 1u);
}

TEST(ServiceProtocol, BudgetExceedingScriptDegradesToDiagnostic) {
  ServiceConfig cfg;
  cfg.budget.max_ast_nodes = 8;  // any real script blows this
  Service svc(cfg);
  json::JValue resp = parse_ok(
      svc.process_line(request("a = 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9")));
  EXPECT_EQ(resp.get_string("status", ""), "compile_error");
  EXPECT_EQ(resp.get_string("code", ""), "E0003");
}

TEST(ServiceProtocol, ExpiredDeadlineGetsE0009) {
  Service svc;
  auto past = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  json::JValue resp = parse_ok(svc.process_line(request("x = 1"), past));
  EXPECT_EQ(resp.get_string("status", ""), "deadline");
  EXPECT_EQ(resp.get_string("code", ""), "E0009");
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
}

TEST(ServiceProtocol, CrashingScriptIsIsolatedAndQuarantined) {
  ServiceConfig cfg;
  cfg.breaker.threshold = 2;
  cfg.breaker.cooldown_seconds = 3600.0;
  Service svc(cfg);
  json::JValue req{json::JObject{}};
  req.set("script", "a = ones(4,4); b = a + a; disp(sum(sum(b)))");
  req.set("np", 2);
  req.set("fault_plan", "crash=0@1");
  std::string line = req.dump();

  for (int i = 0; i < 2; ++i) {
    json::JValue resp = parse_ok(svc.process_line(line));
    EXPECT_EQ(resp.get_string("status", ""), "runtime_error") << i;
    const json::JValue* failures = resp.get("failures");
    ASSERT_NE(failures, nullptr);
    EXPECT_GE(failures->as_array().size(), 1u);
  }
  // Third strike: the breaker is open; no compile or run happens at all.
  json::JValue resp = parse_ok(svc.process_line(line));
  EXPECT_EQ(resp.get_string("status", ""), "quarantined");
  EXPECT_EQ(resp.get_string("code", ""), "E0010");
  EXPECT_GT(resp.get_number("retry_after", 0), 0.0);
  EXPECT_EQ(svc.stats().quarantined, 1u);
  EXPECT_EQ(svc.stats().breaker_trips, 1u);

  // A clean script from the same client is unaffected (keyed by content).
  json::JValue ok = parse_ok(svc.process_line(request("disp(1 + 1)")));
  EXPECT_EQ(ok.get_string("status", ""), "ok");
}

TEST(ServiceProtocol, OverloadResponseIsWellFormed) {
  Service svc;
  json::JValue resp = parse_ok(svc.overload_response(R"({"id":"req-9"})"));
  EXPECT_EQ(resp.get_string("status", ""), "shed");
  EXPECT_EQ(resp.get_string("code", ""), "E0008");
  EXPECT_EQ(resp.get_string("id", ""), "req-9");
  EXPECT_EQ(svc.stats().shed, 1u);
  // Even unparseable floods get a valid E0008 line back.
  json::JValue junk = parse_ok(svc.overload_response("\x01garbage\xff"));
  EXPECT_EQ(junk.get_string("code", ""), "E0008");
}

TEST(ServiceProtocol, ShutdownOpRaisesTheFlag)
{
  Service svc;
  EXPECT_FALSE(svc.shutdown_requested());
  json::JValue resp = parse_ok(svc.process_line(R"({"op":"shutdown"})"));
  EXPECT_EQ(resp.get_string("status", ""), "ok");
  EXPECT_TRUE(svc.shutdown_requested());
  EXPECT_TRUE(svc.cancel_flag()->load());
}

// ---- checkpoint/resume request fields --------------------------------------

namespace {

/// Scratch checkpoint root removed on scope exit.
struct ServiceTempDir {
  std::string path;
  ServiceTempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "otter-svc-ckpt-XXXXXX");
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    path = ::mkdtemp(buf.data());
  }
  ~ServiceTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

TEST(ServiceProtocol, MalformedFaultPlanIsE0013) {
  Service svc;  // library default accepts fault plans, but validates them
  json::JValue resp = parse_ok(svc.process_line(
      R"({"script":"x = 1;","fault_plan":"crash=zz"})"));
  EXPECT_EQ(resp.get_string("status", ""), "bad_request");
  EXPECT_EQ(resp.get_string("code", ""), "E0013");
  EXPECT_NE(resp.get_string("message", "").find("malformed fault plan"),
            std::string::npos);
}

TEST(ServiceProtocol, CheckpointFieldsNeedAConfiguredRoot) {
  Service svc;  // no checkpoint_root: the daemon default
  json::JValue resp = parse_ok(svc.process_line(
      R"({"script":"x = 1;","checkpoint_dir":"job1"})"));
  EXPECT_EQ(resp.get_string("code", ""), "E0012");
  json::JValue resume = parse_ok(svc.process_line(
      R"({"script":"x = 1;","resume":true})"));
  EXPECT_EQ(resume.get_string("code", ""), "E0012");
}

TEST(ServiceProtocol, CheckpointDirNameAndIntervalAreValidated) {
  ServiceTempDir root;
  ServiceConfig cfg;
  cfg.checkpoint_root = root.path;
  Service svc(cfg);
  for (const char* name : {"../escape", "a/b", "..", ".", "job one", ""}) {
    json::JValue req{json::JObject{}};
    req.set("script", "x = 1;");
    req.set("checkpoint_dir", name);
    if (std::string(name).empty()) req.set("resume", true);
    json::JValue resp = parse_ok(svc.process_line(req.dump()));
    EXPECT_EQ(resp.get_string("code", ""), "E0011") << "name: " << name;
  }
  json::JValue req{json::JObject{}};
  req.set("script", "x = 1;");
  req.set("checkpoint_dir", "job");
  req.set("checkpoint", 0);
  json::JValue resp = parse_ok(svc.process_line(req.dump()));
  EXPECT_EQ(resp.get_string("code", ""), "E0011");
}

// Integer fields are checked as numbers before any conversion: a fraction
// must not truncate to a valid value, and a value past int's range must not
// reach a float-to-int conversion (undefined behaviour).
TEST(ServiceProtocol, IntegerFieldsRejectFractionsAndHugeValues) {
  ServiceTempDir root;
  ServiceConfig cfg;
  cfg.checkpoint_root = root.path;
  Service svc(cfg);
  struct Case {
    const char* field;
    double value;
    const char* code;
  };
  for (const Case& c : {Case{"np", 1.7, "E0012"}, Case{"np", 1e300, "E0012"},
                        Case{"np", -1e300, "E0012"},
                        Case{"opt_level", 0.5, "E0011"},
                        Case{"opt_level", 2.9, "E0011"},
                        Case{"opt_level", 1, "E0011"},
                        Case{"retries", 0.5, "E0011"},
                        Case{"retries", 1e300, "E0011"},
                        Case{"checkpoint", 1.5, "E0011"},
                        Case{"checkpoint", 1e300, "E0011"},
                        Case{"rand_seed", 1.5, "E0011"},
                        Case{"rand_seed", -1, "E0011"},
                        Case{"rand_seed", 1e300, "E0011"}}) {
    json::JValue req{json::JObject{}};
    req.set("script", "x = 1;");
    req.set("checkpoint_dir", "job");
    req.set(c.field, c.value);
    json::JValue resp = parse_ok(svc.process_line(req.dump()));
    EXPECT_EQ(resp.get_string("status", ""), "bad_request")
        << c.field << " = " << c.value;
    EXPECT_EQ(resp.get_string("code", ""), c.code)
        << c.field << " = " << c.value;
  }
  // Integral values at the edges of their ranges still run.
  json::JValue ok = parse_ok(svc.process_line(
      R"j({"script":"disp(2)","np":2,"opt_level":0,"retries":0,)j"
      R"j("rand_seed":18446744073709549568})j"));
  EXPECT_EQ(ok.get_string("status", ""), "ok") << ok.dump();
  EXPECT_EQ(ok.get_string("output", ""), "2\n");
}

// A present field of the wrong JSON type is a malformed request, never its
// default: "np":"4" used to run on one rank and "run":"false" to run.
TEST(ServiceProtocol, WronglyTypedFieldsAreMalformed) {
  Service svc(ServiceConfig{});
  for (const char* line : {
           R"j({"script":"disp(nprocs)","np":"4"})j",
           R"j({"script":"disp(1)","opt_level":"1"})j",
           R"j({"script":"disp(1)","rand_seed":"7"})j",
           R"j({"script":"disp(1)","run":"false"})j",
           R"j({"script":"disp(1)","strict_infer":1})j",
           R"j({"script":"disp(1)","resume":"yes"})j",
           R"j({"script":"disp(1)","machine":5})j",
           R"j({"script":"disp(1)","mem_mb":"64"})j",
           R"j({"script":7})j",
           R"j({"op":["ping"]})j",
       }) {
    json::JValue resp = parse_ok(svc.process_line(line));
    EXPECT_EQ(resp.get_string("status", ""), "bad_request") << line;
    EXPECT_EQ(resp.get_string("code", ""), "E0011") << line;
  }
}

TEST(ServiceProtocol, CheckpointedRunWritesAndResumesOverTheProtocol) {
  ServiceTempDir root;
  ServiceConfig cfg;
  cfg.checkpoint_root = root.path;
  Service svc(cfg);

  json::JValue req{json::JObject{}};
  req.set("script",
          "a = ones(4, 4);\nb = a + a;\nc = b * 2;\ndisp(sum(sum(c)));\n");
  req.set("np", 2);
  req.set("checkpoint_dir", "job1");
  req.set("checkpoint", 1);

  json::JValue first = parse_ok(svc.process_line(req.dump()));
  ASSERT_EQ(first.get_string("status", ""), "ok") << first.dump();
  const json::JValue* ck = first.get("checkpoint");
  ASSERT_NE(ck, nullptr);
  EXPECT_GE(ck->get_number("written", 0), 1.0);
  EXPECT_FALSE(ck->get_bool("resumed", true));

  req.set("resume", true);
  json::JValue second = parse_ok(svc.process_line(req.dump()));
  ASSERT_EQ(second.get_string("status", ""), "ok") << second.dump();
  const json::JValue* ck2 = second.get("checkpoint");
  ASSERT_NE(ck2, nullptr);
  EXPECT_TRUE(ck2->get_bool("resumed", false));
  EXPECT_GT(ck2->get_number("resumed_statement", 0), 0.0);
  EXPECT_EQ(second.get_string("output", ""), first.get_string("output", ""));
}
