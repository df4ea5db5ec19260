#include "service/server.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <string_view>

#include "driver/pipeline.hpp"
#include "minimpi/fault.hpp"
#include "service/hash.hpp"
#include "support/diag.hpp"
#include "support/governor.hpp"
#include "support/snapshot.hpp"
#include "vm/bcgen.hpp"

namespace otter::service {

/// Everything the execution tier needs to run a compiled artifact once.
/// Built by handle_script after admission; consumed either in-process or
/// inside a sandbox child.
struct RunSetup {
  int np = 1;
  std::string machine;
  driver::ExecOptions eo;
  std::string ckpt_dir;
  std::string test_kill;  // chaos hook, validated + gated by handle_script
};

namespace {

const char* severity_name(DiagSeverity sev) {
  switch (sev) {
    case DiagSeverity::Error: return "error";
    case DiagSeverity::Warning: return "warning";
    case DiagSeverity::Note: return "note";
  }
  return "error";
}

/// Compact JSON rendering of a compile's diagnostics. The service cannot
/// use DiagEngine::to_json here: that form is pretty-printed across several
/// lines, which would tear the newline-delimited response framing.
json::JValue diags_json(const DiagEngine& diags) {
  json::JArray out;
  for (const Diagnostic& d : diags.diagnostics()) {
    json::JValue e{json::JObject{}};
    e.set("code", d.code);
    e.set("severity", severity_name(d.severity));
    e.set("line", static_cast<double>(d.loc.line));
    e.set("col", static_cast<double>(d.loc.col));
    e.set("message", d.message);
    out.push_back(std::move(e));
  }
  return json::JValue(std::move(out));
}

/// First error code of a failed compile ("" when only uncoded errors).
std::string first_error_code(const DiagEngine& diags) {
  for (const Diagnostic& d : diags.diagnostics()) {
    if (d.severity == DiagSeverity::Error && !d.code.empty()) return d.code;
  }
  return "";
}

/// Every request field the service reads and the JSON type it must have.
/// A present field of another type is a malformed request (E0011): reading
/// it as absent would run `"np":"4"` on one rank or `"run":"false"` anyway.
struct FieldType {
  std::string_view key;
  json::JValue::Kind kind;
};
constexpr FieldType kRequestFields[] = {
    {"op", json::JValue::Kind::String},
    {"script", json::JValue::Kind::String},
    {"machine", json::JValue::Kind::String},
    {"fault_plan", json::JValue::Kind::String},
    {"test_kill", json::JValue::Kind::String},
    {"checkpoint_dir", json::JValue::Kind::String},
    {"np", json::JValue::Kind::Number},
    {"opt_level", json::JValue::Kind::Number},
    {"rand_seed", json::JValue::Kind::Number},
    {"retries", json::JValue::Kind::Number},
    {"checkpoint", json::JValue::Kind::Number},
    {"mem_mb", json::JValue::Kind::Number},
    {"deadline", json::JValue::Kind::Number},
    {"run", json::JValue::Kind::Bool},
    {"strict_infer", json::JValue::Kind::Bool},
    {"resume", json::JValue::Kind::Bool},
};

/// The first field of `req` whose JSON type is wrong, or null.
const FieldType* mistyped_field(const json::JValue& req) {
  for (const FieldType& f : kRequestFields) {
    const json::JValue* v = req.get(f.key);
    if (v != nullptr && v->kind() != f.kind) return &f;
  }
  return nullptr;
}

const char* kind_name(json::JValue::Kind k) {
  switch (k) {
    case json::JValue::Kind::Bool: return "a boolean";
    case json::JValue::Kind::Number: return "a number";
    case json::JValue::Kind::String: return "a string";
    default: return "a value";
  }
}

/// Reads integer request field `key` (its type already checked); absent
/// reads as `dflt`. A non-integral value or one outside [lo, hi] reads as
/// nullopt, checked before any conversion: converting a double past T's
/// range is undefined behaviour.
template <typename T>
std::optional<T> integer_field(const json::JValue& req, std::string_view key,
                               T dflt, T lo, T hi) {
  const json::JValue* v = req.get(key);
  if (v == nullptr) return dflt;
  const double d = v->as_number();
  // `< hi + 1` rather than `<= hi`: UINT64_MAX rounds up to 2^64 as a
  // double, and 2^64 itself is out of range.
  if (!(d >= static_cast<double>(lo) && d < static_cast<double>(hi) + 1.0) ||
      std::trunc(d) != d) {
    return std::nullopt;
  }
  return static_cast<T>(d);
}

double seconds_until(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::duration<double>(deadline -
                                       std::chrono::steady_clock::now())
      .count();
}

bool looks_like_deadline(const mpi::SpmdFailure& f) {
  for (const mpi::RankFailure& rf : f.failures()) {
    if (rf.what.find("request deadline exceeded") != std::string::npos ||
        rf.what.find("run cancelled by the service") != std::string::npos) {
      return true;
    }
  }
  return false;
}

json::JValue rank_failures_json(const mpi::SpmdFailure& f) {
  json::JArray ranks;
  for (const mpi::RankFailure& rf : f.failures()) {
    json::JValue e{json::JObject{}};
    e.set("rank", rf.rank);
    e.set("primary", rf.primary);
    e.set("ops_completed", rf.ops_completed);
    e.set("what", rf.what);
    ranks.push_back(std::move(e));
  }
  return json::JValue(std::move(ranks));
}

/// Runs the artifact once and renders the outcome as an *undecorated*
/// partial response — status/code/message/output/failures/governor only.
/// The caller adds id/hash/cache/stats and drives counters + the breaker
/// off the status, which is what lets the sandboxed and in-process tiers
/// share one classification path (in sandbox mode this function runs in
/// the child, where counter state would be lost with the process).
/// Never throws: it is the per-request exception barrier, and in the child
/// an escaped exception would be an opaque protocol death instead of a
/// coded error.
json::JValue run_artifact(const driver::CompileResult& compiled,
                          const RunSetup& s) {
  json::JValue out{json::JObject{}};
  try {
    driver::ParallelRun run = driver::run_parallel(
        compiled.lir, mpi::profile_by_name(s.machine), s.np, s.eo);
    out.set("status", "ok");
    out.set("output", run.output);
    out.set("max_vtime", run.times.max_vtime());
    out.set("comm_ops", run.times.total_ops());
    if (!s.ckpt_dir.empty()) {
      json::JValue ck{json::JObject{}};
      ck.set("written", run.checkpoints_written);
      ck.set("resumed", run.resumed);
      ck.set("resumed_statement", run.resumed_statement);
      out.set("checkpoint", std::move(ck));
      if (!run.warnings.empty()) {
        json::JArray ws;
        for (const std::string& w : run.warnings)
          ws.push_back(json::JValue(w));
        out.set("warnings", json::JValue(std::move(ws)));
      }
    }
  } catch (const mpi::SpmdFailure& f) {
    if (looks_like_deadline(f)) {
      out.set("status", "deadline");
      out.set("code", "E0009");
      out.set("message",
              "request wall-clock deadline exceeded during execution");
    } else {
      // Surface the primary rank's diagnostic code (E5006 budget, E5003
      // shape guard, ...) instead of flattening everything to E5001.
      const std::string& rcode = f.first().code;
      out.set("status", "runtime_error");
      out.set("code", rcode.empty() ? "E5001" : rcode);
      out.set("message", f.what());
    }
    out.set("failures", rank_failures_json(f));
  } catch (const rt::RtError& e) {
    if (e.code == "E5004") {
      out.set("status", "deadline");
      out.set("code", "E0009");
    } else {
      out.set("status", "runtime_error");
      out.set("code", e.code.empty() ? "E5001" : e.code);
    }
    out.set("message", e.what());
  } catch (const std::bad_alloc& e) {
    // The executor's own barrier maps budget denials mid-run to a coded
    // RtError; this catches an allocation failing outside it.
    out.set("status", "runtime_error");
    out.set("code", "E5006");
    out.set("message", e.what());
  } catch (const std::exception& e) {
    out.set("status", "runtime_error");
    out.set("code", "E5001");
    out.set("message", e.what());
  }
  // The run's governor accounting rides back in the response; in sandbox
  // mode this is the child's ledger, i.e. exactly this request's usage.
  const gov::GovernorStats gs = gov::ResourceGovernor::instance().stats();
  json::JValue gj{json::JObject{}};
  gj.set("peak_bytes", gs.peak);
  gj.set("denials", gs.denials);
  gj.set("budget_bytes", s.eo.spmd.mem_budget_bytes);
  out.set("governor", std::move(gj));
  return out;
}

}  // namespace

Service::Service(ServiceConfig cfg)
    : cfg_(cfg), cache_(cfg.cache_bytes), breaker_(cfg.breaker) {}

std::chrono::steady_clock::time_point Service::deadline_for(
    const json::JValue& req) const {
  double secs = req.get_number("deadline", cfg_.default_deadline);
  if (!(secs > 0)) secs = cfg_.default_deadline;
  secs = std::min(secs, cfg_.max_deadline);
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(secs));
}

std::string Service::overload_response(const std::string& line) {
  shed_.fetch_add(1);
  received_.fetch_add(1);
  json::JValue resp{json::JObject{}};
  // Echo the id when the shed line parses; a flood of garbage still gets a
  // well-formed E0008 back.
  if (auto req = json::parse(line)) {
    if (const json::JValue* id = req->get("id")) resp.set("id", *id);
  }
  resp.set("status", "shed");
  resp.set("code", "E0008");
  resp.set("message",
           "server overloaded: admission queue full, request shed");
  attach_stats(resp);
  return resp.dump();
}

std::string Service::process_line(
    const std::string& line, std::chrono::steady_clock::time_point deadline) {
  received_.fetch_add(1);
  if (line.size() > cfg_.max_request_bytes) {
    return error_response(nullptr, "bad_request", "E0012",
                          "request exceeds the service admission limits: "
                          "request line of " + std::to_string(line.size()) +
                          " bytes (limit " +
                          std::to_string(cfg_.max_request_bytes) + ")")
        .dump();
  }
  json::ParseError perr;
  std::optional<json::JValue> req = json::parse(line, &perr);
  if (!req || !req->is_object()) {
    std::string why = req ? "request must be a JSON object"
                          : perr.reason + " at byte " +
                                std::to_string(perr.offset);
    return error_response(nullptr, "bad_request", "E0011",
                          "malformed service request: " + why)
        .dump();
  }
  if (deadline == std::chrono::steady_clock::time_point{}) {
    deadline = deadline_for(*req);
  }
  return process(*req, deadline).dump();
}

json::JValue Service::process(const json::JValue& req,
                              std::chrono::steady_clock::time_point deadline) {
  // Top-level exception barrier: nothing a request does may take down the
  // service loop. Anything escaping handle_script is a service bug, reported
  // as internal_error rather than death.
  try {
    if (const FieldType* f = mistyped_field(req)) {
      return error_response(&req, "bad_request", "E0011",
                            "malformed service request: \"" +
                                std::string(f->key) + "\" must be " +
                                kind_name(f->kind));
    }
    const std::string op = req.get_string("op", "compile_run");
    if (op == "ping") {
      json::JValue resp{json::JObject{}};
      if (const json::JValue* id = req.get("id")) resp.set("id", *id);
      resp.set("status", "ok");
      resp.set("pong", true);
      return resp;
    }
    if (op == "stats") {
      json::JValue resp{json::JObject{}};
      if (const json::JValue* id = req.get("id")) resp.set("id", *id);
      resp.set("status", "ok");
      attach_stats(resp);
      return resp;
    }
    if (op == "shutdown") {
      shutdown_.store(true, std::memory_order_relaxed);
      json::JValue resp{json::JObject{}};
      if (const json::JValue* id = req.get("id")) resp.set("id", *id);
      resp.set("status", "ok");
      resp.set("shutting_down", true);
      return resp;
    }
    if (op != "compile_run") {
      return error_response(&req, "bad_request", "E0011",
                            "malformed service request: unknown op \"" + op +
                                "\"");
    }
    return handle_script(req, deadline);
  } catch (const std::bad_alloc& e) {
    // Allocation failure on the request path itself (outside the run
    // barrier): still a per-request coded error, never daemon death.
    runtime_errors_.fetch_add(1);
    return error_response(&req, "runtime_error", "E5006",
                          std::string("memory budget exceeded: ") + e.what());
  } catch (const std::exception& e) {
    return error_response(&req, "internal_error", "",
                          std::string("internal service error: ") + e.what());
  } catch (...) {
    return error_response(&req, "internal_error", "",
                          "internal service error: unknown exception");
  }
}

json::JValue Service::handle_script(
    const json::JValue& req, std::chrono::steady_clock::time_point deadline) {
  const json::JValue* script_v = req.get("script");
  if (script_v == nullptr || !script_v->is_string()) {
    return error_response(&req, "bad_request", "E0011",
                          "malformed service request: missing string field "
                          "\"script\"");
  }
  const std::string& script = script_v->as_string();
  if (script.size() > cfg_.max_script_bytes) {
    return error_response(&req, "bad_request", "E0012",
                          "request exceeds the service admission limits: "
                          "script of " + std::to_string(script.size()) +
                          " bytes (limit " +
                          std::to_string(cfg_.max_script_bytes) + ")");
  }

  const std::optional<int> np = integer_field(req, "np", 1, 1, cfg_.max_np);
  if (!np) {
    return error_response(&req, "bad_request", "E0012",
                          "request exceeds the service admission limits: np=" +
                              req.get("np")->dump() + " (limit 1.." +
                              std::to_string(cfg_.max_np) + ")");
  }
  const std::optional<int> opt_level = integer_field(req, "opt_level", 2, 0, 2);
  if (!opt_level || *opt_level == 1) {
    return error_response(&req, "bad_request", "E0011",
                          "malformed service request: opt_level must be 0 "
                          "or 2");
  }
  const std::optional<uint64_t> rand_seed = integer_field<uint64_t>(
      req, "rand_seed", 1, 0, std::numeric_limits<uint64_t>::max());
  if (!rand_seed) {
    return error_response(&req, "bad_request", "E0011",
                          "malformed service request: \"rand_seed\" must be "
                          "an integer in 0..2^64-1");
  }
  const std::string machine = req.get_string("machine", "ideal");
  const bool strict_infer = req.get_bool("strict_infer", false);
  const bool want_run = req.get_bool("run", true);

  const std::string fault_spec = req.get_string("fault_plan", "");
  if (!fault_spec.empty() && !cfg_.allow_fault_plans) {
    return error_response(&req, "bad_request", "E0012",
                          "request exceeds the service admission limits: "
                          "fault injection is disabled on this server");
  }
  mpi::FaultPlan fault;
  if (!fault_spec.empty()) {
    try {
      fault = mpi::FaultPlan::parse(fault_spec);
    } catch (const mpi::FaultPlanError& e) {
      return error_response(&req, "bad_request", "E0013", e.what());
    } catch (const std::exception& e) {
      return error_response(&req, "bad_request", "E0011",
                            std::string("malformed service request: ") +
                                e.what());
    }
  }

  // ---- sandbox / governor request fields ------------------------------
  const double mem_mb = req.get_number("mem_mb", -1.0);
  if (req.get("mem_mb") != nullptr && (!(mem_mb >= 0) || mem_mb > 1e9)) {
    return error_response(&req, "bad_request", "E0011",
                          "malformed service request: \"mem_mb\" must be a "
                          "nonnegative number of MiB");
  }
  const uint64_t mem_bytes =
      mem_mb >= 0 ? static_cast<uint64_t>(mem_mb * 1024.0 * 1024.0)
                  : cfg_.default_mem_bytes;

  const std::optional<int> retries =
      integer_field(req, "retries", 0, 0, cfg_.max_retries);
  if (!retries) {
    return error_response(&req, "bad_request", "E0011",
                          "malformed service request: \"retries\" must be in "
                          "0.." + std::to_string(cfg_.max_retries));
  }

  const std::string test_kill = req.get_string("test_kill", "");
  if (!test_kill.empty()) {
    if (!cfg_.allow_fault_plans) {
      return error_response(&req, "bad_request", "E0012",
                            "request exceeds the service admission limits: "
                            "fault injection is disabled on this server");
    }
    if (cfg_.isolate != IsolateMode::Process) {
      return error_response(&req, "bad_request", "E0012",
                            "request exceeds the service admission limits: "
                            "\"test_kill\" requires --isolate=process");
    }
    if (test_kill != "segv" && test_kill != "kill" && test_kill != "exit" &&
        test_kill != "hang") {
      return error_response(&req, "bad_request", "E0011",
                            "malformed service request: \"test_kill\" must "
                            "be segv, kill, exit, or hang");
    }
  }

  // ---- checkpoint/resume request fields -------------------------------
  // The client names a directory *under* the server's checkpoint root; a
  // bare [A-Za-z0-9._-] name (no separators, no dot-dot) keeps requests
  // from escaping it.
  const std::string ckpt_name = req.get_string("checkpoint_dir", "");
  const std::optional<int> ckpt_interval =
      integer_field(req, "checkpoint", 16, 1, 1000000);
  const bool ckpt_resume = req.get_bool("resume", false);
  std::string ckpt_dir;
  if (!ckpt_name.empty() || ckpt_resume) {
    if (cfg_.checkpoint_root.empty()) {
      return error_response(&req, "bad_request", "E0012",
                            "request exceeds the service admission limits: "
                            "checkpointing is disabled on this server "
                            "(start otterd with --checkpoint-root)");
    }
    const bool clean_name =
        !ckpt_name.empty() && ckpt_name.size() <= 64 && ckpt_name != "." &&
        ckpt_name != ".." &&
        std::all_of(ckpt_name.begin(), ckpt_name.end(), [](unsigned char c) {
          return std::isalnum(c) != 0 || c == '.' || c == '_' || c == '-';
        });
    if (!clean_name) {
      return error_response(&req, "bad_request", "E0011",
                            "malformed service request: \"checkpoint_dir\" "
                            "must be a bare [A-Za-z0-9._-] name");
    }
    if (!ckpt_interval) {
      return error_response(&req, "bad_request", "E0011",
                            "malformed service request: \"checkpoint\" "
                            "interval must be in 1..1000000 statements");
    }
    ckpt_dir = cfg_.checkpoint_root + "/" + ckpt_name;
  }

  // Quarantine check before any compile/run work is spent on the script.
  const std::string hash = script_hash(script);
  const CircuitBreaker::Verdict verdict = breaker_.admit(hash);
  if (verdict == CircuitBreaker::Verdict::Quarantined) {
    quarantined_.fetch_add(1);
    json::JValue resp = error_response(
        &req, "quarantined", "E0010",
        "script quarantined after repeated crashes (circuit breaker open)");
    resp.set("hash", hash);
    resp.set("retry_after", breaker_.retry_after(hash));
    return resp;
  }

  double remaining = seconds_until(deadline);
  if (remaining <= 0) {
    deadline_expired_.fetch_add(1);
    return error_response(&req, "deadline", "E0009",
                          "request wall-clock deadline exceeded before "
                          "compilation started");
  }

  // ---- compile (or pull the artifact out of the cache) ----------------
  const std::string key = artifact_key(hash, *opt_level, machine, strict_infer);
  std::shared_ptr<const Artifact> art = cache_.lookup(key);
  const bool cache_hit = art != nullptr;
  if (!cache_hit) {
    driver::CompileOptions copts;
    copts.opt.level = *opt_level;
    copts.budget = cfg_.budget;
    if (copts.budget.max_wall_seconds <= 0 ||
        copts.budget.max_wall_seconds > remaining) {
      copts.budget.max_wall_seconds = remaining;
    }
    copts.strict_infer = strict_infer;
    copts.source_name = "<request " + hash + ">";
    std::shared_ptr<const driver::CompileResult> compiled =
        driver::compile_script(script, {}, copts);
    if (!compiled->ok) {
      std::string code = first_error_code(compiled->diags);
      const char* status = "compile_error";
      if (code == "E0004" && seconds_until(deadline) <= 0) {
        // The wall-clock budget that fired was the request deadline, not
        // the server's own ceiling: report E0009 so clients know to retry.
        code = "E0009";
        status = "deadline";
        deadline_expired_.fetch_add(1);
      } else {
        compile_errors_.fetch_add(1);
      }
      json::JValue resp =
          error_response(&req, status, code.c_str(), "compilation failed");
      resp.set("hash", hash);
      resp.set("cache", "miss");
      resp.set("diagnostics", diags_json(compiled->diags));
      return resp;
    }
    auto fresh = std::make_shared<Artifact>();
    fresh->diags = diags_json(compiled->diags);
    fresh->bytes = estimate_artifact_bytes(compiled->lir, script.size());
    fresh->compiled = std::move(compiled);
    // Compile the bytecode once per artifact: every request that hits this
    // entry shares the immutable module instead of re-lowering it.
    auto mod = std::make_shared<vm::BcModule>(
        vm::compile_bytecode(fresh->compiled->lir));
    size_t code_bytes = 0;
    for (const vm::BcFunction& f : mod->functions)
      code_bytes += f.chunk.code.size() * sizeof(vm::BcInstr);
    fresh->bytes += mod->script.code.size() * sizeof(vm::BcInstr) +
                    code_bytes;
    fresh->bytecode = std::move(mod);
    cache_.insert(key, fresh);
    art = std::move(fresh);
  }

  json::JValue resp{json::JObject{}};
  if (const json::JValue* id = req.get("id")) resp.set("id", *id);
  resp.set("hash", hash);
  resp.set("cache", cache_hit ? "hit" : "miss");
  resp.set("diagnostics", art->diags);

  if (!want_run) {
    ok_.fetch_add(1);
    if (verdict == CircuitBreaker::Verdict::Probe) {
      breaker_.record_success(hash);
    }
    resp.set("status", "ok");
    attach_stats(resp);
    return resp;
  }

  remaining = seconds_until(deadline);
  if (remaining <= 0) {
    deadline_expired_.fetch_add(1);
    breaker_.record_failure(hash);  // full-deadline burn counts as a crash
    return error_response(&req, "deadline", "E0009",
                          "request wall-clock deadline exceeded before "
                          "execution started");
  }

  // ---- run: in-process barrier or fork-per-request sandbox -------------
  RunSetup setup;
  setup.np = *np;
  setup.machine = machine;
  setup.ckpt_dir = ckpt_dir;
  setup.test_kill = test_kill;
  driver::ExecOptions& eo = setup.eo;
  // The artifact (held alive for the whole request) owns the module; the
  // sandbox fork inherits the mapping, so the pointer stays valid in the
  // child too.
  eo.bytecode = art->bytecode.get();
  eo.rand_seed = *rand_seed;
  eo.spmd.fault = fault;
  eo.spmd.run_deadline = deadline;
  eo.spmd.cancel = &shutdown_;
  eo.spmd.mem_budget_bytes = mem_bytes;
  if (!ckpt_dir.empty()) {
    eo.ckpt.interval = static_cast<uint32_t>(*ckpt_interval);
    eo.ckpt.dir = ckpt_dir;
    eo.ckpt.resume = ckpt_resume;
  }

  json::JValue partial =
      cfg_.isolate == IsolateMode::Process
          ? run_sandboxed(*art->compiled, std::move(setup), deadline, *retries)
          : run_artifact(*art->compiled, setup);

  // Keep the retention budget honest for successes *and* failures — a crash
  // may well have happened after several generations were committed (that
  // is the point), and the next resume must find them pruned, not grown.
  if (!ckpt_dir.empty())
    snap::prune_checkpoints(ckpt_dir, cfg_.checkpoint_bytes);

  const std::string status = partial.get_string("status", "internal_error");
  if (status == "ok") {
    ok_.fetch_add(1);
    breaker_.record_success(hash);
    resp.set("status", "ok");
    for (const char* key :
         {"output", "max_vtime", "comm_ops", "checkpoint", "warnings",
          "governor", "attempts"}) {
      if (const json::JValue* v = partial.get(key)) resp.set(key, *v);
    }
    attach_stats(resp);
    return resp;
  }

  // Failure: the breaker and the counters are fed from the classification,
  // which makes a sandboxed crash (E0014) advance the same quarantine
  // machinery an in-process exception always has.
  breaker_.record_failure(hash);
  const std::string code = partial.get_string("code", "E5001");
  if (status == "deadline") {
    deadline_expired_.fetch_add(1);
  } else {
    runtime_errors_.fetch_add(1);
  }
  if (code == "E0014") worker_crashes_.fetch_add(1);
  json::JValue fr =
      error_response(&req, status.c_str(), code.c_str(),
                     partial.get_string("message", "execution failed"));
  for (const char* key :
       {"failures", "worker_stderr", "governor", "attempts"}) {
    if (const json::JValue* v = partial.get(key)) fr.set(key, *v);
  }
  fr.set("hash", hash);
  fr.set("cache", cache_hit ? "hit" : "miss");
  return fr;
}

json::JValue Service::run_sandboxed(
    const driver::CompileResult& compiled, RunSetup s,
    std::chrono::steady_clock::time_point deadline, int retries) {
  for (int attempt = 0;; ++attempt) {
    SandboxLimits lim;
    lim.mem_budget_bytes = s.eo.spmd.mem_budget_bytes;
    const double remaining = seconds_until(deadline);
    // CPU backstop: virtual-time ranks are real threads, so CPU time can
    // legitimately exceed wall time by ~np. Generous on purpose — the
    // wall-clock SIGKILL is the primary kill path.
    lim.cpu_limit_seconds =
        remaining > 0 ? remaining * (s.np + 1) + 2.0 : 0.0;
    lim.kill_grace = cfg_.kill_grace;
    lim.stderr_cap = cfg_.stderr_cap;
    lim.test_kill = s.test_kill;
    lim.cancel = &shutdown_;

    const SandboxOutcome oc = run_in_sandbox(
        [&]() { return run_artifact(compiled, s).dump(); }, deadline, lim,
        supervisor_);

    if (oc.replied) {
      // Clean reply — success or a deterministic coded error; either way
      // there is nothing a respawn would change.
      json::JValue partial{json::JObject{}};
      if (std::optional<json::JValue> p = json::parse(oc.reply);
          p && p->is_object()) {
        partial = std::move(*p);
      } else {
        partial.set("status", "runtime_error");
        partial.set("code", "E0014");
        partial.set("message", "worker died: torn or unparseable reply");
        if (!oc.child_stderr.empty())
          partial.set("worker_stderr", oc.child_stderr);
      }
      if (attempt > 0) partial.set("attempts", attempt + 1);
      return partial;
    }

    if (oc.timed_out) {
      // The SIGKILL backstop fired (deadline or daemon shutdown). No time
      // is left, so the retry ladder does not apply.
      json::JValue partial{json::JObject{}};
      partial.set("status", "deadline");
      partial.set("code", "E0009");
      partial.set("message",
                  "request wall-clock deadline exceeded during execution "
                  "(worker killed)");
      if (!oc.child_stderr.empty())
        partial.set("worker_stderr", oc.child_stderr);
      if (attempt > 0) partial.set("attempts", attempt + 1);
      return partial;
    }

    // The child died without replying. Crashes are the retryable class
    // (PR 7's ladder): respawn with checkpoint resume when available, so a
    // mid-run death continues instead of starting over.
    if (attempt < retries && seconds_until(deadline) > 0) {
      worker_retries_.fetch_add(1);
      if (!s.ckpt_dir.empty()) s.eo.ckpt.resume = true;
      continue;
    }
    json::JValue partial{json::JObject{}};
    partial.set("status", "runtime_error");
    partial.set("code", "E0014");
    partial.set("message",
                oc.signaled
                    ? "worker died: signal " + std::to_string(oc.term_signal)
                    : "worker died: exit status " +
                          std::to_string(oc.exit_code) + " before replying");
    if (!oc.child_stderr.empty())
      partial.set("worker_stderr", oc.child_stderr);
    if (attempt > 0) partial.set("attempts", attempt + 1);
    return partial;
  }
}

json::JValue Service::error_response(const json::JValue* req,
                                     const char* status, const char* code,
                                     std::string message) {
  switch (status[0]) {
    // Counter bumps for the statuses whose single construction site is
    // here; the richer paths (deadline, shed, quarantine, runtime) count
    // at their decision points because one status can have several causes.
    case 'b': bad_requests_.fetch_add(1); break;
    case 'i': internal_errors_.fetch_add(1); break;
    default: break;
  }
  json::JValue resp{json::JObject{}};
  if (req != nullptr) {
    if (const json::JValue* id = req->get("id")) resp.set("id", *id);
  }
  resp.set("status", status);
  if (code != nullptr && code[0] != '\0') resp.set("code", code);
  resp.set("message", std::move(message));
  attach_stats(resp);
  return resp;
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.received = received_.load();
  s.ok = ok_.load();
  s.compile_errors = compile_errors_.load();
  s.runtime_errors = runtime_errors_.load();
  s.deadline_expired = deadline_expired_.load();
  s.shed = shed_.load();
  s.quarantined = quarantined_.load();
  s.bad_requests = bad_requests_.load();
  s.internal_errors = internal_errors_.load();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  s.breaker_trips = breaker_.trip_count();
  s.cache_bytes = cache_.bytes();
  s.cache_entries = cache_.entries();
  s.worker_crashes = worker_crashes_.load();
  s.worker_retries = worker_retries_.load();
  const Supervisor::Stats sb = supervisor_.stats();
  s.sandbox_spawned = sb.spawned;
  s.sandbox_reaped = sb.reaped;
  s.sandbox_killed = sb.killed;
  const gov::GovernorStats gs = gov::ResourceGovernor::instance().stats();
  s.gov_peak_bytes = gs.peak;
  s.gov_denials = gs.denials;
  return s;
}

void Service::attach_stats(json::JValue& resp) {
  const ServiceStats s = stats();
  json::JValue j{json::JObject{}};
  j.set("received", s.received);
  j.set("ok", s.ok);
  j.set("compile_errors", s.compile_errors);
  j.set("runtime_errors", s.runtime_errors);
  j.set("deadline_expired", s.deadline_expired);
  j.set("shed", s.shed);
  j.set("quarantined", s.quarantined);
  j.set("bad_requests", s.bad_requests);
  j.set("internal_errors", s.internal_errors);
  j.set("cache_hits", s.cache_hits);
  j.set("cache_misses", s.cache_misses);
  j.set("cache_evictions", s.cache_evictions);
  j.set("breaker_trips", s.breaker_trips);
  j.set("cache_bytes", s.cache_bytes);
  j.set("cache_entries", s.cache_entries);
  j.set("worker_crashes", s.worker_crashes);
  j.set("worker_retries", s.worker_retries);
  j.set("sandbox_spawned", s.sandbox_spawned);
  j.set("sandbox_reaped", s.sandbox_reaped);
  j.set("sandbox_killed", s.sandbox_killed);
  j.set("gov_peak_bytes", s.gov_peak_bytes);
  j.set("gov_denials", s.gov_denials);
  resp.set("stats", std::move(j));
}

// -- WorkerPool ---------------------------------------------------------------

WorkerPool::WorkerPool(int workers, size_t queue_limit) : limit_(queue_limit) {
  workers_.reserve(static_cast<size_t>(std::max(1, workers)));
  for (int i = 0; i < std::max(1, workers); ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

WorkerPool::~WorkerPool() { shutdown(); }

bool WorkerPool::try_submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= limit_) return false;
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return true;
}

void WorkerPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

size_t WorkerPool::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void WorkerPool::worker_main() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();  // the Service's own barrier makes this no-throw
  }
}

}  // namespace otter::service
