// otterc — command-line driver for the Otter MATLAB compiler.
//
// Usage:
//   otterc SCRIPT.m [options]
//
// Options:
//   --emit=ast|lir|c       print the selected representation and exit
//   --run=interp|direct|cc execute via the interpreter, the bytecode VM
//                          (default, at every opt level), or generated C
//                          compiled by the host toolchain
//   --np=N                 number of ranks (default 1)
//   --machine=NAME         meiko_cs2 | sparc20_cluster | enterprise_smp |
//                          ideal (default ideal)
//   --dist=block|cyclic    data-distribution strategy (default block)
//   --no-peephole          disable the peephole pass (paper pass 6)
//   --seed=N               seed for rand (default 1)
//   --times                print per-rank virtual times and minor page
//                          faults after the run
//   --fault-plan=SPEC      deterministic fault injection, e.g.
//                          "seed=42,drop=0.1,crash=2@7" (see minimpi/fault.hpp)
//   --timeout=SECS         watchdog deadline for a blocked rank (default 30)
//   --retries=N            re-run a failed SPMD execution up to N extra times
//                          with capped, jittered virtual-time backoff
//   --retry-cap=SECS       ceiling on a single retry's backoff (default 30;
//                          0 = uncapped exponential)
//   --checkpoint-dir=DIR   enable coordinated checkpointing into DIR
//   --checkpoint=N         statements between checkpoints (default 16;
//                          needs --checkpoint-dir)
//   --resume               restore the newest valid checkpoint in
//                          --checkpoint-dir before running; with --retries,
//                          retry attempts resume automatically
//   --diag-format=text|json  diagnostic rendering (default text)
//   --max-errors=N         stop after N errors (0 = unlimited, the default)
//   --strict-infer         unresolvable shapes are compile errors instead of
//                          runtime-guarded assumptions
//   --budget-seconds=SECS  compile-time wall-clock budget (default 30)
//   --lint                 run the otterlint static analysis and exit (W3xxx
//                          findings; exit 0 clean, 1 findings)
//   --analyze              like --lint, plus the abstract-interpretation
//                          findings: W3208 (provable out-of-bounds index /
//                          invalid extent), W3209 (provably zero-trip loop),
//                          W3210 (rank-divergent communication)
//   --Werror               report lint findings as errors (with --lint or
//                          --analyze this makes findings exit with code 65)
//   --no-verify-lir        skip the post-lowering LIR self-verification
//   --no-dse               disable the liveness-driven dead-statement
//                          elimination
//   -O0 | -O1 | -O2        LIR optimizer level (default -O2): -O1 adds copy
//                          propagation, fusion of element-wise chains, and
//                          dead-result sweeping; -O2 adds communication CSE
//                          and loop-invariant communication motion
//   --dump-bytecode        print the compiled LIR bytecode (register VM
//                          form) and exit
//   --no-fuse              keep element-wise chains unfused at -O1/-O2
//   --no-licm              keep loop-invariant communication in place
//   --no-guard-elim        keep proven ShapeGuards in the LIR at -O2
//   --dump-lir=pre-opt|post-opt  print the LIR before or after the
//                          optimizer and exit (post-opt == --emit=lir)
//   --mem-mb=N             matrix-memory budget for the run in MiB; past it
//                          allocations fail with E5006 instead of driving
//                          the host into swap/OOM (0 = unlimited, the
//                          default). Travels with --remote requests.
//   --remote=SOCKET        ship the request to an otterd daemon instead of
//                          compiling locally (np/machine/opt level/seed/
//                          fault plan/deadline/mem budget/retries travel
//                          with it)
//   --op=ping|stats|shutdown  control request for --remote (no script)
//   --deadline=SECS        per-request deadline for --remote
//
// Exit codes (sysexits-style so scripts and the fuzzer can triage):
//   0  success
//   64 usage error (bad flags, daemon rejected the request as malformed)
//   65 the input could not be compiled (diagnostics printed)
//   66 the input file could not be opened
//   70 the program failed at run time (RtError / interpreter / SPMD
//      failure / request deadline)
//   71 internal error (unexpected exception)
//   75 transient daemon refusal — overloaded (E0008) or quarantined
//      (E0010); retry later (EX_TEMPFAIL)
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "analysis/lint.hpp"
#include "codegen/ccrun.hpp"
#include "codegen/emit.hpp"
#include "driver/pipeline.hpp"
#include "interp/value.hpp"
#include "service/client.hpp"
#include "support/governor.hpp"
#include "support/json.hpp"
#include "vm/bcgen.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 64;     // EX_USAGE
constexpr int kExitCompile = 65;   // EX_DATAERR: input rejected
constexpr int kExitNoInput = 66;   // EX_NOINPUT
constexpr int kExitRuntime = 70;   // EX_SOFTWARE: program failed at run time
constexpr int kExitInternal = 71;  // EX_OSERR-adjacent: compiler bug
constexpr int kExitTempFail = 75;  // EX_TEMPFAIL: daemon shed or quarantined

struct Options {
  std::string script_path;
  std::string emit;
  std::string run = "direct";
  int np = 1;
  std::string machine = "ideal";
  otter::rt::Dist dist = otter::rt::Dist::RowBlock;
  bool peephole = true;
  bool times = false;
  uint64_t seed = 1;
  std::string fault_plan;
  double timeout = 30.0;
  int retries = 0;
  double retry_cap = 30.0;
  uint32_t checkpoint = 0;      // interval in statements (0 = default 16)
  std::string checkpoint_dir;   // empty = checkpointing off
  bool resume = false;
  std::string diag_format = "text";
  size_t max_errors = 0;
  bool strict_infer = false;
  double budget_seconds = 30.0;
  bool lint = false;
  bool analyze = false;
  bool werror = false;
  bool verify_lir = true;
  bool dse = true;
  int opt_level = 2;
  bool fuse = true;
  bool licm = true;
  bool guard_elim = true;
  bool dump_bytecode = false;
  std::string dump_lir;
  std::string remote;      // otterd socket path; empty = compile locally
  std::string remote_op;   // ping | stats | shutdown (needs --remote)
  double deadline = 0.0;   // remote per-request deadline (0 = server default)
  double mem_mb = 0.0;     // matrix-memory budget in MiB (0 = unlimited)
};

/// MiB → bytes for the governor; flag values are validated nonnegative.
uint64_t mem_budget_bytes(double mem_mb) {
  return static_cast<uint64_t>(mem_mb * 1024.0 * 1024.0);
}

int usage() {
  std::cerr <<
      "usage: otterc SCRIPT.m [--emit=ast|lir|c] [--run=interp|direct|cc]\n"
      "              [--np=N] [--machine=NAME] [--dist=block|cyclic]\n"
      "              [--no-peephole] [--seed=N] [--times]\n"
      "              [--fault-plan=SPEC] [--timeout=SECS] [--retries=N]\n"
      "              [--retry-cap=SECS]\n"
      "              [--checkpoint-dir=DIR [--checkpoint=N] [--resume]]\n"
      "              [--diag-format=text|json] [--max-errors=N]\n"
      "              [--strict-infer] [--budget-seconds=SECS]\n"
      "              [--lint] [--analyze] [--Werror] [--no-verify-lir]\n"
      "              [--no-dse]\n"
      "              [-O0|-O1|-O2] [--no-fuse] [--no-licm] [--no-guard-elim]\n"
      "              [--dump-bytecode]\n"
      "              [--dump-lir=pre-opt|post-opt]\n"
      "              [--mem-mb=N]\n"
      "              [--remote=SOCKET [--op=ping|stats|shutdown]\n"
      "               [--deadline=SECS]]\n";
  return kExitUsage;
}

bool parse_args(int argc, char** argv, Options& o) try {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* prefix) -> std::optional<std::string> {
      size_t n = std::strlen(prefix);
      if (a.rfind(prefix, 0) == 0) return a.substr(n);
      return std::nullopt;
    };
    if (auto v = value("--emit=")) o.emit = *v;
    else if (auto v = value("--run=")) o.run = *v;
    else if (auto v = value("--np=")) o.np = std::stoi(*v);
    else if (auto v = value("--machine=")) o.machine = *v;
    else if (auto v = value("--seed=")) o.seed = std::stoull(*v);
    else if (auto v = value("--fault-plan=")) o.fault_plan = *v;
    else if (auto v = value("--timeout=")) o.timeout = std::stod(*v);
    else if (auto v = value("--retries=")) o.retries = std::stoi(*v);
    else if (auto v = value("--retry-cap=")) o.retry_cap = std::stod(*v);
    else if (auto v = value("--checkpoint-dir=")) o.checkpoint_dir = *v;
    else if (auto v = value("--checkpoint=")) {
      o.checkpoint = static_cast<uint32_t>(std::stoul(*v));
      if (o.checkpoint == 0) return false;
    }
    else if (auto v = value("--diag-format=")) o.diag_format = *v;
    else if (auto v = value("--max-errors=")) {
      o.max_errors = static_cast<size_t>(std::stoull(*v));
    } else if (auto v = value("--budget-seconds=")) {
      o.budget_seconds = std::stod(*v);
    } else if (auto v = value("--dist=")) {
      o.dist = (*v == "cyclic") ? otter::rt::Dist::Cyclic
                                : otter::rt::Dist::RowBlock;
    } else if (a == "--dump-bytecode") o.dump_bytecode = true;
    else if (auto v = value("--dump-lir=")) o.dump_lir = *v;
    else if (auto v = value("--remote=")) o.remote = *v;
    else if (auto v = value("--op=")) o.remote_op = *v;
    else if (auto v = value("--deadline=")) o.deadline = std::stod(*v);
    else if (auto v = value("--mem-mb=")) {
      o.mem_mb = std::stod(*v);
      if (!(o.mem_mb >= 0.0)) return false;  // negative or NaN
    }
    else if (a == "-O0") o.opt_level = 0;
    else if (a == "-O1") o.opt_level = 1;
    else if (a == "-O2") o.opt_level = 2;
    else if (a == "--no-fuse") o.fuse = false;
    else if (a == "--no-licm") o.licm = false;
    else if (a == "--no-guard-elim") o.guard_elim = false;
    else if (a == "--no-peephole") o.peephole = false;
    else if (a == "--strict-infer") o.strict_infer = true;
    else if (a == "--resume") o.resume = true;
    else if (a == "--times") o.times = true;
    else if (a == "--lint") o.lint = true;
    else if (a == "--analyze") o.analyze = true;
    else if (a == "--Werror") o.werror = true;
    else if (a == "--no-verify-lir") o.verify_lir = false;
    else if (a == "--no-dse") o.dse = false;
    else if (!a.empty() && a[0] == '-') return false;
    else if (o.script_path.empty()) o.script_path = a;
    else return false;
  }
  if (o.diag_format != "text" && o.diag_format != "json") return false;
  // --checkpoint / --resume are meaningless without a directory to put the
  // generations in (or read them back from).
  if ((o.checkpoint > 0 || o.resume) && o.checkpoint_dir.empty()) return false;
  if (!o.dump_lir.empty() && o.dump_lir != "pre-opt" &&
      o.dump_lir != "post-opt") {
    return false;
  }
  if (!o.remote_op.empty()) {
    // Control ops go to the daemon and need no input script.
    return !o.remote.empty() && (o.remote_op == "ping" ||
                                 o.remote_op == "stats" ||
                                 o.remote_op == "shutdown");
  }
  return !o.script_path.empty();
} catch (const std::exception&) {
  return false;  // malformed numeric flag value: stoi/stod/stoull threw
}

std::string dirname_of(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

/// The --times report: each rank's virtual time and the minor page faults
/// its thread took.
void print_rank_times(const otter::mpi::RunResult& times) {
  for (size_t r = 0; r < times.vtimes.size(); ++r) {
    std::cerr << "rank " << r << " vtime " << times.vtimes[r] << "s, "
              << times.minor_faults[r] << " minor faults\n";
  }
}

/// Structured per-rank failure report for a failed SPMD run.
void print_failure(const otter::mpi::SpmdFailure& e) {
  std::cerr << "otterc: " << e.what() << '\n';
  for (const otter::mpi::RankFailure& f : e.failures()) {
    std::cerr << "  rank " << f.rank << " ["
              << (f.primary ? "failed" : "aborted") << ", "
              << f.ops_completed << " comm ops]: " << f.what << '\n';
  }
}

/// Renders the accumulated diagnostics in the selected format.
void print_diags(const otter::DiagEngine& diags, const Options& opt) {
  if (opt.diag_format == "json") {
    diags.print_json(std::cerr);
  } else {
    diags.print(std::cerr);
  }
}

/// Uniform rendering of a located, coded runtime failure.
int report_runtime_error(const std::string& code, otter::SourceLoc loc,
                         const char* what) {
  std::cerr << "otterc: runtime error";
  if (!code.empty()) std::cerr << " [" << code << ']';
  if (loc.valid()) std::cerr << " at line " << loc.line;
  std::cerr << ": " << what << '\n';
  return kExitRuntime;
}

/// Ships the request to an otterd daemon and renders its JSON response,
/// mapping the protocol status onto the local exit-code contract (plus 75,
/// EX_TEMPFAIL, for transient refusals a client should retry).
int run_remote(const Options& opt, const std::string& source) {
  namespace json = otter::json;
  json::JValue req{json::JObject{}};
  if (!opt.remote_op.empty()) {
    req.set("op", opt.remote_op);
  } else {
    req.set("op", "compile_run");
    req.set("script", source);
    req.set("np", opt.np);
    req.set("machine", opt.machine);
    req.set("opt_level", opt.opt_level);
    req.set("strict_infer", opt.strict_infer);
    req.set("rand_seed", opt.seed);
    if (!opt.fault_plan.empty()) req.set("fault_plan", opt.fault_plan);
    if (opt.deadline > 0) req.set("deadline", opt.deadline);
    if (opt.mem_mb > 0) req.set("mem_mb", opt.mem_mb);
    if (opt.retries > 0) req.set("retries", opt.retries);
    if (!opt.checkpoint_dir.empty()) {
      req.set("checkpoint_dir", opt.checkpoint_dir);
      if (opt.checkpoint > 0)
        req.set("checkpoint", static_cast<double>(opt.checkpoint));
      if (opt.resume) req.set("resume", true);
    }
  }

  std::string err;
  int fd = otter::service::unix_connect(opt.remote, &err);
  if (fd < 0) {
    std::cerr << "otterc: " << err << '\n';
    return kExitTempFail;  // daemon not up (yet); retryable
  }
  std::string line;
  bool io_ok = otter::service::send_line(fd, req.dump()) &&
               otter::service::recv_line(fd, &line);
  ::close(fd);
  if (!io_ok) {
    std::cerr << "otterc: daemon connection dropped mid-request\n";
    return kExitTempFail;
  }

  std::optional<json::JValue> resp = json::parse(line);
  if (!resp || !resp->is_object()) {
    std::cerr << "otterc: unintelligible daemon response: " << line << '\n';
    return kExitInternal;
  }
  if (opt.remote_op == "stats") {
    std::cout << line << '\n';  // raw JSON: stats consumers want the machine form
    return kExitOk;
  }

  const std::string status = resp->get_string("status", "internal_error");
  if (const json::JValue* diags = resp->get("diagnostics")) {
    for (const json::JValue& d : diags->as_array()) {
      std::cerr << "otterc: " << d.get_string("severity", "error");
      std::string code = d.get_string("code", "");
      if (!code.empty()) std::cerr << " [" << code << ']';
      double dline = d.get_number("line", 0);
      if (dline > 0) std::cerr << " at line " << static_cast<long>(dline);
      std::cerr << ": " << d.get_string("message", "") << '\n';
    }
  }
  if (status == "ok") {
    if (const json::JValue* ws = resp->get("warnings")) {
      for (const json::JValue& w : ws->as_array())
        std::cerr << "otterc: warning " << w.as_string() << '\n';
    }
    if (opt.times) {
      if (const json::JValue* ck = resp->get("checkpoint")) {
        std::cerr << "checkpoints written "
                  << static_cast<long>(ck->get_number("written", 0));
        if (ck->get_bool("resumed", false)) {
          std::cerr << ", resumed at statement "
                    << static_cast<long>(ck->get_number("resumed_statement", 0));
        }
        std::cerr << '\n';
      }
    }
    std::cout << resp->get_string("output", "");
    return kExitOk;
  }
  std::cerr << "otterc: daemon: " << status;
  std::string code = resp->get_string("code", "");
  if (!code.empty()) std::cerr << " [" << code << ']';
  std::cerr << ": " << resp->get_string("message", "") << '\n';
  // A sandboxed worker's captured stderr — the only debuggable trace a
  // crashed child leaves behind (assertion text, sanitizer report, ...).
  std::string wstderr = resp->get_string("worker_stderr", "");
  if (!wstderr.empty()) {
    std::cerr << "  worker stderr:\n";
    std::istringstream ws(wstderr);
    for (std::string wl; std::getline(ws, wl);)
      std::cerr << "    " << wl << '\n';
  }
  if (const json::JValue* failures = resp->get("failures")) {
    for (const json::JValue& f : failures->as_array()) {
      std::cerr << "  rank " << static_cast<long>(f.get_number("rank", -1))
                << " [" << (f.get_bool("primary", false) ? "failed" : "aborted")
                << ", " << static_cast<long>(f.get_number("ops_completed", 0))
                << " comm ops]: " << f.get_string("what", "") << '\n';
    }
  }
  if (status == "compile_error") return kExitCompile;
  if (status == "runtime_error" || status == "deadline") return kExitRuntime;
  if (status == "shed" || status == "quarantined") return kExitTempFail;
  if (status == "bad_request") return kExitUsage;
  return kExitInternal;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();

  // Validate the fault plan eagerly, before any file I/O or network hop: a
  // typo'd spec is a usage error with the E0013 diagnostic, not an opaque
  // internal failure halfway through a run (or on the daemon's side).
  if (!opt.fault_plan.empty()) {
    try {
      (void)otter::mpi::FaultPlan::parse(opt.fault_plan);
    } catch (const otter::mpi::FaultPlanError& e) {
      std::cerr << "otterc: error [E0013]: " << e.what() << '\n';
      return kExitUsage;
    }
  }

  if (!opt.remote_op.empty()) return run_remote(opt, "");

  std::ifstream in(opt.script_path);
  if (!in) {
    std::cerr << "otterc: cannot open " << opt.script_path << '\n';
    return kExitNoInput;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string source = ss.str();

  if (!opt.remote.empty()) return run_remote(opt, source);

  auto loader = otter::driver::dir_loader(dirname_of(opt.script_path));

  try {
    if (opt.run == "interp" && opt.emit.empty()) {
      try {
        otter::gov::ScopedBudget budget(mem_budget_bytes(opt.mem_mb));
        auto run = otter::driver::run_interpreter(source, loader, opt.seed);
        std::cout << run.output;
        if (opt.times) {
          std::cerr << "interpreter cpu seconds: " << run.cpu_seconds << '\n';
        }
        return kExitOk;
      } catch (const otter::interp::InterpError& e) {
        return report_runtime_error(e.code(), e.loc(), e.what());
      } catch (const std::runtime_error& e) {
        // run_interpreter wraps parse/resolve diagnostics in runtime_error.
        std::cerr << "otterc: " << e.what() << '\n';
        return kExitCompile;
      }
    }

    otter::driver::CompileOptions copts;
    copts.lower.peephole = opt.peephole;
    bool analyzing = opt.lint || opt.analyze;
    // Lint wants the full LIR: DSE would delete the very dead stores and
    // unused results the analysis reports on.
    copts.lower.dse = opt.dse && !analyzing;
    // Lint also wants the unoptimized LIR (the findings describe the
    // program as written); the optimizer's own work is cross-linked below.
    copts.opt.level = analyzing ? 0 : opt.opt_level;
    copts.analyze = opt.analyze;
    copts.opt.fuse = opt.fuse;
    copts.opt.licm = opt.licm;
    copts.opt.guard_elim = opt.guard_elim;
    copts.keep_preopt = (opt.dump_lir == "pre-opt");
    copts.strict_infer = opt.strict_infer;
    copts.max_errors = opt.max_errors;
    copts.budget.max_wall_seconds = opt.budget_seconds;
    copts.verify_lir = opt.verify_lir;
    copts.source_name = opt.script_path;
    auto compiled = otter::driver::compile_script(source, loader, copts);
    if (!compiled->ok) {
      print_diags(compiled->diags, opt);
      return kExitCompile;
    }

    if (analyzing) {
      otter::analysis::LintOptions lopts;
      lopts.werror = opt.werror;
      if (opt.opt_level > 0) {
        // Compile once more with the optimizer on: W3207 findings whose
        // call LICM hoists at this level become notes, not findings.
        otter::driver::CompileOptions ocopts = copts;
        ocopts.opt.level = opt.opt_level;
        auto optimized = otter::driver::compile_script(source, loader, ocopts);
        if (optimized->ok) {
          for (const otter::lower::OptReport::Hoist& h :
               optimized->opt_report.hoists) {
            lopts.hoisted.push_back(h.loc);
          }
        }
      }
      size_t findings = otter::analysis::run_lint(
          compiled->prog, compiled->inf, compiled->lir, compiled->diags, lopts);
      if (opt.analyze) {
        findings += otter::analysis::report_absint(compiled->absint,
                                                   compiled->diags, opt.werror);
      }
      if (!compiled->diags.empty()) print_diags(compiled->diags, opt);
      if (findings == 0) return kExitOk;
      return opt.werror ? kExitCompile : 1;
    }

    if (!compiled->diags.empty()) {
      print_diags(compiled->diags, opt);  // warnings (e.g. degraded shapes)
    }

    if (!opt.dump_lir.empty()) {
      // pre-opt falls back to the final LIR at -O0, where nothing ran.
      std::cout << (opt.dump_lir == "pre-opt" && opt.opt_level > 0
                        ? compiled->preopt_lir
                        : otter::lower::dump_lir(compiled->lir));
      return kExitOk;
    }

    if (opt.dump_bytecode) {
      otter::vm::BcModule mod = otter::vm::compile_bytecode(compiled->lir);
      std::cout << otter::vm::dump_bytecode(mod);
      return kExitOk;
    }

    if (opt.emit == "ast") {
      std::cout << dump_program(compiled->prog);
      return kExitOk;
    }
    if (opt.emit == "lir") {
      std::cout << otter::lower::dump_lir(compiled->lir);
      return kExitOk;
    }
    if (opt.emit == "c") {
      std::cout << otter::codegen::emit_cpp(compiled->lir);
      return kExitOk;
    }
    if (!opt.emit.empty()) return usage();

    otter::mpi::MachineProfile profile =
        otter::mpi::profile_by_name(opt.machine);
    otter::driver::ExecOptions eopts;
    eopts.dist = opt.dist;
    eopts.rand_seed = opt.seed;
    eopts.spmd.watchdog_timeout = opt.timeout;
    eopts.spmd.mem_budget_bytes = mem_budget_bytes(opt.mem_mb);
    if (!opt.fault_plan.empty()) {
      eopts.spmd.fault = otter::mpi::FaultPlan::parse(opt.fault_plan);
      std::cerr << "otterc: fault plan: " << eopts.spmd.fault.describe()
                << '\n';
    }
    if (!opt.checkpoint_dir.empty()) {
      eopts.ckpt.dir = opt.checkpoint_dir;
      eopts.ckpt.interval = opt.checkpoint > 0 ? opt.checkpoint : 16;
      eopts.ckpt.resume = opt.resume;
    }

    if (opt.run == "cc") {
      if (eopts.ckpt.enabled()) {
        std::cerr << "otterc: note: checkpointing applies to the direct "
                     "executor; ignored under --run=cc\n";
        eopts.ckpt = {};
      }
      std::string error;
      auto program = otter::codegen::CompiledProgram::build(compiled->lir, &error);
      if (!program) {
        std::cerr << "otterc: " << error << '\n';
        return kExitInternal;
      }
      std::ostringstream out;
      // --run=cc bypasses run_parallel, so the budget is installed here.
      otter::gov::ScopedBudget budget(eopts.spmd.mem_budget_bytes);
      auto times = otter::mpi::run_spmd(
          profile, opt.np,
          [&](otter::mpi::Comm& comm) { program->run(comm, out, eopts); },
          eopts.spmd);
      std::cout << out.str();
      if (opt.times) print_rank_times(times);
      return kExitOk;
    }

    if (opt.retries > 0) {
      otter::driver::RetryOptions ropts;
      ropts.max_attempts = opt.retries + 1;
      ropts.backoff_cap = opt.retry_cap;
      auto rr = otter::driver::run_with_retries(compiled->lir, profile, opt.np,
                                                eopts, ropts);
      for (const auto& f : rr.failures) {
        std::cerr << "otterc: attempt " << f.attempt << " failed: " << f.what
                  << '\n';
      }
      if (!rr.ok) {
        std::cerr << "otterc: giving up after " << rr.attempts << " attempts"
                  << (rr.non_retryable ? " (failure is deterministic; "
                                         "retrying cannot help)"
                                       : "")
                  << '\n';
        return kExitRuntime;
      }
      for (const std::string& w : rr.run.warnings)
        std::cerr << "otterc: warning " << w << '\n';
      std::cout << rr.run.output;
      if (opt.times) {
        std::cerr << "attempts " << rr.attempts << ", virtual backoff "
                  << rr.backoff_vtime << "s\n";
        if (eopts.ckpt.enabled()) {
          std::cerr << "checkpoints written " << rr.run.checkpoints_written;
          if (rr.run.resumed)
            std::cerr << ", resumed at statement " << rr.run.resumed_statement;
          std::cerr << '\n';
        }
        print_rank_times(rr.run.times);
      }
      return kExitOk;
    }

    auto run = otter::driver::run_parallel(compiled->lir, profile, opt.np, eopts);
    for (const std::string& w : run.warnings)
      std::cerr << "otterc: warning " << w << '\n';
    std::cout << run.output;
    if (opt.times) {
      if (eopts.ckpt.enabled()) {
        std::cerr << "checkpoints written " << run.checkpoints_written;
        if (run.resumed)
          std::cerr << ", resumed at statement " << run.resumed_statement;
        std::cerr << '\n';
      }
      print_rank_times(run.times);
    }
    return kExitOk;
  } catch (const otter::rt::RtError& e) {
    return report_runtime_error(e.code, e.loc, e.what());
  } catch (const otter::interp::InterpError& e) {
    return report_runtime_error(e.code(), e.loc(), e.what());
  } catch (const otter::mpi::SpmdFailure& e) {
    print_failure(e);
    return kExitRuntime;
  } catch (const std::exception& e) {
    std::cerr << "otterc: internal error: " << e.what() << '\n';
    return kExitInternal;
  }
}
