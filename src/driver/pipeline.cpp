#include "driver/pipeline.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include <time.h>

#include "analysis/verify.hpp"
#include "interp/interp.hpp"
#include "support/governor.hpp"
#include "support/rng.hpp"
#include "vm/bcgen.hpp"

namespace otter::driver {

std::unique_ptr<CompileResult> compile_script(const std::string& source,
                                              const sema::MFileLoader& loader,
                                              const CompileOptions& opts) {
  auto r = std::make_unique<CompileResult>();
  r->diags.set_max_errors(opts.max_errors);
  // One gate per compilation: every pass shares the wall-clock deadline and
  // the structural limits, so pathological inputs degrade to a diagnostic.
  BudgetGate gate(opts.budget);
  ParsedFile f = parse_string(source, r->sm, r->diags, opts.source_name, &gate);
  if (r->diags.has_errors()) return r;
  r->prog.script = std::move(f.script);
  for (auto& fn : f.functions) {
    r->prog.functions.emplace(fn->name, std::move(fn));
  }
  if (!sema::resolve_program(r->prog, r->sm, r->diags, loader)) return r;
  sema::InferOptions iopts;
  iopts.strict = opts.strict_infer;
  iopts.budget = &gate;
  r->inf = sema::infer_program(r->prog, r->diags, iopts);
  if (r->diags.has_errors()) return r;
  lower::LowerOptions lopts = opts.lower;
  lopts.budget = &gate;
  r->lir = lower::lower_program(r->prog, r->inf, r->diags, lopts);
  // Abstract interpretation runs on the *pre-optimizer* program: findings
  // keep their original source locations no matter what the optimizer
  // rewrites later, and guard proofs feed the guard elimination pass.
  if (!r->diags.has_errors() && (opts.analyze || opts.opt.level > 0)) {
    r->absint = analysis::run_absint(r->prog, r->inf, r->lir);
  }
  if (!r->diags.has_errors() && opts.opt.level > 0) {
    if (opts.keep_preopt) r->preopt_lir = lower::dump_lir(r->lir);
    lower::OptOptions oo = opts.opt;
    oo.guard_proofs = r->absint.proofs;
    r->opt_report = lower::run_opt(r->lir, oo);
  }
  // Structural self-check on what will actually run (post-optimizer): any
  // E6xxx report here is a compiler bug made visible, not a user error.
  if (opts.verify_lir && !r->diags.has_errors()) {
    analysis::verify_lir(r->lir, r->diags);
    analysis::verify_guard_elimination(r->opt_report, r->absint.proofs,
                                       r->diags);
  }
  r->ok = !r->diags.has_errors();
  return r;
}

sema::MFileLoader dir_loader(const std::string& dir) {
  return [dir](const std::string& name) -> std::optional<std::string> {
    std::ifstream in(dir + "/" + name + ".m", std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
}

ParallelRun run_parallel(const lower::LProgram& lir,
                         const mpi::MachineProfile& profile, int nranks,
                         const ExecOptions& opts) {
  ParallelRun result;
  std::ostringstream out;
  ExecOptions eopts = opts;
  // Install the per-request matrix-memory budget for the lifetime of the
  // run; allocations past it throw gov::BudgetExceeded → E5006 on the
  // offending rank/statement instead of OOM-killing the process.
  gov::ScopedBudget budget(opts.spmd.mem_budget_bytes);
  std::unique_ptr<CheckpointCoordinator> co;
  if (opts.ckpt.enabled()) {
    co = std::make_unique<CheckpointCoordinator>(
        opts.ckpt, nranks, [&out] { return out.str(); });
    if (opts.ckpt.resume && co->load()) {
      // Statements before the checkpoint will not re-execute; their output
      // already happened. Seeding the stream with the captured prefix is
      // what makes a resumed run's output bitwise-identical to a fault-free
      // one.
      out << co->output_prefix();
      result.resumed = true;
      result.resumed_statement = co->resume_statement();
    }
    eopts.checkpoint = co.get();
  }
  // Compile the bytecode module once, outside the rank threads: the module
  // is immutable and shared, so N ranks must not each pay (or race on)
  // compilation.
  vm::BcModule bytecode;
  if (eopts.bytecode == nullptr) {
    bytecode = vm::compile_bytecode(lir);
    eopts.bytecode = &bytecode;
  }
  result.times = mpi::run_spmd(
      profile, nranks,
      [&](mpi::Comm& comm) { execute_lir(lir, comm, out, eopts); }, opts.spmd);
  result.output = out.str();
  if (co) {
    result.checkpoints_written = co->generations_written();
    for (std::string& w : co->take_warnings())
      result.warnings.push_back(std::move(w));
  }
  return result;
}

double retry_backoff_for(const RetryOptions& retry, int attempt) {
  double base = retry.backoff;
  for (int k = 1; k < attempt; ++k) base *= retry.backoff_factor;
  if (retry.backoff_cap > 0) base = std::min(base, retry.backoff_cap);
  if (retry.jitter > 0) {
    // Deterministic jitter: position `attempt` of the seeded LCG stream, so
    // the schedule is reproducible yet decorrelated across seeds.
    double u = Lcg::value_at(retry.jitter_seed,
                             static_cast<uint64_t>(attempt));
    base *= 1.0 + retry.jitter * (2.0 * u - 1.0);
  }
  return base;
}

bool failure_is_retryable(const mpi::SpmdFailure& e,
                          const mpi::SpmdOptions& opts) {
  // A session whose deadline passed (or whose cancel flag is raised) kills
  // every subsequent attempt the same way, wherever the abort surfaced.
  if (opts.expired()) return false;
  const mpi::RankFailure& p = e.first();
  if (!p.primary) return true;  // pure sympathy teardown: timing-dependent
  // Deadline/cancel and shape guards recur no matter what changed.
  if (p.code == "E5003" || p.code == "E5004") return false;
  // Without fault injection the scheduler is deterministic: any coded
  // runtime failure will reproduce bit-for-bit on the next attempt.
  if (!p.code.empty() && !opts.fault.enabled()) return false;
  return true;
}

RetryRun run_with_retries(const lower::LProgram& lir,
                          const mpi::MachineProfile& profile, int nranks,
                          const ExecOptions& opts, const RetryOptions& retry) {
  RetryRun result;
  uint64_t base_seed = opts.spmd.fault.seed;
  bool crash_fired = false;
  for (int attempt = 1; attempt <= std::max(1, retry.max_attempts); ++attempt) {
    result.attempts = attempt;
    ExecOptions eopts = opts;
    if (retry.reseed_faults && attempt > 1 && opts.spmd.fault.enabled()) {
      // A fresh seed models a transient network: probabilistic drops /
      // corruption land elsewhere, while crash_rank faults (permanent
      // failures) still fire and keep the run failing.
      eopts.spmd.fault.seed = base_seed + static_cast<uint64_t>(attempt - 1);
    }
    if (attempt > 1 && opts.ckpt.enabled()) {
      // Resume from the newest valid checkpoint instead of recomputing.
      eopts.ckpt.resume = true;
      // An injected crash that already fired models a one-shot node
      // failure: the restarted run gets fresh hardware. Leaving it armed
      // would re-kill every resume at the same op and never converge.
      if (crash_fired) eopts.spmd.fault.crash_rank = -1;
    }
    try {
      result.run = run_parallel(lir, profile, nranks, eopts);
      result.ok = true;
      // Charge the accumulated backoff to every rank: in virtual time the
      // retries happened sequentially after the failed attempts.
      for (double& t : result.run.times.vtimes) t += result.backoff_vtime;
      return result;
    } catch (const mpi::SpmdFailure& e) {
      result.failures.push_back({attempt, e.what(), e.first().code});
      if (e.first().primary &&
          e.first().what.find("fault injection:") != std::string::npos) {
        crash_fired = true;
      }
      if (!failure_is_retryable(e, opts.spmd)) {
        result.non_retryable = true;
        break;
      }
      result.backoff_vtime += retry_backoff_for(retry, attempt);
    }
  }
  return result;
}

namespace {
double thread_cpu_seconds() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

InterpRun run_interpreter(const std::string& source,
                          const sema::MFileLoader& loader, uint64_t rand_seed) {
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string(source, sm, diags, "<script>");
  if (diags.has_errors()) {
    throw std::runtime_error("parse error:\n" + diags.to_string());
  }
  Program prog;
  prog.script = std::move(f.script);
  for (auto& fn : f.functions) prog.functions.emplace(fn->name, std::move(fn));
  // Resolve purely to pull in user M-files; the interpreter handles dynamic
  // binding itself.
  sema::resolve_program(prog, sm, diags, loader);
  if (diags.has_errors()) {
    throw std::runtime_error("resolve error:\n" + diags.to_string());
  }

  InterpRun run;
  std::ostringstream out;
  interp::Interp in(prog, out);
  in.seed_rng(rand_seed);
  double t0 = thread_cpu_seconds();
  in.run();
  run.cpu_seconds = thread_cpu_seconds() - t0;
  run.output = out.str();
  return run;
}

}  // namespace otter::driver
