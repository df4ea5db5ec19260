// Whole-compiler pipeline: parse → resolve (pass 2) → SSA + inference
// (pass 3) → lowering with expression rewriting and owner guards (passes 4
// and 5) → optimizer, peephole (pass 6) first → execution (bytecode VM, or
// C emission).
#pragma once

#include <memory>
#include <string>

#include "analysis/absint.hpp"
#include "driver/exec.hpp"
#include "frontend/parser.hpp"
#include "lower/lower.hpp"
#include "lower/opt.hpp"
#include "minimpi/comm.hpp"
#include "sema/infer.hpp"
#include "sema/resolve.hpp"

namespace otter::driver {

struct CompileResult {
  SourceManager sm;
  DiagEngine diags{&sm};
  Program prog;
  sema::InferResult inf;
  lower::LProgram lir;            ///< post-optimizer LIR (what runs)
  std::string preopt_lir;         ///< dump before run_opt (keep_preopt only)
  lower::OptReport opt_report;    ///< what the optimizer did (empty at -O0)
  /// Abstract-interpretation results (guard proofs + W3208-W3210 findings).
  /// Populated when `analyze` is set or the optimizer ran; the
  /// pipeline never reports the findings itself — tools decide via
  /// analysis::report_absint.
  analysis::AbsintResult absint;
  bool ok = false;
};

/// Full compile configuration: pass options plus the crash-safety knobs
/// (resource budgets, strict-inference mode, and the diagnostic cap).
struct CompileOptions {
  /// Unused: compile_script sets LowerOptions' only field, the budget
  /// gate, from `budget` below.
  lower::LowerOptions lower{};
  lower::OptOptions opt{};   ///< optimizer pipeline; level 2 is the default
  CompileBudget budget{};    ///< resource limits shared by every pass
  bool strict_infer = false; ///< unresolvable shapes are errors, not guards
  size_t max_errors = 0;     ///< cap stored error diagnostics (0 = unlimited)
  bool verify_lir = true;    ///< run the structural LIR verifier (post-opt)
  bool keep_preopt = false;  ///< record the pre-optimizer dump (--dump-lir)
  bool analyze = false;      ///< run absint even when guard-elim would not
  std::string source_name = "<script>";  ///< buffer name for diagnostics
};

/// Compiles a MATLAB script through every pass. `loader` supplies user
/// M-files (see dir_loader). The default options are the production
/// pipeline (-O2, what otterc, otterd and perfbench run); pass
/// `{.opt = {.level = 0}}` for the statement-at-a-time lowering output.
/// Check `->ok` / `->diags` before using `lir`.
std::unique_ptr<CompileResult> compile_script(
    const std::string& source, const sema::MFileLoader& loader = {},
    const CompileOptions& opts = {});

/// M-file loader that searches `dir` for `<name>.m`.
sema::MFileLoader dir_loader(const std::string& dir);

struct ParallelRun {
  std::string output;         // rank-0 program output
  mpi::RunResult times;       // per-rank virtual times
  // Checkpoint/restart observability (all zero when ckpt is disabled):
  bool resumed = false;             // state was restored from a checkpoint
  uint64_t resumed_statement = 0;   // first statement executed after resume
  uint64_t checkpoints_written = 0; // generations committed by this run
  std::vector<std::string> warnings;  // E5005 recovery-ladder warnings
};

/// Runs compiled LIR on `nranks` ranks of `profile` on the bytecode VM.
/// `opts.spmd` configures the watchdog deadline and fault injection; on any
/// rank failure an mpi::SpmdFailure aggregating every rank's outcome is
/// thrown.
ParallelRun run_parallel(const lower::LProgram& lir,
                         const mpi::MachineProfile& profile, int nranks,
                         const ExecOptions& opts = {});

/// Retry policy for run_with_retries. Backoff is charged in *virtual* time
/// (added to every rank's clock of the successful run), mirroring how the
/// virtual-time model accounts for everything else — no wall sleeping.
///
/// The schedule is capped exponential with deterministic jitter: attempt k
/// waits min(backoff * factor^(k-1), backoff_cap), scaled by a jitter
/// factor drawn from the seeded LCG stream — so many clients retrying the
/// same failure decorrelate, yet a given (seed, attempt) pair always
/// produces the same wait, keeping tests and benchmarks reproducible.
struct RetryOptions {
  int max_attempts = 3;
  double backoff = 0.5;         ///< virtual seconds before the first retry
  double backoff_factor = 2.0;  ///< multiplier per subsequent retry
  double backoff_cap = 30.0;    ///< ceiling on one retry's backoff (0 = none)
  /// Fraction of each backoff randomized: wait *= 1 + jitter*(2u-1) with
  /// u in [0,1) drawn deterministically from jitter_seed. 0 disables.
  double jitter = 0.1;
  uint64_t jitter_seed = 0x0771e55;
  /// Perturb the fault-injection seed on each attempt so scripted
  /// *probabilistic* faults behave like transient failures (a retry can
  /// succeed), while scripted crashes stay deterministic.
  bool reseed_faults = true;
};

/// The virtual-time backoff run_with_retries charges before retry `attempt`
/// (1-based: the wait after the attempt-th failure). Exposed so tests and
/// the daemon's retry accounting agree with the implementation.
double retry_backoff_for(const RetryOptions& retry, int attempt);

/// One failed attempt inside run_with_retries.
struct AttemptFailure {
  int attempt = 0;      // 1-based
  std::string what;     // the SpmdFailure report
  std::string code;     // primary failure's diag code when it carried one
};

struct RetryRun {
  ParallelRun run;      // valid only when ok
  bool ok = false;
  int attempts = 0;     // attempts consumed (successful one included)
  double backoff_vtime = 0.0;  // total virtual backoff charged
  std::vector<AttemptFailure> failures;  // one entry per failed attempt
  /// True when the loop stopped early because the failure was classified
  /// deterministic (same inputs, same result — a retry cannot help).
  bool non_retryable = false;
};

/// Deterministic-failure classifier for the retry loop. An expired session
/// (deadline passed / cancel raised) is never retried. A primary failure
/// that carries a stable code from a run *without* fault injection will
/// recur identically on every attempt (the scheduler is deterministic), as
/// will E5003 shape guards and E5004 deadline/cancel regardless of faults;
/// uncoded failures (injected crashes, watchdog, deadlock) stay retryable.
bool failure_is_retryable(const mpi::SpmdFailure& e,
                          const mpi::SpmdOptions& opts);

/// Runs the program like run_parallel but re-runs failed executions with
/// exponential backoff in virtual time, reporting per-attempt statistics.
/// Never throws SpmdFailure: exhausted retries return ok == false with the
/// failure log filled in. Non-retryable failures (see failure_is_retryable)
/// short-circuit the loop. When `opts.ckpt` is enabled, retry attempts
/// resume from the newest valid checkpoint instead of recomputing, and an
/// injected crash that already fired is cleared (a restart models fresh
/// hardware — the "node" that crashed does not crash again).
RetryRun run_with_retries(const lower::LProgram& lir,
                          const mpi::MachineProfile& profile, int nranks,
                          const ExecOptions& opts = {},
                          const RetryOptions& retry = {});

struct InterpRun {
  std::string output;
  double cpu_seconds = 0.0;   // single-CPU time of the interpreter
};

/// Runs the same source through the baseline interpreter (the paper's
/// "MathWorks interpreter" stand-in), measuring CPU seconds.
InterpRun run_interpreter(const std::string& source,
                          const sema::MFileLoader& loader = {},
                          uint64_t rand_seed = 1);

}  // namespace otter::driver
