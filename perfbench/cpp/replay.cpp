#include "replay.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include "analysis/absint.hpp"
#include "analysis/verify.hpp"
#include "codegen/emit.hpp"
#include "frontend/lexer.hpp"
#include "support/budget.hpp"

namespace perfbench {

using namespace otter;

namespace {

void write_all(int fd, const std::string& s) {
  size_t off = 0;
  while (off < s.size()) {
    ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

size_t count_stmts(const std::vector<lower::LInstrPtr>& body) {
  size_t n = 0;
  for (const lower::LInstrPtr& in : body) {
    ++n;
    n += count_stmts(in->body);
    for (const lower::LIfArm& arm : in->arms) n += count_stmts(arm.body);
  }
  return n;
}

}  // namespace

Reference interp_reference(const std::string& src, uint64_t seed) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      driver::InterpRun run = driver::run_interpreter(src, {}, seed);
      char head[64];
      std::snprintf(head, sizeof head, "%.17g\n", run.cpu_seconds);
      write_all(fds[1], head + run.output);
    } catch (...) {
      code = 1;
    }
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string payload;
  char buf[65536];
  for (;;) {
    ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      payload.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  size_t nl = payload.find('\n');
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      nl == std::string::npos) {
    throw std::runtime_error("interpreter reference run failed");
  }
  Reference ref;
  ref.interp_cpu_s = std::stod(payload.substr(0, nl));
  ref.output = payload.substr(nl + 1);
  return ref;
}

std::unique_ptr<driver::CompileResult> compile_phases(const std::string& src,
                                                      Tracer& t,
                                                      uint64_t sample,
                                                      int64_t parent) {
  // Mirrors driver::compile_script(source, loader, opts) step for step.
  const driver::CompileOptions opts;
  auto r = std::make_unique<driver::CompileResult>();
  r->diags.set_max_errors(opts.max_errors);
  BudgetGate gate(opts.budget);
  ParsedFile f;
  {
    Scope s(t, "frontend.parse", sample, parent);
    f = parse_string(src, r->sm, r->diags, opts.source_name, &gate);
  }
  if (r->diags.has_errors()) return r;
  r->prog.script = std::move(f.script);
  for (auto& fn : f.functions) {
    r->prog.functions.emplace(fn->name, std::move(fn));
  }
  {
    Scope s(t, "sema.resolve", sample, parent);
    if (!sema::resolve_program(r->prog, r->sm, r->diags, {})) return r;
  }
  {
    Scope s(t, "sema.infer", sample, parent);
    sema::InferOptions iopts;
    iopts.strict = opts.strict_infer;
    iopts.budget = &gate;
    r->inf = sema::infer_program(r->prog, r->diags, iopts);
  }
  if (r->diags.has_errors()) return r;
  {
    Scope s(t, "lower.lower", sample, parent);
    lower::LowerOptions lopts = opts.lower;
    lopts.budget = &gate;
    r->lir = lower::lower_program(r->prog, r->inf, r->diags, lopts);
  }
  bool elim = opts.opt.level >= 2 && opts.opt.guard_elim;
  if (!r->diags.has_errors() && (opts.analyze || elim)) {
    Scope s(t, "analysis.absint", sample, parent);
    r->absint = analysis::run_absint(r->prog, r->inf, r->lir);
  }
  if (!r->diags.has_errors() && opts.opt.level > 0) {
    Scope s(t, "lower.opt", sample, parent);
    lower::OptOptions oo = opts.opt;
    oo.guard_proofs = r->absint.proofs;
    r->opt_report = lower::run_opt(r->lir, oo);
  }
  if (opts.verify_lir && !r->diags.has_errors()) {
    Scope s(t, "analysis.verify", sample, parent);
    analysis::verify_lir(r->lir, r->diags);
    analysis::verify_guard_elimination(r->opt_report, r->absint.proofs,
                                       r->diags);
  }
  r->ok = !r->diags.has_errors();
  return r;
}

const std::vector<std::string>& compile_span_names() {
  static const std::vector<std::string> names = {
      "frontend.parse", "sema.resolve",    "sema.infer",      "lower.lower",
      "lower.opt",      "analysis.absint", "analysis.verify", "vm.bcgen"};
  return names;
}

std::vector<std::pair<std::string, double>> compile_counts(
    const std::string& src, const driver::CompileResult& cr,
    const vm::BcModule& mod) {
  SourceManager sm;
  DiagEngine diags(&sm);
  uint32_t id = sm.add_buffer("<script>", src);
  size_t tokens = Lexer(sm, id, diags).lex_all().size();

  size_t stmts = count_stmts(cr.lir.script);
  for (const lower::LFunction& f : cr.lir.functions) {
    stmts += count_stmts(f.body);
  }
  size_t bc = mod.script.code.size();
  for (const vm::BcFunction& f : mod.functions) bc += f.chunk.code.size();

  const lower::OptReport& rep = cr.opt_report;
  auto d = [](size_t v) { return static_cast<double>(v); };
  return {
      {"frontend.tokens", d(tokens)},
      {"lower.lir_stmts", d(stmts)},
      {"lower.fused", d(rep.fused)},
      {"lower.cse_removed", d(rep.cse_removed)},
      {"lower.hoists", d(rep.hoists.size())},
      {"lower.swept", d(rep.swept)},
      {"analysis.guards_eliminated", d(rep.guards_eliminated.size())},
      {"vm.bc_instrs", d(bc)},
      {"codegen.c_bytes", d(codegen::emit_cpp(cr.lir).size())},
  };
}

}  // namespace perfbench
