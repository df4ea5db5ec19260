#include "analysis/lint.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/dataflow.hpp"
#include "frontend/builtins.hpp"

namespace otter::analysis {

namespace {

using lower::LInstr;
using lower::LInstrPtr;
using lower::LOp;
using lower::LOperand;
using sema::Action;

/// Ordering helper: the earlier of two source locations (invalid loses).
bool loc_before(const SourceLoc& a, const SourceLoc& b) {
  if (!b.valid()) return a.valid();
  if (!a.valid()) return false;
  if (a.line != b.line) return a.line < b.line;
  return a.col < b.col;
}

SourceLoc action_loc(const Action& a) {
  if (a.kind == Action::Kind::Condition && a.cond) return a.cond->loc;
  return a.stmt ? a.stmt->loc : SourceLoc{};
}

class Linter {
 public:
  Linter(DiagEngine& diags, const LintOptions& opts)
      : diags_(diags), opts_(opts) {}

  [[nodiscard]] size_t findings() const { return findings_; }

  void report(const char* code, SourceLoc loc, std::string msg) {
    if (opts_.werror) {
      diags_.error(code, loc, std::move(msg));
    } else {
      diags_.warning(code, loc, std::move(msg));
    }
    ++findings_;
  }

  /// The CFG/SSA-level checks for one scope (the script or one function).
  /// `types` holds one ScopeTypes per inferred instance of the scope.
  void lint_scope(const sema::ScopeSsa& ssa, const Function* fn,
                  const std::vector<const sema::ScopeTypes*>& types) {
    const sema::Cfg& cfg = ssa.cfg;
    std::vector<std::string> params = fn ? fn->params : std::vector<std::string>{};
    ScopeFacts f = collect_facts(cfg, params);

    // Reachability from entry (unreachable-code check, and a filter so the
    // value-flow checks do not double-report inside dead code).
    std::vector<char> reachable(cfg.blocks.size(), 0);
    {
      std::vector<int> work{cfg.entry};
      reachable[static_cast<size_t>(cfg.entry)] = 1;
      while (!work.empty()) {
        int b = work.back();
        work.pop_back();
        for (int s : cfg.blocks[static_cast<size_t>(b)].succs) {
          if (!reachable[static_cast<size_t>(s)]) {
            reachable[static_cast<size_t>(s)] = 1;
            work.push_back(s);
          }
        }
      }
    }

    check_unreachable(cfg, reachable);
    check_use_before_def(f, reachable);
    check_stores_and_unused(f, fn, reachable);
    check_constant_conditions(cfg, reachable, types);
    check_shadowed_builtins(f, fn);
  }

  /// W3204: blocks no path from entry reaches. One report per dead region —
  /// a block is the region head if no action-bearing unreachable predecessor
  /// already covers it.
  void check_unreachable(const sema::Cfg& cfg,
                         const std::vector<char>& reachable) {
    for (const sema::BasicBlock& b : cfg.blocks) {
      if (reachable[static_cast<size_t>(b.id)] || b.actions.empty()) continue;
      bool covered = false;
      for (int p : b.preds) {
        const sema::BasicBlock& pb = cfg.blocks[static_cast<size_t>(p)];
        if (!reachable[static_cast<size_t>(p)] && !pb.actions.empty()) {
          covered = true;
          break;
        }
      }
      if (covered) continue;
      report("W3204", action_loc(b.actions.front()),
             "unreachable code (no control-flow path reaches this statement)");
    }
  }

  /// W3201: a use whose reaching definitions include the synthetic
  /// "undefined on entry" site — some path reads the variable before any
  /// assignment. Parameters are really defined on entry and never flagged.
  void check_use_before_def(const ScopeFacts& f,
                            const std::vector<char>& reachable) {
    ReachingDefs rd = compute_reaching(f);
    UseDef ud = compute_use_def(f, rd);
    std::unordered_set<int> is_param(f.entry_defs.begin(), f.entry_defs.end());
    std::set<std::pair<int, uint32_t>> seen;  // (var, line) dedupe
    for (const UseDef::Use& u : ud.uses) {
      if (!reachable[static_cast<size_t>(u.block)]) continue;
      if (is_param.contains(u.var)) continue;
      int entry = rd.entry_site[static_cast<size_t>(u.var)];
      bool maybe_undef =
          std::find(u.sites.begin(), u.sites.end(), entry) != u.sites.end();
      if (!maybe_undef) continue;
      if (!seen.insert({u.var, u.loc.line}).second) continue;
      bool always = u.sites.size() == 1;
      const std::string& name = f.vars.names[static_cast<size_t>(u.var)];
      report("W3201", u.loc,
             always ? "variable '" + name + "' is used before it is defined"
                    : "variable '" + name +
                          "' may be used before it is defined on some "
                          "control-flow path");
    }
  }

  /// W3202 (dead store) and W3203 (unused variable). Backward liveness with
  /// the scope's observable results live at exit: every variable for the
  /// script (the workspace persists), the declared outputs for a function.
  void check_stores_and_unused(const ScopeFacts& f, const Function* fn,
                               const std::vector<char>& reachable) {
    const size_t nvars = f.vars.size();
    BitVec at_exit(nvars);
    if (fn) {
      for (const std::string& o : fn->outs) {
        int v = f.vars.id(o);
        if (v >= 0) at_exit.set(static_cast<size_t>(v));
      }
    } else {
      for (size_t v = 0; v < nvars; ++v) at_exit.set(v);
    }
    Liveness live = compute_liveness(f, at_exit);

    // Global per-variable tallies for the unused check.
    std::vector<int> n_uses(nvars, 0), n_defs(nvars, 0);
    std::vector<SourceLoc> first_def(nvars);
    std::vector<char> is_loop_var(nvars, 0);
    for (size_t b = 0; b < f.facts.size(); ++b) {
      const auto& actions = f.cfg->blocks[b].actions;
      for (size_t i = 0; i < f.facts[b].size(); ++i) {
        const ActionFacts& af = f.facts[b][i];
        for (const VarRef& r : af.uses) ++n_uses[static_cast<size_t>(r.var)];
        for (const VarRef& r : af.post_uses) {
          ++n_uses[static_cast<size_t>(r.var)];
        }
        auto note_def = [&](const VarRef& r) {
          auto v = static_cast<size_t>(r.var);
          ++n_defs[v];
          if (n_defs[v] == 1 || loc_before(r.loc, first_def[v])) {
            first_def[v] = r.loc;
          }
          if (actions[i].kind == Action::Kind::LoopDef) is_loop_var[v] = 1;
        };
        for (const VarRef& r : af.defs) note_def(r);
        for (const VarRef& r : af.partial_defs) note_def(r);
      }
    }

    // W3203: defined but never read. Loop variables (`for k = 1:n` as a
    // repeat-N idiom), parameters, outputs and the implicit `ans` are all
    // legitimate write-only names.
    std::unordered_set<int> skip_unused(f.entry_defs.begin(),
                                        f.entry_defs.end());
    if (fn) {
      for (const std::string& o : fn->outs) {
        int v = f.vars.id(o);
        if (v >= 0) skip_unused.insert(v);
      }
    }
    std::vector<char> unused(nvars, 0);
    for (size_t v = 0; v < nvars; ++v) {
      if (n_defs[v] == 0 || n_uses[v] > 0) continue;
      if (is_loop_var[v] || skip_unused.contains(static_cast<int>(v))) continue;
      if (f.vars.names[v] == "ans") continue;
      unused[v] = 1;
      report("W3203", first_def[v],
             "variable '" + f.vars.names[v] + "' is never used");
    }

    // W3202: a whole-variable assignment whose value no path reads before
    // the next overwrite. Indexed writes are read-modify-write and never
    // dead; never-used variables are already covered by W3203.
    for (size_t b = 0; b < f.facts.size(); ++b) {
      if (!reachable[b]) continue;
      BitVec cur = live.live_out[b];
      const auto& actions = f.cfg->blocks[b].actions;
      for (size_t i = f.facts[b].size(); i-- > 0;) {
        const ActionFacts& af = f.facts[b][i];
        for (const VarRef& r : af.post_uses) cur.set(static_cast<size_t>(r.var));
        bool is_assign = actions[i].kind == Action::Kind::Statement &&
                         actions[i].stmt->kind == StmtKind::Assign;
        for (const VarRef& r : af.defs) {
          auto v = static_cast<size_t>(r.var);
          if (is_assign && !cur.test(v) && !unused[v] && n_uses[v] > 0) {
            report("W3202", r.loc,
                   "dead store: the value assigned to '" + f.vars.names[v] +
                       "' is overwritten before it is ever read");
          }
          cur.reset(v);
        }
        for (const VarRef& r : af.uses) cur.set(static_cast<size_t>(r.var));
        for (const VarRef& r : af.base_uses) {
          cur.set(static_cast<size_t>(r.var));
        }
      }
    }
  }

  /// W3205: if/while conditions inference proved constant. A constant-true
  /// `while` is the idiomatic infinite loop (`while 1 ... break`) and is not
  /// reported; everything else is either dead code or a tautology.
  void check_constant_conditions(
      const sema::Cfg& cfg, const std::vector<char>& reachable,
      const std::vector<const sema::ScopeTypes*>& types) {
    for (const sema::BasicBlock& b : cfg.blocks) {
      if (!reachable[static_cast<size_t>(b.id)]) continue;
      for (const Action& a : b.actions) {
        if (a.kind != Action::Kind::Condition || !a.cond) continue;
        if (a.stmt->kind == StmtKind::For) continue;  // range, not a branch
        // Constant when every instance that typed the expression agrees on
        // a known value with the same truthiness.
        bool any = false, truthy = false, constant = true;
        for (const sema::ScopeTypes* st : types) {
          auto it = st->expr_types.find(a.cond);
          if (it == st->expr_types.end()) continue;
          if (!it->second.has_cval) {
            constant = false;
            break;
          }
          bool t = it->second.cval != 0.0;
          if (any && t != truthy) {
            constant = false;
            break;
          }
          any = true;
          truthy = t;
        }
        if (!any || !constant) continue;
        if (a.stmt->kind == StmtKind::While && truthy) continue;
        report("W3205", a.cond->loc,
               std::string("branch condition is always ") +
                   (truthy ? "true" : "false"));
      }
    }
  }

  /// W3206: a variable (or parameter) named after a builtin hides it for
  /// the whole scope.
  void check_shadowed_builtins(const ScopeFacts& f, const Function* fn) {
    std::vector<SourceLoc> first_def(f.vars.size());
    std::vector<char> has_def(f.vars.size(), 0);
    for (size_t b = 0; b < f.facts.size(); ++b) {
      for (const ActionFacts& af : f.facts[b]) {
        auto note = [&](const VarRef& r) {
          auto v = static_cast<size_t>(r.var);
          if (!has_def[v] || loc_before(r.loc, first_def[v])) {
            has_def[v] = 1;
            first_def[v] = r.loc;
          }
        };
        for (const VarRef& r : af.defs) note(r);
        for (const VarRef& r : af.partial_defs) note(r);
      }
    }
    for (size_t v = 0; v < f.vars.size(); ++v) {
      const std::string& name = f.vars.names[v];
      if (!find_builtin(name)) continue;
      SourceLoc loc = has_def[v] ? first_def[v] : (fn ? fn->loc : SourceLoc{});
      bool is_param =
          fn && std::find(fn->params.begin(), fn->params.end(), name) !=
                    fn->params.end();
      report("W3206", loc,
             std::string(is_param ? "parameter '" : "variable '") + name +
                 "' shadows the builtin function '" + name + "'");
    }
  }

  // -- loop-invariant communication (LIR level) -------------------------------

  /// Estimated per-iteration message cost of a communicating op, from the
  /// run-time library's implementation (P = number of ranks).
  static const char* comm_cost(LOp op) {
    switch (op) {
      case LOp::Reduce:
      case LOp::DotProd:
      case LOp::Trapz:
      case LOp::Colwise:
        return "one allreduce (~2*log2(P) messages)";
      case LOp::GetElem:
      case LOp::ExtractRowOp:
        return "one broadcast (~log2(P) messages)";
      case LOp::ExtractColOp:
        return "a gather plus broadcast (~P + log2(P) messages)";
      case LOp::MatMul:
      case LOp::MatVec:
      case LOp::VecMat:
      case LOp::OuterProd:
        return "an allgather of the replicated operand (~P*(P-1) messages)";
      case LOp::TransposeOp:
      case LOp::SliceVec:
        return "an all-to-all redistribution (~P*(P-1) messages)";
      case LOp::LoadFile:
        return "a file read plus broadcast (~P messages)";
      default:
        return "communication";
    }
  }

  static bool is_comm_read(LOp op) {
    switch (op) {
      case LOp::MatMul:
      case LOp::MatVec:
      case LOp::VecMat:
      case LOp::OuterProd:
      case LOp::TransposeOp:
      case LOp::DotProd:
      case LOp::Reduce:
      case LOp::Colwise:
      case LOp::Trapz:
      case LOp::GetElem:
      case LOp::ExtractRowOp:
      case LOp::ExtractColOp:
      case LOp::SliceVec:
      case LOp::LoadFile:
        return true;
      default:
        return false;
    }
  }

  static void tree_reads(const lower::LExpr& e,
                         std::unordered_set<std::string>& reads, bool* impure) {
    switch (e.kind) {
      case lower::LExpr::Kind::ScalarVar:
      case lower::LExpr::Kind::MatVar:
      case lower::LExpr::Kind::RowsOf:
      case lower::LExpr::Kind::ColsOf:
      case lower::LExpr::Kind::NumelOf:
        reads.insert(e.var);
        break;
      case lower::LExpr::Kind::RandScalar:
        // Advances the shared random sequence: never loop-invariant.
        if (impure) *impure = true;
        break;
      default:
        break;
    }
    if (e.a) tree_reads(*e.a, reads, impure);
    if (e.b) tree_reads(*e.b, reads, impure);
  }

  static void instr_reads(const LInstr& in,
                          std::unordered_set<std::string>& reads,
                          bool* impure) {
    for (const LOperand& o : in.args) {
      if (o.is_matrix) reads.insert(o.mat);
      if (o.scalar) tree_reads(*o.scalar, reads, impure);
    }
    if (in.tree) tree_reads(*in.tree, reads, impure);
  }

  /// Every name a loop body (re)defines or mutates on some iteration.
  static void collect_loop_defs(const std::vector<LInstrPtr>& body,
                                std::unordered_set<std::string>& defs) {
    for (const LInstrPtr& ip : body) {
      const LInstr& in = *ip;
      if (!in.dst.empty()) defs.insert(in.dst);
      if (!in.sdst.empty()) defs.insert(in.sdst);
      for (const lower::LVarDecl& d : in.call_dsts) defs.insert(d.name);
      if (in.op == LOp::ForOp) defs.insert(in.loop_var);
      for (const lower::LIfArm& arm : in.arms) collect_loop_defs(arm.body, defs);
      collect_loop_defs(in.body, defs);
    }
  }

  /// W3207: a communicating run-time call inside a loop, all of whose
  /// operands are defined outside it — the call repeats identical
  /// communication every iteration and can be hoisted.
  void walk_comm(const std::vector<LInstrPtr>& body,
                 const std::vector<const std::unordered_set<std::string>*>&
                     loop_defs) {
    for (const LInstrPtr& ip : body) {
      const LInstr& in = *ip;
      if (!loop_defs.empty() && is_comm_read(in.op)) {
        std::unordered_set<std::string> reads;
        bool impure = false;
        instr_reads(in, reads, &impure);
        const std::unordered_set<std::string>& inner = *loop_defs.back();
        bool invariant = !impure;
        for (const std::string& r : reads) {
          if (inner.contains(r)) {
            invariant = false;
            break;
          }
        }
        if (invariant) {
          std::string target = in.sdst.empty() ? in.dst : in.sdst;
          std::string msg = "loop-invariant communication: '" + target +
                            " = " + lower::lop_name(in.op) +
                            "(...)' depends only on values defined outside "
                            "the loop; hoisting it saves " +
                            comm_cost(in.op) + " per iteration";
          bool hoisted = false;
          for (const SourceLoc& h : opts_.hoisted) {
            if (h.line == in.loc.line) {
              hoisted = true;
              break;
            }
          }
          if (hoisted) {
            diags_.note("W3207", in.loc,
                        msg + " (already hoisted by the optimizer at the "
                              "selected -O level)");
          } else {
            report("W3207", in.loc, std::move(msg));
          }
        }
      }
      for (const lower::LIfArm& arm : in.arms) walk_comm(arm.body, loop_defs);
      if (in.op == LOp::WhileOp || in.op == LOp::ForOp) {
        auto defs = std::make_unique<std::unordered_set<std::string>>();
        collect_loop_defs(in.body, *defs);
        if (in.op == LOp::ForOp) defs->insert(in.loop_var);
        auto nested = loop_defs;
        nested.push_back(defs.get());
        walk_comm(in.body, nested);
      } else if (!in.body.empty()) {
        walk_comm(in.body, loop_defs);
      }
    }
  }

  void lint_lir(const lower::LProgram& lir) {
    walk_comm(lir.script, {});
    for (const lower::LFunction& fn : lir.functions) walk_comm(fn.body, {});
  }

 private:
  DiagEngine& diags_;
  LintOptions opts_;
  size_t findings_ = 0;
};

}  // namespace

size_t run_lint(const Program& /*prog*/, const sema::InferResult& inf,
                const lower::LProgram& lir, DiagEngine& diags,
                const LintOptions& opts) {
  Linter linter(diags, opts);

  std::vector<const sema::ScopeTypes*> script_types{&inf.script};
  linter.lint_scope(inf.script_ssa, nullptr, script_types);

  for (const auto& [fn_ptr, ssa] : inf.fn_ssa) {
    std::vector<const sema::ScopeTypes*> types;
    for (const auto& [name, inst] : inf.instances) {
      if (inst.fn == fn_ptr) types.push_back(&inst.types);
    }
    linter.lint_scope(ssa, fn_ptr, types);
  }

  linter.lint_lir(lir);
  return linter.findings();
}

}  // namespace otter::analysis
