// Liveness-driven dead-statement elimination over the lowered IR.
//
// A pure instruction whose results no later statement (or observable
// output) can read is removed. Purity is conservative: anything that
// prints, aborts, calls a user function, performs I/O, mutates a matrix in
// place, or advances the shared replicated random sequence is kept — so the
// SPMD ranks' lockstep communication schedule and the random stream are
// unchanged by the optimization.
//
// Liveness runs backward over the structured LIR directly (no CFG needed):
// loops iterate a read-only transfer to a fixpoint before the mutating
// pass, and a break/continue/return conservatively revives every name the
// scope ever reads.
#include <string>
#include <unordered_set>
#include <vector>

#include "lower/opt.hpp"

namespace otter::lower {

namespace {

using Set = std::unordered_set<std::string>;

class Dse {
 public:
  size_t run(LProgram& prog) {
    ever_read_.clear();
    collect_ever_read(prog.script, ever_read_);
    Set live;  // a compiled script's observable results are what it prints
    process(prog.script, live);

    for (LFunction& fn : prog.functions) {
      ever_read_.clear();
      collect_ever_read(fn.body, ever_read_);
      Set out_live;
      for (const LVarDecl& d : fn.outs) {
        ever_read_.insert(d.name);
        out_live.insert(d.name);
      }
      process(fn.body, out_live);
    }
    return removed_;
  }

 private:
  /// Backward transfer of one non-control instruction over `live`.
  static void transfer(const LInstr& in, Set& live) {
    if (!is_rmw(in.op)) {
      if (!in.dst.empty()) live.erase(in.dst);
      if (!in.sdst.empty()) live.erase(in.sdst);
      for (const LVarDecl& d : in.call_dsts) live.erase(d.name);
    } else if (!in.dst.empty()) {
      live.insert(in.dst);
    }
    instr_reads(in, live);
  }

  /// Non-mutating backward liveness over a body (used to reach the loop
  /// fixpoint before any removal decision inside the loop is made).
  void scan(const std::vector<LInstrPtr>& body, Set& live) {
    for (size_t i = body.size(); i-- > 0;) {
      const LInstr& in = *body[i];
      switch (in.op) {
        case LOp::IfOp: {
          Set merged = has_else(in) ? Set{} : live;
          for (const LIfArm& arm : in.arms) {
            Set l = live;
            scan(arm.body, l);
            merged.insert(l.begin(), l.end());
            tree_vars(arm.cond.get(), merged);
          }
          live = std::move(merged);
          break;
        }
        case LOp::WhileOp:
        case LOp::ForOp: {
          Set entry = loop_entry_live(in, live);
          live.insert(entry.begin(), entry.end());
          add_loop_header_reads(in, live);
          break;
        }
        case LOp::BreakOp:
        case LOp::ContinueOp:
        case LOp::ReturnOp:
          live = ever_read_;
          break;
        default:
          transfer(in, live);
      }
    }
  }

  static bool has_else(const LInstr& in) {
    return !in.arms.empty() && !in.arms.back().cond;
  }

  static void add_loop_header_reads(const LInstr& in, Set& live) {
    if (in.op == LOp::WhileOp) {
      tree_vars(in.cond.get(), live);
    } else {
      live.erase(in.loop_var);
      tree_vars(in.lo.get(), live);
      tree_vars(in.step.get(), live);
      tree_vars(in.hi.get(), live);
    }
  }

  /// Live-at-body-entry fixpoint for a loop: E = transfer_body(E U after),
  /// accounting for the back edge re-reading what an iteration needs.
  Set loop_entry_live(const LInstr& in, const Set& after) {
    Set entry;
    for (;;) {
      Set l = after;
      l.insert(entry.begin(), entry.end());
      if (in.op == LOp::ForOp) l.insert(in.loop_var);  // next-iteration def
      scan(in.body, l);
      if (in.op == LOp::WhileOp) tree_vars(in.cond.get(), l);
      if (in.op == LOp::ForOp) l.erase(in.loop_var);
      bool grew = false;
      for (const std::string& n : l) {
        if (entry.insert(n).second) grew = true;
      }
      if (!grew) return entry;
    }
  }

  /// Mutating backward pass: removes dead pure instructions.
  void process(std::vector<LInstrPtr>& body, Set& live) {
    for (size_t i = body.size(); i-- > 0;) {
      LInstr& in = *body[i];
      switch (in.op) {
        case LOp::IfOp: {
          Set merged = has_else(in) ? Set{} : live;
          for (LIfArm& arm : in.arms) {
            Set l = live;
            process(arm.body, l);
            merged.insert(l.begin(), l.end());
            tree_vars(arm.cond.get(), merged);
          }
          live = std::move(merged);
          break;
        }
        case LOp::WhileOp:
        case LOp::ForOp: {
          Set entry = loop_entry_live(in, live);
          Set body_live = live;
          body_live.insert(entry.begin(), entry.end());
          if (in.op == LOp::WhileOp) tree_vars(in.cond.get(), body_live);
          process(in.body, body_live);
          live.insert(entry.begin(), entry.end());
          add_loop_header_reads(in, live);
          break;
        }
        case LOp::BreakOp:
        case LOp::ContinueOp:
        case LOp::ReturnOp:
          live = ever_read_;
          break;
        default: {
          bool defines = !in.dst.empty() || !in.sdst.empty();
          bool dead = defines && removable(in) &&
                      (in.dst.empty() || !live.contains(in.dst)) &&
                      (in.sdst.empty() || !live.contains(in.sdst));
          if (dead) {
            body.erase(body.begin() + static_cast<ptrdiff_t>(i));
            ++removed_;
          } else {
            transfer(in, live);
          }
        }
      }
    }
  }

  Set ever_read_;
  size_t removed_ = 0;
};

}  // namespace

size_t run_dse(LProgram& prog) { return Dse().run(prog); }

}  // namespace otter::lower
