// LIR optimizer pass pipeline. Every pass preserves three invariants the
// rest of the compiler depends on:
//
//  * the SPMD ranks' lockstep communication schedule changes only by whole
//    run-time calls disappearing (never by a call moving past a point where
//    its operands could differ);
//  * the shared replicated random sequence is untouched — instructions whose
//    trees draw rand are never moved, merged, or deleted;
//  * the verifier's rules still hold on the output (hoisted ML_tmp targets
//    are pre-defined before the guard so E6002's all-paths check passes).
//
// Loop hoists are guarded by the loop's own trip condition, so a zero-trip
// loop performs no hoisted communication and leaves its target untouched —
// identical to the unoptimized program.
#include "lower/opt.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace otter::lower {

namespace {

using Set = std::unordered_set<std::string>;

/// Pure communication reads: the run-time calls the optimizer may CSE or
/// hoist. The W3207 set minus LoadFile (I/O stays where it was written).
bool is_comm_read(LOp op) {
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
      return true;
    default:
      return false;
  }
}

bool is_control(LOp op) {
  switch (op) {
    case LOp::IfOp:
    case LOp::WhileOp:
    case LOp::ForOp:
    case LOp::BreakOp:
    case LOp::ContinueOp:
    case LOp::ReturnOp:
      return true;
    default:
      return false;
  }
}

/// Names defined by one instruction (nested bodies excluded).
void instr_defs(const LInstr& in, Set& out) {
  if (!in.dst.empty()) out.insert(in.dst);
  if (!in.sdst.empty()) out.insert(in.sdst);
  for (const LVarDecl& d : in.call_dsts) out.insert(d.name);
  if (!in.loop_var.empty()) out.insert(in.loop_var);
}

/// All names defined anywhere under `body`, nested control flow included.
void collect_defs(const std::vector<LInstrPtr>& body, Set& out) {
  for (const LInstrPtr& ip : body) {
    instr_defs(*ip, out);
    for (const LIfArm& arm : ip->arms) collect_defs(arm.body, out);
    collect_defs(ip->body, out);
  }
}

/// Whether control can leave `body` other than by falling off the end.
/// `top` is true while break/continue would bind to the loop being analyzed;
/// inside a nested loop only `return` still escapes.
bool body_has_jump(const std::vector<LInstrPtr>& body, bool top) {
  for (const LInstrPtr& ip : body) {
    switch (ip->op) {
      case LOp::ReturnOp:
        return true;
      case LOp::BreakOp:
      case LOp::ContinueOp:
        if (top) return true;
        break;
      default:
        break;
    }
    for (const LIfArm& arm : ip->arms) {
      if (body_has_jump(arm.body, top)) return true;
    }
    bool inner_loop = ip->op == LOp::WhileOp || ip->op == LOp::ForOp;
    if (body_has_jump(ip->body, top && !inner_loop)) return true;
  }
  return false;
}

/// Full read set of an instruction including control headers and every
/// nested body (the "does anything in here read `t`" query).
bool reads_name(const LInstr& in, const std::string& t) {
  Set r;
  instr_reads(in, r);
  if (is_rmw(in.op) && !in.dst.empty()) r.insert(in.dst);
  for (const LIfArm& arm : in.arms) tree_vars(arm.cond.get(), r);
  tree_vars(in.cond.get(), r);
  tree_vars(in.lo.get(), r);
  tree_vars(in.step.get(), r);
  tree_vars(in.hi.get(), r);
  if (r.contains(t)) return true;
  for (const LIfArm& arm : in.arms) {
    for (const LInstrPtr& ip : arm.body) {
      if (reads_name(*ip, t)) return true;
    }
  }
  for (const LInstrPtr& ip : in.body) {
    if (reads_name(*ip, t)) return true;
  }
  return false;
}

// -- copy propagation ---------------------------------------------------------

/// Forward, per-straight-line-block propagation of CopyMat aliases: a read
/// of the copy becomes a read of the source while both still hold the same
/// value. Control flow clears the alias map (each loop iteration re-executes
/// its copies from the top, so a linear scan of the body is per-iteration
/// sound). A CopyMat that turns into `x = x` after propagation is dropped.
class CopyProp {
 public:
  explicit CopyProp(OptReport& rep) : rep_(rep) {}

  void run(std::vector<LInstrPtr>& body) { walk(body); }

 private:
  std::string resolve(const std::string& n) const {
    auto it = map_.find(n);
    return it == map_.end() ? n : it->second;
  }

  void rewrite_tree(LExpr* e) {
    if (e == nullptr) return;
    switch (e->kind) {
      case LExpr::Kind::MatVar:
      case LExpr::Kind::RowsOf:
      case LExpr::Kind::ColsOf:
      case LExpr::Kind::NumelOf: {
        std::string r = resolve(e->var);
        if (r != e->var) {
          e->var = r;
          ++rep_.copies_propagated;
        }
        break;
      }
      default:
        break;
    }
    rewrite_tree(e->a.get());
    rewrite_tree(e->b.get());
  }

  void rewrite_reads(LInstr& in) {
    for (LOperand& o : in.args) {
      if (o.is_matrix) {
        std::string r = resolve(o.mat);
        if (r != o.mat) {
          o.mat = r;
          ++rep_.copies_propagated;
        }
      }
      rewrite_tree(o.scalar.get());
    }
    rewrite_tree(in.tree.get());
    for (auto& row : in.literal_rows) {
      for (LExprPtr& e : row) rewrite_tree(e.get());
    }
  }

  /// A definition of `n` ends both aliases *of* n and aliases *to* n.
  void invalidate(const std::string& n) {
    map_.erase(n);
    for (auto it = map_.begin(); it != map_.end();) {
      it = (it->second == n) ? map_.erase(it) : std::next(it);
    }
  }

  void walk(std::vector<LInstrPtr>& body) {
    map_.clear();
    for (size_t i = 0; i < body.size(); ++i) {
      LInstr& in = *body[i];
      if (is_control(in.op)) {
        map_.clear();
        for (LIfArm& arm : in.arms) walk(arm.body);
        if (!in.body.empty()) walk(in.body);
        map_.clear();
        continue;
      }
      rewrite_reads(in);
      if (in.op == LOp::CopyMat && in.args.size() == 1 &&
          in.args[0].is_matrix && in.args[0].mat == in.dst) {
        body.erase(body.begin() + static_cast<ptrdiff_t>(i));
        --i;
        ++rep_.copies_propagated;
        continue;
      }
      Set defs;
      instr_defs(in, defs);
      for (const std::string& d : defs) invalidate(d);
      if (in.op == LOp::CopyMat && !in.dst.empty() && in.args.size() == 1 &&
          in.args[0].is_matrix && in.args[0].mat != in.dst) {
        map_[in.dst] = in.args[0].mat;
      }
    }
    map_.clear();
  }

  std::unordered_map<std::string, std::string> map_;
  OptReport& rep_;
};

// -- communication CSE --------------------------------------------------------

/// Within a straight-line block, a second communication call with the same
/// opcode and operands (none redefined in between, no rand draws) recomputes
/// a value a variable already holds: replace it with an alias. Control flow
/// clears the table.
class CommCse {
 public:
  explicit CommCse(OptReport& rep) : rep_(rep) {}

  void run(std::vector<LInstrPtr>& body) { walk(body); }

 private:
  struct Entry {
    std::string target;
    bool matrix = false;
    Set reads;
  };

  static std::string key_of(const LInstr& in) {
    std::string k = lop_name(in.op);
    k += '|';
    k += std::to_string(static_cast<int>(in.red));
    k += in.linear ? 'L' : '-';
    for (const LOperand& o : in.args) {
      k += '|';
      if (o.is_matrix) {
        k += 'm';
        k += o.mat;
      } else if (o.is_string) {
        k += 's';
        k += o.str;
      } else if (o.scalar) {
        k += 'e';
        k += dump_lexpr(*o.scalar);
      }
    }
    return k;
  }

  void invalidate(const std::string& n) {
    for (auto it = table_.begin(); it != table_.end();) {
      if (it->second.target == n || it->second.reads.contains(n)) {
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void walk(std::vector<LInstrPtr>& body) {
    table_.clear();
    for (size_t i = 0; i < body.size(); ++i) {
      LInstr& in = *body[i];
      if (is_control(in.op)) {
        table_.clear();
        for (LIfArm& arm : in.arms) walk(arm.body);
        if (!in.body.empty()) walk(in.body);
        table_.clear();
        continue;
      }
      Set defs;
      instr_defs(in, defs);
      bool cseable = is_comm_read(in.op) && !any_tree_has_rand(in) &&
                     (in.dst.empty() != in.sdst.empty());
      if (cseable) {
        std::string key = key_of(in);
        auto it = table_.find(key);
        if (it != table_.end()) {
          const std::string target = it->second.target;
          const bool matrix = it->second.matrix;
          std::string newdef = matrix ? in.dst : in.sdst;
          if (newdef == target) {
            // Recomputing into the same variable: a pure no-op.
            body.erase(body.begin() + static_cast<ptrdiff_t>(i));
            --i;
            ++rep_.cse_removed;
            continue;
          }
          auto repl = std::make_unique<LInstr>(
              matrix ? LOp::CopyMat : LOp::ScalarAssign, in.loc);
          if (matrix) {
            repl->dst = newdef;
            LOperand o;
            o.is_matrix = true;
            o.mat = target;
            repl->args.push_back(std::move(o));
          } else {
            repl->sdst = newdef;
            repl->tree = lsvar(target);
          }
          body[i] = std::move(repl);
          ++rep_.cse_removed;
          invalidate(newdef);
          continue;
        }
        Set reads;
        instr_reads(in, reads);
        for (const std::string& d : defs) invalidate(d);
        bool self = false;
        for (const std::string& d : defs) {
          if (reads.contains(d)) self = true;
        }
        if (!self) {
          Entry e;
          e.target = in.dst.empty() ? in.sdst : in.dst;
          e.matrix = !in.dst.empty();
          e.reads = std::move(reads);
          table_.emplace(std::move(key), std::move(e));
        }
        continue;
      }
      if (is_rmw(in.op) && !in.dst.empty()) defs.insert(in.dst);
      for (const std::string& d : defs) invalidate(d);
    }
    table_.clear();
  }

  std::unordered_map<std::string, Entry> table_;
  OptReport& rep_;
};

using Readers = std::unordered_map<std::string, std::vector<const LInstr*>>;

void add_readers(const std::vector<LInstrPtr>& body, Readers& readers) {
  for (const LInstrPtr& ip : body) {
    const LInstr& in = *ip;
    Set r;
    instr_reads(in, r);
    if (is_rmw(in.op) && !in.dst.empty()) r.insert(in.dst);
    for (const LIfArm& arm : in.arms) tree_vars(arm.cond.get(), r);
    tree_vars(in.cond.get(), r);
    tree_vars(in.lo.get(), r);
    tree_vars(in.step.get(), r);
    tree_vars(in.hi.get(), r);
    for (const std::string& n : r) readers[n].push_back(&in);
    for (const LIfArm& arm : in.arms) add_readers(arm.body, readers);
    add_readers(in.body, readers);
  }
}

/// name → instructions (anywhere in the scope) whose read set contains it.
Readers scope_readers(const std::vector<LInstrPtr>& root) {
  Readers readers;
  add_readers(root, readers);
  return readers;
}

// -- eye folding --------------------------------------------------------------

bool is_tmp(const std::string& n) { return n.rfind("ML_tmp", 0) == 0; }

/// Folds `t = ML_eye(r, c)` into the element-wise statement right after it
/// when that statement is t's only reader in the scope and its tree is
/// x + s*t, x + t*s, x - s*t, x - t*s, x + t or x - t, or one of those with
/// the t term first. The fold is one EyeUpdate: a single pass over x that
/// never builds the identity (cg's `a = a + n*eye(n, n)` stops allocating
/// and faulting in a 32 MiB matrix only to read it back). It keeps the
/// operator and the operand order; s*t and t*s are the same product. The
/// statements are adjacent and s, r and c are rand-free scalar trees, so
/// evaluating them together in one statement is exact.
class EyeFold {
 public:
  explicit EyeFold(OptReport& rep) : rep_(rep) {}

  void run(std::vector<LInstrPtr>& body) {
    readers_ = scope_readers(body);
    walk(body);
  }

 private:
  static bool is_mat(const LExpr& e, const std::string& name) {
    return e.kind == LExpr::Kind::MatVar && e.var == name;
  }

  /// The scale of an eye term over `t`: s for s*t or t*s, 1 for a bare t;
  /// null when `e` is no eye term or its scale reads a matrix.
  static LExprPtr eye_scale(const LExpr& e, const std::string& t) {
    if (is_mat(e, t)) return limm(1.0);
    if (e.kind != LExpr::Kind::Bin || e.bop != EwBin::Mul) return nullptr;
    const LExpr* s = is_mat(*e.b, t) ? e.a.get()
                     : is_mat(*e.a, t) ? e.b.get()
                                       : nullptr;
    if (s == nullptr || s->has_matrix_leaf()) return nullptr;
    Set reads;
    tree_vars(s, reads);
    if (reads.contains(t)) return nullptr;
    return clone_lexpr(*s);
  }

  /// The EyeUpdate equivalent to `ew` with `eye` folded in, or null.
  static LInstrPtr fold(LInstr& eye, const LInstr& ew) {
    const LExpr& e = *ew.tree;
    if (e.kind != LExpr::Kind::Bin ||
        (e.bop != EwBin::Add && e.bop != EwBin::Sub)) {
      return nullptr;
    }
    const std::string& t = eye.dst;
    bool eye_first = false;
    LExprPtr s = eye_scale(*e.b, t);
    const LExpr* x = e.a.get();
    if (!s) {
      s = eye_scale(*e.a, t);
      x = e.b.get();
      eye_first = true;
    }
    if (!s || x->kind != LExpr::Kind::MatVar || x->var == t) return nullptr;
    auto upd = std::make_unique<LInstr>(LOp::EyeUpdate, ew.loc);
    upd->dst = ew.dst;
    LOperand xo;
    xo.is_matrix = true;
    xo.mat = x->var;
    upd->args.push_back(std::move(xo));
    LOperand so;
    so.scalar = std::move(s);
    upd->args.push_back(std::move(so));
    upd->args.push_back(std::move(eye.args[0]));
    upd->args.push_back(std::move(eye.args[1]));
    upd->bop = e.bop;
    upd->eye_first = eye_first;
    return upd;
  }

  void walk(std::vector<LInstrPtr>& body) {
    for (size_t i = 0; i < body.size(); ++i) {
      LInstr& in = *body[i];
      for (LIfArm& arm : in.arms) walk(arm.body);
      walk(in.body);
      if (in.op != LOp::FillEye || !is_tmp(in.dst) || i + 1 == body.size() ||
          in.args.size() != 2 || any_tree_has_rand(in)) {
        continue;
      }
      const LInstr& ew = *body[i + 1];
      auto rit = readers_.find(in.dst);
      if (ew.op != LOp::Elemwise || !ew.tree || any_tree_has_rand(ew) ||
          rit == readers_.end() || rit->second.size() != 1 ||
          rit->second.front() != &ew) {
        continue;
      }
      LInstrPtr upd = fold(in, ew);
      if (!upd) continue;
      body[i] = std::move(upd);
      body.erase(body.begin() + static_cast<ptrdiff_t>(i) + 1);
      ++rep_.eyes_folded;
    }
  }

  Readers readers_;
  OptReport& rep_;
};

// -- element-wise fusion ------------------------------------------------------

/// Fuses `t = <tree1>; …; w = f(t)` into `w = f(<tree1>)` when the consumer
/// is the only instruction in the whole scope that reads t, both are Elemwise
/// in the same straight-line block, and nothing in between redefines t or any
/// producer input. All element-wise operands are aligned by construction, so
/// substituting the producer tree for the MatVar leaves is exact — per local
/// element, reads of index l happen before the write of index l, which is the
/// same in-place rule the single-statement fused loop already relies on.
class Fuser {
 public:
  Fuser(OptReport& rep, std::vector<LInstrPtr>& root, const Set& protect)
      : rep_(rep), root_(root), protect_(protect) {}

  void run() { walk(root_); }

 private:
  static size_t tree_nodes(const LExpr& e) {
    return 1 + (e.a ? tree_nodes(*e.a) : 0) + (e.b ? tree_nodes(*e.b) : 0);
  }

  static size_t count_mat_leaf(const LExpr& e, const std::string& name) {
    size_t n = (e.kind == LExpr::Kind::MatVar && e.var == name) ? 1 : 0;
    if (e.a) n += count_mat_leaf(*e.a, name);
    if (e.b) n += count_mat_leaf(*e.b, name);
    return n;
  }

  /// RowsOf/ColsOf/NumelOf of `name`: a shape query a tree can't replace.
  static bool has_query_of(const LExpr& e, const std::string& name) {
    switch (e.kind) {
      case LExpr::Kind::RowsOf:
      case LExpr::Kind::ColsOf:
      case LExpr::Kind::NumelOf:
        if (e.var == name) return true;
        break;
      default:
        break;
    }
    if (e.a && has_query_of(*e.a, name)) return true;
    if (e.b && has_query_of(*e.b, name)) return true;
    return false;
  }

  static void substitute(LExprPtr& e, const std::string& name,
                         const LExpr& repl) {
    if (!e) return;
    if (e->kind == LExpr::Kind::MatVar && e->var == name) {
      e = clone_lexpr(repl);
      return;
    }
    substitute(e->a, name, repl);
    substitute(e->b, name, repl);
  }

  void walk(std::vector<LInstrPtr>& body) {
    for (LInstrPtr& ip : body) {
      for (LIfArm& arm : ip->arms) walk(arm.body);
      if (!ip->body.empty()) walk(ip->body);
    }
    fuse_block(body);
  }

  void fuse_block(std::vector<LInstrPtr>& body) {
    bool changed = true;
    while (changed) {
      changed = false;
      auto readers = scope_readers(root_);
      for (size_t i = 0; i < body.size() && !changed; ++i) {
        LInstr& prod = *body[i];
        if (prod.op != LOp::Elemwise || prod.dst.empty() || !prod.tree) {
          continue;
        }
        if (any_tree_has_rand(prod) || !prod.tree->has_matrix_leaf()) continue;
        const std::string& t = prod.dst;
        if (protect_.contains(t)) continue;
        auto rit = readers.find(t);
        if (rit == readers.end() || rit->second.size() != 1) continue;
        const LInstr* sole = rit->second.front();
        Set prod_reads;
        tree_vars(prod.tree.get(), prod_reads);
        for (size_t j = i + 1; j < body.size(); ++j) {
          LInstr& cons = *body[j];
          if (is_control(cons.op)) break;
          if (&cons == sole) {
            if (cons.op != LOp::Elemwise || !cons.tree) break;
            if (has_query_of(*cons.tree, t)) break;
            size_t uses = count_mat_leaf(*cons.tree, t);
            if (uses == 0) break;
            size_t pn = tree_nodes(*prod.tree);
            if (uses > 1 && pn > 8) break;  // avoid duplicating big trees
            if (tree_nodes(*cons.tree) + uses * pn > 256) break;
            substitute(cons.tree, t, *prod.tree);
            body.erase(body.begin() + static_cast<ptrdiff_t>(i));
            ++rep_.fused;
            changed = true;
            break;
          }
          Set cdefs;
          instr_defs(cons, cdefs);
          if (cdefs.contains(t)) break;
          bool clobbers = false;
          for (const std::string& d : cdefs) {
            if (prod_reads.contains(d)) {
              clobbers = true;
              break;
            }
          }
          if (clobbers) break;
        }
      }
    }
  }

  OptReport& rep_;
  std::vector<LInstrPtr>& root_;
  const Set& protect_;
};

// -- loop-invariant communication motion --------------------------------------

/// Hoists top-level communication calls whose operands the loop never
/// redefines out of For/While bodies, into an if-guard in front of the loop
/// that re-evaluates the loop's own entry condition. The guard makes the
/// transformation exact for zero-trip loops (no speculative communication,
/// the target variable keeps its pre-loop value); for one or more trips the
/// hoisted call sees exactly the operand values iteration 1 would have seen.
class Licm {
 public:
  explicit Licm(OptReport& rep) : rep_(rep) {}

  void run(std::vector<LInstrPtr>& body) { walk(body); }

 private:
  void walk(std::vector<LInstrPtr>& body) {
    for (size_t i = 0; i < body.size(); ++i) {
      LInstr& in = *body[i];
      for (LIfArm& arm : in.arms) walk(arm.body);
      if (!in.body.empty()) walk(in.body);
      if (in.op == LOp::ForOp || in.op == LOp::WhileOp) {
        i += hoist_from(body, i);
      }
    }
  }

  static void count_defs(const std::vector<LInstrPtr>& body,
                         std::unordered_map<std::string, size_t>& count,
                         Set& rmw_targets) {
    for (const LInstrPtr& ip : body) {
      const LInstr& in = *ip;
      if (is_rmw(in.op) && !in.dst.empty()) rmw_targets.insert(in.dst);
      Set defs;
      instr_defs(in, defs);
      for (const std::string& d : defs) ++count[d];
      for (const LIfArm& arm : in.arms) count_defs(arm.body, count, rmw_targets);
      count_defs(in.body, count, rmw_targets);
    }
  }

  /// Is `t` read by the loop header or by anything at top-level positions
  /// before `p`? Such a read observes iteration N-1's value (or the
  /// pre-loop value in iteration 1), which a hoist would change.
  static bool read_before(const LInstr& loop, size_t p, const std::string& t) {
    Set hdr;
    tree_vars(loop.cond.get(), hdr);
    tree_vars(loop.lo.get(), hdr);
    tree_vars(loop.step.get(), hdr);
    tree_vars(loop.hi.get(), hdr);
    if (hdr.contains(t)) return true;
    for (size_t k = 0; k < p; ++k) {
      if (reads_name(*loop.body[k], t)) return true;
    }
    return false;
  }

  /// Entry condition for the guard: while re-evaluates its own condition;
  /// for uses the sign-exact trip test (step > 0 && lo <= hi) ||
  /// (step < 0 && lo >= hi), which also runs zero trips for step == 0 or
  /// NaN bounds, matching the executor.
  static LExprPtr guard_cond(const LInstr& loop) {
    if (loop.op == LOp::WhileOp) return clone_lexpr(*loop.cond);
    LExprPtr step = loop.step ? clone_lexpr(*loop.step) : limm(1.0);
    LExprPtr step2 = loop.step ? clone_lexpr(*loop.step) : limm(1.0);
    LExprPtr up = lbin(EwBin::And, lbin(EwBin::Gt, std::move(step), limm(0.0)),
                       lbin(EwBin::Le, clone_lexpr(*loop.lo),
                            clone_lexpr(*loop.hi)));
    LExprPtr down =
        lbin(EwBin::And, lbin(EwBin::Lt, std::move(step2), limm(0.0)),
             lbin(EwBin::Ge, clone_lexpr(*loop.lo), clone_lexpr(*loop.hi)));
    return lbin(EwBin::Or, std::move(up), std::move(down));
  }

  /// Returns the number of instructions inserted in front of body[li].
  size_t hoist_from(std::vector<LInstrPtr>& body, size_t li) {
    LInstr& loop = *body[li];
    if (body_has_jump(loop.body, true)) return 0;
    // The guard clones the loop's entry condition: bail if evaluating it a
    // second time would advance the random sequence.
    if (loop.op == LOp::WhileOp) {
      if (!loop.cond || tree_has_rand(*loop.cond)) return 0;
    } else {
      if (!loop.lo || !loop.hi) return 0;
      if (tree_has_rand(*loop.lo) || tree_has_rand(*loop.hi)) return 0;
      if (loop.step && tree_has_rand(*loop.step)) return 0;
    }

    Set defs;
    collect_defs(loop.body, defs);
    if (loop.op == LOp::ForOp && !loop.loop_var.empty()) {
      defs.insert(loop.loop_var);
    }
    std::unordered_map<std::string, size_t> def_count;
    Set rmw_targets;
    count_defs(loop.body, def_count, rmw_targets);

    std::vector<LInstrPtr> hoisted;
    bool grew = true;
    int rounds = 0;
    while (grew && rounds++ < 4) {
      grew = false;
      for (size_t p = 0; p < loop.body.size(); ++p) {
        LInstr& c = *loop.body[p];
        if (!is_comm_read(c.op) || any_tree_has_rand(c)) continue;
        std::string t = c.dst.empty() ? c.sdst : c.dst;
        if (t.empty()) continue;
        Set reads;
        instr_reads(c, reads);
        bool invariant = true;
        for (const std::string& r : reads) {
          if (defs.contains(r)) {
            invariant = false;
            break;
          }
        }
        if (!invariant) continue;
        auto dc = def_count.find(t);
        if (dc == def_count.end() || dc->second != 1) continue;
        if (rmw_targets.contains(t)) continue;
        if (read_before(loop, p, t)) continue;
        rep_.hoists.push_back({c.loc, t, lop_name(c.op)});
        hoisted.push_back(std::move(loop.body[p]));
        loop.body.erase(loop.body.begin() + static_cast<ptrdiff_t>(p));
        defs.erase(t);       // now loop-invariant for later candidates
        def_count.erase(t);
        grew = true;
        --p;
      }
    }
    if (hoisted.empty()) return 0;

    // Pre-define hoisted ML_tmp targets so the verifier's all-paths rule
    // holds; the values are never read when the guard does not fire (the
    // temps' only readers are inside the loop body).
    std::vector<LInstrPtr> inserted;
    for (const LInstrPtr& h : hoisted) {
      if (!h->sdst.empty() && is_tmp(h->sdst)) {
        auto pre = std::make_unique<LInstr>(LOp::ScalarAssign, h->loc);
        pre->sdst = h->sdst;
        pre->tree = limm(0.0);
        inserted.push_back(std::move(pre));
      } else if (!h->dst.empty() && is_tmp(h->dst)) {
        auto pre = std::make_unique<LInstr>(LOp::FillZeros, h->loc);
        pre->dst = h->dst;
        LOperand r;
        r.scalar = limm(1.0);
        LOperand cdim;
        cdim.scalar = limm(1.0);
        pre->args.push_back(std::move(r));
        pre->args.push_back(std::move(cdim));
        inserted.push_back(std::move(pre));
      }
    }
    auto guard = std::make_unique<LInstr>(LOp::IfOp, loop.loc);
    LIfArm arm;
    arm.cond = guard_cond(loop);
    arm.body = std::move(hoisted);
    guard->arms.push_back(std::move(arm));
    inserted.push_back(std::move(guard));

    size_t n = inserted.size();
    body.insert(body.begin() + static_cast<ptrdiff_t>(li),
                std::make_move_iterator(inserted.begin()),
                std::make_move_iterator(inserted.end()));
    return n;
  }

  OptReport& rep_;
};

// -- proof-backed shape-guard elimination -------------------------------------

/// Deletes ShapeGuard instructions the abstract interpreter proved can never
/// fire. The pass is deliberately dumb: it only matches each guard against
/// the proof list by (line, col, builtin) and records what it deleted, so
/// the verifier can later check every deletion against a proof (E6009). The
/// reasoning all lives in analysis/absint.cpp.
class GuardElim {
 public:
  GuardElim(OptReport& rep, const std::vector<GuardProof>& proofs)
      : rep_(rep), proofs_(proofs) {}

  void run(std::vector<LInstrPtr>& body) { walk(body); }

 private:
  static std::string builtin_of(const LInstr& in) {
    return in.args.size() > 1 && in.args[1].is_string ? in.args[1].str : "";
  }

  bool proven(const LInstr& in) const {
    for (const GuardProof& p : proofs_) {
      if (p.loc.line == in.loc.line && p.loc.col == in.loc.col &&
          p.builtin == builtin_of(in)) {
        return true;
      }
    }
    return false;
  }

  void walk(std::vector<LInstrPtr>& body) {
    for (size_t i = 0; i < body.size(); ++i) {
      LInstr& in = *body[i];
      for (LIfArm& arm : in.arms) walk(arm.body);
      if (!in.body.empty()) walk(in.body);
      if (in.op != LOp::ShapeGuard) continue;
      ++rep_.guards_seen;
      if (proven(in)) {
        rep_.guards_eliminated.push_back({in.loc, builtin_of(in)});
        body.erase(body.begin() + static_cast<ptrdiff_t>(i));
        --i;
      }
    }
  }

  OptReport& rep_;
  const std::vector<GuardProof>& proofs_;
};

// -- reduction coalescing -----------------------------------------------------

/// Merges each run of independent same-class Reduce statements into one
/// ReduceGroup, a single k-element allreduce (the paper's pass 6 applied to
/// collectives). A later Reduce joins the group of an earlier one in the
/// same body when only ScalarAssigns (or earlier members) stand between
/// them, none of those reads or writes its destination, and the
/// destinations differ. The group takes the first member's place, because
/// the statements in between may read that result; anything else in
/// between ends the run. Runs last: no other pass sees a group.
class Coalescer {
 public:
  explicit Coalescer(OptReport& rep) : rep_(rep) {}

  void run(std::vector<LInstrPtr>& body) { walk(body); }

 private:
  static bool groupable(const LInstr& in) {
    return in.op == LOp::Reduce && in.args.size() == 1 &&
           in.args[0].is_matrix && !in.sdst.empty();
  }

  void walk(std::vector<LInstrPtr>& body) {
    for (LInstrPtr& ip : body) {
      for (LIfArm& arm : ip->arms) walk(arm.body);
      walk(ip->body);
    }
    for (size_t i = 0; i < body.size(); ++i) {
      if (groupable(*body[i])) i = merge_run(body, i);
    }
  }

  /// Groups the run starting at body[first]; returns the index of the
  /// last statement the run covered, so the scan resumes at what ended it.
  size_t merge_run(std::vector<LInstrPtr>& body, size_t first) {
    const auto cls = rt::reduce_class(body[first]->red);
    std::vector<size_t> members{first};
    Set dsts{body[first]->sdst};
    Set between;  // names the ScalarAssigns passed so far read or write
    size_t end = first + 1;
    for (; end < body.size(); ++end) {
      const LInstr& in = *body[end];
      if (in.op == LOp::ScalarAssign) {
        instr_reads(in, between);
        between.insert(in.sdst);
        continue;
      }
      if (!groupable(in) || rt::reduce_class(in.red) != cls ||
          dsts.contains(in.sdst) || between.contains(in.sdst)) {
        break;
      }
      members.push_back(end);
      dsts.insert(in.sdst);
    }
    if (members.size() < 2) return first;
    auto group = std::make_unique<LInstr>(LOp::ReduceGroup, body[first]->loc);
    for (size_t m : members) {
      LInstr& r = *body[m];
      group->args.push_back(std::move(r.args[0]));
      group->call_dsts.push_back({r.sdst, false});
      group->reds.push_back(r.red);
    }
    for (size_t k = members.size(); k-- > 1;) {
      body.erase(body.begin() + static_cast<ptrdiff_t>(members[k]));
    }
    body[first] = std::move(group);
    rep_.coalesced += members.size() - 1;
    return end - members.size();
  }

  OptReport& rep_;
};

}  // namespace

OptReport run_opt(LProgram& prog, const OptOptions& opts) {
  OptReport rep;
  if (opts.level <= 0) return rep;
  run_peephole(prog);
  auto optimize_scope = [&](std::vector<LInstrPtr>& body, const Set& protect) {
    CopyProp(rep).run(body);
    CommCse(rep).run(body);
    EyeFold(rep).run(body);
    Fuser(rep, body, protect).run();
    Licm(rep).run(body);
    // Guard elimination runs before the final copy-prop and DSE so a guard
    // whose matrix becomes otherwise-unread frees that definition too.
    GuardElim(rep, opts.guard_proofs).run(body);
    CopyProp(rep).run(body);
  };
  optimize_scope(prog.script, {});
  for (LFunction& fn : prog.functions) {
    Set outs;
    for (const LVarDecl& d : fn.outs) outs.insert(d.name);
    optimize_scope(fn.body, outs);
  }
  // One DSE pass settles loop liveness before it removes anything, so it
  // keeps a definition whose only reader is a dead statement in a loop:
  // repeat until a pass removes nothing.
  for (size_t got = run_dse(prog); got > 0; got = run_dse(prog)) {
    rep.swept += got;
  }
  Coalescer(rep).run(prog.script);
  for (LFunction& fn : prog.functions) Coalescer(rep).run(fn.body);
  return rep;
}

}  // namespace otter::lower
