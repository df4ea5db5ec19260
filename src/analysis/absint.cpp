// Abstract interpreter: interval + symbolic-extent fixpoint over the
// inference CFG/SSA, followed by a rank-divergence taint pass over the
// pre-optimizer LIR.
//
// The value domain pairs every scalar SSA version with an Interval and an
// optional symbolic identity (sym, off): `sym` names an interned program
// value (a scalar variable version), `off` an affine integer offset on it.
// Matrix versions carry one such value per dimension. Symbolic identity is
// what proves zeros(n,n) square without knowing n; intervals are what prove
// indices in range and loops non-empty. Both are joined at phis; intervals
// are widened at phis from the third fixpoint iteration so loops terminate.
//
// Soundness rules the consumers rely on:
//  * a guard proof means the ShapeGuard can never abort on any concrete
//    execution (so deleting it is behaviour-preserving);
//  * W3208/W3209 fire only on *provable* violations (entire interval out of
//    bounds), never on "maybe";
//  * if the fixpoint fails to converge within the iteration cap the scope's
//    state is dropped and the reporting pass runs on inference facts alone
//    (strictly weaker, still sound).
#include "analysis/absint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "frontend/builtins.hpp"

namespace otter::analysis {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

bool is_whole(double v) {
  return std::isfinite(v) && std::floor(v) == v;
}
}  // namespace

Interval Interval::top() { return {-kInf, kInf, false}; }

Interval Interval::constant(double v) { return {v, v, is_whole(v)}; }

Interval Interval::range(double lo, double hi, bool integral) {
  return {lo, hi, integral};
}

bool Interval::is_const() const { return lo == hi && std::isfinite(lo); }

Interval join(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi),
          a.integral && b.integral};
}

Interval widen(const Interval& prev, const Interval& next) {
  Interval w = next;
  if (next.lo < prev.lo) w.lo = -kInf;
  if (next.hi > prev.hi) w.hi = kInf;
  w.integral = prev.integral && next.integral;
  return w;
}

Interval iadd(const Interval& a, const Interval& b) {
  double lo = a.lo + b.lo;
  double hi = a.hi + b.hi;
  if (std::isnan(lo)) lo = -kInf;
  if (std::isnan(hi)) hi = kInf;
  return {lo, hi, a.integral && b.integral};
}

Interval isub(const Interval& a, const Interval& b) {
  double lo = a.lo - b.hi;
  double hi = a.hi - b.lo;
  if (std::isnan(lo)) lo = -kInf;
  if (std::isnan(hi)) hi = kInf;
  return {lo, hi, a.integral && b.integral};
}

Interval imul(const Interval& a, const Interval& b) {
  double c[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
  double lo = kInf;
  double hi = -kInf;
  for (double v : c) {
    if (std::isnan(v)) return Interval::top();  // 0 * inf corner: give up
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi, a.integral && b.integral};
}

Interval ineg(const Interval& a) { return {-a.hi, -a.lo, a.integral}; }

namespace {

using sema::Action;
using sema::BaseType;
using sema::Ty;

/// A scalar abstract value: interval plus optional symbolic identity.
/// sym >= 0 means "this value is exactly <interned scalar> + off" — two
/// SVals with the same (sym, off) are equal on every execution.
struct SVal {
  Interval iv = Interval::top();
  int sym = -1;
  long off = 0;

  friend bool operator==(const SVal&, const SVal&) = default;
};

SVal join_sval(const SVal& a, const SVal& b) {
  SVal r;
  r.iv = join(a.iv, b.iv);
  if (a.sym >= 0 && a.sym == b.sym && a.off == b.off) {
    r.sym = a.sym;
    r.off = a.off;
  }
  return r;
}

SVal widen_sval(const SVal& prev, const SVal& next) {
  SVal r;
  r.iv = widen(prev.iv, next.iv);
  if (prev.sym >= 0 && prev.sym == next.sym && prev.off == next.off) {
    r.sym = prev.sym;
    r.off = prev.off;
  }
  return r;
}

/// Two extents provably equal on every execution: same symbolic identity,
/// or the same known constant.
bool same_extent(const SVal& a, const SVal& b) {
  if (a.sym >= 0 && a.sym == b.sym && a.off == b.off) return true;
  return a.iv.is_const() && b.iv.is_const() && a.iv.lo == b.iv.lo;
}

/// Abstract value of one SSA version: a scalar SVal, or per-dimension
/// extents for a matrix.
struct AbsVal {
  bool matrix = false;
  SVal s;
  SVal rows, cols;

  friend bool operator==(const AbsVal&, const AbsVal&) = default;

  static AbsVal top_scalar() { return {}; }
  static SVal top_extent() {
    SVal e;
    e.iv = Interval::range(0, kInf, true);
    return e;
  }
  static AbsVal top_matrix() {
    AbsVal v;
    v.matrix = true;
    v.rows = top_extent();
    v.cols = top_extent();
    return v;
  }
};

/// Sound translation of an inference lattice value (the fallback whenever
/// the interpreter has nothing sharper).
AbsVal from_ty(const Ty& t) {
  if (t.is_matrix()) {
    AbsVal v = AbsVal::top_matrix();
    if (t.rows >= 0) v.rows.iv = Interval::constant(static_cast<double>(t.rows));
    if (t.cols >= 0) v.cols.iv = Interval::constant(static_cast<double>(t.cols));
    return v;
  }
  AbsVal v;
  if (t.has_cval) {
    v.s.iv = Interval::constant(t.cval);
  } else if (t.type == BaseType::Integer) {
    v.s.iv = Interval::range(-kInf, kInf, true);
  }
  return v;
}

AbsVal join_absval(const AbsVal& a, const AbsVal& b, const AbsVal& fallback) {
  if (a.matrix != b.matrix) return fallback;
  AbsVal r;
  r.matrix = a.matrix;
  if (a.matrix) {
    r.rows = join_sval(a.rows, b.rows);
    r.cols = join_sval(a.cols, b.cols);
  } else {
    r.s = join_sval(a.s, b.s);
  }
  return r;
}

AbsVal widen_absval(const AbsVal& prev, const AbsVal& next,
                    const AbsVal& fallback) {
  if (prev.matrix != next.matrix) return fallback;
  AbsVal r;
  r.matrix = prev.matrix;
  if (prev.matrix) {
    r.rows = widen_sval(prev.rows, next.rows);
    r.cols = widen_sval(prev.cols, next.cols);
  } else {
    r.s = widen_sval(prev.s, next.s);
  }
  return r;
}

std::string fmt_num(double v) {
  if (v == kInf) return "inf";
  if (v == -kInf) return "-inf";
  if (is_whole(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string fmt_range(const Interval& iv) {
  if (iv.is_const()) return fmt_num(iv.lo);
  return "[" + fmt_num(iv.lo) + ", " + fmt_num(iv.hi) + "]";
}

/// State shared across scopes: guard proof status (AND over instances),
/// findings with location dedupe.
struct Ctx {
  const sema::InferResult& inf;
  /// Guard expression -> still proven in every instance analyzed so far.
  std::unordered_map<const Expr*, bool> guard_status;
  std::vector<AbsFinding> findings;
  std::set<std::tuple<std::string, uint32_t, uint32_t>> seen;

  void report(const char* code, SourceLoc loc, std::string msg) {
    if (!seen.insert({code, loc.line, loc.col}).second) return;
    findings.push_back({code, loc, std::move(msg)});
  }
};

// -- per-scope fixpoint -------------------------------------------------------

class ScopeAbs {
 public:
  ScopeAbs(Ctx& ctx, const sema::ScopeSsa& ssa, const sema::ScopeTypes& types)
      : ctx_(ctx), ssa_(ssa), types_(types) {}

  void run(const std::unordered_map<std::string, AbsVal>& entry) {
    for (const auto& [name, val] : entry) set_version(name, 0, val);
    bool converged = false;
    for (int iter = 0; iter < 32; ++iter) {
      changed_ = false;
      widen_ = iter >= 2;
      sweep();
      if (!changed_) {
        converged = true;
        break;
      }
    }
    if (!converged) {
      // Drop everything this analysis computed: the reporting pass below
      // then sees only inference facts (via the from_ty fallbacks), which
      // are sound without a fixpoint.
      vals_.clear();
      defined_.clear();
      for (const auto& [name, val] : entry) set_version(name, 0, val);
    }
    report_ = true;
    sweep();
  }

 private:
  // -- state ------------------------------------------------------------------

  void set_version(const std::string& name, int ver, const AbsVal& v) {
    if (ver < 0) return;
    auto cit = ssa_.version_counts.find(name);
    size_t n = cit == ssa_.version_counts.end()
                   ? static_cast<size_t>(ver) + 1
                   : static_cast<size_t>(std::max(cit->second, ver + 1));
    auto& vec = vals_[name];
    auto& def = defined_[name];
    if (vec.size() < n) {
      vec.resize(n);
      def.resize(n, 0);
    }
    auto u = static_cast<size_t>(ver);
    if (!def[u] || !(vec[u] == v)) {
      changed_ = true;
      vec[u] = v;
      def[u] = 1;
    }
  }

  bool has_version(const std::string& name, int ver) const {
    if (ver < 0) return false;
    auto it = defined_.find(name);
    return it != defined_.end() &&
           static_cast<size_t>(ver) < it->second.size() &&
           it->second[static_cast<size_t>(ver)];
  }

  AbsVal get_version(const std::string& name, int ver,
                     const AbsVal& fallback) const {
    if (!has_version(name, ver)) return fallback;
    return vals_.at(name)[static_cast<size_t>(ver)];
  }

  /// Inference's lattice value for a (name, version) pair.
  AbsVal ty_of_version(const std::string& name, int ver) const {
    auto it = types_.versions.find(name);
    if (it != types_.versions.end() && ver >= 0 &&
        static_cast<size_t>(ver) < it->second.size()) {
      return from_ty(it->second[static_cast<size_t>(ver)]);
    }
    auto vc = types_.var_class.find(name);
    if (vc != types_.var_class.end()) return from_ty(vc->second);
    return AbsVal::top_scalar();
  }

  AbsVal ty_of_expr(const Expr& e) const {
    auto it = types_.expr_types.find(&e);
    if (it != types_.expr_types.end()) return from_ty(it->second);
    return AbsVal::top_scalar();
  }

  int intern_sym(const std::string& name, int ver) {
    auto [it, fresh] = syms_.try_emplace({name, ver}, next_sym_);
    if (fresh) ++next_sym_;
    return it->second;
  }

  // -- fixpoint sweep ---------------------------------------------------------

  void sweep() {
    for (const sema::BasicBlock& b : ssa_.cfg.blocks) {
      auto pit = ssa_.phis.find(b.id);
      if (pit != ssa_.phis.end()) {
        for (const sema::Phi& phi : pit->second) apply_phi(phi);
      }
      for (const Action& a : b.actions) exec_action(a);
    }
  }

  void apply_phi(const sema::Phi& phi) {
    AbsVal fallback = ty_of_version(phi.var, phi.out);
    bool any = false;
    AbsVal joined;
    for (int in : phi.ins) {
      if (!has_version(phi.var, in)) continue;  // undefined path: optimistic
      const AbsVal& v = vals_.at(phi.var)[static_cast<size_t>(in)];
      joined = any ? join_absval(joined, v, fallback) : v;
      any = true;
    }
    if (!any) return;
    if (widen_ && has_version(phi.var, phi.out)) {
      joined = widen_absval(vals_.at(phi.var)[static_cast<size_t>(phi.out)],
                            joined, fallback);
    }
    set_version(phi.var, phi.out, joined);
  }

  void exec_action(const Action& a) {
    switch (a.kind) {
      case Action::Kind::Statement:
        if (a.stmt) exec_stmt(*a.stmt);
        break;
      case Action::Kind::Condition:
        if (a.cond) {
          eval(*a.cond);
          if (report_ && a.stmt && a.stmt->kind == StmtKind::For &&
              a.cond->kind == ExprKind::Range) {
            check_zero_trip(*a.stmt, *a.cond);
          }
        }
        break;
      case Action::Kind::LoopDef:
        if (a.stmt) bind_loop_var(*a.stmt);
        break;
    }
  }

  void exec_stmt(Stmt& s) {
    switch (s.kind) {
      case StmtKind::Assign: {
        AbsVal rhs = eval(*s.expr);
        if (s.targets.size() == 1) {
          LValue& t = s.targets[0];
          if (t.indices.empty()) {
            set_version(t.name, t.ssa_version, rhs);
          } else {
            // Indexed write: shape-preserving (the run time errors on an
            // out-of-range store, it never grows the matrix).
            AbsVal fb = ty_of_version(t.name, t.ssa_version);
            AbsVal base = get_version(t.name, t.ssa_use_version, fb);
            if (report_) check_indices(base, t.indices, t.name);
            set_version(t.name, t.ssa_version, base);
          }
        } else {
          for (LValue& t : s.targets) {
            set_version(t.name, t.ssa_version,
                        ty_of_version(t.name, t.ssa_version));
          }
        }
        break;
      }
      case StmtKind::ExprStmt:
        if (s.expr) eval(*s.expr);
        break;
      default:
        break;  // Global etc.: no abstract effect
    }
  }

  void bind_loop_var(Stmt& s) {
    if (s.loop_var.empty()) return;
    if (s.expr && s.expr->kind == ExprKind::Range) {
      SVal lo = eval(*s.expr->lhs).s;
      SVal hi = eval(*s.expr->rhs).s;
      SVal step;
      step.iv = Interval::constant(1.0);
      if (s.expr->step) step = eval(*s.expr->step).s;
      AbsVal k;
      // The loop variable starts at lo and steps toward hi without passing
      // it, so it always stays inside the hull of the two bounds.
      k.s.iv = join(lo.iv, hi.iv);
      k.s.iv.integral = lo.iv.integral && step.iv.integral;
      set_version(s.loop_var, s.loop_var_version, k);
    } else {
      set_version(s.loop_var, s.loop_var_version,
                  ty_of_version(s.loop_var, s.loop_var_version));
    }
  }

  void check_zero_trip(const Stmt& s, const Expr& range) {
    Interval lo = eval(*range.lhs).s.iv;
    Interval hi = eval(*range.rhs).s.iv;
    Interval step = Interval::constant(1.0);
    if (range.step) step = eval(*range.step).s.iv;
    bool zero = false;
    std::string why;
    if (step.is_const() && step.lo == 0.0) {
      zero = true;
      why = "the step is 0";
    } else if (step.lo > 0 && lo.lo > hi.hi) {
      zero = true;
      why = "the lower bound " + fmt_range(lo) +
            " always exceeds the upper bound " + fmt_range(hi);
    } else if (step.hi < 0 && lo.hi < hi.lo) {
      zero = true;
      why = "the lower bound " + fmt_range(lo) +
            " is always below the upper bound " + fmt_range(hi) +
            " while the step is negative";
    }
    if (zero) {
      ctx_.report("W3209", range.loc,
                  "loop over '" + s.loop_var +
                      "' provably executes zero iterations: " + why);
    }
  }

  // -- expression evaluation --------------------------------------------------

  AbsVal eval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::Number: {
        AbsVal v;
        v.s.iv = Interval::constant(e.number);
        if (e.is_int_literal) v.s.iv.integral = true;
        return v;
      }
      case ExprKind::Ident:
        return eval_ident(e);
      case ExprKind::Unary:
        return eval_unary(e);
      case ExprKind::Binary:
        return eval_binary(e);
      case ExprKind::Range:
        return eval_range(e);
      case ExprKind::Call:
        return eval_call(e);
      case ExprKind::Matrix:
        for (const auto& row : e.rows) {
          for (const ExprPtr& el : row) eval(*el);
        }
        return ty_of_expr(e);
      default:
        return ty_of_expr(e);  // String / Colon / End
    }
  }

  AbsVal eval_ident(const Expr& e) {
    if (e.callee == CalleeKind::Variable) {
      AbsVal v = get_version(e.name, e.ssa_version, ty_of_expr(e));
      // Give plain scalar reads a symbolic identity so later structural
      // comparisons (zeros(n, n) square, size(A,1) == size(B,1)) work.
      if (!v.matrix && v.s.sym < 0 && e.ssa_version >= 0 &&
          !v.s.iv.is_const()) {
        v.s.sym = intern_sym(e.name, e.ssa_version);
        v.s.off = 0;
        set_version(e.name, e.ssa_version, v);
      }
      return v;
    }
    AbsVal v;
    if (e.name == "pi") {
      v.s.iv = Interval::constant(3.14159265358979323846);
    } else if (e.name == "eps") {
      v.s.iv = Interval::constant(2.220446049250313e-16);
    } else if (e.name == "Inf") {
      v.s.iv = Interval::range(kInf, kInf, false);
    } else if (e.name == "rand") {
      v.s.iv = Interval::range(0.0, 1.0, false);
    } else if (e.name == "rank") {
      v.s.iv = Interval::range(0.0, kInf, true);
    } else if (e.name == "nprocs") {
      v.s.iv = Interval::range(1.0, kInf, true);
    } else {
      return ty_of_expr(e);  // NaN and anything else: top
    }
    return v;
  }

  AbsVal eval_unary(const Expr& e) {
    AbsVal a = eval(*e.lhs);
    switch (e.un_op) {
      case UnOp::Plus:
        return a;
      case UnOp::Neg:
        if (a.matrix) return a;  // shape preserved
        {
          AbsVal v;
          v.s.iv = ineg(a.s.iv);
          return v;
        }
      case UnOp::Not: {
        if (a.matrix) return a;
        AbsVal v;
        v.s.iv = Interval::range(0.0, 1.0, true);
        return v;
      }
      case UnOp::Transpose:
      case UnOp::CTranspose: {
        if (!a.matrix) return a;
        AbsVal v = a;
        std::swap(v.rows, v.cols);
        return v;
      }
    }
    return ty_of_expr(e);
  }

  static bool is_comparison(BinOp op) {
    switch (op) {
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
      case BinOp::Eq:
      case BinOp::Ne:
      case BinOp::And:
      case BinOp::Or:
      case BinOp::AndAnd:
      case BinOp::OrOr:
        return true;
      default:
        return false;
    }
  }

  static bool is_elementwise(BinOp op) {
    switch (op) {
      case BinOp::Add:
      case BinOp::Sub:
      case BinOp::ElemMul:
      case BinOp::ElemDiv:
      case BinOp::ElemPow:
        return true;
      default:
        return is_comparison(op);
    }
  }

  AbsVal eval_binary(const Expr& e) {
    AbsVal a = eval(*e.lhs);
    AbsVal b = eval(*e.rhs);
    if (!a.matrix && !b.matrix) {
      AbsVal v;
      switch (e.bin_op) {
        case BinOp::Add:
          v.s.iv = iadd(a.s.iv, b.s.iv);
          affine(v.s, a.s, b.s, +1);
          break;
        case BinOp::Sub:
          v.s.iv = isub(a.s.iv, b.s.iv);
          affine(v.s, a.s, b.s, -1);
          break;
        case BinOp::ElemMul:
        case BinOp::MatMul:
          v.s.iv = imul(a.s.iv, b.s.iv);
          break;
        default:
          if (is_comparison(e.bin_op)) {
            v.s.iv = Interval::range(0.0, 1.0, true);
          } else {
            return ty_of_expr(e);
          }
      }
      return v;
    }
    // Matrix-ranked result: propagate shape.
    if (e.bin_op == BinOp::MatMul && a.matrix && b.matrix) {
      AbsVal v = AbsVal::top_matrix();
      v.rows = a.rows;
      v.cols = b.cols;
      return v;
    }
    if (is_elementwise(e.bin_op) ||
        (e.bin_op == BinOp::MatMul && (!a.matrix || !b.matrix))) {
      // Element-wise (or scalar-matrix product): the matrix operands agree
      // in shape at run time, so either operand's extents describe the
      // result; prefer the one carrying symbolic identity.
      AbsVal v = AbsVal::top_matrix();
      const AbsVal& m1 = a.matrix ? a : b;
      const AbsVal& m2 = b.matrix ? b : a;
      v.rows = m1.rows.sym >= 0 ? m1.rows : m2.rows;
      v.cols = m1.cols.sym >= 0 ? m1.cols : m2.cols;
      return v;
    }
    return ty_of_expr(e);
  }

  /// Affine symbolic transfer for +/-: sym + const stays symbolic.
  static void affine(SVal& out, const SVal& a, const SVal& b, int sign) {
    if (a.sym >= 0 && b.iv.is_const() && b.iv.integral) {
      out.sym = a.sym;
      out.off = a.off + sign * static_cast<long>(b.iv.lo);
    } else if (sign > 0 && b.sym >= 0 && a.iv.is_const() && a.iv.integral) {
      out.sym = b.sym;
      out.off = b.off + static_cast<long>(a.iv.lo);
    }
  }

  AbsVal eval_range(const Expr& e) {
    Interval lo = eval(*e.lhs).s.iv;
    Interval hi = eval(*e.rhs).s.iv;
    Interval step = Interval::constant(1.0);
    if (e.step) step = eval(*e.step).s.iv;
    AbsVal v = AbsVal::top_matrix();
    v.rows.iv = Interval::constant(1.0);
    if (lo.is_const() && hi.is_const() && step.is_const() && step.lo != 0.0) {
      double n = std::floor((hi.lo - lo.lo) / step.lo) + 1.0;
      v.cols.iv = Interval::constant(std::max(0.0, n));
    }
    return v;
  }

  AbsVal eval_call(const Expr& e) {
    if (e.callee == CalleeKind::Variable) {
      // Matrix (or scalar) indexing.
      AbsVal base = get_version(e.name, e.ssa_version, ty_of_expr(e));
      if (report_) check_indices(base, e.args, e.name);
      for (const ExprPtr& a : e.args) eval(*a);
      return ty_of_expr(e);
    }
    if (e.callee != CalleeKind::Builtin) {
      for (const ExprPtr& a : e.args) eval(*a);
      return ty_of_expr(e);  // user function: inference's instance result
    }
    const BuiltinInfo* b = find_builtin(e.name);
    if (b == nullptr) return ty_of_expr(e);
    switch (b->id) {
      case Builtin::Zeros:
      case Builtin::Ones:
      case Builtin::Rand:
      case Builtin::Eye:
        return eval_ctor(e);
      case Builtin::Linspace: {
        for (const ExprPtr& a : e.args) eval(*a);
        AbsVal v = AbsVal::top_matrix();
        v.rows.iv = Interval::constant(1.0);
        if (e.args.size() == 3) v.cols = extent_of(*e.args[2]);
        return v;
      }
      case Builtin::Size: {
        AbsVal a = e.args.empty() ? AbsVal::top_scalar() : eval(*e.args[0]);
        if (e.args.size() == 2) {
          Interval d = eval(*e.args[1]).s.iv;
          AbsVal v;
          if (!a.matrix) {
            v.s.iv = Interval::constant(1.0);
          } else if (d.is_const() && d.lo == 1.0) {
            v.s = a.rows;
          } else if (d.is_const() && d.lo == 2.0) {
            v.s = a.cols;
          } else {
            v.s = join_sval(a.rows, a.cols);
          }
          return v;
        }
        return ty_of_expr(e);  // [r, c] vector form
      }
      case Builtin::Length: {
        AbsVal a = e.args.empty() ? AbsVal::top_scalar() : eval(*e.args[0]);
        AbsVal v;
        if (!a.matrix) {
          v.s.iv = Interval::constant(1.0);
        } else if (a.rows.iv.is_const() && a.rows.iv.lo == 1.0) {
          v.s = a.cols;
        } else if (a.cols.iv.is_const() && a.cols.iv.lo == 1.0) {
          v.s = a.rows;
        } else {
          // max(rows, cols)
          v.s.iv = Interval::range(std::max(a.rows.iv.lo, a.cols.iv.lo),
                                   std::max(a.rows.iv.hi, a.cols.iv.hi), true);
        }
        return v;
      }
      case Builtin::Numel: {
        AbsVal a = e.args.empty() ? AbsVal::top_scalar() : eval(*e.args[0]);
        AbsVal v;
        if (!a.matrix) {
          v.s.iv = Interval::constant(1.0);
        } else if (a.rows.iv.is_const() && a.rows.iv.lo == 1.0) {
          v.s = a.cols;
        } else if (a.cols.iv.is_const() && a.cols.iv.lo == 1.0) {
          v.s = a.rows;
        } else {
          v.s.iv = imul(a.rows.iv, a.cols.iv);
        }
        return v;
      }
      case Builtin::Sum:
      case Builtin::Mean:
      case Builtin::Prod:
      case Builtin::MinFn:
      case Builtin::MaxFn:
      case Builtin::Dot:
      case Builtin::Norm:
      case Builtin::Trapz: {
        AbsVal a = e.args.empty() ? AbsVal::top_scalar() : eval(*e.args[0]);
        for (size_t i = 1; i < e.args.size(); ++i) eval(*e.args[i]);
        if (report_) check_guard(e, a);
        AbsVal r = ty_of_expr(e);
        if (r.matrix && a.matrix) {
          // Column-wise reduction: 1 x cols, keeping the symbolic extent.
          r.rows.iv = Interval::constant(1.0);
          r.cols = a.cols;
        }
        return r;
      }
      case Builtin::Abs: {
        AbsVal a = e.args.empty() ? AbsVal::top_scalar() : eval(*e.args[0]);
        if (a.matrix) return a;
        AbsVal v;
        double lo = std::abs(a.s.iv.lo);
        double hi = std::abs(a.s.iv.hi);
        bool spans0 = a.s.iv.lo <= 0 && a.s.iv.hi >= 0;
        v.s.iv = Interval::range(spans0 ? 0.0 : std::min(lo, hi),
                                 std::max(lo, hi), a.s.iv.integral);
        return v;
      }
      case Builtin::Floor:
      case Builtin::Ceil:
      case Builtin::Round: {
        AbsVal a = e.args.empty() ? AbsVal::top_scalar() : eval(*e.args[0]);
        if (a.matrix) return a;
        AbsVal v;
        v.s.iv = a.s.iv;
        v.s.iv.lo = std::floor(v.s.iv.lo);
        v.s.iv.hi = std::ceil(v.s.iv.hi);
        v.s.iv.integral = true;
        return v;
      }
      case Builtin::RankId: {
        AbsVal v;
        v.s.iv = Interval::range(0.0, kInf, true);
        return v;
      }
      case Builtin::NProcs: {
        AbsVal v;
        v.s.iv = Interval::range(1.0, kInf, true);
        return v;
      }
      default: {
        for (const ExprPtr& a : e.args) eval(*a);
        AbsVal r = ty_of_expr(e);
        if (r.matrix && b->elementwise && !e.args.empty()) {
          AbsVal a0 = eval(*e.args[0]);
          if (a0.matrix) return a0;  // shape preserved exactly
        }
        return r;
      }
    }
  }

  /// Extent argument of a constructor: the abstract value of the argument,
  /// given a symbolic identity when it is a plain variable read, validated
  /// (provably bad extents are W3208), then clamped to the valid range.
  SVal extent_of(const Expr& arg) {
    AbsVal a = eval(arg);
    SVal s = a.matrix ? AbsVal::top_extent() : a.s;
    if (report_ && !a.matrix) {
      if (s.iv.hi < 0) {
        ctx_.report("W3208", arg.loc,
                    "matrix extent is provably negative (it is " +
                        fmt_range(s.iv) + ")");
      } else if (s.iv.is_const() && !is_whole(s.iv.lo)) {
        ctx_.report("W3208", arg.loc,
                    "matrix extent " + fmt_num(s.iv.lo) +
                        " is provably not an integer");
      }
    }
    // From here on the program only continues if the extent was valid.
    s.iv.lo = std::max(0.0, std::floor(s.iv.lo));
    s.iv.hi = std::max(s.iv.lo, std::floor(s.iv.hi));
    s.iv.integral = true;
    return s;
  }

  AbsVal eval_ctor(const Expr& e) {
    AbsVal v = AbsVal::top_matrix();
    if (e.args.empty()) {
      v.rows.iv = Interval::constant(1.0);
      v.cols.iv = Interval::constant(1.0);
      return v;
    }
    v.rows = extent_of(*e.args[0]);
    // zeros(n) is n-by-n: both dimensions share one SVal, which is what
    // makes the square-matrix guard proof work without knowing n.
    v.cols = e.args.size() >= 2 ? extent_of(*e.args[1]) : v.rows;
    return v;
  }

  void check_guard(const Expr& e, const AbsVal& arg) {
    auto git = ctx_.inf.guards.find(&e);
    if (git == ctx_.inf.guards.end()) return;
    bool proven = false;
    if (!arg.matrix) {
      proven = true;  // a scalar has numel 1: the guard cannot fire
    } else {
      const Interval& r = arg.rows.iv;
      const Interval& c = arg.cols.iv;
      if (r.lo >= 2 && c.lo >= 2) {
        proven = true;  // provably a real matrix: the assumption holds
      } else if (r.hi <= 1 && c.hi <= 1) {
        proven = true;  // numel <= 1: the vector test cannot trip
      } else if (r.hi <= 0 || c.hi <= 0) {
        proven = true;  // provably empty
      } else if (same_extent(arg.rows, arg.cols)) {
        // Provably square: a vector with numel > 1 has rows != cols.
        proven = true;
      }
    }
    auto [it, fresh] = ctx_.guard_status.try_emplace(&e, proven);
    if (!fresh) it->second = it->second && proven;
  }

  /// W3208 for reads and writes: every index expression whose interval lies
  /// entirely outside [1, extent].
  void check_indices(const AbsVal& base, const std::vector<ExprPtr>& idx,
                     const std::string& name) {
    SVal rows = base.matrix ? base.rows : SVal{Interval::constant(1.0), -1, 0};
    SVal cols = base.matrix ? base.cols : SVal{Interval::constant(1.0), -1, 0};
    for (size_t i = 0; i < idx.size(); ++i) {
      const Expr& ix = *idx[i];
      switch (ix.kind) {
        case ExprKind::Colon:
        case ExprKind::End:
        case ExprKind::Range:
        case ExprKind::Matrix:
        case ExprKind::String:
          continue;
        default:
          break;
      }
      AbsVal v = eval(ix);
      if (v.matrix) continue;  // vector index: not checked
      const Interval& iv = v.s.iv;
      if (iv.hi < 1) {
        ctx_.report("W3208", ix.loc,
                    "index of '" + name + "' is provably out of bounds: it "
                    "is " + fmt_range(iv) + " but indices start at 1");
        continue;
      }
      Interval ext = idx.size() == 1 ? imul(rows.iv, cols.iv)
                                     : (i == 0 ? rows.iv : cols.iv);
      if (std::isfinite(ext.hi) && iv.lo > ext.hi) {
        const char* dim = idx.size() == 1 ? "elements"
                          : (i == 0 ? "rows" : "columns");
        ctx_.report("W3208", ix.loc,
                    "index of '" + name + "' is provably out of bounds: it "
                    "is " + fmt_range(iv) + " but '" + name + "' has at "
                    "most " + fmt_num(ext.hi) + " " + dim);
      }
    }
  }

  Ctx& ctx_;
  const sema::ScopeSsa& ssa_;
  const sema::ScopeTypes& types_;
  std::unordered_map<std::string, std::vector<AbsVal>> vals_;
  std::unordered_map<std::string, std::vector<char>> defined_;
  std::map<std::pair<std::string, int>, int> syms_;
  int next_sym_ = 0;
  bool changed_ = false;
  bool widen_ = false;
  bool report_ = false;
};

// -- SPMD communication safety (W3210) ----------------------------------------

using lower::LExpr;
using lower::LInstr;
using lower::LInstrPtr;
using lower::LOp;
using lower::LOperand;

/// Communication / collective operations: every rank must reach these in
/// lockstep (the same set the linter's W3207 uses, plus LoadFile).
bool is_comm_op(LOp op) {
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

/// Taint walk over the structured pre-optimizer LIR. Seeds: rank() leaves —
/// the one value that legitimately differs across ranks (nprocs() is
/// replicated-identical and never seeds taint). Propagation: any definition
/// reading a tainted value, and any definition inside a rank-divergent
/// region (implicit flow). A communication op inside a rank-divergent
/// region, or reading a tainted operand, is W3210.
class SpmdTaint {
 public:
  explicit SpmdTaint(Ctx& ctx) : ctx_(ctx) {}

  void run(const lower::LProgram& lir) {
    analyze(lir.script);
    for (const lower::LFunction& fn : lir.functions) analyze(fn.body);
  }

 private:
  struct Div {
    SourceLoc pred;  ///< location of the rank-divergent predicate
  };

  static bool tree_has_rank(const LExpr& e) {
    if (e.kind == LExpr::Kind::RankId) return true;
    if (e.a && tree_has_rank(*e.a)) return true;
    if (e.b && tree_has_rank(*e.b)) return true;
    return false;
  }

  void tree_taint(const LExpr* e, bool* tainted) const {
    if (e == nullptr || *tainted) return;
    switch (e->kind) {
      case LExpr::Kind::RankId:
        *tainted = true;
        return;
      case LExpr::Kind::ScalarVar:
      case LExpr::Kind::MatVar:
      case LExpr::Kind::RowsOf:
      case LExpr::Kind::ColsOf:
      case LExpr::Kind::NumelOf:
        if (tainted_.contains(e->var)) *tainted = true;
        break;
      default:
        break;
    }
    tree_taint(e->a.get(), tainted);
    tree_taint(e->b.get(), tainted);
  }

  bool reads_taint(const LInstr& in) const {
    bool t = false;
    for (const LOperand& o : in.args) {
      if (o.is_matrix && tainted_.contains(o.mat)) return true;
      tree_taint(o.scalar.get(), &t);
      if (t) return true;
    }
    tree_taint(in.tree.get(), &t);
    if (t) return true;
    for (const auto& row : in.literal_rows) {
      for (const lower::LExprPtr& el : row) {
        tree_taint(el.get(), &t);
        if (t) return true;
      }
    }
    return false;
  }

  void taint_defs(const LInstr& in) {
    auto add = [&](const std::string& n) {
      if (!n.empty() && tainted_.insert(n).second) changed_ = true;
    };
    add(in.dst);
    add(in.sdst);
    for (const lower::LVarDecl& d : in.call_dsts) add(d.name);
    add(in.loop_var);
  }

  void analyze(const std::vector<LInstrPtr>& body) {
    tainted_.clear();
    report_ = false;
    for (int round = 0; round < 8; ++round) {
      changed_ = false;
      walk(body, {});
      if (!changed_) break;
    }
    report_ = true;
    walk(body, {});
  }

  void walk(const std::vector<LInstrPtr>& body, std::vector<Div> divs) {
    for (const LInstrPtr& ip : body) {
      const LInstr& in = *ip;
      bool tainted_read = reads_taint(in);
      if (tainted_read || !divs.empty()) taint_defs(in);
      if (report_ && is_comm_op(in.op)) {
        if (!divs.empty()) {
          ctx_.report(
              "W3210", in.loc,
              "collective communication under a rank-divergent condition: "
              "the branch at line " + std::to_string(divs.back().pred.line) +
                  " depends on rank(), so ranks disagree on whether this '" +
                  lower::lop_name(in.op) +
                  "' executes (deadlock or mismatched messages on a real "
                  "machine)");
        } else if (tainted_read) {
          ctx_.report(
              "W3210", in.loc,
              "collective communication with a rank-divergent operand: an "
              "argument of this '" + std::string(lower::lop_name(in.op)) +
                  "' is derived from rank(), so ranks would issue "
                  "mismatched collective calls");
        }
      }
      switch (in.op) {
        case LOp::IfOp: {
          bool div_here = false;
          for (const lower::LIfArm& arm : in.arms) {
            bool t = arm.cond && tree_has_rank(*arm.cond);
            if (!t && arm.cond) tree_taint(arm.cond.get(), &t);
            // Once any earlier condition diverges, reaching *this* arm is
            // itself rank-dependent, so divergence is cumulative.
            if (t) div_here = true;
            auto nested = divs;
            if (div_here) nested.push_back({in.loc});
            walk(arm.body, nested);
          }
          break;
        }
        case LOp::WhileOp: {
          bool t = in.cond && tree_has_rank(*in.cond);
          if (!t && in.cond) tree_taint(in.cond.get(), &t);
          auto nested = divs;
          if (t) nested.push_back({in.loc});
          walk(in.body, nested);
          break;
        }
        case LOp::ForOp: {
          bool t = false;
          tree_taint(in.lo.get(), &t);
          tree_taint(in.step.get(), &t);
          tree_taint(in.hi.get(), &t);
          if (!t) {
            t = (in.lo && tree_has_rank(*in.lo)) ||
                (in.step && tree_has_rank(*in.step)) ||
                (in.hi && tree_has_rank(*in.hi));
          }
          if (t && !in.loop_var.empty() &&
              tainted_.insert(in.loop_var).second) {
            changed_ = true;
          }
          auto nested = divs;
          if (t) nested.push_back({in.loc});
          walk(in.body, nested);
          break;
        }
        default:
          if (!in.body.empty()) walk(in.body, divs);
          break;
      }
    }
  }

  Ctx& ctx_;
  std::unordered_set<std::string> tainted_;
  bool changed_ = false;
  bool report_ = false;
};

}  // namespace

AbsintResult run_absint(const Program& /*prog*/, const sema::InferResult& inf,
                        const lower::LProgram& lir) {
  Ctx ctx{inf, {}, {}, {}};
  ScopeAbs(ctx, inf.script_ssa, inf.script).run({});
  for (const auto& [mangled, inst] : inf.instances) {
    auto sit = inf.fn_ssa.find(inst.fn);
    if (sit == inf.fn_ssa.end() || inst.fn == nullptr) continue;
    std::unordered_map<std::string, AbsVal> entry;
    for (size_t i = 0; i < inst.fn->params.size(); ++i) {
      AbsVal v = i < inst.arg_types.size() ? from_ty(inst.arg_types[i])
                                           : AbsVal::top_scalar();
      entry.emplace(inst.fn->params[i], v);
    }
    ScopeAbs(ctx, sit->second, inst.types).run(entry);
  }
  SpmdTaint(ctx).run(lir);

  AbsintResult r;
  r.guards_total = inf.guards.size();
  for (const auto& [expr, proven] : ctx.guard_status) {
    if (!proven) continue;
    auto git = inf.guards.find(expr);
    if (git == inf.guards.end()) continue;
    r.proofs.push_back({expr->loc, git->second.builtin});
  }
  std::sort(r.proofs.begin(), r.proofs.end(),
            [](const lower::GuardProof& a, const lower::GuardProof& b) {
              if (a.loc.line != b.loc.line) return a.loc.line < b.loc.line;
              if (a.loc.col != b.loc.col) return a.loc.col < b.loc.col;
              return a.builtin < b.builtin;
            });
  r.findings = std::move(ctx.findings);
  std::sort(r.findings.begin(), r.findings.end(),
            [](const AbsFinding& a, const AbsFinding& b) {
              if (a.loc.line != b.loc.line) return a.loc.line < b.loc.line;
              if (a.loc.col != b.loc.col) return a.loc.col < b.loc.col;
              return a.code < b.code;
            });
  return r;
}

size_t report_absint(const AbsintResult& r, DiagEngine& diags, bool werror) {
  for (const AbsFinding& f : r.findings) {
    if (werror) {
      diags.error(f.code.c_str(), f.loc, f.message);
    } else {
      diags.warning(f.code.c_str(), f.loc, f.message);
    }
  }
  return r.findings.size();
}

}  // namespace otter::analysis
