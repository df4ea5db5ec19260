#include "lower/lower.hpp"

#include <cassert>
#include <optional>
#include <unordered_set>

#include "frontend/builtins.hpp"

namespace otter::lower {

using sema::BaseType;
using sema::RankKind;
using sema::Ty;

namespace {

class Lowerer {
 public:
  Lowerer(Program& prog, const sema::InferResult& inf, DiagEngine& diags,
          const LowerOptions& opts)
      : prog_(prog), inf_(inf), diags_(diags), opts_(opts) {}

  LProgram run() {
    LProgram out;
    types_ = &inf_.script;
    cur_body_ = &out.script;
    for (StmtPtr& s : prog_.script) lower_stmt(*s);
    collect_vars(inf_.script, {}, out.script_vars);

    for (const auto& [key, inst] : inf_.instances) {
      LFunction lf;
      lf.mangled = sanitize(key);
      lf.source_name = inst.fn->name;
      types_ = &inst.types;
      temps_ = 0;  // temp names are per-scope
      extra_locals_.clear();
      cur_body_ = &lf.body;
      for (const StmtPtr& s : inst.fn->body) {
        lower_stmt(const_cast<Stmt&>(*s));
      }
      std::unordered_set<std::string> skip;
      for (size_t i = 0; i < inst.fn->params.size(); ++i) {
        bool mat = i < inst.arg_types.size() && inst.arg_types[i].is_matrix();
        lf.params.push_back({inst.fn->params[i], mat});
        skip.insert(inst.fn->params[i]);
      }
      for (size_t i = 0; i < inst.fn->outs.size(); ++i) {
        bool mat = i < inst.out_types.size() && inst.out_types[i].is_matrix();
        lf.outs.push_back({inst.fn->outs[i], mat});
        skip.insert(inst.fn->outs[i]);
      }
      collect_vars(inst.types, skip, lf.locals);
      out.functions.push_back(std::move(lf));
    }
    types_ = nullptr;
    cur_body_ = nullptr;
    return out;
  }

 private:
  // -- helpers ------------------------------------------------------------------

  static std::string sanitize(const std::string& mangled) {
    std::string s = mangled;
    for (char& c : s) {
      if (c == '$') c = '_';
    }
    return "otter_fn_" + s;
  }

  void collect_vars(const sema::ScopeTypes& st,
                    const std::unordered_set<std::string>& skip,
                    std::vector<LVarDecl>& out) {
    std::vector<std::string> names;
    for (const auto& [name, ty] : st.var_class) names.push_back(name);
    std::sort(names.begin(), names.end());
    for (const std::string& n : names) {
      if (skip.contains(n)) continue;
      out.push_back({n, st.var_class.at(n).is_matrix()});
    }
    for (const LVarDecl& t : extra_locals_) {
      if (!skip.contains(t.name)) out.push_back(t);
    }
  }

  void err(const char* code, SourceLoc loc, const std::string& msg) {
    diags_.error(code, loc, msg);
  }

  /// Budget accounting shared by emit() and emit_with(): every appended
  /// instruction counts toward the LIR budget, and the wall clock is
  /// checked on an amortized stride.
  void note_emit(SourceLoc loc) {
    ++instrs_;
    if (opts_.budget == nullptr || budget_reported_) return;
    size_t cap = opts_.budget->limits().max_lir_instrs;
    if (cap > 0 && instrs_ > cap) {
      budget_reported_ = true;
      diags_.error("E0007", loc,
                   "program exceeds the LIR instruction budget (" +
                       std::to_string(cap) + " instructions)");
    } else if (opts_.budget->expired_every(ticks_)) {
      budget_reported_ = true;
      diags_.error("E0004", loc,
                   "compilation exceeded the wall-clock budget during "
                   "lowering");
    }
  }

  LInstr& emit(LOp op, SourceLoc loc = {}) {
    note_emit(loc);
    cur_body_->push_back(std::make_unique<LInstr>(op, loc));
    return *cur_body_->back();
  }

  /// Emits a runtime shape check before a reduction whose operand shape the
  /// inferencer could not prove (graceful degradation): if the degraded
  /// assumption (matrix => column-wise semantics) turns out wrong at run
  /// time, the check aborts with a coded diagnostic instead of letting the
  /// program silently compute the wrong value.
  void maybe_emit_shape_guard(const Expr& e, const std::string& mat) {
    auto it = inf_.guards.find(&e);
    if (it == inf_.guards.end()) return;
    LInstr& g = emit(LOp::ShapeGuard, e.loc);
    g.args.push_back(mat_operand(mat));
    g.args.push_back(string_operand(it->second.builtin));
  }

  /// Builds an instruction via `fill` BEFORE appending it, so that operand
  /// lowering inside `fill` emits its own instructions first (hoisted
  /// subexpressions must precede their consumer).
  template <typename Fill>
  LInstr& emit_with(LOp op, SourceLoc loc, Fill&& fill) {
    note_emit(loc);
    auto in = std::make_unique<LInstr>(op, loc);
    fill(*in);
    cur_body_->push_back(std::move(in));
    return *cur_body_->back();
  }

  std::string fresh_temp(bool is_matrix) {
    std::string name = "ML_tmp" + std::to_string(++temps_);
    extra_locals_.push_back({name, is_matrix});
    return name;
  }

  [[nodiscard]] Ty ty(const Expr& e) const {
    auto it = types_->expr_types.find(&e);
    return it == types_->expr_types.end() ? Ty{} : it->second;
  }

  [[nodiscard]] Ty storage_of(const std::string& name) const {
    auto it = types_->var_class.find(name);
    return it == types_->var_class.end() ? Ty{} : it->second;
  }

  LOperand mat_operand(std::string name) {
    LOperand o;
    o.is_matrix = true;
    o.mat = std::move(name);
    return o;
  }
  LOperand scalar_operand(LExprPtr tree) {
    LOperand o;
    o.scalar = std::move(tree);
    return o;
  }
  LOperand string_operand(std::string s) {
    LOperand o;
    o.is_string = true;
    o.str = std::move(s);
    return o;
  }

  /// Hoists a scalar tree into a named scalar temp unless it is trivial.
  LExprPtr hoist_if_complex(LExprPtr tree, SourceLoc loc) {
    if (tree->kind == LExpr::Kind::Imm ||
        tree->kind == LExpr::Kind::ScalarVar) {
      return tree;
    }
    std::string t = fresh_temp(false);
    LInstr& in = emit(LOp::ScalarAssign, loc);
    in.sdst = t;
    in.tree = std::move(tree);
    return lsvar(t);
  }

  // -- scalar expressions -----------------------------------------------------------
  // Both operands of a binary node are lowered into named locals, left to
  // right, before the node is built: lowering an operand may emit hoisted
  // run-time calls and rand draws, and C++ leaves the evaluation order of
  // function arguments unspecified, so lbin(op, lower(a), lower(b)) could
  // draw b's random numbers before a's.

  LExprPtr lower_scalar(const Expr& e) {
    switch (e.kind) {
      case ExprKind::Number:
        if (e.is_imaginary) {
          err("E4001", e.loc, "complex values are not supported by the Otter parallel "
                     "run-time (interpreter only)");
          return limm(0);
        }
        return limm(e.number);
      case ExprKind::String:
        err("E4002", e.loc, "string value used in a numeric context");
        return limm(0);
      case ExprKind::Ident:
        return lower_scalar_ident(e);
      case ExprKind::Unary: {
        if (e.un_op == UnOp::Transpose || e.un_op == UnOp::CTranspose) {
          return lower_scalar(*e.lhs);  // scalar transpose is identity
        }
        LExprPtr a = lower_scalar(*e.lhs);
        if (e.un_op == UnOp::Plus) return a;
        return lun(e.un_op == UnOp::Neg ? EwUn::Neg : EwUn::Not, std::move(a));
      }
      case ExprKind::Binary:
        return lower_scalar_binary(e);
      case ExprKind::Range:
        // Only reachable when inference collapsed the range to one element.
        return lower_scalar(*e.lhs);
      case ExprKind::Call:
        return lower_scalar_call(e);
      case ExprKind::Matrix:
        err("E4003", e.loc, "matrix literal in scalar context");
        return limm(0);
      case ExprKind::Colon:
      case ExprKind::End:
        err("E4004", e.loc, "':'/'end' outside an index");
        return limm(0);
    }
    return limm(0);
  }

  LExprPtr lower_scalar_ident(const Expr& e) {
    if (e.callee == CalleeKind::Variable) {
      if (storage_of(e.name).is_matrix()) {
        // The merged storage is a matrix even though this SSA version is
        // scalar-valued: read element (0, 0).
        std::string t = fresh_temp(false);
        LInstr& in = emit(LOp::GetElem, e.loc);
        in.sdst = t;
        in.args.push_back(mat_operand(e.name));
        in.args.push_back(scalar_operand(limm(0)));
        in.linear = true;
        return lsvar(t);
      }
      return lsvar(e.name);
    }
    if (e.callee == CalleeKind::UserFunction) {
      return lower_call_to_scalar(e);
    }
    // Builtin constants.
    if (e.name == "pi") return limm(3.14159265358979323846);
    if (e.name == "eps") return limm(2.220446049250313e-16);
    if (e.name == "Inf") return limm(std::numeric_limits<double>::infinity());
    if (e.name == "NaN") return limm(std::numeric_limits<double>::quiet_NaN());
    if (e.name == "rand") {
      auto r = std::make_unique<LExpr>();
      r->kind = LExpr::Kind::RandScalar;
      return r;
    }
    if (e.name == "rank") {
      auto r = std::make_unique<LExpr>();
      r->kind = LExpr::Kind::RankId;
      return r;
    }
    if (e.name == "nprocs") {
      auto r = std::make_unique<LExpr>();
      r->kind = LExpr::Kind::NProcs;
      return r;
    }
    if (e.name == "i" || e.name == "j") {
      err("E4001", e.loc, "complex values are not supported by the Otter parallel "
                 "run-time (interpreter only)");
    }
    return limm(0);
  }

  LExprPtr lower_scalar_binary(const Expr& e) {
    EwBin op = EwBin::Add;
    switch (e.bin_op) {
      case BinOp::Add: op = EwBin::Add; break;
      case BinOp::Sub: op = EwBin::Sub; break;
      case BinOp::MatMul:
      case BinOp::ElemMul: op = EwBin::Mul; break;
      case BinOp::MatDiv:
      case BinOp::ElemDiv: op = EwBin::Div; break;
      case BinOp::MatLDiv: {
        LExprPtr divisor = lower_scalar(*e.lhs);
        LExprPtr dividend = lower_scalar(*e.rhs);
        return lbin(EwBin::Div, std::move(dividend), std::move(divisor));
      }
      case BinOp::MatPow:
      case BinOp::ElemPow: op = EwBin::Pow; break;
      case BinOp::Lt: op = EwBin::Lt; break;
      case BinOp::Le: op = EwBin::Le; break;
      case BinOp::Gt: op = EwBin::Gt; break;
      case BinOp::Ge: op = EwBin::Ge; break;
      case BinOp::Eq: op = EwBin::Eq; break;
      case BinOp::Ne: op = EwBin::Ne; break;
      case BinOp::And:
      case BinOp::AndAnd: op = EwBin::And; break;
      case BinOp::Or:
      case BinOp::OrOr: op = EwBin::Or; break;
    }
    // A scalar-typed expression may still have matrix-typed children
    // (e.g. x' * y): route through the matrix lowering which yields a
    // scalar via the run-time library.
    if (ty(*e.lhs).is_matrix() || ty(*e.rhs).is_matrix()) {
      return lower_matrix_to_scalar(e);
    }
    LExprPtr a = lower_scalar(*e.lhs);
    LExprPtr b = lower_scalar(*e.rhs);
    return lbin(op, std::move(a), std::move(b));
  }

  /// Scalar-valued (1x1) binary expression with matrix operands, e.g. the
  /// inner product x' * y: evaluate through the run-time library, then read
  /// element 0 replicated. At -O2 the peephole pass folds the transpose +
  /// multiply + read sequence into a single ML_dot call.
  LExprPtr lower_matrix_to_scalar(const Expr& e) {
    std::string m;
    if (e.bin_op == BinOp::MatMul && ty(*e.lhs).is_matrix() &&
        ty(*e.rhs).is_matrix()) {
      std::string a = lower_matrix(*e.lhs);
      std::string b = lower_matrix(*e.rhs);
      m = fresh_temp(true);
      LInstr& in = emit(LOp::MatMul, e.loc);
      in.dst = m;
      in.args.push_back(mat_operand(a));
      in.args.push_back(mat_operand(b));
    } else if (is_elementwise_tree(e)) {
      LExprPtr a = build_child(*e.lhs);
      LExprPtr b = build_child(*e.rhs);
      LExprPtr tree = lbin(ew_bin_of(e.bin_op), std::move(a), std::move(b));
      m = fresh_temp(true);
      LInstr& in = emit(LOp::Elemwise, e.loc);
      in.dst = m;
      in.tree = std::move(tree);
    } else {
      err("E4005", e.loc, "unsupported scalar expression over matrix operands");
      return limm(0);
    }
    std::string t = fresh_temp(false);
    LInstr& in = emit(LOp::GetElem, e.loc);
    in.sdst = t;
    in.args.push_back(mat_operand(m));
    in.args.push_back(scalar_operand(limm(0)));
    in.linear = true;
    return lsvar(t);
  }

  static EwBin ew_bin_of(BinOp op) {
    switch (op) {
      case BinOp::Add: return EwBin::Add;
      case BinOp::Sub: return EwBin::Sub;
      case BinOp::ElemMul:
      case BinOp::MatMul: return EwBin::Mul;
      case BinOp::ElemDiv:
      case BinOp::MatDiv: return EwBin::Div;
      case BinOp::ElemPow:
      case BinOp::MatPow: return EwBin::Pow;
      case BinOp::Lt: return EwBin::Lt;
      case BinOp::Le: return EwBin::Le;
      case BinOp::Gt: return EwBin::Gt;
      case BinOp::Ge: return EwBin::Ge;
      case BinOp::Eq: return EwBin::Eq;
      case BinOp::Ne: return EwBin::Ne;
      case BinOp::And:
      case BinOp::AndAnd: return EwBin::And;
      default: return EwBin::Or;
    }
  }

  LExprPtr lower_scalar_call(const Expr& e) {
    if (e.callee == CalleeKind::Variable) {
      // Scalar element read a(i) or a(i, j) — ML_broadcast (paper pass 4).
      std::string t = fresh_temp(false);
      emit_with(LOp::GetElem, e.loc, [&](LInstr& in) {
        in.sdst = t;
        in.args.push_back(mat_operand(e.name));
        if (e.args.size() == 1) {
          in.linear = true;
          in.args.push_back(
              scalar_operand(lower_index_scalar(*e.args[0], e.name, 0, 1)));
        } else {
          in.args.push_back(
              scalar_operand(lower_index_scalar(*e.args[0], e.name, 0, 2)));
          in.args.push_back(
              scalar_operand(lower_index_scalar(*e.args[1], e.name, 1, 2)));
        }
      });
      return lsvar(t);
    }
    if (e.callee == CalleeKind::UserFunction) return lower_call_to_scalar(e);

    // Builtins with scalar results.
    const BuiltinInfo* b = find_builtin(e.name);
    if (!b) return limm(0);
    auto arg_scalar = [&](size_t i) { return lower_scalar(*e.args[i]); };
    switch (b->id) {
      case Builtin::Size: {
        std::string base = lower_matrix(*e.args[0]);
        if (e.args.size() == 2) {
          // size(m, d): d must be the constant 1 or 2.
          if (auto d = const_of(*e.args[1])) {
            return lquery(*d == 1.0 ? LExpr::Kind::RowsOf : LExpr::Kind::ColsOf,
                          base);
          }
          err("E4006", e.loc, "size(m, d) requires a constant dimension");
          return limm(0);
        }
        return lquery(LExpr::Kind::RowsOf, base);
      }
      case Builtin::Length: {
        std::string base = lower_matrix(*e.args[0]);
        return lbin(EwBin::Max, lquery(LExpr::Kind::RowsOf, base),
                    lquery(LExpr::Kind::ColsOf, base));
      }
      case Builtin::Numel:
        return lquery(LExpr::Kind::NumelOf, lower_matrix(*e.args[0]));
      case Builtin::Sum:
      case Builtin::Mean:
      case Builtin::Prod:
      case Builtin::MinFn:
      case Builtin::MaxFn: {
        if (e.args.size() == 2) {
          // Scalar two-arg min/max.
          LExprPtr x = arg_scalar(0);
          LExprPtr y = arg_scalar(1);
          return lbin(b->id == Builtin::MinFn ? EwBin::Min : EwBin::Max,
                      std::move(x), std::move(y));
        }
        if (ty(*e.args[0]).is_scalar()) return arg_scalar(0);
        std::string m = lower_matrix(*e.args[0]);
        maybe_emit_shape_guard(e, m);
        std::string t = fresh_temp(false);
        LInstr& in = emit(LOp::Reduce, e.loc);
        in.sdst = t;
        in.args.push_back(mat_operand(m));
        switch (b->id) {
          case Builtin::Sum: in.red = RedKind::Sum; break;
          case Builtin::Mean: in.red = RedKind::Mean; break;
          case Builtin::Prod: in.red = RedKind::Prod; break;
          case Builtin::MinFn: in.red = RedKind::Min; break;
          default: in.red = RedKind::Max; break;
        }
        return lsvar(t);
      }
      case Builtin::Dot: {
        std::string a = lower_matrix(*e.args[0]);
        std::string c = lower_matrix(*e.args[1]);
        std::string t = fresh_temp(false);
        LInstr& in = emit(LOp::DotProd, e.loc);
        in.sdst = t;
        in.args.push_back(mat_operand(a));
        in.args.push_back(mat_operand(c));
        return lsvar(t);
      }
      case Builtin::Norm: {
        if (ty(*e.args[0]).is_scalar()) {
          return lun(EwUn::Abs, arg_scalar(0));
        }
        // norm(v) = sqrt(dot(v, v)): one allreduce, no call of its own.
        std::string a = lower_matrix(*e.args[0]);
        std::string t = fresh_temp(false);
        LInstr& in = emit(LOp::DotProd, e.loc);
        in.sdst = t;
        in.args.push_back(mat_operand(a));
        in.args.push_back(mat_operand(a));
        return lun(EwUn::Sqrt, lsvar(t));
      }
      case Builtin::Trapz: {
        std::vector<LOperand> ops;
        ops.push_back(mat_operand(lower_matrix(*e.args[0])));
        if (e.args.size() == 2) {
          ops.push_back(mat_operand(lower_matrix(*e.args[1])));
        }
        std::string t = fresh_temp(false);
        LInstr& in = emit(LOp::Trapz, e.loc);
        in.sdst = t;
        in.args = std::move(ops);
        return lsvar(t);
      }
      case Builtin::Abs: return lun(EwUn::Abs, arg_scalar(0));
      case Builtin::Sqrt: return lun(EwUn::Sqrt, arg_scalar(0));
      case Builtin::Exp: return lun(EwUn::Exp, arg_scalar(0));
      case Builtin::Log: return lun(EwUn::Log, arg_scalar(0));
      case Builtin::Sin: return lun(EwUn::Sin, arg_scalar(0));
      case Builtin::Cos: return lun(EwUn::Cos, arg_scalar(0));
      case Builtin::Tan: return lun(EwUn::Tan, arg_scalar(0));
      case Builtin::Floor: return lun(EwUn::Floor, arg_scalar(0));
      case Builtin::Ceil: return lun(EwUn::Ceil, arg_scalar(0));
      case Builtin::Round: return lun(EwUn::Round, arg_scalar(0));
      case Builtin::Sign: return lun(EwUn::Sign, arg_scalar(0));
      case Builtin::Mod:
      case Builtin::Rem: {
        LExprPtr x = arg_scalar(0);
        LExprPtr y = arg_scalar(1);
        return lbin(b->id == Builtin::Mod ? EwBin::Mod : EwBin::Rem,
                    std::move(x), std::move(y));
      }
      case Builtin::Real:
      case Builtin::Conj: return arg_scalar(0);
      case Builtin::Imag: { arg_scalar(0); return limm(0); }
      case Builtin::Rand: {
        auto r = std::make_unique<LExpr>();
        r->kind = LExpr::Kind::RandScalar;
        return r;
      }
      case Builtin::RankId: {
        auto r = std::make_unique<LExpr>();
        r->kind = LExpr::Kind::RankId;
        return r;
      }
      case Builtin::NProcs: {
        auto r = std::make_unique<LExpr>();
        r->kind = LExpr::Kind::NProcs;
        return r;
      }
      default:
        err("E4007", e.loc, "builtin '" + e.name + "' is not supported in this "
                   "context by the Otter compiler");
        return limm(0);
    }
  }

  LExprPtr lower_call_to_scalar(const Expr& e) {
    std::vector<std::string> dsts = lower_user_call(e, 1);
    return lsvar(dsts.at(0));
  }

  /// Lowers an index expression to a 0-based scalar tree. `dim` selects the
  /// extent for 'end' (0 = rows / linear, 1 = cols).
  LExprPtr lower_index_scalar(const Expr& e, const std::string& base,
                              int dim, int n_indices) {
    LExprPtr one_based = lower_index_expr(e, base, dim, n_indices);
    return lbin(EwBin::Sub, std::move(one_based), limm(1));
  }

  /// 1-based index tree with 'end' substituted by the right extent.
  LExprPtr lower_index_expr(const Expr& e, const std::string& base, int dim,
                            int n_indices) {
    if (e.kind == ExprKind::End) {
      if (n_indices == 1) return lquery(LExpr::Kind::NumelOf, base);
      return lquery(dim == 0 ? LExpr::Kind::RowsOf : LExpr::Kind::ColsOf, base);
    }
    if (e.kind == ExprKind::Binary) {
      // Allow arithmetic around 'end' (end-1 etc.).
      const Expr* l = e.lhs.get();
      const Expr* r = e.rhs.get();
      bool lend = contains_end(*l);
      bool rend = contains_end(*r);
      if (lend || rend) {
        LExprPtr a = lower_index_expr(*l, base, dim, n_indices);
        LExprPtr b = lower_index_expr(*r, base, dim, n_indices);
        EwBin op = EwBin::Add;
        switch (e.bin_op) {
          case BinOp::Add: op = EwBin::Add; break;
          case BinOp::Sub: op = EwBin::Sub; break;
          case BinOp::MatMul:
          case BinOp::ElemMul: op = EwBin::Mul; break;
          case BinOp::MatDiv:
          case BinOp::ElemDiv: op = EwBin::Div; break;
          default:
            err("E4008", e.loc, "unsupported arithmetic around 'end'");
            break;
        }
        return lbin(op, std::move(a), std::move(b));
      }
    }
    return lower_scalar(e);
  }

  static bool contains_end(const Expr& e) {
    if (e.kind == ExprKind::End) return true;
    if (e.lhs && contains_end(*e.lhs)) return true;
    if (e.rhs && contains_end(*e.rhs)) return true;
    if (e.step && contains_end(*e.step)) return true;
    return false;
  }

  std::optional<double> const_of(const Expr& e) {
    if (e.kind == ExprKind::Number && !e.is_imaginary) return e.number;
    if (e.kind == ExprKind::Unary && e.un_op == UnOp::Neg) {
      if (auto v = const_of(*e.lhs)) return -*v;
    }
    return std::nullopt;
  }

  // -- matrix expressions -------------------------------------------------------------

  /// Lowers a matrix-valued expression, returning the variable holding it.
  std::string lower_matrix(const Expr& e, const std::string& dst_hint = {}) {
    // Scalar-valued but needed as a matrix (storage class mismatch).
    if (ty(e).is_scalar() && !(e.kind == ExprKind::Ident &&
                               storage_of(e.name).is_matrix())) {
      LExprPtr tree = lower_scalar(e);
      std::string dst = dst_hint.empty() ? fresh_temp(true) : dst_hint;
      LInstr& in = emit(LOp::FromLiteral, e.loc);
      in.dst = dst;
      in.literal_rows.push_back({});
      in.literal_rows.back().push_back(std::move(tree));
      return dst;
    }

    switch (e.kind) {
      case ExprKind::Ident:
        if (e.callee == CalleeKind::Variable) {
          if (dst_hint.empty() || dst_hint == e.name) return e.name;
          LInstr& in = emit(LOp::CopyMat, e.loc);
          in.dst = dst_hint;
          in.args.push_back(mat_operand(e.name));
          return dst_hint;
        }
        if (e.callee == CalleeKind::UserFunction) {
          std::string t = lower_user_call(e, 1).at(0);
          if (dst_hint.empty()) return t;
          LInstr& in = emit(LOp::CopyMat, e.loc);
          in.dst = dst_hint;
          in.args.push_back(mat_operand(t));
          return dst_hint;
        }
        err("E4009", e.loc, "unsupported matrix-valued name '" + e.name + "'");
        return fresh_temp(true);
      case ExprKind::Unary:
      case ExprKind::Binary: {
        // Element-wise tree if every matrix node is alignment-safe.
        if (is_elementwise_tree(e)) {
          LExprPtr tree = build_elemwise_tree(e);
          std::string dst = dst_hint.empty() ? fresh_temp(true) : dst_hint;
          LInstr& in = emit(LOp::Elemwise, e.loc);
          in.dst = dst;
          in.tree = std::move(tree);
          return dst;
        }
        return lower_matrix_op(e, dst_hint);
      }
      case ExprKind::Range: {
        std::vector<LOperand> ops;
        ops.push_back(scalar_operand(lower_scalar(*e.lhs)));
        ops.push_back(scalar_operand(e.step ? lower_scalar(*e.step) : limm(1)));
        ops.push_back(scalar_operand(lower_scalar(*e.rhs)));
        std::string dst = dst_hint.empty() ? fresh_temp(true) : dst_hint;
        LInstr& in = emit(LOp::FillRange, e.loc);
        in.dst = dst;
        in.args = std::move(ops);
        return dst;
      }
      case ExprKind::Call:
        return lower_matrix_call(e, dst_hint);
      case ExprKind::Matrix: {
        std::string dst = dst_hint.empty() ? fresh_temp(true) : dst_hint;
        LInstr& in = emit_with(LOp::FromLiteral, e.loc, [&](LInstr& in) {
        in.dst = dst;
        for (const auto& row : e.rows) {
          std::vector<LExprPtr> lrow;
          for (const ExprPtr& el : row) {
            if (!ty(*el).is_scalar()) {
              err("E4010", el->loc, "matrix blocks inside literals are not supported "
                           "by the Otter compiler (use explicit assignment)");
              lrow.push_back(limm(0));
            } else {
              lrow.push_back(lower_scalar(*el));
            }
          }
          in.literal_rows.push_back(std::move(lrow));
        }
        });
        (void)in;
        return dst;
      }
      default:
        err("E4011", e.loc, "expression is not supported in matrix context");
        return fresh_temp(true);
    }
  }

  /// True when the whole subtree is element-wise over aligned operands
  /// (paper: ops needing no communication become local for loops).
  bool is_elementwise_tree(const Expr& e) {
    if (ty(e).is_scalar()) return true;  // scalar subtree: broadcast leaf
    switch (e.kind) {
      case ExprKind::Ident:
        return e.callee == CalleeKind::Variable;
      case ExprKind::Unary:
        return e.un_op != UnOp::Transpose && e.un_op != UnOp::CTranspose;
      case ExprKind::Binary:
        switch (e.bin_op) {
          case BinOp::Add:
          case BinOp::Sub:
          case BinOp::ElemMul:
          case BinOp::ElemDiv:
          case BinOp::ElemPow:
          case BinOp::Lt:
          case BinOp::Le:
          case BinOp::Gt:
          case BinOp::Ge:
          case BinOp::Eq:
          case BinOp::Ne:
          case BinOp::And:
          case BinOp::Or:
            return true;
          case BinOp::MatMul:
          case BinOp::MatDiv:
          case BinOp::MatLDiv:
            // Scalar-matrix products are element-wise.
            return ty(*e.lhs).is_scalar() || ty(*e.rhs).is_scalar();
          default:
            return false;
        }
      case ExprKind::Call: {
        if (e.callee != CalleeKind::Builtin) return false;
        const BuiltinInfo* b = find_builtin(e.name);
        return b != nullptr && b->elementwise;
      }
      default:
        return false;
    }
  }

  /// Child of an element-wise tree: recurse when the child is itself
  /// element-wise; otherwise hoist it to a matrix temporary (run-time call)
  /// and reference it as an aligned leaf.
  LExprPtr build_child(const Expr& e) {
    if (ty(e).is_scalar()) return hoist_if_complex(lower_scalar(e), e.loc);
    if (is_elementwise_tree(e) && e.kind != ExprKind::Call) {
      return build_elemwise_tree(e);
    }
    if (e.kind == ExprKind::Call && e.callee == CalleeKind::Builtin &&
        is_elementwise_tree(e)) {
      return build_elemwise_tree(e);
    }
    return lmvar(lower_matrix(e));
  }

  LExprPtr build_elemwise_tree(const Expr& e) {
    if (ty(e).is_scalar()) {
      return hoist_if_complex(lower_scalar(e), e.loc);
    }
    switch (e.kind) {
      case ExprKind::Ident:
        return lmvar(e.name);
      case ExprKind::Unary: {
        EwUn op = e.un_op == UnOp::Neg ? EwUn::Neg : EwUn::Not;
        if (e.un_op == UnOp::Plus) return build_child(*e.lhs);
        return lun(op, build_child(*e.lhs));
      }
      case ExprKind::Binary: {
        EwBin op;
        switch (e.bin_op) {
          case BinOp::Add: op = EwBin::Add; break;
          case BinOp::Sub: op = EwBin::Sub; break;
          case BinOp::ElemMul:
          case BinOp::MatMul: op = EwBin::Mul; break;
          case BinOp::ElemDiv:
          case BinOp::MatDiv: op = EwBin::Div; break;
          case BinOp::MatLDiv: {
            LExprPtr divisor = build_child(*e.lhs);
            LExprPtr dividend = build_child(*e.rhs);
            return lbin(EwBin::Div, std::move(dividend), std::move(divisor));
          }
          case BinOp::ElemPow: op = EwBin::Pow; break;
          case BinOp::Lt: op = EwBin::Lt; break;
          case BinOp::Le: op = EwBin::Le; break;
          case BinOp::Gt: op = EwBin::Gt; break;
          case BinOp::Ge: op = EwBin::Ge; break;
          case BinOp::Eq: op = EwBin::Eq; break;
          case BinOp::Ne: op = EwBin::Ne; break;
          case BinOp::And: op = EwBin::And; break;
          case BinOp::Or: op = EwBin::Or; break;
          default: op = EwBin::Add; break;
        }
        LExprPtr a = build_child(*e.lhs);
        LExprPtr b = build_child(*e.rhs);
        return lbin(op, std::move(a), std::move(b));
      }
      case ExprKind::Call: {
        const BuiltinInfo* b = find_builtin(e.name);
        EwUn op;
        switch (b->id) {
          case Builtin::Abs: op = EwUn::Abs; break;
          case Builtin::Sqrt: op = EwUn::Sqrt; break;
          case Builtin::Exp: op = EwUn::Exp; break;
          case Builtin::Log: op = EwUn::Log; break;
          case Builtin::Sin: op = EwUn::Sin; break;
          case Builtin::Cos: op = EwUn::Cos; break;
          case Builtin::Tan: op = EwUn::Tan; break;
          case Builtin::Floor: op = EwUn::Floor; break;
          case Builtin::Ceil: op = EwUn::Ceil; break;
          case Builtin::Round: op = EwUn::Round; break;
          case Builtin::Sign: op = EwUn::Sign; break;
          case Builtin::Mod:
          case Builtin::Rem: {
            LExprPtr x = build_child(*e.args[0]);
            LExprPtr y = build_child(*e.args[1]);
            return lbin(b->id == Builtin::Mod ? EwBin::Mod : EwBin::Rem,
                        std::move(x), std::move(y));
          }
          case Builtin::Real:
          case Builtin::Conj:
            return build_child(*e.args[0]);
          default:
            err("E4012", e.loc, "builtin '" + e.name + "' inside an element-wise "
                       "expression is not supported");
            return limm(0);
        }
        return lun(op, build_child(*e.args[0]));
      }
      default:
        return lmvar(lower_matrix(e));
    }
  }

  /// Non-element-wise matrix operators (communication): hoisted calls.
  std::string lower_matrix_op(const Expr& e, const std::string& dst_hint) {
    std::string dst = dst_hint.empty() ? fresh_temp(true) : dst_hint;
    if (e.kind == ExprKind::Unary) {
      // Transpose.
      std::string src = lower_matrix(*e.lhs);
      LInstr& in = emit(LOp::TransposeOp, e.loc);
      in.dst = dst;
      in.args.push_back(mat_operand(src));
      return dst;
    }
    // Binary matrix multiply (the only non-element-wise binary left).
    if (e.bin_op != BinOp::MatMul) {
      err("E4013", e.loc, std::string("operator '") + bin_op_name(e.bin_op) +
                     "' on matrices is not supported by the Otter compiler");
      return dst;
    }
    Ty lt = ty(*e.lhs);
    Ty rt_ = ty(*e.rhs);
    std::string a = lower_matrix(*e.lhs);
    std::string b = lower_matrix(*e.rhs);
    LOp op = LOp::MatMul;
    if (lt.cols == 1 && rt_.rows == 1) {
      op = LOp::OuterProd;  // column * row
    } else if (rt_.cols == 1) {
      op = LOp::MatVec;  // matrix * column vector
    } else if (lt.rows == 1) {
      op = LOp::VecMat;  // row vector * matrix
    }
    LInstr& in = emit(op, e.loc);
    in.dst = dst;
    in.args.push_back(mat_operand(a));
    in.args.push_back(mat_operand(b));
    return dst;
  }

  std::string lower_matrix_call(const Expr& e, const std::string& dst_hint) {
    if (e.callee == CalleeKind::Variable) {
      return lower_matrix_index_read(e, dst_hint);
    }
    if (e.callee == CalleeKind::UserFunction) {
      std::string t = lower_user_call(e, 1).at(0);
      if (dst_hint.empty()) return t;
      LInstr& in = emit(LOp::CopyMat, e.loc);
      in.dst = dst_hint;
      in.args.push_back(mat_operand(t));
      return dst_hint;
    }
    const BuiltinInfo* b = find_builtin(e.name);
    std::string dst = dst_hint.empty() ? fresh_temp(true) : dst_hint;
    auto sarg = [&](size_t i) { return scalar_operand(lower_scalar(*e.args[i])); };
    switch (b->id) {
      case Builtin::Zeros:
      case Builtin::Ones:
      case Builtin::Eye:
      case Builtin::Rand: {
        LOp op = b->id == Builtin::Zeros  ? LOp::FillZeros
                 : b->id == Builtin::Ones ? LOp::FillOnes
                 : b->id == Builtin::Eye  ? LOp::FillEye
                                          : LOp::FillRand;
        emit_with(op, e.loc, [&](LInstr& in) {
          in.dst = dst;
          in.args.push_back(sarg(0));
          if (e.args.size() == 2) {
            in.args.push_back(sarg(1));
          } else {
            in.args.push_back(scalar_operand(lower_scalar(*e.args[0])));
          }
        });
        return dst;
      }
      case Builtin::Linspace: {
        emit_with(LOp::FillLinspace, e.loc, [&](LInstr& in) {
          in.dst = dst;
          in.args.push_back(sarg(0));
          in.args.push_back(sarg(1));
          in.args.push_back(e.args.size() == 3 ? sarg(2)
                                               : scalar_operand(limm(100)));
        });
        return dst;
      }
      case Builtin::Sum:
      case Builtin::Mean:
      case Builtin::MinFn:
      case Builtin::MaxFn: {
        if (e.args.size() == 2) {
          // Element-wise two-arg min/max over matrices.
          LExprPtr x = build_child(*e.args[0]);
          LExprPtr y = build_child(*e.args[1]);
          EwBin op = b->id == Builtin::MinFn ? EwBin::Min : EwBin::Max;
          LExprPtr tree = lbin(op, std::move(x), std::move(y));
          LInstr& in = emit(LOp::Elemwise, e.loc);
          in.dst = dst;
          in.tree = std::move(tree);
          return dst;
        }
        // Column-wise reduction of a matrix producing a row vector.
        std::string src = lower_matrix(*e.args[0]);
        maybe_emit_shape_guard(e, src);
        LInstr& in = emit(LOp::Colwise, e.loc);
        in.dst = dst;
        in.args.push_back(mat_operand(src));
        switch (b->id) {
          case Builtin::Sum: in.red = RedKind::Sum; break;
          case Builtin::Mean: in.red = RedKind::Mean; break;
          case Builtin::MinFn: in.red = RedKind::Min; break;
          default: in.red = RedKind::Max; break;
        }
        return dst;
      }
      case Builtin::Load: {
        LInstr& in = emit(LOp::LoadFile, e.loc);
        in.dst = dst;
        in.args.push_back(string_operand(e.args[0]->name));
        return dst;
      }
      case Builtin::Size: {
        std::string base = lower_matrix(*e.args[0]);
        LInstr& in = emit(LOp::FromLiteral, e.loc);
        in.dst = dst;
        std::vector<LExprPtr> row;
        row.push_back(lquery(LExpr::Kind::RowsOf, base));
        row.push_back(lquery(LExpr::Kind::ColsOf, base));
        in.literal_rows.push_back(std::move(row));
        return dst;
      }
      default: {
        if (b->elementwise) {
          LExprPtr tree = build_elemwise_tree(e);
          LInstr& in = emit(LOp::Elemwise, e.loc);
          in.dst = dst;
          in.tree = std::move(tree);
          return dst;
        }
        err("E4014", e.loc, "builtin '" + e.name + "' producing a matrix is not "
                   "supported by the Otter compiler");
        return dst;
      }
    }
  }

  /// Matrix-valued indexing read: slices, rows, columns.
  std::string lower_matrix_index_read(const Expr& e, const std::string& dst_hint) {
    std::string dst = dst_hint.empty() ? fresh_temp(true) : dst_hint;
    const std::string& base = e.name;
    if (e.args.size() == 1) {
      const Expr& ix = *e.args[0];
      if (ix.kind == ExprKind::Colon) {
        err("E4015", e.loc, "a(:) reshape is not supported by the Otter compiler");
        return dst;
      }
      if (ix.kind == ExprKind::Range && !ix.step) {
        emit_with(LOp::SliceVec, e.loc, [&](LInstr& in) {
          in.dst = dst;
          in.args.push_back(mat_operand(base));
          in.args.push_back(
              scalar_operand(lower_index_scalar(*ix.lhs, base, 0, 1)));
          in.args.push_back(
              scalar_operand(lower_index_scalar(*ix.rhs, base, 0, 1)));
        });
        return dst;
      }
      err("E4016", e.loc, "general vector-subscript indexing is not supported by the "
                 "Otter compiler (only contiguous ranges)");
      return dst;
    }
    // Two indices: row / column extraction.
    const Expr& i0 = *e.args[0];
    const Expr& i1 = *e.args[1];
    if (i0.kind == ExprKind::Colon && i1.kind != ExprKind::Colon) {
      emit_with(LOp::ExtractColOp, e.loc, [&](LInstr& in) {
        in.dst = dst;
        in.args.push_back(mat_operand(base));
        in.args.push_back(scalar_operand(lower_index_scalar(i1, base, 1, 2)));
      });
      return dst;
    }
    if (i1.kind == ExprKind::Colon && i0.kind != ExprKind::Colon) {
      emit_with(LOp::ExtractRowOp, e.loc, [&](LInstr& in) {
        in.dst = dst;
        in.args.push_back(mat_operand(base));
        in.args.push_back(scalar_operand(lower_index_scalar(i0, base, 0, 2)));
      });
      return dst;
    }
    err("E4017", e.loc, "submatrix indexing is not supported by the Otter compiler "
               "(only a(i,:), a(:,j), and contiguous vector ranges)");
    return dst;
  }

  /// Lowers a user call; returns names of destination variables.
  std::vector<std::string> lower_user_call(const Expr& e, size_t nargout) {
    auto iit = inf_.call_instance.find(&e);
    if (iit == inf_.call_instance.end()) {
      err("E4018", e.loc, "internal: no inferred instance for call to '" + e.name + "'");
      return {fresh_temp(false)};
    }
    const sema::FnInstance& inst = inf_.instances.at(iit->second);
    std::vector<LOperand> call_args;
    for (size_t i = 0; i < e.args.size(); ++i) {
      if (ty(*e.args[i]).is_matrix()) {
        call_args.push_back(mat_operand(lower_matrix(*e.args[i])));
      } else {
        call_args.push_back(scalar_operand(lower_scalar(*e.args[i])));
      }
    }
    LInstr& in = emit(LOp::CallFn, e.loc);
    in.callee = sanitize(iit->second);
    in.args = std::move(call_args);
    std::vector<std::string> dsts;
    for (size_t i = 0; i < std::max(nargout, size_t{1}) &&
                       i < inst.out_types.size();
         ++i) {
      bool mat = inst.out_types[i].is_matrix();
      std::string t = fresh_temp(mat);
      in.call_dsts.push_back({t, mat});
      dsts.push_back(t);
    }
    return dsts;
  }

  // -- conditions -------------------------------------------------------------------

  LExprPtr lower_condition(const Expr& e) {
    if (ty(e).is_scalar()) return lower_scalar(e);
    // Matrix condition: true iff every element is nonzero.
    LExprPtr elem_tree;
    if (is_elementwise_tree(e)) {
      elem_tree = lbin(EwBin::Ne, build_elemwise_tree(e), limm(0));
    } else {
      elem_tree = lbin(EwBin::Ne, lmvar(lower_matrix(e)), limm(0));
    }
    std::string nz = fresh_temp(true);
    LInstr& ew = emit(LOp::Elemwise, e.loc);
    ew.dst = nz;
    ew.tree = std::move(elem_tree);
    std::string t = fresh_temp(false);
    LInstr& red = emit(LOp::Reduce, e.loc);
    red.sdst = t;
    red.red = RedKind::Min;
    red.args.push_back(mat_operand(nz));
    return lsvar(t);
  }

  // -- statements -------------------------------------------------------------------

  void lower_stmt(Stmt& s) {
    switch (s.kind) {
      case StmtKind::ExprStmt: {
        // Void builtin statements (I/O) lower to dedicated instructions.
        if (s.expr->kind == ExprKind::Call &&
            s.expr->callee == CalleeKind::Builtin) {
          const BuiltinInfo* b = find_builtin(s.expr->name);
          if (b && b->n_outs == 0) {
            lower_void_builtin(*s.expr, *b);
            return;
          }
        }
        lower_assign_to("ans", {}, *s.expr, s.loc);
        if (s.display) display_var("ans", s.loc);
        return;
      }
      case StmtKind::Assign:
        lower_assign(s);
        return;
      case StmtKind::If: {
        LInstr& in = emit(LOp::IfOp, s.loc);
        std::vector<LInstrPtr>* saved = cur_body_;
        // Conditions are evaluated in the enclosing body *before* the if in
        // paper-style code; hoist each arm's condition computation there.
        // For chained elseif this is a simplification: all conditions are
        // evaluated up front (side-effect-free in the Otter subset).
        for (IfArm& arm : s.arms) {
          LIfArm larm;
          if (arm.cond) {
            cur_body_ = saved;
            // Remove the If we already appended? Conditions must be emitted
            // before the IfOp: emit into a scratch list then splice.
            larm.cond = lower_condition_hoisted(*arm.cond, in);
          }
          larm.body = lower_block(arm.body);
          in.arms.push_back(std::move(larm));
        }
        cur_body_ = saved;
        return;
      }
      case StmtKind::While: {
        // while c … end  =>  while (1) { <cond instrs>; if (!c) break; … }
        auto in = std::make_unique<LInstr>(LOp::WhileOp, s.loc);
        in->cond = limm(1);
        std::vector<LInstrPtr>* saved = cur_body_;
        std::vector<LInstrPtr> body;
        cur_body_ = &body;
        LExprPtr c = lower_condition(*s.expr);
        {
          auto brk = std::make_unique<LInstr>(LOp::IfOp, s.loc);
          LIfArm arm;
          arm.cond = lun(EwUn::Not, std::move(c));
          arm.body.push_back(std::make_unique<LInstr>(LOp::BreakOp, s.loc));
          brk->arms.push_back(std::move(arm));
          body.push_back(std::move(brk));
        }
        ++loop_depth_;
        for (StmtPtr& b : s.body) lower_stmt(*b);
        --loop_depth_;
        cur_body_ = saved;
        in->body = std::move(body);
        cur_body_->push_back(std::move(in));
        return;
      }
      case StmtKind::For: {
        if (s.expr->kind != ExprKind::Range) {
          err("E4019", s.loc, "the Otter compiler only supports for loops over ranges");
          return;
        }
        auto in = std::make_unique<LInstr>(LOp::ForOp, s.loc);
        in->loop_var = s.loop_var;
        in->lo = hoist_if_complex(lower_scalar(*s.expr->lhs), s.loc);
        in->step = s.expr->step
                       ? hoist_if_complex(lower_scalar(*s.expr->step), s.loc)
                       : limm(1);
        in->hi = hoist_if_complex(lower_scalar(*s.expr->rhs), s.loc);
        std::vector<LInstrPtr>* saved = cur_body_;
        std::vector<LInstrPtr> body;
        cur_body_ = &body;
        ++loop_depth_;
        for (StmtPtr& b : s.body) lower_stmt(*b);
        --loop_depth_;
        cur_body_ = saved;
        in->body = std::move(body);
        cur_body_->push_back(std::move(in));
        return;
      }
      case StmtKind::Break:
        if (loop_depth_ == 0) {
          err("E4030", s.loc, "'break' outside of a loop");
          return;
        }
        emit(LOp::BreakOp, s.loc);
        return;
      case StmtKind::Continue:
        if (loop_depth_ == 0) {
          err("E4030", s.loc, "'continue' outside of a loop");
          return;
        }
        emit(LOp::ContinueOp, s.loc);
        return;
      case StmtKind::Return:
        emit(LOp::ReturnOp, s.loc);
        return;
      case StmtKind::Global:
        err("E4020", s.loc, "'global' is not supported by the Otter compiler");
        return;
    }
  }

  /// Hoists a condition's computation before `anchor` (the IfOp just
  /// emitted at the end of cur_body_).
  LExprPtr lower_condition_hoisted(const Expr& e, LInstr& anchor) {
    // Emit condition instrs into a scratch buffer, then splice before anchor.
    std::vector<LInstrPtr> scratch;
    std::vector<LInstrPtr>* saved = cur_body_;
    cur_body_ = &scratch;
    LExprPtr c = lower_condition(e);
    cur_body_ = saved;
    if (!scratch.empty()) {
      // Insert before the anchor (last element of cur_body_).
      auto it = cur_body_->end();
      --it;  // points at anchor
      assert(it->get() == &anchor);
      (void)anchor;
      cur_body_->insert(it, std::make_move_iterator(scratch.begin()),
                        std::make_move_iterator(scratch.end()));
    }
    return c;
  }

  std::vector<LInstrPtr> lower_block(std::vector<StmtPtr>& body) {
    std::vector<LInstrPtr> out;
    std::vector<LInstrPtr>* saved = cur_body_;
    cur_body_ = &out;
    for (StmtPtr& s : body) lower_stmt(*s);
    cur_body_ = saved;
    return out;
  }

  void lower_void_builtin(const Expr& e, const BuiltinInfo& b) {
    auto operand_of = [&](const Expr& a) -> LOperand {
      if (a.kind == ExprKind::String) return string_operand(a.name);
      if (ty(a).is_matrix()) return mat_operand(lower_matrix(a));
      return scalar_operand(lower_scalar(a));
    };
    switch (b.id) {
      case Builtin::Disp: {
        LOperand arg = operand_of(*e.args[0]);
        LInstr& in = emit(LOp::DispOp, e.loc);
        in.args.push_back(std::move(arg));
        return;
      }
      case Builtin::Fprintf: {
        std::vector<LOperand> fargs;
        for (const ExprPtr& a : e.args) fargs.push_back(operand_of(*a));
        if (fargs.empty() || !fargs[0].is_string) {
          err("E4021", e.loc, "fprintf requires a literal format string");
        }
        LInstr& in = emit(LOp::FprintfOp, e.loc);
        in.args = std::move(fargs);
        return;
      }
      case Builtin::ErrorFn: {
        LOperand arg;
        bool have = !e.args.empty();
        if (have) arg = operand_of(*e.args[0]);
        LInstr& in = emit(LOp::ErrorOp, e.loc);
        if (have) in.args.push_back(std::move(arg));
        return;
      }
      default:
        err("E4022", e.loc, "builtin '" + e.name + "' is not supported as a statement");
    }
  }

  void display_var(const std::string& name, SourceLoc loc) {
    LInstr& in = emit(LOp::Display, loc);
    in.args.push_back(string_operand(name));
    if (storage_of(name).is_matrix()) {
      in.args.push_back(mat_operand(name));
    } else {
      in.args.push_back(scalar_operand(lsvar(name)));
    }
  }

  void lower_assign(Stmt& s) {
    // Multi-assign from a call.
    if (s.targets.size() > 1) {
      if (s.expr->kind != ExprKind::Call) {
        err("E4023", s.loc, "multiple assignment requires a function call");
        return;
      }
      if (s.expr->callee == CalleeKind::Builtin && s.expr->name == "size") {
        // [r, c] = size(m).
        std::string base = lower_matrix(*s.expr->args[0]);
        const char* kinds[2] = {"rows", "cols"};
        (void)kinds;
        for (size_t i = 0; i < s.targets.size() && i < 2; ++i) {
          LInstr& in = emit(LOp::ScalarAssign, s.loc);
          in.sdst = s.targets[i].name;
          in.tree = lquery(i == 0 ? LExpr::Kind::RowsOf : LExpr::Kind::ColsOf,
                           base);
        }
        return;
      }
      if (s.expr->callee != CalleeKind::UserFunction) {
        err("E4024", s.loc, "multi-output builtins other than size are not supported");
        return;
      }
      std::vector<std::string> dsts = lower_user_call(*s.expr, s.targets.size());
      for (size_t i = 0; i < s.targets.size() && i < dsts.size(); ++i) {
        copy_into_target(s.targets[i], dsts[i], s.loc);
      }
      if (s.display) {
        for (const LValue& t : s.targets) display_var(t.name, s.loc);
      }
      return;
    }

    const LValue& t = s.targets[0];
    if (t.indices.empty()) {
      lower_assign_to(t.name, {}, *s.expr, s.loc);
    } else {
      lower_indexed_assign(t, *s.expr, s.loc);
    }
    if (s.display) display_var(t.name, s.loc);
  }

  void copy_into_target(const LValue& t, const std::string& src,
                        SourceLoc loc) {
    if (!t.indices.empty()) {
      err("E4025", loc, "indexed targets in multi-assignment are not supported");
      return;
    }
    if (storage_of(t.name).is_matrix()) {
      LInstr& in = emit(LOp::CopyMat, loc);
      in.dst = t.name;
      in.args.push_back(mat_operand(src));
    } else {
      LInstr& in = emit(LOp::ScalarAssign, loc);
      in.sdst = t.name;
      in.tree = lsvar(src);
    }
  }

  /// name = expr (whole-variable assignment).
  void lower_assign_to(const std::string& name, const std::string&,
                       const Expr& rhs, SourceLoc loc) {
    Ty storage = storage_of(name);
    if (storage.is_matrix()) {
      lower_matrix(rhs, name);
    } else {
      LExprPtr tree = lower_scalar(rhs);
      LInstr& in = emit(LOp::ScalarAssign, loc);
      in.sdst = name;
      in.tree = std::move(tree);
    }
  }

  /// Indexed assignment (paper pass 5: owner-computes guards).
  void lower_indexed_assign(const LValue& t, const Expr& rhs, SourceLoc loc) {
    const std::string& base = t.name;
    if (!storage_of(base).is_matrix()) {
      err("E4026", loc, "internal: indexed write into scalar storage '" + base + "'");
      return;
    }
    // Row/column/slice writes take a vector rhs.
    if (t.indices.size() == 2) {
      const Expr& i0 = *t.indices[0];
      const Expr& i1 = *t.indices[1];
      if (i0.kind == ExprKind::Colon && i1.kind != ExprKind::Colon) {
        emit_with(LOp::AssignColOp, loc, [&](LInstr& in) {
          in.dst = base;
          in.args.push_back(scalar_operand(lower_index_scalar(i1, base, 1, 2)));
          in.args.push_back(mat_operand(lower_matrix(rhs)));
        });
        return;
      }
      if (i1.kind == ExprKind::Colon && i0.kind != ExprKind::Colon) {
        emit_with(LOp::AssignRowOp, loc, [&](LInstr& in) {
          in.dst = base;
          in.args.push_back(scalar_operand(lower_index_scalar(i0, base, 0, 2)));
          in.args.push_back(mat_operand(lower_matrix(rhs)));
        });
        return;
      }
      if (i0.kind == ExprKind::Colon && i1.kind == ExprKind::Colon) {
        err("E4027", loc, "a(:,:) assignment is not supported");
        return;
      }
      // Scalar element write with owner guard.
      emit_with(LOp::SetElem, loc, [&](LInstr& in) {
        in.dst = base;
        in.args.push_back(scalar_operand(lower_index_scalar(i0, base, 0, 2)));
        in.args.push_back(scalar_operand(lower_index_scalar(i1, base, 1, 2)));
        in.args.push_back(scalar_operand(lower_scalar(rhs)));
      });
      return;
    }
    // One index.
    const Expr& ix = *t.indices[0];
    if (ix.kind == ExprKind::Range && !ix.step) {
      emit_with(LOp::AssignSliceOp, loc, [&](LInstr& in) {
        in.dst = base;
        in.args.push_back(
            scalar_operand(lower_index_scalar(*ix.lhs, base, 0, 1)));
        in.args.push_back(
            scalar_operand(lower_index_scalar(*ix.rhs, base, 0, 1)));
        in.args.push_back(mat_operand(lower_matrix(rhs)));
      });
      return;
    }
    if (ix.kind == ExprKind::Colon) {
      err("E4028", loc, "a(:) assignment is not supported by the Otter compiler");
      return;
    }
    if (!ty(rhs).is_scalar()) {
      err("E4029", loc, "vector-subscript assignment is not supported by the Otter "
               "compiler (only contiguous ranges)");
      return;
    }
    emit_with(LOp::SetElem, loc, [&](LInstr& in) {
      in.dst = base;
      in.linear = true;
      in.args.push_back(scalar_operand(lower_index_scalar(ix, base, 0, 1)));
      in.args.push_back(scalar_operand(lower_scalar(rhs)));
    });
    return;
  }

  Program& prog_;
  const sema::InferResult& inf_;
  DiagEngine& diags_;
  const LowerOptions& opts_;
  const sema::ScopeTypes* types_ = nullptr;
  std::vector<LInstrPtr>* cur_body_ = nullptr;
  std::vector<LVarDecl> extra_locals_;
  int loop_depth_ = 0;  // break/continue are only legal inside a loop
  int temps_ = 0;
  size_t instrs_ = 0;       // LIR instructions emitted (budget E0007)
  size_t ticks_ = 0;        // amortised wall-clock check counter
  bool budget_reported_ = false;
};

}  // namespace

LProgram lower_program(Program& prog, const sema::InferResult& inf,
                       DiagEngine& diags, const LowerOptions& opts) {
  Lowerer l(prog, inf, diags, opts);
  return l.run();
}

}  // namespace otter::lower
