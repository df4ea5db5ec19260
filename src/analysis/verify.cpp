#include "analysis/verify.hpp"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace otter::analysis {

namespace {

using lower::LExpr;
using lower::LFunction;
using lower::LIfArm;
using lower::LInstr;
using lower::LInstrPtr;
using lower::LOp;
using lower::LOperand;
using lower::LProgram;
using lower::LVarDecl;

bool is_temp(const std::string& name) { return name.rfind("ML_tmp", 0) == 0; }

class Verifier {
 public:
  Verifier(const LProgram& lir, DiagEngine& diags)
      : lir_(lir), diags_(diags) {}

  size_t run() {
    for (const LFunction& fn : lir_.functions) fns_[fn.mangled] = &fn;

    scope_name_ = "script";
    decls_.clear();
    for (const LVarDecl& d : lir_.script_vars) decls_[d.name] = d.is_matrix;
    std::unordered_set<std::string> defined;
    verify_body(lir_.script, defined, /*loop_depth=*/0);

    for (const LFunction& fn : lir_.functions) {
      scope_name_ = "function '" + fn.source_name + "'";
      decls_.clear();
      std::unordered_set<std::string> fdef;
      for (const LVarDecl& d : fn.params) {
        decls_[d.name] = d.is_matrix;
        fdef.insert(d.name);
      }
      for (const LVarDecl& d : fn.outs) decls_[d.name] = d.is_matrix;
      for (const LVarDecl& d : fn.locals) decls_[d.name] = d.is_matrix;
      verify_body(fn.body, fdef, /*loop_depth=*/0);
    }
    return violations_;
  }

 private:
  void err(const char* code, const LInstr& in, const std::string& msg) {
    diags_.error(code, in.loc,
                 "LIR verification failed in " + scope_name_ + ", '" +
                     lower::lop_name(in.op) + "' instruction: " + msg);
    ++violations_;
  }

  /// A name must be declared with the given kind; temps must additionally
  /// already be defined on every path reaching this instruction.
  void check_ref(const LInstr& in, const std::string& name, bool want_matrix,
                 const std::unordered_set<std::string>& defined,
                 const char* role) {
    auto it = decls_.find(name);
    if (it == decls_.end()) {
      err("E6001", in,
          std::string(role) + " '" + name + "' is not declared in the scope");
      return;
    }
    if (it->second != want_matrix) {
      err("E6004", in, std::string(role) + " '" + name + "' is declared " +
                           (it->second ? "matrix" : "scalar") + " but used as " +
                           (want_matrix ? "matrix" : "scalar"));
    }
    if (is_temp(name) && !defined.contains(name)) {
      err("E6002", in, std::string(role) + " temporary '" + name +
                           "' is used before it is defined");
    }
  }

  void check_tree(const LInstr& in, const LExpr& e, bool matrix_ok,
                  const std::unordered_set<std::string>& defined) {
    switch (e.kind) {
      case LExpr::Kind::ScalarVar:
        check_ref(in, e.var, false, defined, "scalar operand");
        break;
      case LExpr::Kind::MatVar:
        if (!matrix_ok) {
          err("E6004", in, "matrix operand '" + e.var +
                               "' appears in a replicated scalar tree");
        }
        check_ref(in, e.var, true, defined, "matrix operand");
        break;
      case LExpr::Kind::RowsOf:
      case LExpr::Kind::ColsOf:
      case LExpr::Kind::NumelOf:
        check_ref(in, e.var, true, defined, "shape-query operand");
        break;
      case LExpr::Kind::RandScalar:
        // An element-wise loop runs block by block, so it cannot keep the
        // interpreter's per-element draw order; lowering hoists rand into
        // a scalar assignment instead.
        if (matrix_ok) {
          err("E6008", in, "element-wise loop tree draws rand");
        }
        break;
      default:
        break;
    }
    if (e.a) check_tree(in, *e.a, matrix_ok, defined);
    if (e.b) check_tree(in, *e.b, matrix_ok, defined);
  }

  /// Requires args[i] to be a matrix-variable operand.
  void want_mat(const LInstr& in, size_t i,
                const std::unordered_set<std::string>& defined) {
    const LOperand& o = in.args[i];
    if (!o.is_matrix) {
      err("E6004", in,
          "operand " + std::to_string(i) + " must be a matrix variable");
      return;
    }
    check_ref(in, o.mat, true, defined, "matrix operand");
  }

  /// Requires args[i] to be a scalar expression tree.
  void want_scalar(const LInstr& in, size_t i,
                   const std::unordered_set<std::string>& defined) {
    const LOperand& o = in.args[i];
    if (o.is_matrix || o.is_string || !o.scalar) {
      err("E6004", in,
          "operand " + std::to_string(i) + " must be a scalar expression");
      return;
    }
    check_tree(in, *o.scalar, /*matrix_ok=*/false, defined);
  }

  void want_string(const LInstr& in, size_t i) {
    if (!in.args[i].is_string) {
      err("E6004", in,
          "operand " + std::to_string(i) + " must be a string literal");
    }
  }

  bool want_arity(const LInstr& in, size_t n) {
    if (in.args.size() != n) {
      err("E6003", in, "expected " + std::to_string(n) + " operand(s), have " +
                           std::to_string(in.args.size()));
      return false;
    }
    return true;
  }

  void want_dst(const LInstr& in, const std::unordered_set<std::string>& defined) {
    if (in.dst.empty()) {
      err("E6004", in, "missing matrix destination");
      return;
    }
    check_dst_decl(in, in.dst, true);
    (void)defined;
  }

  void want_sdst(const LInstr& in) {
    if (in.sdst.empty()) {
      err("E6004", in, "missing scalar destination");
      return;
    }
    check_dst_decl(in, in.sdst, false);
  }

  /// Destinations must be declared with the right kind (they are defined by
  /// the instruction itself, so no def-before-use requirement).
  void check_dst_decl(const LInstr& in, const std::string& name,
                      bool want_matrix) {
    auto it = decls_.find(name);
    if (it == decls_.end()) {
      err("E6001", in,
          "destination '" + name + "' is not declared in the scope");
    } else if (it->second != want_matrix) {
      err("E6004", in, "destination '" + name + "' is declared " +
                           (it->second ? "matrix" : "scalar") +
                           " but assigned a " +
                           (want_matrix ? "matrix" : "scalar"));
    }
  }

  void define(const LInstr& in, std::unordered_set<std::string>& defined) {
    if (!in.dst.empty()) defined.insert(in.dst);
    if (!in.sdst.empty()) defined.insert(in.sdst);
    for (const LVarDecl& d : in.call_dsts) defined.insert(d.name);
  }

  void verify_body(const std::vector<LInstrPtr>& body,
                   std::unordered_set<std::string>& defined, int loop_depth) {
    for (const LInstrPtr& ip : body) {
      verify_instr(*ip, defined, loop_depth);
      define(*ip, defined);
    }
  }

  void verify_instr(const LInstr& in, std::unordered_set<std::string>& defined,
                    int loop_depth) {
    switch (in.op) {
      // dst = op(matrix, matrix)
      case LOp::MatMul:
      case LOp::MatVec:
      case LOp::VecMat:
      case LOp::OuterProd:
        want_dst(in, defined);
        if (want_arity(in, 2)) {
          want_mat(in, 0, defined);
          want_mat(in, 1, defined);
        }
        break;
      case LOp::TransposeOp:
      case LOp::CopyMat:
        want_dst(in, defined);
        if (want_arity(in, 1)) want_mat(in, 0, defined);
        break;
      case LOp::DotProd:
        want_sdst(in);
        if (want_arity(in, 2)) {
          want_mat(in, 0, defined);
          want_mat(in, 1, defined);
        }
        break;
      case LOp::Reduce:
        want_sdst(in);
        if (want_arity(in, 1)) want_mat(in, 0, defined);
        break;
      case LOp::ReduceGroup:
        verify_group(in, defined);
        break;
      case LOp::Colwise:
        want_dst(in, defined);
        if (want_arity(in, 1)) want_mat(in, 0, defined);
        break;
      case LOp::Trapz:
        want_sdst(in);
        if (in.args.size() != 1 && in.args.size() != 2) {
          err("E6003", in, "expected 1 or 2 operand(s), have " +
                               std::to_string(in.args.size()));
        } else {
          for (size_t i = 0; i < in.args.size(); ++i) want_mat(in, i, defined);
        }
        break;
      case LOp::GetElem:
        want_sdst(in);
        if (want_arity(in, in.linear ? 2 : 3)) {
          want_mat(in, 0, defined);
          for (size_t i = 1; i < in.args.size(); ++i) {
            want_scalar(in, i, defined);
          }
        }
        break;
      case LOp::SetElem:
        // The owner-guarded element write (paper pass 5): the guard is the
        // instruction itself, so the target must be a declared, known
        // matrix — a guarded store into a scalar is a miscompile.
        if (in.dst.empty() || !decls_.contains(in.dst) ||
            !decls_.at(in.dst)) {
          err("E6007", in,
              "owner-guarded element write must target a declared matrix"
              " (target '" +
                  in.dst + "')");
        }
        if (want_arity(in, in.linear ? 2 : 3)) {
          for (size_t i = 0; i < in.args.size(); ++i) {
            want_scalar(in, i, defined);
          }
        }
        break;
      case LOp::ExtractRowOp:
      case LOp::ExtractColOp:
        want_dst(in, defined);
        if (want_arity(in, 2)) {
          want_mat(in, 0, defined);
          want_scalar(in, 1, defined);
        }
        break;
      case LOp::AssignRowOp:
      case LOp::AssignColOp:
        want_dst(in, defined);
        if (want_arity(in, 2)) {
          want_scalar(in, 0, defined);
          want_mat(in, 1, defined);
        }
        break;
      case LOp::SliceVec:
        want_dst(in, defined);
        if (want_arity(in, 3)) {
          want_mat(in, 0, defined);
          want_scalar(in, 1, defined);
          want_scalar(in, 2, defined);
        }
        break;
      case LOp::AssignSliceOp:
        want_dst(in, defined);
        if (want_arity(in, 3)) {
          want_scalar(in, 0, defined);
          want_scalar(in, 1, defined);
          want_mat(in, 2, defined);
        }
        break;
      case LOp::FillZeros:
      case LOp::FillOnes:
      case LOp::FillEye:
      case LOp::FillRand:
        want_dst(in, defined);
        if (want_arity(in, 2)) {
          want_scalar(in, 0, defined);
          want_scalar(in, 1, defined);
        }
        break;
      case LOp::FillRange:
      case LOp::FillLinspace:
        want_dst(in, defined);
        if (want_arity(in, 3)) {
          for (size_t i = 0; i < 3; ++i) want_scalar(in, i, defined);
        }
        break;
      case LOp::LoadFile:
        want_dst(in, defined);
        if (want_arity(in, 1)) want_string(in, 0);
        break;
      case LOp::FromLiteral: {
        want_dst(in, defined);
        if (in.literal_rows.empty()) {
          err("E6008", in, "matrix literal has no rows");
          break;
        }
        size_t cols = in.literal_rows[0].size();
        for (const auto& row : in.literal_rows) {
          if (row.size() != cols) {
            err("E6008", in, "ragged matrix literal");
            break;
          }
          for (const lower::LExprPtr& e : row) {
            if (!e) {
              err("E6008", in, "matrix literal element has no tree");
            } else {
              check_tree(in, *e, /*matrix_ok=*/false, defined);
            }
          }
        }
        break;
      }
      case LOp::Elemwise:
        want_dst(in, defined);
        if (!in.tree) {
          err("E6008", in, "element-wise loop has no expression tree");
        } else {
          check_tree(in, *in.tree, /*matrix_ok=*/true, defined);
          if (!in.tree->has_matrix_leaf()) {
            err("E6008", in,
                "element-wise loop tree has no matrix operand (should have "
                "been a scalar assignment)");
          }
        }
        break;
      case LOp::EyeUpdate:
        want_dst(in, defined);
        if (want_arity(in, 4)) {
          want_mat(in, 0, defined);
          for (size_t i = 1; i < 4; ++i) want_scalar(in, i, defined);
        }
        if (in.bop != lower::EwBin::Add && in.bop != lower::EwBin::Sub) {
          err("E6008", in, "eye update must add or subtract");
        }
        break;
      case LOp::ScalarAssign:
        want_sdst(in);
        if (!in.tree) {
          err("E6008", in, "scalar assignment has no expression tree");
        } else {
          check_tree(in, *in.tree, /*matrix_ok=*/false, defined);
        }
        break;
      case LOp::CallFn:
        verify_call(in, defined);
        break;
      case LOp::Display:
        if (want_arity(in, 2)) {
          want_string(in, 0);
          check_operand(in, 1, defined);
        }
        break;
      case LOp::DispOp:
        if (want_arity(in, 1)) check_operand(in, 0, defined);
        break;
      case LOp::FprintfOp:
        if (in.args.empty()) {
          err("E6003", in, "fprintf has no format operand");
        } else {
          want_string(in, 0);
          for (size_t i = 1; i < in.args.size(); ++i) {
            check_operand(in, i, defined);
          }
        }
        break;
      case LOp::ErrorOp:
        if (in.args.empty()) {
          err("E6003", in, "error has no message operand");
        } else {
          want_string(in, 0);
        }
        break;
      case LOp::ShapeGuard:
        if (want_arity(in, 2)) {
          want_mat(in, 0, defined);
          want_string(in, 1);
        }
        break;
      case LOp::IfOp: {
        if (in.arms.empty()) {
          err("E6005", in, "if has no arms");
          break;
        }
        // Each arm's definitions are only guaranteed when that arm runs;
        // only names defined in EVERY arm (with a final else present)
        // escape to the code after the if.
        std::unordered_set<std::string> common;
        bool has_else = false;
        bool first = true;
        for (size_t a = 0; a < in.arms.size(); ++a) {
          const LIfArm& arm = in.arms[a];
          if (!arm.cond) {
            if (a + 1 != in.arms.size()) {
              err("E6005", in, "else arm is not last");
            }
            has_else = true;
          } else {
            check_tree(in, *arm.cond, /*matrix_ok=*/false, defined);
          }
          std::unordered_set<std::string> arm_def = defined;
          verify_body(arm.body, arm_def, loop_depth);
          if (first) {
            common = std::move(arm_def);
            first = false;
          } else {
            std::erase_if(common, [&](const std::string& n) {
              return !arm_def.contains(n);
            });
          }
        }
        if (has_else) {
          for (const std::string& n : common) defined.insert(n);
        }
        break;
      }
      case LOp::WhileOp: {
        if (!in.cond) {
          err("E6005", in, "while has no condition");
        } else {
          check_tree(in, *in.cond, /*matrix_ok=*/false, defined);
        }
        // The body may run zero times: its definitions do not escape.
        std::unordered_set<std::string> body_def = defined;
        verify_body(in.body, body_def, loop_depth + 1);
        break;
      }
      case LOp::ForOp: {
        if (in.loop_var.empty() || !in.lo || !in.step || !in.hi) {
          err("E6005", in, "for is missing its loop variable or bounds");
          break;
        }
        check_dst_decl(in, in.loop_var, false);
        check_tree(in, *in.lo, /*matrix_ok=*/false, defined);
        check_tree(in, *in.step, /*matrix_ok=*/false, defined);
        check_tree(in, *in.hi, /*matrix_ok=*/false, defined);
        std::unordered_set<std::string> body_def = defined;
        body_def.insert(in.loop_var);
        verify_body(in.body, body_def, loop_depth + 1);
        break;
      }
      case LOp::BreakOp:
        if (loop_depth == 0) err("E6005", in, "break outside of a loop");
        break;
      case LOp::ContinueOp:
        if (loop_depth == 0) err("E6005", in, "continue outside of a loop");
        break;
      case LOp::ReturnOp:
        break;
    }
  }

  /// Display/disp/fprintf value operands may be a matrix variable, a scalar
  /// tree, or a string.
  void check_operand(const LInstr& in, size_t i,
                     const std::unordered_set<std::string>& defined) {
    const LOperand& o = in.args[i];
    if (o.is_string) return;
    if (o.is_matrix) {
      check_ref(in, o.mat, true, defined, "matrix operand");
    } else if (o.scalar) {
      check_tree(in, *o.scalar, /*matrix_ok=*/false, defined);
    } else {
      err("E6004", in, "operand " + std::to_string(i) + " is empty");
    }
  }

  /// A coalesced reduction group: two or more members of one class, each a
  /// matrix operand reduced into its own scalar destination.
  void verify_group(const LInstr& in,
                    const std::unordered_set<std::string>& defined) {
    size_t k = in.args.size();
    if (in.call_dsts.size() != k || in.reds.size() != k) {
      err("E6010", in, "reduction group has " + std::to_string(k) +
                           " operand(s), " +
                           std::to_string(in.call_dsts.size()) +
                           " destination(s) and " +
                           std::to_string(in.reds.size()) + " kind(s)");
      return;
    }
    if (k < 2) {
      err("E6010", in, "reduction group has fewer than two members");
    }
    bool mixed = false;
    std::unordered_set<std::string> dsts;
    for (size_t i = 0; i < k; ++i) {
      mixed |= rt::reduce_class(in.reds[i]) != rt::reduce_class(in.reds[0]);
      if (!in.args[i].is_matrix) {
        err("E6010", in, "reduction group member " + std::to_string(i) +
                             " does not reduce a matrix variable");
      } else {
        check_ref(in, in.args[i].mat, true, defined, "matrix operand");
      }
      const LVarDecl& d = in.call_dsts[i];
      if (!dsts.insert(d.name).second) {
        err("E6010", in, "reduction group writes '" + d.name + "' twice");
      }
      check_dst_decl(in, d.name, false);
    }
    if (mixed) err("E6010", in, "reduction group mixes reduction classes");
  }

  void verify_call(const LInstr& in,
                   const std::unordered_set<std::string>& defined) {
    auto it = fns_.find(in.callee);
    if (it == fns_.end()) {
      err("E6006", in,
          "call to unknown function instance '" + in.callee + "'");
      return;
    }
    const LFunction& fn = *it->second;
    if (in.args.size() != fn.params.size()) {
      err("E6006", in, "call passes " + std::to_string(in.args.size()) +
                           " argument(s), '" + fn.source_name + "' takes " +
                           std::to_string(fn.params.size()));
      return;
    }
    for (size_t i = 0; i < in.args.size(); ++i) {
      if (fn.params[i].is_matrix) {
        want_mat(in, i, defined);
      } else {
        want_scalar(in, i, defined);
      }
    }
    if (in.call_dsts.size() > fn.outs.size()) {
      err("E6006", in, "call binds " + std::to_string(in.call_dsts.size()) +
                           " result(s), '" + fn.source_name + "' returns " +
                           std::to_string(fn.outs.size()));
      return;
    }
    for (size_t i = 0; i < in.call_dsts.size(); ++i) {
      if (in.call_dsts[i].is_matrix != fn.outs[i].is_matrix) {
        err("E6006", in,
            "result '" + in.call_dsts[i].name + "' binds a " +
                (fn.outs[i].is_matrix ? "matrix" : "scalar") + " output to a " +
                (in.call_dsts[i].is_matrix ? "matrix" : "scalar") +
                " destination");
      }
      check_dst_decl(in, in.call_dsts[i].name, in.call_dsts[i].is_matrix);
    }
  }

  const LProgram& lir_;
  DiagEngine& diags_;
  std::unordered_map<std::string, const LFunction*> fns_;
  std::unordered_map<std::string, bool> decls_;  // name -> is_matrix
  std::string scope_name_;
  size_t violations_ = 0;
};

}  // namespace

size_t verify_lir(const lower::LProgram& lir, DiagEngine& diags) {
  return Verifier(lir, diags).run();
}

size_t verify_guard_elimination(const lower::OptReport& report,
                                const std::vector<lower::GuardProof>& proofs,
                                DiagEngine& diags) {
  size_t violations = 0;
  for (const lower::GuardProof& g : report.guards_eliminated) {
    bool matched = false;
    for (const lower::GuardProof& p : proofs) {
      if (p.loc.line == g.loc.line && p.loc.col == g.loc.col &&
          p.builtin == g.builtin) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      ++violations;
      diags.error("E6009", g.loc,
                  "shape guard for '" + g.builtin +
                      "' was deleted without an abstract-interpretation "
                      "proof that it cannot fire");
    }
  }
  return violations;
}

}  // namespace otter::analysis
