#include "lower/lir.hpp"

#include <sstream>

namespace otter::lower {

LExprPtr limm(double v) {
  auto e = std::make_unique<LExpr>();
  e->kind = LExpr::Kind::Imm;
  e->imm = v;
  return e;
}

LExprPtr lsvar(std::string name) {
  auto e = std::make_unique<LExpr>();
  e->kind = LExpr::Kind::ScalarVar;
  e->var = std::move(name);
  return e;
}

LExprPtr lmvar(std::string name) {
  auto e = std::make_unique<LExpr>();
  e->kind = LExpr::Kind::MatVar;
  e->var = std::move(name);
  return e;
}

LExprPtr lbin(EwBin op, LExprPtr a, LExprPtr b) {
  auto e = std::make_unique<LExpr>();
  e->kind = LExpr::Kind::Bin;
  e->bop = op;
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

LExprPtr lun(EwUn op, LExprPtr a) {
  auto e = std::make_unique<LExpr>();
  e->kind = LExpr::Kind::Un;
  e->uop = op;
  e->a = std::move(a);
  return e;
}

LExprPtr lquery(LExpr::Kind k, std::string var) {
  auto e = std::make_unique<LExpr>();
  e->kind = k;
  e->var = std::move(var);
  return e;
}

LExprPtr clone_lexpr(const LExpr& e) {
  auto c = std::make_unique<LExpr>();
  c->kind = e.kind;
  c->imm = e.imm;
  c->var = e.var;
  c->bop = e.bop;
  c->uop = e.uop;
  if (e.a) c->a = clone_lexpr(*e.a);
  if (e.b) c->b = clone_lexpr(*e.b);
  return c;
}

namespace {

const char* bin_name(EwBin op) {
  switch (op) {
    case EwBin::Add: return "+";
    case EwBin::Sub: return "-";
    case EwBin::Mul: return "*";
    case EwBin::Div: return "/";
    case EwBin::Pow: return "pow";
    case EwBin::Lt: return "<";
    case EwBin::Le: return "<=";
    case EwBin::Gt: return ">";
    case EwBin::Ge: return ">=";
    case EwBin::Eq: return "==";
    case EwBin::Ne: return "~=";
    case EwBin::And: return "&";
    case EwBin::Or: return "|";
    case EwBin::Mod: return "mod";
    case EwBin::Rem: return "rem";
    case EwBin::Min: return "min";
    case EwBin::Max: return "max";
  }
  return "?";
}

const char* un_name(EwUn op) {
  switch (op) {
    case EwUn::Neg: return "neg";
    case EwUn::Not: return "not";
    case EwUn::Abs: return "abs";
    case EwUn::Sqrt: return "sqrt";
    case EwUn::Exp: return "exp";
    case EwUn::Log: return "log";
    case EwUn::Sin: return "sin";
    case EwUn::Cos: return "cos";
    case EwUn::Tan: return "tan";
    case EwUn::Floor: return "floor";
    case EwUn::Ceil: return "ceil";
    case EwUn::Round: return "round";
    case EwUn::Sign: return "sign";
  }
  return "?";
}

const char* red_name(RedKind r) {
  switch (r) {
    case RedKind::Sum: return "sum";
    case RedKind::Mean: return "mean";
    case RedKind::Min: return "min";
    case RedKind::Max: return "max";
    case RedKind::Prod: return "prod";
  }
  return "?";
}

void dump_lexpr_to(const LExpr& e, std::ostream& os) {
  switch (e.kind) {
    case LExpr::Kind::Imm: os << e.imm; break;
    case LExpr::Kind::ScalarVar: os << e.var; break;
    case LExpr::Kind::MatVar: os << e.var << "[.]"; break;
    case LExpr::Kind::Bin:
      os << '(' << bin_name(e.bop) << ' ';
      dump_lexpr_to(*e.a, os);
      os << ' ';
      dump_lexpr_to(*e.b, os);
      os << ')';
      break;
    case LExpr::Kind::Un:
      os << '(' << un_name(e.uop) << ' ';
      dump_lexpr_to(*e.a, os);
      os << ')';
      break;
    case LExpr::Kind::RowsOf: os << "rows(" << e.var << ')'; break;
    case LExpr::Kind::ColsOf: os << "cols(" << e.var << ')'; break;
    case LExpr::Kind::NumelOf: os << "numel(" << e.var << ')'; break;
    case LExpr::Kind::RandScalar: os << "rand()"; break;
    case LExpr::Kind::RankId: os << "rank()"; break;
    case LExpr::Kind::NProcs: os << "nprocs()"; break;
  }
}

void dump_operand(const LOperand& o, std::ostream& os) {
  if (o.is_string) {
    os << '\'' << o.str << '\'';
  } else if (o.is_matrix) {
    os << o.mat;
  } else if (o.scalar) {
    dump_lexpr_to(*o.scalar, os);
  } else {
    os << "<?>";
  }
}

void indent_to(std::ostream& os, int n) {
  for (int i = 0; i < n; ++i) os << "  ";
}

void dump_instrs(const std::vector<LInstrPtr>& body, std::ostream& os,
                 int indent);

void dump_instr(const LInstr& in, std::ostream& os, int indent) {
  indent_to(os, indent);
  auto args = [&](const char* name) {
    os << name << '(';
    for (size_t i = 0; i < in.args.size(); ++i) {
      if (i) os << ", ";
      dump_operand(in.args[i], os);
    }
    os << ')';
  };
  switch (in.op) {
    case LOp::MatMul: os << in.dst << " = "; args("ML_matrix_multiply"); break;
    case LOp::MatVec: os << in.dst << " = "; args("ML_matrix_vector_multiply"); break;
    case LOp::VecMat: os << in.dst << " = "; args("ML_vector_matrix_multiply"); break;
    case LOp::OuterProd: os << in.dst << " = "; args("ML_outer_product"); break;
    case LOp::TransposeOp: os << in.dst << " = "; args("ML_transpose"); break;
    case LOp::DotProd: os << in.sdst << " = "; args("ML_dot"); break;
    case LOp::Trapz: os << in.sdst << " = "; args("ML_trapz"); break;
    case LOp::Reduce:
      os << in.sdst << " = ML_reduce_" << red_name(in.red) << '(';
      dump_operand(in.args[0], os);
      os << ')';
      break;
    case LOp::ReduceGroup:
      os << '[';
      for (size_t i = 0; i < in.call_dsts.size(); ++i) {
        if (i) os << ", ";
        os << in.call_dsts[i].name;
      }
      os << "] = ML_reduce_group(";
      for (size_t i = 0; i < in.args.size(); ++i) {
        if (i) os << ", ";
        os << (i < in.reds.size() ? red_name(in.reds[i]) : "?") << '(';
        dump_operand(in.args[i], os);
        os << ')';
      }
      os << ')';
      break;
    case LOp::Colwise:
      os << in.dst << " = ML_colwise_" << red_name(in.red) << '(';
      dump_operand(in.args[0], os);
      os << ')';
      break;
    case LOp::GetElem: os << in.sdst << " = "; args("ML_broadcast"); break;
    case LOp::SetElem: args("ML_set_element_guarded"); break;
    case LOp::ExtractRowOp: os << in.dst << " = "; args("ML_extract_row"); break;
    case LOp::ExtractColOp: os << in.dst << " = "; args("ML_extract_col"); break;
    case LOp::AssignRowOp: args("ML_assign_row"); break;
    case LOp::AssignColOp: args("ML_assign_col"); break;
    case LOp::SliceVec: os << in.dst << " = "; args("ML_slice"); break;
    case LOp::AssignSliceOp: args("ML_assign_slice"); break;
    case LOp::FillZeros: os << in.dst << " = "; args("ML_zeros"); break;
    case LOp::FillOnes: os << in.dst << " = "; args("ML_ones"); break;
    case LOp::FillEye: os << in.dst << " = "; args("ML_eye"); break;
    case LOp::FillRand: os << in.dst << " = "; args("ML_rand"); break;
    case LOp::FillRange: os << in.dst << " = "; args("ML_range"); break;
    case LOp::FillLinspace: os << in.dst << " = "; args("ML_linspace"); break;
    case LOp::LoadFile: os << in.dst << " = "; args("ML_load"); break;
    case LOp::FromLiteral: {
      os << in.dst << " = ML_literal[";
      for (size_t r = 0; r < in.literal_rows.size(); ++r) {
        if (r) os << "; ";
        for (size_t c = 0; c < in.literal_rows[r].size(); ++c) {
          if (c) os << ", ";
          dump_lexpr_to(*in.literal_rows[r][c], os);
        }
      }
      os << ']';
      break;
    }
    case LOp::CopyMat: os << in.dst << " = "; args("ML_copy"); break;
    case LOp::Elemwise:
      os << "for-each-local " << in.dst << " = ";
      dump_lexpr_to(*in.tree, os);
      break;
    case LOp::ScalarAssign:
      os << in.sdst << " = ";
      dump_lexpr_to(*in.tree, os);
      break;
    case LOp::CallFn: {
      os << '[';
      for (size_t i = 0; i < in.call_dsts.size(); ++i) {
        if (i) os << ", ";
        os << in.call_dsts[i].name;
      }
      os << "] = " << in.callee << '(';
      for (size_t i = 0; i < in.args.size(); ++i) {
        if (i) os << ", ";
        dump_operand(in.args[i], os);
      }
      os << ')';
      break;
    }
    case LOp::Display: args("ML_display"); break;
    case LOp::DispOp: args("ML_disp"); break;
    case LOp::FprintfOp: args("ML_fprintf"); break;
    case LOp::ErrorOp: args("ML_error"); break;
    case LOp::ShapeGuard: args("ML_shape_check"); break;
    case LOp::IfOp:
      os << "if\n";
      for (const LIfArm& arm : in.arms) {
        indent_to(os, indent + 1);
        if (arm.cond) {
          os << "cond ";
          dump_lexpr_to(*arm.cond, os);
          os << '\n';
        } else {
          os << "else\n";
        }
        dump_instrs(arm.body, os, indent + 2);
      }
      indent_to(os, indent);
      os << "end";
      break;
    case LOp::WhileOp:
      os << "while ";
      dump_lexpr_to(*in.cond, os);
      os << '\n';
      dump_instrs(in.body, os, indent + 1);
      indent_to(os, indent);
      os << "end";
      break;
    case LOp::ForOp:
      os << "for " << in.loop_var << " = ";
      dump_lexpr_to(*in.lo, os);
      os << " : ";
      dump_lexpr_to(*in.step, os);
      os << " : ";
      dump_lexpr_to(*in.hi, os);
      os << '\n';
      dump_instrs(in.body, os, indent + 1);
      indent_to(os, indent);
      os << "end";
      break;
    case LOp::BreakOp: os << "break"; break;
    case LOp::ContinueOp: os << "continue"; break;
    case LOp::ReturnOp: os << "return"; break;
  }
  os << '\n';
}

void dump_instrs(const std::vector<LInstrPtr>& body, std::ostream& os,
                 int indent) {
  for (const LInstrPtr& in : body) dump_instr(*in, os, indent);
}

}  // namespace

std::string dump_lexpr(const LExpr& e) {
  std::ostringstream ss;
  dump_lexpr_to(e, ss);
  return ss.str();
}

std::string dump_lir(const LProgram& p) {
  std::ostringstream ss;
  ss << "script:\n";
  dump_instrs(p.script, ss, 1);
  for (const LFunction& fn : p.functions) {
    ss << "function " << fn.mangled << ":\n";
    dump_instrs(fn.body, ss, 1);
  }
  return ss.str();
}

const char* lop_name(LOp op) {
  switch (op) {
    case LOp::MatMul: return "matmul";
    case LOp::MatVec: return "matvec";
    case LOp::VecMat: return "vecmat";
    case LOp::OuterProd: return "outer-product";
    case LOp::TransposeOp: return "transpose";
    case LOp::DotProd: return "dot";
    case LOp::Reduce: return "reduce";
    case LOp::ReduceGroup: return "reduce-group";
    case LOp::Colwise: return "colwise";
    case LOp::Trapz: return "trapz";
    case LOp::GetElem: return "get-elem";
    case LOp::SetElem: return "set-elem";
    case LOp::ExtractRowOp: return "extract-row";
    case LOp::ExtractColOp: return "extract-col";
    case LOp::AssignRowOp: return "assign-row";
    case LOp::AssignColOp: return "assign-col";
    case LOp::SliceVec: return "slice";
    case LOp::AssignSliceOp: return "assign-slice";
    case LOp::FillZeros: return "zeros";
    case LOp::FillOnes: return "ones";
    case LOp::FillEye: return "eye";
    case LOp::FillRand: return "rand";
    case LOp::FillRange: return "range";
    case LOp::FillLinspace: return "linspace";
    case LOp::LoadFile: return "load";
    case LOp::FromLiteral: return "matrix-literal";
    case LOp::CopyMat: return "copy";
    case LOp::Elemwise: return "elemwise";
    case LOp::ScalarAssign: return "scalar-assign";
    case LOp::CallFn: return "call";
    case LOp::Display: return "display";
    case LOp::DispOp: return "disp";
    case LOp::FprintfOp: return "fprintf";
    case LOp::ErrorOp: return "error";
    case LOp::ShapeGuard: return "shape-guard";
    case LOp::IfOp: return "if";
    case LOp::WhileOp: return "while";
    case LOp::ForOp: return "for";
    case LOp::BreakOp: return "break";
    case LOp::ContinueOp: return "continue";
    case LOp::ReturnOp: return "return";
  }
  return "unknown";
}

bool tree_has_rand(const LExpr& e) {
  if (e.kind == LExpr::Kind::RandScalar) return true;
  if (e.a && tree_has_rand(*e.a)) return true;
  if (e.b && tree_has_rand(*e.b)) return true;
  return false;
}

void tree_vars(const LExpr* e, NameSet& out) {
  if (e == nullptr) return;
  switch (e->kind) {
    case LExpr::Kind::ScalarVar:
    case LExpr::Kind::MatVar:
    case LExpr::Kind::RowsOf:
    case LExpr::Kind::ColsOf:
    case LExpr::Kind::NumelOf:
      out.insert(e->var);
      break;
    default:
      break;
  }
  tree_vars(e->a.get(), out);
  tree_vars(e->b.get(), out);
}

void instr_reads(const LInstr& in, NameSet& out) {
  for (const LOperand& o : in.args) {
    if (o.is_matrix) out.insert(o.mat);
    tree_vars(o.scalar.get(), out);
  }
  tree_vars(in.tree.get(), out);
  for (const auto& row : in.literal_rows) {
    for (const LExprPtr& e : row) tree_vars(e.get(), out);
  }
}

bool is_rmw(LOp op) {
  switch (op) {
    case LOp::SetElem:
    case LOp::AssignRowOp:
    case LOp::AssignColOp:
    case LOp::AssignSliceOp:
      return true;
    default:
      return false;
  }
}

bool any_tree_has_rand(const LInstr& in) {
  for (const LOperand& o : in.args) {
    if (o.scalar && tree_has_rand(*o.scalar)) return true;
  }
  if (in.tree && tree_has_rand(*in.tree)) return true;
  for (const auto& row : in.literal_rows) {
    for (const LExprPtr& e : row) {
      if (e && tree_has_rand(*e)) return true;
    }
  }
  return false;
}

bool removable(const LInstr& in) {
  switch (in.op) {
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
    case LOp::FillZeros:
    case LOp::FillOnes:
    case LOp::FillEye:
    case LOp::FillRange:
    case LOp::FillLinspace:
    case LOp::FromLiteral:
    case LOp::CopyMat:
    case LOp::Elemwise:
    case LOp::ScalarAssign:
      // FillRand is deliberately absent: it advances the shared random
      // sequence, so deleting it would shift every later draw.
      return !any_tree_has_rand(in);
    default:
      return false;
  }
}

void collect_ever_read(const std::vector<LInstrPtr>& body, NameSet& out) {
  for (const LInstrPtr& ip : body) {
    const LInstr& in = *ip;
    instr_reads(in, out);
    if (is_rmw(in.op) && !in.dst.empty()) out.insert(in.dst);
    for (const LIfArm& arm : in.arms) {
      tree_vars(arm.cond.get(), out);
      collect_ever_read(arm.body, out);
    }
    tree_vars(in.cond.get(), out);
    tree_vars(in.lo.get(), out);
    tree_vars(in.step.get(), out);
    tree_vars(in.hi.get(), out);
    collect_ever_read(in.body, out);
  }
}

}  // namespace otter::lower
