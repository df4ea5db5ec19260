#include "codegen/emit.hpp"

#include <cmath>
#include <sstream>
#include <unordered_set>

namespace otter::codegen {

using lower::LExpr;
using lower::LFunction;
using lower::LIfArm;
using lower::LInstr;
using lower::LOp;
using lower::LOperand;
using lower::LProgram;
using lower::LVarDecl;
using lower::RedKind;
using rt::EwBin;
using rt::EwUn;

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string fmt_double(double v) {
  // %g would print inf / nan, which are not C++ literals.
  if (std::isnan(v)) {
    return std::signbit(v) ? "(-std::numeric_limits<double>::quiet_NaN())"
                           : "std::numeric_limits<double>::quiet_NaN()";
  }
  if (std::isinf(v)) {
    return v < 0 ? "(-std::numeric_limits<double>::infinity())"
                 : "std::numeric_limits<double>::infinity()";
  }
  // Range check first: the cast is undefined outside long long's range.
  if (std::abs(v) < 1e15 && v == static_cast<long long>(v)) {
    return std::to_string(static_cast<long long>(v)) + ".0";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Emitter {
 public:
  explicit Emitter(const EmitOptions& opts) : opts_(opts) {}

  std::string run(const LProgram& prog) {
    header();
    for (const LFunction& fn : prog.functions) emit_function(fn);
    emit_entry(prog);
    return out_.str();
  }

 private:
  void line(const std::string& s) {
    for (int i = 0; i < indent_; ++i) out_ << "  ";
    out_ << s << '\n';
  }
  void open(const std::string& s) {
    line(s);
    ++indent_;
  }
  void close(const std::string& s = "}") {
    --indent_;
    line(s);
  }

  void header() {
    out_ << "// Generated by the Otter MATLAB compiler. Do not edit.\n"
         << "#include \"codegen/genrt.hpp\"\n\n"
         << "#include <cmath>\n"
         << "#include <utility>\n\n"
         << "using otter::genrt::Ctx;\n"
         << "using otter::rt::DMat;\n"
         << "namespace rt = otter::rt;\n"
         << "namespace genrt = otter::genrt;\n\n"
         << "namespace {\n\n";
  }

  // -- expression trees ----------------------------------------------------------

  /// Scalar tree as a C++ expression. In element-wise context `elem` is the
  /// loop variable name and MatVar leaves read their bound local pointers.
  std::string expr(const LExpr& e, bool elementwise = false) {
    switch (e.kind) {
      case LExpr::Kind::Imm:
        return fmt_double(e.imm);
      case LExpr::Kind::ScalarVar:
        return e.var;
      case LExpr::Kind::MatVar:
        if (!elementwise) return e.var;  // should not happen in scalar trees
        return "ML_lv_" + e.var + "[ML_i]";
      case LExpr::Kind::Bin: {
        std::string a = expr(*e.a, elementwise);
        std::string b = expr(*e.b, elementwise);
        switch (e.bop) {
          case EwBin::Add: return "(" + a + " + " + b + ")";
          case EwBin::Sub: return "(" + a + " - " + b + ")";
          case EwBin::Mul: return "(" + a + " * " + b + ")";
          case EwBin::Div: return "(" + a + " / " + b + ")";
          case EwBin::Pow: return "std::pow(" + a + ", " + b + ")";
          case EwBin::Lt: return "((" + a + " < " + b + ") ? 1.0 : 0.0)";
          case EwBin::Le: return "((" + a + " <= " + b + ") ? 1.0 : 0.0)";
          case EwBin::Gt: return "((" + a + " > " + b + ") ? 1.0 : 0.0)";
          case EwBin::Ge: return "((" + a + " >= " + b + ") ? 1.0 : 0.0)";
          case EwBin::Eq: return "((" + a + " == " + b + ") ? 1.0 : 0.0)";
          case EwBin::Ne: return "((" + a + " != " + b + ") ? 1.0 : 0.0)";
          case EwBin::And:
            return "(((" + a + " != 0.0) && (" + b + " != 0.0)) ? 1.0 : 0.0)";
          case EwBin::Or:
            return "(((" + a + " != 0.0) || (" + b + " != 0.0)) ? 1.0 : 0.0)";
          case EwBin::Mod:
            return "rt::ew_apply_bin(rt::EwBin::Mod, " + a + ", " + b + ")";
          case EwBin::Rem:
            return "std::fmod(" + a + ", " + b + ")";
          case EwBin::Min:
            return "std::min(" + a + ", " + b + ")";
          case EwBin::Max:
            return "std::max(" + a + ", " + b + ")";
        }
        return "0.0";
      }
      case LExpr::Kind::Un: {
        std::string a = expr(*e.a, elementwise);
        switch (e.uop) {
          case EwUn::Neg: return "(-" + a + ")";
          case EwUn::Not: return "((" + a + " == 0.0) ? 1.0 : 0.0)";
          case EwUn::Abs: return "std::fabs(" + a + ")";
          case EwUn::Sqrt: return "std::sqrt(" + a + ")";
          case EwUn::Exp: return "std::exp(" + a + ")";
          case EwUn::Log: return "std::log(" + a + ")";
          case EwUn::Sin: return "std::sin(" + a + ")";
          case EwUn::Cos: return "std::cos(" + a + ")";
          case EwUn::Tan: return "std::tan(" + a + ")";
          case EwUn::Floor: return "std::floor(" + a + ")";
          case EwUn::Ceil: return "std::ceil(" + a + ")";
          case EwUn::Round: return "std::round(" + a + ")";
          case EwUn::Sign:
            return "rt::ew_apply_un(rt::EwUn::Sign, " + a + ")";
        }
        return "0.0";
      }
      case LExpr::Kind::RowsOf:
        return "static_cast<double>(" + e.var + ".rows())";
      case LExpr::Kind::ColsOf:
        return "static_cast<double>(" + e.var + ".cols())";
      case LExpr::Kind::NumelOf:
        return "static_cast<double>(" + e.var + ".numel())";
      case LExpr::Kind::RandScalar:
        return "genrt::ML_rand_scalar(ctx)";
      case LExpr::Kind::RankId:
        return "static_cast<double>(ctx.comm.rank())";
      case LExpr::Kind::NProcs:
        return "static_cast<double>(ctx.comm.size())";
    }
    return "0.0";
  }

  std::string sop(const LOperand& o) {
    if (o.is_matrix) return o.mat;
    return expr(*o.scalar);
  }
  static std::string as_size(const std::string& s) {
    return "static_cast<size_t>(" + s + ")";
  }

  void collect_matvars(const LExpr& e, std::vector<std::string>& vars,
                       std::unordered_set<std::string>& seen) {
    if (e.kind == LExpr::Kind::MatVar && seen.insert(e.var).second) {
      vars.push_back(e.var);
    }
    if (e.a) collect_matvars(*e.a, vars, seen);
    if (e.b) collect_matvars(*e.b, vars, seen);
  }

  // -- declarations ----------------------------------------------------------------

  void declare(const std::vector<LVarDecl>& decls) {
    for (const LVarDecl& d : decls) {
      if (d.is_matrix) {
        line("DMat " + d.name + ";");
      } else {
        line("double " + d.name + " = 0.0;");
      }
    }
  }

  // -- instructions -----------------------------------------------------------------

  void emit_body(const std::vector<lower::LInstrPtr>& body) {
    for (const lower::LInstrPtr& in : body) emit_instr(*in);
  }

  void emit_instr(const LInstr& in) {
    // Each statement records itself for run-time error context (ML_run).
    // Control statements record nothing: the statements in their bodies
    // record themselves.
    switch (in.op) {
      case LOp::IfOp:
      case LOp::WhileOp:
      case LOp::ForOp:
      case LOp::BreakOp:
      case LOp::ContinueOp:
      case LOp::ReturnOp:
        break;
      default:
        line("genrt::ML_at(ctx, " + std::to_string(in.loc.line) + ", " +
             std::to_string(in.loc.col) + ", \"" + lower::lop_name(in.op) +
             "\");");
        break;
    }
    switch (in.op) {
      case LOp::MatMul:
        line(in.dst + " = rt::matmul(ctx.comm, " + sop(in.args[0]) + ", " +
             sop(in.args[1]) + ");");
        return;
      case LOp::MatVec:
        line(in.dst + " = rt::matvec(ctx.comm, " + sop(in.args[0]) + ", " +
             sop(in.args[1]) + ");");
        return;
      case LOp::VecMat:
        line(in.dst + " = rt::vecmat(ctx.comm, " + sop(in.args[0]) + ", " +
             sop(in.args[1]) + ");");
        return;
      case LOp::OuterProd:
        line(in.dst + " = rt::outer(ctx.comm, " + sop(in.args[0]) + ", " +
             sop(in.args[1]) + ");");
        return;
      case LOp::TransposeOp:
        line(in.dst + " = rt::transpose(ctx.comm, " + sop(in.args[0]) + ");");
        return;
      case LOp::DotProd:
        line(in.sdst + " = rt::dot(ctx.comm, " + sop(in.args[0]) + ", " +
             sop(in.args[1]) + ");");
        return;
      case LOp::Reduce: {
        const char* fn = "reduce_sum";
        switch (in.red) {
          case RedKind::Sum: fn = "reduce_sum"; break;
          case RedKind::Mean: fn = "reduce_mean"; break;
          case RedKind::Min: fn = "reduce_min"; break;
          case RedKind::Max: fn = "reduce_max"; break;
          case RedKind::Prod: fn = "reduce_prod"; break;
        }
        line(in.sdst + " = rt::" + fn + "(ctx.comm, " + sop(in.args[0]) + ");");
        return;
      }
      case LOp::ReduceGroup: {
        // One k-element allreduce: the members' kinds and operands go in as
        // an array of terms, the results come back in member order.
        static const char* const kKinds[] = {"Sum", "Mean", "Min", "Max",
                                             "Prod"};
        std::ostringstream terms;
        for (size_t i = 0; i < in.args.size(); ++i) {
          if (i) terms << ", ";
          terms << "{rt::RedKind::" << kKinds[static_cast<int>(in.reds[i])]
                << ", &" << in.args[i].mat << "}";
        }
        open("{");
        line("const rt::ReduceTerm ML_terms[] = {" + terms.str() + "};");
        line("double ML_red[" + std::to_string(in.args.size()) + "];");
        line("rt::reduce_group(ctx.comm, ML_terms, ML_red);");
        for (size_t i = 0; i < in.call_dsts.size(); ++i) {
          line(in.call_dsts[i].name + " = ML_red[" + std::to_string(i) + "];");
        }
        close();
        return;
      }
      case LOp::Colwise: {
        std::string call;
        switch (in.red) {
          case RedKind::Sum:
            call = "rt::colwise_sum(ctx.comm, " + sop(in.args[0]) + ", false)";
            break;
          case RedKind::Mean:
            call = "rt::colwise_sum(ctx.comm, " + sop(in.args[0]) + ", true)";
            break;
          case RedKind::Min:
            call = "rt::colwise_minmax(ctx.comm, " + sop(in.args[0]) + ", true)";
            break;
          default:
            call = "rt::colwise_minmax(ctx.comm, " + sop(in.args[0]) + ", false)";
            break;
        }
        line(in.dst + " = " + call + ";");
        return;
      }
        return;
      case LOp::Trapz:
        if (in.args.size() == 2) {
          line(in.sdst + " = rt::trapz_xy(ctx.comm, " + sop(in.args[0]) +
               ", " + sop(in.args[1]) + ");");
        } else {
          line(in.sdst + " = rt::trapz(ctx.comm, " + sop(in.args[0]) + ");");
        }
        return;
      case LOp::GetElem:
        // The paper's ML_broadcast: the owner broadcasts the element.
        if (in.linear) {
          line(in.sdst + " = genrt::ML_get_linear(ctx, " + sop(in.args[0]) +
               ", " + as_size(sop(in.args[1])) + ");");
        } else {
          line(in.sdst + " = rt::get_element(ctx.comm, " + sop(in.args[0]) +
               ", " + as_size(sop(in.args[1])) + ", " +
               as_size(sop(in.args[2])) + ");");
        }
        return;
      case LOp::SetElem:
        // Paper pass 5: "only the processor owning a(i,j) executes the
        // assignment" — the owner guard is inside set_element/ML_set_linear.
        if (in.linear) {
          line("genrt::ML_set_linear(ctx, " + in.dst + ", " +
               as_size(sop(in.args[0])) + ", " + sop(in.args[1]) + ");");
        } else {
          line("rt::set_element(ctx.comm, " + in.dst + ", " +
               as_size(sop(in.args[0])) + ", " + as_size(sop(in.args[1])) +
               ", " + sop(in.args[2]) + ");");
        }
        return;
      case LOp::ExtractRowOp:
        line(in.dst + " = rt::extract_row(ctx.comm, " + sop(in.args[0]) +
             ", " + as_size(sop(in.args[1])) + ");");
        return;
      case LOp::ExtractColOp:
        line(in.dst + " = rt::extract_col(ctx.comm, " + sop(in.args[0]) +
             ", " + as_size(sop(in.args[1])) + ");");
        return;
      case LOp::AssignRowOp:
        line("rt::assign_row(ctx.comm, " + in.dst + ", " +
             as_size(sop(in.args[0])) + ", " + sop(in.args[1]) + ");");
        return;
      case LOp::AssignColOp:
        line("rt::assign_col(ctx.comm, " + in.dst + ", " +
             as_size(sop(in.args[0])) + ", " + sop(in.args[1]) + ");");
        return;
      case LOp::SliceVec:
        line(in.dst + " = rt::slice_vector(ctx.comm, " + sop(in.args[0]) +
             ", " + as_size(sop(in.args[1])) + ", " +
             as_size(sop(in.args[2])) + ");");
        return;
      case LOp::AssignSliceOp:
        line("rt::assign_slice(ctx.comm, " + in.dst + ", " +
             as_size(sop(in.args[0])) + ", " + as_size(sop(in.args[1])) +
             ", " + sop(in.args[2]) + ");");
        return;
      case LOp::FillZeros:
        line(in.dst + " = rt::fill_zeros(ctx.comm, " +
             as_size(sop(in.args[0])) + ", " + as_size(sop(in.args[1])) +
             ", ctx.dist);");
        return;
      case LOp::FillOnes:
        line(in.dst + " = rt::fill_ones(ctx.comm, " +
             as_size(sop(in.args[0])) + ", " + as_size(sop(in.args[1])) +
             ", ctx.dist);");
        return;
      case LOp::FillEye:
        line(in.dst + " = rt::fill_eye(ctx.comm, " +
             as_size(sop(in.args[0])) + ", " + as_size(sop(in.args[1])) +
             ", ctx.dist);");
        return;
      case LOp::FillRand:
        line(in.dst + " = genrt::ML_rand(ctx, " + as_size(sop(in.args[0])) +
             ", " + as_size(sop(in.args[1])) + ");");
        return;
      case LOp::FillRange:
        line(in.dst + " = rt::fill_range(ctx.comm, " + sop(in.args[0]) +
             ", " + sop(in.args[1]) + ", " + sop(in.args[2]) + ", ctx.dist);");
        return;
      case LOp::LoadFile:
        line(in.dst + " = rt::load_matrix(ctx.comm, \"" +
             escape(in.args[0].str) + "\", ctx.dist);");
        return;
      case LOp::FillLinspace:
        line(in.dst + " = rt::fill_linspace(ctx.comm, " + sop(in.args[0]) +
             ", " + sop(in.args[1]) + ", " + as_size(sop(in.args[2])) +
             ", ctx.dist);");
        return;
      case LOp::FromLiteral: {
        size_t rows = in.literal_rows.size();
        size_t cols = rows ? in.literal_rows[0].size() : 0;
        open("{");
        std::ostringstream init;
        init << "const double ML_data[] = {";
        bool first = true;
        for (const auto& row : in.literal_rows) {
          for (const lower::LExprPtr& e : row) {
            if (!first) init << ", ";
            first = false;
            init << expr(*e);
          }
        }
        init << "};";
        if (rows * cols == 0) {
          line(in.dst + " = rt::fill_zeros(ctx.comm, 0, 0, ctx.dist);");
        } else {
          line(init.str());
          line(in.dst + " = rt::from_full(ctx.comm, " + std::to_string(rows) +
               ", " + std::to_string(cols) + ", std::span<const double>(ML_data, " +
               std::to_string(rows * cols) + "), ctx.dist);");
        }
        close();
        return;
      }
      case LOp::CopyMat:
        line(in.dst + " = " + sop(in.args[0]) + ";");
        return;
      case LOp::Elemwise: {
        // The paper's element-wise for loop: each processor updates its
        // share of the (aligned) local elements.
        std::vector<std::string> vars;
        std::unordered_set<std::string> seen;
        collect_matvars(*in.tree, vars, seen);
        open("{");
        const std::string& shape = vars.front();
        for (size_t i = 1; i < vars.size(); ++i) {
          line("rt::require_aligned(" + shape + ", " + vars[i] + ");");
        }
        if (seen.count(in.dst) == 0) {
          // Destination is not an operand: reuse its buffer across
          // iterations of the surrounding script (ensure_like keeps the
          // storage when the shape/distribution already match).
          line("rt::ensure_like(ctx.comm, " + in.dst + ", " + shape + ");");
          for (const std::string& v : vars) {
            line("const double* ML_lv_" + v + " = " + v + ".local().data();");
          }
          line("double* ML_lv_out = " + in.dst + ".local().data();");
          open("for (long ML_i = static_cast<long>(" + in.dst +
               ".local_elements()) - 1; ML_i >= 0; --ML_i) {");
          line("ML_lv_out[ML_i] = " + expr(*in.tree, /*elementwise=*/true) +
               ";");
          close();
        } else {
          // Destination aliases an operand: a replaced buffer would drop
          // the operand's data, so build the result aside and move it in.
          line("DMat ML_out(ctx.comm, " + shape + ".rows(), " + shape +
               ".cols(), " + shape + ".layout().dist());");
          for (const std::string& v : vars) {
            line("const double* ML_lv_" + v + " = " + v + ".local().data();");
          }
          line("double* ML_lv_out = ML_out.local().data();");
          open("for (long ML_i = static_cast<long>(ML_out.local_elements())"
               " - 1; ML_i >= 0; --ML_i) {");
          line("ML_lv_out[ML_i] = " + expr(*in.tree, /*elementwise=*/true) +
               ";");
          close();
          line(in.dst + " = std::move(ML_out);");
        }
        close();
        return;
      }
      case LOp::EyeUpdate:
        line("rt::eye_update(ctx.comm, " + in.dst + ", " + sop(in.args[0]) +
             ", " + sop(in.args[1]) + ", " + as_size(sop(in.args[2])) + ", " +
             as_size(sop(in.args[3])) + ", rt::EwBin::" +
             (in.bop == EwBin::Sub ? "Sub" : "Add") + ", " +
             (in.eye_first ? "true" : "false") + ", ctx.dist);");
        return;
      case LOp::ScalarAssign:
        line(in.sdst + " = " + expr(*in.tree) + ";");
        return;
      case LOp::CallFn: {
        std::ostringstream call;
        call << in.callee << "(ctx";
        for (const LOperand& a : in.args) call << ", " << sop(a);
        for (const LVarDecl& d : in.call_dsts) call << ", &" << d.name;
        call << ");";
        line(call.str());
        return;
      }
      case LOp::Display:
        if (in.args[1].is_matrix) {
          line("genrt::ML_display_matrix(ctx, \"" + escape(in.args[0].str) +
               "\", " + in.args[1].mat + ");");
        } else {
          line("genrt::ML_display_scalar(ctx, \"" + escape(in.args[0].str) +
               "\", " + sop(in.args[1]) + ");");
        }
        return;
      case LOp::DispOp: {
        const LOperand& o = in.args[0];
        if (o.is_string) {
          line("genrt::ML_disp_string(ctx, \"" + escape(o.str) + "\");");
        } else if (o.is_matrix) {
          line("genrt::ML_disp_matrix(ctx, " + o.mat + ");");
        } else {
          line("genrt::ML_disp_scalar(ctx, " + sop(o) + ");");
        }
        return;
      }
      case LOp::FprintfOp: {
        std::ostringstream call;
        call << "genrt::ML_fprintf(ctx, \"" << escape(in.args[0].str) << "\"";
        if (in.args.size() > 1) {
          call << ", {";
          for (size_t i = 1; i < in.args.size(); ++i) {
            if (i > 1) call << ", ";
            if (in.args[i].is_matrix) {
              call << "genrt::MLArg(" << in.args[i].mat << ")";
            } else {
              call << "genrt::MLArg(" << sop(in.args[i]) << ")";
            }
          }
          call << "}";
        }
        call << ");";
        line(call.str());
        return;
      }
      case LOp::ErrorOp:
        if (!in.args.empty() && in.args[0].is_string) {
          line("throw otter::rt::RtError(\"" + escape(in.args[0].str) + "\");");
        } else {
          line("throw otter::rt::RtError(\"error\");");
        }
        return;
      case LOp::ShapeGuard: {
        std::string what = in.args.size() > 1 && in.args[1].is_string
                               ? in.args[1].str
                               : "reduction";
        line("genrt::ML_shape_check(" + sop(in.args[0]) + ", \"" +
             escape(what) + "\", " + std::to_string(in.loc.line) + ");");
        return;
      }
      case LOp::IfOp: {
        bool first = true;
        for (const LIfArm& arm : in.arms) {
          if (arm.cond) {
            line(std::string(first ? "if ((" : "} else if ((") +
                 expr(*arm.cond) + ") != 0.0) {");
          } else {
            line("} else {");
          }
          ++indent_;
          emit_body(arm.body);
          --indent_;
          first = false;
        }
        line("}");
        return;
      }
      case LOp::WhileOp:
        open("while ((" + expr(*in.cond) + ") != 0.0) {");
        emit_body(in.body);
        close();
        return;
      case LOp::ForOp: {
        open("{");
        line("const double ML_lo = " + expr(*in.lo) + ";");
        line("const double ML_step = " + expr(*in.step) + ";");
        line("const double ML_hi = " + expr(*in.hi) + ";");
        line("const long ML_n = (ML_hi - ML_lo) / ML_step < 0 ? 0 : "
             "static_cast<long>(std::floor((ML_hi - ML_lo) / ML_step + 1e-10)) + 1;");
        open("for (long ML_k = 0; ML_k < ML_n; ++ML_k) {");
        line(in.loop_var + " = ML_lo + static_cast<double>(ML_k) * ML_step;");
        emit_body(in.body);
        close();
        close();
        return;
      }
      case LOp::BreakOp:
        line("break;");
        return;
      case LOp::ContinueOp:
        line("continue;");
        return;
      case LOp::ReturnOp:
        line("return;");
        return;
    }
  }

  void emit_function(const LFunction& fn) {
    std::ostringstream sig;
    sig << "void " << fn.mangled << "(Ctx& ctx";
    for (const LVarDecl& p : fn.params) {
      sig << ", " << (p.is_matrix ? "DMat " : "double ") << p.name;
    }
    for (const LVarDecl& o : fn.outs) {
      sig << ", " << (o.is_matrix ? "DMat* ML_out_" : "double* ML_out_")
          << o.name;
    }
    sig << ") {";
    open(sig.str());
    declare(fn.outs);
    declare(fn.locals);
    emit_body(fn.body);
    for (const LVarDecl& o : fn.outs) {
      line("*ML_out_" + o.name + " = std::move(" + o.name + ");");
    }
    close();
    out_ << '\n';
  }

  void emit_entry(const LProgram& prog) {
    open("void otter_script(Ctx& ctx) {");
    declare(prog.script_vars);
    emit_body(prog.script);
    close();
    out_ << "\n}  // namespace\n\n";
    out_ << "extern \"C\" void " << opts_.entry_symbol
         << "(otter::mpi::Comm* comm, std::ostream* out, uint64_t seed,\n"
         << "    int dist) {\n"
         << "  Ctx ctx{*comm, *out, seed, 0,\n"
         << "          dist == 0 ? otter::rt::Dist::RowBlock : "
            "otter::rt::Dist::Cyclic};\n"
         << "  genrt::ML_run(ctx, otter_script);\n"
         << "}\n";
  }

  EmitOptions opts_;
  std::ostringstream out_;
  int indent_ = 0;
};

}  // namespace

std::string emit_cpp(const LProgram& prog, const EmitOptions& opts) {
  Emitter em(opts);
  return em.run(prog);
}

}  // namespace otter::codegen
