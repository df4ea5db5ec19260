// Peephole pass — the paper's sixth compiler pass.
//
// "The sixth pass of the compiler performs peephole optimizations, looking
//  for ways in which a sequence of run-time library calls can be replaced by
//  a single call."
//
// Patterns:
//  P1  t = v';  m = t * y;  s = m(0)      =>  s = ML_dot(v, y)
//      (the inner-product idiom x'*y: one allreduce instead of a transpose
//       redistribution, a multiply, and an element broadcast)
//  P2  t = v';  d = ML_vector_matrix_multiply(t, A)
//                                          =>  d = ML_vector_matrix_multiply(v, A)
//      (run-time vector ops are orientation-agnostic: drop the transpose)
//  P3  t = v';  d = ML_matrix_vector_multiply(A, t)
//                                          =>  d = ML_matrix_vector_multiply(A, v)
// Each pattern fires only when the transposed temporary has no other use.
#include <unordered_map>

#include "lower/opt.hpp"

namespace otter::lower {

namespace {

void count_tree(const LExpr& e,
                std::unordered_map<std::string, int>& uses) {
  if (e.kind == LExpr::Kind::MatVar || e.kind == LExpr::Kind::ScalarVar ||
      e.kind == LExpr::Kind::RowsOf || e.kind == LExpr::Kind::ColsOf ||
      e.kind == LExpr::Kind::NumelOf) {
    uses[e.var]++;
  }
  if (e.a) count_tree(*e.a, uses);
  if (e.b) count_tree(*e.b, uses);
}

void count_uses(const std::vector<LInstrPtr>& body,
                std::unordered_map<std::string, int>& uses) {
  for (const LInstrPtr& in : body) {
    for (const LOperand& o : in->args) {
      if (o.is_matrix) uses[o.mat]++;
      if (o.scalar) count_tree(*o.scalar, uses);
    }
    if (in->tree) count_tree(*in->tree, uses);
    if (in->cond) count_tree(*in->cond, uses);
    if (in->lo) count_tree(*in->lo, uses);
    if (in->step) count_tree(*in->step, uses);
    if (in->hi) count_tree(*in->hi, uses);
    for (const auto& row : in->literal_rows) {
      for (const LExprPtr& e : row) count_tree(*e, uses);
    }
    for (const LIfArm& arm : in->arms) {
      if (arm.cond) count_tree(*arm.cond, uses);
      count_uses(arm.body, uses);
    }
    count_uses(in->body, uses);
  }
}

bool is_temp(const std::string& name) {
  return name.rfind("ML_tmp", 0) == 0;
}

bool tree_is_zero(const LExpr& e) {
  return e.kind == LExpr::Kind::Imm && e.imm == 0.0;
}

/// The earlier of two source locations (an invalid location always loses),
/// so a fused instruction reports at the first original statement it
/// replaces and lint/verifier findings stay anchored to user code.
SourceLoc earliest_loc(SourceLoc a, SourceLoc b) {
  if (!a.valid()) return b;
  if (!b.valid()) return a;
  if (b.line < a.line || (b.line == a.line && b.col < a.col)) return b;
  return a;
}

/// Applies the patterns to one instruction list; recurses into control flow.
void peephole_body(std::vector<LInstrPtr>& body,
                   const std::unordered_map<std::string, int>& uses) {
  for (size_t i = 0; i < body.size(); ++i) {
    LInstr& in = *body[i];
    for (LIfArm& arm : in.arms) peephole_body(arm.body, uses);
    peephole_body(in.body, uses);

    if (in.op != LOp::TransposeOp) continue;
    if (!is_temp(in.dst)) continue;
    const std::string t = in.dst;
    const std::string v = in.args[0].mat;
    auto uit = uses.find(t);
    int t_uses = uit == uses.end() ? 0 : uit->second;
    if (t_uses != 1 || i + 1 >= body.size()) continue;
    LInstr& next = *body[i + 1];

    // P1: t = v'; m = t * y; s = m(0)  =>  s = dot(v, y).
    if ((next.op == LOp::MatVec || next.op == LOp::MatMul ||
         next.op == LOp::VecMat) &&
        next.args.size() == 2 && next.args[0].is_matrix &&
        next.args[0].mat == t && is_temp(next.dst) && i + 2 < body.size()) {
      LInstr& third = *body[i + 2];
      auto mit = uses.find(next.dst);
      int m_uses = mit == uses.end() ? 0 : mit->second;
      if (third.op == LOp::GetElem && third.linear && m_uses == 1 &&
          third.args[0].is_matrix && third.args[0].mat == next.dst &&
          third.args[1].scalar && tree_is_zero(*third.args[1].scalar)) {
        auto dot = std::make_unique<LInstr>(
            LOp::DotProd, earliest_loc(earliest_loc(in.loc, next.loc), third.loc));
        dot->sdst = third.sdst;
        dot->args.push_back({});
        dot->args[0].is_matrix = true;
        dot->args[0].mat = v;
        dot->args.push_back({});
        dot->args[1].is_matrix = true;
        dot->args[1].mat = next.args[1].mat;
        body[i] = std::move(dot);
        body.erase(body.begin() + static_cast<long>(i) + 1,
                   body.begin() + static_cast<long>(i) + 3);
        continue;
      }
    }

    // P2 / P3: drop the transpose feeding an orientation-agnostic op.
    if (next.op == LOp::VecMat && next.args[0].is_matrix &&
        next.args[0].mat == t) {
      next.args[0].mat = v;
      next.loc = earliest_loc(next.loc, in.loc);
      body.erase(body.begin() + static_cast<long>(i));
      --i;
      continue;
    }
    if (next.op == LOp::MatVec && next.args[1].is_matrix &&
        next.args[1].mat == t) {
      next.args[1].mat = v;
      next.loc = earliest_loc(next.loc, in.loc);
      body.erase(body.begin() + static_cast<long>(i));
      --i;
      continue;
    }
    if (next.op == LOp::DotProd &&
        ((next.args[0].is_matrix && next.args[0].mat == t) ||
         (next.args[1].is_matrix && next.args[1].mat == t))) {
      if (next.args[0].mat == t) next.args[0].mat = v;
      if (next.args[1].mat == t) next.args[1].mat = v;
      next.loc = earliest_loc(next.loc, in.loc);
      body.erase(body.begin() + static_cast<long>(i));
      --i;
      continue;
    }
  }
}

}  // namespace

void run_peephole(LProgram& prog) {
  {
    std::unordered_map<std::string, int> uses;
    count_uses(prog.script, uses);
    peephole_body(prog.script, uses);
  }
  for (LFunction& fn : prog.functions) {
    std::unordered_map<std::string, int> uses;
    count_uses(fn.body, uses);
    peephole_body(fn.body, uses);
  }
}

}  // namespace otter::lower
