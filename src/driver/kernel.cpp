#include "driver/kernel.hpp"

#include <limits>
#include <string>
#include <unordered_map>

namespace otter::driver {

namespace {

using lower::LExpr;

bool has_rand(const LExpr& e) {
  if (e.kind == LExpr::Kind::RandScalar) return true;
  if (e.a && has_rand(*e.a)) return true;
  if (e.b && has_rand(*e.b)) return true;
  return false;
}

struct Builder {
  Kernel k;
  std::unordered_map<std::string, uint16_t> mat_slots;
  size_t depth = 0;
  bool ok = true;

  void push(KOp op) {
    k.ops.push_back(op);
    ++depth;
    if (depth > k.max_stack) k.max_stack = depth;
  }

  uint16_t mat_slot(const std::string& name) {
    auto it = mat_slots.find(name);
    if (it != mat_slots.end()) return it->second;
    auto slot = static_cast<uint16_t>(k.mats.size());
    mat_slots.emplace(name, slot);
    k.mats.push_back(name);
    return slot;
  }

  void build(const LExpr& e) {
    if (!ok) return;
    if (k.ops.size() > 4096 || k.mats.size() > 255 || k.scalars.size() > 255) {
      ok = false;  // degenerate tree: the caller evaluates it per element
      return;
    }
    switch (e.kind) {
      case LExpr::Kind::Imm: {
        KOp op;
        op.k = KOp::K::PushImm;
        op.imm = e.imm;
        push(op);
        return;
      }
      case LExpr::Kind::MatVar: {
        KOp op;
        op.k = KOp::K::PushMat;
        op.slot = mat_slot(e.var);
        push(op);
        return;
      }
      case LExpr::Kind::ScalarVar:
      case LExpr::Kind::RowsOf:
      case LExpr::Kind::ColsOf:
      case LExpr::Kind::NumelOf:
      case LExpr::Kind::RankId:    // constant for the whole run: slot-safe
      case LExpr::Kind::NProcs: {
        KOp op;
        op.k = KOp::K::PushScalar;
        op.slot = static_cast<uint16_t>(k.scalars.size());
        k.scalars.push_back(&e);
        push(op);
        return;
      }
      case LExpr::Kind::Bin: {
        build(*e.a);
        build(*e.b);
        if (!ok) return;
        KOp op;
        op.k = KOp::K::Bin;
        op.bop = e.bop;
        k.ops.push_back(op);
        --depth;  // two pops, one push
        return;
      }
      case LExpr::Kind::Un: {
        build(*e.a);
        if (!ok) return;
        KOp op;
        op.k = KOp::K::Un;
        op.uop = e.uop;
        k.ops.push_back(op);
        return;
      }
      case LExpr::Kind::RandScalar:
        // A slot would draw once per statement where the interpreter draws
        // once per element; refuse so the caller preserves rand semantics.
        ok = false;
        return;
    }
    ok = false;
  }
};

/// Recognises the postfix programs that cover nearly all fused statements
/// in practice (see KPat). Anything else stays Generic.
void classify(Kernel& k) {
  auto as_operand = [](const KOp& op, KOperand& o) -> bool {
    switch (op.k) {
      case KOp::K::PushMat:
        o.k = KOperand::K::Mat;
        o.slot = op.slot;
        return true;
      case KOp::K::PushScalar:
        o.k = KOperand::K::Slot;
        o.slot = op.slot;
        return true;
      case KOp::K::PushImm:
        o.k = KOperand::K::Imm;
        o.imm = op.imm;
        return true;
      case KOp::K::Bin:
      case KOp::K::Un:
        return false;
    }
    return false;
  };
  const std::vector<KOp>& ops = k.ops;
  if (ops.size() == 2 && ops[1].k == KOp::K::Un &&
      as_operand(ops[0], k.o1)) {
    k.pat = KPat::Un1;
    k.puop = ops[1].uop;
    return;
  }
  if (ops.size() == 3 && ops[2].k == KOp::K::Bin &&
      as_operand(ops[0], k.o1) && as_operand(ops[1], k.o2)) {
    k.pat = KPat::Bin2;
    k.pbop = ops[2].bop;
    return;
  }
  if (ops.size() == 5 && ops[3].k == KOp::K::Bin &&
      ops[3].bop == rt::EwBin::Mul && ops[4].k == KOp::K::Bin &&
      (ops[4].bop == rt::EwBin::Add || ops[4].bop == rt::EwBin::Sub) &&
      as_operand(ops[0], k.o1) && as_operand(ops[1], k.o2) &&
      as_operand(ops[2], k.o3)) {
    k.pat = KPat::Axpy;
    k.pbop2 = ops[4].bop;
    return;
  }
}

}  // namespace

Kernel compile_kernel(const lower::LExpr& tree) {
  if (has_rand(tree)) {
    Kernel k;
    k.ok = false;
    return k;
  }
  Builder b;
  b.build(tree);
  b.k.ok = b.ok && !b.k.ops.empty();
  if (b.k.ok) classify(b.k);
  return b.k;
}

}  // namespace otter::driver
