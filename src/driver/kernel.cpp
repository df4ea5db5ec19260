#include "driver/kernel.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace otter::driver {

namespace {

using lower::LExpr;

// -- block loops --------------------------------------------------------------
// One instantiation per operator. `Op` is a constant, so ew_apply_bin/un's
// switch folds away and each loop body is the bare operation. A broadcast
// operand is read once per block; `out` may be one of the operands (same
// element index), never an overlapping shift of one.

template <rt::EwBin Op>
void bin_block(double* out, KView a, KView b, size_t len) {
  if (a.step != 0 && b.step != 0) {
    for (size_t i = 0; i < len; ++i) {
      out[i] = rt::ew_apply_bin(Op, a.p[i], b.p[i]);
    }
  } else if (a.step != 0) {
    const double y = *b.p;
    for (size_t i = 0; i < len; ++i) out[i] = rt::ew_apply_bin(Op, a.p[i], y);
  } else if (b.step != 0) {
    const double x = *a.p;
    for (size_t i = 0; i < len; ++i) out[i] = rt::ew_apply_bin(Op, x, b.p[i]);
  } else {
    std::fill_n(out, len, rt::ew_apply_bin(Op, *a.p, *b.p));
  }
}

template <rt::EwUn Op>
void un_block(double* out, KView a, size_t len) {
  if (a.step != 0) {
    for (size_t i = 0; i < len; ++i) out[i] = rt::ew_apply_un(Op, a.p[i]);
  } else {
    std::fill_n(out, len, rt::ew_apply_un(Op, *a.p));
  }
}

using BinBlock = void (*)(double*, KView, KView, size_t);
using UnBlock = void (*)(double*, KView, size_t);

template <size_t... I>
constexpr std::array<BinBlock, sizeof...(I)> bin_blocks(
    std::index_sequence<I...>) {
  return {&bin_block<static_cast<rt::EwBin>(I)>...};
}

template <size_t... I>
constexpr std::array<UnBlock, sizeof...(I)> un_blocks(
    std::index_sequence<I...>) {
  return {&un_block<static_cast<rt::EwUn>(I)>...};
}

/// Indexed by operator.
constexpr auto kBinBlocks =
    bin_blocks(std::make_index_sequence<rt::kEwBinCount>{});
constexpr auto kUnBlocks =
    un_blocks(std::make_index_sequence<rt::kEwUnCount>{});

// -- compilation --------------------------------------------------------------

struct Builder {
  Kernel k;
  std::unordered_map<std::string, uint32_t> mat_slots;
  size_t depth = 0;

  void push(KOp op) {
    k.ops.push_back(op);
    ++depth;
    k.max_stack = std::max(k.max_stack, depth);
  }

  uint32_t mat_slot(const std::string& name) {
    auto it = mat_slots.find(name);
    if (it != mat_slots.end()) return it->second;
    auto slot = static_cast<uint32_t>(k.mats.size());
    mat_slots.emplace(name, slot);
    k.mats.push_back(name);
    return slot;
  }

  void build(const LExpr& e) {
    KOp op;
    switch (e.kind) {
      case LExpr::Kind::Imm:
        op.k = KOp::K::PushImm;
        op.imm = e.imm;
        push(op);
        return;
      case LExpr::Kind::MatVar:
        op.k = KOp::K::PushMat;
        op.slot = mat_slot(e.var);
        push(op);
        return;
      case LExpr::Kind::ScalarVar:
      case LExpr::Kind::RowsOf:
      case LExpr::Kind::ColsOf:
      case LExpr::Kind::NumelOf:
      case LExpr::Kind::RankId:  // constant for the whole run: slot-safe
      case LExpr::Kind::NProcs:
        op.k = KOp::K::PushScalar;
        op.slot = static_cast<uint32_t>(k.scalars.size());
        k.scalars.push_back(&e);
        push(op);
        return;
      case LExpr::Kind::Bin:
        build(*e.a);
        build(*e.b);
        op.k = KOp::K::Bin;
        op.bop = e.bop;
        k.ops.push_back(op);
        --depth;  // two pops, one push
        return;
      case LExpr::Kind::Un:
        build(*e.a);
        op.k = KOp::K::Un;
        op.uop = e.uop;
        k.ops.push_back(op);
        return;
      case LExpr::Kind::RandScalar:
        break;
    }
    // A slot would draw once per statement where the interpreter draws once
    // per element; the caller must reject rand trees before compiling.
    throw std::logic_error("element-wise kernel over a rand leaf");
  }
};

}  // namespace

void Kernel::run(double* dst, const double* const* mat_ptrs,
                 const double* scalar_vals, KWork& work, size_t n) const {
  if (work.blocks.size() < max_stack * kBlock) {
    work.blocks.resize(max_stack * kBlock);
  }
  if (work.views.size() < max_stack) work.views.resize(max_stack);
  double* blocks = work.blocks.data();
  KView* views = work.views.data();
  const size_t last = ops.size() - 1;
  for (size_t base = 0; base < n; base += kBlock) {
    const size_t len = std::min(kBlock, n - base);
    double* out_block = dst + base;
    size_t sp = 0;
    for (size_t i = 0; i <= last; ++i) {
      const KOp& op = ops[i];
      // Stack level s keeps its intermediate in block s; the last op stores
      // straight into dst, after every read of this block.
      switch (op.k) {
        case KOp::K::PushImm:
          views[sp++] = {&op.imm, 0};
          break;
        case KOp::K::PushScalar:
          views[sp++] = {&scalar_vals[op.slot], 0};
          break;
        case KOp::K::PushMat:
          views[sp++] = {mat_ptrs[op.slot] + base, 1};
          break;
        case KOp::K::Bin: {
          --sp;
          double* out = i == last ? out_block : blocks + (sp - 1) * kBlock;
          kBinBlocks[static_cast<size_t>(op.bop)](out, views[sp - 1],
                                                  views[sp], len);
          views[sp - 1] = {out, 1};
          break;
        }
        case KOp::K::Un: {
          double* out = i == last ? out_block : blocks + (sp - 1) * kBlock;
          kUnBlocks[static_cast<size_t>(op.uop)](out, views[sp - 1], len);
          views[sp - 1] = {out, 1};
          break;
        }
      }
    }
    // A bare matrix leaf (`b = +a`) has no op to store the block.
    if (views[0].p != out_block) std::copy_n(views[0].p, len, out_block);
  }
}

Kernel compile_kernel(const lower::LExpr& tree) {
  Builder b;
  b.build(tree);
  return std::move(b.k);
}

}  // namespace otter::driver
