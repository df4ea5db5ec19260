// Statement-level IR produced by expression rewriting (paper pass 4).
//
// "The compiler must modify the AST to bring these terms and subexpressions
//  [that involve interprocessor communication] to the statement level, where
//  they can be translated into calls to the run-time library. After this has
//  been done, some element-wise matrix operations may remain … for loops
//  must be inserted to perform these operations one element at a time."
//
// LIR statements are either run-time-library calls (communication), fused
// element-wise loops over aligned local storage, replicated scalar
// computation, owner-guarded element writes (pass 5), or structured control
// flow. The direct executor interprets LIR against the run-time library; the
// C backend pretty-prints it as SPMD C code. Temporaries are named ML_tmpN,
// matching the paper's generated-code examples.
#pragma once

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "rtlib/dmatrix.hpp"
#include "sema/infer.hpp"

namespace otter::lower {

using rt::EwBin;
using rt::EwUn;
using rt::RedKind;

// -- expression trees -----------------------------------------------------------

/// A pure expression tree over already-computed variables. Scalar trees are
/// evaluated replicated on every rank; trees with MatVar leaves are evaluated
/// per local element inside a fused loop (every MatVar is aligned).
struct LExpr;
using LExprPtr = std::unique_ptr<LExpr>;

struct LExpr {
  enum class Kind {
    Imm,        // numeric constant
    ScalarVar,  // replicated double variable
    MatVar,     // aligned matrix operand (element-wise context only)
    Bin,        // EwBin over children
    Un,         // EwUn over child a
    RowsOf,     // rows(var)  — local shape queries, no communication
    ColsOf,     // cols(var)
    NumelOf,    // numel(var)
    RandScalar, // replicated scalar rand draw (advances the shared sequence)
    RankId,     // this rank's id (the one per-rank-divergent leaf)
    NProcs,     // number of ranks (replicated, identical everywhere)
  };
  Kind kind = Kind::Imm;
  double imm = 0.0;
  std::string var;
  EwBin bop = EwBin::Add;
  EwUn uop = EwUn::Neg;
  LExprPtr a, b;

  [[nodiscard]] bool has_matrix_leaf() const {
    if (kind == Kind::MatVar) return true;
    if (a && a->has_matrix_leaf()) return true;
    if (b && b->has_matrix_leaf()) return true;
    return false;
  }
};

LExprPtr limm(double v);
LExprPtr lsvar(std::string name);
LExprPtr lmvar(std::string name);
LExprPtr lbin(EwBin op, LExprPtr a, LExprPtr b);
LExprPtr lun(EwUn op, LExprPtr a);
LExprPtr lquery(LExpr::Kind k, std::string var);
LExprPtr clone_lexpr(const LExpr& e);

// -- instructions ----------------------------------------------------------------

struct LInstr;
using LInstrPtr = std::unique_ptr<LInstr>;

enum class LOp {
  // Run-time library calls (communication) — paper pass 4 hoists these.
  MatMul,        // dst = ML_matrix_multiply(a, b)
  MatVec,        // dst = ML_matrix_vector_multiply(a, x)
  VecMat,        // dst = ML_vector_matrix_multiply(x, a)
  OuterProd,     // dst = ML_outer_product(col, row)
  TransposeOp,   // dst = ML_transpose(a)
  DotProd,       // sdst = ML_dot(a, b)              (dot, norm, peephole)
  Reduce,        // sdst = ML_reduce_{sum,min,max,prod,mean}(a)
  ReduceGroup,   // [d1, …] = ML_reduce_group(a1, …)  (coalescing result)
  Colwise,       // dst = ML_colwise_{sum,mean,min,max}(a)
  Trapz,         // sdst = ML_trapz(a) / ML_trapz_xy(a, b)
  GetElem,       // sdst = ML_broadcast(a, i, j)      (paper's remote read)
  SetElem,       // if (ML_owner(dst,i,j)) store      (paper pass 5 guard)
  ExtractRowOp,  // dst = row i of a
  ExtractColOp,  // dst = column j of a
  AssignRowOp,   // row i of dst = vector a
  AssignColOp,   // column j of dst = vector a
  SliceVec,      // dst = a(lo..hi)
  AssignSliceOp, // dst(lo..hi) = a
  // Constructors.
  FillZeros, FillOnes, FillEye, FillRand, FillRange, FillLinspace,
  LoadFile,      // dst = ML_load(path) — rank 0 reads and broadcasts
  FromLiteral,   // dst = replicated-evaluated literal rows (small)
  CopyMat,       // dst = a (matrix copy / rename)
  // Local compute.
  Elemwise,      // dst[l] = tree(l) for each local element (fused loop)
  EyeUpdate,     // dst = x bop s*eye(r, c): args x, s, r, c (run_opt's fold)
  ScalarAssign,  // sdst = scalar tree (replicated)
  // Calls & I/O.
  CallFn,        // [dsts] = fn_instance(args)
  Display,       // rank 0 prints "name =\n<value>"
  DispOp,        // disp(operand)
  FprintfOp,     // fprintf(fmt, operands…)
  ErrorOp,       // abort with message
  ShapeGuard,    // validate a degraded inference assumption at run time:
                 // args[0] matrix, args[1] the builtin name; aborts with a
                 // coded E5003 RtError when the shape assumption is wrong
  // Structured control flow.
  IfOp, WhileOp, ForOp, BreakOp, ContinueOp, ReturnOp,
};

/// One operand: either a matrix variable name or a scalar expression tree.
struct LOperand {
  bool is_matrix = false;
  std::string mat;    // matrix variable name
  LExprPtr scalar;    // scalar tree (owned)
  std::string str;    // string literal (Fprintf/Disp/Error)
  bool is_string = false;
};

/// Variable declaration for a scope: every name is either a replicated
/// scalar double or a distributed matrix.
struct LVarDecl {
  std::string name;
  bool is_matrix = false;
};

struct LIfArm {
  LExprPtr cond;  // scalar tree; null for else
  std::vector<LInstrPtr> body;
};

struct LInstr {
  LOp op;
  SourceLoc loc;

  std::string dst;             // matrix destination variable
  std::string sdst;            // scalar destination variable
  std::vector<LOperand> args;  // operands in op-specific order

  RedKind red = RedKind::Sum;  // Reduce / Colwise
  bool linear = false;         // GetElem/SetElem with one (linear) index
  // EyeUpdate: bop is Add or Sub; eye_first writes s*eye(r, c) bop x.
  EwBin bop = EwBin::Add;
  bool eye_first = false;
  // CallFn.
  std::string callee;
  std::vector<LVarDecl> call_dsts;   // also ReduceGroup's destinations
  // ReduceGroup: member i reduces args[i] into call_dsts[i] by reds[i].
  std::vector<RedKind> reds;
  // FromLiteral: rows of scalar trees.
  std::vector<std::vector<LExprPtr>> literal_rows;
  // Elemwise: the fused per-element tree.
  LExprPtr tree;
  // Control flow.
  std::vector<LIfArm> arms;          // IfOp
  LExprPtr cond;                     // WhileOp
  std::string loop_var;              // ForOp (scalar)
  LExprPtr lo, step, hi;             // ForOp bounds
  std::vector<LInstrPtr> body;       // WhileOp / ForOp

  explicit LInstr(LOp o, SourceLoc l = {}) : op(o), loc(l) {}
};

struct LFunction {
  std::string mangled;        // instance name (doubles as C symbol)
  std::string source_name;    // original MATLAB name
  std::vector<LVarDecl> params;
  std::vector<LVarDecl> outs;
  std::vector<LVarDecl> locals;  // excluding params/outs
  std::vector<LInstrPtr> body;
};

struct LProgram {
  std::vector<LVarDecl> script_vars;
  std::vector<LInstrPtr> script;
  std::vector<LFunction> functions;  // one per inferred instance
};

/// Human-readable dump for golden tests (one instruction per line).
std::string dump_lir(const LProgram& p);
std::string dump_lexpr(const LExpr& e);

/// Short mnemonic for an opcode ("matmul", "get-elem", …) for diagnostics.
const char* lop_name(LOp op);

// -- tree and instruction queries ------------------------------------------------
// Shared by the optimizer (opt.cpp) and dead-statement elimination (dse.cpp).

using NameSet = std::unordered_set<std::string>;

/// Whether the tree draws rand (advances the shared random sequence).
bool tree_has_rand(const LExpr& e);

/// Adds every variable the tree reads to `out`; a null tree reads nothing.
void tree_vars(const LExpr* e, NameSet& out);

/// Reads of one instruction, excluding control-flow children (conditions,
/// bounds and nested bodies are handled by the structured walks).
void instr_reads(const LInstr& in, NameSet& out);

/// In-place matrix mutations: the destination is read-modify-write, so it
/// stays live across the instruction instead of being killed.
bool is_rmw(LOp op);

/// Whether any of the instruction's own trees draws rand.
bool any_tree_has_rand(const LInstr& in);

/// Whether the instruction may be deleted when its results are unread: it
/// is pure and never advances the random sequence.
bool removable(const LInstr& in);

/// All names read anywhere in a body (recursively), rmw targets included —
/// the conservative live set DSE applies at break/continue/return.
void collect_ever_read(const std::vector<LInstrPtr>& body, NameSet& out);

}  // namespace otter::lower
