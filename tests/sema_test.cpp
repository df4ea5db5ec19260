#include <gtest/gtest.h>

#include <algorithm>

#include "frontend/parser.hpp"
#include "sema/infer.hpp"
#include "sema/resolve.hpp"
#include "sema/ssa.hpp"

namespace otter::sema {
namespace {

struct Compiled {
  SourceManager sm;
  DiagEngine diags{&sm};
  Program prog;
  InferResult inf;
  bool ok = false;
};

/// Parse + resolve + infer. `mfiles` maps function name -> source.
std::unique_ptr<Compiled> analyze(
    const std::string& script,
    const std::map<std::string, std::string>& mfiles = {}) {
  auto c = std::make_unique<Compiled>();
  ParsedFile f = parse_string(script, c->sm, c->diags);
  EXPECT_FALSE(c->diags.has_errors()) << c->diags.to_string();
  c->prog.script = std::move(f.script);
  for (auto& fn : f.functions) c->prog.functions.emplace(fn->name, std::move(fn));
  MFileLoader loader = [&mfiles](const std::string& name)
      -> std::optional<std::string> {
    auto it = mfiles.find(name);
    if (it == mfiles.end()) return std::nullopt;
    return it->second;
  };
  if (!resolve_program(c->prog, c->sm, c->diags, loader)) return c;
  c->inf = infer_program(c->prog, c->diags);
  c->ok = !c->diags.has_errors();
  return c;
}

Ty var_class(const Compiled& c, const std::string& name) {
  auto it = c.inf.script.var_class.find(name);
  EXPECT_NE(it, c.inf.script.var_class.end()) << "no class for " << name;
  return it == c.inf.script.var_class.end() ? Ty{} : it->second;
}

// -- resolution ---------------------------------------------------------------

TEST(Resolve, AssignedNamesAreVariables) {
  auto c = analyze("x = 1; y = x + 1;");
  EXPECT_TRUE(c->ok) << c->diags.to_string();
}

TEST(Resolve, UnknownNameIsError) {
  auto c = analyze("y = mystery + 1;");
  EXPECT_FALSE(c->ok);
}

TEST(Resolve, BuiltinCallResolves) {
  auto c = analyze("y = zeros(3, 3);");
  EXPECT_TRUE(c->ok) << c->diags.to_string();
}

TEST(Resolve, UserMFileIsLoadedOnDemand) {
  auto c = analyze("y = triple(2);",
                   {{"triple", "function y = triple(x)\ny = 3 * x;\n"}});
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  EXPECT_TRUE(c->prog.functions.contains("triple"));
}

TEST(Resolve, TransitiveMFileChain) {
  auto c = analyze("y = f(2);",
                   {{"f", "function y = f(x)\ny = g(x) + 1;\n"},
                    {"g", "function y = g(x)\ny = x * 2;\n"}});
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  EXPECT_TRUE(c->prog.functions.contains("g"));
}

TEST(Resolve, VariableShadowsBuiltin) {
  // After assigning `sum`, sum(x) is indexing, not a call.
  auto c = analyze("sum = [1, 2, 3]; y = sum(2);");
  EXPECT_TRUE(c->ok) << c->diags.to_string();
}

TEST(Resolve, ArityErrorsReported) {
  auto c = analyze("y = dot([1, 2]);");  // dot needs 2 args
  EXPECT_FALSE(c->ok);
}

TEST(Resolve, TooManyIndicesRejected) {
  auto c = analyze("a = zeros(2, 2); y = a(1, 1, 1);");
  EXPECT_FALSE(c->ok);
}

// -- SSA ------------------------------------------------------------------------

TEST(Ssa, StraightLineVersionsIncrement) {
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string("x = 1; x = 2; y = x;", sm, diags);
  ScopeSsa ssa = build_ssa(f.script);
  // Two defs of x.
  EXPECT_EQ(ssa.version_counts["x"], 2);
  EXPECT_EQ(f.script[0]->targets[0].ssa_version, 0);
  EXPECT_EQ(f.script[1]->targets[0].ssa_version, 1);
  // y = x reads version 1.
  EXPECT_EQ(f.script[2]->expr->ssa_version, 1);
}

TEST(Ssa, IfJoinInsertsPhi) {
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string(
      "c = 1;\nif c\n x = 1;\nelse\n x = 2;\nend\ny = x;", sm, diags);
  ScopeSsa ssa = build_ssa(f.script);
  // Some block holds a phi for x merging two versions.
  const Phi* xphi = nullptr;
  for (const auto& [blk, phis] : ssa.phis) {
    for (const Phi& p : phis) {
      if (p.var == "x") {
        xphi = &p;
        int defined = 0;
        for (int v : p.ins) {
          if (v >= 0) ++defined;
        }
        EXPECT_EQ(defined, 2);
      }
    }
  }
  ASSERT_NE(xphi, nullptr);
  // The use of x reads the phi's output version.
  EXPECT_EQ(f.script[2]->expr->ssa_version, xphi->out);
  // The phi merges the two arm definitions.
  std::vector<int> ins = xphi->ins;
  std::sort(ins.begin(), ins.end());
  EXPECT_EQ(ins[0], f.script[1]->arms[0].body[0]->targets[0].ssa_version);
}

TEST(Ssa, LoopCreatesHeaderPhi) {
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string(
      "s = 0;\nfor i = 1:10\n s = s + 1;\nend\nr = s;", sm, diags);
  ScopeSsa ssa = build_ssa(f.script);
  bool found = false;
  for (const auto& [blk, phis] : ssa.phis) {
    for (const Phi& p : phis) {
      if (p.var == "s") found = true;
    }
  }
  EXPECT_TRUE(found);
  // Inside the loop, `s + 1` must read the phi version, not version 0.
  const Stmt& loop = *f.script[1];
  const Stmt& update = *loop.body[0];
  EXPECT_GT(update.expr->lhs->ssa_version, 0);
}

TEST(Ssa, EveryUseHasDominatingDef) {
  // Property: after renaming, no reachable use carries version -1.
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string(
      "a = 1;\nb = 2;\nfor i = 1:3\n if a > 0\n  b = b + i;\n end\nend\n"
      "c = a + b;",
      sm, diags);
  ScopeSsa ssa = build_ssa(f.script);
  std::function<void(const Expr&)> check = [&](const Expr& e) {
    if (e.kind == ExprKind::Ident && e.callee != CalleeKind::Builtin) {
      EXPECT_GE(e.ssa_version, -1);
    }
    if (e.lhs) check(*e.lhs);
    if (e.rhs) check(*e.rhs);
    if (e.step) check(*e.step);
    for (const ExprPtr& a : e.args) check(*a);
  };
  // 'c = a + b' reads well-defined versions.
  const Stmt& last = *f.script.back();
  EXPECT_GE(last.expr->lhs->ssa_version, 0);
  EXPECT_GE(last.expr->rhs->ssa_version, 0);
}

TEST(Ssa, IndexedWriteRecordsUseVersion) {
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string("a = zeros(2, 2); a(1, 1) = 5;", sm, diags);
  ScopeSsa ssa = build_ssa(f.script);
  const LValue& t = f.script[1]->targets[0];
  EXPECT_EQ(t.ssa_use_version, 0);
  EXPECT_EQ(t.ssa_version, 1);
}

TEST(Ssa, CfgDominatorsOfDiamond) {
  SourceManager sm;
  DiagEngine diags(&sm);
  ParsedFile f = parse_string(
      "c = 1;\nif c\n x = 1;\nelse\n x = 2;\nend\ny = x;", sm, diags);
  Cfg cfg = build_cfg(f.script);
  auto idom = compute_idom(cfg);
  // Entry dominates everything reachable; each reachable block has an idom.
  for (const BasicBlock& b : cfg.blocks) {
    if (b.id == cfg.entry) {
      EXPECT_EQ(idom[b.id], -1);
    }
  }
  auto df = compute_df(cfg, idom);
  EXPECT_EQ(df.size(), cfg.blocks.size());
}

// -- inference ---------------------------------------------------------------------

TEST(Infer, IntegerLiteralIsIntegerScalar) {
  auto c = analyze("x = 3;");
  Ty t = var_class(*c, "x");
  EXPECT_EQ(t.type, BaseType::Integer);
  EXPECT_EQ(t.rank, RankKind::Scalar);
}

TEST(Infer, RealLiteralIsReal) {
  auto c = analyze("x = 3.5;");
  EXPECT_EQ(var_class(*c, "x").type, BaseType::Real);
}

TEST(Infer, ImaginaryLiteralIsComplex) {
  auto c = analyze("x = 2i;");
  EXPECT_EQ(var_class(*c, "x").type, BaseType::Complex);
}

TEST(Infer, IntDivisionPromotesToReal) {
  auto c = analyze("x = 1 / 3;");
  EXPECT_EQ(var_class(*c, "x").type, BaseType::Real);
}

TEST(Infer, ZerosGivesMatrixWithConstShape) {
  auto c = analyze("m = zeros(4, 7);");
  Ty t = var_class(*c, "m");
  EXPECT_EQ(t.rank, RankKind::Matrix);
  EXPECT_EQ(t.rows, 4);
  EXPECT_EQ(t.cols, 7);
}

TEST(Infer, ZerosSquareFromSingleArg) {
  auto c = analyze("m = zeros(5);");
  Ty t = var_class(*c, "m");
  EXPECT_EQ(t.rows, 5);
  EXPECT_EQ(t.cols, 5);
}

TEST(Infer, RuntimeShapeStaysUnknown) {
  auto c = analyze("n = 4; n = n + 1; m = zeros(n, 1);");
  Ty t = var_class(*c, "m");
  EXPECT_EQ(t.rank, RankKind::Matrix);
  EXPECT_EQ(t.cols, 1);  // column count is a literal
}

TEST(Infer, VectorDotProductCollapsesToScalar) {
  // x' * x is 1x1 -> scalar even with unknown n (paper's CG uses this).
  auto c = analyze("n = 4; n = n + 1; x = zeros(n, 1); r = x' * x;");
  Ty t = var_class(*c, "r");
  EXPECT_EQ(t.rank, RankKind::Scalar) << "rows=" << t.rows << " cols=" << t.cols;
}

TEST(Infer, MatVecGivesColumnVector) {
  auto c = analyze("a = zeros(8, 8); x = zeros(8, 1); y = a * x;");
  Ty t = var_class(*c, "y");
  EXPECT_EQ(t.rank, RankKind::Matrix);
  EXPECT_EQ(t.rows, 8);
  EXPECT_EQ(t.cols, 1);
}

TEST(Infer, TransposeSwapsShape) {
  auto c = analyze("a = zeros(3, 5); b = a';");
  Ty t = var_class(*c, "b");
  EXPECT_EQ(t.rows, 5);
  EXPECT_EQ(t.cols, 3);
}

TEST(Infer, RangeShapeFromConstants) {
  auto c = analyze("v = 1:10;");
  Ty t = var_class(*c, "v");
  EXPECT_EQ(t.rank, RankKind::Matrix);
  EXPECT_EQ(t.rows, 1);
  EXPECT_EQ(t.cols, 10);
  EXPECT_EQ(t.type, BaseType::Integer);
}

TEST(Infer, SumOfVectorIsScalar) {
  auto c = analyze("v = 1:10; s = sum(v);");
  EXPECT_EQ(var_class(*c, "s").rank, RankKind::Scalar);
}

TEST(Infer, SumOfMatrixIsRowVector) {
  auto c = analyze("m = zeros(4, 6); s = sum(m);");
  Ty t = var_class(*c, "s");
  EXPECT_EQ(t.rank, RankKind::Matrix);
  EXPECT_EQ(t.rows, 1);
  EXPECT_EQ(t.cols, 6);
}

TEST(Infer, ScalarMatrixJoinIsMatrix) {
  auto c = analyze("c = 1;\nif c\n x = 1;\nelse\n x = zeros(2, 2);\nend\ny = x;");
  EXPECT_EQ(var_class(*c, "x").rank, RankKind::Matrix);
}

TEST(Infer, LoopAccumulatorStaysScalar) {
  auto c = analyze("s = 0;\nfor i = 1:10\n s = s + i;\nend");
  EXPECT_EQ(var_class(*c, "s").rank, RankKind::Scalar);
  EXPECT_EQ(var_class(*c, "i").rank, RankKind::Scalar);
}

TEST(Infer, LoopTypePromotionReachesFixpoint) {
  // s starts integer but accumulates reals inside the loop.
  auto c = analyze("s = 0;\nfor i = 1:10\n s = s + 0.5;\nend");
  EXPECT_EQ(var_class(*c, "s").type, BaseType::Real);
}

TEST(Infer, IndexedWriteForcesMatrixRank) {
  auto c = analyze("x = 0; x(3) = 5;");
  EXPECT_EQ(var_class(*c, "x").rank, RankKind::Matrix);
}

TEST(Infer, ComparisonYieldsInteger) {
  auto c = analyze("v = [1.5, 2.5]; m = v > 2;");
  EXPECT_EQ(var_class(*c, "m").type, BaseType::Integer);
  EXPECT_EQ(var_class(*c, "m").rank, RankKind::Matrix);
}

TEST(Infer, ModAndRemTakeTheShapeOfEitherOperand) {
  auto c = analyze(
      "x = zeros(5, 1); y = zeros(5, 1);\n"
      "a = rem(-2.5, x); b = mod(x, 3); c = mod(x, y); d = rem(2, 3);");
  for (const char* v : {"a", "b", "c"}) {
    Ty t = var_class(*c, v);
    EXPECT_EQ(t.rank, RankKind::Matrix) << v;
    EXPECT_EQ(t.rows, 5) << v;
    EXPECT_EQ(t.cols, 1) << v;
  }
  EXPECT_EQ(var_class(*c, "d").rank, RankKind::Scalar);
  auto bad = analyze("x = zeros(5, 1); y = zeros(1, 5); z = mod(x, y);");
  EXPECT_FALSE(bad->ok);
}

TEST(Infer, ShapeMismatchDiagnosed) {
  auto c = analyze("a = zeros(2, 3); b = zeros(3, 2); c = a + b;");
  EXPECT_FALSE(c->ok);
}

TEST(Infer, InnerDimMismatchDiagnosed) {
  auto c = analyze("a = zeros(2, 3); b = zeros(4, 2); c = a * b;");
  EXPECT_FALSE(c->ok);
}

TEST(Infer, StringVariableIsLiteral) {
  auto c = analyze("s = 'hello';");
  EXPECT_EQ(var_class(*c, "s").type, BaseType::Literal);
}

TEST(Infer, MixingStringAndNumberDiagnosed) {
  auto c = analyze("c = 1;\nif c\n x = 'str';\nelse\n x = 3;\nend\ny = x;");
  EXPECT_FALSE(c->ok);
}

TEST(Infer, FunctionInstanceSpecialisedByArgTypes) {
  auto c = analyze("a = twice(3); b = twice(zeros(2, 2));",
                   {{"twice", "function y = twice(x)\ny = x * 2;\n"}});
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  // Two instances: scalar-int arg and matrix-real arg.
  EXPECT_EQ(c->inf.instances.size(), 2u);
  EXPECT_EQ(var_class(*c, "a").rank, RankKind::Scalar);
  EXPECT_EQ(var_class(*c, "b").rank, RankKind::Matrix);
}

TEST(Infer, FunctionOutputTypesPropagate) {
  auto c = analyze("m = mk(4);",
                   {{"mk", "function m = mk(n)\nm = zeros(n, n);\n"}});
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  EXPECT_EQ(var_class(*c, "m").rank, RankKind::Matrix);
}

TEST(Infer, MultiOutputFunction) {
  auto c = analyze("[a, b] = mm(3);",
                   {{"mm", "function [p, q] = mm(x)\np = x + 1;\nq = zeros(x, x);\n"}});
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  EXPECT_EQ(var_class(*c, "a").rank, RankKind::Scalar);
  EXPECT_EQ(var_class(*c, "b").rank, RankKind::Matrix);
}

TEST(Infer, SizeWithTwoOutputs) {
  auto c = analyze("m = zeros(3, 4); [r, c] = size(m);");
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  EXPECT_EQ(var_class(*c, "r").rank, RankKind::Scalar);
  EXPECT_EQ(var_class(*c, "c").rank, RankKind::Scalar);
}

TEST(Infer, RecursionDiagnosed) {
  auto c = analyze("y = f(3);",
                   {{"f", "function y = f(x)\nif x > 0\n y = f(x - 1);\nelse\n y = 0;\nend\n"}});
  EXPECT_FALSE(c->ok);
}

TEST(Infer, SliceShapes) {
  auto c = analyze("m = zeros(4, 6); r = m(2, :); c = m(:, 3);");
  EXPECT_EQ(var_class(*c, "r").rows, 1);
  EXPECT_EQ(var_class(*c, "r").cols, 6);
  EXPECT_EQ(var_class(*c, "c").rows, 4);
  EXPECT_EQ(var_class(*c, "c").cols, 1);
}

TEST(Infer, ElementReadIsScalar) {
  auto c = analyze("m = zeros(4, 6); x = m(2, 3);");
  EXPECT_EQ(var_class(*c, "x").rank, RankKind::Scalar);
  EXPECT_EQ(var_class(*c, "x").type, BaseType::Real);
}

TEST(Infer, UseBeforeDefDiagnosed) {
  auto c = analyze("c = 1;\nif c\n x = 1;\nend\ny = x + q;");
  EXPECT_FALSE(c->ok);
}

}  // namespace
}  // namespace otter::sema
