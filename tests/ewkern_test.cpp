// Blocked element-wise evaluator tests (driver/kernel.hpp, run by the VM's
// EwKern superinstruction): every operator in every operand position on
// IEEE special values, local lengths around the 256-element block, an
// in-place update, trees far larger than one block's worth of ops, rand
// draws across hoisted operands, and coded failures for unaligned
// operands. The interpreter is the oracle, and values print through
// fprintf('%.17g'), so any bit that differs shows.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "driver/pipeline.hpp"
#include "vm/bcgen.hpp"

namespace otter {
namespace {

/// Special values in every position, spread unevenly over the ranks.
const char* kSpecials =
    "x = [-0, 1/0, -1/0, 0/0, 1.5, -2.25, 3, 0, -1, 2];\n"
    "y = [1/0, -0, 0/0, 2, -0, 0.5, -1/0, 3, 0, -1.5];\n"
    "s = -0;\nt = 0/0;\nu = -2.5;\n";

/// Scalar operands: replicated variables (-0, NaN, a negative) and an
/// immediate.
const std::vector<std::string> kScalars = {"s", "t", "u", "2"};

/// "(l0 + l1) + (l2 + l3)" and so on: a tree with thousands of leaves
/// stays a dozen parentheses deep.
std::string balanced_sum(const std::vector<std::string>& leaves, size_t lo,
                         size_t hi) {
  if (hi - lo == 1) return leaves[lo];
  size_t mid = (lo + hi) / 2;
  std::string sum = "(";
  sum += balanced_sum(leaves, lo, mid);
  sum += " + ";
  sum += balanced_sum(leaves, mid, hi);
  sum += ")";
  return sum;
}

std::string balanced_sum(const std::vector<std::string>& leaves) {
  return balanced_sum(leaves, 0, leaves.size());
}

size_t count_of(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

std::unique_ptr<driver::CompileResult> compile(const std::string& src,
                                               int level) {
  driver::CompileOptions copts;
  copts.opt.level = level;
  auto c = driver::compile_script(src, {}, copts);
  EXPECT_TRUE(c->ok) << c->diags.to_string();
  return c;
}

/// Parameterised on (rank count, optimization level).
class EwKern : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int np() const { return std::get<0>(GetParam()); }
  int level() const { return std::get<1>(GetParam()); }

  std::string run_vm(const std::string& src) const {
    auto c = compile(src, level());
    return driver::run_parallel(c->lir, mpi::ideal(np()), np()).output;
  }

  void expect_matches_interpreter(const std::string& src) const {
    EXPECT_EQ(run_vm(src), driver::run_interpreter(src).output) << src;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Ranks, EwKern,
    ::testing::Combine(::testing::Values(1, 3), ::testing::Values(0, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      std::string name = "P";
      name += std::to_string(std::get<0>(info.param));
      name += "_O";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// Every binary operator as mat-mat, mat-scalar and scalar-mat, and every
// unary operator, on -0, +-Inf and NaN.
TEST_P(EwKern, EveryOperatorMatchesInterpreterOnSpecialValues) {
  std::string src = kSpecials;
  int k = 0;
  auto print = [&](const std::string& expr) {
    std::string r = "r";
    r += std::to_string(++k);
    src += r + " = " + expr + ";\nfprintf('%.17g\\n', " + r + ");\n";
  };
  for (const char* op : {"+", "-", ".*", "./", ".^", "<", "<=", ">", ">=",
                         "==", "~=", "&", "|"}) {
    print(std::string("x ") + op + " y");
    for (const std::string& sc : kScalars) {
      print("x " + std::string(op) + " " + sc);
      print(sc + " " + op + " x");
    }
  }
  for (const char* fn : {"min", "max"}) {
    print(std::string(fn) + "(x, y)");
    for (const std::string& sc : kScalars) {
      print(std::string(fn) + "(x, " + sc + ")");
      print(std::string(fn) + "(" + sc + ", x)");
    }
  }
  for (const char* un : {"-", "~", "abs", "sqrt", "exp", "log", "sin", "cos",
                         "tan", "floor", "ceil", "round", "sign"}) {
    for (const char* v : {"x", "y"}) {
      bool prefix = std::string(un) == "-" || std::string(un) == "~";
      print(prefix ? std::string(un) + v : std::string(un) + "(" + v + ")");
    }
  }
  expect_matches_interpreter(src);
}

// The interpreter's mod and rem take scalars only, so the kernel's
// mat-mat and mat-scalar forms are checked against its element loop.
TEST_P(EwKern, ModAndRemMatchTheInterpretersScalarLoop) {
  std::string kernels = kSpecials;
  std::string loops = kSpecials;
  for (const char* fn : {"mod", "rem"}) {
    for (const std::string& rhs : {std::string("y"), std::string("s"),
                                   std::string("t"), std::string("u"),
                                   std::string("2")}) {
      std::string f = fn;
      kernels += "r = " + f + "(x, " + rhs + ");\nfprintf('%.17g\\n', r);\n";
      std::string elem = rhs == "y" ? "y(i)" : rhs;
      loops += "for i = 1:10\n  fprintf('%.17g\\n', " + f + "(x(i), " +
               elem + "));\nend\n";
    }
  }
  EXPECT_EQ(run_vm(kernels), driver::run_interpreter(loops).output);
}

// Local lengths on each rank straddle the block size: empty, one element,
// one short of a block, exactly one, one past, and two blocks plus one.
TEST_P(EwKern, LocalLengthsAroundTheBlockMatchInterpreter) {
  for (int local : {0, 1, 255, 256, 257, 513}) {
    SCOPED_TRACE("local length " + std::to_string(local));
    expect_matches_interpreter(
        "n = " + std::to_string(local * np()) + ";\n" +
        "a = rand(n, 1);\nb = rand(n, 1) - 0.5;\ns = 0.25;\n"
        "c = (a + b) .* (a - s) ./ (b .* b + 1) - sqrt(abs(b)) * s;\n"
        "d = s - c .* a;\n"
        "fprintf('%.17g\\n', c);\nfprintf('%.17g\\n', d);\n");
  }
}

// The destination is also an operand: each block must be read in full
// before it is overwritten.
TEST_P(EwKern, InPlaceUpdateInALoopMatchesInterpreter) {
  expect_matches_interpreter(
      "a = rand(600, 1) * 0.5;\n"
      "for k = 1:4\n  a = a .* a + a;\nend\n"
      "fprintf('%.17g\\n', a);\n");
}

// Trees past every former kernel limit — 256 distinct matrices, 4096
// postfix ops, 256 scalar leaves — still compile to one kernel.
TEST_P(EwKern, OversizedTreesCompileToOneKernel) {
  std::vector<std::string> scripts;
  {
    std::string src;
    std::vector<std::string> leaves;
    for (int i = 1; i <= 260; ++i) {
      leaves.push_back("m");
      leaves.back() += std::to_string(i);
      src += leaves.back() + " = rand(5, 1);\n";
    }
    scripts.push_back(src + "r = " + balanced_sum(leaves) + ";\n");
  }
  scripts.push_back("a = rand(5, 1);\nr = " +
                    balanced_sum(std::vector<std::string>(2100, "a")) +
                    ";\n");
  {
    std::vector<std::string> leaves = {"a"};
    for (int i = 0; i < 260; ++i) leaves.push_back(i % 2 == 0 ? "s" : "t");
    scripts.push_back("a = rand(5, 1);\ns = rand;\nt = -0.5;\nr = " +
                      balanced_sum(leaves) + ";\n");
  }
  for (std::string& src : scripts) {
    src += "fprintf('%.17g\\n', r);\n";
    std::string dump = vm::dump_bytecode(
        vm::compile_bytecode(compile(src, level())->lir));
    EXPECT_EQ(count_of(dump, "ewkern"), 1u) << dump;
    expect_matches_interpreter(src);
  }
}

// Lowering builds both operands of a binary node in source order, so
// rand draws (hoisted out of element-wise trees) keep the interpreter's
// sequence.
TEST_P(EwKern, RandDrawsFollowSourceOrder) {
  for (const char* src : {
           "a = rand(3, 1) .* 2 - rand(3, 1);\nfprintf('%.17g\\n', a);\n",
           "a = rand(3, 1) + rand;\nfprintf('%.17g\\n', a);\n",
           "a = rand + rand(3, 1);\nfprintf('%.17g\\n', a);\n",
           "a = ones(3, 1) + rand * rand(3, 1);\nfprintf('%.17g\\n', a);\n",
           "s = sum(rand(3, 1)) - 2 * sum(rand(3, 1));\n"
           "fprintf('%.17g\\n', s);\n",
           "s = max(rand(3, 1)) - min(rand(4, 1));\nfprintf('%.17g\\n', s);\n",
           "m = max(rand(3, 1), rand(3, 1) .* 2);\nfprintf('%.17g\\n', m);\n",
       }) {
    expect_matches_interpreter(src);
  }
}

// Operands whose shapes differ at run time (inference cannot see them)
// fail with the run-time library's alignment error on every rank count,
// as the interpreter fails with its own.
TEST(EwKernAlignment, UnalignedOperandsFailCoded) {
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"3, 1", "5, 1"}, {"2, 3", "3, 2"}, {"1, 1", "3, 1"},
      {"5, 1", "3, 1"}, {"3, 1", "1, 1"}};
  auto unseen = [](const std::string& dims) {
    // "3, 1" -> "3 + floor(rand * 0.5), 1 + floor(rand * 0.5)"
    std::string out;
    size_t comma = dims.find(',');
    out += dims.substr(0, comma) + " + floor(rand * 0.5),";
    out += dims.substr(comma + 1) + " + floor(rand * 0.5)";
    return out;
  };
  for (const auto& [da, db] : shapes) {
    const std::string src = "a = ones(" + unseen(da) + ");\nb = ones(" +
                            unseen(db) + ");\nc = a + b;\ndisp(c(1))\n";
    for (int level : {0, 2}) {
      auto c = compile(src, level);
      for (int np : {1, 2}) {
        SCOPED_TRACE(src + " -O" + std::to_string(level) + " np " +
                     std::to_string(np));
        try {
          driver::run_parallel(c->lir, mpi::ideal(np), np);
          FAIL() << "unaligned operands did not fail";
        } catch (const mpi::SpmdFailure& e) {
          EXPECT_EQ(e.first().code, "E5001");
          EXPECT_NE(e.first().what.find(
                        "element-wise op on unaligned operands"),
                    std::string::npos)
              << e.first().what;
        }
      }
    }
  }
}

// LIR that skipped the verifier can still carry a rand leaf in an
// element-wise tree; bytecode generation turns it into a runtime trap
// rather than drawing once per block.
TEST(EwKernRand, UnverifiedRandLeafTraps) {
  driver::CompileOptions copts;
  copts.verify_lir = false;
  auto c = driver::compile_script("a = ones(4, 1);\nb = a + 1;\ndisp(b)\n",
                                  {}, copts);
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  lower::LInstr* ew = nullptr;
  for (lower::LInstrPtr& in : c->lir.script) {
    if (in->op == lower::LOp::Elemwise) ew = in.get();
  }
  ASSERT_NE(ew, nullptr) << lower::dump_lir(c->lir);
  auto draw = std::make_unique<lower::LExpr>();
  draw->kind = lower::LExpr::Kind::RandScalar;
  ew->tree = lower::lbin(rt::EwBin::Add, lower::lmvar("a"), std::move(draw));
  try {
    driver::run_parallel(c->lir, mpi::ideal(1), 1);
    FAIL() << "rand leaf in an element-wise tree did not trap";
  } catch (const mpi::SpmdFailure& e) {
    EXPECT_NE(e.first().what.find("element-wise loop draws rand"),
              std::string::npos)
        << e.first().what;
  }
}

}  // namespace
}  // namespace otter
