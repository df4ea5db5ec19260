// Crash-safety features from ISSUE 3: structured diagnostics (codes + JSON),
// the --max-errors cap, compile-time resource budgets, graceful inference
// degradation with runtime shape guards, and strict-inference mode.
#include <gtest/gtest.h>

#include "driver/pipeline.hpp"

namespace otter {
namespace {

using driver::CompileOptions;
using driver::compile_script;

bool has_code(const DiagEngine& diags, const std::string& code) {
  for (const Diagnostic& d : diags.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

// -- structured diagnostics ---------------------------------------------------

TEST(Diagnostics, TextRenderingIncludesCode) {
  auto c =
      compile_script("x = undefined_thing + 1;", {}, {.opt = {.level = 0}});
  ASSERT_FALSE(c->ok);
  EXPECT_NE(c->diags.to_string().find("error[E3001]"), std::string::npos);
}

TEST(Diagnostics, JsonRenderingIsStructured) {
  auto c =
      compile_script("x = undefined_thing + 1;", {}, {.opt = {.level = 0}});
  ASSERT_FALSE(c->ok);
  std::string json = c->diags.to_json();
  EXPECT_NE(json.find("\"code\": \"E3001\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), '\n');
}

TEST(Diagnostics, JsonEscapesSpecialCharacters) {
  SourceManager sm;
  DiagEngine diags(&sm);
  diags.error("E9999", {}, "quote \" backslash \\ newline \n tab \t");
  std::string json = diags.to_json();
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n tab \\t"),
            std::string::npos);
}

TEST(Diagnostics, JsonEscapesControlCharsAndInvalidUtf8) {
  // Regression: messages carrying raw control characters or non-UTF-8
  // bytes (fuzz corpus scripts routinely quote such source text back)
  // must still render as valid JSON — \u00XX escapes for control bytes,
  // U+FFFD for malformed sequences, never the raw byte.
  SourceManager sm;
  DiagEngine diags(&sm);
  diags.error("E9999", {}, std::string("ctrl \x01\x02 del \x7f"));
  diags.error("E9999", {}, std::string("bad utf8 \xff\xfe tail \xc3"));
  std::string json = diags.to_json();
  for (char c : json) {
    unsigned char u = static_cast<unsigned char>(c);
    EXPECT_TRUE(u == '\n' || u >= 0x20) << "raw control byte in JSON output";
  }
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u0002"), std::string::npos);
  EXPECT_NE(json.find("\\ufffd"), std::string::npos);  // U+FFFD, escaped
  EXPECT_EQ(json.find('\xff'), std::string::npos);
}

TEST(Diagnostics, EveryCompileErrorCarriesACode) {
  // One representative bad input per pipeline phase.
  const char* inputs[] = {
      "s = 'never closed",                  // lexer
      "x = = 1;",                           // parser
      "y = no_such_name;",                  // resolve
      "a = zeros(2, 2) + zeros(3, 3);",     // infer
      "m = [1, 2; 3, 4]; b = m(1:2, 1);",   // lower
  };
  for (const char* src : inputs) {
    auto c = compile_script(src, {}, {.opt = {.level = 0}});
    ASSERT_FALSE(c->ok) << src;
    for (const Diagnostic& d : c->diags.diagnostics()) {
      if (d.severity == DiagSeverity::Error) {
        EXPECT_FALSE(d.code.empty()) << src << ": " << d.message;
      }
    }
  }
}

TEST(Diagnostics, MaxErrorsCapsStoredDiagnostics) {
  // Ten statements each with an undefined name; cap at 3.
  std::string src;
  for (int i = 0; i < 10; ++i) {
    // Appended piece by piece: GCC 12 at -O3 flags "x" + std::to_string(i)
    // with a false -Wrestrict.
    src.append("x").append(std::to_string(i)).append(" = missing");
    src.append(std::to_string(i)).append(";\n");
  }
  CompileOptions opts;
  opts.max_errors = 3;
  auto c = compile_script(src, {}, opts);
  ASSERT_FALSE(c->ok);
  size_t stored_errors = 0;
  for (const Diagnostic& d : c->diags.diagnostics()) {
    if (d.severity == DiagSeverity::Error) ++stored_errors;
  }
  EXPECT_EQ(stored_errors, 3u);
  EXPECT_TRUE(has_code(c->diags, "E0001"));  // the cutoff note
  EXPECT_GT(c->diags.suppressed_count(), 0u);
  // The total error count still reflects every error for has_errors().
  EXPECT_GE(c->diags.error_count(), 4u);
}

// -- resource budgets ---------------------------------------------------------

TEST(Budgets, NestingDepthDegradesToDiagnostic) {
  std::string src = "x = " + std::string(400, '(') + "1" +
                    std::string(400, ')') + ";";
  auto c = compile_script(src, {}, CompileOptions{});
  ASSERT_FALSE(c->ok);
  EXPECT_TRUE(has_code(c->diags, "E0002"));
}

TEST(Budgets, AstNodeBudgetDegradesToDiagnostic) {
  CompileOptions opts;
  opts.budget.max_ast_nodes = 20;
  std::string src;
  for (int i = 0; i < 50; ++i) src += "x = 1 + 2 + 3;\n";
  auto c = compile_script(src, {}, opts);
  ASSERT_FALSE(c->ok);
  EXPECT_TRUE(has_code(c->diags, "E0003"));
}

TEST(Budgets, InstantiationBudgetDegradesToDiagnostic) {
  CompileOptions opts;
  opts.budget.max_instances = 1;
  // Two call shapes => two instances of f, over the budget of one.
  auto c = compile_script(
      "a = f(zeros(2, 2));\n"
      "b = f(3);\n",
      [](const std::string& name) -> std::optional<std::string> {
        if (name == "f") return "function y = f(x)\ny = x;\n";
        return std::nullopt;
      },
      opts);
  ASSERT_FALSE(c->ok);
  EXPECT_TRUE(has_code(c->diags, "E0006"));
}

TEST(Budgets, LirInstructionBudgetDegradesToDiagnostic) {
  CompileOptions opts;
  opts.budget.max_lir_instrs = 4;
  std::string src;
  for (int i = 0; i < 20; ++i) {
    src.append("m").append(std::to_string(i)).append(" = zeros(2, 2);\n");
  }
  auto c = compile_script(src, {}, opts);
  ASSERT_FALSE(c->ok);
  EXPECT_TRUE(has_code(c->diags, "E0007"));
}

TEST(Budgets, DefaultLimitsLeaveRealScriptsAlone) {
  auto c = compile_script(
      "n = 16;\n"
      "a = rand(n, n);\n"
      "b = a * a';\n"
      "s = sum(sum(b));\n"
      "disp(s);\n", {}, {.opt = {.level = 0}});
  EXPECT_TRUE(c->ok) << c->diags.to_string();
}

// -- graceful inference degradation ------------------------------------------

/// A script whose reduction operand has statically unknown shape: k comes
/// from rand, so zeros(k, k) is matrix-of-unknown-dims at compile time.
const char* kDegradedScript =
    "k = floor(rand * 3) + 2;\n"
    "a = zeros(k, k) + 1;\n"
    "s = sum(a);\n"
    "disp(sum(s));\n";

TEST(Degradation, UnknownShapeReductionCompilesWithWarningAndGuard) {
  auto c = compile_script(kDegradedScript, {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  bool warned = false;
  for (const Diagnostic& d : c->diags.diagnostics()) {
    if (d.severity == DiagSeverity::Warning && d.code == "E3112") {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
  EXPECT_EQ(c->inf.guards.size(), 1u);
  // The guard made it into the LIR.
  EXPECT_NE(lower::dump_lir(c->lir).find("ML_shape_check"),
            std::string::npos);
}

TEST(Degradation, StrictInferRestoresHardError) {
  CompileOptions opts;
  opts.strict_infer = true;
  auto c = compile_script(kDegradedScript, {}, opts);
  ASSERT_FALSE(c->ok);
  EXPECT_TRUE(has_code(c->diags, "E3112"));
}

TEST(Degradation, GuardPassesWhenAssumptionHolds) {
  // k >= 2 for every rand draw, so the operand really is a matrix and the
  // degraded compile must run to completion with interpreter-equal output.
  auto c = compile_script(kDegradedScript, {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok);
  auto run = driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), 2, {});
  auto interp = driver::run_interpreter(kDegradedScript, {}, 1);
  EXPECT_EQ(run.output, interp.output);
}

TEST(Degradation, GuardAbortsWhenAssumptionFails) {
  // floor(rand*0) collapses k to 1 at run time: zeros(1, 4) is a true
  // vector, so the compile-time "matrix" assumption is wrong and the guard
  // must abort the execution with the coded shape-guard error.
  const char* src =
      "k = floor(rand * 0) + 1;\n"
      "a = zeros(k, 4) + 1;\n"
      "s = sum(a);\n"
      "disp(sum(s));\n";
  auto c = compile_script(src, {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  try {
    driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), 1, {});
    FAIL() << "expected the shape guard to abort the run";
  } catch (const mpi::SpmdFailure& e) {
    EXPECT_NE(std::string(e.what()).find("shape guard"), std::string::npos)
        << e.what();
  }
}

// -- runtime error metadata ---------------------------------------------------

TEST(RuntimeErrors, ExecutorFailuresCarryStatementContext) {
  // Out-of-range element read fails at run time; the rethrown error must
  // name the statement ("line N") so users can find the failing site.
  const char* src =
      "v = zeros(4, 1);\n"
      "i = 9;\n"
      "x = v(i);\n"
      "disp(x);\n";
  auto c = compile_script(src, {}, {.opt = {.level = 0}});
  ASSERT_TRUE(c->ok) << c->diags.to_string();
  try {
    driver::run_parallel(c->lir, mpi::profile_by_name("ideal"), 1, {});
    FAIL() << "expected an out-of-range failure";
  } catch (const mpi::SpmdFailure& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace otter