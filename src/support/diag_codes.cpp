#include "support/diag_codes.hpp"

#include <algorithm>

namespace otter {

namespace {

constexpr const char* kBudget = "resource budget";
constexpr const char* kService = "compile service (otterd)";
constexpr const char* kLexer = "lexer";
constexpr const char* kParser = "parser";
constexpr const char* kResolve = "identifier resolution";
constexpr const char* kInfer = "type/shape inference";
constexpr const char* kLint = "static analysis (otterlint)";
constexpr const char* kLower = "lowering";
constexpr const char* kRuntime = "run time";
constexpr const char* kVerify = "LIR verifier";

// clang-format off
const std::vector<DiagCodeInfo> kRegistry = {
  {"E0001", "E00", kBudget,  "error limit reached; further diagnostics suppressed"},
  {"E0002", "E00", kBudget,  "expression/statement nesting exceeds the compile budget"},
  {"E0003", "E00", kBudget,  "AST node budget exceeded"},
  {"E0004", "E00", kBudget,  "compilation wall-clock budget exceeded"},
  {"E0005", "E00", kBudget,  "SSA version budget exceeded"},
  {"E0006", "E00", kBudget,  "function instantiation budget exceeded"},
  {"E0007", "E00", kBudget,  "LIR instruction budget exceeded"},
  {"E0008", "E00", kService, "server overloaded: admission queue full, request shed"},
  {"E0009", "E00", kService, "request wall-clock deadline exceeded"},
  {"E0010", "E00", kService, "script quarantined after repeated crashes (circuit breaker open)"},
  {"E0011", "E00", kService, "malformed service request"},
  {"E0012", "E00", kService, "request exceeds the service admission limits"},
  {"E0013", "E00", kService, "malformed fault-injection plan"},
  {"E0014", "E00", kService, "worker process died (crashed, killed, or exited before replying)"},

  {"E1101", "E11", kLexer,   "unexpected character"},
  {"E1102", "E11", kLexer,   "unterminated string literal"},
  {"E1103", "E11", kLexer,   "unterminated block comment"},

  {"E2001", "E20", kParser,  "expected a specific token"},
  {"E2002", "E20", kParser,  "expected output parameter name"},
  {"E2003", "E20", kParser,  "expected function name"},
  {"E2004", "E20", kParser,  "expected parameter name"},
  {"E2005", "E20", kParser,  "statement after a function definition"},
  {"E2006", "E20", kParser,  "expected end of statement after 'break'/'continue'"},
  {"E2007", "E20", kParser,  "expected loop variable after 'for'"},
  {"E2008", "E20", kParser,  "expected variable names after 'global'"},
  {"E2009", "E20", kParser,  "invalid assignment target"},
  {"E2010", "E20", kParser,  "chained indexing f(x)(y) unsupported"},
  {"E2011", "E20", kParser,  "'end' outside an index expression"},
  {"E2012", "E20", kParser,  "expected an expression"},
  {"E2013", "E20", kParser,  "matrix elements must be comma-separated"},

  {"E3001", "E30", kResolve, "undefined variable or function"},
  {"E3002", "E30", kResolve, "more than 2-dimensional indexing"},
  {"E3003", "E30", kResolve, "too many arguments to a builtin"},
  {"E3004", "E30", kResolve, "wrong number of arguments to a builtin"},
  {"E3005", "E30", kResolve, "':'/'end' outside variable indexing"},
  {"E3006", "E30", kResolve, "errors while parsing a user M-file"},
  {"E3007", "E30", kResolve, "M-file does not define a function"},

  {"E3101", "E31", kInfer,   "recursive function unsupported"},
  {"E3102", "E31", kInfer,   "function output may be undefined on some path (warning)"},
  {"E3103", "E31", kInfer,   "variable mixes literal and numeric values"},
  {"E3104", "E31", kInfer,   "variable may be used before it is defined"},
  {"E3105", "E31", kInfer,   "range endpoints must be real"},
  {"E3106", "E31", kInfer,   "arithmetic on string values"},
  {"E3107", "E31", kInfer,   "operand shapes disagree"},
  {"E3108", "E31", kInfer,   "inner matrix dimensions disagree for '*'"},
  {"E3109", "E31", kInfer,   "matrix '/' requires a scalar divisor"},
  {"E3110", "E31", kInfer,   "matrix '\\' requires a scalar divisor"},
  {"E3111", "E31", kInfer,   "matrix '^' unsupported"},
  {"E3112", "E31", kInfer,   "shape of a reduction argument assumed (warning)"},
  {"E3113", "E31", kInfer,   "inconsistent matrix literal shape"},
  {"E3114", "E31", kInfer,   "strings inside matrix literals"},
  {"E3115", "E31", kInfer,   "function returns fewer values than requested"},
  {"E3116", "E31", kInfer,   "load requires a literal file name"},
  {"E3117", "E31", kInfer,   "load sample data file unavailable at compile time"},

  {"E4001", "E40", kLower,   "complex values unsupported by the parallel run time"},
  {"E4002", "E40", kLower,   "string value in a numeric context"},
  {"E4003", "E40", kLower,   "matrix literal in scalar context"},
  {"E4004", "E40", kLower,   "':'/'end' outside an index"},
  {"E4005", "E40", kLower,   "unsupported scalar expression over matrix operands"},
  {"E4006", "E40", kLower,   "size(m, d) requires a constant dimension"},
  {"E4007", "E40", kLower,   "builtin unsupported in this context"},
  {"E4008", "E40", kLower,   "unsupported arithmetic around 'end'"},
  {"E4009", "E40", kLower,   "unsupported matrix-valued name"},
  {"E4010", "E40", kLower,   "matrix blocks inside literals unsupported"},
  {"E4011", "E40", kLower,   "expression unsupported in matrix context"},
  {"E4012", "E40", kLower,   "builtin inside an element-wise expression unsupported"},
  {"E4013", "E40", kLower,   "operator on matrices unsupported"},
  {"E4014", "E40", kLower,   "matrix-producing builtin unsupported"},
  {"E4015", "E40", kLower,   "a(:) reshape unsupported"},
  {"E4016", "E40", kLower,   "general vector-subscript indexing unsupported"},
  {"E4017", "E40", kLower,   "submatrix indexing unsupported"},
  {"E4018", "E40", kLower,   "internal: no inferred instance for a call"},
  {"E4019", "E40", kLower,   "for loops only over ranges"},
  {"E4020", "E40", kLower,   "'global' unsupported"},
  {"E4021", "E40", kLower,   "fprintf requires a literal format string"},
  {"E4022", "E40", kLower,   "builtin unsupported as a statement"},
  {"E4023", "E40", kLower,   "multiple assignment requires a function call"},
  {"E4024", "E40", kLower,   "multi-output builtins other than size unsupported"},
  {"E4025", "E40", kLower,   "indexed targets in multi-assignment unsupported"},
  {"E4026", "E40", kLower,   "internal: indexed write into scalar storage"},
  {"E4027", "E40", kLower,   "a(:,:) assignment unsupported"},
  {"E4028", "E40", kLower,   "a(:) assignment unsupported"},
  {"E4029", "E40", kLower,   "vector-subscript assignment unsupported"},
  {"E4030", "E40", kLower,   "'break'/'continue' outside of a loop"},

  {"E5001", "E50", kRuntime, "parallel run-time error"},
  {"E5002", "E50", kRuntime, "interpreter run-time error"},
  {"E5003", "E50", kRuntime, "shape guard failed (degraded inference assumption wrong)"},
  {"E5004", "E50", kRuntime, "execution cancelled or request deadline exceeded"},
  {"E5005", "E50", kRuntime, "torn or corrupt checkpoint detected (recovered from an older generation when possible)"},
  {"E5006", "E50", kRuntime, "memory budget exceeded"},
  {"E5007", "E50", kRuntime, "invalid matrix dimensions (negative, non-finite, or overflow-prone)"},

  {"E6001", "E60", kVerify,  "reference to an undeclared variable"},
  {"E6002", "E60", kVerify,  "compiler temporary used before definition"},
  {"E6003", "E60", kVerify,  "operand arity wrong for the opcode"},
  {"E6004", "E60", kVerify,  "operand or destination kind mismatch"},
  {"E6005", "E60", kVerify,  "malformed control flow"},
  {"E6006", "E60", kVerify,  "malformed user-function call"},
  {"E6007", "E60", kVerify,  "malformed owner-guarded element write"},
  {"E6008", "E60", kVerify,  "missing or malformed expression tree"},
  {"E6009", "E60", kVerify,  "shape guard deleted without an abstract-interpretation proof"},
  {"E6010", "E60", kVerify,  "malformed reduction group"},

  {"W3201", "W32", kLint,    "use before definition on some path"},
  {"W3202", "W32", kLint,    "dead store (value overwritten before being read)"},
  {"W3203", "W32", kLint,    "unused variable"},
  {"W3204", "W32", kLint,    "unreachable code"},
  {"W3205", "W32", kLint,    "constant branch condition"},
  {"W3206", "W32", kLint,    "variable shadows a builtin function"},
  {"W3207", "W32", kLint,    "loop-invariant communication (hoistable run-time call)"},
  {"W3208", "W32", kLint,    "provably out-of-bounds index or invalid extent"},
  {"W3209", "W32", kLint,    "provably zero-trip loop"},
  {"W3210", "W32", kLint,    "collective communication under a rank-divergent condition"},
};
// clang-format on

}  // namespace

const std::vector<DiagCodeInfo>& diag_code_registry() { return kRegistry; }

const DiagCodeInfo* find_diag_code(std::string_view code) {
  auto it = std::lower_bound(
      kRegistry.begin(), kRegistry.end(), code,
      [](const DiagCodeInfo& a, std::string_view c) { return a.code < c; });
  if (it == kRegistry.end() || it->code != code) return nullptr;
  return &*it;
}

}  // namespace otter
