// otterlint — standalone static analyzer for Otter MATLAB scripts.
//
// Compiles the script through the full pipeline (the lint checks need the
// CFG/SSA from inference and the lowered LIR for the communication
// analysis), runs every W3xxx check plus the abstract-interpretation
// findings (W3208-W3210), and prints the findings to stdout in text, JSON,
// or SARIF 2.1.0 (for editor and CI ingestion).
//
// Usage:
//   otterlint SCRIPT.m [--format=text|json|sarif] [--Werror]
//
// Exit codes:
//   0  clean (no findings)
//   1  findings reported (65 instead under --Werror)
//   64 usage error
//   65 the script does not compile (diagnostics printed)
//   66 the input file could not be opened
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "analysis/absint.hpp"
#include "analysis/lint.hpp"
#include "driver/pipeline.hpp"
#include "support/json.hpp"

namespace {

constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 64;
constexpr int kExitCompile = 65;
constexpr int kExitNoInput = 66;

struct Options {
  std::string script_path;
  std::string format = "text";
  bool werror = false;
};

int usage() {
  std::cerr << "usage: otterlint SCRIPT.m [--format=text|json|sarif]"
               " [--Werror]\n";
  return kExitUsage;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* prefix) -> std::optional<std::string> {
      size_t n = std::strlen(prefix);
      if (a.rfind(prefix, 0) == 0) return a.substr(n);
      return std::nullopt;
    };
    if (auto v = value("--format=")) o.format = *v;
    else if (auto v = value("--diag-format=")) o.format = *v;  // legacy alias
    else if (a == "--Werror") o.werror = true;
    else if (!a.empty() && a[0] == '-') return false;
    else if (o.script_path.empty()) o.script_path = a;
    else return false;
  }
  if (o.format != "text" && o.format != "json" && o.format != "sarif") {
    return false;
  }
  return !o.script_path.empty();
}

std::string dirname_of(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

/// SARIF 2.1.0 rendering: one run, one result per diagnostic, rules listed
/// from the codes that actually fired (registry descriptions live in the
/// compiler; the ruleId is what CI dashboards key on).
std::string to_sarif(const otter::DiagEngine& diags, const std::string& uri) {
  namespace json = otter::json;
  json::JArray results;
  json::JArray rules;
  std::vector<std::string> rule_ids;
  for (const otter::Diagnostic& d : diags.diagnostics()) {
    const char* level = d.severity == otter::DiagSeverity::Error ? "error"
                        : d.severity == otter::DiagSeverity::Warning
                            ? "warning"
                            : "note";
    json::JValue region{json::JObject{}};
    region.set("startLine", static_cast<double>(d.loc.line));
    region.set("startColumn", static_cast<double>(d.loc.col));
    json::JValue artifact{json::JObject{}};
    artifact.set("uri", uri);
    json::JValue phys{json::JObject{}};
    phys.set("artifactLocation", artifact);
    phys.set("region", region);
    json::JValue loc{json::JObject{}};
    loc.set("physicalLocation", phys);
    json::JValue msg{json::JObject{}};
    msg.set("text", d.message);
    json::JValue res{json::JObject{}};
    res.set("ruleId", d.code);
    res.set("level", level);
    res.set("message", msg);
    res.set("locations", json::JValue(json::JArray{loc}));
    results.push_back(res);
    if (std::find(rule_ids.begin(), rule_ids.end(), d.code) ==
        rule_ids.end()) {
      rule_ids.push_back(d.code);
      json::JValue rule{json::JObject{}};
      rule.set("id", d.code);
      rules.push_back(rule);
    }
  }
  json::JValue drv{json::JObject{}};
  drv.set("name", "otterlint");
  drv.set("rules", json::JValue(std::move(rules)));
  json::JValue tool{json::JObject{}};
  tool.set("driver", drv);
  json::JValue run{json::JObject{}};
  run.set("tool", tool);
  run.set("results", json::JValue(std::move(results)));
  json::JValue root{json::JObject{}};
  root.set("$schema",
           "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
           "Schemata/sarif-schema-2.1.0.json");
  root.set("version", "2.1.0");
  root.set("runs", json::JValue(json::JArray{run}));
  return root.dump();
}

void print_diags(const otter::DiagEngine& diags, const Options& opt) {
  if (opt.format == "json") {
    diags.print_json(std::cout);
  } else if (opt.format == "sarif") {
    std::cout << to_sarif(diags, opt.script_path) << '\n';
  } else {
    diags.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();

  std::ifstream in(opt.script_path);
  if (!in) {
    std::cerr << "otterlint: cannot open " << opt.script_path << '\n';
    return kExitNoInput;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  otter::driver::CompileOptions copts;
  copts.source_name = opt.script_path;
  // Analysis wants the full LIR, exactly as lowered: no optimizer, so no
  // DSE (the golden findings describe the program as written, not as
  // optimized).
  copts.opt.level = 0;
  copts.analyze = true;  // abstract interpretation (W3208-W3210) always runs
  auto compiled = otter::driver::compile_script(
      ss.str(), otter::driver::dir_loader(dirname_of(opt.script_path)), copts);
  if (!compiled->ok) {
    print_diags(compiled->diags, opt);
    return kExitCompile;
  }

  otter::analysis::LintOptions lopts;
  lopts.werror = opt.werror;
  size_t findings = otter::analysis::run_lint(
      compiled->prog, compiled->inf, compiled->lir, compiled->diags, lopts);
  findings += otter::analysis::report_absint(compiled->absint, compiled->diags,
                                             opt.werror);
  if (!compiled->diags.empty()) print_diags(compiled->diags, opt);
  if (findings == 0) return kExitClean;
  return opt.werror ? kExitCompile : kExitFindings;
}
