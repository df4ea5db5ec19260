// otterfuzz — randomized robustness and differential-testing harness for the
// Otter compiler pipeline (ISSUE 3).
//
// Three checks, all enabled by default:
//
//   1. Seeded token soup: pseudo-random token streams are compiled under a
//      tight resource budget. The compiler must never crash, hang, or throw;
//      every rejected input must carry at least one coded diagnostic.
//   2. Corpus mutations: scripts from the fuzz corpus (and any extra corpus
//      directory) are byte-mutated deterministically and recompiled, with
//      the same no-crash / always-a-diagnostic contract.
//   3. Differential execution: every script in the valid corpus runs through
//      the baseline interpreter AND the compiled pipeline at np=1 and np=3 —
//      the bytecode VM on the LIR exactly as lowered (-O0) and on the full
//      default pipeline (-O2: peephole, the optimizer passes and DSE); all
//      outputs must agree exactly, and at np=3 the -O2 leg may make no more
//      comm ops than the -O0 leg (stage 4 checks the same).
//   4. Guard/divergence generator: seeded random scripts mixing provable and
//      unprovable matrix shapes, reductions (shape guards), and optionally
//      rank-divergent control around communication. Each script is executed
//      at -O0 and -O2 on the same ranks (both on the VM) and must behave
//      identically — the differential test for the abstract-interpretation-
//      backed ShapeGuard elimination. Scripts the analyzer flags W3210
//      (rank-divergent communication) are compile-checked but never
//      executed: the flagged divergence really deadlocks.
//
// Usage:
//   otterfuzz [--seeds=LO:HI] [--mutations=N] [--corpus=DIR] [--no-diff]
//             [--guards=N] [--no-verify-lir] [--max-tokens=N] [--verbose]
//
// Every accepted compile is additionally run through the structural LIR
// verifier (--verify-lir semantics): a verification failure on an input the
// compiler accepted is a miscompile and counts as a failure, never as a
// legitimate rejection. The differential check's -O2 leg runs every
// optimizer pass, the peephole pass and DSE included, so the optimizer is
// differentially tested too.
//
// Exit status: 0 when every check passed, 1 otherwise. The tool is
// deterministic for a given flag set, so CI failures replay locally.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/verify.hpp"
#include "driver/pipeline.hpp"
#include "support/rng.hpp"

#ifndef OTTER_FUZZ_CORPUS_DIR
#define OTTER_FUZZ_CORPUS_DIR "tests/fuzz_corpus"
#endif

namespace {

namespace fs = std::filesystem;
using otter::Lcg;

struct Options {
  uint64_t seed_lo = 0;
  uint64_t seed_hi = 500;
  int mutations = 25;          // per corpus file
  uint64_t guards = 200;       // generated guard/divergence scripts
  std::string extra_corpus;    // additional directory of .m seeds
  bool diff = true;
  bool verify = true;          // structural LIR verification of accepts
  size_t max_tokens = 256;
  bool verbose = false;
};

struct Stats {
  size_t inputs = 0;
  size_t accepted = 0;
  size_t rejected = 0;
  size_t failures = 0;
  size_t guards_eliminated = 0;  // ShapeGuards deleted across guard scripts
  size_t divergent_skipped = 0;  // W3210-flagged scripts not executed
};

int usage() {
  std::cerr << "usage: otterfuzz [--seeds=LO:HI] [--mutations=N]\n"
               "                 [--corpus=DIR] [--no-diff] [--guards=N]\n"
               "                 [--no-verify-lir] [--max-tokens=N]\n"
               "                 [--verbose]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Options& o) try {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* prefix) -> std::optional<std::string> {
      size_t n = std::strlen(prefix);
      if (a.rfind(prefix, 0) == 0) return a.substr(n);
      return std::nullopt;
    };
    if (auto v = value("--seeds=")) {
      size_t colon = v->find(':');
      if (colon == std::string::npos) return false;
      o.seed_lo = std::stoull(v->substr(0, colon));
      o.seed_hi = std::stoull(v->substr(colon + 1));
    } else if (auto v = value("--mutations=")) {
      o.mutations = std::stoi(*v);
    } else if (auto v = value("--guards=")) {
      o.guards = std::stoull(*v);
    } else if (auto v = value("--corpus=")) {
      o.extra_corpus = *v;
    } else if (auto v = value("--max-tokens=")) {
      o.max_tokens = std::stoull(*v);
    } else if (a == "--no-diff") {
      o.diff = false;
    } else if (a == "--no-verify-lir") {
      o.verify = false;
    } else if (a == "--verbose") {
      o.verbose = true;
    } else {
      return false;
    }
  }
  return o.seed_lo <= o.seed_hi;
} catch (const std::exception&) {
  return false;
}

/// Compiles one input under a tight budget. The contract checked everywhere:
/// compile_script never throws and never hangs, and a failed compile leaves
/// at least one coded error diagnostic behind.
struct CompileOutcome {
  bool ok = false;        // compiled cleanly
  bool crashed = false;   // an exception escaped the pipeline
  std::string problem;    // description when the contract is violated
};

CompileOutcome check_compile(const std::string& source, bool verbose,
                             const char* label, bool verify) {
  CompileOutcome out;
  otter::driver::CompileOptions copts;
  copts.budget.max_wall_seconds = 5.0;  // a hang becomes a diagnostic
  // Verify explicitly below: verification inside compile_script would turn
  // a verifier finding into an ordinary rejection and mask the miscompile.
  copts.verify_lir = false;
  try {
    auto c = otter::driver::compile_script(source, {}, copts);
    out.ok = c->ok;
    if (c->ok && verify &&
        otter::analysis::verify_lir(c->lir, c->diags) != 0) {
      out.problem =
          "accepted input fails LIR verification:\n" + c->diags.to_string();
    }
    if (!c->ok) {
      if (!c->diags.has_errors()) {
        out.problem = "rejected input but produced no error diagnostic";
      } else {
        bool coded = false;
        for (const otter::Diagnostic& d : c->diags.diagnostics()) {
          if (d.severity == otter::DiagSeverity::Error && !d.code.empty()) {
            coded = true;
            break;
          }
        }
        if (!coded && c->diags.suppressed_count() == 0) {
          out.problem = "error diagnostics carry no E-code";
        }
      }
    }
  } catch (const std::exception& e) {
    out.crashed = true;
    out.problem = std::string("exception escaped the compiler: ") + e.what();
  } catch (...) {
    out.crashed = true;
    out.problem = "non-standard exception escaped the compiler";
  }
  if (!out.problem.empty() && verbose) {
    std::cerr << "otterfuzz: [" << label << "] " << out.problem << '\n';
  }
  return out;
}

// -- token soup ---------------------------------------------------------------

const char* const kVocabulary[] = {
    "x", "y", "abc", "ans", "sum", "zeros", "ones", "eye", "disp", "size",
    "0", "1", "42", "3.25", "1e9", "2e-3", ".5",
    "+", "-", "*", "/", "\\", "^", ".*", "./", ".^", "'",
    "==", "~=", "<", "<=", ">", ">=", "&", "|", "~", "=",
    "(", ")", "[", "]", ",", ";", ":", "\n", " ",
    "if", "else", "elseif", "end", "for", "while", "break", "continue",
    "function", "return", "global",
    "'str'", "% comment\n", "%{", "%}",
    "@", "#", "$", "`", "\"", "{", "}", "\t", "..", "...",
};
constexpr size_t kVocabularySize = sizeof(kVocabulary) / sizeof(kVocabulary[0]);

std::string gen_token_soup(uint64_t seed, size_t max_tokens) {
  Lcg rng(seed * 2654435761ULL + 17);
  size_t n = 1 + static_cast<size_t>(rng.next() * static_cast<double>(max_tokens));
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    s += kVocabulary[static_cast<size_t>(rng.next() * kVocabularySize)];
    if (rng.next() < 0.3) s += ' ';
  }
  return s;
}

// -- corpus mutations ---------------------------------------------------------

std::string mutate(const std::string& base, Lcg& rng) {
  std::string s = base;
  int ops = 1 + static_cast<int>(rng.next() * 4);
  for (int k = 0; k < ops && !s.empty(); ++k) {
    double choice = rng.next();
    size_t at = static_cast<size_t>(rng.next() * static_cast<double>(s.size()));
    if (choice < 0.25) {
      // Flip one byte to a random printable (or newline) character.
      static const char kBytes[] =
          "abcxyz0189+-*/\\^'=<>~&|()[],;: \n%.$#`\"";
      s[at] = kBytes[static_cast<size_t>(rng.next() * (sizeof(kBytes) - 1))];
    } else if (choice < 0.5) {
      // Delete a span.
      size_t len = 1 + static_cast<size_t>(rng.next() * 16);
      s.erase(at, std::min(len, s.size() - at));
    } else if (choice < 0.75) {
      // Duplicate a span somewhere else.
      size_t len = 1 + static_cast<size_t>(rng.next() * 16);
      std::string span = s.substr(at, std::min(len, s.size() - at));
      size_t to = static_cast<size_t>(rng.next() * static_cast<double>(s.size()));
      s.insert(to, span);
    } else if (choice < 0.9) {
      // Insert a random vocabulary fragment.
      s.insert(at, kVocabulary[static_cast<size_t>(rng.next() * kVocabularySize)]);
    } else {
      // Truncate (models a half-written file).
      s.resize(at);
    }
  }
  return s;
}

// -- corpus loading -----------------------------------------------------------

std::optional<std::string> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<fs::path> list_scripts(const fs::path& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".m") out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// -- differential check -------------------------------------------------------

/// The optimizer's metamorphic check: its passes only delete, hoist or
/// merge communication, so the -O2 LIR never makes more comm ops than the
/// LIR as lowered. Returns a problem description, or empty.
std::string more_ops_at_o2(uint64_t ops_o0, uint64_t ops_o2) {
  if (ops_o2 <= ops_o0) return {};
  return "np=3 -O2 made " + std::to_string(ops_o2) +
         " comm ops, more than -O0's " + std::to_string(ops_o0);
}

/// Runs `source` through the interpreter and the compiled pipeline at np=1
/// and np=3; returns a problem description, or empty when all agree.
std::string diff_one(const std::string& source) {
  std::string interp_out;
  try {
    interp_out = otter::driver::run_interpreter(source, {}, 1).output;
  } catch (const std::exception& e) {
    return std::string("interpreter failed: ") + e.what();
  }
  otter::mpi::MachineProfile profile = otter::mpi::profile_by_name("ideal");
  // Leg 1: the VM on the LIR exactly as lowered (-O0). Leg 2: the VM on
  // the full default pipeline (-O2), so lowering and the optimizer are each
  // differentially tested against the interpreter.
  struct Leg {
    int level;
    const char* tag;
  };
  const Leg kLegs[] = {
      {0, " (vm -O0)"},
      {2, " (vm -O2)"},
  };
  uint64_t ops_np3[2] = {0, 0};  // per leg
  for (size_t li = 0; li < 2; ++li) {
    const Leg& leg = kLegs[li];
    otter::driver::CompileOptions copts;
    copts.opt.level = leg.level;
    auto compiled = otter::driver::compile_script(source, {}, copts);
    if (!compiled->ok) {
      return std::string("valid corpus script failed to compile") + leg.tag +
             ":\n" + compiled->diags.to_string();
    }
    for (int np : {1, 3}) {
      try {
        auto run = otter::driver::run_parallel(compiled->lir, profile, np);
        if (run.output != interp_out) {
          return "np=" + std::to_string(np) + leg.tag +
                 " output diverges from the interpreter\n--- interp ---\n" +
                 interp_out + "--- direct ---\n" + run.output;
        }
        if (np == 3) ops_np3[li] = run.times.total_ops();
      } catch (const std::exception& e) {
        return "np=" + std::to_string(np) + leg.tag +
               " execution failed: " + e.what();
      }
    }
  }
  return more_ops_at_o2(ops_np3[0], ops_np3[1]);
}

// -- guard/divergence generator -----------------------------------------------

/// A small random script stressing the abstract interpreter: extents that
/// are constant, possibly-1 (unprovable), provably >= 2, or symbolically
/// square; a reduction whose shape guard the -O2 pipeline may eliminate;
/// and optionally rank-divergent control flow around communication.
std::string gen_guard_script(uint64_t seed) {
  Lcg rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  auto roll = [&](double p) { return rng.next() < p; };
  std::string s;
  switch (static_cast<int>(rng.next() * 4)) {
    case 0:  s += "n = 5;\nm = 7;\n"; break;                      // constant
    case 1:  s += "n = floor(rand * 6) + 1;\n"
                  "m = floor(rand * 6) + 1;\n"; break;            // maybe 1
    case 2:  s += "n = floor(rand * 6) + 2;\n"
                  "m = floor(rand * 6) + 2;\n"; break;            // >= 2
    default: s += "n = floor(rand * 6) + 2;\nm = n;\n"; break;    // square
  }
  s += roll(0.5) ? "A = zeros(n, m);\n" : "A = rand(n, m);\n";
  if (roll(0.5)) {
    s += "for i = 1:n\n  for j = 1:m\n    A(i, j) = i + 2 * j;\n  end\nend\n";
  }
  const char* kReds[] = {"sum", "mean", "max", "min"};
  const char* red = kReds[static_cast<int>(rng.next() * 4)];
  s += std::string("t = sum(") + red + "(A));\n";
  double dv = rng.next();
  if (dv < 0.2) {
    // Collective under a rank-divergent branch: W3210, deadlocks at np > 1.
    s += "if rank() == 0\n  u = sum(sum(A));\n  disp(u)\nend\n";
  } else if (dv < 0.35) {
    // Rank-tainted loop bound around communication: W3210 as well.
    s += "r = rank() + 1;\nfor q = 1:r\n  v = sum(sum(A));\n  disp(v)\nend\n";
  } else if (dv < 0.5) {
    // Uniform branch around the same communication: must stay clean and
    // behave identically at both opt levels.
    s += "if n > 2\n  w = sum(sum(A));\n  disp(w)\nend\n";
  }
  s += "disp(t)\n";
  return s;
}

/// One execution attempt: the output on success, or the failure code (a
/// firing E5003 shape guard is legitimate behaviour — it just has to fire
/// identically at both opt levels).
struct RunOutcome {
  bool ok = false;
  std::string out;  // output, or the failure code/description
  uint64_t ops = 0;  // total comm ops of a completed run
};

RunOutcome run_guard_script(const otter::lower::LProgram& lir, int np) {
  RunOutcome r;
  try {
    auto run = otter::driver::run_parallel(
        lir, otter::mpi::profile_by_name("ideal"), np);
    r.out = run.output;
    r.ops = run.times.total_ops();
    r.ok = true;
  } catch (const otter::mpi::SpmdFailure& e) {
    r.out = e.first().code.empty() ? "uncoded failure" : e.first().code;
  } catch (const std::exception& e) {
    r.out = e.what();
  }
  return r;
}

/// Compiles `source` at -O0 and -O2 (with the analyzer) and requires
/// identical behaviour at np=1 and np=3. Returns a problem description, or
/// empty. Sets *skipped when the script is W3210-flagged (never executed:
/// the divergence would deadlock — which the absint tests confirm once,
/// deterministically, rather than this harness re-proving it per seed).
std::string diff_guard_levels(const std::string& source, Stats& stats,
                              bool* skipped) {
  std::unique_ptr<otter::driver::CompileResult> levels[2];
  for (int i = 0; i < 2; ++i) {
    otter::driver::CompileOptions copts;
    copts.opt.level = i == 0 ? 0 : 2;
    copts.analyze = true;
    copts.budget.max_wall_seconds = 5.0;
    levels[i] = otter::driver::compile_script(source, {}, copts);
    if (!levels[i]->ok) {
      return std::string("generated script failed to compile at ") +
             (i == 0 ? "-O0" : "-O2") + ":\n" + levels[i]->diags.to_string();
    }
  }
  stats.guards_eliminated +=
      levels[1]->opt_report.guards_eliminated.size();
  for (const otter::analysis::AbsFinding& f : levels[0]->absint.findings) {
    if (f.code == "W3210") {
      *skipped = true;
      return {};
    }
  }
  for (int np : {1, 3}) {
    RunOutcome o0 = run_guard_script(levels[0]->lir, np);
    RunOutcome o2 = run_guard_script(levels[1]->lir, np);
    if (o0.ok != o2.ok || o0.out != o2.out) {
      return "np=" + std::to_string(np) +
             " -O0 and -O2 behaviour diverges\n--- -O0 ---\n" + o0.out +
             "\n--- -O2 ---\n" + o2.out + "\n--- script ---\n" + source;
    }
    if (np == 3 && o0.ok) {
      std::string more = more_ops_at_o2(o0.ops, o2.ops);
      if (!more.empty()) return more + "\n--- script ---\n" + source;
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();

  Stats stats;
  auto record = [&](const CompileOutcome& out, const char* label,
                    const std::string& detail) {
    ++stats.inputs;
    if (out.ok) {
      ++stats.accepted;
    } else {
      ++stats.rejected;
    }
    if (!out.problem.empty()) {
      ++stats.failures;
      std::cerr << "otterfuzz: FAIL [" << label << "] " << detail << ": "
                << out.problem << '\n';
    }
  };

  // 1. Seeded token soup.
  for (uint64_t seed = opt.seed_lo; seed < opt.seed_hi; ++seed) {
    std::string soup = gen_token_soup(seed, opt.max_tokens);
    CompileOutcome out = check_compile(soup, opt.verbose, "soup", opt.verify);
    record(out, "soup", "seed " + std::to_string(seed));
  }

  // 2. Corpus files, verbatim and mutated.
  fs::path corpus_root = OTTER_FUZZ_CORPUS_DIR;
  std::vector<fs::path> corpus = list_scripts(corpus_root / "valid");
  std::vector<fs::path> invalid = list_scripts(corpus_root / "invalid");
  corpus.insert(corpus.end(), invalid.begin(), invalid.end());
  if (!opt.extra_corpus.empty()) {
    std::vector<fs::path> extra = list_scripts(opt.extra_corpus);
    corpus.insert(corpus.end(), extra.begin(), extra.end());
  }
  if (corpus.empty()) {
    std::cerr << "otterfuzz: no corpus scripts found under " << corpus_root
              << '\n';
    return 1;
  }
  for (const fs::path& p : corpus) {
    std::optional<std::string> text = read_file(p);
    if (!text) continue;
    CompileOutcome out = check_compile(*text, opt.verbose, "corpus", opt.verify);
    record(out, "corpus", p.filename().string());
    Lcg rng(std::hash<std::string>{}(p.filename().string()) ^ 0x9e3779b9);
    for (int m = 0; m < opt.mutations; ++m) {
      std::string mutated = mutate(*text, rng);
      CompileOutcome mout =
          check_compile(mutated, opt.verbose, "mutate", opt.verify);
      record(mout, "mutate",
             p.filename().string() + " #" + std::to_string(m));
    }
  }

  // 2b. Every invalid corpus script must be rejected (with a coded
  // diagnostic — check_compile already enforced the code part).
  for (const fs::path& p : invalid) {
    std::optional<std::string> text = read_file(p);
    if (!text) continue;
    CompileOutcome out = check_compile(*text, opt.verbose, "invalid", opt.verify);
    if (out.ok) {
      ++stats.failures;
      std::cerr << "otterfuzz: FAIL [invalid] " << p.filename().string()
                << ": compiled cleanly but is expected to be rejected\n";
    }
  }

  // 3. Differential check over the valid corpus.
  if (opt.diff) {
    for (const fs::path& p : list_scripts(corpus_root / "valid")) {
      std::optional<std::string> text = read_file(p);
      if (!text) continue;
      std::string problem = diff_one(*text);
      if (!problem.empty()) {
        ++stats.failures;
        std::cerr << "otterfuzz: FAIL [diff] " << p.filename().string() << ": "
                  << problem << '\n';
      } else if (opt.verbose) {
        std::cerr << "otterfuzz: diff ok: " << p.filename().string() << '\n';
      }
    }
  }

  // 4. Guard/divergence differential: generated scripts whose shape guards
  // the -O2 abstract interpreter may eliminate, executed at both opt levels
  // on the same rank counts. W3210-flagged scripts are compile-checked only.
  for (uint64_t seed = 0; seed < opt.guards; ++seed) {
    std::string script = gen_guard_script(seed);
    ++stats.inputs;
    bool skipped = false;
    std::string problem = diff_guard_levels(script, stats, &skipped);
    if (skipped) {
      ++stats.divergent_skipped;
    } else if (!problem.empty()) {
      ++stats.failures;
      std::cerr << "otterfuzz: FAIL [guard] seed " << seed << ": " << problem
                << '\n';
    } else {
      ++stats.accepted;
      if (opt.verbose) {
        std::cerr << "otterfuzz: guard diff ok: seed " << seed << '\n';
      }
    }
  }

  std::cerr << "otterfuzz: " << stats.inputs << " inputs ("
            << stats.accepted << " accepted, " << stats.rejected
            << " rejected), " << stats.guards_eliminated
            << " guards eliminated, " << stats.divergent_skipped
            << " divergent scripts skipped, " << stats.failures
            << " failures\n";
  return stats.failures == 0 ? 0 : 1;
}
