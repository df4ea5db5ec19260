// Micro-benchmarks of the compiler passes themselves: lexing, parsing,
// SSA + inference, and lowering of the real benchmark scripts.
#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>

#include "driver/pipeline.hpp"
#include "frontend/lexer.hpp"

namespace {

using namespace otter;

std::string load(const std::string& name) {
  std::ifstream in(std::string(OTTER_SCRIPTS_DIR) + "/" + name);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void BM_Lex(benchmark::State& state) {
  std::string src = load("cg.m") + load("ocean.m") + load("nbody.m");
  for (auto _ : state) {
    SourceManager sm;
    DiagEngine diags(&sm);
    uint32_t file = sm.add_buffer("bench", src);
    Lexer lexer(sm, file, diags);
    auto toks = lexer.lex_all();
    benchmark::DoNotOptimize(toks.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  std::string src = load("cg.m");
  for (auto _ : state) {
    SourceManager sm;
    DiagEngine diags(&sm);
    ParsedFile f = parse_string(src, sm, diags);
    benchmark::DoNotOptimize(f.script.data());
  }
}
BENCHMARK(BM_Parse);

void BM_FullCompile(benchmark::State& state) {
  std::string src = load("cg.m");
  for (auto _ : state) {
    auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
    benchmark::DoNotOptimize(c->ok);
  }
}
BENCHMARK(BM_FullCompile);

void BM_FullCompileOcean(benchmark::State& state) {
  std::string src = load("ocean.m");
  for (auto _ : state) {
    auto c = driver::compile_script(src, {}, {.opt = {.level = 0}});
    benchmark::DoNotOptimize(c->ok);
  }
}
BENCHMARK(BM_FullCompileOcean);

}  // namespace

BENCHMARK_MAIN();
