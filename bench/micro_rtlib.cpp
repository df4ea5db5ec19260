// Micro-benchmarks of the run-time library's core operations
// (google-benchmark). Single rank, ideal network: pure local cost. Inputs
// are built once per benchmark, outside the timed loop. Items are flops
// (elements for pure data movement); bytes are the operands read plus the
// result written. The largest size of each kernel is its paper script's.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "rtlib/dmatrix.hpp"
#include "rtlib/matmul_kernels.hpp"

namespace {

using namespace otter;
using rt::DMat;

/// Builds the inputs once with `make`, then times `op` on them inside a
/// 1-rank SPMD region.
template <typename Make, typename Op>
void spmd1(benchmark::State& state, Make make, Op op) {
  mpi::run_spmd(mpi::ideal(1), 1, [&](mpi::Comm& comm) {
    const std::vector<DMat> in = make(comm);
    for (auto _ : state) {
      op(comm, in);
      benchmark::ClobberMemory();
    }
  });
}

/// Reports one iteration's work as `items` and `bytes`.
void report(benchmark::State& state, double items, double bytes) {
  const double iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<int64_t>(iters * items));
  state.SetBytesProcessed(static_cast<int64_t>(iters * bytes));
}

/// An n x m rand matrix whose values follow `seq` earlier draws.
DMat rnd(mpi::Comm& comm, size_t n, size_t m, size_t seq = 0) {
  return rt::fill_rand(comm, n, m, 1, seq);
}

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  spmd1(
      state,
      [&](mpi::Comm& comm) {
        return std::vector<DMat>{rnd(comm, n, n), rnd(comm, n, n, n * n)};
      },
      [](mpi::Comm& comm, const std::vector<DMat>& in) {
        DMat c = rt::matmul(comm, in[0], in[1]);
        benchmark::DoNotOptimize(c.local().data());
      });
  const double d = static_cast<double>(n);
  report(state, 2 * d * d * d, 24 * d * d);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256)->Arg(384);

/// rt::matmul of m x 384 by 384 x n (args m, n): shapes that are not whole
/// register tiles, so the edge tiles set the time. 12 and 55 rows are below
/// or past an 8-row tile (55 is transclos's local block at np = 7); 8 and
/// 15 columns are narrower than a 16-column tile.
void BM_MatMulEdge(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const size_t k = 384;
  spmd1(
      state,
      [&](mpi::Comm& comm) {
        return std::vector<DMat>{rnd(comm, m, k), rnd(comm, k, n, m * k)};
      },
      [](mpi::Comm& comm, const std::vector<DMat>& in) {
        DMat c = rt::matmul(comm, in[0], in[1]);
        benchmark::DoNotOptimize(c.local().data());
      });
  const double dm = static_cast<double>(m), dk = static_cast<double>(k),
               dn = static_cast<double>(n);
  report(state, 2 * dm * dk * dn, 8 * (dm * dk + dk * dn + dm * dn));
}
BENCHMARK(BM_MatMulEdge)
    ->Args({12, 384})
    ->Args({55, 384})
    ->Args({384, 8})
    ->Args({384, 15});

/// One register-tile instance alone on local n x n arrays, without the
/// allgather copy and result allocation of BM_MatMul: one benchmark per
/// instance this CPU runs, named BM_MatMulKernel/<isa>/<n>.
void BM_MatMulKernel(benchmark::State& state,
                     const rt::detail::MatmulKernel& kernel) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> a, b, c(n * n);
  mpi::run_spmd(mpi::ideal(1), 1, [&](mpi::Comm& comm) {
    a = rt::to_full(comm, rnd(comm, n, n));
    b = rt::to_full(comm, rnd(comm, n, n, n * n));
  });
  for (auto _ : state) {
    kernel.run(a.data(), b.data(), c.data(), n, n, n);
    benchmark::ClobberMemory();
  }
  const double d = static_cast<double>(n);
  report(state, 2 * d * d * d, 24 * d * d);
}

[[maybe_unused]] const bool kMatMulKernelsRegistered = [] {
  for (const rt::detail::MatmulKernel& k : rt::detail::matmul_kernels()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_MatMulKernel/") + k.isa).c_str(), BM_MatMulKernel, k)
        ->Arg(64)->Arg(128)->Arg(256)->Arg(384);
  }
  return true;
}();

void BM_MatVec(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  spmd1(
      state,
      [&](mpi::Comm& comm) {
        return std::vector<DMat>{rnd(comm, n, n), rnd(comm, n, 1, n * n)};
      },
      [](mpi::Comm& comm, const std::vector<DMat>& in) {
        DMat y = rt::matvec(comm, in[0], in[1]);
        benchmark::DoNotOptimize(y.local().data());
      });
  const double d = static_cast<double>(n);
  report(state, 2 * d * d, 8 * (d * d + 2 * d));
}
BENCHMARK(BM_MatVec)->Arg(256)->Arg(1024)->Arg(2048);

void BM_Dot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  spmd1(
      state,
      [&](mpi::Comm& comm) {
        return std::vector<DMat>{rnd(comm, n, 1), rnd(comm, n, 1, n)};
      },
      [](mpi::Comm& comm, const std::vector<DMat>& in) {
        double d = rt::dot(comm, in[0], in[1]);
        benchmark::DoNotOptimize(d);
      });
  const double d = static_cast<double>(n);
  report(state, 2 * d, 16 * d);
}
BENCHMARK(BM_Dot)->Arg(1024)->Arg(65536);

void BM_Elemwise(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  spmd1(
      state,
      [&](mpi::Comm& comm) {
        return std::vector<DMat>{rnd(comm, 1, n), rnd(comm, 1, n, n)};
      },
      [](mpi::Comm& comm, const std::vector<DMat>& in) {
        DMat c = rt::ew_binary(comm, rt::EwBin::Add, in[0], in[1]);
        benchmark::DoNotOptimize(c.local().data());
      });
  const double d = static_cast<double>(n);
  report(state, d, 24 * d);
}
BENCHMARK(BM_Elemwise)->Arg(1024)->Arg(65536);

void BM_Transpose(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  spmd1(
      state,
      [&](mpi::Comm& comm) { return std::vector<DMat>{rnd(comm, n, n)}; },
      [](mpi::Comm& comm, const std::vector<DMat>& in) {
        DMat t = rt::transpose(comm, in[0]);
        benchmark::DoNotOptimize(t.local().data());
      });
  const double d = static_cast<double>(n);
  report(state, d * d, 16 * d * d);
}
BENCHMARK(BM_Transpose)->Arg(64)->Arg(256)->Arg(2048);

/// rand(n, n) at one rank: the generator's bulk fill into a fresh payload
/// (384 is transclos's, 2048 cg's).
void BM_FillRand(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  spmd1(
      state, [](mpi::Comm&) { return std::vector<DMat>{}; },
      [n](mpi::Comm& comm, const std::vector<DMat>&) {
        DMat r = rnd(comm, n, n);
        benchmark::DoNotOptimize(r.local().data());
      });
  const double d = static_cast<double>(n);
  report(state, d * d, 8 * d * d);
}
BENCHMARK(BM_FillRand)->Arg(384)->Arg(2048);

/// cg's `a = a + n * eye(n, n)` at -O2: one in-place pass over a, no
/// identity built.
void BM_EyeUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  mpi::run_spmd(mpi::ideal(1), 1, [&](mpi::Comm& comm) {
    DMat a = rnd(comm, n, n);
    for (auto _ : state) {
      rt::eye_update(comm, a, a, static_cast<double>(n), n, n, rt::EwBin::Add,
                     false, rt::Dist::RowBlock);
      benchmark::ClobberMemory();
    }
  });
  const double d = static_cast<double>(n);
  report(state, d * d, 16 * d * d);
}
BENCHMARK(BM_EyeUpdate)->Arg(2048);

void BM_Trapz(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  spmd1(
      state,
      [&](mpi::Comm& comm) { return std::vector<DMat>{rnd(comm, 1, n)}; },
      [](mpi::Comm& comm, const std::vector<DMat>& in) {
        double v = rt::trapz(comm, in[0]);
        benchmark::DoNotOptimize(v);
      });
  const double d = static_cast<double>(n);
  report(state, 3 * d, 8 * d);
}
BENCHMARK(BM_Trapz)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
