// Script workloads: cg, transclos and nbody, unchanged from scripts/ at
// paper size, through the default path (compile_script at default
// CompileOptions = -O2, run_parallel at default ExecOptions = VM tier) on the
// meiko_cs2 profile.
//
// Untraced run: a sample is one compile, one 1-rank run and one 4-rank run;
// every sample's rank-0 output is byte-compared with the interpreter's.
// Traced run: the same work, with the compile replayed one phase at a time
// and the runs issued through run_spmd/execute_lir so each layer gets a span,
// plus each workload's dominant rt:: calls re-run alone.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "driver/pipeline.hpp"
#include "replay.hpp"
#include "rtlib/dmatrix.hpp"
#include "support/governor.hpp"
#include "vm/bcgen.hpp"
#include "vm/vm.hpp"

namespace perfbench {
namespace {

using namespace otter;

constexpr int kRssProbes = 3;
constexpr int kParallelRanks = 4;
constexpr int kWarmupSamples = 2;  // per set-up

// -- workload table -------------------------------------------------------------

/// One dominant run-time library call of a workload, re-run alone at the
/// workload's shapes. `call` builds its inputs, then returns the seconds
/// this rank spent inside the timed call.
struct RtCall {
  const char* name;
  double ops;    ///< computed operation count (flops, draws or moves)
  double bytes;  ///< computed bytes read and written, lower bound
  std::function<double(mpi::Comm&)> call;
};

template <typename F>
double timed(mpi::Comm& comm, F&& f) {
  comm.barrier();
  Clock::time_point t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

std::vector<RtCall> rtlib_calls(const std::string& workload) {
  auto rnd = [](mpi::Comm& c, size_t r, size_t k) {
    return rt::fill_rand(c, r, k, 1, 0);
  };
  std::vector<RtCall> calls;
  if (workload == "cg") {
    const double n = 2048;
    const size_t un = 2048;
    calls.push_back({"matvec", 2 * n * n, 8 * (n * n + 2 * n),
                     [=](mpi::Comm& c) {
                       rt::DMat a = rnd(c, un, un);
                       rt::DMat x = rnd(c, un, 1);
                       return timed(c, [&] { rt::matvec(c, a, x); });
                     }});
    calls.push_back({"transpose", n * n, 16 * n * n, [=](mpi::Comm& c) {
                       rt::DMat a = rnd(c, un, un);
                       return timed(c, [&] { rt::transpose(c, a); });
                     }});
    calls.push_back({"fill_rand", n * n, 8 * n * n, [=](mpi::Comm& c) {
                       return timed(c, [&] { rnd(c, un, un); });
                     }});
    calls.push_back({"dot", 2 * n, 16 * n, [=](mpi::Comm& c) {
                       rt::DMat x = rnd(c, un, 1);
                       rt::DMat y = rnd(c, un, 1);
                       return timed(c, [&] { rt::dot(c, x, y); });
                     }});
  } else if (workload == "transclos") {
    const double n = 384;
    const size_t un = 384;
    calls.push_back({"matmul", 2 * n * n * n, 24 * n * n, [=](mpi::Comm& c) {
                       rt::DMat a = rnd(c, un, un);
                       rt::DMat b = rnd(c, un, un);
                       return timed(c, [&] { rt::matmul(c, a, b); });
                     }});
  } else if (workload == "nbody") {
    const double n = 5000;
    const size_t un = 5000;
    calls.push_back({"ew_binary", n, 24 * n, [=](mpi::Comm& c) {
                       rt::DMat x = rnd(c, un, 1);
                       rt::DMat y = rnd(c, un, 1);
                       return timed(c, [&] {
                         rt::ew_binary(c, rt::EwBin::Mul, x, y);
                       });
                     }});
    calls.push_back({"reduce_mean", n, 8 * n, [=](mpi::Comm& c) {
                       rt::DMat x = rnd(c, un, 1);
                       return timed(c, [&] { rt::reduce_mean(c, x); });
                     }});
  }
  return calls;
}

// -- set-up -----------------------------------------------------------------------

struct Setup {
  std::string src;
  Reference ref;
  std::string lir_dump;  ///< what compile_script produces (phase-replay oracle)
  double seconds = 0.0;
};

driver::ExecOptions exec_options(uint64_t seed) {
  driver::ExecOptions eo;
  eo.rand_seed = seed;
  return eo;
}

Setup set_up(const Args& a) {
  Clock::time_point t0 = Clock::now();
  Setup s;
  s.src = read_file(a.scripts_dir + "/" + a.workload + ".m");
  s.ref = interp_reference(s.src, a.seed);
  // Warm-up: untimed samples. The first few 4-rank runs of a process are
  // up to 3x slower (transclos) until malloc's per-thread arenas settle.
  for (int k = 0; k < kWarmupSamples; ++k) {
    auto cr = driver::compile_script(s.src, {}, driver::CompileOptions{});
    if (!cr->ok) break;
    s.lir_dump = lower::dump_lir(cr->lir);
    const mpi::MachineProfile prof = mpi::meiko_cs2();
    try {
      driver::run_parallel(cr->lir, prof, 1, exec_options(a.seed));
      driver::run_parallel(cr->lir, prof, kParallelRanks,
                           exec_options(a.seed));
    } catch (const std::exception&) {
      break;  // reported by the measured samples, which repeat these runs
    }
  }
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

/// Sets up while more_setups() asks; returns the last set-up with the
/// median time.
Setup set_up_repeatedly(const Args& a, std::vector<double>* interp_s) {
  std::vector<double> times;
  Setup s;
  for (double spent = 0.0; more_setups(static_cast<int>(times.size()), spent);
       spent += s.seconds) {
    s = set_up(a);
    times.push_back(s.seconds);
    interp_s->push_back(s.ref.interp_cpu_s);
  }
  s.seconds = median(times);
  return s;
}

/// Peak RSS in MiB of one compile, 1-rank run and 4-rank run in a child
/// forked from this freshly started, single-threaded process: at most what
/// one `otterc` invocation holds. Median of kRssProbes children. (A long
/// run's own high-water mark depends on how malloc arenas of earlier rank
/// threads happened to fragment, so it is not steady.)
double probe_peak_rss_mb(const Args& a) {
  const std::string src = read_file(a.scripts_dir + "/" + a.workload + ".m");
  std::vector<double> mb;
  for (int k = 0; k < kRssProbes; ++k) {
    pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork() failed");
    if (pid == 0) {
      int code = 1;
      try {
        auto cr = driver::compile_script(src, {}, driver::CompileOptions{});
        if (cr->ok) {
          driver::run_parallel(cr->lir, mpi::meiko_cs2(), 1,
                               exec_options(a.seed));
          driver::run_parallel(cr->lir, mpi::meiko_cs2(), kParallelRanks,
                               exec_options(a.seed));
          code = 0;
        }
      } catch (...) {
      }
      ::_exit(code);
    }
    // A failing child still reports the peak it reached; the measured
    // samples repeat its work and report the failure.
    int status = 0;
    rusage ru{};
    ::wait4(pid, &status, 0, &ru);
    mb.push_back(static_cast<double>(ru.ru_maxrss) / 1024.0);
  }
  return median(mb);
}

// -- untraced run -------------------------------------------------------------------

Result measure(const Args& a, const Setup& s, double rss_mb) {
  Result r;
  const mpi::MachineProfile prof = mpi::meiko_cs2();
  std::vector<double> compile_ms, wall_p1, wall_pn, vtime_p1, vtime_pn,
      sample_ms;
  size_t ok = 0;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(a.seconds));
  do {
    ++r.attempted;
    try {
      Clock::time_point t0 = Clock::now();
      auto cr = driver::compile_script(s.src, {}, driver::CompileOptions{});
      Clock::time_point t1 = Clock::now();
      if (!cr->ok) {
        r.fail("compile failed:\n" + cr->diags.to_string());
        continue;
      }
      driver::ParallelRun p1 =
          driver::run_parallel(cr->lir, prof, 1, exec_options(a.seed));
      Clock::time_point t2 = Clock::now();
      driver::ParallelRun pn = driver::run_parallel(
          cr->lir, prof, kParallelRanks, exec_options(a.seed));
      Clock::time_point t3 = Clock::now();
      if (p1.output != s.ref.output || pn.output != s.ref.output) {
        r.fail("output differs from the interpreter's at seed " +
               std::to_string(a.seed));
        continue;
      }
      ++ok;
      compile_ms.push_back(1e3 * seconds_between(t0, t1));
      wall_p1.push_back(seconds_between(t0, t2));
      wall_pn.push_back(seconds_between(t0, t1) + seconds_between(t2, t3));
      vtime_p1.push_back(p1.times.max_vtime());
      vtime_pn.push_back(pn.times.max_vtime());
      sample_ms.push_back(1e3 * seconds_between(t0, t3));
    } catch (const std::exception& e) {
      r.fail(std::string("run failed: ") + e.what());
    }
  } while (Clock::now() < deadline);
  double elapsed = seconds_between(start, Clock::now());

  Tail t1 = tail(wall_p1);
  Tail tn = tail(wall_pn);
  Tail ts = tail(sample_ms);
  r.set("setup_s", s.seconds, "s");
  r.set("compile_ms", median(compile_ms), "ms");
  r.set("wall_p1_s", median(wall_p1), "s");
  r.set("wall_p1_tail_s", t1.value, "s");
  r.set("wall_pn_s", median(wall_pn), "s");
  r.set("vtime_p1_s", median(vtime_p1), "s");
  r.set("vtime_pn_s", median(vtime_pn), "s");
  r.set("req_p50_ms", median(sample_ms), "ms");
  r.set("req_tail_ms", ts.value, "ms");
  r.set("req_per_s", static_cast<double>(ok) / elapsed, "1/s");
  r.set("peak_rss_mb", rss_mb, "MiB");
  std::fprintf(stderr,
               "%s: %zu ok of %llu samples in %.2f s (P=1 and P=%d, "
               "meiko_cs2); tails are p%.0f of %zu samples; ungated "
               "wall_pn_tail_s %.6f s\n",
               a.workload.c_str(), ok,
               static_cast<unsigned long long>(r.attempted), elapsed,
               kParallelRanks, t1.percentile, t1.samples, tn.value);
  return r;
}

// -- traced run ---------------------------------------------------------------------

struct Leg {
  std::string output;
  mpi::RunResult times;
  double spmd_ms = 0.0;
  double exec_ms = 0.0;  ///< slowest rank's execute_lir span
};

/// What run_parallel does (checkpointing off), with a span around run_spmd
/// and one around each rank's execute_lir.
Leg traced_leg(Tracer& t, uint64_t sample, int64_t parent,
               const lower::LProgram& lir, const vm::BcModule& mod,
               const mpi::MachineProfile& prof, int np, uint64_t seed,
               vm::VmStats* stats) {
  driver::ExecOptions eo = exec_options(seed);
  eo.bytecode = &mod;
  eo.vm_stats = stats;
  std::ostringstream out;
  std::vector<double> exec_ms(static_cast<size_t>(np), 0.0);
  Leg leg;
  Scope s(t, "minimpi.run_spmd_p" + std::to_string(np), sample, parent);
  leg.times = mpi::run_spmd(
      prof, np,
      [&](mpi::Comm& comm) {
        Scope e(t, "driver.execute_p" + std::to_string(np), sample, s.id(),
                comm.rank() + 1);
        driver::execute_lir(lir, comm, out, eo);
        e.close();
        exec_ms[static_cast<size_t>(comm.rank())] = e.ms();
      },
      eo.spmd);
  s.close();
  leg.output = out.str();
  leg.spmd_ms = s.ms();
  leg.exec_ms = *std::max_element(exec_ms.begin(), exec_ms.end());
  return leg;
}

/// Seconds the slowest rank spent in one rt:: call.
double time_rt_call(const RtCall& c, int np) {
  std::vector<double> secs(static_cast<size_t>(np), 0.0);
  mpi::run_spmd(mpi::meiko_cs2(), np, [&](mpi::Comm& comm) {
    secs[static_cast<size_t>(comm.rank())] = c.call(comm);
  });
  return *std::max_element(secs.begin(), secs.end());
}

Result measure_traced(const Args& a, const Setup& s,
                      const std::vector<double>& interp_s) {
  Result r;
  Tracer t;
  const mpi::MachineProfile prof = mpi::meiko_cs2();
  const std::vector<RtCall> calls = rtlib_calls(a.workload);
  std::map<std::string, std::vector<double>> ms;  // per-sample values
  std::vector<std::pair<std::string, double>> counts;  // from sample 1
  std::vector<double> untraced_p1, traced_p1;
  double comm_vtime = 0.0;

  // Three quarters of the run for samples, the rest for the rt:: calls.
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(a.seconds));
  const Clock::time_point samples_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(0.75 * a.seconds));
  uint64_t sample = 0;
  do {
    ++r.attempted;
    try {
      // Untraced 1-rank leg: the baseline for the tracing overhead.
      Clock::time_point t0 = Clock::now();
      auto plain = driver::compile_script(s.src, {}, driver::CompileOptions{});
      if (!plain->ok) {
        r.fail("compile failed:\n" + plain->diags.to_string());
        continue;
      }
      driver::ParallelRun p = driver::run_parallel(plain->lir, prof, 1,
                                                   exec_options(a.seed));
      untraced_p1.push_back(seconds_between(t0, Clock::now()));
      if (p.output != s.ref.output) {
        r.fail("output differs from the interpreter's");
        continue;
      }

      ++sample;
      Scope root(t, "bench.sample", sample, -1);
      Scope comp(t, "bench.compile", sample, root.id());
      auto cr = compile_phases(s.src, t, sample, comp.id());
      comp.close();
      if (!cr->ok) {
        r.fail("phase-replay compile failed:\n" + cr->diags.to_string());
        continue;
      }
      if (lower::dump_lir(cr->lir) != s.lir_dump) {
        r.fail("phase-replay LIR differs from compile_script's");
        continue;
      }
      Scope bcgen(t, "vm.bcgen", sample, root.id());
      vm::BcModule mod = vm::compile_bytecode(cr->lir);
      bcgen.close();

      vm::VmStats stats;
      gov::ResourceGovernor::instance().reset_window();
      Leg p1 = traced_leg(t, sample, root.id(), cr->lir, mod, prof, 1, a.seed,
                          &stats);
      const double gov_peak_mb =
          static_cast<double>(gov::ResourceGovernor::instance().stats().peak) /
          (1024.0 * 1024.0);
      Leg pn = traced_leg(t, sample, root.id(), cr->lir, mod, prof,
                          kParallelRanks, a.seed, nullptr);
      if (p1.output != s.ref.output || pn.output != s.ref.output) {
        r.fail("traced output differs from the interpreter's");
        continue;
      }
      traced_p1.push_back((comp.ms() + bcgen.ms() + p1.spmd_ms) / 1e3);

      if (sample == 1) {
        // Transfer and wait only: a second run of the same LIR under
        // meiko_cs2 with compute charging off.
        mpi::MachineProfile comm_only = prof;
        comm_only.cpu_scale = 0.0;
        Leg c = traced_leg(t, sample, root.id(), cr->lir, mod, comm_only,
                           kParallelRanks, a.seed, nullptr);
        comm_vtime = c.times.max_vtime();
      }

      for (const std::string& phase : compile_span_names()) {
        double v = phase == "vm.bcgen" ? bcgen.ms()
                                       : t.child_ms(comp.id(), phase);
        ms[phase + "_ms"].push_back(v);
      }
      ms["driver.execute_ms_p1"].push_back(p1.exec_ms);
      ms["driver.execute_ms_p4"].push_back(pn.exec_ms);
      ms["minimpi.spawn_join_ms_p1"].push_back(p1.spmd_ms - p1.exec_ms);
      ms["minimpi.spawn_join_ms_p4"].push_back(pn.spmd_ms - pn.exec_ms);
      ms["vtime_p1"].push_back(p1.times.max_vtime());
      ms["vtime_p4"].push_back(pn.times.max_vtime());

      Scope cs(t, "bench.counts", sample, root.id());
      std::vector<std::pair<std::string, double>> now =
          compile_counts(s.src, *cr, mod);
      auto d = [](uint64_t v) { return static_cast<double>(v); };
      now.insert(now.end(),
                 {{"vm.instrs_dispatched", d(stats.instrs.load())},
                  {"vm.ic_hits", d(stats.cache_hits.load())},
                  {"vm.ic_misses", d(stats.cache_misses.load())},
                  {"minimpi.comm_ops_p4", d(pn.times.total_ops())},
                  {"support.gov_peak_mb", gov_peak_mb}});
      if (counts.empty()) counts = now;
      for (size_t i = 0; i < now.size(); ++i) {
        if (counts[i] != now[i]) {
          r.fail("count " + now[i].first + " drifted between samples");
        }
      }
    } catch (const std::exception& e) {
      r.fail(std::string("traced sample failed: ") + e.what());
    }
  } while (Clock::now() < samples_end);
  const uint64_t traced_samples = sample;

  // The rt:: calls run after the samples, not between them: their large
  // allocations on fresh rank threads change the malloc state the next
  // sample's 4-rank run starts from, and slowed it several-fold.
  do {
    ++sample;
    Scope rs(t, "bench.rtlib", sample, -1);
    for (const RtCall& c : calls) {
      for (int np : {1, kParallelRanks}) {
        std::string name =
            std::string("rtlib.") + c.name + "_ms_p" + std::to_string(np);
        Scope cs(t, name, sample, rs.id());
        ms[name].push_back(1e3 * time_rt_call(c, np));
      }
    }
  } while (Clock::now() < deadline);

  check_counts_across_runs(a, counts, r);
  double hits = 0.0;
  double lookups = 0.0;
  for (const auto& [name, v] : counts) {
    r.set(name, v, "count");
    if (name == "vm.ic_hits") hits = v;
    if (name == "vm.ic_hits" || name == "vm.ic_misses") lookups += v;
  }
  r.set("vm.ic_lookups", lookups, "count");
  r.set("vm.ic_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  for (const auto& [name, v] : ms) {
    if (name.rfind("vtime_", 0) != 0) r.set(name, median(v), "ms");
  }
  const double vtime_p1 = median(ms["vtime_p1"]);
  const double vtime_p4 = median(ms["vtime_p4"]);
  r.set("minimpi.comm_vtime_p4_s", comm_vtime, "s");
  r.set("minimpi.vtime_p4_s", vtime_p4, "s");
  r.set("minimpi.comm_share_p4", vtime_p4 > 0 ? comm_vtime / vtime_p4 : 0.0,
        "ratio");
  for (const RtCall& c : calls) {
    r.set(std::string("rtlib.") + c.name + "_ops_computed", c.ops, "count");
    r.set(std::string("rtlib.") + c.name + "_bytes_computed", c.bytes, "B");
  }
  const double interp = median(interp_s);
  r.set("interp.run_s", interp, "s");
  r.set("paper.speedup_p1",
        vtime_p1 > 0 ? interp * prof.cpu_scale / vtime_p1 : 0.0, "ratio");
  r.set("paper.speedup_p4",
        vtime_p4 > 0 ? interp * prof.cpu_scale / vtime_p4 : 0.0, "ratio");
  const double un = median(untraced_p1);
  const double tr = median(traced_p1);
  r.set("trace.wall_p1_untraced_s", un, "s");
  r.set("trace.wall_p1_traced_s", tr, "s");
  r.set("trace.overhead_ms", 1e3 * (tr - un), "ms");
  std::fprintf(stderr,
               "tracing overhead: traced wall_p1 %.6f s - untraced %.6f s = "
               "%.3f ms over %llu traced samples\n",
               tr, un, 1e3 * (tr - un),
               static_cast<unsigned long long>(traced_samples));
  finish_trace(a, t, r);
  return r;
}

}  // namespace

Result run_script_workload(const Args& a) {
  // First, while the process is still fresh and has no threads.
  const double rss_mb = a.trace ? 0.0 : probe_peak_rss_mb(a);
  std::vector<double> interp_s;
  Setup s = set_up_repeatedly(a, &interp_s);
  return a.trace ? measure_traced(a, s, interp_s) : measure(a, s, rss_mb);
}

}  // namespace perfbench
