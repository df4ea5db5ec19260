// otterd_mix: the compile-and-run service under a closed loop. Two client
// threads each send one request line to an in-process service::Service set
// up like otterd's defaults (fork-per-request sandbox, fault injection off,
// 64 MiB artifact cache) and wait for the reply, as `otterc --remote` does.
//
// The seeded stream mixes three request classes over ocean.m and nbody.m:
// warm compile-and-run of the unchanged scripts (artifact-cache hits), the
// same with a seeded comment edit that changes the script hash but not the
// work (cache misses: full compile plus bytecode), and compile-only
// ("run": false) edited variants, in equal shares. The shares are assumed,
// not drawn from real traffic (see README.md). Runs use np=1 or np=2, so
// client threads times ranks stay within the 4 cores, on meiko_cs2 so each
// reply carries a modelled time.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "replay.hpp"
#include "service/server.hpp"
#include "support/json.hpp"
#include "vm/bcgen.hpp"

namespace perfbench {
namespace {

using namespace otter;

constexpr int kClients = 2;
constexpr size_t kRandSeeds = 2;  // distinct rand_seed values per run
constexpr int kReplays = 5;       // phase-by-phase compiles in a traced run
constexpr int kBlock = 12;        // requests per fixed-composition block
// peak_rss_mb is read once this many requests have completed, so it covers
// the same work (and artifact-cache growth) however fast the run goes.
constexpr uint64_t kRssAfter = 40 * kBlock;
const char* const kScripts[] = {"ocean", "nbody"};
constexpr size_t kNumScripts = 2;

enum class Kind { Hit, Miss, CompileOnly };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Hit: return "hit";
    case Kind::Miss: return "miss";
    case Kind::CompileOnly: return "compile_only";
  }
  return "?";
}

uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Request {
  Kind kind = Kind::Hit;
  size_t script = 0;
  int np = 1;
  size_t rs = 0;  ///< index into the run's rand_seed pool
  std::string line;
};

/// Request `i` of the stream. Every block of kBlock requests holds the same
/// mix (per script: a hit and a miss at np=1 and at np=2, two compile-only
/// requests) in a seeded order, so class shares do not vary with the seed;
/// the seed picks the order, the edits and each request's rand_seed.
Request request_at(uint64_t seed, uint64_t i,
                   const std::vector<std::string>& srcs,
                   const std::vector<uint64_t>& rand_seeds) {
  static const struct {
    Kind kind;
    int np;
  } kMix[kBlock / kNumScripts] = {
      {Kind::Hit, 1},  {Kind::Hit, 2},         {Kind::Miss, 1},
      {Kind::Miss, 2}, {Kind::CompileOnly, 1}, {Kind::CompileOnly, 2}};
  int order[kBlock];
  for (int k = 0; k < kBlock; ++k) order[k] = k;
  uint64_t st = splitmix(seed ^ splitmix(i / kBlock));
  for (int k = kBlock - 1; k > 0; --k) {
    st = splitmix(st);
    std::swap(order[k], order[st % static_cast<uint64_t>(k + 1)]);
  }
  const int slot = order[i % kBlock];
  Request r;
  r.kind = kMix[slot / kNumScripts].kind;
  r.np = kMix[slot / kNumScripts].np;
  r.script = static_cast<size_t>(slot) % kNumScripts;
  r.rs = splitmix(seed + 7 * i) % rand_seeds.size();

  std::string text = srcs[r.script];
  if (r.kind != Kind::Hit) {
    text += "\n% variant " + std::to_string(seed) + "." + std::to_string(i) +
            "\n";
  }
  json::JValue req{json::JObject{}};
  req.set("id", static_cast<double>(i));
  req.set("script", text);
  req.set("np", r.np);
  req.set("machine", "meiko_cs2");
  req.set("rand_seed", static_cast<double>(rand_seeds[r.rs]));
  if (r.kind == Kind::CompileOnly) req.set("run", false);
  r.line = req.dump();
  return r;
}

struct Setup {
  std::vector<std::string> srcs;
  std::vector<uint64_t> rand_seeds;
  std::vector<std::vector<Reference>> refs;  ///< [script][rand_seed index]
  std::unique_ptr<service::Service> svc;
  double seconds = 0.0;
};

service::ServiceConfig otterd_config() {
  // otterd's defaults (tools/otterd.cpp): sandboxed runs, no fault plans.
  service::ServiceConfig cfg;
  cfg.allow_fault_plans = false;
  cfg.isolate = service::IsolateMode::Process;
  return cfg;
}

Setup set_up(const Args& a) {
  Clock::time_point t0 = Clock::now();
  Setup s;
  for (size_t k = 0; k < kRandSeeds; ++k) {
    s.rand_seeds.push_back(1 + splitmix(a.seed * 31 + k) % 1000000);
  }
  for (const char* name : kScripts) {
    s.srcs.push_back(read_file(a.scripts_dir + "/" + name + ".m"));
    std::vector<Reference> per_seed;
    for (uint64_t rs : s.rand_seeds) {
      per_seed.push_back(interp_reference(s.srcs.back(), rs));
    }
    s.refs.push_back(std::move(per_seed));
  }
  s.svc = std::make_unique<service::Service>(otterd_config());
  // Warm-up: fill the artifact cache with the unchanged scripts (what the
  // hit class expects) and run each once in a sandbox.
  for (size_t sc = 0; sc < kNumScripts; ++sc) {
    for (int np : {1, 2}) {
      json::JValue req{json::JObject{}};
      req.set("script", s.srcs[sc]);
      req.set("np", np);
      req.set("machine", "meiko_cs2");
      req.set("rand_seed", static_cast<double>(s.rand_seeds[0]));
      s.svc->process_line(req.dump());
    }
  }
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

struct Reply {
  Kind kind = Kind::Hit;
  size_t script = 0;
  int np = 1;
  bool ok = false;
  bool traced = false;
  double ms = 0.0;
  double vtime = 0.0;
  double gov_peak = 0.0;
  std::string why;  ///< failure reason when !ok
};

Reply send(service::Service& svc, const Setup& s, const Request& rq) {
  Reply rep;
  rep.kind = rq.kind;
  rep.script = rq.script;
  rep.np = rq.np;
  Clock::time_point t0 = Clock::now();
  std::string line = svc.process_line(rq.line);
  std::optional<json::JValue> resp = json::parse(line);
  rep.ms = 1e3 * seconds_between(t0, Clock::now());
  if (!resp) {
    rep.why = "unparseable reply";
    return rep;
  }
  const std::string status = resp->get_string("status", "");
  if (status != "ok") {
    rep.why = "status " + status + " " + resp->get_string("code", "") + ": " +
              resp->get_string("message", "");
    return rep;
  }
  if (rq.kind != Kind::CompileOnly) {
    const Reference& ref = s.refs[rq.script][rq.rs];
    if (resp->get_string("output", "") != ref.output) {
      rep.why = std::string("output of ") + kScripts[rq.script] +
                " differs from the interpreter's";
      return rep;
    }
    rep.vtime = resp->get_number("max_vtime", 0.0);
    if (const json::JValue* g = resp->get("governor")) {
      rep.gov_peak = g->get_number("peak_bytes", 0.0);
    }
  }
  rep.ok = true;
  return rep;
}

std::vector<double> pick(const std::vector<Reply>& rs,
                         bool (*keep)(const Reply&),
                         double (*value)(const Reply&)) {
  std::vector<double> v;
  for (const Reply& r : rs) {
    if (r.ok && keep(r)) v.push_back(value(r));
  }
  return v;
}

double ms(const Reply& x) { return x.ms; }
double vtime(const Reply& x) { return x.vtime; }
double tail_value(std::vector<double> xs) { return tail(std::move(xs)).value; }
bool any(const Reply&) { return true; }
bool run1(const Reply& x) { return x.kind != Kind::CompileOnly && x.np == 1; }
bool run2(const Reply& x) { return x.kind != Kind::CompileOnly && x.np == 2; }
bool compile_only(const Reply& x) { return x.kind == Kind::CompileOnly; }
bool hit(const Reply& x) { return x.kind == Kind::Hit; }
bool miss(const Reply& x) { return x.kind == Kind::Miss; }
bool traced_run1(const Reply& x) { return run1(x) && x.traced; }
bool untraced_run1(const Reply& x) { return run1(x) && !x.traced; }

/// A statistic over groups of requests that do the same work: `stat` of
/// each (script, class, np) group that `keep` selects, then the geometric
/// mean over the groups. The groups' latencies differ by script and class
/// and do not overlap, so a median pooled over them would be an edge sample
/// of one group, not a typical latency.
struct Grouped {
  double value = 0.0;
  size_t groups = 0;
  size_t smallest = 0;  ///< samples in the smallest group
};

Grouped per_group(const std::vector<Reply>& rs, bool (*keep)(const Reply&),
                  double (*value)(const Reply&),
                  double (*stat)(std::vector<double>)) {
  std::map<std::tuple<size_t, Kind, int>, std::vector<double>> groups;
  for (const Reply& r : rs) {
    if (r.ok && keep(r)) groups[{r.script, r.kind, r.np}].push_back(value(r));
  }
  Grouped g;
  g.groups = groups.size();
  if (groups.empty()) return g;
  g.smallest = groups.begin()->second.size();
  double log_sum = 0.0;
  for (auto& [key, v] : groups) {
    g.smallest = std::min(g.smallest, v.size());
    log_sum += std::log(stat(std::move(v)));
  }
  g.value = std::exp(log_sum / static_cast<double>(groups.size()));
  return g;
}

}  // namespace

Result run_otterd_mix(const Args& a) {
  std::vector<double> setup_s;
  std::vector<double> interp_s;
  Setup s;
  for (double spent = 0.0; more_setups(static_cast<int>(setup_s.size()), spent);
       spent += s.seconds) {
    s = set_up(a);
    setup_s.push_back(s.seconds);
    interp_s.push_back(s.refs[0][0].interp_cpu_s + s.refs[1][0].interp_cpu_s);
  }
  const service::ServiceStats before = s.svc->stats();

  Result r;
  Tracer t;
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> done{0};
  double rss_at = 0.0;  // written by the client that completes kRssAfter
  service::ServiceStats stats_at;
  std::vector<std::vector<Reply>> per_client(kClients);
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(a.seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<Reply>& mine = per_client[static_cast<size_t>(c)];
      try {
        while (Clock::now() < deadline) {
          const uint64_t i = next.fetch_add(1);
          Request rq = request_at(a.seed, i, s.srcs, s.rand_seeds);
          // A traced run alternates traced and untraced blocks; the
          // difference between them is the tracing overhead.
          const bool traced = a.trace && (i / kBlock) % 2 == 1;
          std::unique_ptr<Scope> span;
          if (traced) {
            span = std::make_unique<Scope>(
                t, std::string("service.request_") + kind_name(rq.kind),
                i + 1, -1, 100 + c);
          }
          Reply rep = send(*s.svc, s, rq);
          rep.traced = traced;
          mine.push_back(std::move(rep));
          if (done.fetch_add(1) + 1 == kRssAfter) {
            rss_at = peak_rss_mb();
            stats_at = s.svc->stats();
          }
        }
      } catch (const std::exception& e) {
        Reply failed;
        failed.why = std::string("client stopped: ") + e.what();
        mine.push_back(std::move(failed));
      }
    });
  }
  for (std::thread& th : clients) th.join();
  const double elapsed = seconds_between(start, Clock::now());
  const service::ServiceStats after = s.svc->stats();

  std::vector<Reply> all;
  for (auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  size_t ok = 0;
  for (const Reply& rep : all) {
    ++r.attempted;
    if (rep.ok) {
      ++ok;
    } else {
      r.fail(std::string(kind_name(rep.kind)) + " request: " + rep.why);
    }
  }

  std::fprintf(stderr,
               "otterd_mix: artifact cache after %llu requests: %zu entries, "
               "%.1f MiB, %llu evictions; at the end: %zu entries, %.1f MiB, "
               "%llu evictions\n",
               static_cast<unsigned long long>(kRssAfter),
               stats_at.cache_entries,
               static_cast<double>(stats_at.cache_bytes) / (1024.0 * 1024.0),
               static_cast<unsigned long long>(stats_at.cache_evictions),
               after.cache_entries,
               static_cast<double>(after.cache_bytes) / (1024.0 * 1024.0),
               static_cast<unsigned long long>(after.cache_evictions));

  if (!a.trace) {
    Grouped w1 = per_group(all, run1, ms, median);
    Grouped w1_tail = per_group(all, run1, ms, tail_value);
    Grouped lat_tail = per_group(all, any, ms, tail_value);
    r.set("setup_s", median(setup_s), "s");
    r.set("compile_ms", per_group(all, compile_only, ms, median).value, "ms");
    r.set("wall_p1_s", w1.value / 1e3, "s");
    r.set("wall_p1_tail_s", w1_tail.value / 1e3, "s");
    r.set("wall_pn_s", per_group(all, run2, ms, median).value / 1e3, "s");
    r.set("vtime_p1_s", per_group(all, run1, vtime, median).value, "s");
    r.set("vtime_pn_s", per_group(all, run2, vtime, median).value, "s");
    r.set("req_p50_ms", per_group(all, any, ms, median).value, "ms");
    r.set("req_tail_ms", lat_tail.value, "ms");
    r.set("req_per_s", static_cast<double>(ok) / elapsed, "1/s");
    if (done.load() < kRssAfter) {
      rss_at = peak_rss_mb();
      std::fprintf(stderr,
                   "otterd_mix: only %llu requests completed; peak_rss_mb "
                   "read at the end instead of after %llu\n",
                   static_cast<unsigned long long>(done.load()),
                   static_cast<unsigned long long>(kRssAfter));
    }
    r.set("peak_rss_mb", rss_at, "MiB");
    const Tail pooled_tail = tail(pick(all, any, ms));
    std::fprintf(stderr,
                 "otterd_mix: %zu ok of %llu requests in %.2f s from %d "
                 "closed-loop clients; end-to-end figures are geometric means "
                 "over %zu (script, class, np) groups of per-group medians and "
                 "tails (smallest group %zu samples); pooled over all "
                 "requests: median %.3f ms, tail %.3f ms (p%.1f of %zu); "
                 "peak RSS at the end %.1f MiB\n",
                 ok, static_cast<unsigned long long>(r.attempted), elapsed,
                 kClients, lat_tail.groups, lat_tail.smallest,
                 median(pick(all, any, ms)), pooled_tail.value,
                 pooled_tail.percentile, pooled_tail.samples, peak_rss_mb());
    return r;
  }

  // ---- traced run: service counters, per-class latencies, compile replay
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double lookups =
      hits + static_cast<double>(after.cache_misses - before.cache_misses);
  r.set("service.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  r.set("service.lookups", lookups, "count");
  r.set("service.hit_p50_ms", per_group(all, hit, ms, median).value, "ms");
  r.set("service.miss_p50_ms", per_group(all, miss, ms, median).value, "ms");
  r.set("service.compile_only_p50_ms",
        per_group(all, compile_only, ms, median).value, "ms");
  auto delta = [](uint64_t b, uint64_t e) { return static_cast<double>(e - b); };
  r.set("service.sandbox_spawned",
        delta(before.sandbox_spawned, after.sandbox_spawned), "count");
  r.set("service.sandbox_reaped",
        delta(before.sandbox_reaped, after.sandbox_reaped), "count");
  r.set("service.shed", delta(before.shed, after.shed), "count");
  r.set("service.worker_crashes",
        delta(before.worker_crashes, after.worker_crashes), "count");
  r.set("service.deadline_expired",
        delta(before.deadline_expired, after.deadline_expired), "count");
  double gov_peak = 0.0;
  for (const Reply& x : all) gov_peak = std::max(gov_peak, x.gov_peak);
  r.set("support.gov_peak_mb", gov_peak / (1024.0 * 1024.0), "MiB");
  r.set("interp.run_s", median(interp_s), "s");
  const double tr = per_group(all, traced_run1, ms, median).value / 1e3;
  const double un = per_group(all, untraced_run1, ms, median).value / 1e3;
  r.set("trace.wall_p1_untraced_s", un, "s");
  r.set("trace.wall_p1_traced_s", tr, "s");
  r.set("trace.overhead_ms", 1e3 * (tr - un), "ms");

  // The compile phases of the two scripts, replayed outside the service
  // (its compile runs inside process_line, where no span can reach).
  std::vector<std::string> expect;
  for (const std::string& src : s.srcs) {
    expect.push_back(lower::dump_lir(
        driver::compile_script(src, {}, driver::CompileOptions{})->lir));
  }
  std::map<std::string, std::vector<double>> phase;
  std::vector<std::pair<std::string, double>> counts;
  for (int k = 0; k < kReplays; ++k) {
    const uint64_t sample = 1000000 + static_cast<uint64_t>(k);
    Scope root(t, "bench.replay", sample, -1);
    std::map<std::string, double> sum;
    std::vector<std::pair<std::string, double>> now;
    for (size_t sc = 0; sc < kNumScripts; ++sc) {
      ++r.attempted;
      Scope comp(t, "bench.compile", sample, root.id());
      auto cr = compile_phases(s.srcs[sc], t, sample, comp.id());
      comp.close();
      if (!cr->ok || lower::dump_lir(cr->lir) != expect[sc]) {
        r.fail(std::string("phase-replay LIR of ") + kScripts[sc] +
               " differs from compile_script's");
        continue;
      }
      Scope bcgen(t, "vm.bcgen", sample, root.id());
      vm::BcModule mod = vm::compile_bytecode(cr->lir);
      bcgen.close();
      for (const std::string& name : compile_span_names()) {
        sum[name + "_ms"] +=
            name == "vm.bcgen" ? bcgen.ms() : t.child_ms(comp.id(), name);
      }
      Scope cs(t, "bench.counts", sample, root.id());
      auto c = compile_counts(s.srcs[sc], *cr, mod);
      if (now.empty()) {
        now = c;
      } else {
        for (size_t j = 0; j < c.size(); ++j) now[j].second += c[j].second;
      }
    }
    for (const auto& [name, v] : sum) phase[name].push_back(v);
    if (counts.empty()) counts = now;
    if (counts != now) r.fail("compile counts drifted between replays");
  }
  for (const auto& [name, v] : phase) r.set(name, median(v), "ms");
  for (const auto& [name, v] : counts) r.set(name, v, "count");
  check_counts_across_runs(a, counts, r);
  std::fprintf(stderr,
               "tracing overhead: traced np=1 run requests %.6f s - "
               "untraced %.6f s = %.3f ms\n",
               tr, un, 1e3 * (tr - un));
  finish_trace(a, t, r);
  return r;
}

}  // namespace perfbench
