#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "support/json.hpp"

namespace perfbench {

using namespace otter;

// -- result record --------------------------------------------------------------

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Result::fail(const std::string& why) {
  ++failed;
  correct = false;
  // Only the first few reasons: a systematic failure repeats every sample.
  if (failed <= 5) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

std::string Result::to_json() const {
  json::JValue values{json::JObject{}};
  for (const Metric& m : metrics) {
    json::JValue one{json::JObject{}};
    one.set("value", std::isfinite(m.value) ? m.value : 0.0);
    one.set("unit", m.unit);
    values.set(m.name, std::move(one));
  }
  json::JValue out{json::JObject{}};
  out.set("correct", correct);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(values));
  return out.dump();
}

// -- order statistics ---------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail tail(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  size_t idx = 0;
  if (n > 10) {
    // p90 caps the rank: higher ones track rare host preemptions, not Otter.
    idx = std::min(n - 11, (9 * n + 9) / 10 - 1);
  }
  t.value = xs[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

double peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// -- tracing --------------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int64_t Tracer::begin(std::string name, uint64_t sample, int64_t parent,
                      int tid) {
  double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = std::move(name);
  s.start_us = t;
  s.end_us = t;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.sample = sample;
  s.tid = tid;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(int64_t id) {
  double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<size_t>(id)).end_us = t;
}

double Tracer::duration_ms(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_.at(static_cast<size_t>(id));
  return (s.end_us - s.start_us) / 1000.0;
}

double Tracer::child_ms(int64_t parent, const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double us = 0.0;
  for (size_t i = static_cast<size_t>(parent) + 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent == parent && s.name == name) us += s.end_us - s.start_us;
  }
  return us / 1000.0;
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  json::JArray events;
  for (const Span& s : spans_) {
    json::JValue args{json::JObject{}};
    args.set("id", s.id);
    args.set("parent", s.parent);
    args.set("sample", s.sample);
    json::JValue e{json::JObject{}};
    e.set("name", s.name);
    e.set("cat", s.name.substr(0, s.name.find('.')));
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", s.tid);
    e.set("ts", s.start_us);
    e.set("dur", s.end_us - s.start_us);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  json::JValue doc{json::JObject{}};
  doc.set("displayTimeUnit", "ms");
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << doc.dump() << "\n";
}

namespace {

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_s = 0.0;
  double cur_e = -1.0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

std::vector<std::pair<std::string, double>> self_ms(
    const std::vector<Span>& spans, bool by_layer) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
    }
  }
  std::map<std::string, double> acc;
  for (const Span& s : spans) {
    double self_us = (s.end_us - s.start_us) -
                     union_length(kids[static_cast<size_t>(s.id)]);
    std::string key = by_layer ? s.name.substr(0, s.name.find('.')) : s.name;
    acc[key] += self_us / 1000.0;
  }
  std::vector<std::pair<std::string, double>> out(acc.begin(), acc.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace

std::vector<std::pair<std::string, double>> Tracer::self_ms_by_name() const {
  std::lock_guard<std::mutex> lock(mu_);
  return self_ms(spans_, false);
}

std::vector<std::pair<std::string, double>> Tracer::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  return self_ms(spans_, true);
}

void finish_trace(const Args& a, const Tracer& t, Result& r) {
  r.set("bench.fail_ratio",
        r.attempted > 0 ? static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted)
                        : 0.0,
        "ratio");
  auto layers = t.self_ms_by_layer();
  double total = 0.0;
  for (const auto& [name, ms] : layers) total += ms;
  std::fprintf(stderr, "\nself time by layer (all traced samples):\n");
  for (const auto& [name, ms] : layers) {
    std::fprintf(stderr, "  %-12s %12.3f ms  %5.1f%%\n", name.c_str(), ms,
                 total > 0 ? 100.0 * ms / total : 0.0);
  }
  std::fprintf(stderr, "self time by span:\n");
  for (const auto& [name, ms] : t.self_ms_by_name()) {
    std::fprintf(stderr, "  %-32s %12.3f ms\n", name.c_str(), ms);
  }
  if (!a.out_dir.empty()) {
    std::string path = a.out_dir + "/trace-" + a.workload + "-" +
                       std::to_string(a.seed) + ".json";
    t.write_chrome(path);
    std::fprintf(stderr, "chrome trace (open in Perfetto): %s\n",
                 path.c_str());
  }
}

// -- per-layer metric catalogue -----------------------------------------------

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> cat = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"frontend.parse_ms", "ms"},
        {"frontend.tokens", "count"},
        {"sema.resolve_ms", "ms"},
        {"sema.infer_ms", "ms"},
        {"lower.lower_ms", "ms"},
        {"lower.opt_ms", "ms"},
        {"lower.lir_stmts", "count"},
        {"lower.fused", "count"},
        {"lower.cse_removed", "count"},
        {"lower.hoists", "count"},
        {"lower.swept", "count"},
        {"analysis.absint_ms", "ms"},
        {"analysis.verify_ms", "ms"},
        {"analysis.guards_eliminated", "count"},
        {"vm.bcgen_ms", "ms"},
        {"vm.bc_instrs", "count"},
        {"vm.instrs_dispatched", "count"},
        {"vm.ic_hits", "count"},
        {"vm.ic_misses", "count"},
        {"vm.ic_lookups", "count"},
        {"vm.ic_hit_ratio", "ratio"},
        {"driver.execute_ms_p1", "ms"},
        {"driver.execute_ms_p4", "ms"},
        {"minimpi.spawn_join_ms_p1", "ms"},
        {"minimpi.spawn_join_ms_p4", "ms"},
        {"minimpi.comm_ops_p4", "count"},
        {"minimpi.comm_vtime_p4_s", "s"},
        {"minimpi.vtime_p4_s", "s"},
        {"minimpi.comm_share_p4", "ratio"},
    };
    for (const char* call : {"matvec", "transpose", "fill_rand", "dot",
                             "matmul", "ew_binary", "reduce_mean"}) {
      std::string base = std::string("rtlib.") + call;
      c.emplace_back(base + "_ms_p1", "ms");
      c.emplace_back(base + "_ms_p4", "ms");
      c.emplace_back(base + "_ops_computed", "count");
      c.emplace_back(base + "_bytes_computed", "B");
    }
    std::vector<std::pair<std::string, std::string>> rest = {
        {"support.gov_peak_mb", "MiB"},
        {"interp.run_s", "s"},
        {"paper.speedup_p1", "ratio"},
        {"paper.speedup_p4", "ratio"},
        {"service.hit_ratio", "ratio"},
        {"service.lookups", "count"},
        {"service.hit_p50_ms", "ms"},
        {"service.miss_p50_ms", "ms"},
        {"service.compile_only_p50_ms", "ms"},
        {"service.sandbox_spawned", "count"},
        {"service.sandbox_reaped", "count"},
        {"service.shed", "count"},
        {"service.worker_crashes", "count"},
        {"service.deadline_expired", "count"},
        {"codegen.c_bytes", "B"},
        {"bench.fail_ratio", "ratio"},
        {"trace.wall_p1_untraced_s", "s"},
        {"trace.wall_p1_traced_s", "s"},
        {"trace.overhead_ms", "ms"},
    };
    c.insert(c.end(), rest.begin(), rest.end());
    return c;
  }();
  return cat;
}

void complete_per_layer(Result& r) {
  std::vector<Result::Metric> ordered;
  for (const auto& [name, unit] : per_layer_catalogue()) {
    Result::Metric m{name, 0.0, unit};
    for (const Result::Metric& have : r.metrics) {
      if (have.name == name) m.value = have.value;
    }
    ordered.push_back(m);
  }
  r.metrics = std::move(ordered);
}

void check_counts_across_runs(
    const Args& a, const std::vector<std::pair<std::string, double>>& counts,
    Result& r) {
  struct stat st{};
  if (a.out_dir.empty() || stat(a.self_path.c_str(), &st) != 0) return;
  std::ostringstream now;
  now << "binary " << st.st_size << " " << st.st_mtime << "\n";
  for (const auto& [name, v] : counts) now << name << " " << json::JValue(v).dump() << "\n";
  std::string path = a.out_dir + "/counts-" + a.workload + "-" +
                     std::to_string(a.seed) + ".txt";
  std::ifstream in(path, std::ios::binary);
  if (in) {
    std::ostringstream before;
    before << in.rdbuf();
    // A record from another build of the binary says nothing about this one.
    std::string first_line = now.str().substr(0, now.str().find('\n'));
    if (before.str().rfind(first_line, 0) == 0) {
      if (before.str() != now.str()) {
        r.fail("count metrics drifted from an earlier run at seed " +
               std::to_string(a.seed) + " (see " + path + ")");
      }
      return;
    }
  }
  std::ofstream out(path, std::ios::binary);
  out << now.str();
}

}  // namespace perfbench
