// Shared pieces of the repository benchmark (see perfbench/README.md):
// command-line arguments, the result record printed as the last line of
// output, order statistics, and the in-memory span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scripts_dir;  ///< the repository's scripts/
  std::string out_dir;      ///< trace files and count records go here
  std::string self_path;    ///< this binary (fingerprints count records)
};

/// What one run prints as the last line of standard output.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  /// Records a failed attempt and why (printed to stderr).
  void fail(const std::string& why);
  [[nodiscard]] std::string to_json() const;
};

// -- order statistics ---------------------------------------------------------

double median(std::vector<double> xs);

/// The tail of n samples: p90, or the highest percentile that still has at
/// least ten samples above it when that is lower (the (n-10)-th smallest;
/// the smallest when n <= 10).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< share of samples at or below `value`, x100
  size_t samples = 0;
};
Tail tail(std::vector<double> xs);

/// Peak resident set size in MiB: the larger of this process and its
/// largest waited-for child.
double peak_rss_mb();

/// Whether to set up once more after `done` set-ups took `spent` seconds:
/// at least 3, and up to 15 while under 2 s, so cheap set-ups still give a
/// steady median.
inline bool more_setups(int done, double spent) {
  return done < 3 || (done < 15 && spent < 2.0);
}

std::string read_file(const std::string& path);

// -- tracing --------------------------------------------------------------------

/// One timed interval. Spans of one sample share `sample`; `parent` is the
/// id of the span that caused this one (-1 for a root).
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t id = -1;
  int64_t parent = -1;
  uint64_t sample = 0;
  int tid = 0;  ///< 0 = benchmark thread, r+1 = rank r, 100+c = client c
};

/// Keeps spans in memory; written out once at the end of a traced run. All
/// members are safe to call from rank and client threads.
class Tracer {
 public:
  Tracer();

  int64_t begin(std::string name, uint64_t sample, int64_t parent, int tid);
  void end(int64_t id);
  [[nodiscard]] double duration_ms(int64_t id) const;
  /// Total duration in ms of the spans named `name` directly under `parent`.
  [[nodiscard]] double child_ms(int64_t parent, const std::string& name) const;

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  void write_chrome(const std::string& path) const;

  /// Self time (duration minus the union of its children's intervals),
  /// summed per span name and per layer (the name's prefix before '.').
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms_by_name()
      const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms_by_layer()
      const;

 private:
  [[nodiscard]] double now_us() const;

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; id == index
};

/// RAII span. Nesting is explicit: pass the parent's id.
class Scope {
 public:
  Scope(Tracer& t, std::string name, uint64_t sample, int64_t parent,
        int tid = 0)
      : t_(t), id_(t.begin(std::move(name), sample, parent, tid)) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void close() {
    if (!closed_) t_.end(id_);
    closed_ = true;
  }
  [[nodiscard]] int64_t id() const { return id_; }
  [[nodiscard]] double ms() const { return t_.duration_ms(id_); }

 private:
  Tracer& t_;
  int64_t id_;
  bool closed_ = false;
};

/// Ends a traced run: sets bench.fail_ratio, prints the per-layer and
/// per-span self-time tables to stderr and writes the Chrome trace to
/// a.out_dir.
void finish_trace(const Args& a, const Tracer& t, Result& r);

// -- per-layer metric catalogue -----------------------------------------------

/// Every per-layer metric a traced run reports, in output order, with its
/// unit. A workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue();

/// Fills every catalogue metric `r` lacks with 0, in catalogue order.
void complete_per_layer(Result& r);

/// Compares the counts of this run with those recorded by an earlier run of
/// the same binary, workload and seed (and records them when none exist).
/// Any difference is reported as a failure.
void check_counts_across_runs(const Args& a,
                              const std::vector<std::pair<std::string, double>>&
                                  counts,
                              Result& r);

// -- workloads ------------------------------------------------------------------

Result run_script_workload(const Args& a);
Result run_otterd_mix(const Args& a);

}  // namespace perfbench
