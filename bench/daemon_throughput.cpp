// Throughput/latency benchmark for the otterd compile service (in-process:
// the Service is driven directly, no socket, so the numbers isolate the
// compile pipeline + artifact cache from transport noise).
//
// Two phases over the same request mix, driven by concurrent client
// threads:
//   * cold-cache — every script is new: each request pays a full
//     parse→infer→lower→optimize compile before running.
//   * warm-cache — the same scripts again (several rounds): requests hit
//     the content-addressed artifact cache and skip straight to execution.
//
// Reported per phase: compiles/sec and p50/p99 request latency. The JSON
// records land in BENCH_otter.json via scripts/run_bench.sh with
// backend = "cold-cache" / "warm-cache"; their `seconds` is the phase's
// per-request median latency, so the two rows compare like with like
// although the warm phase runs four times as many requests.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "figure_common.hpp"
#include "service/server.hpp"
#include "support/json.hpp"

namespace {

using namespace otter;
using Clock = std::chrono::steady_clock;

constexpr int kClientThreads = 4;
constexpr int kDistinctScripts = 48;
constexpr int kWarmRounds = 4;

std::string script_for(int i) {
  // Distinct content (different hash) per script; modest matrix work so the
  // cold phase is compile-dominated, the way a compile service's load is.
  int n = 8 + (i % 7);
  return "a = ones(" + std::to_string(n) + "," + std::to_string(n) +
         "); b = a * 2 + " + std::to_string(i) +
         "; c = b * a; disp(sum(sum(c)))";
}

struct Phase {
  double wall_seconds = 0.0;
  std::vector<double> latencies;  // per-request, seconds
  uint64_t errors = 0;
};

/// Drives `requests` through the service from kClientThreads threads,
/// timing each request end to end.
Phase drive(service::Service& svc, const std::vector<std::string>& requests) {
  Phase phase;
  phase.latencies.resize(requests.size());
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> errors{0};
  Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= requests.size()) return;
        Clock::time_point t0 = Clock::now();
        std::string resp_line = svc.process_line(requests[i]);
        phase.latencies[i] =
            std::chrono::duration<double>(Clock::now() - t0).count();
        auto resp = json::parse(resp_line);
        if (!resp || resp->get_string("status", "") != "ok") {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  phase.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  phase.errors = errors.load();
  return phase;
}

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(xs.size() - 1));
  return xs[idx];
}

void report(const char* label, const Phase& phase, long size) {
  double rps = static_cast<double>(phase.latencies.size()) / phase.wall_seconds;
  double p50 = percentile(phase.latencies, 0.50);
  std::printf("%-12s %5zu requests in %7.3f s  |  %8.1f req/s  "
              "p50 %7.3f ms  p99 %7.3f ms\n",
              label, phase.latencies.size(), phase.wall_seconds, rps,
              p50 * 1e3, percentile(phase.latencies, 0.99) * 1e3);
  otter::bench::bench_records().push_back(
      {"daemon_throughput", "ideal", kClientThreads, size, p50, 0, label});
}

}  // namespace

int main(int argc, char** argv) {
  otter::bench::parse_bench_args(argc, argv);

  std::printf("=== daemon_throughput: compile service, cold vs warm cache "
              "===\n");
  std::printf("%d client threads, %d distinct scripts, %d warm rounds, "
              "in-process Service\n\n",
              kClientThreads, kDistinctScripts, kWarmRounds);

  service::ServiceConfig cfg;
  cfg.cache_bytes = 256ull << 20;  // never evict during the measurement
  service::Service svc(cfg);

  std::vector<std::string> cold_requests;
  cold_requests.reserve(kDistinctScripts);
  for (int i = 0; i < kDistinctScripts; ++i) {
    json::JValue req{json::JObject{}};
    req.set("script", script_for(i));
    req.set("np", 1);
    cold_requests.push_back(req.dump());
  }
  std::vector<std::string> warm_requests;
  warm_requests.reserve(cold_requests.size() * kWarmRounds);
  for (int r = 0; r < kWarmRounds; ++r) {
    warm_requests.insert(warm_requests.end(), cold_requests.begin(),
                         cold_requests.end());
  }

  Phase cold = drive(svc, cold_requests);
  report("cold-cache", cold, kDistinctScripts);
  Phase warm = drive(svc, warm_requests);
  report("warm-cache", warm, kDistinctScripts);

  const service::ServiceStats stats = svc.stats();
  std::printf("\ncache: %llu hits, %llu misses, %zu entries, %zu bytes\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              stats.cache_entries, stats.cache_bytes);
  if (cold.errors + warm.errors > 0) {
    std::fprintf(stderr, "daemon_throughput: %llu requests failed\n",
                 static_cast<unsigned long long>(cold.errors + warm.errors));
    return 1;
  }
  if (stats.cache_hits != warm_requests.size()) {
    std::fprintf(stderr,
                 "daemon_throughput: expected every warm request to hit "
                 "the cache (%zu != %llu)\n",
                 warm_requests.size(),
                 static_cast<unsigned long long>(stats.cache_hits));
    return 1;
  }

  double speedup = (cold.wall_seconds / static_cast<double>(cold_requests.size())) /
                   (warm.wall_seconds / static_cast<double>(warm_requests.size()));
  std::printf("warm-cache per-request speedup over cold: %.1fx\n", speedup);

  otter::bench::write_bench_json();
  return 0;
}
