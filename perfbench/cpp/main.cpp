// otterbench — the repository benchmark driver (see perfbench/README.md).
//
//   otterbench --workload cg|transclos|nbody|otterd_mix --seed N
//              --seconds S --trace 0|1 --scripts DIR [--out DIR]
//
// Human-readable tables go to stderr; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (and writes a Chrome
// trace-event file to --out).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: otterbench --workload cg|transclos|nbody|otterd_mix "
               "--seed N --seconds S --trace 0|1 --scripts DIR [--out DIR]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  a.self_path = argv[0];
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      std::string k = argv[i];
      std::string v = argv[i + 1];
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--scripts") a.scripts_dir = v;
      else if (k == "--out") a.out_dir = v;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || a.scripts_dir.empty() || !(a.seconds > 0)) {
    return usage();
  }

  try {
    perfbench::Result r;
    if (a.workload == "cg" || a.workload == "transclos" ||
        a.workload == "nbody") {
      r = perfbench::run_script_workload(a);
    } else if (a.workload == "otterd_mix") {
      r = perfbench::run_otterd_mix(a);
    } else {
      return usage();
    }
    if (a.trace) perfbench::complete_per_layer(r);
    std::fflush(stderr);
    std::printf("%s\n", r.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "otterbench: %s\n", e.what());
    return 70;
  }
}
