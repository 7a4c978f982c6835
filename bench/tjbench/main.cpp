// tjbench: one workload per process.
//
//   tjbench --workload=W --seed=S --seconds=T --json=FILE [--trace=FILE]
//
// W is apps, forkjoin, promise, async or service. The seed only generates
// inputs, arrivals and the request mix. --trace records spans around the
// benchmark's calls into each layer, enables lock and worker-state
// profiling, runs the probe suite after the workload, and writes the spans
// as Chrome/Perfetto JSON. (async and service turn the flight recorder on,
// and a runtime with the recorder on keeps that profiling on, so those two
// workloads profile in every run.) The result (end-to-end numbers, layer counters, invariant
// checks) goes to --json; bench/tjbench/run.py turns it into metrics.
//
// Exit status: 0 when every invariant held, 1 when one broke, 2 on a usage
// error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "common.hpp"

#ifndef TJBENCH_BUILD_TYPE
#define TJBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using tjbench::Options;
using tjbench::RunResult;

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [a](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return std::strncmp(a, key, n) == 0 ? a + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      o.workload = v;
    } else if (const char* v2 = value("--seed=")) {
      o.seed = std::strtoull(v2, nullptr, 10);
    } else if (const char* v3 = value("--seconds=")) {
      o.seconds = std::strtod(v3, nullptr);
    } else if (const char* v4 = value("--trace=")) {
      o.trace_file = v4;
    } else if (const char* v5 = value("--json=")) {
      o.json_file = v5;
    } else {
      std::fprintf(stderr, "tjbench: unknown argument %s\n", a);
      return false;
    }
  }
  const bool known = o.workload == "apps" || o.workload == "forkjoin" ||
                     o.workload == "promise" || o.workload == "async" ||
                     o.workload == "service";
  if (!known || !(o.seconds > 0 && o.seconds <= 600) || o.json_file.empty()) {
    std::fprintf(stderr,
                 "usage: tjbench --workload=apps|forkjoin|promise|async|"
                 "service --seed=N --seconds=T --json=FILE [--trace=FILE]\n");
    return false;
  }
  return true;
}

std::string to_json(const Options& o, const RunResult& r, bool traced,
                    std::uint64_t spans, std::uint64_t spans_dropped) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
     << ",\"seconds\":" << o.seconds
     << ",\"traced\":" << (traced ? "true" : "false")
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"workers\":" << tjbench::kWorkers << ",\"compiler\":\"gcc "
     << __VERSION__ << "\",\"build_type\":\"" << TJBENCH_BUILD_TYPE
     << "\",\"setup_s\":[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    os << (i != 0 ? "," : "") << r.setup_s[i];
  }
  os << "],\"peak_rss_mb\":" << tjbench::peak_rss_mb()
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"wrong\":" << r.wrong
     << ",\"ops_per_s\":" << r.ops_per_s << ",\"op_p50_us\":" << r.op_p50_us
     << ",\"op_p90_us\":" << r.op_p90_us
     << ",\"op_p99_us\":" << r.op_p99_us << ",\"samples\":" << r.samples
     << ",\"spans\":" << spans << ",\"spans_dropped\":" << spans_dropped
     << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : r.counters) {
    os << (first ? "" : ",") << "\"" << name << "\":" << v;
    first = false;
  }
  os << "},\"checks\":{";
  first = true;
  for (const auto& [name, ok] : r.checks) {
    os << (first ? "" : ",") << "\"" << name
       << "\":" << (ok ? "true" : "false");
    first = false;
  }
  os << "}}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return 2;

  const bool traced = !o.trace_file.empty();
  std::unique_ptr<tjbench::Tracer> tracer;
  // Lock and worker-state profiling in the traced run; async and service
  // runtimes also turn it on themselves, in every run.
  tj::obs::ContentionEnableGuard profiling(traced);
  if (traced) {
    tracer = std::make_unique<tjbench::Tracer>(std::size_t{1} << 17);
    tjbench::g_tracer = tracer.get();
  }

  RunResult r;
  try {
    if (o.workload == "apps") {
      tjbench::run_apps(o, r);
    } else if (o.workload == "service") {
      tjbench::run_service(o, r);
    } else {
      tjbench::run_closed_loop(o, r);
    }
    if (traced) tjbench::run_probes(r);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "tjbench: %s\n", ex.what());
    return 1;
  }

  bool ok = true;
  for (const auto& [name, held] : r.checks) {
    if (!held) {
      std::fprintf(stderr, "tjbench: invariant broken: %s\n", name.c_str());
      ok = false;
    }
  }
  std::ofstream out(o.json_file, std::ios::trunc);
  out << to_json(o, r, traced, traced ? tracer->recorded() : 0,
                 traced ? tracer->dropped() : 0);
  if (!out) {
    std::fprintf(stderr, "tjbench: cannot write %s\n", o.json_file.c_str());
    return 1;
  }
  if (traced && !tracer->write_chrome(o.trace_file)) {
    std::fprintf(stderr, "tjbench: cannot write %s\n", o.trace_file.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
