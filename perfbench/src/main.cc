// perfbench: the repository's benchmark binary. One run measures one
// workload for --seconds and prints, as its last stdout line,
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The line before it holds the host record and details.
// Exit status: 0 = all outputs matched their references, 1 = a mismatch or
// unexpected failure (the result is still printed), 2 = the run could not
// be made (no result printed).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source <id>] [--trace-dir <dir>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "harness.h"
#include "runs.h"

namespace {

void PrintResult(const pb::Report& r) {
  std::string detail = "{";
  bool first = true;
  for (const auto& [key, json] : r.detail) {
    detail += (first ? "\"" : ",\"") + key + "\":" + json;
    first = false;
  }
  detail += "}";
  std::printf("{\"detail\":%s}\n", detail.c_str());
  if (!r.first_failure.empty()) {
    std::fprintf(stderr, "perfbench: %lld failed operation(s); first: %s\n",
                 static_cast<long long>(r.failed), r.first_failure.c_str());
  }
  std::string metrics = "{";
  first = true;
  for (const auto& [name, m] : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (first ? "\"" : ",\"") + name + "\":{\"value\":" + value + ",\"unit\":\"" +
               m.unit + "\"}";
    first = false;
  }
  metrics += "}";
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s}\n",
              r.failed == 0 ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

// Every name the mode promises must be present and finite; end-to-end
// values must also be nonzero.
bool Complete(const pb::Report& r, bool trace) {
  const auto expected = trace ? pb::PerLayerMetrics() : pb::EndToEndMetrics();
  bool ok = r.metrics.size() == expected.size();
  for (const auto& [name, unit] : expected) {
    auto it = r.metrics.find(name);
    if (it == r.metrics.end() || it->second.unit != unit || !std::isfinite(it->second.value) ||
        (!trace && it->second.value == 0)) {
      std::fprintf(stderr, "perfbench: metric %s missing, zero or not finite\n", name.c_str());
      ok = false;
    }
  }
  return ok && r.attempted > 0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--source") {
      args.source_id = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const std::map<std::string, void (*)(const pb::Args&, pb::Report*)> workloads = {
      {"bulk_blackscholes", pb::RunBulk},
      {"tiny_evals", pb::RunTiny},
      {"serve_open_mixed", pb::RunServe},
  };
  auto it = workloads.find(args.workload);
  if (!have_workload || it == workloads.end() || !(args.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {bulk_blackscholes|tiny_evals|serve_open_mixed} "
                 "--seed N --seconds S --trace {0|1}\n");
    return 2;
  }
  pb::Report report;
  try {
    it->second(args, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 2;
  }
  if (args.trace) {
    pb::FillMissingPerLayer(&report);
  }
  if (!Complete(report, args.trace)) {
    return 2;
  }
  PrintResult(report);
  return report.failed == 0 ? 0 : 1;
}
