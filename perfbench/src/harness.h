// Shared pieces of the perfbench harness: run arguments, the result report,
// percentiles, host facts, the EvalStats ledger diff, and the span tracer.
//
// Everything here observes the runtime from outside: spans wrap the
// benchmark's own calls into each layer's public functions, and per-layer
// counters come from differences of EvalStats::Take() snapshots.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.h"

namespace pb {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string source_id = "unknown";
  std::string trace_dir = ".";
};

// Result of one run. `metrics` holds exactly the names the mode prints
// (every end-to-end metric untraced, every per-layer metric traced);
// `detail` carries the host record and workload-specific numbers as raw
// JSON values, printed on the line before the result.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Detail(const std::string& key, const std::string& json_value) { detail[key] = json_value; }
  // Counts one operation whose output differs from the reference, or that
  // failed in a way its workload does not expect.
  void Fail(const std::string& why);

  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> detail;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_failure;
};

// ---- statistics ------------------------------------------------------------

// Nearest-rank quantile of `v` (sorted in place); 0 for an empty sample.
double Quantile(std::vector<double>& v, double q);

// Every workload splits its run into this many consecutive time windows.
constexpr int kWindows = 10;
// The window that `now_ns` falls in, for a run from `start_ns` to `end_ns`.
int WindowOf(std::int64_t now_ns, std::int64_t start_ns, std::int64_t end_ns);

// The quantile every `tail` metric reports.
constexpr double kTailQuantile = 0.90;

// The samples of one measured path, by time window. Every workload reports
// a path's p50 and tail as Quantile(0.5) and Quantile(kTailQuantile): the
// mean over the windows of each window's quantile. A stall episode of the
// host then moves one window's value, and where successive windows run on
// different CPUs (tiny_evals), the result averages over the CPUs instead of
// jumping between a fast and a slow one.
//
// With a cap, each window's memory is allocated and touched up front, so
// peak RSS does not grow with the operation count: once a window holds
// `cap` values it keeps every second one and samples half as often from
// then on, which keeps the kept values spread evenly over the window.
class Windows {
 public:
  Windows() : Windows(0) {}  // keeps every value
  explicit Windows(std::size_t cap);
  void Add(int window, double value);
  // Appends `other`'s values window by window (both uncapped).
  void Append(const Windows& other);
  double Quantile(double q);
  std::vector<double> All() const;

 private:
  struct Window {
    std::vector<double> values;
    std::int64_t seen = 0;
    std::int64_t stride = 1;
  };
  std::size_t cap_;
  std::vector<Window> windows_;
};

// {"p50":..,"p90":..,"p99":..,"max":..,"n":..} of a whole run, for the
// detail record.
std::string DistJson(std::vector<double>& v);

// ---- host ------------------------------------------------------------------

std::int64_t LlcBytes();
double PeakRssMb();
// T = max(1, nproc / 2): the executor width the workloads run at.
int BenchThreads();
// Adds the host record every result carries.
void RecordHost(const Args& args, std::int64_t working_set_bytes, Report* report);
// Median wall time of one no-op RunOnAllWorkers on a T-wide pool, µs.
double NoopDispatchUs();
// The CPUs the calling thread may run on.
std::vector<int> AllowedCpus();
// Lets the calling thread run on exactly `cpus` (no-op when empty). Threads
// inherit their creator's CPU set, so create threads only while the caller
// may run on all of AllowedCpus().
void RunOn(const std::vector<int>& cpus);

// ---- EvalStats ledger ------------------------------------------------------

// The counters the per-layer metrics read, summed over differences of
// EvalStats snapshots taken around the traced evaluations.
struct Ledger {
  double planner_ns = 0, unprotect_ns = 0;
  double split_ns = 0, task_ns = 0, merge_ns = 0, fill_flush_ns = 0;
  double evaluations = 0, stages = 0, batches = 0, pipeline_regions = 0;
  double boundaries_elided = 0, bytes_merge_avoided = 0;
  double plans_built = 0, plan_cache_hits = 0, plan_cache_misses = 0;
  double serial_evals = 0, pooled_evals = 0;
  double rejected = 0;  // shed + quota + drained
  double stopped = 0;   // deadline + cancelled
  double retries = 0, retry_budget_exhausted = 0, circuit_opens = 0;
  // Split + task + merge time divided by the executor width each
  // evaluation ran on: the wall time an average worker was busy.
  double worker_wall_ns = 0;

  // Adds the difference of two snapshots of evaluations that ran `width`
  // workers wide.
  void Add(const mz::EvalStats::Snapshot& after, const mz::EvalStats::Snapshot& before,
           double width);
};

// One measured path of a workload (e.g. the Session path of tiny_evals):
// the root span name its requests are traced under, the counters of its
// traced evaluations, and their per-evaluation admission waits.
struct PathLedger {
  explicit PathLedger(std::string root_span) : root(std::move(root_span)) {}
  std::string root;
  Ledger ledger;
  std::vector<double> admission_us;
};

// Duration and self time (duration minus the time its child spans cover)
// of spans grouped by "<root name>:<name>" (roots by their own name), µs.
struct SpanTimes {
  std::vector<double> dur_us;
  std::vector<double> self_us;
};
using SpanIndex = std::map<std::string, SpanTimes>;

// Writes the per-layer metrics of one path under `prefix` ("" for the
// workload's primary path, "alt." for its second one).
void SetPathMetrics(const std::string& prefix, PathLedger& path, SpanIndex& spans,
                    Report* report);
// Every traced run prints every per-layer name; a name the workload did not
// set is printed as 0, meaning the workload does not exercise that layer.
void FillMissingPerLayer(Report* report);
// The name → unit tables of the two modes.
std::vector<std::pair<std::string, std::string>> PerLayerMetrics();
std::vector<std::pair<std::string, std::string>> EndToEndMetrics();

// ---- tracing ---------------------------------------------------------------

// One timed call into a layer. Spans of one request share `request`;
// `parent` indexes the enclosing span in Collect()'s result (-1 = root).
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t request = 0;
  std::int32_t parent = -1;
  std::int32_t thread = 0;
};

// Spans are kept in per-thread memory and written out when the run ends.
class Tracer {
 public:
  static void Enable();
  // False when tracing is off or this thread's span buffer is full; callers
  // then run the operation untraced.
  static bool Active();

  // Starts a traced request on this thread and opens its root span.
  // Returns -1 (the request runs untraced) when tracing is inactive.
  static std::int32_t OpenRoot(const char* name, std::int64_t start_ns);
  // Opens / closes a span on the calling thread's stack. Open returns -1
  // outside a traced request, and Close(-1) is a no-op.
  static std::int32_t Open(const char* name, std::int64_t start_ns);
  static void Close(std::int32_t index, std::int64_t end_ns);
  // Records an already-closed span under the innermost open one (for
  // intervals observed through runtime hooks).
  static void Record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  // Spans of every thread, merged. Call once traced threads have stopped.
  static std::vector<Span> Collect();
  static std::int64_t dropped();
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_;
};

SpanIndex IndexSpans(const std::vector<Span>& spans);
// Writes the spans as Chrome trace-event JSON (loadable by Perfetto) under
// the trace directory and records the path and a per-name summary in the
// report's detail.
void WriteTrace(const Args& args, const std::vector<Span>& spans, SpanIndex& index,
                Report* report);

}  // namespace pb

#endif  // PERFBENCH_HARNESS_H_
