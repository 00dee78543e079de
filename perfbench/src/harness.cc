#include "harness.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/cpu.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace pb {

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Fail(const std::string& why) {
  ++failed;
  if (first_failure.empty()) {
    first_failure = why;
  }
}

// ---- statistics ------------------------------------------------------------

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

int WindowOf(std::int64_t now_ns, std::int64_t start_ns, std::int64_t end_ns) {
  const auto w = (now_ns - start_ns) * kWindows / std::max<std::int64_t>(1, end_ns - start_ns);
  return static_cast<int>(std::clamp<std::int64_t>(w, 0, kWindows - 1));
}

Windows::Windows(std::size_t cap) : cap_(cap), windows_(kWindows) {
  for (Window& w : windows_) {
    w.values.assign(cap, 0.0);  // touch the pages now, not mid-run
    w.values.clear();
  }
}

void Windows::Add(int window, double value) {
  Window& w = windows_[static_cast<std::size_t>(window)];
  const std::int64_t index = w.seen++;
  if (index % w.stride != 0) {
    return;
  }
  if (cap_ > 0 && w.values.size() == cap_) {
    for (std::size_t i = 0; i < cap_ / 2; ++i) {
      w.values[i] = w.values[2 * i];
    }
    w.values.resize(cap_ / 2);
    w.stride *= 2;
    if (index % w.stride != 0) {
      return;
    }
  }
  w.values.push_back(value);
}

void Windows::Append(const Windows& other) {
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const std::vector<double>& from = other.windows_[i].values;
    windows_[i].values.insert(windows_[i].values.end(), from.begin(), from.end());
    windows_[i].seen += other.windows_[i].seen;
  }
}

double Windows::Quantile(double q) {
  double sum = 0;
  int n = 0;
  for (Window& w : windows_) {
    if (!w.values.empty()) {
      sum += pb::Quantile(w.values, q);
      ++n;
    }
  }
  return n > 0 ? sum / n : 0;
}

std::vector<double> Windows::All() const {
  std::vector<double> all;
  for (const Window& w : windows_) {
    all.insert(all.end(), w.values.begin(), w.values.end());
  }
  return all;
}

std::string DistJson(std::vector<double>& v) {
  return "{\"p50\":" + Num(Quantile(v, 0.5)) + ",\"p90\":" + Num(Quantile(v, 0.9)) +
         ",\"p99\":" + Num(Quantile(v, 0.99)) + ",\"max\":" + Num(Quantile(v, 1.0)) +
         ",\"n\":" + std::to_string(v.size()) + "}";
}

// ---- host ------------------------------------------------------------------

std::int64_t LlcBytes() {
  std::int64_t best = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    std::ifstream level_in(dir + "/level");
    std::ifstream size_in(dir + "/size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || size.empty()) {
      continue;
    }
    std::int64_t bytes = std::atoll(size.c_str());
    const char unit = size.back();
    if (unit == 'K') {
      bytes <<= 10;
    } else if (unit == 'M') {
      bytes <<= 20;
    }
    if (level >= 3) {
      best = std::max(best, bytes);
    }
  }
  if (best == 0) {
    best = std::max<long>(0, sysconf(_SC_LEVEL3_CACHE_SIZE));
  }
  return best;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
    }
  }
  return 0;
}

int BenchThreads() { return std::max(1, mz::NumLogicalCpus() / 2); }

void RecordHost(const Args& args, std::int64_t working_set_bytes, Report* report) {
  std::ostringstream os;
  os << "{\"nproc\":" << mz::NumLogicalCpus() << ",\"llc_bytes\":" << LlcBytes()
     << ",\"working_set_bytes\":" << working_set_bytes << ",\"threads\":" << BenchThreads()
     << ",\"seed\":" << args.seed << ",\"workload\":\"" << args.workload
     << "\",\"trace\":" << (args.trace ? 1 : 0) << ",\"source\":\"" << args.source_id << "\"}";
  report->Detail("host", os.str());
}

double NoopDispatchUs() {
  mz::ThreadPool pool(BenchThreads());
  std::vector<double> us;
  us.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = mz::NowNanos();
    pool.RunOnAllWorkers([](int) {});
    us.push_back(static_cast<double>(mz::NowNanos() - t0) / 1e3);
  }
  return Quantile(us, 0.5);
}

std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

void RunOn(const std::vector<int>& cpus) {
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) {
    CPU_SET(c, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

// ---- EvalStats ledger ------------------------------------------------------

void Ledger::Add(const mz::EvalStats::Snapshot& a, const mz::EvalStats::Snapshot& b,
                 double width) {
  auto d = [](std::int64_t x, std::int64_t y) { return static_cast<double>(x - y); };
  planner_ns += d(a.planner_ns, b.planner_ns);
  unprotect_ns += d(a.unprotect_ns, b.unprotect_ns);
  split_ns += d(a.split_ns, b.split_ns);
  task_ns += d(a.task_ns, b.task_ns);
  merge_ns += d(a.merge_ns, b.merge_ns);
  fill_flush_ns += d(a.fill_flush_ns, b.fill_flush_ns);
  evaluations += d(a.evaluations, b.evaluations);
  stages += d(a.stages, b.stages);
  batches += d(a.batches, b.batches);
  pipeline_regions += d(a.pipeline_regions, b.pipeline_regions);
  boundaries_elided += d(a.boundaries_elided, b.boundaries_elided);
  bytes_merge_avoided += d(a.bytes_merge_avoided, b.bytes_merge_avoided);
  plans_built += d(a.plans_built, b.plans_built);
  plan_cache_hits += d(a.plan_cache_hits, b.plan_cache_hits);
  plan_cache_misses += d(a.plan_cache_misses, b.plan_cache_misses);
  serial_evals += d(a.serial_evals, b.serial_evals);
  pooled_evals += d(a.pooled_evals, b.pooled_evals);
  rejected += d(a.shed_evals + a.quota_rejects + a.drained_evals,
                b.shed_evals + b.quota_rejects + b.drained_evals);
  stopped += d(a.deadline_evals + a.cancelled_evals, b.deadline_evals + b.cancelled_evals);
  retries += d(a.retries, b.retries);
  retry_budget_exhausted += d(a.retry_budget_exhausted, b.retry_budget_exhausted);
  circuit_opens += d(a.circuit_opens, b.circuit_opens);
  worker_wall_ns += d(a.split_ns + a.task_ns + a.merge_ns, b.split_ns + b.task_ns + b.merge_ns) /
                    std::max(1.0, width);
}

namespace {

// Per-path per-layer metrics, printed once bare (primary path) and once
// with the "alt." prefix (second path).
const std::vector<std::pair<std::string, std::string>>& PathMetricTable() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"capture.call_us.p50", "us"},
      {"planner.us_per_eval", "us"},
      {"planner.plans_built", "count/eval"},
      {"plan_cache.hit_ratio", "ratio"},
      {"admission.wait_us.p50", "us"},
      {"admission.wait_us.p99", "us"},
      {"admission.inline_ratio", "ratio"},
      {"admission.reject_ratio", "ratio"},
      {"executor.split_us", "us/eval"},
      {"executor.task_us", "us/eval"},
      {"executor.merge_us", "us/eval"},
      {"executor.busy_share", "ratio"},
      {"executor.stages", "count/eval"},
      {"executor.batches", "count/eval"},
      {"executor.pipeline_regions", "count/eval"},
      {"executor.boundaries_elided", "count/eval"},
      {"executor.fill_flush_us", "us/eval"},
      {"executor.merge_bytes_avoided", "B/eval"},
      {"evaluate.us.p50", "us"},
      {"evaluate.unattributed_share", "ratio"},
      {"reset.us.p50", "us"},
      {"resilience.overhead_us.p50", "us"},
      {"baselines.fused_s.p50", "s"},
      {"speedup_vs_lib", "x"},
      {"mozart_over_fused", "x"},
  };
  return table;
}

// Per-layer metrics that describe the whole run rather than one path.
const std::vector<std::pair<std::string, std::string>>& RunMetricTable() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"vecmath.lib_s.p50", "s"},
      {"vecmath.computed_gbps", "GB/s"},
      {"thread_pool.noop_dispatch_us.p50", "us"},
      {"resilience.retries_per_k", "count/k"},
      {"resilience.budget_exhausted", "count"},
      {"resilience.breaker_opens", "count"},
      {"loadgen.lag_ms.p99", "ms"},
      {"loadgen.backlog_end", "count"},
      {"loadgen.max_ok_rate_rps", "1/s"},
      {"loadgen.fail_ratio", "ratio"},
      {"lat_ms.p50.low", "ms"},
      {"lat_ms.p99.low", "ms"},
      {"lat_ms.p50.knee", "ms"},
      {"lat_ms.p99.knee", "ms"},
      {"trace.overhead_share", "ratio"},
  };
  return table;
}

double P50(SpanIndex& spans, const std::string& key, bool self) {
  auto it = spans.find(key);
  if (it == spans.end()) {
    return 0;
  }
  return Quantile(self ? it->second.self_us : it->second.dur_us, 0.5);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> all;
  for (const char* prefix : {"", "alt."}) {
    for (const auto& [name, unit] : PathMetricTable()) {
      all.emplace_back(prefix + name, unit);
    }
  }
  for (const auto& entry : RunMetricTable()) {
    all.push_back(entry);
  }
  return all;
}

std::vector<std::pair<std::string, std::string>> EndToEndMetrics() {
  return {{"setup_s", "s"},       {"peak_rss_mb", "MB"},     {"p50_ms", "ms"},
          {"tail_ms", "ms"},      {"alt_p50_ms", "ms"},      {"alt_tail_ms", "ms"},
          {"goodput_rps", "1/s"}};
}

void SetPathMetrics(const std::string& prefix, PathLedger& path, SpanIndex& spans,
                    Report* report) {
  const Ledger& l = path.ledger;
  const double evals = std::max(1.0, l.evaluations);
  const std::string& root = path.root;
  auto set = [&](const std::string& name, double value, const std::string& unit) {
    report->Set(prefix + name, value, unit);
  };
  set("capture.call_us.p50", P50(spans, root + ":capture.call", false), "us");
  set("planner.us_per_eval", l.planner_ns / evals / 1e3, "us");
  set("planner.plans_built", l.plans_built / evals, "count/eval");
  set("plan_cache.hit_ratio", Ratio(l.plan_cache_hits, l.plan_cache_hits + l.plan_cache_misses),
      "ratio");
  set("admission.wait_us.p50", Quantile(path.admission_us, 0.5), "us");
  set("admission.wait_us.p99", Quantile(path.admission_us, 0.99), "us");
  set("admission.inline_ratio", Ratio(l.serial_evals, l.serial_evals + l.pooled_evals), "ratio");
  set("admission.reject_ratio", Ratio(l.rejected, l.evaluations + l.rejected + l.stopped),
      "ratio");
  set("executor.split_us", l.split_ns / evals / 1e3, "us/eval");
  set("executor.task_us", l.task_ns / evals / 1e3, "us/eval");
  set("executor.merge_us", l.merge_ns / evals / 1e3, "us/eval");
  set("executor.stages", l.stages / evals, "count/eval");
  set("executor.batches", l.batches / evals, "count/eval");
  set("executor.pipeline_regions", l.pipeline_regions / evals, "count/eval");
  set("executor.boundaries_elided", l.boundaries_elided / evals, "count/eval");
  set("executor.fill_flush_us", l.fill_flush_ns / evals / 1e3, "us/eval");
  set("executor.merge_bytes_avoided", l.bytes_merge_avoided / evals, "B/eval");
  // The ledger gap: Evaluate wall time no phase counter accounts for.
  // Split/task/merge are summed across workers, so they count divided by
  // the executor width each evaluation ran on.
  double evaluate_total_us = 0;
  if (auto it = spans.find(root + ":evaluate"); it != spans.end()) {
    for (double us : it->second.dur_us) {
      evaluate_total_us += us;
    }
  }
  const double attributed_us = (l.planner_ns + l.unprotect_ns + l.worker_wall_ns) / 1e3;
  set("executor.busy_share", Ratio(l.worker_wall_ns / 1e3, evaluate_total_us), "ratio");
  set("evaluate.us.p50", P50(spans, root + ":evaluate", false), "us");
  set("evaluate.unattributed_share",
      evaluate_total_us > 0 ? 1.0 - attributed_us / evaluate_total_us : 0, "ratio");
  set("reset.us.p50", P50(spans, root + ":reset", false), "us");
  set("resilience.overhead_us.p50", P50(spans, root + ":resilient.eval", true), "us");
}

void FillMissingPerLayer(Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (report->metrics.find(name) == report->metrics.end()) {
      report->Set(name, 0, unit);
    }
  }
}

// ---- tracing ---------------------------------------------------------------

namespace {

// ~40 MB of spans per thread; past that a thread's operations run untraced.
constexpr std::size_t kMaxSpansPerThread = 1'000'000;
constexpr std::size_t kMaxSpansWritten = 100'000;

struct ThreadSpans {
  std::vector<Span> spans;
  std::vector<std::int32_t> stack;
  std::int64_t request = 0;
  std::int32_t thread = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_next_request{1};
std::atomic<std::int64_t> g_dropped{0};
std::mutex g_threads_mu;
// Owned here, not by the threads, so spans outlive the threads that made them.
std::vector<std::unique_ptr<ThreadSpans>> g_threads;

ThreadSpans& Local() {
  thread_local ThreadSpans* local = [] {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    g_threads.back()->thread = static_cast<std::int32_t>(g_threads.size() - 1);
    g_threads.back()->spans.reserve(1 << 16);
    return g_threads.back().get();
  }();
  return *local;
}

}  // namespace

void Tracer::Enable() { g_enabled.store(true, std::memory_order_relaxed); }

bool Tracer::Active() {
  if (!g_enabled.load(std::memory_order_relaxed)) {
    return false;
  }
  ThreadSpans& t = Local();
  return t.spans.size() + 64 < kMaxSpansPerThread;
}

namespace {

std::int32_t Push(ThreadSpans& t, const char* name, std::int64_t start_ns) {
  if (t.spans.size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.request = t.request;
  s.parent = t.stack.empty() ? -1 : t.stack.back();
  s.thread = t.thread;
  t.spans.push_back(s);
  const auto index = static_cast<std::int32_t>(t.spans.size() - 1);
  t.stack.push_back(index);
  return index;
}

}  // namespace

std::int32_t Tracer::OpenRoot(const char* name, std::int64_t start_ns) {
  if (!Active()) {
    return -1;
  }
  ThreadSpans& t = Local();
  t.request = g_next_request.fetch_add(1, std::memory_order_relaxed);
  return Push(t, name, start_ns);
}

std::int32_t Tracer::Open(const char* name, std::int64_t start_ns) {
  if (!g_enabled.load(std::memory_order_relaxed)) {
    return -1;
  }
  ThreadSpans& t = Local();
  return t.stack.empty() ? -1 : Push(t, name, start_ns);
}

void Tracer::Close(std::int32_t index, std::int64_t end_ns) {
  if (index < 0) {
    return;
  }
  ThreadSpans& t = Local();
  t.spans[static_cast<std::size_t>(index)].end_ns = end_ns;
  // Spans close in LIFO order; pop through the closed one.
  while (!t.stack.empty()) {
    const std::int32_t top = t.stack.back();
    t.stack.pop_back();
    if (top == index) {
      break;
    }
  }
}

void Tracer::Record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  const std::int32_t index = Open(name, start_ns);
  Close(index, end_ns);
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  std::vector<Span> all;
  for (const auto& t : g_threads) {
    const auto offset = static_cast<std::int32_t>(all.size());
    for (Span s : t->spans) {
      if (s.parent >= 0) {
        s.parent += offset;
      }
      all.push_back(s);
    }
  }
  return all;
}

std::int64_t Tracer::dropped() { return g_dropped.load(); }

ScopedSpan::ScopedSpan(const char* name) : index_(Tracer::Open(name, mz::NowNanos())) {}

ScopedSpan::~ScopedSpan() { Tracer::Close(index_, mz::NowNanos()); }

SpanIndex IndexSpans(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  std::vector<std::int32_t> root(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Parents precede their children, so the parent's root is known.
    root[i] = s.parent < 0 ? static_cast<std::int32_t>(i)
                           : root[static_cast<std::size_t>(s.parent)];
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  SpanIndex index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::string key = s.name;
    if (s.parent >= 0) {
      key = std::string(spans[static_cast<std::size_t>(root[i])].name) + ":" + s.name;
    }
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    SpanTimes& t = index[key];
    t.dur_us.push_back(dur / 1e3);
    t.self_us.push_back((dur - child_ns[i]) / 1e3);
  }
  return index;
}

void WriteTrace(const Args& args, const std::vector<Span>& spans, SpanIndex& index,
                Report* report) {
  const std::string path =
      args.trace_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    t0 = std::min(t0, s.start_ns);
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"traceEvents\":[\n");
    const std::size_t n = std::min(spans.size(), kMaxSpansWritten);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%lld}}\n",
                   i == 0 ? "" : ",", s.name, s.thread, static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   static_cast<long long>(s.request));
    }
    std::fprintf(f, "],\"spans_total\":%zu,\"spans_written\":%zu}\n", spans.size(), n);
    std::fclose(f);
  }
  std::ostringstream os;
  os << "{\"file\":\"" << path << "\",\"spans\":" << spans.size()
     << ",\"dropped\":" << Tracer::dropped() << ",\"by_name\":{";
  bool first = true;
  for (auto& [key, t] : index) {
    os << (first ? "" : ",") << "\"" << key << "\":{\"n\":" << t.dur_us.size()
       << ",\"dur_us_p50\":" << Num(Quantile(t.dur_us, 0.5))
       << ",\"self_us_p50\":" << Num(Quantile(t.self_us, 0.5)) << "}";
    first = false;
  }
  os << "}}";
  report->Detail("trace", os.str());
}

}  // namespace pb
