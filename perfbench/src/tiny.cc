// tiny_evals: a closed loop of warm 2-call n=64 vecmath evaluations from one
// client thread, alternating between the two ways to run Mozart:
//
//  * primary path: a Session on its own ServingContext (plan-cache hit,
//    inline on the caller);
//  * second path: a bare Runtime at 1 thread (no plan cache: it re-plans
//    every evaluation).
//
// The kernels cost ~0.1 µs, so capture, planning or the plan cache, the
// admission decision, Evaluate bookkeeping and Reset are the whole cost.
// The traced run also times the same two calls made directly on vecmath.
#include <cstring>
#include <memory>

#include "common/aligned.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/session.h"
#include "runs.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace pb {
namespace {

constexpr long kN = 64;
constexpr int kVariants = 8;
// Set-ups at the start of each window, after the one before the loop.
constexpr int kSetupsPerWindow = 5;
// Per path and window; a window sees ~150k evaluations on the reference host.
constexpr std::size_t kSamplesPerWindow = 50'000;
constexpr double kAddend = 1.0;

struct Variant {
  mz::AlignedBuffer<double> a{kN}, b{kN}, ref{kN};
};

// The request: out = a * b + 1, as two wrapped calls.
void Capture(const Variant& v, double* out) {
  {
    ScopedSpan call("capture.call");
    mzvec::Mul(kN, v.a.data(), v.b.data(), out);
  }
  ScopedSpan call("capture.call");
  mzvec::AddC(kN, out, kAddend, out);
}

// One request on `rt` (a Session's runtime or the bare one): capture,
// Evaluate, Reset. Returns its wall time in µs. Traced requests get a root
// span with capture.call / evaluate / reset children and add their
// EvalStats difference to `path`.
double Request(mz::Runtime& rt, const Variant& v, double* out, PathLedger* path) {
  const std::int64_t t0 = mz::NowNanos();
  mz::EvalStats::Snapshot before;
  std::int32_t root = -1;
  if (path != nullptr) {
    before = rt.stats().Take();
    root = Tracer::OpenRoot(path->root.c_str(), t0);
  }
  {
    mz::RuntimeScope scope(&rt);
    Capture(v, out);
  }
  {
    ScopedSpan span("evaluate");
    rt.Evaluate();
  }
  {
    ScopedSpan span("reset");
    rt.Reset();
  }
  if (path != nullptr) {
    Tracer::Close(root, mz::NowNanos());
    const mz::EvalStats::Snapshot after = rt.stats().Take();
    // Both paths run one worker wide: the Session's plans run inline, the
    // bare Runtime has one thread.
    path->ledger.Add(after, before, 1);
    path->admission_us.push_back(
        static_cast<double>(after.admission_wait_ns - before.admission_wait_ns) / 1e3);
  }
  return static_cast<double>(mz::NowNanos() - t0) / 1e3;
}

mz::SessionOptions OnContext(mz::ServingContext* ctx) {
  mz::SessionOptions opts;
  opts.serving = ctx;
  return opts;
}

mz::RuntimeOptions OneThread() {
  mz::RuntimeOptions opts;
  opts.num_threads = 1;
  return opts;
}

struct Instance {
  mz::ServingContext ctx;
  mz::Session session{OnContext(&ctx)};
  mz::Runtime bare{OneThread()};
};

}  // namespace

void RunTiny(const Args& args, Report* report) {
  RecordHost(args, kVariants * 3 * kN * 8, report);
  mzvec::EnsureRegistered();
  vecmath::SetNumThreads(1);

  mz::Rng rng(args.seed);
  std::vector<Variant> variants(kVariants);
  for (Variant& v : variants) {
    for (long i = 0; i < kN; ++i) {
      v.a[static_cast<std::size_t>(i)] = rng.NextDouble(-4.0, 4.0);
      v.b[static_cast<std::size_t>(i)] = rng.NextDouble(-4.0, 4.0);
    }
    vecmath::Mul(kN, v.a.data(), v.b.data(), v.ref.data());
    vecmath::AddC(kN, v.ref.data(), kAddend, v.ref.data());
  }
  mz::AlignedBuffer<double> out(kN);
  auto check = [&](const Variant& v, const char* what) {
    ++report->attempted;
    if (std::memcmp(out.data(), v.ref.data(), kN * sizeof(double)) != 0) {
      report->Fail(std::string(what) + " result differs from direct vecmath calls");
    }
  };

  // Set-up: serving context, session and bare runtime, plus the first
  // (cold: plans built, cache filled) request on each path.
  std::vector<double> setup_s;
  auto set_up = [&] {
    const std::int64_t t0 = mz::NowNanos();
    auto fresh = std::make_unique<Instance>();
    Request(fresh->session.runtime(), variants[0], out.data(), nullptr);
    check(variants[0], "session (set-up)");
    Request(fresh->bare, variants[0], out.data(), nullptr);
    check(variants[0], "runtime (set-up)");
    setup_s.push_back(static_cast<double>(mz::NowNanos() - t0) / 1e9);
    return fresh;
  };
  const std::unique_ptr<Instance> inst = set_up();
  mz::Runtime& session_rt = inst->session.runtime();
  mz::Runtime& bare_rt = inst->bare;

  PathLedger session_path("tiny.session");
  PathLedger runtime_path("tiny.runtime");
  Windows session_us(kSamplesPerWindow);
  Windows runtime_us(kSamplesPerWindow);
  std::vector<double> lib_us;
  std::vector<double> traced_us, untraced_us;
  if (args.trace) {
    Tracer::Enable();
  }
  std::int64_t served = 0;
  const std::int64_t start = mz::NowNanos();
  const auto end = start + static_cast<std::int64_t>(args.seconds * 1e9);
  // The client moves to the next CPU each window, so the run samples every
  // CPU of the host rather than whichever one it landed on: on a shared VM
  // one vCPU can run this loop 1.5x slower than another. More set-ups run
  // at each window's start, unpinned (threads inherit the CPU set), so that
  // setup_s samples the host over the whole run: one set-up takes ~0.1 ms,
  // and set-ups made back to back differed 1.7x from one process to the next.
  const std::vector<int> cpus = AllowedCpus();
  int pinned_window = -1;
  for (std::int64_t i = 0, now = start; now < end; ++i, now = mz::NowNanos()) {
    const int window = WindowOf(now, start, end);
    if (window != pinned_window) {
      RunOn(cpus);
      for (int k = 0; k < kSetupsPerWindow; ++k) {
        set_up();
      }
      if (!cpus.empty()) {
        RunOn({cpus[static_cast<std::size_t>(window) % cpus.size()]});
      }
      pinned_window = window;
    }
    const Variant& v = variants[rng.NextBounded(kVariants)];
    // Traced runs cycle traced / untraced pairs so their difference gives
    // the tracing overhead; direct library calls ride along.
    const bool traced = args.trace && i % 2 == 0 && Tracer::Active();
    const double s_us = Request(session_rt, v, out.data(), traced ? &session_path : nullptr);
    check(v, "session");
    const double r_us = Request(bare_rt, v, out.data(), traced ? &runtime_path : nullptr);
    check(v, "runtime");
    session_us.Add(window, s_us);
    runtime_us.Add(window, r_us);
    served += 2;
    if (!args.trace) {
      continue;
    }
    (traced ? traced_us : untraced_us).push_back(s_us + r_us);
    const std::int64_t t0 = mz::NowNanos();
    vecmath::Mul(kN, v.a.data(), v.b.data(), out.data());
    vecmath::AddC(kN, out.data(), kAddend, out.data());
    lib_us.push_back(static_cast<double>(mz::NowNanos() - t0) / 1e3);
    check(v, "direct vecmath");
  }
  const double measured_s = static_cast<double>(mz::NowNanos() - start) / 1e9;
  const double peak_rss_mb = PeakRssMb();  // before result processing allocates

  std::vector<double> session_all = session_us.All();
  std::vector<double> runtime_all = runtime_us.All();
  report->Detail("eval_us", DistJson(session_all));
  report->Detail("runtime_eval_us", DistJson(runtime_all));
  report->Detail("setup_s", DistJson(setup_s));
  if (!args.trace) {
    report->Set("setup_s", Quantile(setup_s, 0.5), "s");
    report->Set("peak_rss_mb", peak_rss_mb, "MB");
    report->Set("p50_ms", session_us.Quantile(0.5) / 1e3, "ms");
    report->Set("tail_ms", session_us.Quantile(kTailQuantile) / 1e3, "ms");
    report->Set("alt_p50_ms", runtime_us.Quantile(0.5) / 1e3, "ms");
    report->Set("alt_tail_ms", runtime_us.Quantile(kTailQuantile) / 1e3, "ms");
    report->Set("goodput_rps", static_cast<double>(served) / measured_s, "1/s");
    return;
  }

  const std::vector<Span> spans = Tracer::Collect();
  SpanIndex index = IndexSpans(spans);
  SetPathMetrics("", session_path, index, report);
  SetPathMetrics("alt.", runtime_path, index, report);
  const double lib = Quantile(lib_us, 0.5);
  report->Set("vecmath.lib_s.p50", lib / 1e6, "s");
  report->Set("speedup_vs_lib", lib / session_us.Quantile(0.5), "x");
  report->Set("alt.speedup_vs_lib", lib / runtime_us.Quantile(0.5), "x");
  report->Set("thread_pool.noop_dispatch_us.p50", NoopDispatchUs(), "us");
  report->Set("trace.overhead_share",
              Quantile(traced_us, 0.5) / Quantile(untraced_us, 0.5) - 1.0, "ratio");
  WriteTrace(args, spans, index, report);
}

}  // namespace pb
