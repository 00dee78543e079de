// bulk_blackscholes: the paper's Black Scholes (the 27-call vecmath chain
// over 14M-element arrays, one Evaluate per iteration) on two bare Runtimes,
// alternating in one process so host drift hits both:
//
//  * the primary path at T threads (Fig. 4a);
//  * the second path at 1 thread (Fig. 1), where the gain over the library
//    is pipelining alone.
//
// The working set must be at least 4x the last-level cache, so the chain
// streams from memory and the executor's pipelined batch loop plus the
// kernels do nearly all the work; per-eval fixed cost is ~0 here.
//
// The traced run interleaves the unannotated library (1 thread, NumPy mode)
// and the hand-fused baseline with the Mozart iterations (A,B,A,B).
//
// Black Scholes keeps its outputs between iterations, and workloads:: offers
// no way to clear them, so a timed iteration's checksum catches wrong values
// but not skipped writes. Iterations on freshly allocated (zero) buffers
// catch those: the cold one of each set-up, and one more after the measured
// loop on each warmed runtime.
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/timer.h"
#include "core/runtime.h"
#include "vecmath/vecmath.h"
#include "runs.h"
#include "workloads/numerical.h"

namespace pb {
namespace {

constexpr long kBsElems = 14'000'000;
constexpr long kBsArrays = 12;  // the BlackScholes buffers every mode touches
// Array operands (reads + writes) across the 27 calls of the Black Scholes
// chain: the bytes the library would stream per iteration.
constexpr long kBsOperandStreams = 65;
constexpr int kSetups = 3;
// The relative tolerance tests/workloads/workloads_test.cc compares
// Black Scholes checksums with.
constexpr double kRelTol = 1e-9;

bool Agrees(double value, double ref) {
  return std::abs(value - ref) <= std::abs(ref) * kRelTol + 1e-9;
}

double MsSince(std::int64_t t0) { return static_cast<double>(mz::NowNanos() - t0) / 1e6; }

mz::RuntimeOptions WithThreads(int threads) {
  mz::RuntimeOptions opts;
  opts.num_threads = threads;
  return opts;
}

struct Instance {
  explicit Instance(std::uint64_t seed)
      : bs(std::in_place, kBsElems, seed),
        rt(WithThreads(BenchThreads())),
        rt1(WithThreads(1)) {}
  std::optional<workloads::BlackScholes> bs;
  mz::Runtime rt;   // T threads
  mz::Runtime rt1;  // 1 thread
};

// One Mozart iteration (capture + Evaluate + Reset) of Black Scholes on
// `rt`, in ms. With `path`, it is traced: a root span with capture (one
// capture.call per wrapped call, seen through the post-capture hook),
// evaluate (from the pre-evaluate hook to return) and reset children, and
// the EvalStats difference lands in the path's ledger.
double MozartIteration(mz::Runtime& rt, workloads::BlackScholes& bs, PathLedger* path) {
  const std::int64_t t0 = mz::NowNanos();
  if (path == nullptr) {
    bs.RunMozart(&rt);
    rt.Reset();
    return MsSince(t0);
  }
  const mz::EvalStats::Snapshot before = rt.stats().Take();
  const std::int32_t root = Tracer::OpenRoot(path->root.c_str(), t0);
  std::int32_t phase = Tracer::Open("capture", t0);
  std::int64_t last = t0;
  rt.set_post_capture_hook([&last] {
    const std::int64_t now = mz::NowNanos();
    Tracer::Record("capture.call", last, now);
    last = now;
  });
  rt.set_pre_evaluate_hook([&phase] {
    const std::int64_t now = mz::NowNanos();
    Tracer::Close(phase, now);
    phase = Tracer::Open("evaluate", now);
  });
  bs.RunMozart(&rt);
  Tracer::Close(phase, mz::NowNanos());
  rt.set_post_capture_hook(nullptr);
  rt.set_pre_evaluate_hook(nullptr);
  {
    ScopedSpan reset("reset");
    rt.Reset();
  }
  Tracer::Close(root, mz::NowNanos());
  path->ledger.Add(rt.stats().Take(), before, rt.options().num_threads);
  return MsSince(t0);
}

double TimedMs(const std::function<void()>& fn) {
  const std::int64_t t0 = mz::NowNanos();
  fn();
  return MsSince(t0);
}

}  // namespace

void RunBulk(const Args& args, Report* report) {
  const std::int64_t llc = LlcBytes();
  const std::int64_t bs_bytes = kBsElems * kBsArrays * 8;
  RecordHost(args, bs_bytes, report);
  if (llc <= 0 || bs_bytes < 4 * llc) {
    throw std::runtime_error("Black Scholes working set " + std::to_string(bs_bytes) +
                             " B is below 4x the last-level cache (" + std::to_string(llc) +
                             " B); refusing to run");
  }
  // The library references run single-threaded (NumPy mode); Mozart's
  // executor calls the library from its own workers either way.
  vecmath::SetNumThreads(1);
  const int threads = BenchThreads();

  // Set-up: inputs, both runtimes and the pool, and the first (cold)
  // iteration on each runtime. Repeated; the median is reported.
  std::unique_ptr<Instance> inst;
  std::vector<double> setup_s;
  std::vector<double> setup_checksums;
  for (int i = 0; i < kSetups; ++i) {
    inst.reset();
    const std::int64_t t0 = mz::NowNanos();
    inst = std::make_unique<Instance>(args.seed);
    MozartIteration(inst->rt, *inst->bs, nullptr);
    setup_checksums.push_back(inst->bs->Checksum());
    MozartIteration(inst->rt1, *inst->bs, nullptr);
    setup_s.push_back(MsSince(t0) / 1e3);
    setup_checksums.push_back(inst->bs->Checksum());
  }
  mz::Runtime& rt = inst->rt;
  mz::Runtime& rt1 = inst->rt1;
  auto& bs = *inst->bs;

  // The reference: the unannotated library on the same inputs.
  bs.RunBase();
  const double ref = bs.Checksum();
  auto check = [&](const char* what, double value) {
    ++report->attempted;
    if (!Agrees(value, ref)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s checksum %.17g != reference %.17g", what, value, ref);
      report->Fail(buf);
    }
  };
  for (double checksum : setup_checksums) {
    check("black scholes (set-up)", checksum);
  }

  PathLedger t_path("bs.mozart");
  PathLedger one_path("bs.mozart.t1");
  Windows t_ms, one_ms;
  std::vector<double> traced_ms, untraced_ms;
  std::vector<double> lib_s, fused_s, fused1_s;
  if (args.trace) {
    Tracer::Enable();
  }

  const std::int64_t start = mz::NowNanos();
  const auto end = start + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::int64_t round = 0, now = start; now < end; ++round, now = mz::NowNanos()) {
    const int window = WindowOf(now, start, end);
    // Traced runs trace every other round: the traced and untraced
    // T-thread iterations give the tracing overhead.
    const bool traced = args.trace && round % 2 == 0 && Tracer::Active();
    const double ms = MozartIteration(rt, bs, traced ? &t_path : nullptr);
    t_ms.Add(window, ms);
    check("black scholes", bs.Checksum());
    if (args.trace) {
      (traced ? traced_ms : untraced_ms).push_back(ms);
      lib_s.push_back(TimedMs([&] { bs.RunBase(); }) / 1e3);
      check("black scholes (library)", bs.Checksum());
      fused_s.push_back(TimedMs([&] { bs.RunFused(threads); }) / 1e3);
      check("black scholes (fused)", bs.Checksum());
    }
    one_ms.Add(window, MozartIteration(rt1, bs, traced ? &one_path : nullptr));
    check("black scholes (1 thread)", bs.Checksum());
    if (args.trace) {
      fused1_s.push_back(TimedMs([&] { bs.RunFused(1); }) / 1e3);
      check("black scholes (fused, 1 thread)", bs.Checksum());
    }
  }
  const double measured_s = MsSince(start) / 1e3;
  const double peak_rss_mb = PeakRssMb();  // before result processing allocates

  // One more iteration per runtime, each on fresh buffers.
  for (mz::Runtime* warmed : {&rt, &rt1}) {
    inst->bs.reset();
    inst->bs.emplace(kBsElems, args.seed);
    MozartIteration(*warmed, *inst->bs, nullptr);
    check("black scholes (fresh buffers)", inst->bs->Checksum());
  }

  const double t_p50 = t_ms.Quantile(0.5);
  const double one_p50 = one_ms.Quantile(0.5);
  std::vector<double> t_all = t_ms.All();
  std::vector<double> one_all = one_ms.All();
  report->Detail("run_ms", DistJson(t_all));
  report->Detail("run_ms_1_thread", DistJson(one_all));
  report->Detail("setup_s", DistJson(setup_s));
  if (!args.trace) {
    report->Set("setup_s", Quantile(setup_s, 0.5), "s");
    report->Set("peak_rss_mb", peak_rss_mb, "MB");
    report->Set("p50_ms", t_p50, "ms");
    report->Set("tail_ms", t_ms.Quantile(kTailQuantile), "ms");
    report->Set("alt_p50_ms", one_p50, "ms");
    report->Set("alt_tail_ms", one_ms.Quantile(kTailQuantile), "ms");
    report->Set("goodput_rps", static_cast<double>(t_all.size() + one_all.size()) / measured_s,
                "1/s");
    return;
  }

  const std::vector<Span> spans = Tracer::Collect();
  SpanIndex index = IndexSpans(spans);
  SetPathMetrics("", t_path, index, report);
  SetPathMetrics("alt.", one_path, index, report);
  const double lib = Quantile(lib_s, 0.5);
  const double fused = Quantile(fused_s, 0.5);
  const double fused1 = Quantile(fused1_s, 0.5);
  report->Set("vecmath.lib_s.p50", lib, "s");
  report->Set("baselines.fused_s.p50", fused, "s");
  report->Set("alt.baselines.fused_s.p50", fused1, "s");
  report->Set("speedup_vs_lib", lib * 1e3 / t_p50, "x");
  report->Set("alt.speedup_vs_lib", lib * 1e3 / one_p50, "x");
  report->Set("mozart_over_fused", t_p50 / (fused * 1e3), "x");
  report->Set("alt.mozart_over_fused", one_p50 / (fused1 * 1e3), "x");
  report->Set("vecmath.computed_gbps",
              static_cast<double>(kBsOperandStreams * kBsElems * 8) / (t_p50 / 1e3) / 1e9,
              "GB/s");
  report->Set("thread_pool.noop_dispatch_us.p50", NoopDispatchUs(), "us");
  report->Set("trace.overhead_share",
              Quantile(traced_ms, 0.5) / Quantile(untraced_ms, 0.5) - 1.0, "ratio");
  WriteTrace(args, spans, index, report);
}

}  // namespace pb
