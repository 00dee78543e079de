// serve_open_mixed: an open loop with seeded Poisson arrivals at three fixed
// rates (low, knee, over), served by nproc client threads. Each client owns
// a Session on one shared ServingContext (pool of T threads, default
// admission) and sends through a default ResilientClient; the clients are
// spread over four tenant ids. 90% of requests are tiny inline-class evals
// (2 calls, n=64), 10% are pooled-class (3 calls, n=256Ki). Every request
// carries a deadline equal to the latency limit, and its latency is timed
// from when it was due, so generator stalls and queueing count.
//
// This is the only workload where admission tokens, DRR, load shedding and
// retry budgets are contended. The rates are absolute numbers measured once
// on the reference host (see perfbench/README.md) and never recalibrated.
#include <sys/prctl.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "common/aligned.h"
#include "common/cancel.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/resilience.h"
#include "core/session.h"
#include "runs.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace pb {
namespace {

constexpr long kTinyN = 64;
constexpr long kPooledN = 256 * 1024;
constexpr int kTinyVariants = 16;
constexpr int kPooledVariants = 4;
constexpr int kTenants = 4;
constexpr double kPooledShare = 0.10;
constexpr std::int64_t kLimitNs = 5'000'000;  // p99 limit and request deadline
constexpr int kSetups = 21;

struct Step {
  const char* name;
  double rate_rps;
};
// Measured once on the reference host (4 CPUs, T = 2): `knee` is the
// highest rate whose p99 stays well inside the limit with no growing
// backlog, `low` a quarter of it, `over` about twice the capacity.
constexpr Step kSteps[] = {
    {"low", 2000},
    {"knee", 6000},
    {"over", 32000},
};
constexpr int kNumSteps = 3;
// An unmeasured lead-in at the knee rate, so the first measured step starts
// with warm caches and clients already in their send loop.
constexpr std::int64_t kWarmupNs = 1'000'000'000;

struct Variant {
  explicit Variant(long n) : a(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n)),
                             ref(static_cast<std::size_t>(n)) {}
  mz::AlignedBuffer<double> a, b, ref;
};

// The two request classes, as wrapped calls (out = a*b + 1, and for the
// pooled class sqrt of that), and the same calls made directly on vecmath.
void CaptureTiny(const Variant& v, double* out) {
  {
    ScopedSpan call("capture.call");
    mzvec::Mul(kTinyN, v.a.data(), v.b.data(), out);
  }
  ScopedSpan call("capture.call");
  mzvec::AddC(kTinyN, out, 1.0, out);
}

void CapturePooled(const Variant& v, double* out) {
  {
    ScopedSpan call("capture.call");
    mzvec::Mul(kPooledN, v.a.data(), v.b.data(), out);
  }
  {
    ScopedSpan call("capture.call");
    mzvec::AddC(kPooledN, out, 1.0, out);
  }
  ScopedSpan call("capture.call");
  mzvec::Sqrt(kPooledN, out, out);
}

void Reference(long n, Variant* v) {
  vecmath::Mul(n, v->a.data(), v->b.data(), v->ref.data());
  vecmath::AddC(n, v->ref.data(), 1.0, v->ref.data());
  if (n == kPooledN) {
    vecmath::Sqrt(n, v->ref.data(), v->ref.data());
  }
}

struct Request {
  std::int64_t index = 0;
  std::int64_t due_ns = 0;
  // Start of the request's latency clock: its due time, or the moment an
  // idle client woke for it when the wake-up itself ran late.
  std::int64_t clock_ns = 0;
  int step = 0;
  int window = 0;  // time window of the step the request falls in
  bool pooled = false;
  int variant = 0;
};

// Per-step outcome counts and samples of one client thread.
struct StepStats {
  std::int64_t attempted = 0;
  std::int64_t ok = 0;          // correct result
  std::int64_t within_limit = 0;  // correct and done within the limit
  std::int64_t refused = 0;     // OverloadError (shed, quota, breaker open)
  std::int64_t missed = 0;      // deadline passed / cancelled
  std::int64_t wrong = 0;       // result differs from the reference
  std::int64_t errors = 0;      // any other exception
  std::int64_t backlog_end = 0;  // due in the step, started after it ended
  // Latency from due time; a miss counts as >= the limit.
  Windows latency_ms;
  std::vector<double> lag_ms;      // start - due, for requests the client was idle for
  // Service time (start to completion), per class.
  Windows inline_us, pooled_us;
  std::vector<double> traced_service_us, untraced_service_us;
  void Merge(const StepStats& o) {
    attempted += o.attempted;
    ok += o.ok;
    within_limit += o.within_limit;
    refused += o.refused;
    missed += o.missed;
    wrong += o.wrong;
    errors += o.errors;
    backlog_end += o.backlog_end;
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    latency_ms.Append(o.latency_ms);
    inline_us.Append(o.inline_us);
    pooled_us.Append(o.pooled_us);
    traced_service_us.insert(traced_service_us.end(), o.traced_service_us.begin(),
                             o.traced_service_us.end());
    untraced_service_us.insert(untraced_service_us.end(), o.untraced_service_us.begin(),
                               o.untraced_service_us.end());
  }
};

mz::SessionOptions TenantSession(mz::ServingContext* ctx, int client) {
  mz::SessionOptions opts;
  opts.serving = ctx;
  opts.admission_session = static_cast<std::uint64_t>(1 + client % kTenants);
  return opts;
}

mz::ServingOptions PoolOfT() {
  mz::ServingOptions opts;
  opts.pool_threads = BenchThreads();
  return opts;
}

struct Client {
  Client(mz::ServingContext* ctx, int index)
      : session(TenantSession(ctx, index)),
        resilient(session),
        tiny_out(kTinyN),
        pooled_out(kPooledN) {}
  mz::Session session;
  mz::ResilientClient resilient;
  mz::AlignedBuffer<double> tiny_out, pooled_out;
  StepStats steps[kNumSteps];
  StepStats warmup;
  std::string first_error;  // first unexpected exception this client saw
};

struct Instance {
  explicit Instance(int nclients) : ctx(PoolOfT()) {
    for (int i = 0; i < nclients; ++i) {
      clients.push_back(std::make_unique<Client>(&ctx, i));
    }
  }
  mz::ServingContext ctx;
  std::vector<std::unique_ptr<Client>> clients;
};

// Traced-run ledgers of the inline (primary) and pooled (second) request
// classes; clients add to them under the mutex.
struct SharedLedgers {
  std::mutex mu;
  PathLedger classes[2] = {PathLedger("request.inline"), PathLedger("request.pooled")};
};

class Server {
 public:
  Server(const std::vector<Variant>* tiny, const std::vector<Variant>* pooled)
      : tiny_(tiny), pooled_(pooled) {}

  // Serves one request on client `c` and records its outcome in the
  // client's step stats (and, when traced, in `ledgers`).
  void Serve(Client& c, const Request& req, SharedLedgers* ledgers, bool trace_on) {
    const std::int64_t start_ns = mz::NowNanos();
    StepStats& st = req.step < 0 ? c.warmup : c.steps[req.step];
    ++st.attempted;
    const Variant& v = req.pooled ? (*pooled_)[static_cast<std::size_t>(req.variant)]
                                  : (*tiny_)[static_cast<std::size_t>(req.variant)];
    double* out = req.pooled ? c.pooled_out.data() : c.tiny_out.data();
    const long n = req.pooled ? kPooledN : kTinyN;
    // Every other measured request is traced.
    const bool traced = trace_on && req.step >= 0 && req.index % 2 == 0 && Tracer::Active();
    PathLedger& path = ledgers->classes[req.pooled ? 1 : 0];
    mz::EvalStats::Snapshot before;
    std::int32_t root = -1;
    if (traced) {
      before = c.session.stats().Take();
      root = Tracer::OpenRoot(path.root.c_str(), req.due_ns);
      Tracer::Record("queue", req.due_ns, start_ns);
    }
    mz::CancelSource deadline;
    deadline.SetDeadlineNanos(req.clock_ns + kLimitNs);
    mz::EvalOptions eo;
    eo.cancel = deadline.token();
    enum class Outcome { kOk, kRefused, kMissed, kError } outcome = Outcome::kOk;
    try {
      ScopedSpan span("resilient.eval");
      c.resilient.Eval(
          [&](mz::Session& s, const mz::EvalOptions& attempt_eo, int) {
            {
              mz::Session::Scope scope(s);
              if (req.pooled) {
                CapturePooled(v, out);
              } else {
                CaptureTiny(v, out);
              }
            }
            ScopedSpan eval("evaluate");
            s.Evaluate(attempt_eo);
          },
          eo);
    } catch (const mz::OverloadError&) {
      outcome = Outcome::kRefused;
    } catch (const mz::CancelledError&) {
      outcome = Outcome::kMissed;
    } catch (const std::exception& e) {
      outcome = Outcome::kError;
      if (c.first_error.empty()) {
        c.first_error = e.what();
      }
    }
    const std::int64_t done_ns = mz::NowNanos();
    const std::int64_t latency_ns = done_ns - req.clock_ns;
    switch (outcome) {
      case Outcome::kOk: {
        ScopedSpan span("verify");
        if (std::memcmp(out, v.ref.data(), static_cast<std::size_t>(n) * sizeof(double)) == 0) {
          ++st.ok;
          st.within_limit += latency_ns <= kLimitNs ? 1 : 0;
        } else {
          ++st.wrong;
        }
        break;
      }
      case Outcome::kRefused:
        ++st.refused;
        break;
      case Outcome::kMissed:
        ++st.missed;
        break;
      case Outcome::kError:
        ++st.errors;
        break;
    }
    const bool hit = outcome == Outcome::kOk && latency_ns <= kLimitNs;
    st.latency_ms.Add(req.window,
                      static_cast<double>(hit ? latency_ns : std::max(latency_ns, kLimitNs)) / 1e6);
    {
      ScopedSpan span("reset");
      c.session.Reset();
    }
    const double service_us = static_cast<double>(done_ns - start_ns) / 1e3;
    (req.pooled ? st.pooled_us : st.inline_us).Add(req.window, service_us);
    if (trace_on && req.step == 0) {
      (traced ? st.traced_service_us : st.untraced_service_us).push_back(service_us);
    }
    if (traced) {
      Tracer::Close(root, mz::NowNanos());
      const mz::EvalStats::Snapshot after = c.session.stats().Take();
      std::lock_guard<std::mutex> lock(ledgers->mu);
      const bool pooled = after.pooled_evals > before.pooled_evals;
      path.ledger.Add(after, before, pooled ? c.session.runtime().options().num_threads : 1);
      path.admission_us.push_back(
          static_cast<double>(after.admission_wait_ns - before.admission_wait_ns) / 1e3);
    }
  }

 private:
  const std::vector<Variant>* tiny_;
  const std::vector<Variant>* pooled_;
};

// One client's share of the open loop. Each client generates its own
// Poisson stream at 1/nclients of the step's rate (independent Poisson
// streams superpose to one at the full rate) and sends each request when it
// is due, or as soon as it is free if earlier requests overran. Latency
// counts from the due time, so waiting behind a slow request counts; when
// an idle client's own wake-up runs late, that lateness is the generator's,
// reported as lag, and the clock starts at the wake-up instead.
void RunClient(Server& server, Client& c, int index, int nclients, const Args& args,
               std::int64_t start, std::int64_t step_ns, SharedLedgers* ledgers) {
  mz::Rng rng(args.seed * 7919 + static_cast<std::uint64_t>(index) + 1);
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // wake within ~1 µs of the due time
  std::int64_t sent = 0;
  for (int s = -1; s < kNumSteps; ++s) {
    const std::int64_t step_start = s < 0 ? start - kWarmupNs : start + s * step_ns;
    const std::int64_t step_end = s < 0 ? start : step_start + step_ns;
    const double rate = kSteps[s < 0 ? 1 : s].rate_rps;
    const double mean_gap_ns = 1e9 * nclients / rate;
    StepStats& st = s < 0 ? c.warmup : c.steps[s];
    double next = static_cast<double>(step_start);
    for (;;) {
      next += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
      Request req;
      req.due_ns = static_cast<std::int64_t>(next);
      if (req.due_ns >= step_end) {
        break;
      }
      req.index = sent++;
      req.step = s;
      req.window = WindowOf(req.due_ns, step_start, step_end);
      req.pooled = rng.NextDouble() < kPooledShare;
      req.variant =
          static_cast<int>(rng.NextBounded(req.pooled ? kPooledVariants : kTinyVariants));
      req.clock_ns = req.due_ns;
      if (const std::int64_t now = mz::NowNanos(); now < req.due_ns) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(req.due_ns - now));
        req.clock_ns = mz::NowNanos();
        st.lag_ms.push_back(static_cast<double>(req.clock_ns - req.due_ns) / 1e6);
      } else if (now > step_end) {
        ++st.backlog_end;
      }
      server.Serve(c, req, ledgers, args.trace);
    }
  }
}

}  // namespace

void RunServe(const Args& args, Report* report) {
  const int nclients = mz::NumLogicalCpus();
  RecordHost(args,
             (kTinyVariants * kTinyN + kPooledVariants * kPooledN) * 3 * 8 +
                 static_cast<std::int64_t>(nclients) * (kTinyN + kPooledN) * 8,
             report);
  mzvec::EnsureRegistered();
  vecmath::SetNumThreads(1);

  mz::Rng rng(args.seed);
  std::vector<Variant> tiny, pooled;
  for (int i = 0; i < kTinyVariants + kPooledVariants; ++i) {
    const bool is_pooled = i >= kTinyVariants;
    const long n = is_pooled ? kPooledN : kTinyN;
    Variant v(n);
    for (long k = 0; k < n; ++k) {
      v.a[static_cast<std::size_t>(k)] = rng.NextDouble(0.0, 4.0);
      v.b[static_cast<std::size_t>(k)] = rng.NextDouble(0.0, 4.0);
    }
    Reference(n, &v);
    (is_pooled ? pooled : tiny).push_back(std::move(v));
  }
  Server server(&tiny, &pooled);

  // Set-up: serving context, sessions and resilient clients, and one warm
  // request of each class per client (plans built, caches filled). The
  // pooled-class requests are not timed: their time is mostly the
  // 256Ki-element kernels on whichever CPUs the caller and pool worker got,
  // which made set-up time differ 1.5x from one process to the next.
  // A cold request may miss its deadline; it must not return a wrong result.
  std::vector<double> setup_s;
  std::int64_t setup_failed = 0;
  SharedLedgers ledgers;
  auto set_up = [&] {
    const std::int64_t t0 = mz::NowNanos();
    auto fresh = std::make_unique<Instance>(nclients);
    for (bool is_pooled : {false, true}) {
      if (is_pooled) {
        setup_s.push_back(static_cast<double>(mz::NowNanos() - t0) / 1e9);
      }
      for (auto& c : fresh->clients) {
        Request warm;
        warm.due_ns = warm.clock_ns = mz::NowNanos();
        warm.pooled = is_pooled;
        server.Serve(*c, warm, &ledgers, false);
      }
    }
    for (auto& c : fresh->clients) {
      setup_failed += c->steps[0].wrong + c->steps[0].errors;
      c->steps[0] = StepStats{};
    }
    return fresh;
  };
  // The first set-up builds the instance the loop measures; the rest run
  // after the loop. Set-ups made before it left 39 to 43 MB resident
  // depending on how the allocator's arenas fell, which peak RSS then
  // carried. Each later set-up starts on the next CPU and then runs
  // unpinned (threads inherit the CPU set): made back to back on one CPU,
  // their median differed up to 1.6x from one process to the next.
  const std::unique_ptr<Instance> inst = set_up();
  const mz::EvalStats::Snapshot stats_before = inst->ctx.AggregateStats();

  if (args.trace) {
    Tracer::Enable();
  }
  const auto step_ns = static_cast<std::int64_t>(args.seconds * 1e9 / kNumSteps);
  const std::int64_t start = mz::NowNanos() + 2'000'000 + kWarmupNs;
  std::vector<std::thread> threads;
  for (int i = 0; i < nclients; ++i) {
    threads.emplace_back([&, i] {
      RunClient(server, *inst->clients[static_cast<std::size_t>(i)], i, nclients, args, start,
                step_ns, &ledgers);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const mz::EvalStats::Snapshot stats_after = inst->ctx.AggregateStats();
  const double peak_rss_mb = PeakRssMb();  // before result processing allocates
  const std::vector<int> cpus = AllowedCpus();
  for (int i = 1; i < kSetups; ++i) {
    if (!cpus.empty()) {
      RunOn({cpus[static_cast<std::size_t>(i) % cpus.size()]});
      RunOn(cpus);
    }
    set_up();
  }
  if (setup_failed > 0) {
    report->Fail("set-up request returned a wrong result or failed unexpectedly");
  }

  StepStats steps[kNumSteps];
  for (auto& c : inst->clients) {
    for (int s = 0; s < kNumSteps; ++s) {
      for (std::int64_t k = 0; k < c->steps[s].wrong; ++k) {
        report->Fail(std::string("result differs from direct vecmath calls at step ") +
                     kSteps[s].name);
      }
      for (std::int64_t k = 0; k < c->steps[s].errors; ++k) {
        report->Fail("unexpected error: " + c->first_error);
      }
      steps[s].Merge(c->steps[s]);
    }
  }
  std::int64_t attempted = 0, failed_any = 0;
  double max_ok_rate = 0;
  double lat_p50_ms[kNumSteps] = {}, lat_p99_ms[kNumSteps] = {};
  std::vector<double> all_lag;
  for (int s = 0; s < kNumSteps; ++s) {
    StepStats& st = steps[s];
    attempted += st.attempted;
    failed_any += st.refused + st.missed + st.wrong + st.errors;
    report->attempted += st.attempted;
    std::vector<double> latency = st.latency_ms.All();
    lat_p50_ms[s] = st.latency_ms.Quantile(0.5);
    lat_p99_ms[s] = st.latency_ms.Quantile(0.99);
    const bool ok_rate = lat_p99_ms[s] <= kLimitNs / 1e6 && st.backlog_end <= nclients &&
                         st.within_limit * 100 >= st.attempted * 99;
    if (ok_rate) {
      max_ok_rate = std::max(max_ok_rate, kSteps[s].rate_rps);
    }
    all_lag.insert(all_lag.end(), st.lag_ms.begin(), st.lag_ms.end());
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"rate_rps\":%g,\"attempted\":%lld,\"succeeded\":%lld,\"within_limit\":%lld,"
                  "\"failed\":%lld,\"refused\":%lld,\"deadline_missed\":%lld,\"wrong\":%lld,"
                  "\"lag_ms_p99\":%.6g,\"backlog_end\":%lld,\"lat_ms\":",
                  kSteps[s].rate_rps, static_cast<long long>(st.attempted),
                  static_cast<long long>(st.ok), static_cast<long long>(st.within_limit),
                  static_cast<long long>(st.refused + st.missed + st.wrong + st.errors),
                  static_cast<long long>(st.refused), static_cast<long long>(st.missed),
                  static_cast<long long>(st.wrong), Quantile(st.lag_ms, 0.99),
                  static_cast<long long>(st.backlog_end));
    std::vector<double> inline_us = st.inline_us.All();
    std::vector<double> pooled_us = st.pooled_us.All();
    report->Detail(std::string("step.") + kSteps[s].name,
                   buf + DistJson(latency) + ",\"lat_ms_windowed_p99\":" +
                       std::to_string(lat_p99_ms[s]) + ",\"inline_service_us\":" +
                       DistJson(inline_us) + ",\"pooled_service_us\":" + DistJson(pooled_us) +
                       "}");
  }
  const double step_s = static_cast<double>(step_ns) / 1e9;
  report->Detail("setup_s", DistJson(setup_s));

  // The gated numbers: service time of the inline class at the knee rate
  // and at the overload rate, where admission and shedding decide on every
  // request. Latency from the due time (above, and per-layer lat_ms.*) and
  // the pooled class's service time, which waits for the slower of the
  // caller and a pool worker, also carry the neighbours' load on a shared
  // host, which swung them by 25% to several-fold from run to run.
  if (!args.trace) {
    report->Set("setup_s", Quantile(setup_s, 0.5), "s");
    report->Set("peak_rss_mb", peak_rss_mb, "MB");
    report->Set("p50_ms", steps[1].inline_us.Quantile(0.5) / 1e3, "ms");
    report->Set("tail_ms", steps[1].inline_us.Quantile(kTailQuantile) / 1e3, "ms");
    report->Set("alt_p50_ms", steps[2].inline_us.Quantile(0.5) / 1e3, "ms");
    report->Set("alt_tail_ms", steps[2].inline_us.Quantile(kTailQuantile) / 1e3, "ms");
    report->Set("goodput_rps", static_cast<double>(steps[2].within_limit) / step_s, "1/s");
    return;
  }

  const std::vector<Span> spans = Tracer::Collect();
  SpanIndex index_by_name = IndexSpans(spans);
  SetPathMetrics("", ledgers.classes[0], index_by_name, report);
  SetPathMetrics("alt.", ledgers.classes[1], index_by_name, report);
  report->Set("lat_ms.p50.low", lat_p50_ms[0], "ms");
  report->Set("lat_ms.p99.low", lat_p99_ms[0], "ms");
  report->Set("lat_ms.p50.knee", lat_p50_ms[1], "ms");
  report->Set("lat_ms.p99.knee", lat_p99_ms[1], "ms");
  Ledger run;
  run.Add(stats_after, stats_before, 1);
  report->Set("resilience.retries_per_k", run.retries * 1e3 / std::max<double>(1, attempted),
              "count/k");
  report->Set("resilience.budget_exhausted", run.retry_budget_exhausted, "count");
  report->Set("resilience.breaker_opens", run.circuit_opens, "count");
  report->Set("loadgen.lag_ms.p99", Quantile(all_lag, 0.99), "ms");
  report->Set("loadgen.backlog_end", static_cast<double>(steps[kNumSteps - 1].backlog_end),
              "count");
  report->Set("loadgen.max_ok_rate_rps", max_ok_rate, "1/s");
  report->Set("loadgen.fail_ratio",
              static_cast<double>(failed_any) / std::max<double>(1, attempted), "ratio");
  report->Set("thread_pool.noop_dispatch_us.p50", NoopDispatchUs(), "us");
  report->Set("trace.overhead_share",
              Quantile(steps[0].traced_service_us, 0.5) /
                      Quantile(steps[0].untraced_service_us, 0.5) -
                  1.0,
              "ratio");
  WriteTrace(args, spans, index_by_name, report);
}

}  // namespace pb
