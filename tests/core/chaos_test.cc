// Deterministic chaos battery: the seeded fault injector (common/fault.h)
// sweeps injected throws and delays across the serving stack's knob matrix
// — pipeline_stages × dynamic_scheduling × adaptive_admission —
// and after every faulted run asserts the invariants that define "robust":
//
//  * no leaked admission tokens, no stranded waiters (gate introspection);
//  * the session/runtime stays reusable: Reset + re-capture + a clean
//    evaluation produces bytes identical to an uninjected reference run
//    with the same knobs;
//  * fault coverage: across the sweep, every compiled-in site the exercised
//    configurations reach actually fired at least one hit.
//
// The injection decision is a pure function of (seed, site, per-site hit
// index), so each (knobs, seed) cell reproduces its fault set run to run —
// a failure here is a repro, not a flake. Labelled `chaos` only: the suite
// is deterministic but heavyweight, so it runs in plain ctest and the
// check.sh --chaos sweep rather than riding the TSan label set.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <atomic>
#include <cmath>
#include <thread>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/timer.h"
#include "core/resilience.h"
#include "core/session.h"
#include "core/stream.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

using Vec = std::vector<double>;

Vec Iota(long n, double start) {
  Vec v(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
  }
  return v;
}

// Two eval classes per attempt: a small pipeline (inline class)
// and a large one with a reduction tail (pooled class; the merge-only Sum
// exercises the exec.merge site).
struct RunResult {
  Vec small_out;
  Vec large_out;
  double sum = 0.0;
};

constexpr long kSmallN = 512;  // well under the cutoff: inline class
constexpr long kLargeN = 32768;

void CaptureSmall(const Vec& a, const Vec& b, Vec* out) {
  mzvec::Log1p(kSmallN, a.data(), out->data());
  mzvec::Add(kSmallN, out->data(), b.data(), out->data());
}

void CaptureLarge(const Vec& a, const Vec& b, Vec* out) {
  mzvec::Mul(kLargeN, a.data(), b.data(), out->data());
  mzvec::Sqrt(kLargeN, out->data(), out->data());
  mzvec::Div(kLargeN, out->data(), b.data(), out->data());
}

// One full request sequence on a session; throws whatever the serving stack
// throws. Forcing the Sum future evaluates the large graph.
RunResult Serve(Session& session, const Vec& sa, const Vec& sb, const Vec& la, const Vec& lb) {
  RunResult r;
  r.small_out.assign(static_cast<std::size_t>(kSmallN), 0.0);
  r.large_out.assign(static_cast<std::size_t>(kLargeN), 0.0);
  {
    Session::Scope scope(session);
    CaptureSmall(sa, sb, &r.small_out);
  }
  session.Evaluate();
  session.Reset();
  {
    Session::Scope scope(session);
    CaptureLarge(la, lb, &r.large_out);
    r.sum = mzvec::Sum(kLargeN, r.large_out.data()).get();  // forces evaluation
  }
  session.Reset();
  return r;
}

ServingOptions Knobs(bool adaptive) {
  return ServingOptions{.pool_threads = 4,
                        .max_pool_sessions = 2,
                        .serial_cutoff_elems = 4096,
                        .adaptive_admission = adaptive};
}

TEST(ChaosTest, KnobMatrixSeedSweepHoldsInvariants) {
  mzvec::EnsureRegistered();
  const Vec sa = Iota(kSmallN, 1.0), sb = Iota(kSmallN, 2.0);
  const Vec la = Iota(kLargeN, 1.0), lb = Iota(kLargeN, 2.0);

  // Extended sweeps (check.sh --chaos) widen the seed range via env.
  int num_seeds = 13;
  if (const char* env = std::getenv("MZ_CHAOS_SEEDS")) {
    num_seeds = std::max(1, std::atoi(env));
  }

  int runs = 0;
  std::int64_t total_fires = 0;
  std::set<std::string> sites_hit;
  for (bool pipeline : {false, true}) {
    for (bool dynamic : {false, true}) {
      for (bool adaptive : {false, true}) {
        // Uninjected reference for this knob cell: what a clean run of the
        // exact same configuration produces.
        ServingContext ref_ctx(Knobs(adaptive));
        SessionOptions ref_opts;
        ref_opts.serving = &ref_ctx;
        ref_opts.runtime.dynamic_scheduling = dynamic;
        ref_opts.runtime.pipeline_stages = pipeline;
        Session ref_session(ref_opts);
        const RunResult ref = Serve(ref_session, sa, sb, la, lb);

        for (int seed = 1; seed <= num_seeds; ++seed, ++runs) {
          ServingContext ctx(Knobs(adaptive));
          SessionOptions opts;
          opts.serving = &ctx;
          opts.runtime.dynamic_scheduling = dynamic;
          opts.runtime.pipeline_stages = pipeline;
          Session session(opts);

          FaultConfig cfg;
          cfg.seed = static_cast<std::uint64_t>(seed) * 7919 + (runs + 1);
          cfg.p_throw = 0.15;
          cfg.p_delay = 0.10;
          cfg.delay_us = 100;
          FaultInjector::Global().Arm(cfg);

          int faulted = 0;
          for (int attempt = 0; attempt < 4; ++attempt) {
            try {
              Serve(session, sa, sb, la, lb);
            } catch (const Error&) {  // FaultInjected, Deadline, Overload...
              ++faulted;
              session.Reset();  // a failed request must leave Reset enough
            }
          }
          FaultInjector::Global().Disarm();
          total_fires += FaultInjector::Global().fires();
          for (const auto& [site, hits] : FaultInjector::Global().sites()) {
            if (hits > 0) {
              sites_hit.insert(site);
            }
          }

          // Invariant: whatever the faults tore up, the gate is clean...
          ASSERT_EQ(ctx.admission().in_use(), 0)
              << "leaked token: pipeline=" << pipeline << " dynamic=" << dynamic
              << " adaptive=" << adaptive << " seed=" << cfg.seed;
          ASSERT_EQ(ctx.admission().waiting(), 0)
              << "stuck waiter: pipeline=" << pipeline << " dynamic=" << dynamic
              << " adaptive=" << adaptive << " seed=" << cfg.seed;

          // ...and the session still serves, bit-identically to the
          // uninjected reference run of this configuration.
          const RunResult clean = Serve(session, sa, sb, la, lb);
          ASSERT_EQ(clean.small_out, ref.small_out)
              << "post-fault retry diverged (small): seed=" << cfg.seed;
          ASSERT_EQ(clean.large_out, ref.large_out)
              << "post-fault retry diverged (large): seed=" << cfg.seed;
          ASSERT_EQ(clean.sum, ref.sum) << "post-fault retry diverged (sum): seed=" << cfg.seed;
        }
      }
    }
  }

  EXPECT_GE(runs, 100) << "acceptance: the battery must cover >= 100 seeded runs";
  EXPECT_GT(total_fires, 0) << "the sweep never injected a single fault";
  // Coverage: every site these configurations compile through must have been
  // hit somewhere in the sweep. (stream.* sites are covered by the stream
  // sweep below.)
  for (const char* site :
       {"admission.acquire", "plan_cache.lookup", "exec.batch", "exec.split", "exec.merge"}) {
    EXPECT_TRUE(sites_hit.count(site) != 0) << "site never hit across the sweep: " << site;
  }
}

// Deadline-bearing requests under injected delays: the injector's delays
// push some requests past their deadlines; every outcome must be one of the
// structured errors, counted correctly, and the gate must come out clean.
TEST(ChaosTest, DeadlinesUnderInjectedDelays) {
  mzvec::EnsureRegistered();
  const Vec la = Iota(kLargeN, 1.0), lb = Iota(kLargeN, 2.0);

  for (int seed = 1; seed <= 8; ++seed) {
    ServingContext ctx(ServingOptions{
        .pool_threads = 2, .max_pool_sessions = 1, .serial_cutoff_elems = 0});
    SessionOptions opts;
    opts.serving = &ctx;
    Session session(opts);

    FaultConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.p_delay = 0.5;
    cfg.delay_us = 2000;  // deadline below is a couple of delays wide
    FaultInjector::Global().Arm(cfg);

    std::int64_t aborted = 0, served = 0;
    for (int i = 0; i < 6; ++i) {
      Vec out(static_cast<std::size_t>(kLargeN), 0.0);
      {
        Session::Scope scope(session);
        CaptureLarge(la, lb, &out);
      }
      CancelSource src;
      src.SetDeadlineAfterMicros(5'000);
      EvalOptions eo;
      eo.cancel = src.token();
      try {
        session.Evaluate(eo);
        ++served;
      } catch (const CancelledError&) {  // includes DeadlineError
        ++aborted;
        session.Reset();
      } catch (const OverloadError&) {
        ++aborted;
        session.Reset();
      }
    }
    FaultInjector::Global().Disarm();

    EXPECT_EQ(ctx.admission().in_use(), 0) << "seed=" << seed;
    EXPECT_EQ(ctx.admission().waiting(), 0) << "seed=" << seed;
    EXPECT_EQ(session.stats().deadline_evals.load() + session.stats().cancelled_evals.load() +
                  session.stats().shed_evals.load(),
              aborted)
        << "seed=" << seed;
    EXPECT_EQ(session.stats().evaluations.load(), served) << "seed=" << seed;
  }
}

// Stream chunk paths under faults: a faulted stream run aborts cleanly, and
// a fresh source + the same body replays to the exact batch-mode answer.
TEST(ChaosTest, StreamFaultSweepReplaysClean) {
  mzvec::EnsureRegistered();
  const long kWindow = 256, kChunks = 16, kChunkElems = 128;

  auto push_all = [&](StreamSource& src) {
    // Push everything up front (single-threaded chaos: a mid-push throw
    // would otherwise race the consumer), then close.
    for (long c = 0; c < kChunks; ++c) {
      src.Push(Value::Make<Vec>(Iota(kChunkElems, static_cast<double>(c * kChunkElems))));
    }
    src.Close();
  };

  auto run_stream = [&](Runtime& rt, const CancelToken& cancel) {
    StreamSource src;
    push_all(src);
    Vec out(static_cast<std::size_t>(kWindow));
    double total = 0.0;
    StreamOptions so;
    so.window = kWindow;
    so.cancel = cancel;
    rt.EvalStream(src, so, [&](const Value& win, std::int64_t) {
      const Vec& v = win.As<Vec>();
      mzvec::MulC(static_cast<long>(v.size()), v.data(), 3.0, out.data());
      total += mzvec::Sum(static_cast<long>(v.size()), out.data()).get();
    });
    return total;
  };

  RuntimeOptions rt_opts;
  rt_opts.num_threads = 2;
  Runtime ref_rt(rt_opts);
  const double want = run_stream(ref_rt, CancelToken{});

  for (int seed = 1; seed <= 10; ++seed) {
    Runtime rt(rt_opts);
    FaultConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed) * 31 + 5;
    cfg.p_throw = 0.10;
    cfg.p_delay = 0.05;
    cfg.delay_us = 100;
    FaultInjector::Global().Arm(cfg);
    bool faulted = false;
    try {
      run_stream(rt, CancelToken{});
    } catch (const Error&) {
      faulted = true;
      rt.Reset();
    }
    FaultInjector::Global().Disarm();
    // Replay clean on the same runtime: exact same answer as batch mode.
    const double got = run_stream(rt, CancelToken{});
    EXPECT_EQ(got, want) << "seed=" << seed << " (faulted=" << faulted << ")";
  }

  // Cancellation between firings: the body cancels after the first firing;
  // EvalStream must stop at the next firing boundary.
  Runtime rt(rt_opts);
  CancelSource src;
  StreamSource chunks;
  push_all(chunks);
  std::int64_t fired = 0;
  StreamOptions so;
  so.window = kWindow;
  so.cancel = src.token();
  EXPECT_THROW(rt.EvalStream(chunks, so,
                             [&](const Value& win, std::int64_t firing) {
                               Vec out(win.As<Vec>().size());
                               mzvec::MulC(static_cast<long>(out.size()),
                                           win.As<Vec>().data(), 2.0, out.data());
                               ++fired;
                               if (firing == 0) {
                                 src.Cancel();
                               }
                             }),
               CancelledError);
  EXPECT_EQ(fired, 1) << "cancel after firing 0 must stop before firing 1";
  rt.Reset();
}

// ---------------------------------------------------------------------------
// Resilience cell (ISSUE 10): the client policy layer under the same seeded
// fault regime the serving stack is swept with.

// Retry-until-success converges at the battery's canonical p_throw = 0.15,
// and the budget books balance: every counted retry corresponds to exactly
// one budget debit (hedging off, so debits have a single source).
TEST(ChaosTest, ResilientRetryConvergesAndBudgetBalances) {
  mzvec::EnsureRegistered();
  const Vec a = Iota(kSmallN, 1.0), b = Iota(kSmallN, 2.0);
  Vec want(static_cast<std::size_t>(kSmallN), 0.0);
  for (long i = 0; i < kSmallN; ++i) {
    want[static_cast<std::size_t>(i)] =
        std::log1p(a[static_cast<std::size_t>(i)]) + b[static_cast<std::size_t>(i)];
  }

  for (int seed = 1; seed <= 6; ++seed) {
    ServingContext ctx(Knobs(/*adaptive=*/false));
    SessionOptions opts;
    opts.serving = &ctx;
    Session session(opts);
    ResilienceOptions ro;
    ro.max_attempts = 8;
    ro.retry_budget_burst = 64.0;  // generous: convergence is the subject here
    ro.backoff_base_us = 50;
    ro.backoff_cap_us = 500;
    ro.breaker_enabled = false;  // a tripped breaker would mask convergence
    ResilientClient client(session, ro);

    FaultConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed) * 104729 + 17;
    cfg.p_throw = 0.15;
    FaultInjector::Global().Arm(cfg);

    Vec out[2] = {Vec(static_cast<std::size_t>(kSmallN), 0.0),
                  Vec(static_cast<std::size_t>(kSmallN), 0.0)};
    int calls = 0;
    for (int i = 0; i < 20; ++i) {
      out[0].assign(static_cast<std::size_t>(kSmallN), 0.0);
      // Retry-until-success: the client's own retries do most of the work;
      // the outer loop absorbs the (rare) full-Eval failures — including the
      // resilience.retry site itself firing, which aborts an eval by design
      // (the fault lands before the budget debit, keeping the books exact).
      bool served = false;
      for (int call = 0; call < 10 && !served; ++call) {
        ++calls;
        try {
          client.Eval([&](Session& s, const EvalOptions&, int lane) {
            Session::Scope scope(s);
            mzvec::Log1p(kSmallN, a.data(), out[lane].data());
            mzvec::Add(kSmallN, out[lane].data(), b.data(), out[lane].data());
          });
          served = true;
        } catch (const Error&) {
        }
      }
      ASSERT_TRUE(served) << "request never converged, seed=" << cfg.seed << " req=" << i;
      ASSERT_EQ(out[0], want) << "seed=" << cfg.seed << " req=" << i;
    }
    FaultInjector::Global().Disarm();

    // Convergence must be cheap, not just eventual: at p_throw = 0.15 the
    // 20 requests must not need anywhere near the 200-call ceiling.
    EXPECT_LE(calls, 60) << "convergence too expensive, seed=" << cfg.seed;
    EXPECT_EQ(session.stats().retries.load(), client.tenant().budget_debits)
        << "budget books out of balance, seed=" << cfg.seed;
    EXPECT_EQ(ctx.admission().in_use(), 0) << "seed=" << cfg.seed;
    EXPECT_EQ(ctx.admission().waiting(), 0) << "seed=" << cfg.seed;
  }
}

// Bit-identical replay: with a fixed fault seed, a fake clock driven by the
// fake sleeper, and a fixed jitter seed, the client's entire decision trace
// (attempts, backoffs, budget events, breaker transitions) must reproduce
// exactly — the determinism hooks turn a chaos failure into a repro.
TEST(ChaosTest, ResilienceTraceReplaysBitIdentical) {
  mzvec::EnsureRegistered();
  const Vec a = Iota(kSmallN, 1.0), b = Iota(kSmallN, 2.0);

  auto run_once = [&] {
    ServingContext ctx(Knobs(/*adaptive=*/false));
    SessionOptions opts;
    opts.serving = &ctx;
    opts.admission_session = 4242;  // fixed tenant key → fresh state per ctx
    Session session(opts);

    std::int64_t now_ns = 1'000'000'000;
    ResilienceOptions ro;
    ro.max_attempts = 3;
    ro.retry_budget_burst = 4.0;
    ro.breaker_window = 6;
    ro.breaker_failure_ratio = 0.5;
    ro.breaker_open_us = 2'000;
    ro.jitter_seed = 0xfeedbeef;
    ro.record_trace = true;
    ro.clock = [&now_ns] { return now_ns; };
    ro.sleep = [&now_ns](std::int64_t us) { now_ns += us * 1000; };
    ResilientClient client(session, ro);

    FaultConfig cfg;
    cfg.seed = 90210;
    cfg.p_throw = 0.35;  // hot enough to exercise retries, budget, breaker
    FaultInjector::Global().Arm(cfg);
    Vec out[2] = {Vec(static_cast<std::size_t>(kSmallN), 0.0),
                  Vec(static_cast<std::size_t>(kSmallN), 0.0)};
    for (int i = 0; i < 30; ++i) {
      try {
        client.Eval([&](Session& s, const EvalOptions&, int lane) {
          Session::Scope scope(s);
          mzvec::Log1p(kSmallN, a.data(), out[lane].data());
          mzvec::Add(kSmallN, out[lane].data(), b.data(), out[lane].data());
        });
      } catch (const Error&) {
        // failures (including fail-fast breaker rejections) are part of the
        // schedule being replayed
      }
      now_ns += 500'000;  // half a millisecond of "think time" per request
    }
    FaultInjector::Global().Disarm();
    return client.trace();
  };

  const std::vector<ResilienceTraceEvent> first = run_once();
  const std::vector<ResilienceTraceEvent> second = run_once();
  ASSERT_GT(first.size(), 30u) << "the schedule never exercised the policy layer";
  bool saw_retry = false, saw_breaker = false;
  for (const ResilienceTraceEvent& ev : first) {
    saw_retry = saw_retry || ev.kind == ResilienceTraceKind::kRetry;
    saw_breaker = saw_breaker || ev.kind == ResilienceTraceKind::kBreakerOpen;
  }
  EXPECT_TRUE(saw_retry) << "replay schedule never retried";
  EXPECT_TRUE(saw_breaker) << "replay schedule never tripped the breaker";
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i] == second[i]) << "trace diverged at event " << i;
  }
}

// Drain under chaos: with faults firing and clients hammering the gate,
// Drain(deadline) must return by its deadline (plus scheduling slack), and
// once the clients exit the context must be fully quiesced — no leaked
// tokens, no stranded waiters, and a second Drain is an instant re-wait.
TEST(ChaosTest, DrainTerminatesByDeadlineUnderChaos) {
  mzvec::EnsureRegistered();
  const Vec la = Iota(kLargeN, 1.0), lb = Iota(kLargeN, 2.0);

  for (int seed = 1; seed <= 5; ++seed) {
    ServingContext ctx(ServingOptions{
        .pool_threads = 2, .max_pool_sessions = 1, .serial_cutoff_elems = 0});
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&] {
        SessionOptions opts;
        opts.serving = &ctx;
        Session session(opts);
        Vec out(static_cast<std::size_t>(kLargeN), 0.0);
        while (!stop.load()) {
          {
            Session::Scope scope(session);
            CaptureLarge(la, lb, &out);
          }
          try {
            session.Evaluate();
          } catch (const OverloadError& e) {
            session.Reset();
            if (e.kind == OverloadError::Kind::kDraining) {
              return;
            }
          } catch (const Error&) {
            session.Reset();  // injected fault: keep hammering
          }
        }
      });
    }

    FaultConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed) * 1299709 + 3;
    cfg.p_throw = 0.10;
    cfg.p_delay = 0.20;
    cfg.delay_us = 500;
    FaultInjector::Global().Arm(cfg);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // build load

    const std::int64_t budget_ns = 300'000'000;
    const std::int64_t t0 = NowNanos();
    bool quiesced = false;
    for (;;) {  // the context.drain site itself may throw: re-enter
      try {
        quiesced = ctx.Drain(t0 + budget_ns);
        break;
      } catch (const FaultInjected&) {
      }
    }
    const std::int64_t elapsed = NowNanos() - t0;
    FaultInjector::Global().Disarm();
    stop.store(true);
    for (std::thread& t : clients) {
      t.join();
    }

    EXPECT_LT(elapsed, budget_ns + 250'000'000)
        << "Drain overran its deadline, seed=" << cfg.seed;
    // Whatever the deadline race decided, after the clients exit the gate
    // must be spotless and a repeat drain trivially true.
    EXPECT_EQ(ctx.admission().in_use(), 0) << "seed=" << cfg.seed;
    EXPECT_EQ(ctx.admission().waiting(), 0) << "seed=" << cfg.seed;
    EXPECT_TRUE(ctx.Drain(NowNanos() + 1'000'000'000)) << "seed=" << cfg.seed;
    EXPECT_TRUE(quiesced || elapsed >= budget_ns - 1'000'000)
        << "Drain returned false before its deadline, seed=" << cfg.seed;
  }
}

}  // namespace
}  // namespace mz
