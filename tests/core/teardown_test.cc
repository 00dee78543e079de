// Teardown under load: sessions created, evaluated, and destroyed while
// other sessions' inline and pooled evaluations are in flight — and after a
// request was aborted (deadline / cancel) while blocked in admission. The
// serving context must come out clean every time: no leaked admission
// tokens, no stranded waiters, and the survivors' results stay correct. "core;serving" → rides the CI TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/timer.h"
#include "core/session.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

std::vector<double> Iota(long n, double start) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
  }
  return v;
}

void Capture(long n, const double* a, const double* b, double* out) {
  mzvec::Log1p(n, a, out);
  mzvec::Add(n, out, b, out);
  mzvec::Div(n, out, b, out);
}

std::vector<double> Expected(long n, const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> want(static_cast<std::size_t>(n));
  vecmath::Log1p(n, a.data(), want.data());
  vecmath::Add(n, want.data(), b.data(), want.data());
  vecmath::Div(n, want.data(), b.data(), want.data());
  return want;
}

// Churn: every client thread repeatedly constructs a Session, runs a mix of
// inline-class and pooled-class evaluations (some with deadlines), and
// destroys it — all against one shared context, so teardown overlaps other
// sessions' in-flight evaluations and held admission tokens.
TEST(TeardownTest, SessionChurnUnderLoadLeavesContextClean) {
  mzvec::EnsureRegistered();
  ServingContext ctx(ServingOptions{.pool_threads = 4,
                                    .max_pool_sessions = 2,
                                    .serial_cutoff_elems = 4096});

  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 8;
  const long small_n = 512;    // inline class
  const long large_n = 65536;  // pooled class
  std::vector<double> sa = Iota(small_n, 1.0), sb = Iota(small_n, 2.0);
  std::vector<double> la = Iota(large_n, 1.0), lb = Iota(large_n, 2.0);
  const std::vector<double> small_want = Expected(small_n, sa, sb);
  const std::vector<double> large_want = Expected(large_n, la, lb);

  std::atomic<int> failures{0};
  std::atomic<int> aborted{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<double> out(static_cast<std::size_t>(large_n));
      for (int s = 0; s < kSessionsPerThread; ++s) {
        SessionOptions opts;
        opts.serving = &ctx;
        Session session(opts);
        // Small (runs inline) then large (holds a token), then one
        // deadline-bearing eval that may abort in admission under load.
        {
          Session::Scope scope(session);
          Capture(small_n, sa.data(), sb.data(), out.data());
        }
        session.Evaluate();
        if (std::vector<double>(out.begin(), out.begin() + small_n) != small_want) {
          failures.fetch_add(1);
        }
        session.Reset();
        {
          Session::Scope scope(session);
          Capture(large_n, la.data(), lb.data(), out.data());
        }
        session.Evaluate();
        if (out != large_want) {
          failures.fetch_add(1);
        }
        session.Reset();
        {
          Session::Scope scope(session);
          Capture(large_n, la.data(), lb.data(), out.data());
        }
        CancelSource src;
        // Tight but feasible: some of these complete, some expire while
        // queued behind the two tokens — both outcomes must tear down clean.
        src.SetDeadlineAfterMicros((t + s) % 3 == 0 ? 200 : 50'000);
        EvalOptions eo;
        eo.cancel = src.token();
        try {
          session.Evaluate(eo);
        } catch (const CancelledError&) {  // DeadlineError included
          aborted.fetch_add(1);
          session.Reset();
        } catch (const OverloadError&) {
          aborted.fetch_add(1);
          session.Reset();
        }
        // Session destroyed here — possibly while other threads' evals are
        // running or queued at the gate.
      }
    });
  }
  for (std::thread& c : clients) {
    c.join();
  }

  EXPECT_EQ(failures.load(), 0) << "a surviving eval produced wrong bytes";
  EXPECT_EQ(ctx.admission().in_use(), 0) << "teardown leaked admission tokens";
  EXPECT_EQ(ctx.admission().waiting(), 0) << "teardown stranded a waiter";
  EXPECT_EQ(ctx.num_live_sessions(), 0);
  // Aggregate stats survive the churn: every session retired its counters.
  EvalStats::Snapshot agg = ctx.AggregateStats();
  EXPECT_GE(agg.evaluations, kThreads * kSessionsPerThread * 2);
  EXPECT_EQ(agg.deadline_evals + agg.cancelled_evals + agg.shed_evals,
            static_cast<std::int64_t>(aborted.load()));
}

// A session whose request aborts while *blocked in admission* (every token
// held by a long-running neighbor) must be destroyable immediately after:
// the timed-out waiter left no queue state behind, and the neighbor's
// release finds a consistent gate.
TEST(TeardownTest, DestroySessionAfterAdmissionAbortUnderLoad) {
  mzvec::EnsureRegistered();
  ServingContext ctx(ServingOptions{
      .pool_threads = 2, .max_pool_sessions = 1, .serial_cutoff_elems = 0});

  const long n = 1 << 20;  // long-running pooled eval to hold the one token
  std::vector<double> a = Iota(n, 1.0), b = Iota(n, 2.0);
  std::vector<double> big_out(static_cast<std::size_t>(n));

  std::atomic<bool> holder_started{false};
  std::thread holder([&] {
    SessionOptions opts;
    opts.serving = &ctx;
    Session session(opts);
    Session::Scope scope(session);
    for (int i = 0; i < 4; ++i) {
      Capture(n, a.data(), b.data(), big_out.data());
      holder_started.store(true);
      session.Evaluate();
      session.Reset();
    }
  });
  while (!holder_started.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  int aborted = 0;
  for (int i = 0; i < 4; ++i) {
    auto victim = std::make_unique<Session>([&] {
      SessionOptions opts;
      opts.serving = &ctx;
      return opts;
    }());
    std::vector<double> out(static_cast<std::size_t>(n));
    {
      Session::Scope scope(*victim);
      Capture(n, a.data(), b.data(), out.data());
    }
    CancelSource src;
    src.SetDeadlineAfterMicros(2'000);  // expires while queued (or sheds)
    EvalOptions eo;
    eo.cancel = src.token();
    try {
      victim->Evaluate(eo);
    } catch (const CancelledError&) {
      ++aborted;
    } catch (const OverloadError&) {
      ++aborted;
    }
    victim.reset();  // destroy with the neighbor still hammering the gate
  }
  holder.join();

  EXPECT_GE(aborted, 1) << "no request ever aborted in admission; test lost its point";
  EXPECT_EQ(ctx.admission().in_use(), 0);
  EXPECT_EQ(ctx.admission().waiting(), 0);
  EXPECT_EQ(ctx.num_live_sessions(), 0);

  // The gate still grants: a fresh session's pooled eval completes.
  SessionOptions opts;
  opts.serving = &ctx;
  Session fresh(opts);
  std::vector<double> out(static_cast<std::size_t>(n));
  {
    Session::Scope scope(fresh);
    Capture(n, a.data(), b.data(), out.data());
  }
  fresh.Evaluate();
  EXPECT_EQ(out, Expected(n, a, b));
}

}  // namespace
}  // namespace mz
