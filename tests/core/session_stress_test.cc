// Concurrency stress for the serving layer, written to run under
// ThreadSanitizer (-DMZ_SANITIZE=thread): many clients hammer one
// ServingContext — shared pool, shared plan cache, admission gate — while a
// background thread issues registry lookups and periodic registrations
// (plan-cache invalidation) the whole time. Data sizes are small so the run
// stays fast under TSan's ~10x slowdown; the point is interleavings, not
// throughput.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <typeindex>
#include <vector>

#include "core/client.h"
#include "core/session.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

TEST(SessionStressTest, ManyClientsWithRegistryChurn) {
  constexpr int kClients = 10;
  constexpr int kEvalsPerClient = 40;

  mzvec::EnsureRegistered();
  ServingContext ctx(ServingOptions{
      .pool_threads = 4,
      .max_pool_sessions = 2,
      // Cutoff chosen between the two client sizes below so both admission
      // paths (inline-on-caller and pooled-with-token) run concurrently.
      .serial_cutoff_elems = 512,
  });

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Background churn: read-mostly lookups plus occasional registration,
  // exactly what a server doing lazy library loading would produce.
  std::thread churn([&] {
    const InternedId array_split = InternName("ArraySplit");
    int round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < 100; ++i) {
        (void)Registry::Global().FindSplitter(array_split, std::type_index(typeid(double*)));
        (void)Registry::Global().HasSplitType(array_split);
      }
      (void)Registry::Global().version();
      std::string name = "StressProbe" + std::to_string(round++ % 4);
      Registry::Global().DefineSplitType(name, nullptr, nullptr);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Odd clients run tiny (inline) plans, even clients pooled ones.
      const long n = (c % 2 == 0) ? 2048 : 256;
      std::vector<double> a(static_cast<std::size_t>(n), 1.0 + c);
      std::vector<double> out(static_cast<std::size_t>(n));

      SessionOptions opts;
      opts.serving = &ctx;
      Session session(opts);
      Session::Scope scope(session);
      for (int e = 0; e < kEvalsPerClient; ++e) {
        {
          mzvec::Sqrt(n, a.data(), out.data());
          mzvec::Mul(n, out.data(), out.data(), out.data());
          Future<double> total = mzvec::Sum(n, out.data());
          // sqrt(x)^2 == x, so the sum telescopes to n * (1 + c).
          double want = static_cast<double>(n) * (1.0 + c);
          if (std::abs(total.get() - want) > 1e-6 * want) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }  // drop the Future before Reset
        session.Reset();
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  churn.join();

  EXPECT_EQ(failures.load(), 0);
  EvalStats::Snapshot total = ctx.AggregateStats();
  EXPECT_EQ(total.evaluations, kClients * kEvalsPerClient);
  EXPECT_GT(total.serial_evals, 0) << "no evaluation took the inline path";
  EXPECT_GT(total.pooled_evals, 0) << "no evaluation took the pooled path";
}

// Same shape of churn, but through the full adaptive stack: LRU+byte-capped
// plan cache (small enough to evict constantly) and queue-depth-adaptive
// admission — the interleavings TSan needs to see are eviction-under-lookup
// and budget recompute under Acquire.
TEST(SessionStressTest, ManyClientsThroughAdaptiveStack) {
  constexpr int kClients = 10;
  constexpr int kEvalsPerClient = 40;

  mzvec::EnsureRegistered();
  ServingOptions serving;
  serving.pool_threads = 4;
  serving.max_pool_sessions = 2;
  serving.serial_cutoff_elems = 512;
  serving.plan_cache_entries = 4;     // far below the working set: constant eviction
  serving.plan_cache_bytes = 4096;    // and a byte budget on top
  serving.adaptive_admission = true;
  // Cap the adaptive cutoff BELOW the large clients' 2048 elements so both
  // admission paths stay exercised no matter how congested the pool looks.
  serving.admission_tuning.base_cutoff_elems = 512;
  serving.admission_tuning.max_cutoff_elems = 1024;
  ServingContext ctx(serving);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread churn([&] {
    int round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < 100; ++i) {
        (void)Registry::Global().version();
      }
      std::string name = "AdaptiveStressProbe" + std::to_string(round++ % 4);
      Registry::Global().DefineSplitType(name, nullptr, nullptr);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Odd clients run tiny (inline) plans, even clients pooled
      // ones; every client also rotates through per-eval unique sizes so
      // the capped cache keeps evicting.
      const long base = (c % 2 == 0) ? 2048 : 256;
      SessionOptions opts;
      opts.serving = &ctx;
      Session session(opts);
      Session::Scope scope(session);
      for (int e = 0; e < kEvalsPerClient; ++e) {
        const long n = base + (e % 3);  // 3 sizes per client: cache churn
        std::vector<double> a(static_cast<std::size_t>(n), 1.0 + c);
        std::vector<double> out(static_cast<std::size_t>(n));
        {
          mzvec::Sqrt(n, a.data(), out.data());
          mzvec::Mul(n, out.data(), out.data(), out.data());
          Future<double> total = mzvec::Sum(n, out.data());
          double want = static_cast<double>(n) * (1.0 + c);
          if (std::abs(total.get() - want) > 1e-6 * want) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }  // drop the Future before Reset
        session.Reset();
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  churn.join();

  EXPECT_EQ(failures.load(), 0);
  EvalStats::Snapshot total = ctx.AggregateStats();
  EXPECT_EQ(total.evaluations, kClients * kEvalsPerClient);
  EXPECT_GT(total.serial_evals, 0) << "no evaluation took the inline path";
  EXPECT_GT(total.pooled_evals, 0) << "no evaluation took the pooled path";
  EXPECT_EQ(total.serial_evals + total.pooled_evals, total.evaluations);
  EXPECT_GT(total.plan_cache_evictions, 0) << "capped cache never evicted";
  EXPECT_LE(ctx.plan_cache().size(), 4u);
  EXPECT_LE(ctx.plan_cache().bytes(), 4096u);
}

}  // namespace
}  // namespace mz
