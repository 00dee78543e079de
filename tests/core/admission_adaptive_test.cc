// Queue-depth-adaptive admission policy, driven with synthetic depth traces.
// Correctness-only by design: no wall-clock assertions (single-core CI makes
// timing unreliable — see ROADMAP); liveness is shown by completion, not by
// measured latency.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "core/admission.h"

namespace mz {
namespace {

AdmissionOptions Tuning() {
  AdmissionOptions opts;
  opts.min_tokens = 1;
  opts.max_tokens = 4;
  opts.base_cutoff_elems = 1000;
  opts.max_cutoff_elems = 100000;
  opts.ewma_alpha = 0.5;
  opts.congested_depth = 8.0;
  return opts;
}

TEST(AdmissionAdaptiveTest, FixedGateIgnoresObservationsAndUsesFallbackCutoff) {
  AdmissionGate gate(2);
  EXPECT_FALSE(gate.adaptive());
  EXPECT_EQ(gate.tokens(), 2);
  EXPECT_EQ(gate.cutoff_elems(4096), 4096);
  gate.Observe(1000);  // no-op
  EXPECT_EQ(gate.tokens(), 2);
  EXPECT_EQ(gate.cutoff_elems(4096), 4096);
  EXPECT_DOUBLE_EQ(gate.ewma_depth(), 0.0);
}

TEST(AdmissionAdaptiveTest, IdleGateStartsAtMaxTokensAndBaseCutoff) {
  AdmissionGate gate(Tuning());
  EXPECT_TRUE(gate.adaptive());
  EXPECT_EQ(gate.tokens(), 4);
  EXPECT_EQ(gate.cutoff_elems(0), 1000);
}

TEST(AdmissionAdaptiveTest, MonotoneResponseToRisingDepth) {
  AdmissionGate gate(Tuning());
  // A non-decreasing depth trace gives a non-decreasing EWMA, which must map
  // to a non-increasing token budget and a non-decreasing inline cutoff.
  const std::vector<std::size_t> trace = {0, 0, 1, 1, 2, 3, 4, 4, 6, 8, 8, 10, 12, 16, 16, 24, 32};
  double prev_ewma = gate.ewma_depth();
  int prev_tokens = gate.tokens();
  std::int64_t prev_cutoff = gate.cutoff_elems(0);
  for (std::size_t depth : trace) {
    gate.Observe(depth);
    EXPECT_GE(gate.ewma_depth(), prev_ewma);
    EXPECT_LE(gate.tokens(), prev_tokens) << "budget grew while depth rose";
    EXPECT_GE(gate.cutoff_elems(0), prev_cutoff) << "cutoff shrank while depth rose";
    prev_ewma = gate.ewma_depth();
    prev_tokens = gate.tokens();
    prev_cutoff = gate.cutoff_elems(0);
  }
  // The trace ends well past congested_depth: fully congested policy.
  EXPECT_EQ(gate.tokens(), 1);
  EXPECT_EQ(gate.cutoff_elems(0), 100000);
}

TEST(AdmissionAdaptiveTest, RecoversWhenDepthFalls) {
  AdmissionGate gate(Tuning());
  for (int i = 0; i < 20; ++i) {
    gate.Observe(64);  // saturate
  }
  EXPECT_EQ(gate.tokens(), 1);
  int prev_tokens = gate.tokens();
  std::int64_t prev_cutoff = gate.cutoff_elems(0);
  for (int i = 0; i < 40; ++i) {
    gate.Observe(0);  // pool drains
    EXPECT_GE(gate.tokens(), prev_tokens);
    EXPECT_LE(gate.cutoff_elems(0), prev_cutoff);
    prev_tokens = gate.tokens();
    prev_cutoff = gate.cutoff_elems(0);
  }
  EXPECT_EQ(gate.tokens(), 4);
  EXPECT_EQ(gate.cutoff_elems(0), 1000);
}

TEST(AdmissionAdaptiveTest, BudgetAndCutoffStayBoundedUnderArbitraryTraces) {
  AdmissionOptions opts = Tuning();
  AdmissionGate gate(opts);
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> depth(0, 1 << 20);
  for (int i = 0; i < 5000; ++i) {
    gate.Observe(static_cast<std::size_t>(depth(rng)));
    const int tokens = gate.tokens();
    const std::int64_t cutoff = gate.cutoff_elems(0);
    ASSERT_GE(tokens, opts.min_tokens);
    ASSERT_LE(tokens, opts.max_tokens);
    ASSERT_GE(cutoff, opts.base_cutoff_elems);
    ASSERT_LE(cutoff, opts.max_cutoff_elems);
    ASSERT_GE(gate.ewma_depth(), 0.0);
  }
}

TEST(AdmissionAdaptiveTest, DegenerateTuningIsSanitized) {
  AdmissionOptions opts;
  opts.min_tokens = -3;       // floor to 1: large plans must never starve
  opts.max_tokens = -7;       // floor to min
  opts.base_cutoff_elems = -1;
  opts.max_cutoff_elems = -100;
  opts.ewma_alpha = 42.0;     // clamp into (0, 1]
  opts.congested_depth = 0.0;
  AdmissionGate gate(opts);
  gate.Observe(1000);
  EXPECT_EQ(gate.tokens(), 1);
  EXPECT_GE(gate.cutoff_elems(0), 0);
  EXPECT_EQ(gate.options().min_tokens, 1);
  EXPECT_GE(gate.options().ewma_alpha, 0.0);
  EXPECT_LE(gate.options().ewma_alpha, 1.0);

  // A non-positive half-life falls back to the default instead of turning
  // decay off, so a burst's shrunk budget still recovers after an idle gap.
  for (double half_life_us : {0.0, -250.0}) {
    AdmissionOptions t = Tuning();
    t.decay_half_life_us = half_life_us;
    AdmissionGate decaying(t);
    EXPECT_EQ(decaying.options().decay_half_life_us, AdmissionOptions{}.decay_half_life_us);
    std::int64_t now = 1'000'000;
    for (int i = 0; i < 20; ++i) {
      decaying.ObserveAtNanos(1 << 16, now);
      now += 1'000;
    }
    ASSERT_EQ(decaying.tokens(), t.min_tokens) << "half_life_us=" << half_life_us;
    decaying.ObserveAtNanos(0, now + 1'000'000'000);
    EXPECT_EQ(decaying.tokens(), t.max_tokens) << "half_life_us=" << half_life_us;
  }
}

TEST(AdmissionAdaptiveTest, NoStarvationOfLargePlansUnderFullCongestion) {
  AdmissionGate gate(Tuning());
  for (int i = 0; i < 20; ++i) {
    gate.Observe(1 << 16);  // pin the budget at min_tokens == 1
  }
  ASSERT_EQ(gate.tokens(), 1);

  // Every acquirer must eventually get the single token; completion of all
  // threads IS the assertion (a starved thread would hang the test).
  constexpr int kThreads = 8;
  constexpr int kRoundsEach = 25;
  std::atomic<int> admissions{0};
  std::atomic<int> concurrent{0};
  std::atomic<bool> over_budget{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRoundsEach; ++r) {
        AdmissionGate::Ticket ticket = gate.Acquire();
        if (concurrent.fetch_add(1, std::memory_order_acq_rel) + 1 > 1) {
          over_budget.store(true, std::memory_order_relaxed);
        }
        admissions.fetch_add(1, std::memory_order_relaxed);
        concurrent.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(admissions.load(), kThreads * kRoundsEach);
  EXPECT_FALSE(over_budget.load()) << "more evaluations in flight than the budget allows";
  EXPECT_EQ(gate.in_use(), 0);
}

TEST(AdmissionAdaptiveTest, BudgetGrowthWakesBlockedAcquirers) {
  AdmissionGate gate(Tuning());
  for (int i = 0; i < 20; ++i) {
    gate.Observe(1 << 16);
  }
  ASSERT_EQ(gate.tokens(), 1);

  AdmissionGate::Ticket held = gate.Acquire();  // budget exhausted
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    AdmissionGate::Ticket t = gate.Acquire();
    admitted.store(true, std::memory_order_release);
  });
  // Drain the synthetic congestion WITHOUT releasing the held token: the
  // growing budget alone must admit the waiter.
  while (!admitted.load(std::memory_order_acquire)) {
    gate.Observe(0);
    std::this_thread::yield();
  }
  waiter.join();
  EXPECT_GT(gate.tokens(), 1);
}

}  // namespace
}  // namespace mz
