// Deterministic fault injection for robustness testing.
//
// MZ_FAULT(site) marks a named injection point. Sites are compiled into the
// production paths the chaos battery exercises — admission, the executor's
// batch/split/merge loops, plan-cache lookups, stream chunk handling — and cost a single relaxed atomic load plus a never-taken branch
// when the injector is disarmed (the default), so shipping them is free.
//
// When armed (FaultInjector::Global().Arm(cfg)), every hit of a site draws
// from a counter-keyed hash of (seed, site, per-site hit index) and fires a
// throw (FaultInjected, an mz::Error subclass so the runtime's user-error
// unwind paths handle it) or a delay with the configured probabilities. The
// decision depends only on the seed and the per-site hit index — not on
// thread scheduling — so the *set* of firing (site, index) pairs is
// reproducible run to run even though which worker thread observes a given
// index is not. Tests assert invariants (no leaked tokens, no stuck
// waiters, clean retry), which that level of determinism pins down.
#ifndef MOZART_COMMON_FAULT_H_
#define MOZART_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.h"

namespace mz {

// Thrown by a firing injection point. Subclasses mz::Error deliberately:
// injected faults must travel the same unwind paths user-provoked errors do.
class FaultInjected : public Error {
 public:
  explicit FaultInjected(const std::string& what) : Error(what) {}
};

struct FaultConfig {
  std::uint64_t seed = 1;
  double p_throw = 0.0;        // per-hit probability of throwing FaultInjected
  double p_delay = 0.0;        // per-hit probability of sleeping delay_us
  std::int64_t delay_us = 50;  // length of an injected delay
  // Restrict injection to one site name ("" = all sites). Non-matching
  // sites still count hits (the catalogue in sites() stays complete).
  std::string only_site;
  // Stop firing after this many injections (-1 = unbounded). Bounds a chaos
  // run's failure count without disarming mid-flight.
  std::int64_t max_fires = -1;
};

class FaultInjector {
 public:
  static FaultInjector& Global();

  // Enables injection with a fresh per-site counter table. Thread-safe, but
  // meant to be called from a quiescent test harness, not concurrently with
  // itself.
  void Arm(const FaultConfig& cfg);
  // Disables injection. Counters are preserved for inspection until the
  // next Arm().
  void Disarm();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Called by MZ_FAULT when enabled; decides deterministically whether this
  // (site, hit-index) fires. May throw FaultInjected or sleep.
  void Hit(const char* site);

  // Introspection: total site hits / injections fired since the last Arm().
  std::int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::int64_t fires() const { return fires_.load(std::memory_order_relaxed); }
  // Every site name observed since the last Arm() (the fault-site catalogue
  // a chaos sweep actually covered), with hit counts.
  std::vector<std::pair<std::string, std::int64_t>> sites() const;

 private:
  FaultInjector() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> fires_{0};
  mutable std::mutex mu_;
  FaultConfig cfg_;
  std::map<std::string, std::int64_t> site_hits_;
};

// Zero-cost when disarmed: one relaxed load on the (cold, shared) enabled
// flag. The [[unlikely]] keeps the armed path out of line.
#define MZ_FAULT(site)                                       \
  do {                                                       \
    if (::mz::FaultInjector::Global().enabled()) [[unlikely]] { \
      ::mz::FaultInjector::Global().Hit(site);               \
    }                                                        \
  } while (0)

}  // namespace mz

#endif  // MOZART_COMMON_FAULT_H_
