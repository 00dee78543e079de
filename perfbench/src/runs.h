// The benchmark's workloads; each fills `report` for one run (see
// perfbench/README.md for why each exists and what it measures).
#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include "harness.h"

namespace pb {

void RunBulk(const Args& args, Report* report);
void RunTiny(const Args& args, Report* report);
void RunServe(const Args& args, Report* report);

}  // namespace pb

#endif  // PERFBENCH_RUNS_H_
