// The benchmark's workloads. Each runs its set-up options.setups times, then
// a fixed number of rounds of one fixed operation list (RoundsFor), checks
// every round's outputs, and fills `report` with the end-to-end metrics —
// plus the per-layer metrics when options.trace is set.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include "e2ebench/src/harness.h"

namespace e2e {

/// Interactive traffic: three closed-loop clients, one single-row "ours"
/// request each in flight, against one embedded adult pipeline.
void RunServe(const RunOptions& options, Report* report);

/// Bulk traffic: two windowed clients over two registry models, a fixed
/// share of DiCE-random fallback requests, and stream ingest beside it.
void RunServeBulk(const RunOptions& options, Report* report);

/// The paper's Table IV grid on adult and law: nine methods each.
void RunTableFour(const RunOptions& options, Report* report);

/// The Figure 6 manifolds on adult (Barnes-Hut t-SNE) and law (exact).
void RunManifold(const RunOptions& options, Report* report);

/// Checks the benchmark's own arithmetic and output checks on hand-made
/// inputs; returns the process exit code.
int RunSelfTest();

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
