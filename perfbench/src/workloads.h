/**
 * @file
 * The benchmark's two workloads and the layer probes of the traced
 * run. Each workload fills an Outcome with every end-to-end metric
 * (the meaning of each per workload is in perfbench/README.md).
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>

#include "bench.h"

namespace perfbench
{

/** What one set-up reports: its wall time and its cold plan. */
struct SetupSample
{
    double setupS = 0.0;
    double coldPlanMs = 0.0;
};

/**
 * Measure set-up the way the end-to-end metric needs it: two fresh
 * child processes run @p opts.workload's set-up alone (so each pays
 * the first suiteConfig() call again), then @p ownSetup runs in this
 * process. Adds setup_s (median of the three) to @p out and returns
 * the three samples.
 */
std::vector<SetupSample>
measureSetup(const Options &opts, Outcome &out,
             const std::function<SetupSample()> &ownSetup);

/** Set-up probe entry point (child process mode). */
int runSetupProbe(const Options &opts);

Outcome runPaperPlan(const Options &opts);
Outcome runServeMix(const Options &opts);

SetupSample setupPaperPlanProbe(const Options &opts);
SetupSample setupServeMixProbe(const Options &opts);

/**
 * The traced run's layer probes: each module's public functions timed
 * (and spanned) on seeded inputs, reduced to the per-layer metrics.
 * The same for every workload, so every traced run reports the whole
 * per-layer table.
 */
void runLayerProbes(const Options &opts, Outcome &out);

/**
 * A 1.5 s serve_mix schedule against a daemon already serving @p store
 * on @p port: the /statsz deltas, hit and join ratios, realised mix
 * and generator lateness of the per-layer table, for the traced runs
 * of workloads that start no daemon of their own. serve_mix's traced
 * run reports the same metrics from its sigcompd child instead.
 */
void serveMixProbe(const Options &opts, const std::string &store,
                   std::uint16_t port, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
