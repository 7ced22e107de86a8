/**
 * @file
 * Set-up measurement and the batch workload, paper_plan: closed loop,
 * one client, driving analysis::Session.
 */

#include <unistd.h>

#include <cstdio>
#include <memory>

#include "analysis/session.h"
#include "pipeline/models.h"
#include "workloads.h"

namespace perfbench
{

using namespace sigcomp;

// ---- set-up ----------------------------------------------------------

std::vector<SetupSample>
measureSetup(const Options &opts, Outcome &out,
             const std::function<SetupSample()> &ownSetup)
{
    std::vector<SetupSample> samples;
    // The traced run only needs the set-up done, not measured.
    const int probes = opts.trace ? 0 : 2;
    for (int i = 0; i < probes; ++i) {
        Child child = spawnChild(
            {opts.self, "--setup-probe", "--workload", opts.workload,
             "--seed", std::to_string(opts.seed + 1000 * (i + 1)),
             "--work-dir", opts.workDir + "/probe" + std::to_string(i),
             "--sigcompd", opts.sigcompd, "--prof", opts.prof},
            true);
        std::string line, last;
        while (readLine(child.stdoutFd, &line, 120000))
            last = line;
        const int rc = waitChild(child, 30000);
        SetupSample s;
        if (rc != 0 || std::sscanf(last.c_str(), "perfbench-setup %lf %lf",
                                   &s.setupS, &s.coldPlanMs) != 2) {
            out.fail("set-up probe " + std::to_string(i) + " failed");
            continue;
        }
        samples.push_back(s);
    }
    samples.push_back(ownSetup());
    std::vector<double> secs;
    for (const SetupSample &s : samples)
        secs.push_back(s.setupS);
    out.e2e("setup_s", "s", median(secs));
    return samples;
}

int
runSetupProbe(const Options &opts)
{
    SetupSample s;
    if (opts.workload == "paper_plan")
        s = setupPaperPlanProbe(opts);
    else if (opts.workload == "serve_mix")
        s = setupServeMixProbe(opts);
    else
        return 2;
    if (s.setupS <= 0.0)
        return 1;
    std::printf("perfbench-setup %.9f %.9f\n", s.setupS, s.coldPlanMs);
    return 0;
}

namespace
{

double
vmHwmMb()
{
    return static_cast<double>(procStatusKb(getpid(), "VmHWM")) / 1024.0;
}

// ---- paper_plan ------------------------------------------------------

/**
 * Set-up state: the threads=1 reference of the paper plan, and the
 * serial Session that computed it (its traces stay resident).
 */
struct PaperReference
{
    std::unique_ptr<analysis::Session> serial;
    std::string study;
    std::string sinks;
};

SetupSample
setupPaperPlan(PaperReference *ref)
{
    const Clock::time_point t0 = Clock::now();
    timedMs("perfbench.suite_config", [] { (void)analysis::suiteConfig(); });
    ref->serial = std::make_unique<analysis::Session>(
        analysis::SessionConfig{.threads = 1});
    PaperSinks sinks;
    analysis::SuiteReport report;
    timedMs("perfbench.reference_run",
            [&] { report = ref->serial->run(paperPlan(&sinks)); });
    ref->study = studyBytes(report.toJson());
    ref->sinks = sinkDigest(sinks);
    return {msSince(t0) / 1000.0, 0.0};
}

} // namespace

SetupSample
setupPaperPlanProbe(const Options &)
{
    PaperReference ref;
    return setupPaperPlan(&ref);
}

Outcome
runPaperPlan(const Options &opts)
{
    Outcome out;
    PaperReference ref;
    measureSetup(opts, out, [&] { return setupPaperPlan(&ref); });
    if (ref.study.empty())
        out.fail("reference report has no v4 study rows");

    const std::size_t nw = benchWorkloads().size();
    // Pipeline models the plan registers per trace: the CPI designs,
    // two activity studies and one energy study.
    const double pipelines =
        static_cast<double>(pipeline::allDesigns().size() + 3);
    std::vector<double> coldMs, warmMs, hitMs;
    double simInstr = 0.0;
    // Memo hits per iteration: enough for a p99 with ten samples
    // beyond it over a run, and cheap next to the two plan runs.
    constexpr int kHitsPerIteration = 200;

    const Clock::time_point start = Clock::now();
    for (int iter = 0; iter == 0 || msSince(start) < opts.seconds * 1000.0;
         ++iter) {
        const std::string dir =
            opts.workDir + "/store-" + std::to_string(iter);
        removeTree(dir);

        auto check = [&](const analysis::SuiteReport &r,
                         const PaperSinks &s, const char *what) {
            ++out.attempted;
            if (studyBytes(r.toJson()) != ref.study)
                out.fail(std::string(what) +
                         " study rows differ from the threads=1 reference");
            else if (sinkDigest(s) != ref.sinks)
                out.fail(std::string(what) +
                         " profiler tallies differ from the reference");
        };

        {
            analysis::Session cold({.storeDir = dir});
            PaperSinks sinks;
            const analysis::StudyPlan plan = paperPlan(&sinks);
            analysis::SuiteReport r;
            coldMs.push_back(
                timedMs("perfbench.cold_plan", [&] { r = cold.run(plan); }));
            check(r, sinks, "cold run");
            if (r.captures != nw)
                out.fail("cold run captured " + std::to_string(r.captures) +
                         " traces, expected " + std::to_string(nw));
        }

        analysis::Session warm({.storeDir = dir, .readOnly = true});
        {
            PaperSinks sinks;
            const analysis::StudyPlan plan = paperPlan(&sinks);
            analysis::SuiteReport r;
            warmMs.push_back(
                timedMs("perfbench.warm_plan", [&] { r = warm.run(plan); }));
            simInstr += static_cast<double>(r.instructions) * pipelines;
            check(r, sinks, "warm run");
            if (r.storeLoads != nw || r.captures != 0)
                out.fail("warm run loaded " + std::to_string(r.storeLoads) +
                         " and captured " + std::to_string(r.captures) +
                         " traces, expected " + std::to_string(nw) +
                         " and 0");
        }

        // Repeating the sinkless part of the plan on the serial
        // reference Session is answered from the per-trace result
        // memo: the hit path. (On a pooled Session the same lookup
        // also fans out twice over the executor, and its time then
        // follows the host's thread wake-up latency more than the
        // memo path.)
        const analysis::StudyPlan repeat = paperPlan(nullptr);
        for (int h = 0; h < kHitsPerIteration; ++h) {
            analysis::SuiteReport r;
            hitMs.push_back(timedMs("perfbench.hit_plan",
                                    [&] { r = ref.serial->run(repeat); }));
            ++out.attempted;
            if (r.replayPasses != 0 || r.captures != 0)
                out.fail("repeated plan replayed or captured");
            else if (h == 0 && studyBytes(r.toJson()) != ref.study)
                out.fail("repeated plan's rows differ from the reference");
        }
        removeTree(dir);
    }

    std::vector<double> plans = coldMs;
    plans.insert(plans.end(), warmMs.begin(), warmMs.end());
    out.e2e("cold_plan_ms_p50", "ms", median(coldMs));
    out.e2e("plan_ms_p50", "ms", median(warmMs));
    out.e2e("plan_ms_p90", "ms", quantile(warmMs, 0.9));
    out.e2e("hit_ms_p50", "ms", median(hitMs));
    out.e2e("sim_minstr_per_s", "Minstr/s", simInstr / sum(warmMs) / 1e3);
    out.e2e("peak_rss_mb", "MB", vmHwmMb());
    out.e2e("max_rps", "req/s",
            static_cast<double>(plans.size()) / sum(plans) * 1e3);
    out.note("paper_plan: " + std::to_string(coldMs.size()) +
             " iterations (cold + warm run each), " +
             std::to_string(hitMs.size()) + " repeated plans (hit " +
             tailNote(hitMs) + ")");
    return out;
}

} // namespace perfbench
