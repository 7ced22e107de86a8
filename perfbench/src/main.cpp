/**
 * @file
 * sigcomp_perfbench — the repository benchmark (see perfbench/README.md).
 *
 * Usage: sigcomp_perfbench --workload <paper_plan|serve_mix>
 *            --seed N --seconds S --trace <0|1> --work-dir DIR
 *            --sigcompd PATH --prof PATH
 *
 * With --trace 0 it measures the end-to-end metrics; with --trace 1
 * it runs the workload untraced and traced (half the time each), then
 * the layer probes with telemetry spans on, and reports the per-layer
 * table and the tracing overhead. Human-readable lines come first; the last
 * line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit code is non-zero when any output was wrong.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "workloads.h"

namespace
{

using namespace perfbench;
using namespace sigcomp;

int
usage()
{
    std::fprintf(stderr,
                 "usage: sigcomp_perfbench --workload "
                 "<paper_plan|serve_mix> --seed N --seconds S "
                 "--trace <0|1> --work-dir DIR --sigcompd PATH --prof PATH\n");
    return 2;
}

Outcome
runWorkload(const Options &opts)
{
    if (opts.workload == "paper_plan")
        return runPaperPlan(opts);
    return runServeMix(opts);
}

/** End-to-end metric names, in BENCHMARK.json order. */
const char *const kEndToEnd[] = {
    "setup_s",     "cold_plan_ms_p50", "plan_ms_p50", "plan_ms_p90",
    "hit_ms_p50",  "sim_minstr_per_s", "peak_rss_mb", "max_rps"};

const Metric *
findMetric(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** Complete ("ph": "X") events in the Chrome trace at @p path. */
double
countSpans(const std::string &path)
{
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::string needle = "\"ph\": \"X\"";
    double n = 0.0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        n += 1.0;
    return n;
}

/**
 * Merge the untraced and traced passes of a --trace 1 run. The traced
 * pass and the layer probes run with the library's telemetry tracing
 * on, so the Chrome trace holds the engine's spans inside the
 * benchmark's.
 */
Outcome
tracedRun(const Options &opts)
{
    Options half = opts;
    half.seconds = opts.seconds / 2.0;
    Options plainOpts = half;
    plainOpts.workDir = opts.workDir + "/untraced";
    const Outcome plain = runWorkload(plainOpts);

    telemetry::startTracing();
    Options tracedOpts = half;
    tracedOpts.workDir = opts.workDir + "/traced";
    Outcome traced = runWorkload(tracedOpts);
    Options probeOpts = opts;
    probeOpts.workDir = opts.workDir + "/probes";
    runLayerProbes(probeOpts, traced);
    telemetry::stopTracing();

    Outcome out;
    out.correct = plain.correct && traced.correct;
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.failed + traced.failed;
    out.notes = plain.notes;
    out.notes.insert(out.notes.end(), traced.notes.begin(),
                     traced.notes.end());
    out.perLayer = traced.perLayer;

    // Tracing overhead: the workload's median plan time with spans on
    // over the same with spans off, both measured in this process.
    const Metric *off = findMetric(plain.endToEnd, "plan_ms_p50");
    const Metric *on = findMetric(traced.endToEnd, "plan_ms_p50");
    if (off != nullptr && on != nullptr && off->value > 0.0) {
        out.layer("trace.overhead_pct", "%",
                  100.0 * (on->value / off->value - 1.0));
        out.note("tracing overhead: plan_ms_p50 " +
                 std::to_string(off->value) + " ms untraced, " +
                 std::to_string(on->value) + " ms traced");
    }

    const std::string tracePath = opts.workDir + "/trace-" + opts.workload +
                                  "-seed" + std::to_string(opts.seed) +
                                  ".json";
    std::string why;
    if (!telemetry::writeTrace(tracePath, &why)) {
        out.fail("cannot write the trace: " + why);
    } else {
        out.layer("trace.spans", "count", countSpans(tracePath));
        if (telemetry::droppedSpans() > 0)
            out.note("trace: " + std::to_string(telemetry::droppedSpans()) +
                     " spans dropped (a thread's span buffer filled)");
        Child prof = spawnChild({opts.prof, "validate", tracePath}, true);
        std::string line;
        while (readLine(prof.stdoutFd, &line, 60000)) {
        }
        if (waitChild(prof, 60000) != 0)
            out.fail("sigcomp_prof validate rejected " + tracePath);
        out.note("chrome trace: " + tracePath);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.self = argv[0];
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-probe") {
            opts.setupProbe = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed")
            opts.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atof(value);
        else if (arg == "--trace")
            trace = std::atoi(value);
        else if (arg == "--work-dir")
            opts.workDir = value;
        else if (arg == "--sigcompd")
            opts.sigcompd = value;
        else if (arg == "--prof")
            opts.prof = value;
        else
            return usage();
    }
    if (opts.workload != "paper_plan" && opts.workload != "serve_mix")
        return usage();
    if (opts.workDir.empty() || opts.sigcompd.empty() || opts.prof.empty())
        return usage();
    removeTree(opts.workDir);
    if (!makeDirs(opts.workDir))
        return usage();
    if (opts.setupProbe)
        return runSetupProbe(opts);
    if ((trace != 0 && trace != 1) || !(opts.seconds > 0.0))
        return usage();
    opts.trace = trace == 1;

    Outcome out = opts.trace ? tracedRun(opts) : runWorkload(opts);
    const std::vector<Metric> &metrics =
        opts.trace ? out.perLayer : out.endToEnd;

    if (!opts.trace) {
        // Every end-to-end metric the workload owes must be present
        // and measured (a missing or empty sample is an error).
        for (const std::string name : kEndToEnd) {
            const Metric *m = findMetric(metrics, name);
            if (m == nullptr || !std::isfinite(m->value) || m->value <= 0.0)
                out.fail("end-to-end metric " + name + " not measured");
        }
    }
    for (const std::string &n : out.notes)
        std::printf("%s\n", n.c_str());
    std::printf("workload %s seed %llu: %llu operations, %llu failed, "
                "error_rate %.6f ratio\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 1.0);
    printTable(opts.trace ? "per-layer metrics (traced run):"
                          : "end-to-end metrics:",
               metrics);

    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                      out.attempted, 1));
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
                value + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return out.correct ? 0 : 1;
}
