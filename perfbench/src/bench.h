/**
 * @file
 * Shared pieces of the sigcomp benchmark: run options, the result
 * record every workload fills, order statistics, process memory
 * probes, child processes, a loopback HTTP client, and the timer
 * that opens the traced run's spans.
 *
 * The benchmark drives the repository only through its public APIs
 * (analysis::Session/StudyPlan, the sigcompd binary, and each
 * module's public functions in the layer probes). Its spans go to the
 * library's own telemetry tracer (common/telemetry.h), around those
 * calls, so one Chrome trace holds them and the engine's spans.
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "analysis/profilers.h"
#include "analysis/study_plan.h"
#include "common/telemetry.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p t0. */
double msSince(Clock::time_point t0);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for stores and traces (inside the checkout). */
    std::string workDir;
    /** This binary, sigcompd and sigcomp_prof. */
    std::string self;
    std::string sigcompd;
    std::string prof;
    /** Set-up probe mode: run the workload's set-up once and report it. */
    bool setupProbe = false;
};

/** One named measurement. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** What one workload run reports. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    /** Record a failed or wrong-output operation (and say why). */
    void fail(const std::string &why);
    void note(const std::string &line) { notes.push_back(line); }
    void e2e(const std::string &name, const std::string &unit, double v)
    {
        endToEnd.push_back({name, unit, v});
    }
    void layer(const std::string &name, const std::string &unit, double v)
    {
        perLayer.push_back({name, unit, v});
    }
};

// ---- order statistics ------------------------------------------------

/** Quantile @p q in [0,1] by linear interpolation (0 when empty). */
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double> &v) { return quantile(v, 0.5); }
double sum(const std::vector<double> &v);
/** "p90 X ms, p99 Y ms over N samples": the tail printed beside a median. */
std::string tailNote(const std::vector<double> &ms);

// ---- process probes --------------------------------------------------

/** A /proc/<pid>/status field in kB (VmHWM, VmRSS, ...); 0 if absent. */
std::uint64_t procStatusKb(pid_t pid, const char *field);

/** Remove a directory tree (best effort). */
void removeTree(const std::string &path);

/** Create a directory and its parents. */
bool makeDirs(const std::string &path);

/** A spawned child process with an optional stdout pipe. */
struct Child
{
    pid_t pid = -1;
    int stdoutFd = -1;
};

/** Spawn @p argv; stdout is piped back when @p pipeStdout. */
Child spawnChild(const std::vector<std::string> &argv, bool pipeStdout);

/**
 * Read one line from @p fd, waiting at most @p timeoutMs. False on
 * EOF or timeout.
 */
bool readLine(int fd, std::string *line, int timeoutMs);

/**
 * Wait for @p child to exit within @p timeoutMs; on timeout it is
 * killed and reaped. Returns the exit status (-1 when killed or
 * signalled). Closes the stdout pipe.
 */
int waitChild(Child &child, int timeoutMs);

// ---- HTTP over loopback TCP ------------------------------------------

struct HttpReply
{
    bool transportOk = false;
    int status = 0;
    std::string body;
};

/** One request on a fresh connection (the daemon serves one per conn). */
HttpReply httpCall(std::uint16_t port, const std::string &request);

/** Connect, send @p request, wait @p afterMs, then hang up unread. */
bool httpHangup(std::uint16_t port, const std::string &request,
                int afterMs);

std::string httpGet(const std::string &target);
std::string httpPost(const std::string &tenant, const std::string &body);

/** Counter @p name ("daemon.runs", ...) out of a /statsz body. */
std::uint64_t statszCounter(const std::string &statsz,
                            const std::string &name);

// ---- plans and checks ------------------------------------------------

/** The 12 suite kernels plus mesa and huff, in canonical order. */
const std::vector<std::string> &benchWorkloads();

/** The paper plan's three profiler sinks, fresh per run. */
struct PaperSinks
{
    sigcomp::analysis::PatternProfiler pattern;
    sigcomp::analysis::InstrMixProfiler mix;
    sigcomp::analysis::PcProfiler pc;
};

/**
 * The paper reproduction: CPI of every design at the suite config,
 * activity at Ext3 and Half1, energy, and (with @p sinks) the three
 * profiler sinks, over benchWorkloads().
 */
sigcomp::analysis::StudyPlan paperPlan(PaperSinks *sinks);

/** Deterministic text digest of the three sinks' tallies. */
std::string sinkDigest(const PaperSinks &sinks);

/**
 * The study rows of a sigcomp-suite-report-v4 document: workloads,
 * instructions and the activity, cpi and energy arrays. Wall time,
 * threads, engine, health, telemetry and the sink count are
 * excluded. Empty when the document does not have the v4 shape.
 */
std::string studyBytes(const std::string &reportJson);

/** A seeded generator (same seed, same inputs). */
using Rng = std::mt19937_64;

// ---- timing --------------------------------------------------------

/**
 * Run @p fn inside a telemetry span labelled @p label and return its
 * wall time in ms. The label must outlive the trace (a literal, or a
 * string kept for the whole run). The span is recorded only while
 * telemetry tracing is on, in the traced run, where the engine's own
 * spans nest inside it; the time is measured either way.
 */
template <class Fn>
double
timedMs(const char *label, Fn &&fn)
{
    sigcomp::telemetry::SpanScope span(label);
    const Clock::time_point t0 = Clock::now();
    fn();
    return msSince(t0);
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
