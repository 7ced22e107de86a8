/**
 * @file
 * Declarative description of a suite experiment: which studies to
 * run, over which workloads, at what parallelism. A StudyPlan is
 * inert data — Session::run(plan) executes it with **one fused
 * replay pass per workload trace** feeding every registered study
 * (see analysis/session.h), so "N studies over M designs/encodings"
 * costs one trace traversal, not N.
 *
 *   StudyPlan plan;
 *   plan.cpi(pipeline::allDesigns(), analysis::suiteConfig())
 *       .activity(sig::Encoding::Ext3)
 *       .profile({&patterns, &mix})
 *       .energy(power::TechParams{})
 *       .workloads({"rawcaudio", "cjpeg"});
 *   analysis::SuiteReport report = session.run(plan);
 */

#ifndef SIGCOMP_ANALYSIS_STUDY_PLAN_H_
#define SIGCOMP_ANALYSIS_STUDY_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/profile_sink.h"
#include "common/cancel.h"
#include "pipeline/models.h"
#include "pipeline/pipeline.h"
#include "power/energy_model.h"
#include "sigcomp/compressed_word.h"

namespace sigcomp::analysis
{

class Session;
struct PlanError;

class StudyPlan
{
  public:
    /**
     * Register an activity study (paper Tables 5/6): every workload
     * through the serial pipeline at @p enc's granularity
     * (Half1 -> halfword-serial, else byte-serial) with the suite
     * compressor (suiteConfig()). Repeatable: one result per call, in
     * call order.
     */
    StudyPlan &activity(sig::Encoding enc = sig::Encoding::Ext3);

    /**
     * Register a CPI study (paper Figs 4/6/8/10): every workload
     * through each of @p designs built with @p config. Repeatable.
     * The result carries full PipelineResults (CPI, stalls, activity,
     * cache stats), so one registered study also serves energy and
     * explorer consumers.
     */
    StudyPlan &cpi(std::vector<pipeline::Design> designs,
                   pipeline::PipelineConfig config);

    /**
     * Register caller-owned profiler sinks (paper Tables 1-3), fed
     * by the same single pass that feeds the pipeline studies. Each
     * workload's replay feeds its own fresh() part of every sink;
     * after the fan-out the parts of the completed workloads merge
     * into the caller's sinks in suite order, so a sink ends in
     * exactly the state of the serial retirement stream at any
     * thread count, and needs no locking (see
     * analysis/profile_sink.h). Repeatable (appends).
     */
    StudyPlan &profile(std::vector<ProfileSink *> sinks);

    /**
     * Register an energy study: per-workload Wattch-style energy of
     * @p design at @p enc (suite compressor) under
     * @p tech. Rides the same fused pass. Repeatable.
     */
    StudyPlan &energy(power::TechParams tech = power::TechParams{},
                      pipeline::Design design =
                          pipeline::Design::ByteSerial,
                      sig::Encoding enc = sig::Encoding::Ext3);

    /**
     * Restrict the plan to these workloads, in this order (default:
     * the full suite in canonical order). Names must be suite
     * workloads or programs registered on the executing Session.
     */
    StudyPlan &workloads(std::vector<std::string> names);

    /**
     * Override the executing session's thread count for this run
     * (0 = shared pool, 1 = serial). Study rows and sink tallies are
     * independent of the value.
     */
    StudyPlan &threads(unsigned n);

    /**
     * Drop each workload's cached trace right after its fused pass,
     * so peak memory tails off at one workload's footprint.
     */
    StudyPlan &evictAfterReplay(bool on = true);

    /**
     * Write a Chrome trace-event JSON profile of this run to @p path
     * (chrome://tracing / Perfetto loadable; same format as the
     * SIGCOMP_TRACE env var). Telemetry is a pure side channel:
     * study results are bit-identical with and without it.
     */
    StudyPlan &traceFile(std::string path);

    /**
     * Give the run at most @p ms milliseconds of wall clock. An
     * expired deadline stops the plan at the next replay-block /
     * capture-stride boundary; the executing Session returns a
     * partial SuiteReport with deadlineExceeded set instead of
     * throwing. 0 means "already expired" (useful in tests for a
     * deterministic empty partial report).
     */
    StudyPlan &deadlineMs(std::uint64_t ms);

    /**
     * Attach an external cancellation token (from a CancelSource the
     * caller keeps). Firing it stops the run at the next boundary;
     * the Session returns a partial report with cancelled set.
     * Combines with deadlineMs(): whichever fires first wins.
     */
    StudyPlan &cancel(CancelToken token);

    /** True when any study (or profiler sink) is registered. */
    bool hasStudies() const;

  private:
    friend class Session;
    // The wire codec (analysis/plan_json.h) reads private state to
    // serialize and to compare round-trip results; it builds parsed
    // plans through the public API only.
    friend bool writePlanJson(const StudyPlan &plan, std::string *out,
                              PlanError *error);
    friend bool planEquals(const StudyPlan &a, const StudyPlan &b);
    friend bool planFingerprint(const StudyPlan &plan, std::string *hex,
                                PlanError *error);

    struct CpiSpec
    {
        std::vector<pipeline::Design> designs;
        pipeline::PipelineConfig config;
    };
    struct EnergySpec
    {
        power::TechParams tech;
        pipeline::Design design;
        sig::Encoding enc;
    };

    std::vector<sig::Encoding> activity_;
    std::vector<CpiSpec> cpi_;
    std::vector<EnergySpec> energy_;
    std::vector<ProfileSink *> sinks_;
    std::vector<std::string> workloads_;
    std::string traceFile_;
    unsigned threads_ = 0;
    bool hasThreads_ = false;
    bool evictAfterReplay_ = false;
    std::uint64_t deadlineMs_ = 0;
    bool hasDeadline_ = false;
    /** Runtime handle, not plan data: planEquals() ignores it. */
    CancelToken cancel_;
};

} // namespace sigcomp::analysis

#endif // SIGCOMP_ANALYSIS_STUDY_PLAN_H_
