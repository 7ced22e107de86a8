/**
 * @file
 * Session: an isolated experiment-engine instance — it owns a
 * TraceCache (RAM + optional disk tier), a capture limit, and its
 * parallelism — plus the fused StudyPlan executor.
 *
 * A Session is the only engine instance there is: the library keeps
 * no process-wide cache or default session, so two tenants, two
 * tests, or two store bindings in one process never step on each
 * other, and a plan captures exactly the workloads it names.
 *
 *  - **Isolation.** Each Session owns its cache, store binding,
 *    spill budget and capture limit; any number coexist in one
 *    process without cross-talk (per-tenant, per-test, per-store).
 *  - **One fused replay pass.** Session::run(StudyPlan) executes
 *    every registered study — activity, CPI, profiling, energy —
 *    off a single batched replay of each workload trace (the
 *    ZipLine-style touch-the-data-once discipline): each block is
 *    materialised once and fans out to every pipeline group and
 *    profiler sink through the existing retireBlock path. The
 *    per-workload replay counters assert exactly one pass; results
 *    are bit-identical to running the studies one at a time.
 *
 * Thread-safety: a Session holds no mutable state of its own beyond
 * its TraceCache, which is internally synchronized (see
 * trace_cache.h — every guarded member is thread-annotation-checked
 * under Clang). trace()/prewarm()/addWorkload()/run() may be called
 * from any number of threads on one Session; concurrent run() calls
 * are safe but serialise on the shared executor's job queue.
 * config() is immutable after construction. The TSan stress test
 * (test_tsan_stress.cpp) exercises many Sessions over one shared
 * read-only store while a budgeted session spills concurrently.
 */

#ifndef SIGCOMP_ANALYSIS_SESSION_H_
#define SIGCOMP_ANALYSIS_SESSION_H_

#include <array>
#include <condition_variable>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/study_plan.h"
#include "analysis/trace_cache.h"
#include "common/cancel.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"
#include "isa/opcodes.h"

namespace sigcomp::analysis
{

/** Construction-time configuration of a Session. */
struct SessionConfig
{
    /**
     * Workload-level parallelism: 0 = the shared process pool
     * (bounded, recommended), otherwise a dedicated executor of this
     * size (1 = serial reference).
     */
    unsigned threads = 0;
    /** Persistent trace store directory; empty = RAM tiers only. */
    std::string storeDir = {};
    /** Soft RAM-tier cap in bytes (0 = unlimited); see TraceCache. */
    std::size_t spillBudgetBytes = 0;
    /**
     * Never write segments. Only meaningful with storeDir — setting
     * it without one is a configuration error and fatal.
     */
    bool readOnly = false;
    /** Per-workload capture cap (see TraceCache::setCaptureLimit). */
    DWord captureLimit = cpu::TraceBuffer::defaultMaxInstrs;
    /** fsync-guard published segments (store::StoreOptions). */
    bool durableSaves = true;
    /**
     * I/O seam handed to the store (nullptr = real filesystem). The
     * fault-injection tests run whole sessions over a hostile Env;
     * only the health counters may differ from a fault-free run.
     */
    Env *env = nullptr;

    // ---- admission control (serving mode; 0 disables each limit) ----
    /**
     * Plans executing concurrently on this Session. A plan arriving
     * at capacity waits in the bounded queue below (or is rejected
     * when the queue is full too). 0 = unlimited (library mode).
     */
    unsigned maxConcurrentPlans = 0;
    /**
     * Plans allowed to wait for a slot when at capacity; one past
     * the queue is rejected-with-reason immediately. Meaningful only
     * with maxConcurrentPlans set. 0 = no queue (reject at capacity).
     */
    unsigned maxQueuedPlans = 0;
    /**
     * Upper bound on a single plan's estimated peak trace memory
     * (see Session::estimatePlanMemory). A plan estimating above it
     * is rejected-with-reason up front instead of OOMing mid-run.
     * 0 = unlimited.
     */
    std::size_t admissionMemoryBudgetBytes = 0;
};

class Session
{
  public:
    Session() : Session(SessionConfig{}) {}
    explicit Session(SessionConfig config);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    TraceCache &cache() { return cache_; }
    const SessionConfig &config() const { return config_; }

    /** This session's executor (owned, or the shared pool). */
    ParallelExecutor &executor();

    /** The workload's trace via this session's two-tier cache. */
    TraceCache::TracePtr trace(const std::string &workload);

    /** Capture/load every listed workload, fanned out. */
    void prewarm(const std::vector<std::string> &names);

    /**
     * Register an ad-hoc program as a workload of this session
     * (plan.workloads({name}) then runs studies over it).
     */
    void addWorkload(const std::string &name, isa::Program program);

    /**
     * Execute @p plan: one fused batched replay per workload feeding
     * every registered study, assembled into a SuiteReport. Rows and
     * totals are bit-identical to running each study as its own plan,
     * at any thread count. Every plan fans whole workloads across
     * the executor; profiler sinks are fed per-workload fresh()
     * parts that merge into the caller's sinks in suite order after
     * the fan-out, so sink tallies equal the serial retirement
     * stream's too (analysis/profile_sink.h). After each pass the
     * session write-backs newly derived SharedQuanta annexes to the
     * attached store, so warm-store processes skip computeQuanta as
     * well as capture.
     *
     * The run is instrumented end to end (see common/telemetry.h):
     * the report's `telemetry` block is this run's metrics delta,
     * and plan.traceFile() additionally writes a Chrome trace-event
     * profile. Telemetry is a pure side channel — study rows are
     * bit-identical with it on, off, or compiled out.
     *
     * Request lifecycle (serving mode): a plan carrying a deadline
     * (StudyPlan::deadlineMs) or a cancellation token
     * (StudyPlan::cancel) stops at the next block boundary once it
     * fires and returns a PARTIAL report — rows only for workloads
     * whose fused pass completed, cancelled/deadlineExceeded set —
     * with the trace store left consistent (saves are atomic and a
     * cancelled plan stops writing rather than writing less). With
     * admission limits configured (SessionConfig) a plan may instead
     * be refused up front: rejected + rejectReason set, no rows, no
     * engine work performed.
     */
    SuiteReport run(const StudyPlan &plan);

    /**
     * Worst-case peak trace memory of @p plan under this session's
     * capture limit: resident-trace count (1 with evictAfterReplay,
     * else the workload count) x the capture limit's per-trace
     * footprint, clamped by the spill budget when one is set. An
     * upper bound for admission — real traces are usually much
     * smaller than the cap.
     */
    std::size_t estimatePlanMemory(const StudyPlan &plan) const;

  private:
    /** Admission verdict for one arriving plan. */
    enum class Admission
    {
        Admitted, ///< slot held; caller must releaseSlot()
        Rejected, ///< over a limit; reject-with-reason, no slot
        Stopped,  ///< plan's token fired while queued; no slot
    };

    /** run() minus the tracing window/export wrapper. */
    SuiteReport runStudies(const StudyPlan &plan,
                           const CancelToken &token);

    /**
     * Gate one plan through the admission limits; blocks in the
     * bounded queue while at capacity (polling @p token).
     */
    Admission admitPlan(const StudyPlan &plan, const CancelToken &token,
                        std::string *why) SIGCOMP_EXCLUDES(admissionMu_);

    /** Release an Admitted plan's slot and wake one queued waiter. */
    void releaseSlot() SIGCOMP_EXCLUDES(admissionMu_);

    SessionConfig config_;
    TraceCache cache_;
    /** Only when config_.threads != 0 (else the shared pool). */
    std::unique_ptr<ParallelExecutor> exec_;

    /** Guards the admission counts; never held across a plan. */
    mutable Mutex admissionMu_;
    std::condition_variable admissionCv_;
    unsigned runningPlans_ SIGCOMP_GUARDED_BY(admissionMu_) = 0;
    unsigned queuedPlans_ SIGCOMP_GUARDED_BY(admissionMu_) = 0;
    /**
     * Admission telemetry in the session's (= cache's) namespace.
     * The counters move before the run's baseline snapshot is taken,
     * and the gauge is excluded from report serialization, so the
     * report telemetry block of an admitted plan is unchanged.
     */
    telemetry::Gauge &queueDepth_ =
        cache_.metrics().gauge("session.admission_queue_depth");
    telemetry::Counter &admitted_ =
        cache_.metrics().counter("session.plans_admitted");
    telemetry::Counter &rejected_ =
        cache_.metrics().counter("session.plans_rejected");
};

/**
 * The paper's Table 3 funct ranking of the committed suite: its
 * R-format function codes, most frequent first, top eight. It is a
 * constant because the suite is — test_analysis re-profiles the
 * suite and fails if a workload edit changes the ranking.
 */
inline constexpr std::array<isa::Funct, 8> kSuiteFunctRanking = {
    isa::Funct::Addu, isa::Funct::Sll, isa::Funct::Mflo,
    isa::Funct::Mult, isa::Funct::Slt, isa::Funct::Srl,
    isa::Funct::Xor,  isa::Funct::Or,
};

/** The instruction compressor built from kSuiteFunctRanking. */
const sig::InstrCompressor &suiteCompressor();

/** Pipeline config with the suite compressor installed. */
pipeline::PipelineConfig suiteConfig(
    sig::Encoding enc = sig::Encoding::Ext3);

} // namespace sigcomp::analysis

#endif // SIGCOMP_ANALYSIS_SESSION_H_
