#include "analysis/session.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/telemetry.h"
#include "pipeline/runner.h"
#include "workloads/workload.h"

namespace sigcomp::analysis
{

using pipeline::Design;
using pipeline::InOrderPipeline;
using pipeline::PipelineConfig;

namespace
{

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Session::Session(SessionConfig config) : config_(std::move(config))
{
    SC_ASSERT(!(config_.readOnly && config_.storeDir.empty()),
              "SessionConfig.readOnly requires storeDir: a read-only "
              "session needs a store to read from");
    if (config_.threads != 0)
        exec_ = std::make_unique<ParallelExecutor>(config_.threads);
    if (!config_.storeDir.empty()) {
        cache_.configureStore({config_.storeDir,
                               config_.spillBudgetBytes,
                               config_.readOnly, config_.durableSaves,
                               config_.env});
    } else if (config_.spillBudgetBytes != 0) {
        cache_.setSpillBudget(config_.spillBudgetBytes);
    }
    if (config_.captureLimit != cpu::TraceBuffer::defaultMaxInstrs)
        cache_.setCaptureLimit(config_.captureLimit);
}

ParallelExecutor &
Session::executor()
{
    return exec_ ? *exec_ : ParallelExecutor::global();
}

TraceCache::TracePtr
Session::trace(const std::string &workload)
{
    return cache_.get(workload);
}

void
Session::prewarm(const std::vector<std::string> &names)
{
    cache_.prewarm(names, executor());
}

void
Session::addWorkload(const std::string &name, isa::Program program)
{
    cache_.registerProgram(name, std::move(program));
}

std::size_t
Session::estimatePlanMemory(const StudyPlan &plan) const
{
    // Upper-bound bytes one retired instruction costs in the SoA
    // trace columns (decode index, operand/result values, taken bit,
    // significance sidecars, memory address/data). Deliberately
    // generous: admission must never under-estimate.
    constexpr std::size_t kBytesPerInstr = 48;
    const std::size_t n = plan.workloads_.empty()
                              ? workloads::Suite::names().size()
                              : plan.workloads_.size();
    const std::size_t resident = plan.evictAfterReplay_ ? 1 : n;
    const std::size_t per_trace =
        static_cast<std::size_t>(cache_.captureLimit()) * kBytesPerInstr;
    std::size_t total = resident * per_trace;
    // A spill budget caps the steady-state RAM tier at budget + the
    // one trace currently being captured/replayed.
    if (config_.spillBudgetBytes != 0)
        total = std::min(total, config_.spillBudgetBytes + per_trace);
    return total;
}

Session::Admission
Session::admitPlan(const StudyPlan &plan, const CancelToken &token,
                   std::string *why)
{
    // Memory gate first: a plan over the budget would never fit, so
    // queueing it only delays the refusal.
    if (config_.admissionMemoryBudgetBytes != 0) {
        const std::size_t need = estimatePlanMemory(plan);
        if (need > config_.admissionMemoryBudgetBytes) {
            *why = "estimated trace memory " + std::to_string(need) +
                   " bytes exceeds the session's admission budget (" +
                   std::to_string(config_.admissionMemoryBudgetBytes) +
                   " bytes); shrink the plan (fewer workloads, "
                   "evictAfterReplay, lower capture limit) or raise "
                   "the budget";
            rejected_.inc();
            return Admission::Rejected;
        }
    }
    if (config_.maxConcurrentPlans == 0) {
        admitted_.inc();
        return Admission::Admitted;
    }
    UniqueLock lock(admissionMu_);
    if (runningPlans_ < config_.maxConcurrentPlans) {
        ++runningPlans_;
        admitted_.inc();
        return Admission::Admitted;
    }
    if (queuedPlans_ >= config_.maxQueuedPlans) {
        *why = "session at capacity: " +
               std::to_string(runningPlans_) + " plans running, " +
               std::to_string(queuedPlans_) + " queued (limits: " +
               std::to_string(config_.maxConcurrentPlans) +
               " running, " + std::to_string(config_.maxQueuedPlans) +
               " queued)";
        rejected_.inc();
        return Admission::Rejected;
    }
    ++queuedPlans_;
    queueDepth_.set(static_cast<std::int64_t>(queuedPlans_));
    // Bounded wait for a slot, polling the plan's own token: a
    // deadline that expires in the queue turns into a partial
    // (empty) report, not a rejection — the caller asked for time,
    // not for a place in line.
    while (runningPlans_ >= config_.maxConcurrentPlans) {
        if (token.stopRequested()) {
            --queuedPlans_;
            queueDepth_.set(static_cast<std::int64_t>(queuedPlans_));
            return Admission::Stopped;
        }
        admissionCv_.wait_for(lock.native(),
                              std::chrono::milliseconds(2));
    }
    --queuedPlans_;
    queueDepth_.set(static_cast<std::int64_t>(queuedPlans_));
    ++runningPlans_;
    admitted_.inc();
    return Admission::Admitted;
}

void
Session::releaseSlot()
{
    if (config_.maxConcurrentPlans == 0)
        return;
    {
        MutexLock lock(admissionMu_);
        --runningPlans_;
    }
    admissionCv_.notify_all();
}

SuiteReport
Session::run(const StudyPlan &plan)
{
    // The run's effective stop signal: the plan's external token (if
    // any) min-combined with its deadline budget. Both are carried
    // by value in one CancelToken.
    CancelToken token = plan.cancel_;
    if (plan.hasDeadline_) {
        token = token.withDeadlineAfter(
            std::chrono::milliseconds(plan.deadlineMs_));
    }

    std::string why;
    const Admission verdict = admitPlan(plan, token, &why);
    if (verdict == Admission::Rejected) {
        SuiteReport rep;
        rep.workloads = plan.workloads_.empty()
                            ? workloads::Suite::names()
                            : plan.workloads_;
        rep.profileSinks = plan.sinks_.size();
        rep.rejected = true;
        rep.rejectReason = why;
        SC_WARN("session: plan rejected: ", why);
        return rep;
    }

    // A plan-level trace file opens its own tracing window unless the
    // process is already tracing (SIGCOMP_TRACE), in which case this
    // run just contributes spans to the ambient session.
    const bool started_tracing =
        !plan.traceFile_.empty() && !telemetry::tracingActive();
    if (started_tracing)
        telemetry::startTracing();

    SuiteReport rep;
    try {
        SIGCOMP_SPAN("session.run");
        // A token that fired in the queue (Stopped) still runs the
        // study executor: with the token already hot it performs no
        // engine work and assembles the empty partial report with
        // the right outcome flags.
        rep = runStudies(plan, token);
    } catch (...) {
        if (verdict == Admission::Admitted)
            releaseSlot();
        throw;
    }
    if (verdict == Admission::Admitted)
        releaseSlot();
    // The root span must close before the buffers are serialised,
    // or the trace would miss its own enclosing interval.
    if (!plan.traceFile_.empty()) {
        if (started_tracing)
            telemetry::stopTracing();
        std::string why;
        if (!telemetry::writeTrace(plan.traceFile_, &why)) {
            SC_WARN("failed to write trace file '", plan.traceFile_,
                    "': ", why);
        }
    }
    return rep;
}

SuiteReport
Session::runStudies(const StudyPlan &plan, const CancelToken &token)
{
    const double t0 = nowMs();
    // Hot-path convention: nullptr = uncancellable, so a plain plan
    // pays no per-block token polls at all.
    const CancelToken *cancel = token.canStop() ? &token : nullptr;
    // The run's outcome flags, evaluated at assembly time (the
    // deadline may fire at any point). An explicit cancel wins.
    auto stampOutcome = [&](SuiteReport &r) {
        switch (token.reason()) {
        case CancelReason::Cancelled:
            r.cancelled = true;
            break;
        case CancelReason::DeadlineExceeded:
            r.deadlineExceeded = true;
            break;
        case CancelReason::None:
            break;
        }
    };

    SuiteReport rep;
    const std::vector<std::string> names =
        plan.workloads_.empty() ? workloads::Suite::names()
                                : plan.workloads_;
    rep.workloads = names;
    rep.profileSinks = plan.sinks_.size();

    // Executor for this run: the plan's override or the session's.
    std::unique_ptr<ParallelExecutor> scoped;
    ParallelExecutor *exec = &executor();
    if (plan.hasThreads_ && plan.threads_ != 0) {
        scoped = std::make_unique<ParallelExecutor>(plan.threads_);
        exec = scoped.get();
    } else if (plan.hasThreads_) {
        exec = &ParallelExecutor::global();
    }
    rep.threads = exec->threadCount();

    if (!plan.hasStudies() || names.empty()) {
        stampOutcome(rep);
        rep.wallMs = nowMs() - t0;
        return rep;
    }

    // One metrics system: the baseline snapshot of the cache's
    // registry (engine accounting, health counters, store I/O) is
    // diffed against the post-run state to yield this run's deltas.
    const telemetry::Snapshot tele0 = cache_.metrics().snapshot();
    const std::size_t degradations0 = cache_.degradations().size();

    /**
     * Per-workload results of the fused pass, harvested in the same
     * canonical order the pipelines are built in: every CPI study's
     * designs, then one pipeline per activity study, then one per
     * energy study.
     */
    struct Harvest
    {
        std::vector<std::vector<pipeline::PipelineResult>> cpi;
        std::vector<pipeline::PipelineResult> activity;
        std::vector<pipeline::PipelineResult> energy;
        /**
         * This workload's fresh() part of each plan sink, made on
         * the calling thread before the fan-out and fed only by
         * this workload's pass.
         */
        std::vector<std::unique_ptr<ProfileSink>> parts;
        DWord instructions = 0;
        std::uint64_t replayDelta = 0;
        /**
         * True when this workload's whole fused pass ran. A stopped
         * run assembles rows ONLY from completed harvests — a
         * partial report's coverage shrinks; its rows never do.
         */
        bool completed = false;
    };
    std::vector<Harvest> harvest(names.size());
    for (Harvest &h : harvest)
        for (const ProfileSink *sink : plan.sinks_)
            h.parts.push_back(sink->fresh());

    auto runOne = [&](std::size_t i) {
        // One span per workload's fused pass; on a parallel plan
        // these land on the per-worker tracks.
        SIGCOMP_SPAN("session.replay");
        if (cancelRequested(cancel))
            return;
        TraceCache::TracePtr trace;
        for (;;) {
            try {
                trace = cache_.get(names[i], cancel);
                break;
            } catch (const CancelledError &) {
                // Ours, or a concurrent plan's: a cancelled capture
                // unblocks every waiter on that workload with
                // CancelledError. If OUR token is live the trace is
                // still wanted — retry (this call becomes the new
                // capture winner). If ours fired, wind down.
                if (cancelRequested(cancel))
                    return;
            }
        }
        const std::uint64_t replays0 = trace->replayCount();

        // Build every study's pipelines over this trace. One
        // replayPipelines call replays the trace exactly once:
        // same-key pipelines share a quanta group, every group and
        // every profiler sink is fed from the same materialised
        // blocks.
        std::vector<std::unique_ptr<InOrderPipeline>> owned;
        std::vector<InOrderPipeline *> raw;
        auto add = [&](Design d, const PipelineConfig &cfg) {
            owned.push_back(pipeline::makePipeline(d, cfg));
            raw.push_back(owned.back().get());
        };
        for (const StudyPlan::CpiSpec &s : plan.cpi_)
            for (Design d : s.designs)
                add(d, s.config);
        for (sig::Encoding enc : plan.activity_) {
            add(enc == sig::Encoding::Half1 ? Design::HalfwordSerial
                                            : Design::ByteSerial,
                suiteConfig(enc));
        }
        for (const StudyPlan::EnergySpec &e : plan.energy_)
            add(e.design, suiteConfig(e.enc));

        Harvest &h = harvest[i];
        std::vector<cpu::TraceSink *> sinks;
        for (const std::unique_ptr<ProfileSink> &part : h.parts)
            sinks.push_back(part.get());
        try {
            pipeline::replayPipelines(*trace, raw, sinks, cancel);
        } catch (const CancelledError &) {
            // Aborted mid-replay: nothing was published on the trace
            // and nothing is harvested for this workload. The partial
            // report simply doesn't cover it, and its sink parts are
            // never merged.
            return;
        }

        std::size_t cursor = 0;
        h.cpi.resize(plan.cpi_.size());
        for (std::size_t s = 0; s < plan.cpi_.size(); ++s)
            for (std::size_t d = 0; d < plan.cpi_[s].designs.size(); ++d)
                h.cpi[s].push_back(owned[cursor++]->result());
        for (std::size_t s = 0; s < plan.activity_.size(); ++s)
            h.activity.push_back(owned[cursor++]->result());
        for (std::size_t s = 0; s < plan.energy_.size(); ++s)
            h.energy.push_back(owned[cursor++]->result());
        h.instructions = trace->runResult().instructions;
        h.replayDelta = trace->replayCount() - replays0;
        h.completed = true;

        // Newly recorded SharedQuanta become part of the workload's
        // segment so warm-store *processes* skip computeQuanta too.
        cache_.persistAnnexes(names[i], *trace, cancel);
        if (plan.evictAfterReplay_)
            cache_.evict(names[i]);
    };

    if (exec->threadCount() > 1 && !cancelRequested(cancel))
        cache_.prewarm(names, *exec, cancel);
    exec->parallelFor(names.size(), runOne, cancel);

    // ---- assemble the report in study registration order ----------
    // A stopped run covers the completed workloads only: every row
    // present is the exact full-pass result (bit-identical to an
    // unstopped run's row for that workload); incomplete workloads
    // contribute nothing, not partial numbers.
    std::vector<std::size_t> done;
    done.reserve(names.size());
    for (std::size_t w = 0; w < names.size(); ++w)
        if (harvest[w].completed)
            done.push_back(w);
    std::vector<std::string> done_names;
    done_names.reserve(done.size());
    for (std::size_t w : done)
        done_names.push_back(names[w]);
    // The caller's sinks receive the completed workloads' parts in
    // suite order: the serial stream of exactly the covered rows.
    for (std::size_t w : done)
        for (std::size_t s = 0; s < plan.sinks_.size(); ++s)
            plan.sinks_[s]->merge(*harvest[w].parts[s]);

    rep.cpi.resize(plan.cpi_.size());
    for (std::size_t s = 0; s < plan.cpi_.size(); ++s) {
        CpiStudyResult &st = rep.cpi[s];
        st.designs = plan.cpi_[s].designs;
        st.benchmarks = done_names;
        st.results.resize(done.size());
        for (std::size_t r = 0; r < done.size(); ++r)
            st.results[r] = std::move(harvest[done[r]].cpi[s]);
    }
    rep.activity.resize(plan.activity_.size());
    for (std::size_t s = 0; s < plan.activity_.size(); ++s) {
        ActivityStudyResult &st = rep.activity[s];
        st.encoding = plan.activity_[s];
        st.rows.resize(done.size());
        for (std::size_t r = 0; r < done.size(); ++r) {
            st.rows[r] = {done_names[r],
                          harvest[done[r]].activity[s].activity};
        }
    }
    rep.energy.resize(plan.energy_.size());
    for (std::size_t s = 0; s < plan.energy_.size(); ++s) {
        EnergyStudyResult &st = rep.energy[s];
        st.design = plan.energy_[s].design;
        st.encoding = plan.energy_[s].enc;
        st.tech = plan.energy_[s].tech;
        st.rows.resize(done.size());
        pipeline::ActivityTotals sum;
        for (std::size_t r = 0; r < done.size(); ++r) {
            const pipeline::PipelineResult &pr =
                harvest[done[r]].energy[s];
            st.rows[r] = {done_names[r], pr.instructions,
                          power::buildEnergyReport(pr.activity,
                                                   st.tech)};
            sum += pr.activity;
        }
        st.total = power::buildEnergyReport(sum, st.tech);
    }
    for (const Harvest &h : harvest) {
        rep.instructions += h.instructions;
        rep.replayPasses += h.replayDelta;
    }
    stampOutcome(rep);
    // Health + accounting deltas: what THIS run cost. The study
    // results above are already assembled — the metrics can only
    // describe engine/recovery work, never change a row.
    rep.telemetry =
        telemetry::Snapshot::delta(tele0, cache_.metrics().snapshot());
    rep.captures = rep.telemetry.value("cache.captures");
    rep.storeLoads = rep.telemetry.value("cache.store_loads");
    rep.storeLoadFailures =
        rep.telemetry.value("cache.store_load_failures");
    rep.quarantinedSegments =
        rep.telemetry.value("cache.quarantined_segments");
    rep.retries = rep.telemetry.value("store.retries");
    const std::vector<std::string> events = cache_.degradations();
    rep.degradations.assign(
        events.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(degradations0, events.size())),
        events.end());
    rep.wallMs = nowMs() - t0;
    return rep;
}

const sig::InstrCompressor &
suiteCompressor()
{
    static const sig::InstrCompressor compressor = [] {
        std::vector<std::uint8_t> ranking;
        for (const isa::Funct f : kSuiteFunctRanking)
            ranking.push_back(static_cast<std::uint8_t>(f));
        return sig::InstrCompressor(ranking);
    }();
    return compressor;
}

PipelineConfig
suiteConfig(sig::Encoding enc)
{
    PipelineConfig cfg;
    cfg.encoding = enc;
    cfg.compressor = suiteCompressor();
    return cfg;
}

} // namespace sigcomp::analysis
