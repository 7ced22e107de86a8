/**
 * @file
 * Uncached reference studies: the bit-identity oracle for the
 * Session engine. Each study re-runs functional simulation per
 * workload exactly as the original engine did — no TraceCache, no
 * store, no shared quanta, no fused replay — so a Session result
 * that matches it bit for bit is proven independent of every engine
 * optimisation. Tests and bench_suite_timing's pre-cache phase
 * compare against it; nothing under src/ uses it.
 *
 * Rows come back in suite order with values independent of the
 * executor's thread count.
 */

#ifndef SIGCOMP_TESTS_REFERENCE_STUDIES_H_
#define SIGCOMP_TESTS_REFERENCE_STUDIES_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "analysis/session.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "cpu/functional_core.h"
#include "cpu/trace_buffer.h"
#include "pipeline/runner.h"
#include "workloads/workload.h"

namespace sigcomp::reference
{

/**
 * Tables 5/6: every suite workload through the serial pipeline at
 * @p enc's granularity (byte-serial, or halfword-serial for Half1)
 * with the suite compressor, one live simulation per workload.
 */
inline std::vector<analysis::ActivityRow>
activityStudy(sig::Encoding enc, ParallelExecutor &exec)
{
    const pipeline::Design design = (enc == sig::Encoding::Half1)
                                        ? pipeline::Design::HalfwordSerial
                                        : pipeline::Design::ByteSerial;
    const std::vector<std::string> &names = workloads::Suite::names();
    std::vector<analysis::ActivityRow> rows(names.size());
    exec.parallelFor(names.size(), [&](std::size_t i) {
        const workloads::Workload w = workloads::Suite::build(names[i]);
        auto pipe =
            pipeline::makePipeline(design, analysis::suiteConfig(enc));
        pipeline::runPipelines(w.program, {pipe.get()});
        rows[i] = {names[i], pipe->result().activity};
    });
    return rows;
}

/**
 * Every suite workload through @p designs at @p cfg, all designs fed
 * by one live simulation per workload.
 */
inline std::vector<analysis::CpiRow>
cpiStudy(const std::vector<pipeline::Design> &designs,
         const pipeline::PipelineConfig &cfg, ParallelExecutor &exec)
{
    const std::vector<std::string> &names = workloads::Suite::names();
    std::vector<analysis::CpiRow> rows(names.size());
    exec.parallelFor(names.size(), [&](std::size_t i) {
        const workloads::Workload w = workloads::Suite::build(names[i]);
        const std::vector<pipeline::PipelineResult> rs =
            pipeline::runDesigns(w.program, designs, cfg);
        analysis::CpiRow row;
        row.benchmark = names[i];
        for (std::size_t d = 0; d < designs.size(); ++d) {
            row.cpi[designs[d]] = rs[d].cpi();
            row.stalls[designs[d]] = rs[d].stalls;
        }
        rows[i] = std::move(row);
    });
    return rows;
}

/**
 * Feed the whole suite's retirement stream into @p sinks in suite
 * order. The sinks are shared and need not be thread-safe. A serial
 * executor sinks directly during simulation, with no buffering; a
 * parallel one simulates every workload concurrently into private
 * trace buffers, then replays them into the sinks in suite order,
 * releasing each buffer after its replay.
 */
inline void
profileSuite(const std::vector<cpu::TraceSink *> &sinks,
             ParallelExecutor &exec)
{
    const std::vector<std::string> &names = workloads::Suite::names();
    if (exec.threadCount() <= 1) {
        for (const std::string &name : names) {
            const workloads::Workload w = workloads::Suite::build(name);
            mem::MainMemory memory;
            cpu::FunctionalCore core(w.program, memory);
            pipeline::FanoutSink fan(sinks);
            const cpu::RunResult r = core.run(&fan);
            SC_ASSERT(r.reason == cpu::StopReason::Exited, "workload ",
                      name, " did not exit cleanly");
        }
        return;
    }
    std::vector<std::unique_ptr<cpu::TraceBuffer>> traces(names.size());
    exec.parallelFor(names.size(), [&](std::size_t i) {
        const workloads::Workload w = workloads::Suite::build(names[i]);
        traces[i] = std::make_unique<cpu::TraceBuffer>(
            cpu::TraceBuffer::capture(w.program));
    });
    for (std::unique_ptr<cpu::TraceBuffer> &trace : traces) {
        cpu::TraceView(*trace).replay(sinks);
        trace.reset();
    }
}

} // namespace sigcomp::reference

#endif // SIGCOMP_TESTS_REFERENCE_STUDIES_H_
