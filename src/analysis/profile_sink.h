/**
 * @file
 * The profiler-sink contract of StudyPlan::profile(): a trace sink
 * whose state is a tally that can be split per workload and summed
 * back. Session::run feeds each workload's fused replay its own
 * empty part (fresh()) and, after the fan-out, merges the completed
 * workloads' parts into the registered sink in suite order — so
 * profiled plans replay across the executor like any other, and the
 * sink ends in exactly the state the serial retirement stream would
 * leave.
 */

#ifndef SIGCOMP_ANALYSIS_PROFILE_SINK_H_
#define SIGCOMP_ANALYSIS_PROFILE_SINK_H_

#include <memory>

#include "cpu/trace.h"

namespace sigcomp::analysis
{

/**
 * A mergeable trace sink.
 *
 * Contract, for any split of a retirement stream into consecutive
 * pieces: feeding piece k to a fresh() part and then merging the
 * parts in order must leave the sink in the same observable state as
 * feeding it the whole stream. Tallies satisfy this trivially;
 * a sink whose update depends on the previous instruction must not
 * carry that state across a workload boundary.
 *
 * fresh() and merge() are only ever called on the thread that called
 * Session::run; the parts are each fed by one (pool) thread. A sink
 * therefore needs no locking of its own.
 */
class ProfileSink : public cpu::TraceSink
{
  public:
    /** An empty sink of the same kind and configuration. */
    virtual std::unique_ptr<ProfileSink> fresh() const = 0;

    /**
     * Add @p part's tallies into this sink. @p part was made by
     * fresh() on a sink of the same kind.
     */
    virtual void merge(const ProfileSink &part) = 0;
};

} // namespace sigcomp::analysis

#endif // SIGCOMP_ANALYSIS_PROFILE_SINK_H_
