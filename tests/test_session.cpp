/**
 * @file
 * Session + StudyPlan API tests: the fused plan executes exactly one
 * replay pass per workload trace while staying bit-identical to
 * one-study-at-a-time plans at every thread count, isolated Sessions
 * don't cross-talk, a plan captures only its own workloads, ad-hoc
 * workloads work, the SessionConfig edge cases are well-defined, and
 * the SuiteReport serializes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/profilers.h"
#include "analysis/session.h"
#include "common/telemetry.h"
#include "cpu/trace_buffer.h"
#include "isa/assembler.h"
#include "store/trace_store.h"
#include "workloads/workload.h"

namespace sigcomp
{
namespace
{

namespace fs = std::filesystem;

using analysis::Session;
using analysis::SessionConfig;
using analysis::StudyPlan;
using analysis::SuiteReport;
using pipeline::Design;

/** Fresh per-test directory under the gtest temp root. */
class SessionStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::path(::testing::TempDir()) /
               (std::string("sigcomp-session-") + info->name());
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    std::string
    dir(const char *suffix = "") const
    {
        std::string s = dir_.string();
        s.append(suffix);
        return s;
    }

    fs::path dir_;
};

void
expectSameActivity(const pipeline::ActivityTotals &a,
                   const pipeline::ActivityTotals &b)
{
    const auto pair = [](const pipeline::BitPair &x,
                         const pipeline::BitPair &y, const char *what) {
        EXPECT_EQ(x.compressed, y.compressed) << what;
        EXPECT_EQ(x.baseline, y.baseline) << what;
    };
    pair(a.fetch, b.fetch, "fetch");
    pair(a.rfRead, b.rfRead, "rfRead");
    pair(a.rfWrite, b.rfWrite, "rfWrite");
    pair(a.alu, b.alu, "alu");
    pair(a.dcData, b.dcData, "dcData");
    pair(a.dcTag, b.dcTag, "dcTag");
    pair(a.pcInc, b.pcInc, "pcInc");
    pair(a.latch, b.latch, "latch");
}

// ---- the fused-pass acceptance property ------------------------------

TEST(SessionFused, OneReplayPassFeedsEveryStudy)
{
    // activity + CPI over the full design space + three profilers,
    // all registered on one plan: each workload must be captured
    // once and replayed exactly once.
    Session session;
    analysis::PatternProfiler pat;
    analysis::InstrMixProfiler mix;
    analysis::PcProfiler pc;
    StudyPlan plan;
    plan.cpi(pipeline::allDesigns(), analysis::suiteConfig())
        .activity(sig::Encoding::Ext3)
        .profile({&pat, &mix, &pc});
    const SuiteReport rep = session.run(plan);

    const std::size_t n = workloads::Suite::names().size();
    EXPECT_EQ(rep.workloads.size(), n);
    EXPECT_EQ(rep.captures, n);
    EXPECT_EQ(rep.replayPasses, n) << "one fused pass per trace";
    for (const std::string &name : workloads::Suite::names()) {
        EXPECT_EQ(session.trace(name)->replayCount(), 1u) << name;
    }

    // Rows and totals must be bit-identical to the same three
    // studies run as serial one-study plans on a second Session.
    Session serial;
    StudyPlan act_plan;
    act_plan.activity(sig::Encoding::Ext3).threads(1);
    const auto seq_act =
        std::move(serial.run(act_plan).activity.front().rows);
    StudyPlan cpi_plan;
    cpi_plan.cpi(pipeline::allDesigns(), analysis::suiteConfig())
        .threads(1);
    const auto seq_cpi = serial.run(cpi_plan).cpi.front().rows();
    analysis::PatternProfiler lpat;
    analysis::InstrMixProfiler lmix;
    analysis::PcProfiler lpc;
    StudyPlan profile_plan;
    profile_plan.profile({&lpat, &lmix, &lpc}).threads(1);
    (void)serial.run(profile_plan);

    ASSERT_EQ(rep.activity.size(), 1u);
    ASSERT_EQ(rep.activity[0].rows.size(), seq_act.size());
    for (std::size_t i = 0; i < seq_act.size(); ++i) {
        EXPECT_EQ(rep.activity[0].rows[i].benchmark,
                  seq_act[i].benchmark);
        expectSameActivity(rep.activity[0].rows[i].activity,
                           seq_act[i].activity);
    }
    ASSERT_EQ(rep.cpi.size(), 1u);
    const auto fused_rows = rep.cpi[0].rows();
    ASSERT_EQ(fused_rows.size(), seq_cpi.size());
    for (std::size_t i = 0; i < seq_cpi.size(); ++i) {
        EXPECT_EQ(fused_rows[i].benchmark, seq_cpi[i].benchmark);
        EXPECT_TRUE(fused_rows[i].cpi == seq_cpi[i].cpi)
            << seq_cpi[i].benchmark;
        EXPECT_TRUE(fused_rows[i].stalls == seq_cpi[i].stalls)
            << seq_cpi[i].benchmark;
    }
    EXPECT_EQ(pat.patterns().raw(), lpat.patterns().raw());
    EXPECT_EQ(mix.functFreq().raw(), lmix.functFreq().raw());
    EXPECT_EQ(mix.meanFetchBytes(), lmix.meanFetchBytes());
    for (unsigned b = 1; b <= 8; ++b) {
        EXPECT_EQ(pc.forBlockBits(b).activityBits(),
                  lpc.forBlockBits(b).activityBits());
        EXPECT_EQ(pc.forBlockBits(b).cycles(),
                  lpc.forBlockBits(b).cycles());
    }
}

class SessionThreads : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SessionThreads, FusedPlanIsThreadCountInvariant)
{
    // Profiled or not, a plan fans whole workloads across the
    // executor after a parallel prewarm; every row must be
    // bit-identical to the serial reference.
    const unsigned threads = GetParam();
    static const SuiteReport reference = [] {
        Session s;
        StudyPlan plan;
        plan.cpi({Design::Baseline32, Design::ByteSerial,
                  Design::SkewedBypass},
                 analysis::suiteConfig())
            .activity(sig::Encoding::Ext2)
            .threads(1);
        return s.run(plan);
    }();

    Session session;
    analysis::PatternProfiler pat;
    StudyPlan plan;
    plan.cpi({Design::Baseline32, Design::ByteSerial,
              Design::SkewedBypass},
             analysis::suiteConfig())
        .activity(sig::Encoding::Ext2)
        .profile({&pat})
        .threads(threads);
    const SuiteReport rep = session.run(plan);

    EXPECT_EQ(rep.replayPasses, rep.workloads.size());
    const auto ref_rows = reference.cpi[0].rows();
    const auto got_rows = rep.cpi[0].rows();
    ASSERT_EQ(got_rows.size(), ref_rows.size());
    for (std::size_t i = 0; i < ref_rows.size(); ++i) {
        EXPECT_TRUE(got_rows[i].cpi == ref_rows[i].cpi)
            << ref_rows[i].benchmark << " threads=" << threads;
        EXPECT_TRUE(got_rows[i].stalls == ref_rows[i].stalls)
            << ref_rows[i].benchmark << " threads=" << threads;
    }
    for (std::size_t i = 0; i < ref_rows.size(); ++i) {
        expectSameActivity(rep.activity[0].rows[i].activity,
                           reference.activity[0].rows[i].activity);
    }
    EXPECT_GT(pat.patterns().total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SessionThreads,
                         ::testing::Values(1u, 4u, 8u),
                         [](const auto &info) {
                             std::string name = "t";
                             name += std::to_string(info.param);
                             return name;
                         });

// ---- isolation -------------------------------------------------------

TEST_F(SessionStoreTest, ConcurrentSessionsDontCrossTalk)
{
    // Two sessions with different stores, budgets and capture
    // limits, run concurrently: each sees only its own state.
    SessionConfig c1;
    c1.storeDir = dir("/a");
    c1.captureLimit = 2000;
    SessionConfig c2;
    c2.storeDir = dir("/b");
    c2.captureLimit = 3000;
    Session s1(c1), s2(c2);

    const std::vector<std::string> names = {"rawcaudio", "epic"};
    std::thread t1([&] {
        analysis::InstrMixProfiler mix;
        StudyPlan plan;
        plan.profile({&mix}).workloads(names).threads(2);
        s1.run(plan);
    });
    std::thread t2([&] {
        analysis::InstrMixProfiler mix;
        StudyPlan plan;
        plan.profile({&mix}).workloads(names).threads(2);
        s2.run(plan);
    });
    t1.join();
    t2.join();

    EXPECT_EQ(s1.cache().captures(), names.size());
    EXPECT_EQ(s2.cache().captures(), names.size());
    for (const std::string &name : names) {
        EXPECT_EQ(s1.trace(name)->size(), 2000u) << name;
        EXPECT_EQ(s2.trace(name)->size(), 3000u) << name;
    }
    // Each store holds its own segments, keyed by its own limit.
    const store::TraceStore ts1(dir("/a"), true);
    const store::TraceStore ts2(dir("/b"), true);
    for (const std::string &name : names) {
        store::SegmentInfo i1, i2;
        ASSERT_TRUE(ts1.info(name, i1)) << name;
        ASSERT_TRUE(ts2.info(name, i2)) << name;
        EXPECT_EQ(i1.captureLimit, 2000u);
        EXPECT_EQ(i2.captureLimit, 3000u);
    }
}

TEST_F(SessionStoreTest, WarmStoreSessionSkipsCaptureAndComputeQuanta)
{
    const std::string wl = "rawdaudio";
    // First session: capture, study, and (via the post-pass annex
    // write-back) persist the derived SharedQuanta.
    {
        Session s1(SessionConfig{.storeDir = dir()});
        StudyPlan plan;
        plan.workloads({wl}).cpi(
            {Design::Baseline32, Design::ByteSerial},
            analysis::suiteConfig());
        const SuiteReport rep = s1.run(plan);
        EXPECT_EQ(rep.captures, 1u);
    }
    // Second session, cold RAM: the segment must supply the trace
    // AND the quanta record.
    Session s2(SessionConfig{.storeDir = dir()});
    StudyPlan plan;
    plan.workloads({wl}).cpi({Design::Baseline32, Design::ByteSerial},
                             analysis::suiteConfig());
    const SuiteReport rep = s2.run(plan);
    EXPECT_EQ(rep.captures, 0u) << "trace must come from the store";
    EXPECT_EQ(rep.storeLoads, 1u);
    EXPECT_FALSE(s2.trace(wl)->annexKeys("quanta:").empty())
        << "warm load must restore the persisted quanta records";
}

// ---- SessionConfig edge cases ----------------------------------------

using SessionDeathTest = SessionStoreTest;

TEST_F(SessionDeathTest, ReadOnlyWithoutStoreDirIsFatal)
{
    SessionConfig cfg;
    cfg.readOnly = true;
    EXPECT_DEATH({ Session session(cfg); },
                 "readOnly requires storeDir");
}

TEST_F(SessionStoreTest, TinySpillBudgetDegradesToMruResident)
{
    // A budget smaller than any single trace: every get() spills the
    // previous workload, the cache warns (once) and keeps only the
    // most recent trace resident, and studies still complete with
    // correct results.
    SessionConfig cfg;
    cfg.storeDir = dir();
    cfg.spillBudgetBytes = 1;
    Session session(cfg);

    const std::vector<std::string> names = {"rawcaudio", "rawdaudio",
                                            "epic"};
    analysis::InstrMixProfiler mix;
    StudyPlan plan;
    plan.profile({&mix}).workloads(names).threads(1);
    session.run(plan);

    EXPECT_GT(session.cache().spills(), 0u);
    // At most the final workload's trace remains in RAM.
    const std::size_t resident = session.cache().memoryBytes();
    EXPECT_LE(resident, session.trace("epic")->memoryBytes());

    // Pin correctness under spilling: the same plan on a fresh
    // session with no budget gives identical tallies.
    Session unbudgeted;
    analysis::InstrMixProfiler mix2;
    StudyPlan plan2;
    plan2.profile({&mix2}).workloads(names).threads(1);
    unbudgeted.run(plan2);
    EXPECT_EQ(mix.functFreq().raw(), mix2.functFreq().raw());
    EXPECT_EQ(mix.meanFetchBytes(), mix2.meanFetchBytes());
}

TEST(SessionEdge, SpillWithoutStoreRecaptures)
{
    // A spill budget with no disk tier is well-defined: spilled
    // traces are simply recaptured on the next touch.
    SessionConfig cfg;
    cfg.spillBudgetBytes = 1;
    Session session(cfg);
    session.trace("rawcaudio");
    EXPECT_EQ(session.cache().captures(), 1u);
    session.trace("rawdaudio"); // spills rawcaudio
    EXPECT_EQ(session.cache().captures(), 2u);
    session.trace("rawcaudio"); // gone from RAM, no store: recapture
    EXPECT_EQ(session.cache().captures(), 3u);
    EXPECT_GT(session.cache().spills(), 0u);
}

// ---- ad-hoc workloads, energy, report ---------------------------------

TEST(SessionAdHoc, RegisteredProgramRunsLikeASuiteWorkload)
{
    namespace reg = isa::reg;
    isa::Assembler a;
    a.label("main");
    a.li(reg::t0, 40);
    a.li(reg::t1, 2);
    a.addu(reg::a0, reg::t0, reg::t1);
    a.li(reg::a1, 42);
    a.assertEq();
    a.exitProgram();

    Session session;
    session.addWorkload("answer", a.finish("answer"));
    StudyPlan plan;
    plan.workloads({"answer"})
        .cpi({Design::Baseline32, Design::ByteSerial},
             analysis::suiteConfig());
    const SuiteReport rep = session.run(plan);
    ASSERT_EQ(rep.cpi.size(), 1u);
    ASSERT_EQ(rep.cpi[0].results.size(), 1u);
    EXPECT_EQ(rep.workloads, std::vector<std::string>{"answer"});
    EXPECT_GT(rep.cpi[0].results[0][0].instructions, 0u);
    EXPECT_GE(rep.cpi[0].results[0][1].cycles,
              rep.cpi[0].results[0][0].cycles);
    EXPECT_EQ(session.trace("answer")->replayCount(), 1u);
}

TEST_F(SessionStoreTest, RegisteredProgramsNeverTouchTheStore)
{
    // An ad-hoc program shadowing a suite workload's name is
    // session-local: it must neither clobber that workload's shared
    // segment nor be satisfied by it.
    {
        Session suite_session(SessionConfig{.storeDir = dir()});
        suite_session.trace("rawcaudio"); // writes the real segment
    }
    const store::TraceStore ts(dir(), /*read_only=*/true);
    store::SegmentInfo before;
    ASSERT_TRUE(ts.info("rawcaudio", before));

    namespace reg = isa::reg;
    isa::Assembler a;
    a.label("main");
    a.li(reg::a0, 1);
    a.li(reg::a1, 1);
    a.assertEq();
    a.exitProgram();

    Session session(SessionConfig{.storeDir = dir()});
    session.addWorkload("rawcaudio", a.finish("shadow"));
    const auto trace = session.trace("rawcaudio");
    EXPECT_EQ(session.cache().captures(), 1u)
        << "must capture the registered program, not load the segment";
    EXPECT_EQ(session.cache().storeLoads(), 0u);
    EXPECT_LT(trace->size(), 100u);

    // A study (which write-backs annexes) must not persist it either.
    StudyPlan plan;
    plan.workloads({"rawcaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig());
    session.run(plan);
    store::SegmentInfo after;
    ASSERT_TRUE(ts.info("rawcaudio", after));
    EXPECT_EQ(after.instructions, before.instructions)
        << "shared segment clobbered by a session-local program";
    EXPECT_TRUE(ts.verify("rawcaudio", nullptr));
}

TEST(SessionEnergy, EnergyStudyMatchesDirectModel)
{
    Session session;
    const power::TechParams tech;
    StudyPlan plan;
    plan.workloads({"rawcaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig())
        .energy(tech, Design::ByteSerial, sig::Encoding::Ext3);
    const SuiteReport rep = session.run(plan);

    ASSERT_EQ(rep.energy.size(), 1u);
    const analysis::EnergyRow &row = rep.energy[0].rows.front();
    // The energy study rides the same pass: its report must equal
    // the model applied to the CPI study's activity for the same
    // design and configuration.
    const power::EnergyReport direct = power::buildEnergyReport(
        rep.cpi[0].results[0][0].activity, tech);
    EXPECT_EQ(row.report.totalCompressedPj, direct.totalCompressedPj);
    EXPECT_EQ(row.report.totalBaselinePj, direct.totalBaselinePj);
    EXPECT_EQ(rep.energy[0].total.totalCompressedPj,
              direct.totalCompressedPj);
    // Still one fused pass despite three registered studies.
    EXPECT_EQ(rep.replayPasses, 1u);
}

/** cache.capture spans in the process trace so far. */
std::size_t
captureSpans()
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    telemetry::writeTrace(f);
    std::fclose(f);
    const std::string trace(buf, len);
    std::free(buf);
    const std::string span = "\"name\": \"cache.capture\"";
    std::size_t n = 0;
    for (std::size_t at = trace.find(span); at != std::string::npos;
         at = trace.find(span, at + 1))
        ++n;
    return n;
}

using SessionTraceTest = SessionStoreTest;

TEST_F(SessionTraceTest, EnergyPlanCapturesOnlyItsWorkload)
{
    // An energy study installs the suite compressor; obtaining it
    // must capture nothing. CTest also runs this test alone in its
    // own process (test_session_no_hidden_capture), where the
    // process trace holds exactly this plan's spans.
    fs::create_directories(dir_);
    Session session;
    StudyPlan plan;
    plan.workloads({"rawcaudio"}).energy().traceFile(dir("/trace.json"));
    const std::size_t before = captureSpans();
    const SuiteReport rep = session.run(plan);
    EXPECT_EQ(rep.captures, 1u);
    EXPECT_EQ(captureSpans() - before, 1u)
        << "a capture ran outside the plan's workloads";
}

TEST(SessionReport, JsonSerializesEveryStudySection)
{
    Session session;
    analysis::PatternProfiler pat;
    StudyPlan plan;
    plan.workloads({"rawcaudio"})
        .cpi({Design::Baseline32, Design::ByteSerial},
             analysis::suiteConfig())
        .activity(sig::Encoding::Ext3)
        .energy()
        .profile({&pat});
    const SuiteReport rep = session.run(plan);

    const std::string json = rep.toJson();
    EXPECT_NE(json.find("\"schema\": \"sigcomp-suite-report-v4\""),
              std::string::npos);
    // v4: the health line carries the request-lifecycle outcome.
    EXPECT_NE(json.find("\"cancelled\": false"), std::string::npos);
    EXPECT_NE(json.find("\"deadline_exceeded\": false"),
              std::string::npos);
    EXPECT_NE(json.find("\"rejected\": false"), std::string::npos);
    EXPECT_NE(json.find("\"workloads\": [\"rawcaudio\"]"),
              std::string::npos);
    EXPECT_NE(json.find("\"replay_passes\": 1"), std::string::npos);
    // v3: the run's metrics delta rides along as a telemetry block.
    EXPECT_NE(json.find("\"telemetry\": {\"counters\": {"),
              std::string::npos);
    EXPECT_NE(json.find("\"cache.captures\": "), std::string::npos);
    EXPECT_NE(json.find("\"byte-serial\""), std::string::npos);
    EXPECT_NE(json.find("\"encoding\": \"ext3\""), std::string::npos);
    EXPECT_NE(json.find("\"saving\""), std::string::npos);
    EXPECT_NE(json.find("\"compressed_pj\""), std::string::npos);
    EXPECT_NE(json.find("\"profile_sinks\": 1"), std::string::npos);
    // Balanced braces/brackets — cheap structural sanity.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(SessionEdge, EmptyPlanTouchesNothing)
{
    Session session;
    const SuiteReport rep = session.run(StudyPlan{});
    EXPECT_EQ(rep.captures, 0u);
    EXPECT_EQ(rep.replayPasses, 0u);
    EXPECT_EQ(session.cache().captures(), 0u);
    EXPECT_EQ(rep.instructions, 0u);
}

// ---- request lifecycle: deadlines, cancellation, admission -----------

/**
 * Report bytes with the run-shape lines stripped: "threads" names the
 * executor width under test, and the engine/telemetry lines count
 * work the executor sees (queued-then-skipped tasks differ by thread
 * count on a stopped run). Everything else — every study row and the
 * health outcome — must be bit-identical.
 */
std::string
lifecycleBytes(const SuiteReport &rep)
{
    const std::string json = rep.toJson();
    std::string kept;
    std::size_t start = 0;
    while (start < json.size()) {
        std::size_t end = json.find('\n', start);
        if (end == std::string::npos)
            end = json.size();
        const std::string_view line(json.data() + start, end - start);
        if (line.find("\"threads\"") == std::string_view::npos &&
            line.find("\"engine\"") == std::string_view::npos &&
            line.find("\"telemetry\"") == std::string_view::npos) {
            kept.append(line);
            kept.push_back('\n');
        }
        start = end + 1;
    }
    return kept;
}

/** One representative plan for the stopped-run tests. */
StudyPlan
lifecyclePlan(unsigned threads)
{
    StudyPlan plan;
    plan.workloads({"rawcaudio", "rawdaudio"})
        .cpi({Design::Baseline32, Design::ByteSerial},
             analysis::suiteConfig())
        .activity(sig::Encoding::Ext3)
        .threads(threads);
    return plan;
}

class SessionDeadline : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SessionDeadline, PreExpiredDeadlineIsDeterministicAtAnyWidth)
{
    // deadlineMs(0) is "already expired": the run must cost no
    // engine work and assemble the SAME empty partial report at
    // every thread count — the deterministic floor of the
    // partial-result contract.
    static const std::string reference = [] {
        Session s;
        const SuiteReport rep =
            s.run(lifecyclePlan(1).deadlineMs(0));
        return lifecycleBytes(rep);
    }();

    Session session;
    const SuiteReport rep =
        session.run(lifecyclePlan(GetParam()).deadlineMs(0));

    EXPECT_TRUE(rep.deadlineExceeded);
    EXPECT_FALSE(rep.cancelled);
    EXPECT_FALSE(rep.rejected);
    EXPECT_EQ(rep.captures, 0u) << "no engine work on an expired plan";
    EXPECT_EQ(rep.replayPasses, 0u);
    EXPECT_EQ(session.cache().captures(), 0u);
    // The requested coverage is still reported; the rows are empty.
    EXPECT_EQ(rep.workloads.size(), 2u);
    ASSERT_EQ(rep.cpi.size(), 1u);
    EXPECT_TRUE(rep.cpi[0].benchmarks.empty());
    ASSERT_EQ(rep.activity.size(), 1u);
    EXPECT_TRUE(rep.activity[0].rows.empty());
    EXPECT_EQ(lifecycleBytes(rep), reference)
        << "stopped-run bytes must not depend on the thread count";
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SessionDeadline,
                         ::testing::Values(1u, 4u, 8u),
                         [](const auto &info) {
                             std::string name = "t";
                             name += std::to_string(info.param);
                             return name;
                         });

TEST(SessionLifecycle, PreFiredTokenYieldsCancelledEmptyPartial)
{
    CancelSource source;
    source.cancel();
    Session session;
    const SuiteReport rep =
        session.run(lifecyclePlan(1).cancel(source.token()));
    EXPECT_TRUE(rep.cancelled);
    EXPECT_FALSE(rep.deadlineExceeded)
        << "an explicit cancel wins over any deadline";
    EXPECT_EQ(rep.captures, 0u);
    EXPECT_EQ(session.cache().captures(), 0u);
    ASSERT_EQ(rep.cpi.size(), 1u);
    EXPECT_TRUE(rep.cpi[0].benchmarks.empty());
}

/**
 * Fires its CancelSource during retireBlock() once it has seen
 * @p cancelAt blocks, then counts every block it is still shown:
 * the replay loop polls the token at block boundaries, so the count
 * after the trigger bounds the stop latency in blocks. Its parts
 * (fresh()) share the one block count, so the trigger counts blocks
 * across all workloads exactly as a single sink would.
 */
class CancellingSink : public analysis::ProfileSink
{
  public:
    CancellingSink(CancelSource *source, std::size_t cancelAt)
        : state_(std::make_shared<State>())
    {
        state_->source = source;
        state_->cancelAt = cancelAt;
    }

    void
    retire(const cpu::DynInstr &) override
    {}

    void
    retireBlock(std::span<const cpu::DynInstr>) override
    {
        const std::size_t blocks = ++state_->blocks;
        if (blocks == state_->cancelAt)
            state_->source->cancel();
        else if (blocks > state_->cancelAt)
            ++state_->blocksAfterCancel;
    }

    std::unique_ptr<analysis::ProfileSink>
    fresh() const override
    {
        return std::make_unique<CancellingSink>(*this);
    }

    void
    merge(const analysis::ProfileSink &) override
    {}

    std::size_t blocksAfterCancel() const
    {
        return state_->blocksAfterCancel;
    }

  private:
    struct State
    {
        CancelSource *source = nullptr;
        std::size_t cancelAt = 0;
        std::atomic<std::size_t> blocks{0};
        std::atomic<std::size_t> blocksAfterCancel{0};
    };
    std::shared_ptr<State> state_;
};

TEST(SessionLifecycle, CancelMidRunStopsAtBlockBoundaryWithExactRows)
{
    // 3000-instruction captures are 3 replay blocks each. The sink
    // cancels on the FIRST block of the second workload: the first
    // workload's row must survive bit-identical, the second must
    // vanish entirely (no partial numbers), the third must never
    // start, and the replay must stop within one block.
    SessionConfig cfg;
    cfg.captureLimit = 3000;
    const std::vector<std::string> names = {"rawcaudio", "rawdaudio",
                                            "epic"};

    Session reference_session(cfg);
    StudyPlan reference;
    reference.workloads(names)
        .cpi({Design::Baseline32, Design::ByteSerial},
             analysis::suiteConfig())
        .threads(1);
    const SuiteReport full = reference_session.run(reference);
    ASSERT_EQ(full.cpi[0].benchmarks.size(), 3u);

    Session session(cfg);
    CancelSource source;
    CancellingSink sink(&source, /*cancelAt=*/4); // wl0: 3 blocks
    StudyPlan plan;
    plan.workloads(names)
        .cpi({Design::Baseline32, Design::ByteSerial},
             analysis::suiteConfig())
        .profile({&sink})
        .cancel(source.token())
        .threads(1);
    const SuiteReport rep = session.run(plan);

    EXPECT_TRUE(rep.cancelled);
    EXPECT_LE(sink.blocksAfterCancel(), 1u)
        << "replay must stop at the next block boundary";
    ASSERT_EQ(rep.cpi.size(), 1u);
    ASSERT_EQ(rep.cpi[0].benchmarks,
              std::vector<std::string>{"rawcaudio"});
    // The surviving row is the exact full-pass result.
    const auto got = rep.cpi[0].rows();
    const auto want = full.cpi[0].rows();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].benchmark, "rawcaudio");
    EXPECT_EQ(want[0].benchmark, "rawcaudio");
    EXPECT_TRUE(got[0].cpi == want[0].cpi);
    EXPECT_TRUE(got[0].stalls == want[0].stalls);
    // Only the second workload's capture was wasted; the third never
    // started.
    EXPECT_EQ(rep.captures, 2u);
    EXPECT_EQ(rep.replayPasses, 1u);
}

TEST(SessionLifecycle, CancelledRunMergesOnlyCoveredWorkloadsIntoSinks)
{
    // Sinks follow the partial-report rule: after a cancel the
    // caller's sinks hold exactly the tallies of the workloads the
    // report covers. The aborted workload's blocks — including the
    // one that fired the cancel — must not leak into them.
    SessionConfig cfg;
    cfg.captureLimit = 3000; // 3 replay blocks per workload
    const std::vector<std::string> names = {"rawcaudio", "rawdaudio",
                                            "epic"};
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        Session session(cfg);
        CancelSource source;
        CancellingSink canceller(&source, /*cancelAt=*/4);
        analysis::PatternProfiler pat;
        analysis::InstrMixProfiler mix;
        analysis::PcProfiler pc;
        StudyPlan plan;
        plan.workloads(names)
            .cpi({Design::ByteSerial}, analysis::suiteConfig())
            .profile({&canceller, &pat, &mix, &pc})
            .cancel(source.token())
            .threads(threads);
        const SuiteReport rep = session.run(plan);
        EXPECT_TRUE(rep.cancelled);
        ASSERT_EQ(rep.cpi.size(), 1u);
        const std::vector<std::string> &covered = rep.cpi[0].benchmarks;
        if (threads == 1) {
            EXPECT_EQ(covered, std::vector<std::string>{"rawcaudio"});
        }
        EXPECT_LT(covered.size(), names.size());

        // Oracle: fresh captures of exactly the covered workloads,
        // replayed straight into fresh profilers in report order.
        analysis::PatternProfiler want_pat;
        analysis::InstrMixProfiler want_mix;
        analysis::PcProfiler want_pc;
        for (const std::string &name : covered) {
            const cpu::TraceBuffer trace = cpu::TraceBuffer::capture(
                workloads::Suite::build(name).program,
                cfg.captureLimit, /*allow_truncation=*/true);
            cpu::TraceView(trace).replay(
                std::vector<cpu::TraceSink *>{&want_pat, &want_mix,
                                              &want_pc});
        }
        EXPECT_EQ(pat.patterns().raw(), want_pat.patterns().raw());
        EXPECT_EQ(pat.meanSignificantBytes(),
                  want_pat.meanSignificantBytes());
        EXPECT_EQ(mix.functFreq().raw(), want_mix.functFreq().raw());
        EXPECT_EQ(mix.total(), want_mix.total());
        EXPECT_EQ(mix.meanFetchBytes(), want_mix.meanFetchBytes());
        for (unsigned b = 1; b <= 8; ++b) {
            EXPECT_EQ(pc.forBlockBits(b).updates(),
                      want_pc.forBlockBits(b).updates());
            EXPECT_EQ(pc.forBlockBits(b).activityBits(),
                      want_pc.forBlockBits(b).activityBits());
            EXPECT_EQ(pc.forBlockBits(b).cycles(),
                      want_pc.forBlockBits(b).cycles());
        }
    }
}

TEST_F(SessionStoreTest, CancelledRunLeavesStoreClean)
{
    // A cancellation arriving mid-plan must leave every written
    // segment bit-valid: the durable-save discipline means a cancel
    // can only stop saves from HAPPENING, never truncate one.
    SessionConfig cfg;
    cfg.storeDir = dir();
    cfg.captureLimit = 3000;
    Session session(cfg);
    CancelSource source;
    CancellingSink sink(&source, /*cancelAt=*/4);
    StudyPlan plan;
    plan.workloads({"rawcaudio", "rawdaudio", "epic"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig())
        .profile({&sink})
        .cancel(source.token())
        .threads(1);
    const SuiteReport rep = session.run(plan);
    EXPECT_TRUE(rep.cancelled);

    // The doctor's checks, via the library: every segment verifies,
    // nothing was quarantined, no orphan temps were left behind.
    store::TraceStore ts(dir(), /*read_only=*/false);
    const std::vector<std::string> segments = ts.list();
    EXPECT_FALSE(segments.empty());
    for (const std::string &name : segments)
        EXPECT_TRUE(ts.verify(name, nullptr)) << name;
    EXPECT_TRUE(ts.quarantined().empty());
    EXPECT_EQ(ts.cleanOrphanTemps(), 0u)
        << "a cancelled run must not leave temp files";

    // And a fresh session loads them without repair work.
    SessionConfig cfg2;
    cfg2.storeDir = dir();
    cfg2.captureLimit = 3000;
    Session warm(cfg2);
    StudyPlan replayed;
    replayed.workloads({"rawcaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig())
        .threads(1);
    const SuiteReport again = warm.run(replayed);
    EXPECT_EQ(again.captures, 0u);
    EXPECT_EQ(again.storeLoads, 1u);
    EXPECT_EQ(again.storeLoadFailures, 0u);
}

TEST_F(SessionStoreTest, MidRunDeadlineLeavesStoreClean)
{
    // Same invariant under a wall-clock deadline, which can land in
    // ANY phase (capture, save, replay): wherever it strikes, the
    // store must come out consistent.
    SessionConfig cfg;
    cfg.storeDir = dir();
    Session session(cfg);
    StudyPlan plan;
    plan.cpi({Design::ByteSerial}, analysis::suiteConfig())
        .deadlineMs(25)
        .threads(2);
    const SuiteReport rep = session.run(plan);
    EXPECT_TRUE(rep.deadlineExceeded || rep.cpi[0].benchmarks.size() ==
                                            rep.workloads.size());

    store::TraceStore ts(dir(), /*read_only=*/false);
    for (const std::string &name : ts.list())
        EXPECT_TRUE(ts.verify(name, nullptr)) << name;
    EXPECT_TRUE(ts.quarantined().empty());
    EXPECT_EQ(ts.cleanOrphanTemps(), 0u);
}

/**
 * Blocks inside its first retireBlock() until released. Its parts
 * (fresh()) share the one latch.
 */
class BlockingSink : public analysis::ProfileSink
{
  public:
    void
    retire(const cpu::DynInstr &) override
    {}

    void
    retireBlock(std::span<const cpu::DynInstr>) override
    {
        if (!state_->entered.exchange(true)) {
            state_->started.set_value();
            state_->release.get_future().wait();
        }
    }

    std::unique_ptr<analysis::ProfileSink>
    fresh() const override
    {
        return std::make_unique<BlockingSink>(*this);
    }

    void
    merge(const analysis::ProfileSink &) override
    {}

    /** Resolves once the owning plan is replaying (slot held). */
    void waitUntilRunning() { state_->started.get_future().wait(); }

    void release() { state_->release.set_value(); }

  private:
    struct State
    {
        std::atomic<bool> entered{false};
        std::promise<void> started;
        std::promise<void> release;
    };
    std::shared_ptr<State> state_ = std::make_shared<State>();
};

TEST(SessionAdmission, MemoryBudgetRejectsOversizedPlanUpFront)
{
    // The default capture limit estimates gigabytes per trace; a
    // 64 MiB budget must refuse the plan before ANY engine work.
    SessionConfig cfg;
    cfg.admissionMemoryBudgetBytes = 64u << 20;
    Session session(cfg);
    StudyPlan plan;
    plan.workloads({"rawcaudio", "rawdaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig());
    EXPECT_GT(session.estimatePlanMemory(plan),
              cfg.admissionMemoryBudgetBytes);

    const SuiteReport rep = session.run(plan);
    EXPECT_TRUE(rep.rejected);
    EXPECT_NE(rep.rejectReason.find("admission budget"),
              std::string::npos)
        << rep.rejectReason;
    EXPECT_FALSE(rep.cancelled);
    EXPECT_EQ(session.cache().captures(), 0u) << "no engine work";
    EXPECT_EQ(rep.workloads.size(), 2u) << "coverage still reported";
    EXPECT_TRUE(rep.cpi.empty() || rep.cpi[0].benchmarks.empty());
    const std::string json = rep.toJson();
    EXPECT_NE(json.find("\"rejected\": true"), std::string::npos);

    // evictAfterReplay caps the resident estimate at one trace, and
    // a small capture limit shrinks it below the budget: the SAME
    // plan shape becomes admissible — the reject message's advice.
    SessionConfig small;
    small.captureLimit = 3000;
    small.admissionMemoryBudgetBytes = 64u << 20;
    Session admits(small);
    StudyPlan shrunk;
    shrunk.workloads({"rawcaudio", "rawdaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig())
        .evictAfterReplay();
    EXPECT_LT(admits.estimatePlanMemory(shrunk),
              admits.estimatePlanMemory(plan));
    const SuiteReport ok = admits.run(shrunk);
    EXPECT_FALSE(ok.rejected);
    ASSERT_EQ(ok.cpi.size(), 1u);
    EXPECT_EQ(ok.cpi[0].benchmarks.size(), 2u);
}

TEST(SessionAdmission, AtCapacityRejectsWhenQueueIsFull)
{
    SessionConfig cfg;
    cfg.captureLimit = 2000;
    cfg.maxConcurrentPlans = 1;
    cfg.maxQueuedPlans = 0;
    Session session(cfg);

    BlockingSink blocker;
    std::thread holder([&] {
        StudyPlan plan;
        plan.workloads({"rawcaudio"}).profile({&blocker}).threads(1);
        const SuiteReport rep = session.run(plan);
        EXPECT_FALSE(rep.rejected);
    });
    blocker.waitUntilRunning(); // the slot is now provably held

    StudyPlan plan;
    plan.workloads({"rawdaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig())
        .threads(1);
    const SuiteReport rep = session.run(plan);
    EXPECT_TRUE(rep.rejected);
    EXPECT_NE(rep.rejectReason.find("capacity"), std::string::npos)
        << rep.rejectReason;
    EXPECT_EQ(session.cache()
                  .metrics()
                  .counter("session.plans_rejected")
                  .value(),
              1u);

    blocker.release();
    holder.join();
    EXPECT_EQ(session.cache()
                  .metrics()
                  .counter("session.plans_admitted")
                  .value(),
              1u)
        << "only the holder was ever admitted";
}

TEST(SessionAdmission, QueuedPlanDeadlineExpiresIntoEmptyPartial)
{
    // A deadline that runs out IN the queue is an outcome for the
    // caller, not a rejection: they asked for time, not for a place
    // in line.
    SessionConfig cfg;
    cfg.captureLimit = 2000;
    cfg.maxConcurrentPlans = 1;
    cfg.maxQueuedPlans = 4;
    Session session(cfg);

    BlockingSink blocker;
    std::thread holder([&] {
        StudyPlan plan;
        plan.workloads({"rawcaudio"}).profile({&blocker}).threads(1);
        session.run(plan);
    });
    blocker.waitUntilRunning();

    StudyPlan plan;
    plan.workloads({"rawdaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig())
        .deadlineMs(30)
        .threads(1);
    const SuiteReport rep = session.run(plan);
    EXPECT_FALSE(rep.rejected);
    EXPECT_TRUE(rep.deadlineExceeded);
    ASSERT_EQ(rep.cpi.size(), 1u);
    EXPECT_TRUE(rep.cpi[0].benchmarks.empty());

    blocker.release();
    holder.join();
}

TEST(SessionAdmission, QueuedPlanRunsWhenTheSlotFrees)
{
    SessionConfig cfg;
    cfg.captureLimit = 2000;
    cfg.maxConcurrentPlans = 1;
    cfg.maxQueuedPlans = 4;
    Session session(cfg);

    BlockingSink blocker;
    std::thread holder([&] {
        StudyPlan plan;
        plan.workloads({"rawcaudio"}).profile({&blocker}).threads(1);
        session.run(plan);
    });
    blocker.waitUntilRunning();

    std::thread queued([&] {
        StudyPlan plan;
        plan.workloads({"rawdaudio"})
            .cpi({Design::ByteSerial}, analysis::suiteConfig())
            .threads(1);
        const SuiteReport rep = session.run(plan);
        EXPECT_FALSE(rep.rejected);
        ASSERT_EQ(rep.cpi.size(), 1u);
        EXPECT_EQ(rep.cpi[0].benchmarks.size(), 1u)
            << "a queued plan must run to completion once admitted";
    });
    // Let the queued plan reach the wait loop, then free the slot.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    blocker.release();
    holder.join();
    queued.join();
}

} // namespace
} // namespace sigcomp
