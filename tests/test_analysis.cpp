/**
 * @file
 * Analysis-layer tests: profilers reproduce the paper's
 * characterisation shapes on our suite, Session studies are
 * consistent and bit-identical to the uncached reference, and the
 * pinned suite compressor ranking is what the suite profiles to.
 * These are the integration tests for the whole stack (workloads ->
 * functional core -> profilers -> pipelines).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "analysis/profilers.h"
#include "analysis/session.h"
#include "common/parallel.h"
#include "cpu/functional_core.h"
#include "tests/reference_studies.h"

namespace sigcomp::analysis
{
namespace
{

using pipeline::Design;

// Each study runs on a fresh Session (threads 0 = the shared pool).

/** Feed the suite's retirement stream into @p sinks. */
void
profileSuite(const std::vector<ProfileSink *> &sinks,
             unsigned threads = 0)
{
    StudyPlan plan;
    plan.profile(sinks).threads(threads);
    Session().run(plan);
}

std::vector<ActivityRow>
activityStudy(sig::Encoding enc, unsigned threads = 0)
{
    StudyPlan plan;
    plan.activity(enc).threads(threads);
    return std::move(Session().run(plan).activity.front().rows);
}

std::vector<CpiRow>
cpiStudy(const std::vector<Design> &designs,
         const pipeline::PipelineConfig &cfg, unsigned threads = 0)
{
    StudyPlan plan;
    plan.cpi(designs, cfg).threads(threads);
    return Session().run(plan).cpi.front().rows();
}

TEST(PatternProfiler, SuiteShapeMatchesTable1)
{
    PatternProfiler pat;
    profileSuite({&pat});

    // The low-byte-only pattern dominates (paper: ~61%).
    const double eees = pat.patterns().fraction(0b0001);
    EXPECT_GT(eees, 0.30);
    // Top-4 (2-bit-encodable) patterns cover the large majority of
    // operands (paper: ~94%; our suite keeps more upper-memory
    // pointers live in registers, so "sees"-style patterns are a
    // little more common).
    EXPECT_GT(pat.ext2Coverage(), 0.70);
    EXPECT_LE(pat.ext2Coverage(), 1.0);
    // Mean significant bytes per operand is well under the full 4
    // (paper's compression premise).
    EXPECT_LT(pat.meanSignificantBytes(), 2.6);
    EXPECT_GT(pat.meanSignificantBytes(), 1.2);
}

TEST(InstrMixProfiler, SuiteShapeMatchesSection23)
{
    InstrMixProfiler mix;
    profileSuite({&mix});

    // Format mix: I-format dominates (paper: 56.9% I, ~41% R, 2.2% J).
    EXPECT_GT(mix.iFormatFraction(), 0.35);
    EXPECT_GT(mix.rFormatFraction(), 0.15);
    EXPECT_LT(mix.jFormatFraction(), 0.10);
    const double sum = mix.iFormatFraction() + mix.rFormatFraction() +
                       mix.jFormatFraction();
    EXPECT_NEAR(sum, 1.0, 1e-9);

    // Immediates are frequent and usually short (paper: 59.1% of
    // instructions, 80% of immediates fit 8 bits).
    EXPECT_GT(mix.immediateFraction(), 0.30);
    EXPECT_GT(mix.shortImmediateFraction(), 0.60);

    // Most instructions perform an addition (paper: 70.7%).
    EXPECT_GT(mix.additionFraction(), 0.45);

    // Compressed fetch width (paper: ~3.17 bytes/instr).
    EXPECT_GT(mix.meanFetchBytes(), 3.0);
    EXPECT_LT(mix.meanFetchBytes(), 3.6);
}

TEST(InstrMixProfiler, Top8FunctsCoverMostRFormat)
{
    InstrMixProfiler mix;
    profileSuite({&mix});
    const auto ranked = mix.functFreq().ranked();
    ASSERT_GE(ranked.size(), 4u);
    Count top8 = 0;
    for (std::size_t i = 0; i < ranked.size() && i < 8; ++i)
        top8 += ranked[i].second;
    const double coverage = static_cast<double>(top8) /
                            static_cast<double>(mix.functFreq().total());
    // Paper Table 3: ~87% cumulative for the top 8.
    EXPECT_GT(coverage, 0.75);
}

TEST(PcProfiler, EmpiricalMatchesAnalyticShape)
{
    PcProfiler pc;
    profileSuite({&pc});
    // Bigger blocks -> fewer cycles, more bits (Table 2 trend), with
    // branch redirects adding a little over the pure counter.
    double prev_cycles = 1e30;
    for (unsigned b = 1; b <= 8; ++b) {
        const auto &acc = pc.forBlockBits(b);
        EXPECT_GT(acc.updates(), 0u);
        EXPECT_LT(acc.meanCycles(), prev_cycles + 1e-12);
        prev_cycles = acc.meanCycles();
        EXPECT_GE(acc.meanActivityBits(),
                  sig::pcAnalyticActivityBits(b) * 0.8);
    }
    // Byte blocks: ~73% saving vs a 32-bit incrementer (Table 5).
    const double saving =
        100.0 * (1.0 - pc.forBlockBits(8).meanActivityBits() / 32.0);
    EXPECT_GT(saving, 60.0);
    EXPECT_LT(saving, 80.0);
}

TEST(SuiteCompressor, PinnedRankingIsTheSuiteProfile)
{
    // kSuiteFunctRanking is the suite's measured Table 3 ranking. A
    // workload edit that changes the profile fails here: update the
    // constant to the ranking printed below.
    InstrMixProfiler mix;
    profileSuite({&mix});
    const std::vector<std::uint8_t> measured =
        mix.buildCompressor().ranking();
    std::string names;
    for (const std::uint8_t f : measured)
        names += isa::functName(static_cast<isa::Funct>(f)) + " ";
    EXPECT_EQ(measured, suiteCompressor().ranking())
        << "suite profiles to: " << names;
}

TEST(SuiteCompressor, ImprovesFetchWidthOverDefault)
{
    InstrMixProfiler def{sig::InstrCompressor::withDefaultRanking()};
    InstrMixProfiler tuned{suiteCompressor()};
    profileSuite({&def, &tuned});
    EXPECT_LE(tuned.meanFetchBytes(), def.meanFetchBytes() + 1e-9);
}

TEST(ActivityStudy, ByteGranularityBands)
{
    const auto rows = activityStudy(sig::Encoding::Ext3);
    ASSERT_EQ(rows.size(), workloads::Suite::names().size());
    const pipeline::ActivityTotals avg = sumActivity(rows);

    // Paper Table 5 AVG: fetch 18.2, rfRead 46.5, rfWrite 42.1,
    // alu 33.2, dcData ~30, dcTag ~1, pcInc 73.3, latch 42.2.
    EXPECT_NEAR(avg.fetch.saving(), 18.2, 10.0);
    EXPECT_NEAR(avg.rfRead.saving(), 46.5, 15.0);
    EXPECT_NEAR(avg.rfWrite.saving(), 42.1, 17.0);
    EXPECT_NEAR(avg.alu.saving(), 33.2, 15.0);
    // Our synthetic media arrays are narrower than Mediabench heap
    // data, so D-cache savings run above the paper's 31% average
    // (still inside its 1-57% per-benchmark range).
    EXPECT_GT(avg.dcData.saving(), 20.0);
    EXPECT_LT(avg.dcData.saving(), 60.0);
    EXPECT_LT(avg.dcTag.saving(), 2.0);
    EXPECT_NEAR(avg.pcInc.saving(), 73.3, 8.0);
    EXPECT_NEAR(avg.latch.saving(), 42.2, 18.0);
}

TEST(ActivityStudy, HalfwordSavingsSmallerButSubstantial)
{
    const auto byte_rows = activityStudy(sig::Encoding::Ext3);
    const auto half_rows = activityStudy(sig::Encoding::Half1);
    const auto byte_avg = sumActivity(byte_rows);
    const auto half_avg = sumActivity(half_rows);

    // Paper Table 6 vs Table 5: every stage saves less at halfword
    // granularity but the savings remain substantial.
    EXPECT_LT(half_avg.rfRead.saving(), byte_avg.rfRead.saving());
    EXPECT_LT(half_avg.alu.saving(), byte_avg.alu.saving());
    EXPECT_LT(half_avg.pcInc.saving(), byte_avg.pcInc.saving());
    EXPECT_LT(half_avg.latch.saving(), byte_avg.latch.saving());
    EXPECT_GT(half_avg.rfRead.saving(), 10.0);
    EXPECT_GT(half_avg.pcInc.saving(), 30.0);
}

TEST(CpiStudy, PaperOrderingAcrossSuite)
{
    const auto designs = pipeline::allDesigns();
    const auto rows = cpiStudy(designs, suiteConfig());
    ASSERT_EQ(rows.size(), workloads::Suite::names().size());

    const double base = meanCpi(rows, Design::Baseline32);
    const double serial = meanCpi(rows, Design::ByteSerial);
    const double half = meanCpi(rows, Design::HalfwordSerial);
    const double semi = meanCpi(rows, Design::ByteSemiParallel);
    const double skew = meanCpi(rows, Design::ByteParallelSkewed);
    const double comp = meanCpi(rows, Design::ByteParallelCompressed);
    const double byp = meanCpi(rows, Design::SkewedBypass);

    // Paper: baseline < {skewed family, compressed} < semi < half
    // < serial; byte-serial ~ +79%, semi ~ +24%, parallel within
    // a few percent.
    EXPECT_LT(base, byp);
    EXPECT_LT(byp, semi);
    EXPECT_LT(comp, semi);
    EXPECT_LT(skew, semi);
    EXPECT_LT(semi, half);
    EXPECT_LT(half, serial);

    const double serial_up = serial / base - 1.0;
    EXPECT_GT(serial_up, 0.45);
    EXPECT_LT(serial_up, 1.10);
    const double semi_up = semi / base - 1.0;
    EXPECT_GT(semi_up, 0.10);
    EXPECT_LT(semi_up, 0.45);
    const double byp_up = byp / base - 1.0;
    EXPECT_LT(byp_up, 0.15);
}

// ---- parallel experiment engine vs. serial reference ----------------
//
// A Session fans workloads across a thread pool; these tests pin
// the guarantee that the parallel path is *bit-identical* to the
// serial uncached reference (tests/reference_studies.h), and log
// the wall-clock ratio. A fixed thread count > 1 is used so the pool
// and the trace-buffer replay path are exercised even on single-core
// hosts.

constexpr unsigned kParallelThreads = 4;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

void
expectSameBits(const pipeline::BitPair &a, const pipeline::BitPair &b,
               const char *what)
{
    EXPECT_EQ(a.compressed, b.compressed) << what;
    EXPECT_EQ(a.baseline, b.baseline) << what;
}

void
expectSameActivity(const pipeline::ActivityTotals &a,
                   const pipeline::ActivityTotals &b)
{
    expectSameBits(a.fetch, b.fetch, "fetch");
    expectSameBits(a.rfRead, b.rfRead, "rfRead");
    expectSameBits(a.rfWrite, b.rfWrite, "rfWrite");
    expectSameBits(a.alu, b.alu, "alu");
    expectSameBits(a.dcData, b.dcData, "dcData");
    expectSameBits(a.dcTag, b.dcTag, "dcTag");
    expectSameBits(a.pcInc, b.pcInc, "pcInc");
    expectSameBits(a.latch, b.latch, "latch");
}

TEST(ParallelStudies, ActivityStudyBitIdenticalToSerial)
{
    ParallelExecutor serial_exec(1);
    const auto t0 = std::chrono::steady_clock::now();
    const auto serial =
        reference::activityStudy(sig::Encoding::Ext3, serial_exec);
    const double serial_s = secondsSince(t0);

    const auto t1 = std::chrono::steady_clock::now();
    const auto parallel =
        activityStudy(sig::Encoding::Ext3, kParallelThreads);
    const double parallel_s = secondsSince(t1);

    std::printf("[ timing   ] activity study: serial %.3fs, "
                "parallel(%u) %.3fs, speedup %.2fx on %u hw threads\n",
                serial_s, kParallelThreads, parallel_s,
                serial_s / parallel_s,
                ParallelExecutor::defaultThreadCount());

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].benchmark, serial[i].benchmark);
        expectSameActivity(parallel[i].activity, serial[i].activity);
    }
}

TEST(ParallelStudies, CpiStudyBitIdenticalToSerial)
{
    const auto designs = pipeline::allDesigns();
    const auto cfg = suiteConfig();

    ParallelExecutor serial_exec(1);
    const auto t0 = std::chrono::steady_clock::now();
    const auto serial = reference::cpiStudy(designs, cfg, serial_exec);
    const double serial_s = secondsSince(t0);

    const auto t1 = std::chrono::steady_clock::now();
    const auto parallel = cpiStudy(designs, cfg, kParallelThreads);
    const double parallel_s = secondsSince(t1);

    std::printf("[ timing   ] CPI study: serial %.3fs, parallel(%u) "
                "%.3fs, speedup %.2fx on %u hw threads\n",
                serial_s, kParallelThreads, parallel_s,
                serial_s / parallel_s,
                ParallelExecutor::defaultThreadCount());

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].benchmark, serial[i].benchmark);
        // Exact double equality: identical inputs through identical
        // per-workload arithmetic must produce identical bits.
        EXPECT_EQ(parallel[i].cpi, serial[i].cpi);
        ASSERT_EQ(parallel[i].stalls.size(), serial[i].stalls.size());
        for (Design design : designs) {
            ASSERT_TRUE(serial[i].stalls.contains(design));
            const auto &st = serial[i].stalls.at(design);
            const auto &pst = parallel[i].stalls.at(design);
            EXPECT_EQ(pst.controlCycles, st.controlCycles);
            EXPECT_EQ(pst.dataHazardCycles, st.dataHazardCycles);
            EXPECT_EQ(pst.structuralCycles, st.structuralCycles);
            EXPECT_EQ(pst.icacheMissCycles, st.icacheMissCycles);
            EXPECT_EQ(pst.dcacheMissCycles, st.dcacheMissCycles);
        }
    }
}

void
expectSameTallies(const PatternProfiler &got, const PatternProfiler &want)
{
    EXPECT_EQ(got.patterns().raw(), want.patterns().raw())
        << "counts and key set";
    EXPECT_EQ(got.patterns().total(), want.patterns().total());
    for (sig::ByteMask m = 0; m < 16; ++m)
        EXPECT_EQ(got.patterns().count(m), want.patterns().count(m));
    EXPECT_EQ(got.patterns().ranked(), want.patterns().ranked());
    EXPECT_EQ(got.ext2Coverage(), want.ext2Coverage());
    EXPECT_EQ(got.meanSignificantBytes(), want.meanSignificantBytes());
}

void
expectSameTallies(const InstrMixProfiler &got,
                  const InstrMixProfiler &want)
{
    EXPECT_EQ(got.functFreq().raw(), want.functFreq().raw())
        << "counts and key set";
    EXPECT_EQ(got.functFreq().total(), want.functFreq().total());
    EXPECT_EQ(got.functFreq().ranked(), want.functFreq().ranked());
    EXPECT_EQ(got.total(), want.total());
    EXPECT_EQ(got.rFormatFraction(), want.rFormatFraction());
    EXPECT_EQ(got.iFormatFraction(), want.iFormatFraction());
    EXPECT_EQ(got.jFormatFraction(), want.jFormatFraction());
    EXPECT_EQ(got.immediateFraction(), want.immediateFraction());
    EXPECT_EQ(got.shortImmediateFraction(),
              want.shortImmediateFraction());
    EXPECT_EQ(got.meanFetchBytes(), want.meanFetchBytes());
    EXPECT_EQ(got.additionFraction(), want.additionFraction());
    EXPECT_EQ(got.buildCompressor().ranking(),
              want.buildCompressor().ranking());
}

void
expectSameTallies(const PcProfiler &got, const PcProfiler &want)
{
    for (unsigned b = 1; b <= 8; ++b) {
        const sig::PcActivityAccumulator &g = got.forBlockBits(b);
        const sig::PcActivityAccumulator &w = want.forBlockBits(b);
        EXPECT_EQ(g.blockBits(), w.blockBits()) << b;
        EXPECT_EQ(g.updates(), w.updates()) << b;
        EXPECT_EQ(g.activityBits(), w.activityBits()) << b;
        EXPECT_EQ(g.cycles(), w.cycles()) << b;
        EXPECT_EQ(g.meanActivityBits(), w.meanActivityBits()) << b;
        EXPECT_EQ(g.meanCycles(), w.meanCycles()) << b;
    }
}

TEST(ParallelStudies, ProfileSuiteReplayMatchesDirectSinking)
{
    // Every profiled plan replays across the executor and merges
    // per-workload sink parts in suite order; the caller's sinks must
    // end exactly where the uncached serial stream leaves them, at
    // any thread count. The mix profiler uses a non-default
    // compressor, so a part that lost its configuration would fetch
    // different widths.
    PatternProfiler ref_pat;
    InstrMixProfiler ref_mix{suiteCompressor()};
    PcProfiler ref_pc;
    ParallelExecutor serial_exec(1);
    reference::profileSuite({&ref_pat, &ref_mix, &ref_pc}, serial_exec);

    for (const unsigned threads : {1u, 4u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        PatternProfiler pat;
        InstrMixProfiler mix{suiteCompressor()};
        PcProfiler pc;
        profileSuite({&pat, &mix, &pc}, threads);
        expectSameTallies(pat, ref_pat);
        expectSameTallies(mix, ref_mix);
        expectSameTallies(pc, ref_pc);
    }
}

TEST(CpiStudy, ExStructuralStallsDominateByteSerial)
{
    // Section 5's bottleneck study: most byte-serial stalls are EX
    // structural hazards, motivating the 3/2/2/1 bandwidth split.
    const auto rows =
        cpiStudy({Design::ByteSerial}, suiteConfig());
    Count structural = 0, total = 0;
    for (const auto &row : rows) {
        const auto &st = row.stalls.at(Design::ByteSerial);
        structural += st.structuralCycles;
        total += st.total();
    }
    EXPECT_GT(static_cast<double>(structural) /
                  static_cast<double>(total),
              0.35);
}

} // namespace
} // namespace sigcomp::analysis
