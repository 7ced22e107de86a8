/**
 * @file
 * Encoding ablation (section 2.1's 2-bit vs 3-bit discussion, plus
 * the halfword scheme): storage overhead, compression achieved, and
 * the resulting per-stage activity savings when the byte-serial
 * pipeline runs with each encoding.
 */

#include <cmath>

#include "analysis/session.h"
#include "analysis/profilers.h"
#include "bench/bench_util.h"
#include "pipeline/runner.h"

using namespace sigcomp;
using namespace sigcomp::pipeline;

namespace
{

struct EncStats
{
    Count operands = 0;
    Count dataBits = 0;
    Count storageBits = 0;
};

/** Mean stored bits per operand under an encoding. */
class StorageProfiler : public cpu::TraceSink
{
  public:
    explicit StorageProfiler(sig::Encoding enc) : enc_(enc) {}

    void
    retire(const cpu::DynInstr &di) override
    {
        if (di.dec->readsRs)
            record(di.srcRs);
        if (di.dec->readsRt)
            record(di.srcRt);
        if (di.dec->writesDest && di.dec->dest != isa::reg::zero)
            record(di.result);
    }

    const EncStats &stats() const { return stats_; }
    sig::Encoding encoding() const { return enc_; }

  private:
    void
    record(Word v)
    {
        const auto cw = sig::CompressedWord::compress(v, enc_);
        ++stats_.operands;
        stats_.dataBits += cw.dataBits();
        stats_.storageBits += cw.storageBits();
    }

    sig::Encoding enc_;
    EncStats stats_;
};

} // namespace

int
main()
{
    bench::banner("Ablation: 2-bit vs 3-bit vs halfword significance "
                  "encodings",
                  "Canal/Gonzalez/Smith MICRO-33, section 2.1 (2-bit: "
                  "6% overhead, fewer patterns; 3-bit: 9% overhead, "
                  "+6% operands compressed)");

    // All three encodings' storage profiles off one suite pass.
    StorageProfiler ext2(sig::Encoding::Ext2);
    StorageProfiler ext3(sig::Encoding::Ext3);
    StorageProfiler half1(sig::Encoding::Half1);
    analysis::StudyPlan plan;
    plan.profile({&ext2, &ext3, &half1});
    analysis::Session().run(plan);

    TextTable t({"encoding", "ext bits", "mean data bits/word",
                 "mean stored bits/word", "compression %"});
    for (const StorageProfiler *prof : {&ext2, &ext3, &half1}) {
        const sig::Encoding enc = prof->encoding();
        const EncStats &s = prof->stats();
        const double data =
            static_cast<double>(s.dataBits) / s.operands;
        const double stored =
            static_cast<double>(s.storageBits) / s.operands;
        t.beginRow()
            .cell(sig::encodingName(enc))
            .cell(static_cast<std::uint64_t>(sig::extensionBits(enc)))
            .cell(data, 2)
            .cell(stored, 2)
            .cell(100.0 * (1.0 - stored / 32.0), 1)
            .endRow();
    }
    bench::printTable("storage cost per register operand (suite)", t);

    // Activity impact: run the byte-serial pipeline under each byte
    // encoding (halfword uses the halfword-serial design).
    TextTable a({"encoding", "RFread save %", "RFwrite save %",
                 "ALU save %", "D$data save %", "latch save %"});
    for (sig::Encoding enc : {sig::Encoding::Ext2, sig::Encoding::Ext3,
                              sig::Encoding::Half1}) {
        const Design d = (enc == sig::Encoding::Half1)
                             ? Design::HalfwordSerial
                             : Design::ByteSerial;
        pipeline::ActivityTotals total;
        for (const std::string &name : workloads::Suite::names()) {
            const workloads::Workload w = workloads::Suite::build(name);
            auto pipe = makePipeline(d, analysis::suiteConfig(enc));
            runPipelines(w.program, {pipe.get()});
            total += pipe->result().activity;
        }
        a.beginRow()
            .cell(sig::encodingName(enc))
            .cell(total.rfRead.saving(), 1)
            .cell(total.rfWrite.saving(), 1)
            .cell(total.alu.saving(), 1)
            .cell(total.dcData.saving(), 1)
            .cell(total.latch.saving(), 1)
            .endRow();
    }
    bench::printTable("byte-serial activity savings per encoding", a);
    bench::note("expected shape: ext3 beats ext2 by a few percent "
                "(the paper estimated ~6% more compressible "
                "operands); both byte schemes beat the halfword "
                "scheme.");
    return 0;
}
