/**
 * @file
 * Table 4 reproduction: the cases in which a byte position whose
 * operands are both sign extensions must nevertheless generate a
 * full result byte. The paper derives the rows analytically from
 * the top two bits of the preceding significant bytes (plus a
 * carry-out-of-bit-5 condition); here we *derive the same table by
 * exhaustive enumeration* of the model and then measure how often
 * the exception path fires dynamically.
 */

#include <memory>

#include "analysis/session.h"
#include "bench/bench_util.h"
#include "cpu/functional_core.h"
#include "sigcomp/serial_alu.h"

using namespace sigcomp;

namespace
{

/** Dynamic frequency of Table-4 exceptions in additive operations. */
class ExceptionProfiler : public analysis::ProfileSink
{
  public:
    std::unique_ptr<analysis::ProfileSink>
    fresh() const override
    {
        return std::make_unique<ExceptionProfiler>();
    }

    void
    merge(const analysis::ProfileSink &part) override
    {
        const auto &p = dynamic_cast<const ExceptionProfiler &>(part);
        adds += p.adds;
        exceptions += p.exceptions;
    }

    void
    retire(const cpu::DynInstr &di) override
    {
        const isa::DecodedInstr &dec = *di.dec;
        const sig::SerialAlu alu(sig::Encoding::Ext3);
        sig::AluReport r;
        if (dec.isLoad || dec.isStore) {
            r = alu.add(di.srcRs,
                        static_cast<Word>(di.inst().simm16()));
        } else if (dec.name == "addu" || dec.name == "add") {
            r = alu.add(di.srcRs, di.srcRt);
        } else if (dec.name == "subu" || dec.name == "sub") {
            r = alu.sub(di.srcRs, di.srcRt);
        } else if (dec.name == "addiu" || dec.name == "addi") {
            r = alu.add(di.srcRs,
                        static_cast<Word>(di.inst().simm16()));
        } else {
            return;
        }
        ++adds;
        if (r.sawException)
            ++exceptions;
    }

    Count adds = 0;
    Count exceptions = 0;
};

const char *
bitsName(unsigned t)
{
    static const char *names[4] = {"00xxxxxx", "01xxxxxx", "10xxxxxx",
                                   "11xxxxxx"};
    return names[t];
}

} // namespace

int
main()
{
    bench::banner("Table 4: cases in which byte Ci must be generated",
                  "Canal/Gonzalez/Smith MICRO-33, Table 4 (derived "
                  "here by exhaustive enumeration of the model)");

    // For every unordered pair of top-2-bit classes of the preceding
    // significant bytes, determine whether the exception occurs
    // never, always, or only when bit 5 carries out.
    TextTable t({"A[i-1] top bits", "B[i-1] top bits", "exception",
                 "extra condition"});
    const sig::SerialAlu alu(sig::Encoding::Ext3);
    for (unsigned ta = 0; ta < 4; ++ta) {
        for (unsigned tb = ta; tb < 4; ++tb) {
            // Four-way census: (exception?, bit-5 carry?).
            unsigned exc_carry = 0, exc_plain = 0;
            unsigned ok_carry = 0, ok_plain = 0;
            for (unsigned a0 = ta << 6; a0 < ((ta + 1u) << 6); ++a0) {
                for (unsigned b0 = tb << 6; b0 < ((tb + 1u) << 6);
                     ++b0) {
                    const Word a = signExtend(a0, 8);
                    const Word b = signExtend(b0, 8);
                    const bool exc =
                        alu.add(a, b).cases[1] ==
                        sig::ByteCase::ExtException;
                    const bool carry5 =
                        (((a0 & 0x3f) + (b0 & 0x3f)) >> 6) & 1;
                    if (exc)
                        ++(carry5 ? exc_carry : exc_plain);
                    else
                        ++(carry5 ? ok_carry : ok_plain);
                }
            }
            if (exc_carry + exc_plain == 0)
                continue; // the paper lists only exception rows
            std::string verdict, cond = "-";
            if (ok_carry + ok_plain == 0) {
                verdict = "always";
            } else if (exc_plain == 0 && ok_carry == 0) {
                verdict = "sometimes";
                cond = "5th bit produces carry";
            } else if (exc_carry == 0 && ok_plain == 0) {
                verdict = "sometimes";
                cond = "no carry out of 5th bit";
            } else {
                verdict = "sometimes";
                cond = "mixed";
            }
            t.beginRow()
                .cell(bitsName(ta))
                .cell(bitsName(tb))
                .cell(verdict)
                .cell(cond)
                .endRow();
        }
    }
    bench::printTable("derived exception rows (paper lists: 00+01, "
                      "01+01, 11+10, 10+10 always; 00+11, 01+10 with "
                      "bit-5 carry)", t);

    // Dynamic frequency on the suite.
    ExceptionProfiler prof;
    analysis::StudyPlan plan;
    plan.profile({&prof});
    analysis::Session().run(plan);
    std::printf("\ndynamic Table-4 exception rate: %.2f%% of additive "
                "operations (%llu / %llu)\n",
                100.0 * static_cast<double>(prof.exceptions) /
                    static_cast<double>(prof.adds),
                static_cast<unsigned long long>(prof.exceptions),
                static_cast<unsigned long long>(prof.adds));
    bench::note("rarity of the exception path is what makes the "
                "case-3 'extension bits only' shortcut profitable.");
    return 0;
}
