/**
 * @file
 * Robustness ablation: rerun the headline experiments on two
 * held-out kernels (`mesa`, a fixed-point 3D transform, and `huff`,
 * a Huffman-style bit packer) that are not in the paper's table and
 * were not used to tune anything — including the funct recoding,
 * which stays profiled on the original suite. The paper's
 * conclusions should transfer.
 */

#include "analysis/session.h"
#include "bench/bench_util.h"
#include "pipeline/runner.h"

using namespace sigcomp;
using namespace sigcomp::pipeline;

int
main()
{
    bench::banner("Ablation: held-out workloads (mesa, huff)",
                  "robustness check of all headline results on "
                  "kernels outside the paper's suite");

    TextTable t({"benchmark", "design", "CPI", "uplift %",
                 "RFread save %", "ALU save %", "latch save %"});
    analysis::Session session;
    for (const std::string &name : workloads::Suite::extraNames()) {
        // Held-out kernels go through the session's cache too: one
        // capture, all seven designs replayed from the shared trace,
        // evicted right after (each is replayed exactly once, so
        // peak memory stays at one held-out trace).
        const analysis::TraceCache::TracePtr trace = session.trace(name);
        const auto results =
            replayDesigns(*trace, allDesigns(), analysis::suiteConfig());
        session.cache().evict(name);
        const double base = results[0].cpi();
        for (const auto &r : results) {
            t.beginRow()
                .cell(name)
                .cell(r.name)
                .cell(r.cpi(), 3)
                .cell(100.0 * (r.cpi() / base - 1.0), 1)
                .cell(r.activity.rfRead.saving(), 1)
                .cell(r.activity.alu.saving(), 1)
                .cell(r.activity.latch.saving(), 1)
                .endRow();
        }
    }
    bench::printTable("held-out kernels across the design space", t);
    bench::note("expected: same ordering as the main suite — "
                "byte-serial slowest, skewed-bypass cheapest of the "
                "significance designs, activity savings in the same "
                "bands. mesa's wide Q12 products lower the ALU "
                "saving; huff's narrow symbols raise it.");
    return 0;
}
