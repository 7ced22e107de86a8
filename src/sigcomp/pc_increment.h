/**
 * @file
 * PC-update activity/latency model (paper section 2.2, Table 2).
 *
 * A serial incrementer processes the PC in blocks of b bits, low
 * block first, continuing into the next block only while a carry
 * propagates. For a +1-per-step counter the expected number of
 * blocks touched is the geometric sum
 *
 *     E[blocks] = 1 / (1 - 2^-b)
 *
 * so expected latency is E[blocks] cycles and expected activity is
 * b * E[blocks] bits — exactly the paper's Table 2. The PC itself
 * advances by 4, which shifts the counter up two bits but leaves the
 * distribution of byte-level carries identical (bits [1:0] never
 * change), and control transfers load arbitrary targets; the
 * empirical accumulator below measures both effects on real
 * instruction streams.
 */

#ifndef SIGCOMP_SIGCOMP_PC_INCREMENT_H_
#define SIGCOMP_SIGCOMP_PC_INCREMENT_H_

#include "common/bitutil.h"
#include "common/stats.h"
#include "common/types.h"

namespace sigcomp::sig
{

/** Expected blocks touched per +1 update for @p block_bits-bit blocks. */
constexpr double
pcAnalyticLatency(unsigned block_bits)
{
    const double p = 1.0 / static_cast<double>(1ull << block_bits);
    return 1.0 / (1.0 - p);
}

/** Expected bits operated on per +1 update (Table 2, left column). */
constexpr double
pcAnalyticActivityBits(unsigned block_bits)
{
    return static_cast<double>(block_bits) * pcAnalyticLatency(block_bits);
}

/**
 * Reference implementation of changedBlocks(): walks every block and
 * compares the extracted fields. Kept as the specification for the
 * sparse implementation below (equivalence-tested in test_sigcomp).
 */
constexpr unsigned
changedBlocksReference(Word a, Word b, unsigned block_bits)
{
    unsigned n = 0;
    const unsigned blocks = (32 + block_bits - 1) / block_bits;
    for (unsigned i = 0; i < blocks; ++i) {
        const unsigned lo = i * block_bits;
        const unsigned len = (lo + block_bits <= 32) ? block_bits
                                                     : 32 - lo;
        if (bitField(a, lo, len) != bitField(b, lo, len))
            ++n;
    }
    return n;
}

/**
 * Number of b-bit blocks with a set bit in the difference word @p x.
 *
 * Sparse: clears one whole changed block per loop iteration
 * (countr_zero finds it). PC updates usually change a single low
 * block, so this runs one or two iterations instead of scanning all
 * ceil(32/b) blocks — and it executes 8 times per retired
 * instruction in the PC profiler.
 */
constexpr unsigned
changedBlocksXor(Word x, unsigned block_bits)
{
    unsigned n = 0;
    while (x != 0) {
        const unsigned lo =
            (static_cast<unsigned>(std::countr_zero(x)) / block_bits) *
            block_bits;
        const unsigned len = (lo + block_bits <= 32) ? block_bits
                                                     : 32 - lo;
        x &= ~(((len >= 32) ? ~Word{0} : ((Word{1} << len) - 1)) << lo);
        ++n;
    }
    return n;
}

/** Number of b-bit blocks in which @p a and @p b differ. */
constexpr unsigned
changedBlocks(Word a, Word b, unsigned block_bits)
{
    return changedBlocksXor(a ^ b, block_bits);
}

/** Reference implementation of highestChangedBlock() (see above). */
constexpr int
highestChangedBlockReference(Word a, Word b, unsigned block_bits)
{
    const unsigned blocks = (32 + block_bits - 1) / block_bits;
    for (int i = static_cast<int>(blocks) - 1; i >= 0; --i) {
        const unsigned lo = static_cast<unsigned>(i) * block_bits;
        const unsigned len = (lo + block_bits <= 32) ? block_bits
                                                     : 32 - lo;
        if (bitField(a, lo, len) != bitField(b, lo, len))
            return i;
    }
    return -1;
}

/**
 * Index (0-based) of the highest differing block, or -1 if equal.
 * O(1): the highest differing bit's position names the block.
 */
constexpr int
highestChangedBlock(Word a, Word b, unsigned block_bits)
{
    const Word x = a ^ b;
    if (x == 0)
        return -1;
    return static_cast<int>(
        static_cast<unsigned>(std::bit_width(x) - 1) / block_bits);
}

/**
 * Accumulates PC-update activity over a dynamic instruction stream.
 *
 * Sequential updates ripple serially: latency = index of the highest
 * changed block + 1. Redirects (branch/jump targets) load the new PC
 * in parallel from the datapath: latency 1, activity = changed
 * blocks only (latches are gated per block).
 */
class PcActivityAccumulator
{
  public:
    explicit PcActivityAccumulator(unsigned block_bits = 8)
        : blockBits_(block_bits)
    {}

    /** Record one PC update. @p redirect = control transfer target. */
    void
    update(Word old_pc, Word new_pc, bool redirect)
    {
        updateXor(old_pc ^ new_pc, redirect);
    }

    /**
     * update() with the pc difference word precomputed — the batched
     * PC profiler computes it once per instruction and feeds all
     * eight block-size accumulators from it.
     */
    void
    updateXor(Word x, bool redirect)
    {
        applyUpdate(changedBlocksXor(x, blockBits_),
                    redirect ? 1 : serialCyclesXor(x, blockBits_));
    }

    /** Serial-increment cycles for difference word @p x (pure). */
    static constexpr Count
    serialCyclesXor(Word x, unsigned block_bits)
    {
        if (x == 0)
            return 1;
        const unsigned hi =
            static_cast<unsigned>(std::bit_width(x) - 1) / block_bits;
        return static_cast<Count>(hi + 1);
    }

    /**
     * updateXor() with its pure parts precomputed: the batched PC
     * profiler memoises (changed blocks, cycles) per difference word
     * — dynamic streams revisit very few distinct PC deltas.
     */
    void
    applyUpdate(unsigned changed_blocks, Count cycles)
    {
        ++updates_;
        blocksChanged_ += changed_blocks;
        cycles_ += cycles;
    }

    /**
     * applyUpdate() summed over @p updates updates — the batched PC
     * profiler accumulates a whole replay block locally and lands it
     * here in one call.
     */
    void
    applyUpdateBatch(Count updates, Count changed_blocks, Count cycles)
    {
        updates_ += updates;
        blocksChanged_ += changed_blocks;
        cycles_ += cycles;
    }

    /** Add @p other's totals (same block size) into this one. */
    void
    merge(const PcActivityAccumulator &other)
    {
        SC_ASSERT(other.blockBits_ == blockBits_,
                  "merging PC accumulators of different block sizes");
        applyUpdateBatch(other.updates_, other.blocksChanged_,
                         other.cycles_);
    }

    unsigned blockBits() const { return blockBits_; }
    Count updates() const { return updates_; }

    /** Total bits operated on. */
    Count activityBits() const { return blocksChanged_ * blockBits_; }

    /** Total serial-incrementer cycles. */
    Count cycles() const { return cycles_; }

    /** Mean bits per update. */
    double
    meanActivityBits() const
    {
        return updates_ ? static_cast<double>(activityBits()) /
                              static_cast<double>(updates_)
                        : 0.0;
    }

    /** Mean cycles per update. */
    double
    meanCycles() const
    {
        return updates_ ? static_cast<double>(cycles_) /
                              static_cast<double>(updates_)
                        : 0.0;
    }

    void
    reset()
    {
        updates_ = 0;
        blocksChanged_ = 0;
        cycles_ = 0;
    }

  private:
    unsigned blockBits_;
    Count updates_ = 0;
    Count blocksChanged_ = 0;
    Count cycles_ = 0;
};

} // namespace sigcomp::sig

#endif // SIGCOMP_SIGCOMP_PC_INCREMENT_H_
