/**
 * @file
 * Trace profilers backing the paper's characterisation tables:
 * significant-byte pattern frequencies (Table 1), dynamic function
 * code frequencies and instruction-format statistics (Table 3 and
 * the section 2.3 text numbers), and empirical PC-update behaviour
 * (Table 2).
 */

#ifndef SIGCOMP_ANALYSIS_PROFILERS_H_
#define SIGCOMP_ANALYSIS_PROFILERS_H_

#include <array>
#include <memory>

#include "analysis/profile_sink.h"
#include "common/stats.h"
#include "sigcomp/byte_pattern.h"
#include "sigcomp/instr_compress.h"
#include "sigcomp/pc_increment.h"

namespace sigcomp::analysis
{

/**
 * Table 1: distribution of the eight significant-byte patterns over
 * dynamic operand values (register sources, results, and memory
 * data).
 */
class PatternProfiler : public ProfileSink
{
  public:
    void retire(const cpu::DynInstr &di) override;

    /** Batched path: flat per-pattern tallies merged per block. */
    void retireBlock(std::span<const cpu::DynInstr> block) override;

    std::unique_ptr<ProfileSink> fresh() const override;
    void merge(const ProfileSink &part) override;

    const Distribution<sig::ByteMask> &patterns() const
    {
        return patterns_;
    }

    /** Fraction of operands covered by the 2-bit-encodable set. */
    double ext2Coverage() const;

    /** Mean significant bytes per operand value. */
    double meanSignificantBytes() const;

  private:
    void record(Word value);

    Distribution<sig::ByteMask> patterns_;
    Count totalBytes_ = 0;
};

/**
 * Table 3 + section 2.3: dynamic funct frequencies, format mix,
 * immediate sizes, and compressed fetch widths.
 */
class InstrMixProfiler : public ProfileSink
{
  public:
    explicit InstrMixProfiler(
        sig::InstrCompressor compressor =
            sig::InstrCompressor::withDefaultRanking());

    void retire(const cpu::DynInstr &di) override;

    /**
     * Batched path: per-static-instruction facts (fetch width,
     * format, add-likeness, immediate shape) are pure functions of
     * the instruction word, so a small direct-mapped memo keyed on
     * the raw word serves repeated dynamic instances; tallies are
     * flat counters merged per block.
     */
    void retireBlock(std::span<const cpu::DynInstr> block) override;

    /** A part with the same compressor. */
    std::unique_ptr<ProfileSink> fresh() const override;
    void merge(const ProfileSink &part) override;

    const Distribution<std::uint8_t> &functFreq() const
    {
        return functs_;
    }

    Count total() const { return total_; }
    double rFormatFraction() const { return frac(rFormat_); }
    double iFormatFraction() const { return frac(iFormat_); }
    double jFormatFraction() const { return frac(jFormat_); }
    /** Fraction of instructions with a 16-bit immediate field. */
    double immediateFraction() const { return frac(hasImm_); }
    /** Of those, fraction whose immediate fits in 8 bits. */
    double
    shortImmediateFraction() const
    {
        return hasImm_ ? static_cast<double>(shortImm_) /
                             static_cast<double>(hasImm_)
                       : 0.0;
    }
    /** Mean compressed instruction bytes fetched (paper: ~3.17). */
    double
    meanFetchBytes() const
    {
        return total_ ? static_cast<double>(fetchBytes_) /
                            static_cast<double>(total_)
                      : 0.0;
    }
    /** Fraction of instructions performing an addition (paper ~70%). */
    double additionFraction() const { return frac(addLike_); }

    /** Build a compressor from the measured funct ranking. */
    sig::InstrCompressor
    buildCompressor() const
    {
        return sig::InstrCompressor::fromProfile(functs_);
    }

  private:
    double
    frac(Count c) const
    {
        return total_ ? static_cast<double>(c) /
                            static_cast<double>(total_)
                      : 0.0;
    }

    /** Pure per-instruction-word facts shared by both retire paths. */
    struct InstrFacts
    {
        std::uint8_t fetchBytes = 0;
        bool addLike = false;
        bool shortImm = false;
    };
    InstrFacts computeFacts(const isa::DecodedInstr &dec) const;

    /** Direct-mapped memo over raw instruction words (block path). */
    static constexpr std::size_t memoSize = 512;
    struct MemoEntry
    {
        Word raw = 0;
        InstrFacts facts{};
        bool valid = false;
    };
    std::array<MemoEntry, memoSize> memo_{};

    sig::InstrCompressor compressor_;
    Distribution<std::uint8_t> functs_;
    Count total_ = 0;
    Count rFormat_ = 0;
    Count iFormat_ = 0;
    Count jFormat_ = 0;
    Count hasImm_ = 0;
    Count shortImm_ = 0;
    Count fetchBytes_ = 0;
    Count addLike_ = 0;
};

/**
 * Table 2 (empirical side): PC-update activity and latency per
 * block size, fed with the real dynamic PC stream.
 */
class PcProfiler : public ProfileSink
{
  public:
    PcProfiler();

    void retire(const cpu::DynInstr &di) override;

    /** Batched path: monomorphic loop over the accumulators. */
    void retireBlock(std::span<const cpu::DynInstr> block) override;

    /**
     * Each update reads only its own instruction's pc and nextPc, so
     * no state crosses a workload boundary and parts merge exactly.
     */
    std::unique_ptr<ProfileSink> fresh() const override;
    void merge(const ProfileSink &part) override;

    /** Accumulator for block size @p bits (1..8). */
    const sig::PcActivityAccumulator &forBlockBits(unsigned bits) const;

  private:
    std::array<sig::PcActivityAccumulator, 8> accs_;

    /**
     * Direct-mapped memo of the pure per-difference-word update
     * quantities for all eight block sizes (block path only).
     */
    struct alignas(32) PcMemoEntry
    {
        Word x = 0;
        bool valid = false;
        /**
         * changedBlocksXor / serialCyclesXor for block sizes 1..8,
         * one byte per size, packed as u64 lanes so the block loop
         * accumulates all eight sizes with one 8-lane SWAR add
         * (per-lane maxima are 32, so sums flush to the wide
         * accumulators every few instructions before a lane can
         * carry into its neighbour).
         */
        std::uint64_t changed8 = 0;
        std::uint64_t cycles8 = 0;
    };
    /** 32-byte aligned so an entry never straddles cache lines. */
    std::array<PcMemoEntry, 512> memo_{};
};

} // namespace sigcomp::analysis

#endif // SIGCOMP_ANALYSIS_PROFILERS_H_
