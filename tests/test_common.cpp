/**
 * @file
 * Unit tests for the common library: bit utilities, stats, RNG,
 * table writer.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/bitutil.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace sigcomp
{
namespace
{

TEST(BitUtil, WordByteExtraction)
{
    const Word w = 0x12345678;
    EXPECT_EQ(wordByte(w, 0), 0x78);
    EXPECT_EQ(wordByte(w, 1), 0x56);
    EXPECT_EQ(wordByte(w, 2), 0x34);
    EXPECT_EQ(wordByte(w, 3), 0x12);
}

TEST(BitUtil, SetWordByte)
{
    Word w = 0x12345678;
    w = setWordByte(w, 0, 0xaa);
    EXPECT_EQ(w, 0x123456aau);
    w = setWordByte(w, 3, 0x00);
    EXPECT_EQ(w, 0x003456aau);
}

TEST(BitUtil, WordHalf)
{
    EXPECT_EQ(wordHalf(0xdeadbeef, 0), 0xbeef);
    EXPECT_EQ(wordHalf(0xdeadbeef, 1), 0xdead);
}

TEST(BitUtil, SignFill)
{
    EXPECT_EQ(signFill(0x7f), 0x00);
    EXPECT_EQ(signFill(0x80), 0xff);
    EXPECT_EQ(signFill(0x00), 0x00);
    EXPECT_EQ(signFill(0xff), 0xff);
}

TEST(BitUtil, SignExtend)
{
    EXPECT_EQ(signExtend(0xff, 8), 0xffffffffu);
    EXPECT_EQ(signExtend(0x7f, 8), 0x7fu);
    EXPECT_EQ(signExtend(0x8000, 16), 0xffff8000u);
    EXPECT_EQ(signExtend(0x1234, 16), 0x1234u);
}

TEST(BitUtil, BitFieldRoundTrip)
{
    Word w = 0;
    w = setBitField(w, 26, 6, 0x23);
    w = setBitField(w, 21, 5, 0x1f);
    w = setBitField(w, 0, 16, 0xbeef);
    EXPECT_EQ(bitField(w, 26, 6), 0x23u);
    EXPECT_EQ(bitField(w, 21, 5), 0x1fu);
    EXPECT_EQ(bitField(w, 0, 16), 0xbeefu);
}

TEST(BitUtil, SignificantBytes)
{
    EXPECT_EQ(significantBytes(0x00000000), 1u);
    EXPECT_EQ(significantBytes(0x00000004), 1u);
    EXPECT_EQ(significantBytes(0xffffffff), 1u); // -1 = sign ext of 0xff
    EXPECT_EQ(significantBytes(0x0000007f), 1u);
    EXPECT_EQ(significantBytes(0x00000080), 2u); // 0x80 would sign-extend
    EXPECT_EQ(significantBytes(0xffffff80), 1u);
    EXPECT_EQ(significantBytes(0xfffff504), 2u); // paper example
    EXPECT_EQ(significantBytes(0x00012345), 3u);
    EXPECT_EQ(significantBytes(0x10000009), 4u);
}

TEST(BitUtil, SignificantHalves)
{
    EXPECT_EQ(significantHalves(0x00001234), 1u);
    EXPECT_EQ(significantHalves(0xffff8000), 1u);
    EXPECT_EQ(significantHalves(0x00008000), 2u);
    EXPECT_EQ(significantHalves(0x12340000), 2u);
}

TEST(BitUtil, HammingDistance)
{
    EXPECT_EQ(hammingDistance(0, 0), 0u);
    EXPECT_EQ(hammingDistance(0xff, 0), 8u);
    EXPECT_EQ(hammingDistance(0b1010, 0b0101), 4u);
}

TEST(BitUtil, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageBasics)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(1.0);
    a.sample(2.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_EQ(a.samples(), 3u);
}

TEST(Stats, DistributionRankingAndFractions)
{
    Distribution<int> d;
    d.record(7, 70);
    d.record(3, 20);
    d.record(9, 10);
    EXPECT_EQ(d.total(), 100u);
    EXPECT_DOUBLE_EQ(d.fraction(7), 0.70);
    EXPECT_DOUBLE_EQ(d.fraction(42), 0.0);
    const auto ranked = d.ranked();
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].first, 7);
    EXPECT_EQ(ranked[1].first, 3);
    EXPECT_EQ(ranked[2].first, 9);
}

TEST(Stats, DistributionMergeAddsCountsAndCreatesNoZeroKeys)
{
    Distribution<int> a;
    a.record(3, 2);
    Distribution<int> b;
    b.record(3, 1);
    b.record(7, 0); // a zero tally present in the part
    b.record(9, 4);
    a.merge(b);
    const std::map<int, Count> want = {{3, 3}, {9, 4}};
    EXPECT_EQ(a.raw(), want);
    EXPECT_EQ(a.total(), 7u);

    // Merging into an empty distribution reproduces the part's
    // nonzero tallies exactly.
    Distribution<int> empty;
    empty.merge(a);
    EXPECT_EQ(empty.raw(), a.raw());
    EXPECT_EQ(empty.total(), a.total());
}

TEST(Stats, PercentSaving)
{
    EXPECT_DOUBLE_EQ(percentSaving(70, 100), 30.0);
    EXPECT_DOUBLE_EQ(percentSaving(100, 100), 0.0);
    EXPECT_DOUBLE_EQ(percentSaving(0, 100), 100.0);
    EXPECT_DOUBLE_EQ(percentSaving(5, 0), 0.0);
}

TEST(Json, StringEscapesQuotesBackslashesAndEveryControlByte)
{
    EXPECT_EQ(jsonString("plain"), "\"plain\"");
    EXPECT_EQ(jsonString("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonString("tab\tnl\n\x01\x1f"),
              "\"tab\\u0009nl\\u000a\\u0001\\u001f\"");
    EXPECT_EQ(jsonString(std::string("nul\0end", 7)),
              "\"nul\\u0000end\"");
    EXPECT_EQ(jsonString("\x7f\xc3\xa9"), "\"\x7f\xc3\xa9\"");
}

TEST(Rng, Deterministic)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, RangeBounds)
{
    Rng r(99);
    for (int i = 0; i < 1000; ++i) {
        const SWord v = r.range(-5, 7);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Table, AlignedRendering)
{
    TextTable t({"name", "value"});
    t.addRow({"cpi", "1.50"});
    t.beginRow().cell("saving").cell(33.333, 1).endRow();
    const std::string s = t.toString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("33.3"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvEscaping)
{
    TextTable t({"a", "b"});
    t.addRow({"plain", "has,comma"});
    t.addRow({"quote\"inside", "x"});
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, FormatFixed)
{
    EXPECT_EQ(formatFixed(1.005, 2), "1.00"); // printf rounding
    EXPECT_EQ(formatFixed(2.0, 0), "2");
    EXPECT_EQ(formatFixed(-1.5, 1), "-1.5");
}

} // namespace
} // namespace sigcomp
