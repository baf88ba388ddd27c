/** @file Unit tests for the support library (strfmt, logging, rng, units,
 *  json). */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/percentile.hh"
#include "support/rng.hh"
#include "support/strfmt.hh"
#include "support/units.hh"

using namespace capu;

TEST(Strfmt, NoPlaceholders)
{
    EXPECT_EQ(fmt("hello"), "hello");
}

TEST(Strfmt, SingleSubstitution)
{
    EXPECT_EQ(fmt("x = {}", 42), "x = 42");
}

TEST(Strfmt, MultipleSubstitutions)
{
    EXPECT_EQ(fmt("{} + {} = {}", 1, 2, 3), "1 + 2 = 3");
}

TEST(Strfmt, StringArgs)
{
    EXPECT_EQ(fmt("{} {}", std::string("a"), "b"), "a b");
}

TEST(Strfmt, SurplusArgsAppended)
{
    // Mis-counted format strings must not drop information.
    EXPECT_EQ(fmt("x={}", 1, 2), "x=1 2");
}

TEST(Strfmt, SurplusPlaceholdersKept)
{
    EXPECT_EQ(fmt("{} {}", 7), "7 {}");
}

TEST(Strfmt, MixedTypes)
{
    EXPECT_EQ(fmt("{}/{}", 1.5, 'c'), "1.5/c");
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom {}", 1), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config {}", "x"), FatalError);
}

TEST(Logging, PanicMessageContainsArgs)
{
    try {
        panic("value was {}", 99);
        FAIL() << "panic did not throw";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("99"), std::string::npos);
    }
}

TEST(Logging, WarnRespectsEnableFlag)
{
    setLogEnabled(false);
    EXPECT_FALSE(logEnabled());
    warn("should not print");
    setLogEnabled(true);
    EXPECT_TRUE(logEnabled());
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformIntInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformIntSingleton)
{
    Rng r(7);
    EXPECT_EQ(r.uniformInt(5, 5), 5u);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformRealCoversRange)
{
    Rng r(13);
    bool low = false, high = false;
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniformReal(0, 100);
        low = low || v < 10;
        high = high || v > 90;
    }
    EXPECT_TRUE(low);
    EXPECT_TRUE(high);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Hash, CombineOrderMatters)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Hash, StringStable)
{
    EXPECT_EQ(hashString("conv1"), hashString("conv1"));
    EXPECT_NE(hashString("conv1"), hashString("conv2"));
}

TEST(Units, TickConversions)
{
    EXPECT_EQ(ticksFromUs(1), 1000u);
    EXPECT_EQ(ticksFromMs(1), 1000000u);
    EXPECT_EQ(ticksFromSec(1), 1000000000u);
    EXPECT_DOUBLE_EQ(ticksToUs(1500), 1.5);
    EXPECT_DOUBLE_EQ(ticksToSec(kTickPerSec), 1.0);
}

TEST(Units, ByteLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(1_MiB, 1048576u);
    EXPECT_EQ(2_GiB, 2147483648u);
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(17), "17 B");
    EXPECT_EQ(formatBytes(1536), "1.5 KiB");
    EXPECT_EQ(formatBytes(3ull << 20), "3.0 MiB");
    EXPECT_EQ(formatBytes(1536ull << 20), "1.50 GiB");
}

TEST(Units, FormatTicks)
{
    EXPECT_EQ(formatTicks(500), "500 ns");
    EXPECT_EQ(formatTicks(ticksFromUs(2)), "2.0 us");
    EXPECT_EQ(formatTicks(ticksFromMs(3)), "3.00 ms");
    EXPECT_EQ(formatTicks(ticksFromSec(2)), "2.00 s");
}

TEST(Units, ParseBytesAcceptsSuffixes)
{
    EXPECT_EQ(parseBytes("4096"), 4096u);
    EXPECT_EQ(parseBytes("17B"), 17u);
    EXPECT_EQ(parseBytes("2K"), 2_KiB);
    EXPECT_EQ(parseBytes("2KB"), 2_KiB);
    EXPECT_EQ(parseBytes("512M"), 512_MiB);
    EXPECT_EQ(parseBytes("14G"), 14_GiB);
    EXPECT_EQ(parseBytes("1.5GB"), 1_GiB + 512_MiB);
    EXPECT_EQ(parseBytes("0"), 0u);
    // The largest whole-GiB count that still fits 64 bits.
    EXPECT_EQ(parseBytes("17179869183G"), ~0ull - 1_GiB + 1);
}

TEST(Units, ParseBytesRejectsGarbage)
{
    // NaN and infinity: strtod accepts them, a byte count must not.
    for (const char *bad : {"nan", "NaN", "nanG", "inf", "infinity", "1e400"})
        EXPECT_THROW(parseBytes(bad), FatalError) << bad;
    // Negative values, including a signed zero.
    for (const char *bad : {"-1", "-0", "-2G"})
        EXPECT_THROW(parseBytes(bad), FatalError) << bad;
    // Values that overflow 64 bits once the suffix scales them.
    for (const char *bad : {"17179869184G", "2e19", "1e30K"})
        EXPECT_THROW(parseBytes(bad), FatalError) << bad;
    // No number, an unknown suffix, or trailing junk.
    for (const char *bad : {"", "G", "abc", "12T", "12Gx", "12 G", "14G "})
        EXPECT_THROW(parseBytes(bad), FatalError) << bad;
}

TEST(Units, ParseCountAcceptsDigits)
{
    EXPECT_EQ(parseCount("0", "--n"), 0u);
    EXPECT_EQ(parseCount("64", "--n"), 64u);
    EXPECT_EQ(parseCount("007", "--n"), 7u);
    EXPECT_EQ(parseCount("18446744073709551615", "--n"), ~0ull);
    // The bounds are inclusive.
    EXPECT_EQ(parseCount("1", "--n", 1, 8), 1u);
    EXPECT_EQ(parseCount("8", "--n", 1, 8), 8u);
}

TEST(Units, ParseCountRejectsGarbage)
{
    // Signs, including the ones strtoull silently accepts or wraps.
    for (const char *bad : {"-5", "-0", "+5", "-18446744073709551615"})
        EXPECT_THROW(parseCount(bad, "--n"), FatalError) << bad;
    // Values that overflow 64 bits.
    for (const char *bad : {"18446744073709551616", "99999999999999999999"})
        EXPECT_THROW(parseCount(bad, "--n"), FatalError) << bad;
    // No digits, trailing junk, spaces, suffixes, fractions, exponents.
    for (const char *bad :
         {"", "abc", "64x", "12 ", " 12", "1.5", "1e3", "0x10", "4K"})
        EXPECT_THROW(parseCount(bad, "--n"), FatalError) << bad;
}

TEST(Units, ParseCountEnforcesRange)
{
    EXPECT_THROW(parseCount("0", "--n", 1, 8), FatalError);
    EXPECT_THROW(parseCount("9", "--n", 1, 8), FatalError);
    // The message names the option, the range and the value.
    try {
        parseCount("0", "--iters", 1, 8);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()), "--iters must be in [1, 8], got 0");
    }
    try {
        parseCount("abc", "--iters");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "--iters needs a whole number, got 'abc'");
    }
}

// --- percentile: the sample at rank round(p * (n - 1)) ---

TEST(Percentile, PicksTheSampleAtTheRoundedRank)
{
    // Unsorted input; ranks 0..4 hold 1, 2, 3, 4, 5.
    std::vector<double> v = {4.0, 1.0, 5.0, 3.0, 2.0};
    EXPECT_EQ(percentile(v, 0.0), 1.0);
    EXPECT_EQ(percentile(v, 0.5), 3.0);
    EXPECT_EQ(percentile(v, 0.6), 3.0);  // rank 2.4 rounds down
    EXPECT_EQ(percentile(v, 0.65), 4.0); // rank 2.6 rounds up
    EXPECT_EQ(percentile(v, 0.99), 5.0); // rank 3.96
    EXPECT_EQ(percentile(v, 1.0), 5.0);
    // An even count takes the upper middle sample, not a mean.
    EXPECT_EQ(percentile({10.0, 40.0, 20.0, 30.0}, 0.5), 30.0);
    EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
    EXPECT_EQ(percentile({}, 0.5), 0.0);
}

// --- JSON numbers: integer accessors clamp instead of overflowing ---

namespace
{

json::Value
number(const char *text)
{
    json::Value v;
    EXPECT_TRUE(json::parse(text, v)) << text;
    return v;
}

} // namespace

TEST(Json, IntegerAccessorsClampOutOfRangeNumbers)
{
    constexpr auto i64max = std::numeric_limits<std::int64_t>::max();
    constexpr auto i64min = std::numeric_limits<std::int64_t>::min();
    constexpr auto u64max = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(number("1e30").asI64(), i64max);
    EXPECT_EQ(number("-1e30").asI64(), i64min);
    EXPECT_EQ(number("1e30").asU64(), u64max);
    EXPECT_EQ(number("-1e30").asU64(), 0u);
    // 2^63 is one past the largest int64 but fits a uint64.
    EXPECT_EQ(number("9223372036854775808").asI64(), i64max);
    EXPECT_EQ(number("9223372036854775808").asU64(),
              std::uint64_t{1} << 63);
    EXPECT_EQ(number("-1").asI64(), -1);
    EXPECT_EQ(number("-1").asU64(), 0u);
}

TEST(Json, IntegerAccessorsKeepInRangeNumbers)
{
    EXPECT_EQ(number("4611686018427387904").asI64(), std::int64_t{1} << 62);
    EXPECT_EQ(number("-9223372036854775808").asI64(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(number("12345").asU64(), 12345u);
    EXPECT_EQ(number("2.9").asI64(), 2);
    EXPECT_EQ(number("-2.9").asI64(), -2);
    EXPECT_EQ(number("\"7\"").asI64(), 0); // not a number
}
