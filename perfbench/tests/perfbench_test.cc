/**
 * @file
 * Tests for the benchmark's own logic: the seeded serve key stream, the
 * nearest-rank percentiles, the conserved self-time split, and the
 * fingerprint checker catching a perturbed tick or digest.
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "fingerprints.hh"
#include "percentile.hh"
#include "serve_keys.hh"
#include "span_trace.hh"

using namespace perfbench;

// --- serve key stream ---

TEST(ServeKeyStream, SameSeedSameStream)
{
    ServeKeyStream a(42, 3), b(42, 3);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next()) << "draw " << i;
}

TEST(ServeKeyStream, SeedAndClientChangeTheStream)
{
    ServeKeyStream base(42, 0), other_seed(43, 0), other_client(42, 1);
    int same_seed = 0, same_client = 0;
    for (int i = 0; i < 1000; ++i) {
        std::size_t k = base.next();
        same_seed += k == other_seed.next();
        same_client += k == other_client.next();
    }
    EXPECT_LT(same_seed, 500);
    EXPECT_LT(same_client, 500);
}

TEST(ServeKeyStream, SkewedTowardTheHeadAndCoversTheSpace)
{
    ServeKeyStream s(7, 0);
    const std::size_t n = serveKeySpace().size();
    std::vector<int> counts(n, 0);
    for (int i = 0; i < 20000; ++i) {
        std::size_t k = s.next();
        ASSERT_LT(k, n);
        ++counts[k];
    }
    EXPECT_GT(counts[0], counts[n / 2]);
    EXPECT_GT(counts[n / 2], 0);
    // Zipf(1): rank 0 is drawn 1 / H(n) of the time.
    double harmonic = 0;
    for (std::size_t r = 1; r <= n; ++r)
        harmonic += 1.0 / static_cast<double>(r);
    EXPECT_NEAR(counts[0] / 20000.0, 1.0 / harmonic, 0.02);
}

TEST(ServeKeyStream, KeysAreDistinct)
{
    std::set<std::string> tags;
    for (const ServeKeySpec &k : serveKeySpace())
        EXPECT_TRUE(tags.insert(k.tag()).second) << k.tag();
}

// --- percentiles ---

TEST(Percentile, EmptyIsUnresolved)
{
    Percentile p = nearestRank({}, 50);
    EXPECT_FALSE(p.resolved);
    EXPECT_EQ(p.samples, 0u);
    EXPECT_EQ(p.rank, 0u);
}

TEST(Percentile, SingleSample)
{
    Percentile p = nearestRank({3.5}, 99);
    EXPECT_EQ(p.rank, 1u);
    EXPECT_EQ(p.value, 3.5);
    EXPECT_EQ(p.beyond, 0u);
    EXPECT_FALSE(p.resolved);
}

TEST(Percentile, NearestRankIsExactNotInterpolated)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    Percentile p90 = nearestRank(v, 90);
    EXPECT_EQ(p90.rank, 90u);
    EXPECT_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.beyond, 10u);
    EXPECT_TRUE(p90.resolved);
    Percentile p50 = nearestRank(v, 50);
    EXPECT_EQ(p50.value, 50.0);
    // ceil(0.99 * 101) = 100 -> the 100th smallest, one sample beyond.
    v.push_back(101);
    Percentile p99 = nearestRank(v, 99);
    EXPECT_EQ(p99.rank, 100u);
    EXPECT_EQ(p99.value, 100.0);
    EXPECT_FALSE(p99.resolved);
}

TEST(Percentile, ExtremesAndBounds)
{
    std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(nearestRank(v, 0).value, 1.0);
    EXPECT_EQ(nearestRank(v, 100).value, 5.0);
    EXPECT_EQ(nearestRank(v, 100).beyond, 0u);
    EXPECT_THROW(nearestRank(v, 101), std::invalid_argument);
    EXPECT_THROW(nearestRank(v, -1), std::invalid_argument);
}

TEST(Percentile, ResolutionNeedsTenBeyond)
{
    EXPECT_EQ(samplesToResolve(50), 20u);
    EXPECT_EQ(samplesToResolve(90), 100u);
    EXPECT_EQ(samplesToResolve(99), 1000u);
    std::vector<double> v(99, 1.0);
    EXPECT_FALSE(nearestRank(v, 90).resolved);
    v.push_back(1.0);
    EXPECT_TRUE(nearestRank(v, 90).resolved);
    EXPECT_THROW(samplesToResolve(100), std::invalid_argument);
}

TEST(Percentile, DescribeHidesUnresolvedValues)
{
    Percentile p = nearestRank({1, 2, 3}, 90);
    std::string text = describe(p, "ms");
    EXPECT_NE(text.find("unresolved"), std::string::npos);
    EXPECT_EQ(text.find("ms"), std::string::npos);
}

TEST(Percentile, MedianOfAggregates)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

// --- conserved self-time split ---

namespace
{

SpanRecord
span(std::uint64_t id, std::uint64_t parent, Layer layer, std::int64_t s,
     std::int64_t e)
{
    SpanRecord r;
    r.id = id;
    r.parent = parent;
    r.layer = layer;
    r.startNs = s;
    r.endNs = e;
    return r;
}

} // namespace

TEST(SelfTime, NestedSpansSubtractChildren)
{
    // root [0, 10ms): exec [1, 6) containing models [2, 3); core [7, 9).
    std::vector<SpanRecord> spans = {
        span(1, 0, Layer::Other, 0, 10'000'000),
        span(2, 1, Layer::Exec, 1'000'000, 6'000'000),
        span(3, 2, Layer::Models, 2'000'000, 3'000'000),
        span(4, 1, Layer::Core, 7'000'000, 9'000'000),
    };
    LayerSplit s = splitSelfTime(spans, 1);
    EXPECT_DOUBLE_EQ(s.wallMs, 10.0);
    EXPECT_DOUBLE_EQ(s.selfMs[size_t(Layer::Exec)], 4.0);
    EXPECT_DOUBLE_EQ(s.selfMs[size_t(Layer::Models)], 1.0);
    EXPECT_DOUBLE_EQ(s.selfMs[size_t(Layer::Core)], 2.0);
    EXPECT_DOUBLE_EQ(s.selfMs[size_t(Layer::Other)], 3.0);
    EXPECT_NEAR(s.conservationErrorMs(), 0.0, 1e-12);
}

TEST(SelfTime, ConcurrentChildrenShareTheWall)
{
    // A pool span with two overlapping worker children on other threads:
    // [0,4) one child, [4,6) both, [6,8) one, [8,10) the pool itself.
    std::vector<SpanRecord> spans = {
        span(1, 0, Layer::Other, 0, 10'000'000),
        span(2, 1, Layer::Support, 0, 10'000'000),
        span(3, 2, Layer::Exec, 0, 6'000'000),
        span(4, 2, Layer::Serve, 4'000'000, 8'000'000),
    };
    LayerSplit s = splitSelfTime(spans, 1);
    EXPECT_DOUBLE_EQ(s.selfMs[size_t(Layer::Exec)], 4.0 + 1.0);
    EXPECT_DOUBLE_EQ(s.selfMs[size_t(Layer::Serve)], 1.0 + 2.0);
    EXPECT_DOUBLE_EQ(s.selfMs[size_t(Layer::Support)], 2.0);
    EXPECT_DOUBLE_EQ(s.selfMs[size_t(Layer::Other)], 0.0);
    EXPECT_NEAR(s.sumMs(), s.wallMs, 1e-9);
}

TEST(SelfTime, IgnoresSpansOutsideTheRoot)
{
    std::vector<SpanRecord> spans = {
        span(1, 0, Layer::Other, 0, 2'000'000),
        span(2, 1, Layer::Exec, 0, 1'000'000),
        span(9, 0, Layer::Serve, 0, 5'000'000), // another tree
    };
    LayerSplit s = splitSelfTime(spans, 1);
    EXPECT_DOUBLE_EQ(s.selfMs[size_t(Layer::Serve)], 0.0);
    EXPECT_DOUBLE_EQ(s.sumMs(), 2.0);
    EXPECT_EQ(s.spans, 2u);
}

TEST(SelfTime, RecordedSpansAcrossThreadsConserve)
{
    clearSpans();
    setTracing(true);
    std::uint64_t root = 0;
    {
        Span r(Layer::Other, "root");
        root = r.id();
        {
            Span e(Layer::Exec, "exec");
            Span m(Layer::Models, "models");
        }
        std::uint64_t parent = currentSpan();
        std::thread worker([parent] {
            Span c(Layer::Core, "core", parent);
            Span a(Layer::Analysis, "analysis");
        });
        worker.join();
    }
    setTracing(false);
    std::vector<SpanRecord> spans = collectSpans();
    LayerSplit s = splitSelfTime(spans, root);
    EXPECT_EQ(s.spans, 5u);
    EXPECT_GT(s.wallMs, 0.0);
    EXPECT_LE(s.conservationErrorMs(), 1e-9 * s.wallMs + 1e-6);
    clearSpans();
}

TEST(SelfTime, NothingRecordedWhileOff)
{
    clearSpans();
    setTracing(false);
    {
        Span s(Layer::Exec, "off");
        EXPECT_EQ(s.id(), 0u);
    }
    EXPECT_TRUE(collectSpans().empty());
}

// --- fingerprints ---

TEST(Fingerprints, PerturbedTickIsCaught)
{
    Fingerprints fp;
    std::string err;
    ASSERT_TRUE(fp.parse("train.iter.3.ticks 123456789\n"
                         "serve.resnet50@240/capuchin.digest "
                         "3dbc87c0d2a31977\n",
                         err))
        << err;
    EXPECT_TRUE(fp.check("train.iter.3.ticks", std::int64_t{123456789}));
    EXPECT_FALSE(fp.check("train.iter.3.ticks", std::int64_t{123456790}));
    EXPECT_EQ(fp.mismatches(), 1u);
}

TEST(Fingerprints, PerturbedDigestIsCaught)
{
    Fingerprints fp;
    std::string err;
    ASSERT_TRUE(fp.parse("serve.k.digest 3dbc87c0d2a31977\n", err));
    EXPECT_TRUE(fp.check("serve.k.digest", hex64(0x3dbc87c0d2a31977ull)));
    EXPECT_FALSE(fp.check("serve.k.digest", hex64(0x3dbc87c0d2a31976ull)));
    EXPECT_EQ(fp.mismatches(), 1u);
    ASSERT_EQ(fp.notes().size(), 1u);
    EXPECT_NE(fp.notes()[0].find("3dbc87c0d2a31976"), std::string::npos);
}

TEST(Fingerprints, MissingEntryIsAFailureUnlessRecording)
{
    Fingerprints fp;
    EXPECT_FALSE(fp.check("sweep.new", std::string("7")));
    fp.setRecording(true);
    EXPECT_TRUE(fp.check("sweep.other", std::string("7")));
    EXPECT_TRUE(fp.check("sweep.other", std::string("7")));
    // Recording still flags a name observed with two different values.
    EXPECT_FALSE(fp.check("sweep.other", std::string("8")));
    EXPECT_EQ(fp.mismatches(), 2u);
}

TEST(Fingerprints, DoublesCompareExactly)
{
    Fingerprints fp;
    fp.setRecording(true);
    EXPECT_TRUE(fp.checkDouble("fig", 0.1 + 0.2));
    fp.setRecording(false);
    EXPECT_TRUE(fp.checkDouble("fig", 0.1 + 0.2));
    EXPECT_FALSE(fp.checkDouble("fig", 0.3));
}

TEST(Fingerprints, RoundTripsAndRejectsMalformedLines)
{
    Fingerprints a;
    std::string err;
    ASSERT_TRUE(a.parse("# comment\nb 2\na 1\n\n", err));
    Fingerprints b;
    ASSERT_TRUE(b.parse(a.serialize(), err)) << err;
    EXPECT_EQ(b.expected("a"), "1");
    EXPECT_EQ(b.expected("b"), "2");
    Fingerprints c;
    EXPECT_FALSE(c.parse("a 1 extra\n", err));
    Fingerprints d;
    EXPECT_FALSE(d.parse("a 1\na 2\n", err));
    Fingerprints e;
    EXPECT_FALSE(e.parse("lonely\n", err));
}
