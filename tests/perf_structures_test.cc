/**
 * @file
 * Tests for the capuspeed hot-path structures: the work-stealing
 * ThreadPool, CostModel answers independent of call history, and the
 * indexed AccessTracker queries against brute-force scans.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/capuchin_policy.hh"
#include "exec/cost_model.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "sim/gpu_device.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

using namespace capu;

namespace
{

/** Deterministic xorshift64 for test workloads. */
struct XorShift
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

} // namespace

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, SubmitPropagatesResults)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; ++i)
        futs.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, ResultsIndependentOfThreadCount)
{
    // The determinism contract: tasks write index-addressed slots, so
    // any worker count produces the same output vector.
    auto run = [](unsigned threads) {
        std::vector<std::uint64_t> out(200);
        ThreadPool pool(threads);
        pool.forEachIndex(out.size(), [&](std::size_t i) {
            XorShift r;
            r.x += i;
            out[i] = r.next() ^ (i << 32);
        });
        return out;
    };
    auto serial = run(1);
    EXPECT_EQ(serial, run(2));
    EXPECT_EQ(serial, run(8));
}

TEST(ThreadPool, ForEachIndexCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(500);
    ThreadPool pool(4);
    pool.forEachIndex(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ExceptionPropagatesFromForEachIndex)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    EXPECT_THROW(pool.forEachIndex(32,
                                   [&](std::size_t i) {
                                       if (i == 7)
                                           throw std::runtime_error("boom");
                                       done.fetch_add(1);
                                   }),
                 std::runtime_error);
    // The non-throwing indices all still ran (the pool drains before
    // rethrowing).
    EXPECT_EQ(done.load(), 31);
}

TEST(ThreadPool, ExceptionPropagatesThroughSubmitFuture)
{
    ThreadPool pool(2);
    auto fut = pool.submit(
        []() -> int { throw std::logic_error("task failed"); });
    EXPECT_THROW(fut.get(), std::logic_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 300; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        // Destructor must complete all 300, not drop the queued tail.
    }
    EXPECT_EQ(ran.load(), 300);
}

TEST(ThreadPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ThreadPool pool; // default-constructed pool must come up and go down
    EXPECT_GE(pool.threadCount(), 1u);
}

// -------------------------------------------------- CostModel statelessness

TEST(CostModelMemo, MemoizedEqualsUnmemoizedOverZooOps)
{
    // A model that has already answered every zoo op under both
    // algorithms returns, per op, exactly what a fresh model returns: no
    // state carried between calls may change an answer.
    std::vector<Graph> zoo;
    for (ModelKind kind : allModels())
        zoo.push_back(buildModel(kind, 32));
    CostModel warm(GpuDeviceSpec::p100());
    for (const Graph &g : zoo) {
        for (const Operation &op : g.ops()) {
            warm.opDuration(op, true);
            warm.opDuration(op, false);
        }
    }
    for (const Graph &g : zoo) {
        for (const Operation &op : g.ops()) {
            for (bool fast : {true, false}) {
                CostModel fresh(GpuDeviceSpec::p100());
                EXPECT_EQ(warm.opDuration(op, fast),
                          fresh.opDuration(op, fast))
                    << g.name() << " op " << op.name << " fast " << fast;
            }
        }
    }
}

TEST(CostModelMemo, RepeatedCallsAreStable)
{
    CostModel cm(GpuDeviceSpec::p100());
    Graph g = buildModel(ModelKind::ResNet50, 64);
    for (const Operation &op : g.ops()) {
        Tick first = cm.opDuration(op);
        EXPECT_EQ(cm.opDuration(op), first);
    }
}

// -------------------------------------------------- indexed tracker queries

namespace
{

/** Brute-force oracle for AccessTracker::latestAtOrBefore. */
const AccessRecord *
bruteLatest(const std::vector<AccessRecord> &seq, Tick after, Tick before,
            Tick at_or_before, TensorId exclude)
{
    const AccessRecord *best = nullptr;
    for (const auto &rec : seq) {
        if (rec.tensor == exclude)
            continue;
        if (rec.time <= after || rec.time >= before ||
            rec.time > at_or_before)
            continue;
        if (best == nullptr || rec.time > best->time)
            best = &rec;
    }
    return best;
}

/** Brute-force oracle for AccessTracker::earliestWithin. */
const AccessRecord *
bruteEarliest(const std::vector<AccessRecord> &seq, Tick after, Tick before,
              TensorId exclude)
{
    const AccessRecord *best = nullptr;
    for (const auto &rec : seq) {
        if (rec.tensor == exclude)
            continue;
        if (rec.time <= after || rec.time >= before)
            continue;
        if (best == nullptr || rec.time < best->time)
            best = &rec;
    }
    return best;
}

AccessTracker
syntheticTracker(std::vector<AccessRecord> &seq_out)
{
    // Corrected timestamps can run locally backwards and repeat; build a
    // sequence that exercises both plus interleaved tensors.
    AccessTracker t;
    XorShift rng;
    Tick now = 100;
    for (int i = 0; i < 400; ++i) {
        AccessRecord rec;
        rec.tensor = static_cast<TensorId>(rng.next() % 12);
        rec.accessIndex = i;
        // Mostly forward, sometimes backward, frequent exact repeats.
        std::uint64_t step = rng.next() % 8;
        if (step == 0 && now > 20)
            now -= rng.next() % 15;
        else if (step > 2)
            now += rng.next() % 10;
        rec.time = now;
        t.record(rec);
        seq_out.push_back(rec);
    }
    return t;
}

} // namespace

TEST(TrackerIndex, LatestAtOrBeforeMatchesBruteForce)
{
    std::vector<AccessRecord> seq;
    AccessTracker t = syntheticTracker(seq);
    XorShift rng;
    for (int trial = 0; trial < 500; ++trial) {
        Tick after = rng.next() % 300;
        Tick before = after + rng.next() % 300;
        Tick cap = after + rng.next() % 320;
        TensorId exclude = static_cast<TensorId>(rng.next() % 14);
        const AccessRecord *want =
            bruteLatest(seq, after, before, cap, exclude);
        const AccessRecord *got =
            t.latestAtOrBefore(after, before, cap, exclude);
        if (want == nullptr) {
            EXPECT_EQ(got, nullptr) << "trial " << trial;
            continue;
        }
        ASSERT_NE(got, nullptr) << "trial " << trial;
        // Same time is required; among equal times the indexed query must
        // return the earliest sequence entry, as the old scan did.
        EXPECT_EQ(got->time, want->time) << "trial " << trial;
        EXPECT_EQ(got->accessIndex, want->accessIndex) << "trial " << trial;
        EXPECT_EQ(got->tensor, want->tensor) << "trial " << trial;
    }
}

TEST(TrackerIndex, EarliestWithinMatchesBruteForce)
{
    std::vector<AccessRecord> seq;
    AccessTracker t = syntheticTracker(seq);
    XorShift rng;
    for (int trial = 0; trial < 500; ++trial) {
        Tick after = rng.next() % 300;
        Tick before = after + rng.next() % 300;
        TensorId exclude = static_cast<TensorId>(rng.next() % 14);
        const AccessRecord *want =
            bruteEarliest(seq, after, before, exclude);
        const AccessRecord *got = t.earliestWithin(after, before, exclude);
        if (want == nullptr) {
            EXPECT_EQ(got, nullptr) << "trial " << trial;
            continue;
        }
        ASSERT_NE(got, nullptr) << "trial " << trial;
        EXPECT_EQ(got->time, want->time) << "trial " << trial;
        EXPECT_EQ(got->accessIndex, want->accessIndex) << "trial " << trial;
        EXPECT_EQ(got->tensor, want->tensor) << "trial " << trial;
    }
}

TEST(TrackerIndex, IndexInvalidatedByNewRecords)
{
    AccessTracker t;
    AccessRecord rec;
    rec.tensor = 1;
    rec.time = 50;
    t.record(rec);
    EXPECT_NE(t.earliestWithin(0, 100, kInvalidTensor), nullptr);
    rec.tensor = 2;
    rec.time = 10; // earlier than everything indexed so far
    t.record(rec);
    const AccessRecord *got = t.earliestWithin(0, 100, kInvalidTensor);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->tensor, 2u);
    t.reset();
    EXPECT_EQ(t.earliestWithin(0, 100, kInvalidTensor), nullptr);
}

// ----------------------------------------------- sim determinism under pool

TEST(PoolDeterminism, FaultFreeTimelinesBitIdenticalAcrossThreads)
{
    // The tentpole's contract: fanning identical sims across the pool
    // changes nothing about any sim's timeline.
    setLogEnabled(false);
    auto run_one = [] {
        Session session(buildModel(ModelKind::ResNet50, 48), ExecConfig{},
                        makeCapuchinPolicy());
        auto r = session.run(2);
        std::vector<Tick> timeline;
        for (const auto &it : r.iterations) {
            timeline.push_back(it.begin);
            timeline.push_back(it.end);
        }
        return timeline;
    };
    auto serial = run_one();
    std::vector<std::vector<Tick>> pooled(4);
    ThreadPool pool(4);
    pool.forEachIndex(pooled.size(),
                      [&](std::size_t i) { pooled[i] = run_one(); });
    for (const auto &tl : pooled)
        EXPECT_EQ(tl, serial);
}
