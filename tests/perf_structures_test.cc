/**
 * @file
 * Tests for the capuspeed hot-path structures: the FIFO ThreadPool and
 * its worker bound, CostModel answers independent of call history, the
 * indexed AccessTracker queries against brute-force scans, and the
 * one-walk victim search and chunk tags against the merge-join search
 * they replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/capuchin_policy.hh"
#include "exec/cost_model.hh"
#include "exec/executor.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "policy/vdnn_policy.hh"
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
    EXPECT_EQ(serial, run(ThreadPool::defaultThreads() + 1));
}

TEST(ThreadPool, OneWorkerRunsInSubmissionOrder)
{
    // Hold the only worker on a first task while eight more queue up, so
    // the order they run in is the pool's pick order alone.
    ThreadPool pool(1);
    std::promise<void> holding, release;
    auto held = pool.submit([&holding, done = release.get_future()] {
        holding.set_value();
        done.wait();
    });
    holding.get_future().wait();
    std::vector<int> order;
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 8; ++i)
        futs.push_back(pool.submit([&order, i] { order.push_back(i); }));
    release.set_value();
    held.get();
    for (auto &f : futs)
        f.get();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPool, WorkersCappedAtHardwareThreads)
{
    const unsigned hw = ThreadPool::defaultThreads();
    EXPECT_EQ(ThreadPool(hw + 1).threadCount(), hw);
    EXPECT_EQ(ThreadPool(0).threadCount(), hw);
    EXPECT_EQ(ThreadPool(1).threadCount(), 1u);
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

// ------------------------------------- one-walk victim search and chunk tags

namespace
{

/**
 * The contiguous-victim search as it was before chunks carried tags: gather
 * every live (handle, tensor) pair, sort them, and merge-join them with the
 * address-ordered arena snapshot. Pending frees come from the deferred-free
 * queue rather than the chunks' marks.
 */
std::vector<TensorId>
mergeJoinVictims(Executor &ex, std::uint64_t bytes)
{
    const Graph &g = ex.graph();
    std::vector<std::pair<MemHandle, TensorId>> owners;
    for (std::size_t i = 0; i < g.numTensors(); ++i) {
        auto id = static_cast<TensorId>(i);
        if (ex.tensorState(id).gpuHandle)
            owners.emplace_back(*ex.tensorState(id).gpuHandle, id);
    }
    std::sort(owners.begin(), owners.end());
    std::vector<MemHandle> pending;
    for (const auto &[when, handle] : ex.memory().pendingFrees())
        pending.push_back(handle);
    std::sort(pending.begin(), pending.end());

    std::size_t next_owner = 0;
    auto owner_of = [&](MemHandle offset) {
        while (next_owner < owners.size() &&
               owners[next_owner].first < offset)
            ++next_owner;
        return next_owner < owners.size() &&
                       owners[next_owner].first == offset
                   ? owners[next_owner].second
                   : kInvalidTensor;
    };
    auto chunks = ex.memory().gpu().snapshot();
    std::vector<TensorId> victim(chunks.size(), kInvalidTensor);
    auto blocks = [&](std::size_t i) {
        if (chunks[i].free || std::binary_search(pending.begin(),
                                                 pending.end(),
                                                 chunks[i].offset))
            return false;
        TensorId tid = owner_of(chunks[i].offset);
        if (tid == kInvalidTensor ||
            g.tensor(tid).kind == TensorKind::Weight)
            return true;
        if (ex.isPinned(tid) || ex.status(tid) != TensorStatus::In)
            return true;
        victim[i] = tid;
        return false;
    };

    std::uint64_t best_cost = ~0ull;
    std::size_t best_lo = 0;
    std::size_t best_hi = 0;
    std::size_t lo = 0;
    std::uint64_t span = 0;
    std::uint64_t cost = 0;
    for (std::size_t hi = 0; hi < chunks.size(); ++hi) {
        if (blocks(hi)) {
            lo = hi + 1;
            span = 0;
            cost = 0;
            continue;
        }
        span += chunks[hi].size;
        if (victim[hi] != kInvalidTensor)
            cost += chunks[hi].size;
        while (lo < hi && span - chunks[lo].size >= bytes) {
            span -= chunks[lo].size;
            if (victim[lo] != kInvalidTensor)
                cost -= chunks[lo].size;
            ++lo;
        }
        if (span >= bytes && cost < best_cost) {
            best_cost = cost;
            best_lo = lo;
            best_hi = hi + 1;
        }
    }
    std::vector<TensorId> best;
    for (std::size_t i = best_lo; i < best_hi; ++i) {
        if (victim[i] != kInvalidTensor)
            best.push_back(victim[i]);
    }
    return best;
}

/** What one audited session compared. */
struct AuditCounts
{
    std::size_t failureComparisons = 0; ///< at allocation failures
    std::size_t opComparisons = 0;      ///< after sampled ops
    std::size_t pendingChunks = 0;      ///< pending marks checked
};

/**
 * Delegates every hook to `inner`. At each allocation failure it first
 * compares the executor's victim search with mergeJoinVictims for the
 * request, twice it and half it, and checks every chunk's owner tag and
 * pending mark against the tensors' handles and the deferred-free queue.
 * A failure only reaches the policy once every pending free has been
 * applied, so every 16th op it also does both with fixed request sizes,
 * while kernels' deferred frees are still in flight.
 */
class VictimAuditPolicy : public MemoryPolicy
{
  public:
    VictimAuditPolicy(std::unique_ptr<MemoryPolicy> inner,
                      AuditCounts &counts)
        : inner_(std::move(inner)), counts_(counts)
    {
    }

    std::string name() const override { return inner_->name(); }

    void
    attach(const Graph &graph, const std::vector<OpId> &schedule,
           const ExecConfig &config) override
    {
        inner_->attach(graph, schedule, config);
    }

    void
    beginIteration(ExecContext &ctx) override
    {
        inner_->beginIteration(ctx);
    }

    void
    onShapeClass(std::uint64_t cls) override
    {
        inner_->onShapeClass(cls);
    }

    void
    onAccess(ExecContext &ctx, const AccessEvent &event) override
    {
        inner_->onAccess(ctx, event);
    }

    void
    afterOp(ExecContext &ctx, OpId op, Tick op_end) override
    {
        if (++ops_ % 16 == 0) {
            auto &ex = dynamic_cast<Executor &>(ctx);
            counts_.pendingChunks += auditTags(ex);
            for (std::uint64_t b : {64_MiB, 512_MiB, 2_GiB}) {
                compare(ex, b);
                ++counts_.opComparisons;
            }
        }
        inner_->afterOp(ctx, op, op_end);
    }

    bool
    onAllocFailure(ExecContext &ctx, std::uint64_t bytes) override
    {
        auto &ex = dynamic_cast<Executor &>(ctx);
        counts_.pendingChunks += auditTags(ex);
        for (std::uint64_t b : {bytes, 2 * bytes, bytes / 2}) {
            compare(ex, b);
            ++counts_.failureComparisons;
        }
        return inner_->onAllocFailure(ctx, bytes);
    }

    void
    onBackAccessStall(ExecContext &ctx, TensorId id, Tick stall) override
    {
        inner_->onBackAccessStall(ctx, id, stall);
    }

    void
    endIteration(ExecContext &ctx, const IterationStats &stats) override
    {
        inner_->endIteration(ctx, stats);
    }

    bool stableForReplay() const override { return inner_->stableForReplay(); }

    bool
    onIterationAbort(ExecContext &ctx) override
    {
        return inner_->onIterationAbort(ctx);
    }

    bool graphAgnostic() const override { return inner_->graphAgnostic(); }

  private:
    static void
    compare(Executor &ex, std::uint64_t bytes)
    {
        EXPECT_EQ(ex.victimsForContiguous(bytes), mergeJoinVictims(ex, bytes))
            << "request " << bytes << " in iteration " << ex.iteration();
    }

    /** Checks every chunk's tags; returns how many carry a pending mark. */
    static std::size_t
    auditTags(Executor &ex)
    {
        std::map<MemHandle, TensorId> owner;
        for (std::size_t i = 0; i < ex.graph().numTensors(); ++i) {
            const auto &handle = ex.tensorState(static_cast<TensorId>(i))
                                     .gpuHandle;
            if (handle) {
                EXPECT_TRUE(
                    owner.emplace(*handle, static_cast<TensorId>(i)).second)
                    << "two tensors hold chunk " << *handle;
            }
        }
        std::map<MemHandle, int> pending;
        for (const auto &[when, handle] : ex.memory().pendingFrees())
            ++pending[handle];
        std::size_t tagged = 0;
        std::size_t marked = 0;
        for (const BfcAllocator::Chunk &c : ex.memory().gpu()) {
            auto it = owner.find(c.offset);
            TensorId expect = it == owner.end() ? kInvalidTensor : it->second;
            EXPECT_EQ(c.owner, expect) << "chunk " << c.offset;
            auto p = pending.find(c.offset);
            int posts = p == pending.end() ? 0 : p->second;
            EXPECT_EQ(posts, c.pendingFree ? 1 : 0) << "chunk " << c.offset;
            tagged += c.owner != kInvalidTensor;
            marked += c.pendingFree;
        }
        EXPECT_EQ(tagged, owner.size()) << "a tensor holds no chunk start";
        EXPECT_EQ(marked, ex.memory().pendingFrees().size())
            << "a posted free names no chunk start";
        return marked;
    }

    std::unique_ptr<MemoryPolicy> inner_;
    AuditCounts &counts_;
    std::size_t ops_ = 0;
};

/** Run `iters` audited iterations of `kind`@`batch`. */
AuditCounts
auditVictimSearch(ModelKind kind, std::int64_t batch, int iters,
                  std::unique_ptr<MemoryPolicy> inner, bool expect_oom = false,
                  bool eager = false)
{
    setLogEnabled(false);
    ExecConfig config;
    config.eagerMode = eager;
    AuditCounts counts;
    Session session(buildModel(kind, batch), config,
                    std::make_unique<VictimAuditPolicy>(std::move(inner),
                                                        counts));
    auto r = session.run(iters);
    EXPECT_EQ(r.oom, expect_oom) << modelName(kind) << "@" << batch;
    return counts;
}

} // namespace

/**
 * The one-walk victim search answers exactly as the gather-sort-merge-join
 * search it replaced, at every allocation failure and after every 16th op
 * of the IncrementalPlan zoo cells, of a measured plus two guided
 * ResNet-152@400 iterations, of an eager cell and of a vDNN cell; there,
 * every chunk's owner tag and pending mark mirror the tensors' handles
 * and the deferred-free queue. The floors keep the comparison from
 * passing vacuously.
 */
TEST(VictimSearch, OneWalkMatchesMergeJoinAcrossZoo)
{
    struct Cell
    {
        ModelKind kind;
        std::int64_t batch;
    };
    const Cell cells[] = {
        {ModelKind::Vgg16, 260},       {ModelKind::ResNet50, 240},
        {ModelKind::ResNet152, 110},   {ModelKind::InceptionV3, 210},
        {ModelKind::InceptionV4, 120}, {ModelKind::DenseNet121, 200},
        {ModelKind::BertBase, 110},
    };
    AuditCounts total;
    auto add = [&](const AuditCounts &c) {
        total.failureComparisons += c.failureComparisons;
        total.opComparisons += c.opComparisons;
        total.pendingChunks += c.pendingChunks;
        return c;
    };
    for (const Cell &c : cells) {
        AuditCounts n = add(auditVictimSearch(c.kind, c.batch, 2,
                                              makeCapuchinPolicy()));
        EXPECT_GE(n.failureComparisons, 30u)
            << modelName(c.kind) << "@" << c.batch;
    }
    EXPECT_GE(add(auditVictimSearch(ModelKind::ResNet152, 400, 3,
                                    makeCapuchinPolicy()))
                  .failureComparisons,
              1600u);
    EXPECT_GE(add(auditVictimSearch(ModelKind::ResNet50, 160, 2,
                                    makeCapuchinPolicy(), false, true))
                  .failureComparisons,
              50u);
    // vDNN has no reactive path: conv-only vDNN raises OOM at its first
    // allocation failure on ResNet-152@200, so the cell audits that one.
    EXPECT_GE(add(auditVictimSearch(ModelKind::ResNet152, 200, 2,
                                    makeVdnnPolicy(VdnnPolicy::Mode::ConvOnly),
                                    true))
                  .failureComparisons,
              3u);
    EXPECT_GE(total.failureComparisons, 3000u);
    EXPECT_GE(total.opComparisons, 3500u);
    EXPECT_GE(total.pendingChunks, 50000u);
}
