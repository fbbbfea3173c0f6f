/**
 * @file
 * DeviceArray determinism and aggregation.
 *
 * The sharded driver must produce per-device MetricsSnapshots that
 * are bit-identical to running the same jobs sequentially, for any
 * thread count (the claim order may differ; the results may not).
 */

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "sim/cell_cache.hh"
#include "sim/device_array.hh"
#include "sim/estimator.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace
{

std::vector<DeviceJob>
makeJobs(unsigned devices, SchedulerKind kind = SchedulerKind::SPK3)
{
    std::vector<DeviceJob> jobs;
    for (unsigned d = 0; d < devices; ++d) {
        DeviceJob job;
        job.cfg = SsdConfig::withChips(8);
        job.cfg.geometry.blocksPerPlane = 16;
        job.cfg.geometry.pagesPerBlock = 32;
        job.cfg.scheduler = kind;
        job.cfg.seed = 7000 + d;

        SyntheticConfig wl;
        wl.numIos = 150;
        wl.spanBytes = job.cfg.geometry.totalPages() *
                       job.cfg.geometry.pageSizeBytes / 2;
        wl.seed = 31 + d;
        job.trace = generateSynthetic(wl);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/**
 * Device @p d of the aggregate pin: every member holds a value that
 * is distinct across members and across devices, doubles are
 * non-dyadic so any change in summation order or expression shows in
 * the low bits, and the two streams swap order on odd devices.
 */
MetricsSnapshot
pinDevice(unsigned d)
{
    const double k = d + 1.0;
    const std::uint64_t u = d + 1;
    MetricsSnapshot m;
    m.scheduler = d == 2 ? "VAS" : "SPK3";
    m.makespan = 900000007ull + 104729 * u * u;
    m.deviceActiveTime = 700000001ull + 7919 * u;
    m.iosCompleted = 1009 * u + 3 * d * d;
    m.bytesRead = 4096ull * (311 + 97 * d);
    m.bytesWritten = 4096ull * (523 - 61 * d);
    m.bandwidthKBps = 0.1 * k + 0.2 / k;
    m.iops = 1.0 / (3.0 * k) + 977.0;
    m.avgLatencyNs = 12345.0 / 7.0 + 11.0 * k / 3.0;
    m.p50LatencyNs = 40009 + 17 * u;
    m.p95LatencyNs = 90001 + 31 * u * u;
    m.p99LatencyNs = 150001 + 101 * u * u * u;
    m.maxLatencyNs = 1300021 - 4099 * u;
    m.avgReadLatencyNs = 5555.0 / 9.0 * k + 0.3;
    m.avgWriteLatencyNs = 77777.0 / 13.0 - k / 7.0;
    m.queueStallTime = 3001 + 211 * u;
    m.chipUtilizationPct = 100.0 / (3.0 + k);
    m.flashLevelUtilizationPct = 100.0 * k / 17.0;
    m.interChipIdlenessPct = 7.0 + 1.0 / (11.0 * k);
    m.intraChipIdlenessPct = 33.0 - k / 19.0;
    m.flpPct = {10.0 / (7.0 * k), 20.0 / 3.0 + k / 11.0,
                30.0 - 1.0 / (13.0 * k), 40.0 + k / 23.0};
    m.transactions = 8009 + 37 * u;
    m.requestsServed = 12011 + 389 * u * u;
    m.execBusPct = 12.5 / (k + 0.1);
    m.execContentionPct = 1.0 / 3.0 + k / 29.0;
    m.execCellPct = 41.0 - k / 31.0;
    m.execIdlePct = 19.0 + 1.0 / (37.0 * k);
    m.staleRetries = 41 + u;
    m.gcBatches = 43 + 2 * u;
    m.pagesMigrated = 47 + 3 * u;
    m.readRetries = 53 + 5 * u;
    for (std::size_t i = 0; i < m.readRetriesByStep.size(); ++i)
        m.readRetriesByStep[i] = 59 + 7 * i + 11 * u;
    m.uncorrectableReads = 61 + 13 * u;
    m.programFailures = 67 + 17 * u;
    m.programRemaps = 71 + 19 * u;
    m.eraseFailures = 73 + 23 * u;
    m.blocksRetiredWear = 79 + 29 * u;
    m.blocksRetiredProgram = 83 + 31 * u;
    m.blocksRetiredErase = 89 + 37 * u;
    m.failedIos = 97 + 41 * u;
    m.degradedDies = 101 + 43 * u;
    m.parityUpdates = 103 + 47 * u;
    m.parityFullStripeCloses = 107 + 53 * u;
    m.parityPartialCloses = 109 + 59 * u;
    m.parityRmwReads = 113 + 61 * u;
    m.reconstructedReads = 127 + 67 * u;
    m.reconstructionReads = 131 + 71 * u;
    m.rebuildPagesTotal = 137 + 73 * u;
    m.rebuildPagesRebuilt = 139 + 79 * u;
    m.softDecodeInvocations = 149 + 83 * u;
    m.softDecodeFailures = 151 + 89 * u;
    m.softDecodeBusyTime = 157 + 97 * u;
    m.softDecodeStallTime = 163 + 101 * u;
    m.gcReadFailures = 167 + 103 * u;
    for (const std::string name : {"alpha", "beta"}) {
        const std::uint64_t v = name == "alpha" ? 1 : 2;
        StreamMetrics s;
        s.name = name;
        s.iosSubmitted = 401 * v + 13 * u;
        s.iosCompleted = 397 * v + 11 * u;
        s.bytesRead = 8192 * (v + 3 * u);
        s.bytesWritten = 8192 * (5 * v + u);
        s.queueStallTime = 1201 * v + 7 * u;
        s.bandwidthKBps = 0.7 * v / k + 0.1;
        s.iops = 1.0 / (7.0 * v) + k / 3.0;
        s.avgLatencyNs = 4321.0 / (v + k) + 0.2;
        s.p99LatencyNs = 250013 * v + 1999 * u;
        s.maxLatencyNs = 600011 * v - 3001 * u;
        m.streams.push_back(s);
    }
    if (d % 2 == 1)
        std::swap(m.streams[0], m.streams[1]);
    return m;
}

/** FNV-1a over a byte string. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : bytes) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

TEST(DeviceArray, ShardedMatchesSequentialBitForBit)
{
    const auto jobs = makeJobs(8);

    DeviceArray sequential(jobs);
    sequential.run(1);

    for (const unsigned threads : {2u, 4u, 8u}) {
        DeviceArray sharded(jobs);
        sharded.run(threads);
        ASSERT_EQ(sharded.results().size(), 8u);
        for (std::size_t d = 0; d < 8; ++d) {
            EXPECT_EQ(sequential.results()[d], sharded.results()[d])
                << "device " << d << " diverged at " << threads
                << " threads";
        }
    }
}

TEST(DeviceArray, RepeatedShardedRunsAreStable)
{
    const auto jobs = makeJobs(4);
    DeviceArray first(jobs);
    first.run(4);
    DeviceArray second(jobs);
    second.run(4);
    for (std::size_t d = 0; d < 4; ++d)
        EXPECT_EQ(first.results()[d], second.results()[d]);
}

TEST(DeviceArray, DistinctSeedsProduceDistinctDevices)
{
    // Guard against accidentally sharing a workload or RNG stream:
    // different seeds must not collapse to identical snapshots.
    const auto jobs = makeJobs(3);
    DeviceArray array(jobs);
    array.run(3);
    EXPECT_FALSE(array.results()[0] == array.results()[1]);
    EXPECT_FALSE(array.results()[1] == array.results()[2]);
}

TEST(DeviceArray, ThreadCountClampsToJobCount)
{
    const auto jobs = makeJobs(2);
    DeviceArray reference(jobs);
    reference.run(1);
    DeviceArray oversubscribed(jobs);
    oversubscribed.run(64); // clamped to 2 workers
    for (std::size_t d = 0; d < 2; ++d)
        EXPECT_EQ(reference.results()[d], oversubscribed.results()[d]);
}

TEST(DeviceArray, AggregateSumsCountersAndWeightsMeans)
{
    const auto jobs = makeJobs(4);
    DeviceArray array(jobs);
    array.run(4);
    const auto fleet = DeviceArray::aggregate(array.results());

    std::uint64_t ios = 0;
    std::uint64_t bytes = 0;
    std::uint64_t txns = 0;
    double bw = 0.0;
    Tick makespan = 0;
    Tick max_lat = 0;
    for (const auto &m : array.results()) {
        ios += m.iosCompleted;
        bytes += m.bytesRead + m.bytesWritten;
        txns += m.transactions;
        bw += m.bandwidthKBps;
        makespan = std::max(makespan, m.makespan);
        max_lat = std::max(max_lat, m.maxLatencyNs);
    }
    EXPECT_EQ(fleet.iosCompleted, ios);
    EXPECT_EQ(fleet.bytesRead + fleet.bytesWritten, bytes);
    EXPECT_EQ(fleet.transactions, txns);
    EXPECT_DOUBLE_EQ(fleet.bandwidthKBps, bw);
    EXPECT_EQ(fleet.makespan, makespan);
    EXPECT_EQ(fleet.maxLatencyNs, max_lat);
    EXPECT_EQ(fleet.scheduler, "SPK3");

    // Weighted means stay inside the per-device envelope.
    double lo = 1e300;
    double hi = 0.0;
    for (const auto &m : array.results()) {
        lo = std::min(lo, m.avgLatencyNs);
        hi = std::max(hi, m.avgLatencyNs);
    }
    EXPECT_GE(fleet.avgLatencyNs, lo);
    EXPECT_LE(fleet.avgLatencyNs, hi);
}

TEST(DeviceArray, AggregateOfEveryFieldIsPinned)
{
    // Pins the fleet merge of every member, stream slices included,
    // through the exact bytes of the cache payload: a changed merge
    // rule, summation order or floating-point expression anywhere in
    // aggregate() moves this digest.
    std::vector<MetricsSnapshot> devices;
    for (unsigned d = 0; d < 3; ++d)
        devices.push_back(pinDevice(d));
    const MetricsSnapshot fleet = DeviceArray::aggregate(devices);
    EXPECT_EQ(fleet.scheduler, "mixed");
    ASSERT_EQ(fleet.streams.size(), 2u);
    EXPECT_EQ(fleet.streams[0].name, "alpha");
    EXPECT_EQ(fleet.streams[1].name, "beta");
    EXPECT_EQ(fnv1a(CellCache::serialize(fleet)), 0xd4b3ba12527a7202ull)
        << std::hex << fnv1a(CellCache::serialize(fleet));
}

TEST(DeviceArray, MixedSchedulersReportMixed)
{
    auto jobs = makeJobs(2);
    jobs[1].cfg.scheduler = SchedulerKind::VAS;
    DeviceArray array(std::move(jobs));
    array.run(2);
    EXPECT_EQ(DeviceArray::aggregate(array.results()).scheduler,
              "mixed");
}

TEST(DeviceArray, ZeroJobsRunsToEmptyResults)
{
    // A fully filtered-out sweep expands to zero jobs; that must be
    // a no-op, not an error.
    DeviceArray array(std::vector<DeviceJob>{});
    EXPECT_TRUE(array.run(4).empty());
    EXPECT_EQ(array.completedCount(), 0u);
    EXPECT_TRUE(DeviceArray::aggregate(array.results()) ==
                MetricsSnapshot{});
}

TEST(DeviceArray, ProgressCallbackFiresOncePerDevice)
{
    const auto jobs = makeJobs(6);
    DeviceArray reference(jobs);
    reference.run(1);

    DeviceArray array(jobs);
    std::vector<int> seen(jobs.size(), 0);
    std::size_t calls = 0;
    DeviceArrayHooks hooks;
    // DeviceArray serializes the callback, so plain counters suffice.
    // Compare against an independent sequential run: the callback
    // must hand over the fully-written snapshot of its device.
    hooks.onDeviceDone = [&](std::size_t index,
                             const MetricsSnapshot &m) {
        ++calls;
        ++seen[index];
        EXPECT_TRUE(m == reference.results()[index])
            << "callback for device " << index
            << " saw a snapshot differing from the sequential run";
    };
    array.run(3, hooks);

    EXPECT_EQ(calls, jobs.size());
    for (std::size_t d = 0; d < jobs.size(); ++d) {
        EXPECT_EQ(seen[d], 1) << "device " << d;
        EXPECT_TRUE(array.completed(d));
    }
    EXPECT_EQ(array.completedCount(), jobs.size());
}

TEST(DeviceArray, CancellationKeepsCompletedResultsValid)
{
    const auto jobs = makeJobs(8);
    DeviceArray reference(jobs);
    reference.run(1);

    constexpr unsigned kThreads = 2;
    constexpr std::size_t kStopAfter = 3;
    std::atomic<bool> stop{false};
    std::size_t done = 0;
    DeviceArrayHooks hooks;
    hooks.stop = &stop;
    hooks.onDeviceDone = [&](std::size_t, const MetricsSnapshot &) {
        if (++done == kStopAfter)
            stop.store(true, std::memory_order_relaxed);
    };

    DeviceArray cancelled(jobs);
    cancelled.run(kThreads, hooks);

    // Workers stop claiming once the flag is set; devices already in
    // flight still finish.
    EXPECT_GE(cancelled.completedCount(), kStopAfter);
    EXPECT_LE(cancelled.completedCount(), kStopAfter + kThreads - 1);
    EXPECT_LT(cancelled.completedCount(), jobs.size());

    for (std::size_t d = 0; d < jobs.size(); ++d) {
        if (cancelled.completed(d)) {
            EXPECT_EQ(cancelled.results()[d], reference.results()[d])
                << "completed device " << d
                << " diverged under cancellation";
        } else {
            EXPECT_TRUE(cancelled.results()[d] == MetricsSnapshot{})
                << "uncompleted device " << d
                << " should hold the default snapshot";
        }
    }
}

TEST(DeviceArray, CancellationBeforeStartRunsNothing)
{
    const auto jobs = makeJobs(2);
    std::atomic<bool> stop{true};
    DeviceArrayHooks hooks;
    hooks.stop = &stop;
    DeviceArray array(jobs);
    array.run(2, hooks);
    EXPECT_EQ(array.completedCount(), 0u);
}

TEST(DeviceArray, RandomShuffledOrdersAreBitIdentical)
{
    // The cell-order policy redirects which cell a worker claims
    // next; results are indexed by cell, so ANY permutation must be
    // bit-identical to expansion order. Exercise several seeded
    // random shuffles at several thread counts.
    auto jobs = makeJobs(6);
    jobs[1].fidelity = Fidelity::Fast;
    jobs[4].fidelity = Fidelity::Fast;

    DeviceArrayHooks expansion;
    expansion.order = expansionOrder();
    DeviceArray reference(jobs);
    reference.run(1, expansion);

    std::mt19937_64 rng(1234);
    for (const unsigned threads : {1u, 2u, 4u}) {
        std::vector<std::size_t> perm(jobs.size());
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        std::shuffle(perm.begin(), perm.end(), rng);

        DeviceArrayHooks hooks;
        hooks.order = [perm](const std::vector<DeviceJob> &) {
            return perm;
        };
        DeviceArray shuffled(jobs);
        shuffled.run(threads, hooks);
        ASSERT_EQ(shuffled.results().size(), jobs.size());
        for (std::size_t d = 0; d < jobs.size(); ++d) {
            EXPECT_EQ(reference.results()[d], shuffled.results()[d])
                << "cell " << d << " diverged under a shuffled "
                << "claim order at " << threads << " threads";
        }
    }
}

TEST(DeviceArray, CostGuidedDefaultMatchesExpansionOrderResults)
{
    // The default policy (longest-job-first by the analytic
    // estimator) must also be results-invariant, and its cost model
    // must rank a Fast cell below an otherwise-identical Exact cell.
    auto jobs = makeJobs(4);
    jobs[2].fidelity = Fidelity::Fast;

    DeviceArrayHooks expansion;
    expansion.order = expansionOrder();
    DeviceArray reference(jobs);
    reference.run(1, expansion);

    DeviceArray cost_guided(jobs);
    cost_guided.run(2); // hooks default to costGuidedOrder()
    for (std::size_t d = 0; d < jobs.size(); ++d)
        EXPECT_EQ(reference.results()[d], cost_guided.results()[d]);

    const auto order = costGuidedOrder()(jobs);
    ASSERT_EQ(order.size(), jobs.size());
    // The lone Fast cell is the cheapest, so it is claimed last.
    EXPECT_EQ(order.back(), 2u);

    DeviceJob heavy = jobs[0];
    heavy.preconditionGc = true;
    EXPECT_GT(estimateJobCost(heavy), estimateJobCost(jobs[0]));
}

TEST(DeviceArray, NonPermutationOrderPolicyDies)
{
    const auto jobs = makeJobs(2);
    DeviceArrayHooks short_hooks;
    short_hooks.order = [](const std::vector<DeviceJob> &) {
        return std::vector<std::size_t>{0};
    };
    DeviceArray a(jobs);
    EXPECT_DEATH(a.run(1, short_hooks), "cell-order policy");

    DeviceArrayHooks dup_hooks;
    dup_hooks.order = [](const std::vector<DeviceJob> &) {
        return std::vector<std::size_t>{1, 1};
    };
    DeviceArray b(jobs);
    EXPECT_DEATH(b.run(1, dup_hooks), "not a permutation");
}

TEST(DeviceArray, RunRecordsPerCellAndPerWorkerSeconds)
{
    const auto jobs = makeJobs(3);
    DeviceArray array(jobs);
    array.run(2);
    ASSERT_EQ(array.cellSeconds().size(), jobs.size());
    double total = 0.0;
    for (std::size_t d = 0; d < jobs.size(); ++d) {
        EXPECT_GT(array.cellSeconds()[d], 0.0) << "cell " << d;
        total += array.cellSeconds()[d];
    }
    ASSERT_EQ(array.threadBusySeconds().size(), 2u);
    double busy = 0.0;
    for (const double b : array.threadBusySeconds())
        busy += b;
    // Worker busy time is exactly the sum of the cells it ran.
    EXPECT_NEAR(busy, total, 1e-9);
    EXPECT_GT(array.runWallSeconds(), 0.0);
}

TEST(DeviceArray, CapturesIoResultsOnRequest)
{
    auto jobs = makeJobs(2);
    jobs[0].captureIoResults = true;
    DeviceArray array(std::move(jobs));
    array.run(2);
    const auto &series = array.ioResults(0);
    ASSERT_EQ(series.size(), array.results()[0].iosCompleted);
    for (const auto &io : series)
        EXPECT_GE(io.completed, io.arrival);
    EXPECT_TRUE(array.ioResults(1).empty());
}

} // namespace
} // namespace spk
