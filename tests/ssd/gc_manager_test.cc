/**
 * @file
 * Direct unit tests for the GC execution engine: per-batch
 * read -> program -> erase sequencing against the real controller.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ssd/gc_manager.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace
{

struct Fixture
{
    FlashGeometry geo;
    EventQueue events;
    Slab<MemoryRequest> arena;
    std::unique_ptr<FlashBackend> backend;
    std::unique_ptr<GcManager> gc;
    int retiredCalls = 0;

    /** Every completed request in completion order (op recorded). */
    std::vector<FlashOp> completedOps;

    explicit Fixture(std::uint32_t cap = kDefaultGcBatchesPerPlane)
    {
        geo.numChannels = 2;
        geo.chipsPerChannel = 1;
        geo.diesPerChip = 2;
        geo.planesPerDie = 2;
        geo.blocksPerPlane = 8;
        geo.pagesPerBlock = 4;

        backend = std::make_unique<FlashBackend>(
            events, geo, FlashTiming{}, 0, arena,
            [this](MemoryRequest *req) {
                completedOps.push_back(req->op);
                gc->onRequestFinished(req);
            });
        gc = std::make_unique<GcManager>(*backend, cap);
        gc->setBatchRetiredHook([this] { ++retiredCalls; });
    }

    GcBatch &
    makeBatch(GcBatchList &list, std::uint32_t migrations)
    {
        GcBatch &batch = list.append();
        batch.planeIdx = 0;
        batch.victimBlock = 0;
        // Victim pages in chip 0, block 0; destinations in block 1.
        PhysAddr base{};
        base.block = 0;
        batch.victimBasePpn = geo.compose(base);
        for (std::uint32_t i = 0; i < migrations; ++i) {
            PhysAddr from = base;
            from.page = i;
            PhysAddr to = base;
            to.block = 1;
            to.page = i;
            batch.migrations.push_back(GcMigration{
                i, geo.compose(from), geo.compose(to)});
        }
        return batch;
    }
};

TEST(GcManager, EmptyBatchGoesStraightToErase)
{
    Fixture f;
    GcBatchList batches;
    f.makeBatch(batches, 0);
    f.gc->launch(batches);
    EXPECT_FALSE(f.gc->idle());
    f.events.run();
    EXPECT_TRUE(f.gc->idle());
    ASSERT_EQ(f.completedOps.size(), 1u);
    EXPECT_EQ(f.completedOps[0], FlashOp::Erase);
    EXPECT_EQ(f.gc->stats().erases, 1u);
    EXPECT_EQ(f.gc->stats().migrationReads, 0u);
}

TEST(GcManager, MigrationsSequenceReadProgramErase)
{
    Fixture f;
    GcBatchList batches;
    f.makeBatch(batches, 3);
    f.gc->launch(batches);
    f.events.run();

    ASSERT_EQ(f.completedOps.size(), 7u); // 3 reads + 3 programs + 1 erase
    EXPECT_EQ(f.gc->stats().migrationReads, 3u);
    EXPECT_EQ(f.gc->stats().migrationPrograms, 3u);
    EXPECT_EQ(f.gc->stats().erases, 1u);

    // The erase is strictly last.
    EXPECT_EQ(f.completedOps.back(), FlashOp::Erase);
    // No program may complete before at least one read did.
    bool seen_read = false;
    for (const auto op : f.completedOps) {
        if (op == FlashOp::Read)
            seen_read = true;
        if (op == FlashOp::Program) {
            EXPECT_TRUE(seen_read);
        }
    }
}

TEST(GcManager, MultipleBatchesRunConcurrently)
{
    Fixture f;
    GcBatchList batches;
    f.makeBatch(batches, 2);
    // Second batch on the other chip (channel 1).
    GcBatch &other = f.makeBatch(batches, 2);
    for (auto &mig : other.migrations) {
        PhysAddr a = f.geo.decompose(mig.from);
        a.chip = 1;
        mig.from = f.geo.compose(a);
        PhysAddr b = f.geo.decompose(mig.to);
        b.chip = 1;
        mig.to = f.geo.compose(b);
    }
    {
        PhysAddr v = f.geo.decompose(other.victimBasePpn);
        v.chip = 1;
        other.victimBasePpn = f.geo.compose(v);
    }
    f.gc->launch(batches);
    f.events.run();
    EXPECT_TRUE(f.gc->idle());
    EXPECT_EQ(f.gc->stats().batches, 2u);
    EXPECT_EQ(f.gc->stats().erases, 2u);
    EXPECT_EQ(f.completedOps.size(), 2u * (2 + 2) + 2);
}

TEST(GcManager, UnknownCompletionDies)
{
    Fixture f;
    MemoryRequest bogus;
    EXPECT_DEATH(f.gc->onRequestFinished(&bogus), "unknown");
}

TEST(GcManager, CompletionForRetiredBatchDies)
{
    Fixture f;
    GcBatchList batches;
    f.makeBatch(batches, 1);
    f.gc->launch(batches);
    f.events.run();
    ASSERT_TRUE(f.gc->idle());
    // A GC request naming the batch slot that just retired.
    MemoryRequest stale;
    stale.owner = RequestOwner::Gc;
    stale.job = 0;
    EXPECT_DEATH(f.gc->onRequestFinished(&stale), "unknown or dead slot");
}

TEST(GcManager, RetirementHookFiresPerBatch)
{
    Fixture f;
    GcBatchList batches;
    f.makeBatch(batches, 2);
    f.gc->launch(batches);
    EXPECT_EQ(f.retiredCalls, 0);
    f.events.run();
    EXPECT_EQ(f.retiredCalls, 1);
}

TEST(GcManager, AdmissionBoundTracksLiveBatchesPerPlane)
{
    Fixture f(/*cap=*/2);
    GcBatchList batches;
    f.makeBatch(batches, 1);
    f.makeBatch(batches, 1);
    EXPECT_FALSE(f.gc->planeSaturated(0));
    f.gc->launch(batches);
    // Two live batches on plane 0: at the bound, not past it.
    EXPECT_EQ(f.gc->liveBatchesOnPlane(0), 2u);
    EXPECT_TRUE(f.gc->planeSaturated(0));
    EXPECT_FALSE(f.gc->planeSaturated(1));
    f.events.run();
    // Retirement returns the admission shares.
    EXPECT_EQ(f.gc->liveBatchesOnPlane(0), 0u);
    EXPECT_FALSE(f.gc->planeSaturated(0));
    EXPECT_EQ(f.retiredCalls, 2);
    EXPECT_EQ(f.gc->stats().overCapLaunches, 0u);
}

TEST(GcManager, NonUrgentLaunchPastBoundDies)
{
    Fixture f(/*cap=*/1);
    GcBatchList first;
    f.makeBatch(first, 1);
    f.gc->launch(first);
    ASSERT_TRUE(f.gc->planeSaturated(0));
    GcBatchList second;
    f.makeBatch(second, 1);
    EXPECT_DEATH(f.gc->launch(second), "admission bound violated");
}

TEST(GcManager, UrgentLaunchBypassesBoundAndIsCounted)
{
    Fixture f(/*cap=*/1);
    GcBatchList first;
    f.makeBatch(first, 0);
    f.gc->launch(first);
    ASSERT_TRUE(f.gc->planeSaturated(0));
    GcBatchList second;
    f.makeBatch(second, 0);
    f.gc->launch(second, /*urgent=*/true);
    EXPECT_EQ(f.gc->liveBatchesOnPlane(0), 2u);
    EXPECT_EQ(f.gc->stats().overCapLaunches, 1u);
    f.events.run();
    EXPECT_TRUE(f.gc->idle());
    EXPECT_EQ(f.gc->liveBatchesOnPlane(0), 0u);
}

/**
 * FTL-side deferral, deterministically: a needy plane whose admission
 * the predicate rejects is skipped and counted; the urgent variant
 * collects it anyway (emergency reclaim must not be gated).
 */
TEST(GcAdmission, FtlDefersRejectedPlanesAndCountsThem)
{
    FlashGeometry geo;
    geo.numChannels = 1;
    geo.chipsPerChannel = 1;
    geo.diesPerChip = 1;
    geo.planesPerDie = 1;
    geo.blocksPerPlane = 4;
    geo.pagesPerBlock = 4;
    FtlConfig cfg;
    cfg.overprovision = 0.25;
    cfg.gcFreeBlockThreshold = 2;

    Ftl ftl(geo, cfg);
    // Rewrite a handful of hot pages until the single plane is below
    // the GC threshold; the stale copies give GC victims to reclaim.
    Lpn lpn = 0;
    while (!ftl.gcNeeded()) {
        ASSERT_NE(ftl.allocateWrite(lpn % 4), kInvalidPage);
        ++lpn;
    }

    bool admit = false;
    ftl.setGcAdmission([&admit](std::uint64_t) { return admit; });

    // Rejected: nothing collected, the deferral is counted.
    EXPECT_TRUE(ftl.collectGc().empty());
    EXPECT_EQ(ftl.stats().gcDeferrals, 1u);
    EXPECT_TRUE(ftl.gcNeeded());

    // Urgent collection ignores the gate entirely.
    EXPECT_FALSE(ftl.collectGcUrgent().empty());
    EXPECT_EQ(ftl.stats().gcDeferrals, 1u);

    // Once admitted again, normal collection proceeds.
    while (!ftl.gcNeeded()) {
        ASSERT_NE(ftl.allocateWrite(lpn % 4), kInvalidPage);
        ++lpn;
    }
    admit = true;
    EXPECT_FALSE(ftl.collectGc().empty());
    EXPECT_EQ(ftl.stats().gcDeferrals, 1u);
}

/**
 * Device-level admission: a GC-heavy run under the tightest bound
 * (cap 1) holds the per-plane invariant at every event and still
 * completes every host I/O. Deferrals are expected to be rare here —
 * a plane's own GC holds its chip hostage, so the plane seldom dips
 * below threshold while its batch is still in flight — which is
 * exactly why the flat table is statically sizable at planes x cap.
 */
TEST(GcAdmission, DeviceRespectsAdmissionBoundUnderPressure)
{
    SsdConfig cfg = SsdConfig::withChips(8);
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = SchedulerKind::SPK3;
    cfg.ftl.overprovision = 0.15;
    cfg.gcMaxLiveBatchesPerPlane = 1; // tightest legal bound

    Ssd ssd(cfg);
    ssd.preconditionForGc();
    const std::uint64_t span = static_cast<std::uint64_t>(
        static_cast<double>(cfg.geometry.totalPages()) *
        (1.0 - cfg.ftl.overprovision) *
        static_cast<double>(cfg.geometry.pageSizeBytes) * 0.6);
    const Trace stress =
        fixedSizeStream(400, 16384, 0.9, span, 5 * kMicrosecond, 61);
    ssd.replay(stress);

    const std::uint64_t planes =
        std::uint64_t{cfg.geometry.numChips()} *
        cfg.geometry.diesPerChip * cfg.geometry.planesPerDie;
    std::uint32_t max_live = 0;
    while (ssd.events().step()) {
        for (std::uint64_t p = 0; p < planes; ++p)
            max_live =
                std::max(max_live, ssd.gc().liveBatchesOnPlane(p));
    }
    // Non-urgent launches cannot exceed the cap (launch() panics);
    // urgent ones are the only legal spill and are counted.
    EXPECT_LE(max_live, cfg.gcMaxLiveBatchesPerPlane +
                            ssd.gc().stats().overCapLaunches);
    const MetricsSnapshot m = ssd.metrics();
    EXPECT_EQ(m.iosCompleted, 400u);
    EXPECT_GT(m.gcBatches, 0u);
}

} // namespace
} // namespace spk
