/**
 * @file
 * GC-path allocation gate (ROADMAP "GC-path allocation", retired).
 *
 * PRs 1–2 made the host-I/O path allocation-free; the request-arena
 * refactor extended the same slab discipline to the GC engine:
 * migration requests come from the device-wide MemoryRequest arena
 * with intrusive batch/pair fields, batches live in a flat
 * recycled-slot table, and the FTL hands batches over through
 * recycled GcBatchList storage. The former <= ceiling ratchet
 * (~72k allocs on this probe) is therefore retired: steady-state GC
 * execution must not allocate at all. That scratch is carved by the
 * first collection, so a device that never collects never pays for
 * it.
 */

#define SPK_COUNT_ALLOCS
#include "sim/alloc_counter.hh"

#include <gtest/gtest.h>

#include "ftl/ftl.hh"
#include "sim/rng.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace
{

TEST(GcAlloc, SteadyStateGcExecutionIsAllocationFree)
{
    SsdConfig cfg = SsdConfig::withChips(8);
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = SchedulerKind::SPK3;
    cfg.ftl.overprovision = 0.15;

    Ssd ssd(cfg);
    ssd.preconditionForGc(); // 95% full, 30% churned
    const std::uint64_t span = static_cast<std::uint64_t>(
        static_cast<double>(cfg.geometry.totalPages()) *
        (1.0 - cfg.ftl.overprovision) *
        static_cast<double>(cfg.geometry.pageSizeBytes) * 0.6);

    // Warmup: a write-dominated random stream (same shape as the
    // Figure 17 stress sweep) drives sustained GC and establishes
    // every high-water mark — request arena, batch-slot table,
    // migration scratch, event pool, controller queues.
    const Trace warmup =
        fixedSizeStream(400, 16384, 0.9, span, 5 * kMicrosecond, 61);
    ssd.replay(warmup);
    ssd.run();
    const MetricsSnapshot warm = ssd.metrics();
    ASSERT_GT(warm.gcBatches, 0u);
    ASSERT_GT(warm.pagesMigrated, 0u);

    // Measured phase: the same stream again, shifted in time —
    // identical backlog and GC-pressure shape, so warmup established
    // exactly the high-water marks this run needs. Scheduling
    // (replay) happens outside the window; the window covers the
    // entire simulation run, GC collection and execution included.
    Trace probe =
        fixedSizeStream(400, 16384, 0.9, span, 5 * kMicrosecond, 61);
    const Tick start = ssd.events().now();
    for (auto &rec : probe)
        rec.arrival += start;
    ssd.replay(probe);

    const AllocWindow window;
    ssd.run();
    const std::uint64_t allocs = window.count();
    const MetricsSnapshot m = ssd.metrics();

    // The measured window must actually exercise GC, otherwise the
    // zero-allocation assertion pins nothing.
    ASSERT_GT(m.gcBatches, warm.gcBatches);
    ASSERT_GT(m.pagesMigrated, warm.pagesMigrated);

    // The ratchet, fully tightened: the GC execution path shares the
    // allocation-free discipline of the host-I/O path.
    EXPECT_EQ(allocs, 0u)
        << "steady-state GC run allocated " << allocs
        << " times; the request-arena path regressed";
}

FlashGeometry
smallGeometry()
{
    FlashGeometry g = SsdConfig::withChips(8).geometry;
    g.blocksPerPlane = 16;
    g.pagesPerBlock = 32;
    return g;
}

/**
 * GC scratch is carved by the first collection, not by construction:
 * an FTL that never collects costs exactly its mapping and its block
 * manager, and writing without collecting allocates nothing more.
 */
TEST(GcAlloc, DeviceThatNeverCollectsCarvesNoGcScratch)
{
#if defined(SPK_ALLOC_COUNTER_DISABLED)
    GTEST_SKIP() << "allocation counting is compiled out in this build";
#endif
    const FlashGeometry g = smallGeometry();
    const FtlConfig cfg;

    const AllocWindow ftl_window;
    Ftl ftl(g, cfg);
    const std::uint64_t ftl_allocs = ftl_window.count();

    const AllocWindow parts_window;
    {
        const PageMapping mapping(g, ftl.logicalPages());
        const BlockManager blocks(g, cfg.endurance, cfg.allocation,
                                  /*parity_reserve=*/false,
                                  cfg.gcFreeBlockThreshold);
    }
    EXPECT_EQ(ftl_allocs, parts_window.count())
        << "Ftl construction allocated beyond its mapping and blocks";

    const AllocWindow write_window;
    for (Lpn lpn = 0; lpn < 64; ++lpn)
        ASSERT_NE(ftl.allocateWrite(lpn), kInvalidPage);
    ASSERT_FALSE(ftl.gcNeeded());
    EXPECT_EQ(write_window.count(), 0u);
}

/** The first collection carves the scratch once; later ones reuse it. */
TEST(GcAlloc, FirstCollectionCarvesGcScratchOnce)
{
#if defined(SPK_ALLOC_COUNTER_DISABLED)
    GTEST_SKIP() << "allocation counting is compiled out in this build";
#endif
    Ftl ftl(smallGeometry(), FtlConfig{});
    Rng rng(7);
    const std::uint64_t n = ftl.logicalPages();
    for (Lpn lpn = 0; lpn < n; ++lpn)
        ASSERT_NE(ftl.allocateWrite(lpn), kInvalidPage);
    // Overwrites until some plane falls below the GC threshold.
    while (!ftl.gcNeeded())
        ASSERT_NE(ftl.allocateWrite(rng.nextBelow(n)), kInvalidPage);

    const AllocWindow first_window;
    const std::size_t first_batches = ftl.collectGc().size();
    const std::uint64_t first = first_window.count();
    ASSERT_GT(first_batches, 0u);
    EXPECT_EQ(first, 2u) << "expected one batch-slot table and one "
                            "migration arena";

    std::uint64_t later_batches = 0;
    const AllocWindow later_window;
    for (int i = 0; i < 3000; ++i) {
        if (ftl.allocateWrite(rng.nextBelow(n)) == kInvalidPage ||
            ftl.gcNeeded())
            later_batches += ftl.collectGc().size();
    }
    const std::uint64_t later = later_window.count();
    ASSERT_GT(later_batches, 0u);
    EXPECT_EQ(later, 0u);
}

} // namespace
} // namespace spk
