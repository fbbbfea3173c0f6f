/**
 * @file
 * Unit tests for block allocation, wear and GC victim selection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <set>

#include "ftl/block_manager.hh"

namespace spk
{
namespace
{

FlashGeometry
geo()
{
    FlashGeometry g;
    g.numChannels = 2;
    g.chipsPerChannel = 2;
    g.diesPerChip = 2;
    g.planesPerDie = 2;
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 4;
    return g;
}

TEST(BlockManager, PlaneCountMatchesGeometry)
{
    BlockManager bm(geo(), 100);
    EXPECT_EQ(bm.numPlanes(), 4ull * 2 * 2); // chips * dies * planes
}

TEST(BlockManager, PlaneIndexRoundTrip)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    for (std::uint64_t p = 0; p < bm.numPlanes(); ++p) {
        const PhysAddr addr = bm.planeAddr(p);
        EXPECT_EQ(bm.planeIndexOf(addr), p);
    }
}

TEST(BlockManager, PlaneIndexStripesChipsFirst)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    // Consecutive plane indices 0..numChips-1 must land on distinct
    // chips (the allocator's channel-stripe property).
    std::set<std::uint32_t> chips;
    for (std::uint32_t p = 0; p < g.numChips(); ++p) {
        const PhysAddr a = bm.planeAddr(p);
        chips.insert(a.chip);
    }
    EXPECT_EQ(chips.size(), g.numChips());
}

TEST(BlockManager, AllocatesSequentialPagesWithinBlock)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    const auto p0 = bm.allocatePage(0);
    const auto p1 = bm.allocatePage(0);
    ASSERT_TRUE(p0 && p1);
    const PhysAddr a0 = g.decompose(*p0);
    const PhysAddr a1 = g.decompose(*p1);
    EXPECT_EQ(a0.block, a1.block);
    EXPECT_EQ(a1.page, a0.page + 1);
}

TEST(BlockManager, ExhaustsPlaneThenReturnsNullopt)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    // Host allocations stop one block short: that block is the GC
    // migration reserve.
    const std::uint64_t host_capacity =
        std::uint64_t{g.blocksPerPlane - 1} * g.pagesPerBlock;
    for (std::uint64_t i = 0; i < host_capacity; ++i)
        EXPECT_TRUE(bm.allocatePage(0).has_value());
    EXPECT_FALSE(bm.allocatePage(0).has_value());
    EXPECT_EQ(bm.freePages(0), g.pagesPerBlock);

    // The GC path may consume the reserve...
    for (std::uint32_t i = 0; i < g.pagesPerBlock; ++i)
        EXPECT_TRUE(bm.allocatePage(0, /*gc_reserve=*/true).has_value());
    // ...after which the plane is truly full for everyone.
    EXPECT_FALSE(bm.allocatePage(0, true).has_value());
    EXPECT_EQ(bm.freePages(0), 0u);
}

TEST(BlockManager, EraseReturnsBlockToFreeList)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    // Fill block 0 (it is consumed first).
    for (std::uint32_t i = 0; i < g.pagesPerBlock; ++i)
        (void)bm.allocatePage(0);
    (void)bm.allocatePage(0); // opens the next block
    const std::uint32_t free_before = bm.freeBlocks(0);
    EXPECT_TRUE(bm.eraseBlock(0, 0));
    EXPECT_EQ(bm.freeBlocks(0), free_before + 1);
    EXPECT_EQ(bm.block(0, 0).eraseCount, 1u);
    EXPECT_EQ(bm.maxEraseCount(), 1u);
}

TEST(BlockManager, EraseWithLivePagesDies)
{
    const auto g = geo();
    BlockManager bm(g, 100);
    for (std::uint32_t i = 0; i < g.pagesPerBlock; ++i)
        (void)bm.allocatePage(0);
    bm.addValid(0, 0, 1);
    EXPECT_DEATH(bm.eraseBlock(0, 0), "live");
}

TEST(BlockManager, EnduranceRetiresBlock)
{
    const auto g = geo();
    BlockManager bm(g, 2); // two erases allowed
    for (std::uint32_t i = 0; i < g.pagesPerBlock; ++i)
        (void)bm.allocatePage(0);
    EXPECT_FALSE(bm.eraseBlock(0, 0) == false); // first erase fine
    for (std::uint32_t i = 0; i < g.pagesPerBlock * 2; ++i)
        (void)bm.allocatePage(0);
    // Second erase hits the endurance limit -> bad block.
    EXPECT_FALSE(bm.eraseBlock(0, 0));
    EXPECT_EQ(bm.badBlocks(), 1u);
    EXPECT_EQ(bm.block(0, 0).state, BlockState::Bad);
}

/**
 * The O(1) counters under random allocate / erase / retire / plane
 * death / revival sequences: freeBlocks() equals a walk of the
 * free-list ring (and the Free blocks of the plane), and
 * planesBelowGcThreshold() equals a scan of the live planes.
 */
TEST(BlockManager, FreeCountsMatchRecountUnderRandomOps)
{
    std::mt19937_64 rng(2026);
    const auto below = [&rng](std::uint64_t n) { return rng() % n; };
    FlashGeometry g = geo();
    g.blocksPerPlane = 6;
    for (int trial = 0; trial < 60; ++trial) {
        const auto threshold = static_cast<std::uint32_t>(below(5));
        BlockManager bm(g, /*endurance=*/3,
                        below(2) == 0 ? AllocationPolicy::ChannelStripe
                                      : AllocationPolicy::PlaneFirst,
                        /*parity_reserve=*/below(2) == 0, threshold);
        for (int step = 0; step < 300; ++step) {
            const std::uint64_t plane = below(bm.numPlanes());
            const auto blk =
                static_cast<std::uint32_t>(below(g.blocksPerPlane));
            switch (below(6)) {
              case 0:
              case 1:
                for (auto n = below(2 * g.pagesPerBlock); n > 0; --n)
                    (void)bm.allocatePage(plane, below(2) == 0);
                break;
              case 2: // Free, Active and Full blocks all erase
                if (bm.block(plane, blk).state != BlockState::Bad)
                    bm.eraseBlock(plane, blk);
                break;
              case 3:
                bm.retireBlock(plane, blk);
                break;
              case 4:
                bm.markPlaneDead(plane);
                break;
              default:
                if (bm.planeDead(plane))
                    bm.revivePlane(plane);
                break;
            }

            std::uint64_t low = 0;
            for (std::uint64_t p = 0; p < bm.numPlanes(); ++p) {
                std::uint32_t free_state = 0;
                for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b) {
                    if (bm.block(p, b).state == BlockState::Free)
                        ++free_state;
                }
                const std::uint32_t ring = bm.countFreeListEntries(p);
                ASSERT_EQ(bm.freeBlocks(p), ring)
                    << "trial " << trial << " step " << step;
                ASSERT_EQ(ring, free_state)
                    << "trial " << trial << " step " << step;
                if (!bm.planeDead(p) && ring < threshold)
                    ++low;
            }
            ASSERT_EQ(bm.planesBelowGcThreshold(), low)
                << "trial " << trial << " step " << step;
        }
    }
}

/**
 * The kept erase-count spread under random erases (skewed toward a
 * few hot blocks, so the extremes drift apart), retirements,
 * endurance wear-out, plane death and revival: the cached eraseSpread()
 * equals a scan of every block.
 */
TEST(BlockManager, EraseSpreadMatchesScanUnderRandomOps)
{
    std::mt19937_64 rng(2027);
    const auto below = [&rng](std::uint64_t n) { return rng() % n; };
    const FlashGeometry g = geo();
    for (int trial = 0; trial < 40; ++trial) {
        const auto endurance = static_cast<std::uint32_t>(4 + below(40));
        BlockManager bm(g, endurance);
        const std::uint64_t hot_planes = 1 + below(bm.numPlanes());
        for (int step = 0; step < 400; ++step) {
            const bool hot = below(4) != 0;
            const std::uint64_t plane =
                below(hot ? hot_planes : bm.numPlanes());
            const auto blk = static_cast<std::uint32_t>(
                below(hot ? 2 : g.blocksPerPlane));
            switch (below(10)) {
              case 0:
                bm.retireBlock(plane, blk);
                break;
              case 1:
                bm.markPlaneDead(plane);
                break;
              case 2:
                if (bm.planeDead(plane))
                    bm.revivePlane(plane);
                break;
              default: // erase counts on live and dead planes alike
                if (bm.block(plane, blk).state != BlockState::Bad)
                    bm.eraseBlock(plane, blk);
                break;
            }

            std::uint32_t lo = ~0u;
            std::uint32_t hi = 0;
            for (std::uint64_t p = 0; p < bm.numPlanes(); ++p) {
                for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b) {
                    const BlockInfo &info = bm.block(p, b);
                    if (info.state == BlockState::Bad)
                        continue;
                    lo = std::min(lo, info.eraseCount);
                    hi = std::max(hi, info.eraseCount);
                }
            }
            if (lo > hi)
                lo = hi; // every block bad
            ASSERT_EQ(bm.eraseSpread(), std::make_pair(lo, hi))
                << "trial " << trial << " step " << step;
        }
    }
}

TEST(BlockManager, AddValidUnderflowDies)
{
    BlockManager bm(geo(), 100);
    EXPECT_DEATH(bm.addValid(0, 0, -1), "underflow");
}

} // namespace
} // namespace spk
