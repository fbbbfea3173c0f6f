/**
 * @file
 * Unit + property tests for the FTL facade: translation, write
 * allocation striping, GC and readdressing callbacks.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <random>
#include <set>
#include <vector>

#include "ftl/ftl.hh"

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
    g.blocksPerPlane = 8;
    g.pagesPerBlock = 8;
    return g;
}

FtlConfig
cfg()
{
    FtlConfig c;
    c.overprovision = 0.25;
    c.gcFreeBlockThreshold = 2;
    return c;
}

TEST(Ftl, LogicalCapacityHonoursOverprovision)
{
    Ftl ftl(geo(), cfg());
    EXPECT_EQ(ftl.logicalPages(),
              static_cast<std::uint64_t>(geo().totalPages() * 0.75));
}

TEST(Ftl, UnwrittenReadIsInvalid)
{
    Ftl ftl(geo(), cfg());
    EXPECT_EQ(ftl.translateRead(0), kInvalidPage);
}

TEST(Ftl, WriteThenReadTranslates)
{
    Ftl ftl(geo(), cfg());
    const Ppn ppn = ftl.allocateWrite(7);
    ASSERT_NE(ppn, kInvalidPage);
    EXPECT_EQ(ftl.translateRead(7), ppn);
    EXPECT_EQ(ftl.stats().hostWrites, 1u);
}

TEST(Ftl, ConsecutiveWritesStripeAcrossChips)
{
    const auto g = geo();
    Ftl ftl(g, cfg());
    std::set<std::uint32_t> chips;
    for (Lpn lpn = 0; lpn < g.numChips(); ++lpn) {
        const Ppn ppn = ftl.allocateWrite(lpn);
        chips.insert(g.chipOf(ppn));
    }
    // The first numChips writes must land on numChips distinct chips:
    // this is what gives RIOS its system-level parallelism.
    EXPECT_EQ(chips.size(), g.numChips());
}

TEST(Ftl, RewriteInvalidatesOldPage)
{
    Ftl ftl(geo(), cfg());
    const Ppn first = ftl.allocateWrite(3);
    const Ppn second = ftl.allocateWrite(3);
    EXPECT_NE(first, second);
    EXPECT_EQ(ftl.translateRead(3), second);
    EXPECT_FALSE(ftl.mapping().isValid(first));
}

TEST(Ftl, GcNeededAfterHeavyChurn)
{
    Ftl ftl(geo(), cfg());
    Rng rng(3);
    EXPECT_FALSE(ftl.gcNeeded());
    // Hammer a small working set until planes run out of free blocks.
    const std::uint64_t working = ftl.logicalPages() / 4;
    for (int i = 0; i < 4000 && !ftl.gcNeeded(); ++i)
        (void)ftl.allocateWrite(rng.nextBelow(working));
    EXPECT_TRUE(ftl.gcNeeded());

    const auto batches = ftl.collectGc();
    EXPECT_FALSE(batches.empty());
    EXPECT_GT(ftl.stats().blocksErased, 0u);
}

TEST(Ftl, GcPreservesMappingConsistency)
{
    Ftl ftl(geo(), cfg());
    Rng rng(9);
    const std::uint64_t working = ftl.logicalPages() / 4;
    std::vector<Ppn> last(working, kInvalidPage);
    for (int i = 0; i < 6000; ++i) {
        const Lpn lpn = rng.nextBelow(working);
        const Ppn ppn = ftl.allocateWrite(lpn);
        if (ppn == kInvalidPage) {
            ftl.collectGc();
            continue;
        }
        last[lpn] = ppn;
        if (ftl.gcNeeded())
            ftl.collectGc();
    }
    // Every written LPN still resolves, and GC may have moved it.
    for (Lpn lpn = 0; lpn < working; ++lpn) {
        if (last[lpn] == kInvalidPage)
            continue;
        const Ppn now = ftl.translateRead(lpn);
        ASSERT_NE(now, kInvalidPage);
        EXPECT_TRUE(ftl.mapping().isValid(now));
        EXPECT_EQ(ftl.mapping().reverseLookup(now), lpn);
    }
}

TEST(Ftl, ReaddressCallbackFiresPerMigration)
{
    Ftl ftl(geo(), cfg());
    std::uint64_t callbacks = 0;
    ftl.setReaddressCallback(
        [&](Lpn, Ppn, Ppn) { ++callbacks; });

    Rng rng(4);
    const std::uint64_t working = ftl.logicalPages() / 4;
    for (int i = 0; i < 4000 && !ftl.gcNeeded(); ++i)
        (void)ftl.allocateWrite(rng.nextBelow(working));
    ftl.collectGc();
    EXPECT_EQ(callbacks, ftl.stats().pagesMigrated);
}

TEST(Ftl, CallbackReportsAccurateMove)
{
    Ftl ftl(geo(), cfg());
    ftl.setReaddressCallback([&](Lpn lpn, Ppn from, Ppn to) {
        EXPECT_NE(from, to);
        EXPECT_EQ(ftl.translateRead(lpn), to);
    });
    Rng rng(6);
    const std::uint64_t working = ftl.logicalPages() / 4;
    for (int i = 0; i < 5000; ++i) {
        (void)ftl.allocateWrite(rng.nextBelow(working));
        if (ftl.gcNeeded())
            ftl.collectGc();
    }
}

/** One plane of four-page blocks: every write lands in the plane's
 *  blocks in order, so a test can place each LPN by hand. */
FlashGeometry
onePlane(std::uint32_t blocks)
{
    FlashGeometry g;
    g.numChannels = 1;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = blocks;
    g.pagesPerBlock = 4;
    return g;
}

void
writeAll(Ftl &ftl, std::initializer_list<Lpn> lpns)
{
    for (const Lpn lpn : lpns)
        ASSERT_NE(ftl.allocateWrite(lpn), kInvalidPage) << "lpn " << lpn;
}

TEST(Ftl, GcVictimIsFullBlockWithFewestValidLowestIndexOnTie)
{
    Ftl ftl(onePlane(8), cfg());
    writeAll(ftl, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15});
    // Overwrites leave block 0 with 2 valid pages, blocks 1 and 2 with
    // 1 each, block 3 with 3; blocks 4-5 fill with the new copies and
    // block 6 opens, so only block 7 stays free.
    writeAll(ftl, {0, 1, 4, 5, 6, 8, 9, 10, 12});
    ASSERT_TRUE(ftl.gcNeeded());

    const GcBatchList &batches = ftl.collectGc();
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].victimBlock, 1u);
    ASSERT_EQ(batches[0].migrations.size(), 1u);
    EXPECT_EQ(batches[0].migrations[0].lpn, 7u);
    EXPECT_TRUE(batches[0].eraseAfter);
    EXPECT_EQ(ftl.stats().gcInvocations, 1u);
}

TEST(Ftl, GcWithoutFullBlockReturnsNoBatch)
{
    FtlConfig c = cfg();
    c.gcFreeBlockThreshold = 8; // the plane always wants GC
    Ftl ftl(onePlane(8), c);
    writeAll(ftl, {0}); // block 0 active, none full
    ASSERT_TRUE(ftl.gcNeeded());
    EXPECT_TRUE(ftl.collectGc().empty());
    EXPECT_EQ(ftl.stats().gcInvocations, 0u);
}

TEST(Ftl, AbortedEvacuationKeepsItsMovesWithoutErase)
{
    // Every erase wears its block out, so reclaimed blocks never
    // return to the free list and the second collection runs out of
    // destination space halfway through its victim.
    FtlConfig c = cfg();
    c.endurance = 1;
    Ftl ftl(onePlane(4), c);
    std::vector<GcMigration> readdressed;
    ftl.setReaddressCallback([&readdressed](Lpn lpn, Ppn from, Ppn to) {
        readdressed.push_back(GcMigration{lpn, from, to});
    });
    // Block 0 keeps LPNs 2-3 live, block 1 keeps 5-7, block 2 holds
    // 0, 1, 4, 8; block 3 is the GC reserve.
    writeAll(ftl, {0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 4, 8});
    ASSERT_EQ(ftl.allocateWrite(9), kInvalidPage);

    // Block 0 moves into the reserve block and wears out.
    ASSERT_EQ(ftl.collectGc().size(), 1u);
    EXPECT_EQ(ftl.stats().gcInvocations, 1u);
    EXPECT_EQ(ftl.stats().blocksRetiredWear, 1u);

    // Block 1 has three live pages, the reserve two free slots.
    readdressed.clear();
    const GcBatchList &batches = ftl.collectGc();
    ASSERT_EQ(batches.size(), 1u);
    const GcBatch &batch = batches[0];
    EXPECT_EQ(batch.victimBlock, 1u);
    EXPECT_FALSE(batch.eraseAfter);
    ASSERT_EQ(batch.migrations.size(), 2u);
    ASSERT_EQ(readdressed.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const GcMigration &mig = batch.migrations[i];
        EXPECT_EQ(ftl.translateRead(mig.lpn), mig.to);
        EXPECT_EQ(readdressed[i].lpn, mig.lpn);
        EXPECT_EQ(readdressed[i].to, mig.to);
    }
    EXPECT_EQ(ftl.stats().pagesMigrated, 4u);
    EXPECT_EQ(ftl.stats().gcInvocations, 1u); // the abort is not one
    EXPECT_EQ(ftl.blocks().block(0, 1).validPages, 1u);
    EXPECT_EQ(ftl.blocks().block(0, 1).state, BlockState::Full);
}

/**
 * Ftl::gcNeeded() is one comparison against a counter the block
 * manager keeps; under random host writes, collections, block
 * retirements (of Free and Full blocks), die deaths and revivals it
 * must equal the scan of every live plane's free-list ring.
 */
TEST(Ftl, GcNeededMatchesPlaneScanUnderRandomOps)
{
    std::mt19937_64 rng(2026);
    const auto below = [&rng](std::uint64_t n) { return rng() % n; };
    const FlashGeometry g = geo();
    std::uint64_t seen[2] = {0, 0}; // steps with gcNeeded() false/true
    for (int trial = 0; trial < 40; ++trial) {
        FtlConfig c = cfg();
        c.gcFreeBlockThreshold = static_cast<std::uint32_t>(1 + below(3));
        c.endurance = static_cast<std::uint32_t>(6 + below(6));
        Ftl ftl(g, c, nullptr, /*die_parity=*/below(2) == 0);
        const BlockManager &bm = ftl.blocks();
        // A hot set well inside capacity and a cap on retired blocks,
        // so relocation never runs dry.
        const Lpn hot = ftl.logicalPages() / 4;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> dead_dies;
        for (int step = 0; step < 200; ++step) {
            switch (below(7)) {
              case 0:
              case 1:
              case 2:
                for (auto n = 1 + below(24); n > 0; --n)
                    (void)ftl.hostWrite(below(hot));
                break;
              case 3:
                (void)(below(2) == 0 ? ftl.collectGc()
                                     : ftl.collectGcUrgent());
                break;
              case 4: { // program failure into a Free or Full block
                const std::uint64_t plane = below(bm.numPlanes());
                PhysAddr addr = bm.planeAddr(plane);
                addr.block =
                    static_cast<std::uint32_t>(below(g.blocksPerPlane));
                const BlockState state =
                    bm.block(plane, addr.block).state;
                if (bm.badBlocks() >= bm.numPlanes() ||
                    (state != BlockState::Free && state != BlockState::Full))
                    break;
                for (addr.page = 0; addr.page < g.pagesPerBlock;
                     ++addr.page) {
                    const Ppn ppn = g.compose(addr);
                    if (!ftl.mapping().isValid(ppn)) {
                        (void)ftl.onProgramFail(ppn);
                        break;
                    }
                }
                break;
              }
              case 5:
                if (dead_dies.empty()) {
                    const auto chip =
                        static_cast<std::uint32_t>(below(g.numChips()));
                    const auto die =
                        static_cast<std::uint32_t>(below(g.diesPerChip));
                    ftl.markDieDead(chip, die);
                    dead_dies.emplace_back(chip, die);
                }
                break;
              default:
                if (!dead_dies.empty()) {
                    const auto [chip, die] = dead_dies.back();
                    dead_dies.pop_back();
                    const Ppn base =
                        (std::uint64_t{chip} * g.diesPerChip + die) *
                        g.pagesPerDie();
                    for (Ppn off = 0; off < g.pagesPerDie(); ++off) {
                        if (ftl.mapping().isValid(base + off)) {
                            ASSERT_NE(ftl.rebuildRelocate(base + off),
                                      kInvalidPage);
                        }
                    }
                    ftl.reviveDie(chip, die);
                }
                break;
            }

            bool needed = false;
            for (std::uint64_t p = 0; p < bm.numPlanes(); ++p) {
                ASSERT_EQ(bm.freeBlocks(p), bm.countFreeListEntries(p))
                    << "trial " << trial << " step " << step;
                if (!bm.planeDead(p) &&
                    bm.countFreeListEntries(p) < c.gcFreeBlockThreshold)
                    needed = true;
            }
            ASSERT_EQ(ftl.gcNeeded(), needed)
                << "trial " << trial << " step " << step;
            ++seen[needed ? 1 : 0];
        }
    }
    EXPECT_GT(seen[0], 0u);
    EXPECT_GT(seen[1], 0u);
}

TEST(Ftl, PreconditionFillsRequestedFraction)
{
    Ftl ftl(geo(), cfg());
    Rng rng(12);
    ftl.precondition(0.5, 0.0, rng);
    EXPECT_EQ(ftl.mapping().liveCount(), ftl.logicalPages() / 2);
}

TEST(Ftl, PreconditionChurnFragments)
{
    Ftl ftl(geo(), cfg());
    Rng rng(12);
    ftl.precondition(0.6, 0.5, rng);
    // Churn must have produced invalid pages somewhere: at least one
    // Full block has fewer valid pages than its capacity.
    const auto &g = ftl.geometry();
    bool fragmented = false;
    for (std::uint64_t p = 0; p < ftl.blocks().numPlanes(); ++p) {
        for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b) {
            const auto &info = ftl.blocks().block(p, b);
            if (info.state == BlockState::Full &&
                info.validPages < g.pagesPerBlock) {
                fragmented = true;
            }
        }
    }
    EXPECT_TRUE(fragmented);
}

} // namespace
} // namespace spk
