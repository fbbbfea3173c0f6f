/**
 * @file
 * Unit + property tests for the page-level mapping.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "ftl/mapping.hh"
#include "sim/rng.hh"

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
    g.pagesPerBlock = 8;
    return g;
}

TEST(PageMapping, StartsUnmapped)
{
    PageMapping m(geo(), 100);
    EXPECT_EQ(m.logicalPages(), 100u);
    EXPECT_EQ(m.lookup(0), kInvalidPage);
    EXPECT_EQ(m.reverseLookup(0), kInvalidPage);
    EXPECT_FALSE(m.isValid(0));
    EXPECT_EQ(m.liveCount(), 0u);
}

TEST(PageMapping, BindAndLookup)
{
    PageMapping m(geo(), 100);
    EXPECT_EQ(m.bind(5, 42), kInvalidPage);
    EXPECT_EQ(m.lookup(5), 42u);
    EXPECT_EQ(m.reverseLookup(42), 5u);
    EXPECT_TRUE(m.isValid(42));
    EXPECT_EQ(m.liveCount(), 1u);
}

TEST(PageMapping, RebindInvalidatesOldCopy)
{
    PageMapping m(geo(), 100);
    m.bind(5, 42);
    EXPECT_EQ(m.bind(5, 77), 42u);
    EXPECT_FALSE(m.isValid(42));
    EXPECT_TRUE(m.isValid(77));
    EXPECT_EQ(m.reverseLookup(42), kInvalidPage);
    EXPECT_EQ(m.liveCount(), 1u);
}

TEST(PageMapping, BindToLivePageDies)
{
    PageMapping m(geo(), 100);
    m.bind(1, 10);
    EXPECT_DEATH(m.bind(2, 10), "live");
}

TEST(PageMapping, InvalidatePhysicalClearsForwardMap)
{
    PageMapping m(geo(), 100);
    m.bind(3, 30);
    m.invalidatePhysical(30);
    EXPECT_EQ(m.lookup(3), kInvalidPage);
    EXPECT_FALSE(m.isValid(30));
    EXPECT_EQ(m.liveCount(), 0u);
    // Idempotent on stale pages.
    m.invalidatePhysical(30);
    EXPECT_EQ(m.liveCount(), 0u);
}

TEST(PageMapping, LogicalLargerThanPhysicalDies)
{
    EXPECT_DEATH(PageMapping(geo(), geo().totalPages() + 1), "capacity");
}

TEST(PageMapping, OutOfRangeAccessDies)
{
    PageMapping m(geo(), 10);
    EXPECT_DEATH(m.lookup(10), "out-of-range");
    EXPECT_DEATH((void)m.isValid(geo().totalPages()), "out-of-range");
}

TEST(PageMapping, PageCountBeyond32BitsIsFatalBeforeAllocating)
{
    // 2^56 physical pages. The check must fire before either table is
    // allocated: a 2^58-byte table cannot be allocated, so a check
    // placed after the allocation dies of bad_alloc instead.
    FlashGeometry g;
    g.numChannels = 256;
    g.chipsPerChannel = 256;
    g.diesPerChip = 32;
    g.planesPerDie = 32;
    g.blocksPerPlane = 1u << 15;
    g.pagesPerBlock = 1u << 15;
    ASSERT_GT(g.totalPages(), PageMapping::kMaxPages);
    EXPECT_DEATH(PageMapping(g, 1), "32-bit mapping limit");
}

/**
 * Property: random bind, rebind and invalidatePhysical agree with an
 * unordered_map reference on every logical and physical page. The
 * logical space is the whole physical space and the edge pages (0 and
 * the last of each space) are drawn often, so an off-by-one in the
 * page + 1 encoding shows up.
 */
TEST(PageMapping, MatchesReferenceUnderRandomOps)
{
    const auto g = geo();
    const std::uint64_t pages = g.totalPages();
    PageMapping m(g, pages);
    Rng rng(19);
    const auto pick = [&rng, pages] {
        switch (rng.nextBelow(4)) {
          case 0:
            return std::uint64_t{0};
          case 1:
            return pages - 1;
          default:
            return rng.nextBelow(pages);
        }
    };
    std::unordered_map<Lpn, Ppn> fwd;
    std::unordered_map<Ppn, Lpn> rev;
    int last_lpn_binds = 0;
    int last_ppn_binds = 0;

    for (int step = 0; step < 3000; ++step) {
        const Ppn ppn = pick();
        if (rng.nextBelow(3) == 0) {
            m.invalidatePhysical(ppn);
            if (const auto it = rev.find(ppn); it != rev.end()) {
                fwd.erase(it->second);
                rev.erase(it);
            }
        } else if (!rev.count(ppn)) {
            const Lpn lpn = pick();
            const auto it = fwd.find(lpn);
            const Ppn old = it == fwd.end() ? kInvalidPage : it->second;
            ASSERT_EQ(m.bind(lpn, ppn), old) << "step " << step;
            if (old != kInvalidPage)
                rev.erase(old);
            fwd[lpn] = ppn;
            rev[ppn] = lpn;
            last_lpn_binds += lpn == pages - 1 ? 1 : 0;
            last_ppn_binds += ppn == pages - 1 ? 1 : 0;
        }

        ASSERT_EQ(m.liveCount(), fwd.size()) << "step " << step;
        for (std::uint64_t i = 0; i < pages; ++i) {
            const auto f = fwd.find(i);
            ASSERT_EQ(m.lookup(i), f == fwd.end() ? kInvalidPage : f->second)
                << "lpn " << i << " step " << step;
            const auto r = rev.find(i);
            ASSERT_EQ(m.reverseLookup(i),
                      r == rev.end() ? kInvalidPage : r->second)
                << "ppn " << i << " step " << step;
            ASSERT_EQ(m.isValid(i), r != rev.end());
        }
    }
    // The last page of each space was really bound, not just probed.
    EXPECT_GT(last_lpn_binds, 0);
    EXPECT_GT(last_ppn_binds, 0);
}

/**
 * The tables are cleared chunk by chunk on first write, not at
 * construction. Build each mapping on the heap memory its predecessor
 * filled with live entries: every page must still start unmapped, and
 * a write must clear its whole chunk without touching its neighbours.
 */
TEST(PageMapping, ReusedHeapMemoryStartsUnmapped)
{
    FlashGeometry g = geo();
    g.blocksPerPlane = 64; // 4096 pages: many table chunks
    const std::uint64_t pages = g.totalPages();
    for (int round = 0; round < 3; ++round) {
        auto m = std::make_unique<PageMapping>(g, pages);
        for (std::uint64_t i = 0; i < pages; ++i) {
            ASSERT_EQ(m->lookup(i), kInvalidPage) << "round " << round;
            ASSERT_EQ(m->reverseLookup(i), kInvalidPage) << "round " << round;
        }
        // Sparse writes (every 37th page, reversed), then checks of
        // every page, written chunk or not.
        for (std::uint64_t i = 0; i < pages; i += 37)
            ASSERT_EQ(m->bind(i, pages - 1 - i), kInvalidPage);
        for (std::uint64_t i = 0; i < pages; ++i) {
            const bool bound = i % 37 == 0;
            ASSERT_EQ(m->lookup(i), bound ? pages - 1 - i : kInvalidPage);
            const std::uint64_t lpn = pages - 1 - i;
            ASSERT_EQ(m->reverseLookup(i),
                      lpn % 37 == 0 ? lpn : kInvalidPage);
        }
        // Fill every entry so the next round's tables, likely carved
        // from this memory, start out dirty.
        for (std::uint64_t i = 0; i < pages; ++i) {
            if (i % 37 != 0)
                m->bind(i, pages - 1 - i);
        }
        ASSERT_EQ(m->liveCount(), pages);
    }
}

/** Property: mapping stays a bijection under random rebinding. */
TEST(PageMapping, RandomRebindKeepsBijection)
{
    const auto g = geo();
    PageMapping m(g, 64);
    Rng rng(5);
    std::unordered_map<Lpn, Ppn> shadow;
    Ppn next_free = 0;

    for (int i = 0; i < 200 && next_free < g.totalPages(); ++i) {
        const Lpn lpn = rng.nextBelow(64);
        const Ppn ppn = next_free++;
        m.bind(lpn, ppn);
        shadow[lpn] = ppn;
    }
    std::uint64_t live = 0;
    for (const auto &[lpn, ppn] : shadow) {
        EXPECT_EQ(m.lookup(lpn), ppn);
        EXPECT_EQ(m.reverseLookup(ppn), lpn);
        EXPECT_TRUE(m.isValid(ppn));
        ++live;
    }
    EXPECT_EQ(m.liveCount(), live);
}

} // namespace
} // namespace spk
