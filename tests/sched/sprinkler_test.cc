/**
 * @file
 * Unit tests for the Sprinkler scheduler: RIOS traversal order, FARO
 * batch selection (overlap depth + connectivity), over-commitment
 * windows and readdressing.
 */

#include <gtest/gtest.h>

#include <set>

#include "sched/sprinkler.hh"
#include "tests/sched/sched_test_util.hh"

namespace spk
{
namespace
{

using test::SchedHarness;

TEST(Sprinkler, NamesAndFlags)
{
    SprinklerScheduler spk1(false, true, 8);
    SprinklerScheduler spk2(true, false, 8);
    SprinklerScheduler spk3(true, true, 8);
    EXPECT_STREQ(spk1.name(), "SPK1");
    EXPECT_STREQ(spk2.name(), "SPK2");
    EXPECT_STREQ(spk3.name(), "SPK3");
    EXPECT_TRUE(spk3.wantsReaddressing());
    EXPECT_DEATH(SprinklerScheduler(false, false, 8), "at least one");
}

TEST(Sprinkler, RiosTraversesChipsInStripeOrder)
{
    SchedHarness h;
    // One I/O fanned over chips 2, 0, 1 (out of order on purpose).
    h.addIo({2, 0, 1});
    SprinklerScheduler spk2(true, false, 1);

    // RIOS visits chip 0 first regardless of request order in the I/O.
    MemoryRequest *r = spk2.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->addr.chip, 0u);
    h.compose(r);
    r = spk2.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->addr.chip, 1u);
    h.compose(r);
    r = spk2.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->addr.chip, 2u);
}

TEST(Sprinkler, RiosCommitsAcrossIoBoundaries)
{
    SchedHarness h;
    h.addIo({0});
    auto *second = h.addIo({1});
    SprinklerScheduler spk2(true, false, 1);
    h.view.outstandingMap[0] = 1; // chip 0 busy
    // VAS would stall; RIOS simply serves chip 1 from I/O #2.
    MemoryRequest *r = spk2.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r, second->pages[0]);
}

TEST(Sprinkler, Spk2NoOvercommit)
{
    SchedHarness h;
    h.addIo({0, 0});
    SprinklerScheduler spk2(true, false, 1);
    h.view.outstandingMap[0] = 1;
    EXPECT_EQ(spk2.next(h.ctx), nullptr); // won't stack on a busy chip
}

TEST(Sprinkler, FaroOvercommitsUpToWindow)
{
    SchedHarness h;
    h.addIo({0, 0});
    SprinklerScheduler spk3(true, true, 4);
    h.view.outstandingMap[0] = 2; // already two outstanding, window is 4
    EXPECT_NE(spk3.next(h.ctx), nullptr);

    h.view.outstandingMap[0] = 4; // window reached
    SprinklerScheduler fresh(true, true, 4);
    EXPECT_EQ(fresh.next(h.ctx), nullptr);
}

TEST(Sprinkler, FaroBatchesCoalescableSet)
{
    SchedHarness h;
    // Four requests to chip 0 on distinct (die, plane) slots; the
    // harness gives them equal page offsets, so all four coalesce.
    h.addIo({0, 0, 0, 0});
    SprinklerScheduler spk3(true, true, 8);

    // The whole batch comes out in consecutive next() calls.
    std::set<const MemoryRequest *> batch;
    for (int i = 0; i < 4; ++i) {
        MemoryRequest *r = spk3.next(h.ctx);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->addr.chip, 0u);
        batch.insert(r);
        h.compose(r);
    }
    EXPECT_EQ(batch.size(), 4u);
}

TEST(Sprinkler, FaroPrefersDeeperOverlap)
{
    SchedHarness h;
    auto *small = h.addIo({1});           // depth 1 at chip 1
    auto *big = h.addIo({2, 2, 2});       // depth 3 at chip 2
    SprinklerScheduler spk1(false, true, 8);
    // SPK1 picks the chip with the highest overlap depth first.
    MemoryRequest *r = spk1.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->addr.chip, 2u);
    EXPECT_EQ(r->tag, big->tag);
    (void)small;
}

TEST(Sprinkler, ConnectivityBreaksDepthTies)
{
    SchedHarness h;
    // Chip 1: two requests from two different I/Os (connectivity 1).
    h.addIo({1});
    h.addIo({1});
    // Chip 2: two requests from one I/O (connectivity 2).
    auto *c = h.addIo({2, 2});
    SprinklerScheduler spk1(false, true, 8);

    MemoryRequest *r = spk1.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->addr.chip, 2u) << "higher connectivity set should win";
    EXPECT_EQ(r->tag, c->tag);
}

TEST(Sprinkler, RetargetMovesBucket)
{
    SchedHarness h;
    auto *io = h.addIo({0, 3});
    SprinklerScheduler spk2(true, false, 1);
    // The retargeted read leaves chip 0 and queues behind the request
    // already pending on chip 3.
    h.retarget(io->pages[0], 3);

    MemoryRequest *r = spk2.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r, io->pages[1]);
    h.compose(r);
    r = spk2.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r, io->pages[0]);
    EXPECT_EQ(r->addr.chip, 3u);
}

TEST(Sprinkler, SkipsComposedEntries)
{
    SchedHarness h;
    auto *io = h.addIo({0, 0});
    SprinklerScheduler spk3(true, true, 8);
    h.compose(io->pages[0]);
    MemoryRequest *r = spk3.next(h.ctx);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r, io->pages[1]);
}

TEST(Sprinkler, EmptyQueueReturnsNull)
{
    SchedHarness h;
    SprinklerScheduler spk3(true, true, 8);
    EXPECT_EQ(spk3.next(h.ctx), nullptr);
}

} // namespace
} // namespace spk
