/**
 * @file
 * Unit tests for the PAS baseline: whole-I/O out-of-order commitment
 * with conflict avoidance.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sched/pas.hh"
#include "tests/sched/sched_test_util.hh"

namespace spk
{
namespace
{

using test::SchedHarness;

/**
 * Reference PAS: the walk over every page of every queued I/O that
 * the per-chip index replaced. First uncomposed request in queue
 * order that is hazard-free and whose chip holds no other I/O's work.
 */
MemoryRequest *
queueWalkPas(const SchedulerContext &ctx)
{
    for (IoRequest *io : *ctx.queue) {
        if (io->allComposed())
            continue;
        for (MemoryRequest *req : io->pages) {
            if (req->composed)
                continue;
            if (!ctx.view->schedulable(*req))
                continue;
            if (ctx.view->outstandingOthers(req->chip, req->tag) > 0)
                continue;
            return req;
        }
    }
    return nullptr;
}

TEST(Pas, SkipsConflictedHeadIo)
{
    SchedHarness h;
    auto *first = h.addIo({0, 0});
    auto *second = h.addIo({2, 3});
    h.view.outstandingMap[0] = 1;
    PasScheduler pas;
    // Every request of I/O #1 heads to the busy chip 0: unlike VAS,
    // PAS skips the blocked head and starts I/O #2.
    EXPECT_EQ(pas.next(h.ctx), second->pages[0]);
    (void)first;
}

TEST(Pas, SkipsBusyChipWithinIo)
{
    SchedHarness h;
    auto *io = h.addIo({0, 1});
    h.view.outstandingMap[0] = 1; // first page's chip is busy
    PasScheduler pas;
    // Coarse out-of-order: PAS skips the busy chip and commits the
    // request heading to the idle one (Section 5.1).
    EXPECT_EQ(pas.next(h.ctx), io->pages[1]);
}

TEST(Pas, OwnIoQueueIsNotAConflict)
{
    SchedHarness h;
    auto *io = h.addIo({0, 0});
    PasScheduler pas;
    // Per-chip flash queues: outstanding requests of the SAME I/O do
    // not block further commitment (enables same-I/O coalescing).
    h.view.othersOverride = [&](std::uint32_t, TagId tag) {
        return tag == io->tag ? 0u : 1u;
    };
    EXPECT_EQ(pas.next(h.ctx), io->pages[0]);
}

TEST(Pas, ContinuesStartedIoBeforeStartingNew)
{
    SchedHarness h;
    auto *first = h.addIo({0, 1});
    auto *second = h.addIo({2});
    PasScheduler pas;

    MemoryRequest *r1 = pas.next(h.ctx);
    EXPECT_EQ(r1, first->pages[0]);
    h.compose(r1);
    h.view.outstandingMap[0] = 1; // committed request now outstanding

    // First I/O has begun: PAS keeps feeding it even though chip 1 of
    // the same I/O is free and I/O #2 could also start.
    MemoryRequest *r2 = pas.next(h.ctx);
    EXPECT_EQ(r2, first->pages[1]);
    h.compose(r2);

    EXPECT_EQ(pas.next(h.ctx), second->pages[0]);
}

TEST(Pas, InOrderWhenNoConflicts)
{
    SchedHarness h;
    auto *first = h.addIo({0});
    auto *second = h.addIo({1});
    PasScheduler pas;
    EXPECT_EQ(pas.next(h.ctx), first->pages[0]);
    h.compose(first->pages[0]);
    EXPECT_EQ(pas.next(h.ctx), second->pages[0]);
}

TEST(Pas, AllIosConflictedReturnsNull)
{
    SchedHarness h;
    h.addIo({0});
    h.addIo({0});
    h.view.outstandingMap[0] = 2;
    PasScheduler pas;
    EXPECT_EQ(pas.next(h.ctx), nullptr);
}

TEST(Pas, HazardInsideIoFallsThroughToNextIo)
{
    SchedHarness h;
    auto *first = h.addIo({0, 1});
    auto *second = h.addIo({2});
    h.view.schedulableOverride = [&](const MemoryRequest &req) {
        return req.tag != first->tag;
    };
    PasScheduler pas;
    EXPECT_EQ(pas.next(h.ctx), second->pages[0]);
}

TEST(Pas, MatchesQueueWalkOnRandomQueues)
{
    std::mt19937_64 rng(2026);
    const auto below = [&rng](std::uint64_t n) { return rng() % n; };
    for (int trial = 0; trial < 300; ++trial) {
        SchedHarness h;
        const std::uint32_t chips = h.geo.numChips();
        std::size_t pages = 0;
        const auto n_ios = 1 + below(12);
        for (std::uint64_t i = 0; i < n_ios; ++i) {
            std::vector<std::uint32_t> targets(1 + below(10));
            for (auto &chip : targets)
                chip = static_cast<std::uint32_t>(below(chips));
            h.addIo(targets, below(2) == 0);
            pages += targets.size();
        }

        // Busy-with-others verdict per (chip, tag) and a hazard
        // verdict per request, redrawn before every decision.
        const auto tags = static_cast<std::size_t>(h.nextTag);
        std::vector<std::uint8_t> busy(chips * tags);
        std::vector<std::uint8_t> hazard(h.nextReqId);
        h.view.othersOverride = [&](std::uint32_t chip, TagId tag) {
            return std::uint32_t{busy[chip * tags + tag]};
        };
        h.view.schedulableOverride = [&](const MemoryRequest &req) {
            return hazard[req.id] == 0;
        };

        PasScheduler pas;
        std::size_t composed = 0;
        for (int step = 0; composed < pages && step < 400; ++step) {
            const auto busy_pct = below(100);
            const auto hazard_pct = below(60);
            for (auto &b : busy)
                b = below(100) < busy_pct ? 1 : 0;
            for (auto &z : hazard)
                z = below(100) < hazard_pct ? 1 : 0;

            MemoryRequest *expected = queueWalkPas(h.ctx);
            MemoryRequest *got = pas.next(h.ctx);
            ASSERT_EQ(got, expected)
                << "trial " << trial << " step " << step;
            if (got != nullptr) {
                h.compose(got);
                ++composed;
            }
        }
        EXPECT_EQ(composed, pages) << "trial " << trial;
    }
}

TEST(Pas, NameIsPas)
{
    PasScheduler pas;
    EXPECT_STREQ(pas.name(), "PAS");
    EXPECT_FALSE(pas.wantsReaddressing());
}

} // namespace
} // namespace spk
