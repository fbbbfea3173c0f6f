/**
 * @file
 * Unit tests for the PAS baseline: whole-I/O out-of-order commitment
 * with conflict avoidance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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
 * order that is hazard-free and whose chip holds no other I/O's work,
 * as counted by @p others (outstanding requests on a chip that belong
 * to a different I/O than the given tag).
 */
MemoryRequest *
queueWalkPas(const SchedulerContext &ctx,
             const std::function<std::uint32_t(std::uint32_t, TagId)>
                 &others)
{
    for (IoRequest *io : *ctx.queue) {
        if (io->allComposed())
            continue;
        for (MemoryRequest *req : io->pages) {
            if (req->composed)
                continue;
            if (!ctx.view->schedulable(*req))
                continue;
            if (others(req->addr.chip, req->tag) > 0)
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
    h.view.ownerOverride = [&](std::uint32_t) {
        return ChipOwner{ChipOwner::OneTag, io->tag};
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

        // One owner state per chip, redrawn before every decision as
        // outstanding counts per tag slot (slot 0 = GC / parity work).
        // The reference reads the counts, PAS reads the owner. Owner
        // tags range past the queued I/Os: a tag can own a chip with
        // nothing of it pending there.
        const auto tags = static_cast<TagId>(h.nextTag + 2);
        const std::size_t slots = std::size_t{tags} + 1;
        std::vector<std::uint32_t> counts(chips * slots);
        std::vector<ChipOwner> owner(chips);
        std::vector<std::uint8_t> hazard(h.nextReqId);
        h.view.ownerOverride = [&](std::uint32_t chip) {
            return owner[chip];
        };
        h.view.schedulableOverride = [&](const MemoryRequest &req) {
            return hazard[req.id] == 0;
        };
        const auto others = [&](std::uint32_t chip, TagId tag) {
            std::uint32_t sum = 0;
            for (std::size_t slot = 0; slot < slots; ++slot) {
                if (slot != tagSlot(tag))
                    sum += counts[chip * slots + slot];
            }
            return sum;
        };
        const auto draw_tag = [&] {
            return static_cast<TagId>(below(tags));
        };
        const auto count = [&] {
            return static_cast<std::uint32_t>(1 + below(3));
        };

        PasScheduler pas;
        std::size_t composed = 0;
        for (int step = 0; composed < pages && step < 400; ++step) {
            const auto busy_pct = below(100);
            const auto hazard_pct = below(60);
            std::fill(counts.begin(), counts.end(), 0u);
            for (std::uint32_t chip = 0; chip < chips; ++chip) {
                std::uint32_t *row = &counts[chip * slots];
                owner[chip] = {ChipOwner::Other};
                if (below(100) >= busy_pct) {
                    owner[chip] = {ChipOwner::Idle};
                    continue;
                }
                switch (below(3)) {
                  case 0: { // one host I/O alone
                    const TagId tag = draw_tag();
                    row[tagSlot(tag)] = count();
                    owner[chip] = {ChipOwner::OneTag, tag};
                    break;
                  }
                  case 1: // GC / parity work, maybe beside a host I/O
                    row[0] = count();
                    if (below(2) == 0)
                        row[tagSlot(draw_tag())] = count();
                    break;
                  default: { // several host I/Os
                    const TagId a = draw_tag();
                    const auto b = static_cast<TagId>(
                        (a + 1 + below(tags - 1)) % tags);
                    row[tagSlot(a)] = count();
                    row[tagSlot(b)] = count();
                    break;
                  }
                }
            }
            for (auto &z : hazard)
                z = below(100) < hazard_pct ? 1 : 0;

            MemoryRequest *expected = queueWalkPas(h.ctx, others);
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
