/**
 * @file
 * Unit tests for the Sprinkler scheduler: RIOS traversal order, FARO
 * batch selection (overlap depth + connectivity), over-commitment
 * windows and readdressing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "flash/transaction.hh"
#include "sched/sprinkler.hh"
#include "tests/sched/sched_test_util.hh"

namespace spk
{
namespace
{

using test::SchedHarness;

/**
 * Reference SPK1: FARO over the head of the queue by walking every
 * page of the first four I/Os with uncomposed requests and bucketing
 * the schedulable ones by chip, as the scheduler did before it read
 * the per-(chip, tag) index. The set choice is FARO's: the largest
 * coalescable set per operation, ties to connectivity, then to the
 * older seed; across chips the deepest set wins, then the older seed.
 */
class PageWalkSpk1
{
  public:
    explicit PageWalkSpk1(std::uint32_t window) : window_(window) {}

    MemoryRequest *
    next(const SchedulerContext &ctx)
    {
        while (batchPos_ < batch_.size()) {
            MemoryRequest *req = batch_[batchPos_++];
            if (!req->composed && ctx.view->schedulable(*req))
                return req;
        }
        std::vector<std::vector<MemoryRequest *>> per_chip(
            ctx.geo->numChips());
        std::size_t seen = 0;
        for (IoRequest *io : *ctx.queue) {
            if (io->allComposed())
                continue;
            for (MemoryRequest *req : io->pages) {
                if (req->composed || req->composing ||
                    !ctx.view->schedulable(*req))
                    continue;
                per_chip[req->addr.chip].push_back(req);
            }
            if (++seen >= 4)
                break;
        }
        std::vector<MemoryRequest *> best;
        for (std::uint32_t chip = 0; chip < per_chip.size(); ++chip) {
            if (per_chip[chip].empty() ||
                ctx.view->outstanding(chip) >= window_)
                continue;
            const auto set = bestSet(per_chip[chip], chip);
            if (set.empty())
                continue;
            if (set.size() > best.size() ||
                (set.size() == best.size() &&
                 set.front()->id < best.front()->id))
                best = set;
        }
        if (best.empty())
            return nullptr;
        batch_.assign(best.begin() + 1, best.end());
        batchPos_ = 0;
        return best.front();
    }

  private:
    std::vector<MemoryRequest *>
    bestSet(const std::vector<MemoryRequest *> &cands,
            std::uint32_t chip) const
    {
        const auto greedy = [&](FlashOp op) {
            std::vector<MemoryRequest *> set;
            FlashTransaction txn(op, chip);
            for (MemoryRequest *req : cands) {
                if (req->op != op || set.size() >= window_)
                    continue;
                if (canCoalesce(txn, *req)) {
                    txn.add(req);
                    set.push_back(req);
                }
            }
            return set;
        };
        const auto connectivity =
            [&](const std::vector<MemoryRequest *> &set) {
                std::size_t best = 0;
                for (const MemoryRequest *a : set) {
                    best = std::max<std::size_t>(
                        best,
                        std::count_if(cands.begin(), cands.end(),
                                      [a](const MemoryRequest *b) {
                                          return b->tag == a->tag;
                                      }));
                }
                return best;
            };
        const auto reads = greedy(FlashOp::Read);
        const auto writes = greedy(FlashOp::Program);
        if (reads.size() != writes.size())
            return reads.size() > writes.size() ? reads : writes;
        if (reads.empty())
            return {};
        const auto conn_r = connectivity(reads);
        const auto conn_w = connectivity(writes);
        if (conn_r != conn_w)
            return conn_r > conn_w ? reads : writes;
        return reads.front()->id <= writes.front()->id ? reads : writes;
    }

    std::uint32_t window_;
    std::vector<MemoryRequest *> batch_;
    std::size_t batchPos_ = 0;
};

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

TEST(Sprinkler, Spk1MatchesPageWalkOnRandomQueues)
{
    std::mt19937_64 rng(2026);
    const auto below = [&rng](std::uint64_t n) { return rng() % n; };
    for (int trial = 0; trial < 300; ++trial) {
        SchedHarness h;
        const std::uint32_t chips = h.geo.numChips();
        const auto window = static_cast<std::uint32_t>(1 + below(8));
        std::vector<MemoryRequest *> all;
        const auto n_ios = 1 + below(12);
        for (std::uint64_t i = 0; i < n_ios; ++i) {
            std::vector<std::uint32_t> targets(1 + below(10));
            for (auto &chip : targets)
                chip = static_cast<std::uint32_t>(below(chips));
            IoRequest *io = h.addIo(targets, below(2) == 0);
            for (MemoryRequest *req : io->pages) {
                // Scatter the slots so sets coalesce only sometimes.
                req->addr.die = static_cast<std::uint32_t>(below(2));
                req->addr.plane = static_cast<std::uint32_t>(below(2));
                req->addr.block = static_cast<std::uint32_t>(below(3));
                req->addr.page = static_cast<std::uint32_t>(below(2));
                all.push_back(req);
            }
        }

        std::vector<std::uint8_t> hazard(h.nextReqId);
        h.view.schedulableOverride = [&](const MemoryRequest &req) {
            return hazard[req.id] == 0;
        };

        SprinklerScheduler spk1(false, true, window);
        PageWalkSpk1 reference(window);
        std::size_t composed = 0;
        for (int step = 0; composed < all.size() && step < 600; ++step) {
            // Readdressing: uncomposed reads move to another chip and
            // rejoin their lists at the back, out of page order.
            for (MemoryRequest *req : all) {
                if (!req->composed && req->op == FlashOp::Read &&
                    below(100) < 8)
                    h.retarget(req,
                               static_cast<std::uint32_t>(below(chips)));
            }
            const auto busy_pct = below(100);
            const auto hazard_pct = below(50);
            for (std::uint32_t chip = 0; chip < chips; ++chip) {
                h.view.outstandingMap[chip] =
                    below(100) < busy_pct
                        ? static_cast<std::uint32_t>(below(window + 2))
                        : 0;
            }
            for (auto &z : hazard)
                z = below(100) < hazard_pct ? 1 : 0;

            MemoryRequest *expected = reference.next(h.ctx);
            MemoryRequest *got = spk1.next(h.ctx);
            ASSERT_EQ(got, expected)
                << "trial " << trial << " step " << step;
            if (got != nullptr) {
                h.compose(got);
                ++composed;
            }
        }
        EXPECT_EQ(composed, all.size()) << "trial " << trial;
    }
}

TEST(Sprinkler, EmptyQueueReturnsNull)
{
    SchedHarness h;
    SprinklerScheduler spk3(true, true, 8);
    EXPECT_EQ(spk3.next(h.ctx), nullptr);
}

} // namespace
} // namespace spk
