/**
 * @file
 * Unit tests for the O(1) FUA barrier: it must answer exactly what a
 * walk of the device queue answers, for any mix of FUA I/Os and any
 * retire order the barrier allows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sched/fua_barrier.hh"

namespace spk
{
namespace
{

/**
 * Reference barrier: walk the queue oldest first. An FUA I/O waits
 * for everything older; nothing younger than an FUA I/O starts.
 */
bool
queueWalkAdmits(const RingDeque<IoRequest *> &queue, TagId tag)
{
    for (const IoRequest *io : queue) {
        if (io->tag == tag)
            return !io->fua || io == queue.front();
        if (io->fua)
            return false; // older FUA I/O still incomplete
    }
    return true;
}

TEST(FuaBarrier, FuaWaitsForOlderAndBlocksYounger)
{
    std::vector<IoRequest> ios(3);
    RingDeque<IoRequest *> queue;
    FuaBarrier barrier;
    for (TagId t = 0; t < 3; ++t) {
        ios[t].tag = t;
        ios[t].fua = t == 1;
        queue.push_back(&ios[t]);
        barrier.enqueued(ios[t]);
    }
    EXPECT_TRUE(barrier.admits(ios[0], queue.front()));
    EXPECT_FALSE(barrier.admits(ios[1], queue.front())); // waits for 0
    EXPECT_FALSE(barrier.admits(ios[2], queue.front())); // behind FUA

    queue.pop_front();
    barrier.retired(ios[0]);
    EXPECT_TRUE(barrier.admits(ios[1], queue.front()));
    EXPECT_FALSE(barrier.admits(ios[2], queue.front()));

    queue.pop_front();
    barrier.retired(ios[1]);
    EXPECT_TRUE(barrier.admits(ios[2], queue.front()));
}

TEST(FuaBarrier, OutOfOrderFuaRetireDies)
{
    std::vector<IoRequest> ios(2);
    FuaBarrier barrier;
    for (TagId t = 0; t < 2; ++t) {
        ios[t].tag = t;
        ios[t].fua = true;
        barrier.enqueued(ios[t]);
    }
    EXPECT_DEATH(barrier.retired(ios[1]), "out of arrival order");
}

TEST(FuaBarrier, MatchesQueueWalkOnRandomQueues)
{
    std::mt19937_64 rng(2026);
    const auto below = [&rng](std::uint64_t n) { return rng() % n; };
    constexpr TagId kTags = 16;
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<IoRequest> slots(kTags);
        std::vector<TagId> free_tags;
        for (TagId t = 0; t < kTags; ++t)
            free_tags.push_back(t);
        RingDeque<IoRequest *> queue;
        FuaBarrier barrier;
        const auto fua_pct = below(60);
        const auto enqueue_pct = 30 + below(50);
        for (int step = 0; step < 200; ++step) {
            const bool enqueue =
                !free_tags.empty() &&
                (queue.empty() || below(100) < enqueue_pct);
            if (enqueue) {
                const auto pick = below(free_tags.size());
                const TagId tag = free_tags[pick];
                free_tags.erase(free_tags.begin() +
                                static_cast<std::ptrdiff_t>(pick));
                IoRequest &io = slots[tag];
                io.tag = tag;
                io.fua = below(100) < fua_pct;
                queue.push_back(&io);
                barrier.enqueued(io);
            } else {
                // Any I/O may retire, except that FUA I/Os leave in
                // arrival order: a younger one cannot start before
                // the older one finishes.
                auto it = queue.begin() +
                          static_cast<std::ptrdiff_t>(below(queue.size()));
                if ((*it)->fua)
                    it = std::find_if(queue.begin(), queue.end(),
                                      [](const IoRequest *io) {
                                          return io->fua;
                                      });
                IoRequest *io = *it;
                queue.erase(it);
                barrier.retired(*io);
                free_tags.push_back(io->tag);
            }
            for (const IoRequest *io : queue) {
                ASSERT_EQ(barrier.admits(*io, queue.front()),
                          queueWalkAdmits(queue, io->tag))
                    << "trial " << trial << " step " << step << " tag "
                    << io->tag;
            }
        }
    }
}

} // namespace
} // namespace spk
