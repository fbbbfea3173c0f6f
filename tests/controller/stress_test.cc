/**
 * @file
 * Randomized stress tests of the flash controller: commit storms with
 * arbitrary addresses must preserve the structural invariants (every
 * commit completes exactly once, R/B exclusivity, channel accounting,
 * coalescing legality).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "controller/flash_backend.hh"
#include "flash/chip.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace spk
{
namespace
{

struct StressCase
{
    std::uint32_t chipsPerChannel;
    std::uint32_t numRequests;
    double writeFraction;
    Tick decisionWindow;
    std::uint64_t seed;
};

class ControllerStress : public ::testing::TestWithParam<StressCase>
{
};

TEST_P(ControllerStress, InvariantsHold)
{
    const auto sc = GetParam();

    FlashGeometry geo;
    geo.numChannels = 1;
    geo.chipsPerChannel = sc.chipsPerChannel;
    geo.diesPerChip = 2;
    geo.planesPerDie = 4;

    EventQueue events;

    // Brute-force owner model: outstanding requests per (chip, tag
    // slot), kept from the commits and completions.
    constexpr std::size_t kSlots = 9; // slot 0 + tags 0..7
    std::vector<std::uint32_t> live(sc.chipsPerChannel * kSlots);
    const auto liveOf = [&](const MemoryRequest *req) -> std::uint32_t & {
        return live[req->addr.chip * kSlots + tagSlot(req->tag)];
    };
    const auto expectedOwner = [&](std::uint32_t c) {
        std::uint32_t held = 0;
        std::size_t last = 0;
        for (std::size_t slot = 0; slot < kSlots; ++slot) {
            if (live[c * kSlots + slot] > 0) {
                ++held;
                last = slot;
            }
        }
        if (held == 0)
            return ChipOwner{ChipOwner::Idle};
        if (held == 1 && last != 0)
            return ChipOwner{ChipOwner::OneTag,
                             static_cast<TagId>(last - 1)};
        return ChipOwner{ChipOwner::Other};
    };

    std::map<const MemoryRequest *, int> completions;
    Slab<MemoryRequest> arena;
    FlashBackend ctrl(
        events, geo, FlashTiming{}, sc.decisionWindow, arena,
        [&](MemoryRequest *req) {
            completions[req]++;
            liveOf(req)--;
        });

    Rng rng(sc.seed);
    std::vector<std::unique_ptr<MemoryRequest>> pool;
    for (std::uint32_t i = 0; i < sc.numRequests; ++i) {
        auto req = std::make_unique<MemoryRequest>();
        req->id = i;
        req->op = rng.nextBool(sc.writeFraction) ? FlashOp::Program
                                                 : FlashOp::Read;
        req->addr.chip =
            static_cast<std::uint32_t>(rng.nextBelow(sc.chipsPerChannel));
        req->addr.die =
            static_cast<std::uint32_t>(rng.nextBelow(geo.diesPerChip));
        req->addr.plane =
            static_cast<std::uint32_t>(rng.nextBelow(geo.planesPerDie));
        req->addr.block = static_cast<std::uint32_t>(rng.nextBelow(16));
        req->addr.page = static_cast<std::uint32_t>(rng.nextBelow(8));
        req->tag = static_cast<TagId>(rng.nextBelow(8));
        req->translated = true;
        req->composed = true;
        pool.push_back(std::move(req));
    }

    // Commit in random bursts interleaved with event processing.
    std::size_t next = 0;
    while (next < pool.size()) {
        const std::size_t burst =
            std::min<std::size_t>(1 + rng.nextBelow(8),
                                  pool.size() - next);
        for (std::size_t i = 0; i < burst; ++i) {
            liveOf(pool[next].get())++;
            ctrl.commit(pool[next++].get());
        }
        events.run(rng.nextBelow(12));
        for (std::uint32_t c = 0; c < sc.chipsPerChannel; ++c)
            ASSERT_EQ(ctrl.ownerOf(c), expectedOwner(c)) << "chip " << c;
    }
    events.run();

    // 1. Every request completed exactly once.
    ASSERT_EQ(completions.size(), pool.size());
    for (const auto &[req, count] : completions)
        EXPECT_EQ(count, 1) << "request completed " << count << " times";

    // 2. Controller fully drained; bookkeeping zeroed.
    EXPECT_TRUE(ctrl.drained());
    for (std::uint32_t c = 0; c < sc.chipsPerChannel; ++c) {
        EXPECT_EQ(ctrl.outstanding(c), 0u);
        EXPECT_EQ(ctrl.ownerOf(c), ChipOwner{ChipOwner::Idle});
    }

    // 3. Per-request timestamps are ordered.
    for (const auto &req : pool) {
        EXPECT_GE(req->startedAt, req->committedAt);
        EXPECT_GT(req->finishedAt, req->startedAt);
    }

    // 4. Served counts match; transactions never exceed requests.
    EXPECT_EQ(ctrl.stats().requestsServed, pool.size());
    EXPECT_LE(ctrl.stats().transactions, pool.size());
    EXPECT_GT(ctrl.stats().transactions, 0u);

    // 5. Chip accounting: cellTime sums per-die durations, which
    //    overlap under die interleaving -- so busy wall-time bounds
    //    it only after dividing by the die count. FLP class counters
    //    sum to the transaction count.
    for (const auto &chip : ctrl.chips()) {
        const auto &cs = chip->stats();
        EXPECT_GE(cs.busyTime, cs.cellTime / geo.diesPerChip);
        EXPECT_LE(cs.cellTime,
                  cs.busyTime * geo.diesPerChip);
        std::uint64_t txn_sum = 0;
        std::uint64_t req_sum = 0;
        for (int i = 0; i < 4; ++i) {
            txn_sum += cs.txnPerClass[i];
            req_sum += cs.reqPerClass[i];
        }
        EXPECT_EQ(txn_sum, cs.transactions);
        EXPECT_EQ(req_sum, cs.requestsServed);
    }

    // 6. Channel accounting is self-consistent.
    const Channel &channel = *ctrl.channels()[0];
    EXPECT_GT(channel.stats().busHeldTime, 0u);
    EXPECT_LE(channel.stats().busHeldTime, events.now());
}

INSTANTIATE_TEST_SUITE_P(
    Storms, ControllerStress,
    ::testing::Values(StressCase{1, 64, 0.5, 1000, 11},
                      StressCase{2, 128, 0.3, 1000, 12},
                      StressCase{4, 256, 0.5, 0, 13},
                      StressCase{8, 256, 0.8, 3000, 14},
                      StressCase{8, 512, 0.0, 1000, 15},
                      StressCase{8, 512, 1.0, 1000, 16},
                      StressCase{16, 512, 0.5, 500, 17}));

} // namespace
} // namespace spk
