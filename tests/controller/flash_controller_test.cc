/**
 * @file
 * Unit tests for the flash controller's transaction building and
 * execution: coalescing, R/B exclusivity, channel phases, GC priority.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "controller/flash_backend.hh"
#include "controller/soft_decoder.hh"
#include "flash/chip.hh"
#include "flash/fault_model.hh"
#include "sim/event_queue.hh"

namespace spk
{
namespace
{

struct Fixture
{
    FlashGeometry geo;
    EventQueue events;
    std::vector<MemoryRequest *> completed;
    Slab<MemoryRequest> arena;
    std::unique_ptr<FlashBackend> ctrl;
    std::vector<std::unique_ptr<MemoryRequest>> pool;

    explicit Fixture(Tick window = 1000,
                     const FaultModel *faults = nullptr,
                     SoftDecoder *decoder = nullptr)
    {
        geo.numChannels = 1;
        geo.chipsPerChannel = 2;
        geo.diesPerChip = 2;
        geo.planesPerDie = 2;
        ctrl = std::make_unique<FlashBackend>(
            events, geo, FlashTiming{}, window, arena,
            [this](MemoryRequest *r) { completed.push_back(r); },
            faults, decoder);
    }

    const FlashChip &chip(std::uint32_t i) const
    {
        return *ctrl->chips()[i];
    }

    const Channel &channel() const { return *ctrl->channels()[0]; }

    MemoryRequest *
    make(FlashOp op, std::uint32_t chip, std::uint32_t die,
         std::uint32_t plane, std::uint32_t page, std::uint32_t block = 0)
    {
        auto req = std::make_unique<MemoryRequest>();
        req->id = pool.size();
        req->op = op;
        req->addr.chip = chip;
        req->addr.die = die;
        req->addr.plane = plane;
        req->addr.block = block;
        req->addr.page = page;
        req->translated = true;
        req->composed = true;
        pool.push_back(std::move(req));
        return pool.back().get();
    }
};

TEST(FlashController, SingleRequestCompletes)
{
    Fixture f;
    auto *req = f.make(FlashOp::Read, 0, 0, 0, 3);
    f.ctrl->commit(req);
    EXPECT_EQ(f.ctrl->outstanding(0), 1u);
    f.events.run();
    ASSERT_EQ(f.completed.size(), 1u);
    EXPECT_EQ(f.completed[0], req);
    EXPECT_GT(req->finishedAt, req->startedAt);
    EXPECT_TRUE(f.ctrl->drained());
    EXPECT_EQ(f.ctrl->stats().transactions, 1u);
}

TEST(FlashController, CoalescesWithinDecisionWindow)
{
    Fixture f;
    // Four requests to chip 0: 2 dies x 2 planes, same page offset.
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 0, 5, 0));
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 1, 5, 1));
    f.ctrl->commit(f.make(FlashOp::Read, 0, 1, 0, 7, 2));
    f.ctrl->commit(f.make(FlashOp::Read, 0, 1, 1, 7, 3));
    f.events.run();
    EXPECT_EQ(f.completed.size(), 4u);
    EXPECT_EQ(f.ctrl->stats().transactions, 1u);
    EXPECT_EQ(f.chip(0).stats().txnPerClass[3], 1u); // PAL3
}

TEST(FlashController, IncompatiblePagesSplitTransactions)
{
    Fixture f;
    // Same die, same plane -> can never share a transaction.
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 0, 5));
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 0, 6));
    f.events.run();
    EXPECT_EQ(f.ctrl->stats().transactions, 2u);
}

TEST(FlashController, MixedOpsNeverCoalesce)
{
    Fixture f;
    f.ctrl->commit(f.make(FlashOp::Read, 0, 0, 0, 5));
    f.ctrl->commit(f.make(FlashOp::Program, 0, 0, 1, 5));
    f.events.run();
    EXPECT_EQ(f.ctrl->stats().transactions, 2u);
}

TEST(FlashController, RbExclusivityPerChip)
{
    Fixture f(0 /* no decision window */);
    auto *a = f.make(FlashOp::Read, 0, 0, 0, 1);
    f.ctrl->commit(a);
    f.events.step(); // launch event
    // While chip 0 is busy, committing more work must not start it.
    auto *b = f.make(FlashOp::Read, 0, 1, 0, 2);
    f.ctrl->commit(b);
    EXPECT_TRUE(f.chip(0).busy());
    f.events.run();
    EXPECT_EQ(f.completed.size(), 2u);
    // Second transaction started only after the first finished.
    EXPECT_GE(b->startedAt, a->finishedAt);
}

TEST(FlashController, IndependentChipsRunConcurrently)
{
    Fixture f;
    auto *a = f.make(FlashOp::Read, 0, 0, 0, 1);
    auto *b = f.make(FlashOp::Read, 1, 0, 0, 1);
    f.ctrl->commit(a);
    f.ctrl->commit(b);
    f.events.run();
    // Both chips execute concurrently: chip 1's transaction begins
    // while chip 0's is still in flight.
    EXPECT_LT(b->startedAt, a->finishedAt);
    EXPECT_LT(a->startedAt, b->finishedAt);
}

TEST(FlashController, ChannelSerializesBusPhases)
{
    Fixture f;
    auto *a = f.make(FlashOp::Program, 0, 0, 0, 0);
    auto *b = f.make(FlashOp::Program, 1, 0, 0, 0);
    f.ctrl->commit(a);
    f.ctrl->commit(b);
    f.events.run();
    // Both programs moved a page over the same bus: held time covers
    // two transfers and there was some contention or offset.
    const Tick xfer = FlashTiming{}.transferTime(f.geo.pageSizeBytes);
    EXPECT_GE(f.channel().stats().busHeldTime, 2 * xfer);
    EXPECT_NE(a->startedAt, b->startedAt);
}

TEST(FlashController, FrontCommitJumpsQueue)
{
    Fixture f(0);
    auto *busy = f.make(FlashOp::Read, 0, 0, 0, 1);
    f.ctrl->commit(busy);
    f.events.step(); // chip 0 now busy
    auto *host = f.make(FlashOp::Read, 0, 0, 0, 2);
    auto *gc = f.make(FlashOp::Read, 0, 0, 0, 3);
    gc->owner = RequestOwner::Gc;
    f.ctrl->commit(host);
    f.ctrl->commit(gc, /*front=*/true);
    f.events.run();
    EXPECT_LT(gc->startedAt, host->startedAt);
}

TEST(FlashController, EraseNeverCoalesces)
{
    Fixture f;
    auto *e1 = f.make(FlashOp::Erase, 0, 0, 0, 0, 0);
    auto *e2 = f.make(FlashOp::Erase, 0, 1, 1, 0, 1);
    f.ctrl->commit(e1);
    f.ctrl->commit(e2);
    f.events.run();
    EXPECT_EQ(f.ctrl->stats().transactions, 2u);
}

TEST(FlashController, OutstandingCountsLifecycle)
{
    Fixture f;
    auto *req = f.make(FlashOp::Read, 0, 0, 0, 1);
    req->tag = 2;
    f.ctrl->commit(req);
    EXPECT_EQ(f.ctrl->pendingCount(0), 1u);
    EXPECT_EQ(f.ctrl->outstanding(0), 1u);
    EXPECT_EQ(f.ctrl->ownerOf(0), (ChipOwner{ChipOwner::OneTag, 2}));
    f.events.step(); // launch
    EXPECT_EQ(f.ctrl->pendingCount(0), 0u);
    EXPECT_EQ(f.ctrl->outstanding(0), 1u); // in flight
    EXPECT_EQ(f.ctrl->ownerOf(0), (ChipOwner{ChipOwner::OneTag, 2}));
    f.events.run();
    EXPECT_EQ(f.ctrl->outstanding(0), 0u);
    EXPECT_EQ(f.ctrl->ownerOf(0), ChipOwner{ChipOwner::Idle});
}

TEST(FlashController, OwnerFollowsHostTagsAndGcWork)
{
    Fixture f;
    const ChipOwner idle{ChipOwner::Idle};
    const ChipOwner tag3{ChipOwner::OneTag, 3};
    EXPECT_EQ(f.ctrl->ownerOf(0), idle);

    auto *a = f.make(FlashOp::Read, 0, 0, 0, 1);
    auto *b = f.make(FlashOp::Read, 0, 0, 1, 1);
    a->tag = 3;
    b->tag = 3;
    f.ctrl->commit(a);
    EXPECT_EQ(f.ctrl->ownerOf(0), tag3);
    f.ctrl->commit(b); // the same I/O again: still its chip alone
    EXPECT_EQ(f.ctrl->ownerOf(0), tag3);
    EXPECT_EQ(f.ctrl->ownerOf(1), idle);

    // GC work ahead of the host I/O: the chip is no one I/O's any more.
    auto *gc = f.make(FlashOp::Read, 0, 1, 0, 2);
    gc->owner = RequestOwner::Gc;
    f.ctrl->commit(gc, /*front=*/true);
    EXPECT_EQ(f.ctrl->ownerOf(0), ChipOwner{ChipOwner::Other});

    // GC work alone is not a host I/O either (slot 0).
    auto *gc2 = f.make(FlashOp::Read, 1, 0, 0, 2);
    gc2->owner = RequestOwner::Gc;
    f.ctrl->commit(gc2, /*front=*/true);
    EXPECT_EQ(f.ctrl->ownerOf(1), ChipOwner{ChipOwner::Other});

    f.events.run();
    EXPECT_EQ(f.completed.size(), 4u);
    EXPECT_EQ(f.ctrl->ownerOf(0), idle);
    EXPECT_EQ(f.ctrl->ownerOf(1), idle);
}

TEST(FlashController, OwnerHeldThroughReadRetryAndSoftDecode)
{
    FlashGeometry geo;
    FaultConfig cfg;
    cfg.readHardRate = 1.0; // every sense fails: retry, then decode
    cfg.retryLadderSteps = 1;
    cfg.softDecodeEnabled = true;
    cfg.softDecodeFailRate = 0.0;
    FaultModel faults(cfg, 1, geo);
    SoftDecoder decoder;
    Fixture f(1000, &faults, &decoder);
    const ChipOwner tag5{ChipOwner::OneTag, 5};

    auto *req = f.make(FlashOp::Read, 0, 0, 0, 1);
    req->tag = 5;
    f.ctrl->commit(req);
    EXPECT_EQ(f.ctrl->ownerOf(0), tag5);

    // First sense fails: the read is requeued at the head of its chip
    // and the chip stays the I/O's.
    while (f.ctrl->stats().readRetries == 0)
        ASSERT_TRUE(f.events.step());
    EXPECT_EQ(f.ctrl->pendingCount(0), 1u);
    EXPECT_EQ(f.ctrl->ownerOf(0), tag5);

    // Ladder exhausted: off the chip, in the decoder, still owned.
    while (decoder.stats.invocations == 0)
        ASSERT_TRUE(f.events.step());
    EXPECT_EQ(f.ctrl->outstanding(0), 0u);
    EXPECT_TRUE(f.completed.empty());
    EXPECT_EQ(f.ctrl->ownerOf(0), tag5);

    f.events.run();
    ASSERT_EQ(f.completed.size(), 1u);
    EXPECT_FALSE(req->faultFailed);
    EXPECT_EQ(f.ctrl->ownerOf(0), ChipOwner{ChipOwner::Idle});
}

TEST(FlashControllerDeathTest, CompletingAnUncountedRequestDies)
{
    Fixture f;
    auto *req = f.make(FlashOp::Read, 0, 0, 0, 1);
    req->tag = 1;
    f.ctrl->commit(req);
    // Its I/O changes under the controller: the completion finds no
    // outstanding request of tag 2 on the chip.
    req->tag = 2;
    EXPECT_DEATH(f.events.run(), "not outstanding");
}

TEST(FlashController, UntranslatedCommitDies)
{
    Fixture f;
    MemoryRequest req;
    EXPECT_DEATH(f.ctrl->commit(&req), "untranslated");
}

} // namespace
} // namespace spk
