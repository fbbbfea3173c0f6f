/**
 * @file
 * Unit tests for the flash back end: chip -> channel routing,
 * placement and background issue ahead of host work, on a geometry
 * with more channels than chips per channel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "controller/flash_backend.hh"
#include "flash/chip.hh"
#include "sim/event_queue.hh"

namespace spk
{
namespace
{

struct Fixture
{
    FlashGeometry geo;
    EventQueue events;
    Slab<MemoryRequest> arena;
    std::unique_ptr<FlashBackend> backend;
    std::vector<MemoryRequest *> completed;

    Fixture()
    {
        geo.numChannels = 3;
        geo.chipsPerChannel = 2;
        geo.diesPerChip = 2;
        geo.planesPerDie = 2;
        geo.blocksPerPlane = 4;
        geo.pagesPerBlock = 4;
        backend = std::make_unique<FlashBackend>(
            events, geo, FlashTiming{}, 0, arena,
            [this](MemoryRequest *r) { completed.push_back(r); });
    }

    /** A composed host read of I/O @p tag placed on @p ppn. */
    MemoryRequest *
    hostRead(Ppn ppn, TagId tag)
    {
        MemoryRequest *req = backend->acquire();
        req->tag = tag;
        req->composed = true;
        backend->place(*req, ppn);
        return req;
    }

    /** First page of global chip @p chip. */
    Ppn firstPageOf(std::uint32_t chip) const
    {
        return Ppn{chip} * geo.pagesPerChip();
    }
};

TEST(FlashBackend, ChipsShareOnlyTheirOwnChannelBus)
{
    // 3 channels x 2 chips per channel: chip k sits on channel k % 3,
    // so chips 0 and 3 share channel 0 and chip 1 is alone on
    // channel 1.
    Fixture f;
    ASSERT_NE(f.geo.numChannels, f.geo.chipsPerChannel);
    MemoryRequest *reqs[3];
    const std::uint32_t on_chip[3] = {0, 3, 1};
    for (int i = 0; i < 3; ++i) {
        reqs[i] = f.backend->acquire();
        reqs[i]->op = FlashOp::Program;
        reqs[i]->composed = true;
        f.backend->place(*reqs[i], f.firstPageOf(on_chip[i]));
        f.backend->commit(reqs[i]);
    }
    f.events.run();
    ASSERT_EQ(f.completed.size(), 3u);

    // Chips 0 and 3: one bus, so the data-in phases serialize.
    const Tick xfer = FlashTiming{}.transferTime(f.geo.pageSizeBytes);
    const Tick first = std::min(reqs[0]->startedAt, reqs[1]->startedAt);
    const Tick second = std::max(reqs[0]->startedAt, reqs[1]->startedAt);
    EXPECT_GE(second, first + xfer);
    // Chips 0 and 1: different buses, so they overlap.
    EXPECT_EQ(reqs[2]->startedAt, reqs[0]->startedAt);
    EXPECT_LT(reqs[2]->startedAt, reqs[1]->startedAt);

    const auto &channels = f.backend->channels();
    EXPECT_EQ(channels[0]->stats().grants, 2u);
    EXPECT_EQ(channels[1]->stats().grants, 1u);
    EXPECT_EQ(channels[2]->stats().grants, 0u);
}

TEST(FlashBackend, PlaceAgreesWithGeometryForEveryPage)
{
    Fixture f;
    for (Ppn ppn = 0; ppn < f.geo.totalPages(); ++ppn) {
        MemoryRequest req;
        f.backend->place(req, ppn);
        const PhysAddr want = f.geo.decompose(ppn);
        EXPECT_EQ(req.ppn, ppn);
        EXPECT_EQ(req.addr.chip, f.geo.chipOf(ppn));
        EXPECT_EQ(req.addr.chip, want.chip);
        EXPECT_EQ(req.addr.die, want.die);
        EXPECT_EQ(req.addr.plane, want.plane);
        EXPECT_EQ(req.addr.block, want.block);
        EXPECT_EQ(req.addr.page, want.page);
        EXPECT_TRUE(req.translated);
    }
}

TEST(FlashBackend, OwnerOfNamesTheOneOwningIo)
{
    Fixture f;
    const std::uint32_t chip = 4;
    const Ppn base = f.firstPageOf(chip);
    EXPECT_EQ(f.backend->ownerOf(chip), ChipOwner{ChipOwner::Idle});
    f.backend->commit(f.hostRead(base, 1));
    f.backend->commit(f.hostRead(base + 1, 1));
    EXPECT_EQ(f.backend->outstanding(chip), 2u);
    EXPECT_EQ(f.backend->ownerOf(chip),
              (ChipOwner{ChipOwner::OneTag, 1}));
    f.backend->commit(f.hostRead(base + 2, 2));
    EXPECT_EQ(f.backend->outstanding(chip), 3u);
    EXPECT_EQ(f.backend->ownerOf(chip), ChipOwner{ChipOwner::Other});
    // Every other chip, on this channel or another, stays idle.
    for (std::uint32_t c = 0; c < f.geo.numChips(); ++c) {
        if (c != chip) {
            EXPECT_EQ(f.backend->ownerOf(c), ChipOwner{ChipOwner::Idle});
        }
    }
    f.events.run();
    EXPECT_EQ(f.backend->ownerOf(chip), ChipOwner{ChipOwner::Idle});
}

TEST(FlashBackend, BackgroundIssueRunsAheadOfQueuedHostWork)
{
    Fixture f;
    const std::uint32_t chip = 3;
    const Ppn base = f.firstPageOf(chip);
    f.backend->commit(f.hostRead(base, 0));
    f.events.step(); // the chip is now busy with the first read
    MemoryRequest *host = f.hostRead(base + 1, 1);
    f.backend->commit(host);

    MemoryRequest *gc = f.backend->issue(RequestOwner::Gc, 1ull << 60,
                                         7, FlashOp::Read, base + 2);
    EXPECT_EQ(gc->owner, RequestOwner::Gc);
    EXPECT_EQ(gc->id, 1ull << 60);
    EXPECT_EQ(gc->job, 7u);
    EXPECT_EQ(gc->tag, kInvalidTag);
    EXPECT_EQ(gc->addr.chip, chip);
    EXPECT_TRUE(gc->composed);
    EXPECT_EQ(f.backend->outstanding(chip), 3u);
    EXPECT_EQ(f.backend->ownerOf(chip), ChipOwner{ChipOwner::Other});

    f.events.run();
    EXPECT_LT(gc->startedAt, host->startedAt);
    for (MemoryRequest *req : f.completed)
        f.backend->release(req);
    EXPECT_EQ(f.arena.liveCount(), 0u);
}

} // namespace
} // namespace spk
