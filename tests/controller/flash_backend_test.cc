/**
 * @file
 * Unit tests for the flash back end: chip routing, placement and
 * background issue ahead of host work, on a multi-channel geometry.
 */

#include <gtest/gtest.h>

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
    std::vector<std::unique_ptr<FlashChip>> chips;
    std::vector<std::unique_ptr<Channel>> channels;
    FlashBackend::Controllers controllers;
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
        for (std::uint32_t i = 0; i < geo.numChips(); ++i)
            chips.push_back(std::make_unique<FlashChip>(i, geo));
        for (std::uint32_t c = 0; c < geo.numChannels; ++c) {
            channels.push_back(std::make_unique<Channel>(c));
            std::vector<FlashChip *> channel_chips;
            for (std::uint32_t off = 0; off < geo.chipsPerChannel; ++off)
                channel_chips.push_back(
                    chips[geo.chipIndex(c, off)].get());
            controllers.push_back(std::make_unique<FlashController>(
                events, *channels[c], channel_chips, FlashTiming{},
                geo.pageSizeBytes, 0,
                [this](MemoryRequest *r) { completed.push_back(r); }));
        }
        backend =
            std::make_unique<FlashBackend>(geo, controllers, arena);
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

TEST(FlashBackend, EveryChipRoutesToItsChannelController)
{
    Fixture f;
    for (std::uint32_t chip = 0; chip < f.geo.numChips(); ++chip) {
        MemoryRequest *req = f.hostRead(f.firstPageOf(chip), 0);
        f.backend->commit(req);
        EXPECT_EQ(f.backend->outstanding(chip), 1u);
        const std::uint32_t channel = f.geo.channelOfChip(chip);
        const std::uint32_t offset = f.geo.chipOffsetOfChip(chip);
        for (std::uint32_t c = 0; c < f.geo.numChannels; ++c) {
            for (std::uint32_t off = 0; off < f.geo.chipsPerChannel;
                 ++off) {
                const bool home = c == channel && off == offset;
                EXPECT_EQ(f.controllers[c]->outstanding(off),
                          home ? 1u : 0u)
                    << "chip " << chip << " seen on channel " << c
                    << " offset " << off;
            }
        }
        f.events.run();
        ASSERT_EQ(f.completed.back(), req);
        EXPECT_EQ(f.backend->outstanding(chip), 0u);
    }
}

TEST(FlashBackend, PlaceAgreesWithGeometryForEveryPage)
{
    Fixture f;
    for (Ppn ppn = 0; ppn < f.geo.totalPages(); ++ppn) {
        MemoryRequest req;
        f.backend->place(req, ppn);
        const PhysAddr want = f.geo.decompose(ppn);
        EXPECT_EQ(req.ppn, ppn);
        EXPECT_EQ(req.chip, f.geo.chipOf(ppn));
        EXPECT_EQ(req.addr.channel, want.channel);
        EXPECT_EQ(req.addr.chipInChannel, want.chipInChannel);
        EXPECT_EQ(req.addr.die, want.die);
        EXPECT_EQ(req.addr.plane, want.plane);
        EXPECT_EQ(req.addr.block, want.block);
        EXPECT_EQ(req.addr.page, want.page);
        EXPECT_TRUE(req.translated);
    }
}

TEST(FlashBackend, OutstandingOthersExcludesTheAskingIo)
{
    Fixture f;
    const std::uint32_t chip = 4;
    const Ppn base = f.firstPageOf(chip);
    f.backend->commit(f.hostRead(base, 1));
    f.backend->commit(f.hostRead(base + 1, 1));
    f.backend->commit(f.hostRead(base + 2, 2));
    EXPECT_EQ(f.backend->outstanding(chip), 3u);
    EXPECT_EQ(f.backend->outstandingOthers(chip, 1), 1u);
    EXPECT_EQ(f.backend->outstandingOthers(chip, 2), 2u);
    EXPECT_EQ(f.backend->outstandingOthers(chip, 3), 3u);
    f.events.run();
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
    EXPECT_EQ(gc->chip, chip);
    EXPECT_TRUE(gc->composed);
    EXPECT_EQ(f.backend->outstanding(chip), 3u);

    f.events.run();
    EXPECT_LT(gc->startedAt, host->startedAt);
    for (MemoryRequest *req : f.completed)
        f.backend->release(req);
    EXPECT_EQ(f.arena.liveCount(), 0u);
}

TEST(FlashBackendDeathTest, ControllerCountMustMatchChannels)
{
    Fixture f;
    f.controllers.pop_back();
    EXPECT_DEATH(
        { FlashBackend backend(f.geo, f.controllers, f.arena); },
        "one flash controller per channel");
}

} // namespace
} // namespace spk
