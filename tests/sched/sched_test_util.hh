/**
 * @file
 * Shared helpers for scheduler unit tests: build fake queues of I/O
 * requests with hand-placed physical targets and a controllable
 * SchedulerContext.
 */

#ifndef SPK_TESTS_SCHED_TEST_UTIL_HH
#define SPK_TESTS_SCHED_TEST_UTIL_HH

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sched/scheduler.hh"

namespace spk
{
namespace test
{

/**
 * Hand-controllable SchedulerView: outstanding counts come from a
 * test-owned map, and individual queries can be overridden per test
 * with std::function hooks (test-only convenience; the production
 * view in the NVMHC is closure-free).
 */
struct TestSchedulerView : SchedulerView
{
    std::map<std::uint32_t, std::uint32_t> outstandingMap;
    std::function<ChipOwner(std::uint32_t)> ownerOverride;
    std::function<bool(const MemoryRequest &)> schedulableOverride;

    std::uint32_t
    outstanding(std::uint32_t chip) const override
    {
        const auto it = outstandingMap.find(chip);
        return it == outstandingMap.end() ? 0u : it->second;
    }

    // Tests treat the outstanding map as foreign-I/O work: a chip with
    // outstanding requests is owned by "other" unless a test installs
    // an override.
    ChipOwner
    ownerOf(std::uint32_t chip) const override
    {
        if (ownerOverride)
            return ownerOverride(chip);
        return {outstanding(chip) > 0 ? ChipOwner::Other
                                      : ChipOwner::Idle};
    }

    bool
    schedulable(const MemoryRequest &req) const override
    {
        return schedulableOverride ? schedulableOverride(req) : true;
    }
};

/**
 * A hand-built device queue plus the context schedulers consume. The
 * per-chip pending index is kept the way the NVMHC keeps it: pushed
 * by addIo, unlinked by compose, moved by retarget.
 */
struct SchedHarness
{
    FlashGeometry geo;
    RingDeque<IoRequest *> queue;
    ChipPendingIndex pending;
    std::vector<std::unique_ptr<IoRequest>> storage;
    std::vector<std::unique_ptr<MemoryRequest>> reqStorage;
    TestSchedulerView view;
    SchedulerContext ctx;
    std::uint64_t nextReqId = 0;
    TagId nextTag = 0;

    /** Tags the pending index is sized for (addIo calls per test). */
    static constexpr TagId kMaxTags = 64;

    SchedHarness()
    {
        geo.numChannels = 2;
        geo.chipsPerChannel = 2;
        geo.diesPerChip = 2;
        geo.planesPerDie = 2;
        pending = ChipPendingIndex(geo.numChips(), kMaxTags);
        ctx.geo = &geo;
        ctx.queue = &queue;
        ctx.pending = &pending;
        ctx.view = &view;
    }

    /**
     * Add an I/O whose pages target the given chips in order. Die /
     * plane / page are derived so that same-chip pages of one call sit
     * on different planes with equal page offsets (coalescable).
     */
    IoRequest *
    addIo(const std::vector<std::uint32_t> &chips, bool is_write = false)
    {
        auto io = std::make_unique<IoRequest>();
        io->tag = nextTag++;
        io->isWrite = is_write;
        io->pageCount = static_cast<std::uint32_t>(chips.size());
        io->initBitmap();
        std::map<std::uint32_t, std::uint32_t> per_chip;
        for (std::uint32_t i = 0; i < chips.size(); ++i) {
            auto req = std::make_unique<MemoryRequest>();
            req->id = nextReqId++;
            req->tag = io->tag;
            req->idxInIo = i;
            req->op = is_write ? FlashOp::Program : FlashOp::Read;
            req->lpn = nextReqId; // unique => no hazards
            const std::uint32_t chip = chips[i];
            const std::uint32_t slot = per_chip[chip]++;
            req->addr.chip = chip;
            req->addr.die = slot / geo.planesPerDie;
            req->addr.plane = slot % geo.planesPerDie;
            req->addr.block = i;
            req->addr.page = 0;
            req->translated = true;
            pending.pushBack(req.get());
            io->pages.push_back(req.get());
            reqStorage.push_back(std::move(req));
        }
        storage.push_back(std::move(io));
        queue.push_back(storage.back().get());
        return storage.back().get();
    }

    /** Mark a request composed (as the NVMHC engine would). */
    void
    compose(MemoryRequest *req)
    {
        req->composed = true;
        pending.unlink(req);
        for (IoRequest *io : queue) {
            if (io->tag == req->tag)
                io->composedCount++;
        }
    }

    /** Move an uncomposed request to @p chip (readdressing). */
    void
    retarget(MemoryRequest *req, std::uint32_t chip)
    {
        pending.unlink(req);
        req->addr.chip = chip;
        pending.pushBack(req);
    }
};

} // namespace test
} // namespace spk

#endif // SPK_TESTS_SCHED_TEST_UTIL_HH
