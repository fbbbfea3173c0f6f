/**
 * @file
 * The device's flash back end: where every memory request goes once
 * it has a physical page.
 *
 * Host, GC and parity requests all reach the per-channel flash
 * controllers through this one object (Figures 2-3): it owns the chip
 * -> (controller, chip offset) route table, points a request at a PPN,
 * commits it, answers the scheduler's per-chip outstanding queries and
 * issues background (GC / parity) requests ahead of host work
 * (Section 5.9).
 */

#ifndef SPK_CONTROLLER_FLASH_BACKEND_HH
#define SPK_CONTROLLER_FLASH_BACKEND_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "controller/flash_controller.hh"
#include "flash/geometry.hh"
#include "flash/mem_request.hh"
#include "sim/slab.hh"
#include "sim/types.hh"

namespace spk
{

/** Routes, places and commits the memory requests of every owner. */
class FlashBackend
{
  public:
    using Controllers = std::vector<std::unique_ptr<FlashController>>;

    /**
     * @param geo device geometry
     * @param controllers one per channel, indexed by channel (must
     *        outlive the back end)
     * @param arena device-wide MemoryRequest arena (must outlive the
     *        back end and every request it hands out)
     */
    FlashBackend(const FlashGeometry &geo, const Controllers &controllers,
                 Slab<MemoryRequest> &arena);

    const FlashGeometry &geometry() const { return geo_; }

    /** A fresh request from the device-wide arena. */
    MemoryRequest *acquire() { return arena_.acquire(); }

    /** Scrub @p req and return it to the arena. */
    void release(MemoryRequest *req) { arena_.releaseScrubbed(req); }

    /** Point @p req at physical page @p ppn. */
    void
    place(MemoryRequest &req, Ppn ppn) const
    {
        req.ppn = ppn;
        req.addr = geo_.decompose(ppn);
        req.chip = geo_.chipOf(ppn);
        req.translated = true;
    }

    /** Commit a placed request to its chip's controller; @p front
     *  puts it ahead of the chip's queued work. */
    void
    commit(MemoryRequest *req, bool front = false)
    {
        routes_[req->chip].ctrl->commit(req, front);
    }

    /** Committed-but-unfinished requests on global chip @p chip. */
    std::uint32_t
    outstanding(std::uint32_t chip) const
    {
        return routes_[chip].ctrl->outstanding(routes_[chip].offset);
    }

    /** Same, excluding requests of host I/O @p tag. */
    std::uint32_t
    outstandingOthers(std::uint32_t chip, TagId tag) const
    {
        return routes_[chip].ctrl->outstandingOthers(
            routes_[chip].offset, tag);
    }

    /**
     * Issue a background request: acquire it, tag it with @p owner,
     * @p id and owner-side @p job slot, place it on @p ppn and commit
     * it ahead of host work. Background requests skip composition.
     */
    MemoryRequest *issue(RequestOwner owner, std::uint64_t id,
                         std::uint32_t job, FlashOp op, Ppn ppn);

  private:
    /** Where a global chip lives: its controller and chip offset. */
    struct Route
    {
        FlashController *ctrl;
        std::uint32_t offset;
    };

    FlashGeometry geo_;
    Slab<MemoryRequest> &arena_;
    std::vector<Route> routes_; //!< by global chip
};

} // namespace spk

#endif // SPK_CONTROLLER_FLASH_BACKEND_HH
