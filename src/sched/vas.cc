#include "sched/vas.hh"

namespace spk
{

MemoryRequest *
VasScheduler::next(SchedulerContext &ctx)
{
    // Oldest I/O with uncomposed work; VAS never looks deeper.
    for (IoRequest *io : *ctx.queue) {
        if (io->allComposed())
            continue;

        // Next uncomposed page in virtual (page) order.
        for (MemoryRequest *page : io->pages) {
            MemoryRequest *req = page;
            if (req->composed)
                continue;
            if (!ctx.view->schedulable(*req))
                return nullptr; // ordering hazard: wait
            // VAS commits blindly and the commitment pipeline blocks
            // on the chip's R/B: model as head-of-line stall while the
            // target chip has outstanding requests.
            if (ctx.view->outstanding(req->addr.chip) > 0)
                return nullptr;
            return req;
        }
        return nullptr; // all composed but still finishing: in-order
    }
    return nullptr;
}

} // namespace spk
