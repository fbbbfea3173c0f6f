#include "sched/pas.hh"

namespace spk
{

/*
 * PAS processes the queue in arrival order but, knowing physical
 * addresses, skips the busy flash chips and commits the other memory
 * requests to idle chips (coarse-grain out-of-order execution with
 * per-chip flash queues, Section 5.1). A chip counts as busy when it
 * holds outstanding requests of a *different* I/O: a chip queueing
 * only one's own I/O is no conflict, which is what lets PAS build
 * same-I/O multiplane/interleave transactions (Figure 14a) while
 * still being unable to coalesce across I/O boundaries.
 */
MemoryRequest *
PasScheduler::next(SchedulerContext &ctx)
{
    // The decision is "the first uncomposed request in queue order
    // that is hazard-free and whose chip holds no other I/O's work".
    // Request ids follow queue order and PAS never retargets, so every
    // pending list is in id order: the answer is the lowest id among
    // each chip's first qualifying entry, and a list stops being read
    // once its ids pass the best found so far. Which entries of a chip
    // qualify follows from its owner alone: all of them on an idle
    // chip, only the owning I/O's on a chip working for one I/O, and
    // none on a chip holding anything else.
    MemoryRequest *best = nullptr;
    const std::uint32_t n = ctx.geo->numChips();
    for (std::uint32_t chip = 0; chip < n; ++chip) {
        const ChipOwner owner = ctx.view->ownerOf(chip);
        if (owner.kind == ChipOwner::Other)
            continue; // busy chip: skip, commit elsewhere
        const bool own = owner.kind == ChipOwner::OneTag;
        for (MemoryRequest *req = own ? ctx.pending->frontOf(chip, owner.tag)
                                      : ctx.pending->front(chip);
             req != nullptr; req = own ? req->chipTagNext : req->chipNext) {
            if (best != nullptr && req->id > best->id)
                break;
            if (!ctx.view->schedulable(*req))
                continue; // hazard: try the next request
            best = req;
            break;
        }
    }
    return best;
}

} // namespace spk
