#include "ssd/gc_manager.hh"

#include "sim/logging.hh"

namespace spk
{

GcManager::GcManager(FlashBackend &backend, Ftl &ftl,
                     std::uint32_t max_live_per_plane)
    : backend_(backend), ftl_(ftl), maxLivePerPlane_(max_live_per_plane)
{
    if (maxLivePerPlane_ == 0)
        fatal("GcManager: live-batch bound must be >= 1");
    // The admission bound makes the table statically sizable: at most
    // planes x bound batches are ever live outside urgent
    // (emergency-reclaim) launches, which may still grow it.
    const FlashGeometry &geo = backend_.geometry();
    const std::size_t planes = std::size_t{geo.numChips()} *
                               geo.diesPerChip * geo.planesPerDie;
    batches_.reserve(planes * maxLivePerPlane_);
    livePerPlane_.assign(planes, 0);
}

void
GcManager::launch(const GcBatchList &batches, bool urgent)
{
    for (const GcBatch &batch : batches) {
        if (batch.planeIdx >= livePerPlane_.size())
            panic("GcManager::launch batch for unknown plane");
        if (livePerPlane_[batch.planeIdx] >= maxLivePerPlane_) {
            if (!urgent)
                panic("GcManager::launch admission bound violated on "
                      "plane " +
                      std::to_string(batch.planeIdx));
            ++stats_.overCapLaunches;
        }
        ++livePerPlane_[batch.planeIdx];
        const std::uint32_t slot = batches_.acquire();
        BatchSlot &active = batches_[slot];
        active.victimBasePpn = batch.victimBasePpn;
        active.planeIdx = batch.planeIdx;
        active.remainingPrograms = batch.migrations.size();
        active.eraseAfter = batch.eraseAfter;
        ++stats_.batches;

        if (batch.migrations.empty()) {
            if (!batch.eraseAfter) {
                // Retirement batch with nothing to move: no flash
                // work at all (the FTL normally filters these out).
                retireSlot(slot);
                continue;
            }
            // Nothing live to move: erase right away.
            active.eraseIssued = true;
            ++stats_.erases;
            backend_.issue(RequestOwner::Gc, nextReqId_++, slot,
                           FlashOp::Erase, batch.victimBasePpn);
            continue;
        }
        for (const auto &mig : batch.migrations) {
            MemoryRequest *read = backend_.issue(
                RequestOwner::Gc, nextReqId_++, slot, FlashOp::Read,
                mig.from);
            read->gcPairPpn = mig.to;
            ++stats_.migrationReads;
        }
    }
}

void
GcManager::retireSlot(std::uint32_t slot)
{
    const std::uint64_t plane = batches_[slot].planeIdx;
    if (livePerPlane_[plane] == 0)
        panic("GcManager: per-plane live count underflow");
    --livePerPlane_[plane];
    batches_.retire(slot);
    // The plane regained an admission share: let the device retry
    // any collection the bound deferred.
    if (onBatchRetired_)
        onBatchRetired_();
}

void
GcManager::onRequestFinished(MemoryRequest *req)
{
    if (req->owner != RequestOwner::Gc)
        panic("GcManager: completion for unknown GC request");
    const std::uint32_t slot = req->job;
    batches_.expectLive(slot, "GcManager");
    const FlashOp op = req->op;
    const Ppn pair = req->gcPairPpn;
    const Ppn ppn = req->ppn;
    const bool failed = req->faultFailed;

    // Reclaim the request before issuing follow-up work so the arena
    // can hand the hot object straight back.
    backend_.release(req);

    // Program-fail re-homing and the retirement hook below can
    // re-enter launch() and grow the batch table, so batches_[slot]
    // must be re-resolved after either (no cached references).
    switch (op) {
      case FlashOp::Read: {
        if (pair == kInvalidPage)
            panic("GcManager: migration read without paired program");
        if (failed) {
            // Uncorrectable migration read: the data is lost, but the
            // paired program still runs — the mapping was rebound at
            // collect time and the batch must complete.
            ++stats_.migrationReadFailures;
        }
        ++stats_.migrationPrograms;
        backend_.issue(RequestOwner::Gc, nextReqId_++, slot,
                       FlashOp::Program, pair);
        break;
      }
      case FlashOp::Program: {
        if (failed) {
            // The FTL re-homes the page and retires the block.
            const Ppn fresh = ftl_.onProgramFail(ppn);
            if (fresh != kInvalidPage) {
                // Re-home the migration onto the replacement page; the
                // batch completes when the re-issue finishes.
                ++stats_.migrationProgramRetries;
                backend_.issue(RequestOwner::Gc, nextReqId_++, slot,
                               FlashOp::Program, fresh);
                break;
            }
            // Superseded meanwhile: nothing to re-program.
        }
        BatchSlot &batch = batches_[slot];
        if (batch.remainingPrograms == 0)
            panic("GcManager: program count underflow");
        --batch.remainingPrograms;
        if (batch.remainingPrograms == 0 && !batch.eraseIssued) {
            if (batch.eraseAfter) {
                batch.eraseIssued = true;
                ++stats_.erases;
                backend_.issue(RequestOwner::Gc, nextReqId_++, slot,
                               FlashOp::Erase, batch.victimBasePpn);
            } else {
                // Retirement batch: the victim is Bad, never erased.
                retireSlot(slot);
            }
        }
        break;
      }
      case FlashOp::Erase:
        retireSlot(slot);
        break;
    }
}

} // namespace spk
