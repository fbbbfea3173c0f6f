#include "ssd/parity_engine.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace spk
{

ParityEngine::ParityEngine(EventQueue &events, Ftl &ftl,
                           FlashBackend &backend,
                           const ParityConfig &cfg)
    : events_(events),
      geo_(backend.geometry()),
      ftl_(ftl),
      map_(*ftl.parityMap()),
      backend_(backend),
      cfg_(cfg)
{
    if (!ftl.parityMap())
        panic("ParityEngine: FTL has no stripe map (parity off)");
}

void
ParityEngine::onDataProgram(Ppn ppn)
{
    map_.markDataWritten(ppn);
    const StripeId stripe = map_.stripeOf(ppn);
    const PhysAddr addr = geo_.decompose(ppn);

    // A stripe whose parity slot sits on the failed die cannot be
    // protected until the die revives; membership is still recorded so
    // a later close (post-revival writes) covers it.
    if (dieIsDead(addr.chip, map_.parityDie(stripe)))
        return;

    if (map_.parityWritten(stripe)) {
        // Late member: the stripe's parity is already on flash, so
        // this write pays a parity read-modify-write.
        startRmw(stripe);
        return;
    }

    auto [it, inserted] = open_.try_emplace(stripe);
    OpenStripe &os = it->second;
    os.accumulated |= 1u << addr.die;

    if (map_.fullyWritten(stripe)) {
        const OpenStripe closed = os;
        open_.erase(it);
        ++stats_.fullStripeCloses;
        closeStripe(stripe, closed);
        return;
    }
    if (inserted) {
        os.token = ++nextToken_;
        const std::uint64_t token = os.token;
        events_.scheduleAfter(cfg_.flushWindow, [this, stripe, token] {
            onFlushDeadline(stripe, token);
        });
    }
}

void
ParityEngine::onFlushDeadline(StripeId stripe, std::uint64_t token)
{
    const auto it = open_.find(stripe);
    if (it == open_.end() || it->second.token != token)
        return; // closed (or re-opened) before the deadline
    const OpenStripe closed = it->second;
    open_.erase(it);
    ++stats_.partialCloses;
    closeStripe(stripe, closed);
}

void
ParityEngine::closeStripe(StripeId stripe, const OpenStripe &os)
{
    const std::uint32_t data = map_.dataMask(stripe);
    if (data == 0)
        return; // emptied by GC while the stripe sat open

    const std::uint32_t pdie = map_.parityDie(stripe);
    const Ppn parity_ppn = map_.parityPpn(stripe);
    const std::uint32_t chip = geo_.chipOf(parity_ppn);
    if (dieIsDead(chip, pdie)) {
        ++stats_.abandonedStripes;
        return;
    }

    // Members the RAM accumulator never saw (pre-populated before the
    // stripe opened here) must be re-read to compute the parity.
    const std::uint32_t need = data & ~os.accumulated;
    if (deadActive_ && chip == deadChip_ &&
        (need & (1u << deadDie_)) != 0) {
        // A needed member's only copy is on the dead die.
        ++stats_.abandonedStripes;
        return;
    }

    const std::uint32_t slot = jobs_.acquire();
    JobSlot &job = jobs_[slot];
    job.kind = JobKind::Close;
    job.stripe = stripe;

    if (need == 0) {
        // Parity content is fully determined by the accumulator the
        // moment the close is decided, so the stripe turns
        // reconstructable at issue time — degraded reads racing the
        // parity program logically read the controller's RAM copy.
        job.parityIssued = true;
        map_.markParityWritten(stripe);
        ++stats_.parityUpdates;
        backend_.issue(RequestOwner::Parity, nextReqId_++, slot,
                       FlashOp::Program, parity_ppn);
        return;
    }
    job.remainingReads = static_cast<std::uint32_t>(
        std::popcount(need));
    for (std::uint32_t d = 0; d < map_.dies(); ++d) {
        if ((need & (1u << d)) != 0) {
            backend_.issue(RequestOwner::Parity, nextReqId_++, slot,
                           FlashOp::Read, map_.memberPpn(stripe, d));
            ++stats_.closeMemberReads;
        }
    }
}

void
ParityEngine::startRmw(StripeId stripe)
{
    const std::uint32_t slot = jobs_.acquire();
    JobSlot &job = jobs_[slot];
    job.kind = JobKind::Close;
    job.stripe = stripe;
    job.remainingReads = 1;
    ++stats_.rmwReads;
    backend_.issue(RequestOwner::Parity, nextReqId_++, slot,
                   FlashOp::Read, map_.parityPpn(stripe));
}

bool
ParityEngine::tryReconstruct(MemoryRequest *req)
{
    const Ppn ppn = req->ppn;
    if (map_.isParityPage(ppn))
        return false; // hosts never read parity slots
    const StripeId stripe = map_.stripeOf(ppn);
    if (!map_.parityWritten(stripe))
        return false; // no usable parity for this stripe

    const PhysAddr addr = geo_.decompose(ppn);
    if ((map_.mask(stripe) & (1u << addr.die)) == 0)
        return false; // member was never committed

    const std::uint32_t survivors =
        map_.mask(stripe) & ~(1u << addr.die);
    if (survivors == 0)
        return false;
    if (deadActive_ && addr.chip == deadChip_ && addr.die != deadDie_ &&
        (survivors & (1u << deadDie_)) != 0)
        return false; // a needed survivor is itself on the dead die

    const std::uint32_t slot = jobs_.acquire();
    JobSlot &job = jobs_[slot];
    job.kind = JobKind::Reconstruct;
    job.stripe = stripe;
    job.origin = req;
    job.remainingReads = static_cast<std::uint32_t>(
        std::popcount(survivors));
    for (std::uint32_t d = 0; d < map_.dies(); ++d) {
        if ((survivors & (1u << d)) != 0) {
            backend_.issue(RequestOwner::Parity, nextReqId_++, slot,
                           FlashOp::Read, map_.memberPpn(stripe, d));
            ++stats_.reconstructionReads;
        }
    }
    return true;
}

void
ParityEngine::onDieFailure(std::uint32_t chip, std::uint32_t die)
{
    if (deadActive_ || rebuildActive_)
        panic("ParityEngine: second die failure while degraded");
    deadActive_ = true;
    deadChip_ = chip;
    deadDie_ = die;

    // Force-close the chip's open stripes while their accumulators
    // still hold the dead die's member data; sorted so the resulting
    // flash work is independent of hash-map iteration order.
    std::vector<StripeId> victims;
    const StripeId lo = map_.chipStripeBase(chip);
    const StripeId hi = lo + map_.stripesPerChip();
    for (const auto &entry : open_) {
        if (entry.first >= lo && entry.first < hi)
            victims.push_back(entry.first);
    }
    std::sort(victims.begin(), victims.end());
    for (const StripeId stripe : victims) {
        const OpenStripe closed = open_[stripe];
        open_.erase(stripe);
        ++stats_.forcedCloses;
        closeStripe(stripe, closed);
    }

    // Start the online rebuild onto spare capacity.
    rebuildActive_ = true;
    rebuildCursor_ = 0;
    const std::uint64_t base =
        (std::uint64_t{chip} * geo_.diesPerChip + die) *
        geo_.pagesPerDie();
    for (std::uint64_t off = 0; off < geo_.pagesPerDie(); ++off) {
        if (ftl_.mapping().isValid(base + off))
            ++stats_.rebuildPagesTotal;
    }
    scheduleRebuildStep();
}

void
ParityEngine::scheduleRebuildStep()
{
    events_.scheduleAfter(cfg_.rebuildPageInterval,
                          [this] { rebuildStep(); });
}

void
ParityEngine::rebuildStep()
{
    const std::uint64_t base =
        (std::uint64_t{deadChip_} * geo_.diesPerChip + deadDie_) *
        geo_.pagesPerDie();
    const std::uint64_t limit = geo_.pagesPerDie();
    while (rebuildCursor_ < limit &&
           !ftl_.mapping().isValid(base + rebuildCursor_))
        ++rebuildCursor_;

    if (rebuildCursor_ >= limit) {
        // Every live page left the die: revive it (FTL planes, fault
        // model, stripe map — wired by the device) and end degraded
        // mode.
        rebuildActive_ = false;
        deadActive_ = false;
        if (onRebuildComplete_)
            onRebuildComplete_();
        return;
    }

    const Ppn from = base + rebuildCursor_;
    ++rebuildCursor_;
    const StripeId stripe = map_.stripeOf(from);
    const Ppn to = ftl_.rebuildRelocate(from);
    if (to == kInvalidPage) {
        // Superseded by a host write since the scan; nothing to move.
        scheduleRebuildStep();
        return;
    }

    std::uint32_t survivors = 0;
    if (map_.parityWritten(stripe))
        survivors = map_.mask(stripe) & ~(1u << deadDie_);

    const std::uint32_t slot = jobs_.acquire();
    JobSlot &job = jobs_[slot];
    job.kind = JobKind::Rebuild;
    job.stripe = stripe;
    job.rebuildTo = to;
    if (survivors == 0) {
        // The stripe lost parity coverage (e.g. it sat open across the
        // failure with a pre-populated dead-die member): the page is
        // re-homed without survivor reads so the mapping heals, though
        // its content was not reconstructable.
        backend_.issue(RequestOwner::Parity, nextReqId_++, slot,
                       FlashOp::Program, to);
        return;
    }
    job.remainingReads = static_cast<std::uint32_t>(
        std::popcount(survivors));
    for (std::uint32_t d = 0; d < map_.dies(); ++d) {
        if ((survivors & (1u << d)) != 0) {
            backend_.issue(RequestOwner::Parity, nextReqId_++, slot,
                           FlashOp::Read, map_.memberPpn(stripe, d));
            ++stats_.rebuildReads;
        }
    }
}

void
ParityEngine::onRequestFinished(MemoryRequest *req)
{
    if (req->owner != RequestOwner::Parity)
        panic("ParityEngine: completion for a non-parity request");
    const std::uint32_t slot = req->job;
    JobSlot &job = jobs_.expectLive(slot, "ParityEngine");
    const FlashOp op = req->op;
    const bool failed = req->faultFailed;
    backend_.release(req);

    switch (job.kind) {
      case JobKind::Close:
        if (op == FlashOp::Read) {
            // Member re-read or parity RMW read. A failed read means
            // the parity content cannot be computed: abandon honestly
            // instead of advertising reconstructability.
            if (failed)
                job.failed = true;
            if (--job.remainingReads == 0) {
                if (job.failed) {
                    map_.clearParityWritten(job.stripe);
                    ++stats_.abandonedStripes;
                    jobs_.retire(slot);
                } else {
                    job.parityIssued = true;
                    map_.markParityWritten(job.stripe);
                    ++stats_.parityUpdates;
                    backend_.issue(RequestOwner::Parity, nextReqId_++,
                                   slot, FlashOp::Program,
                                   map_.parityPpn(job.stripe));
                }
            }
        } else {
            if (failed) {
                // Parity slots are fixed: a failed parity program
                // cannot re-home, the stripe just loses coverage.
                map_.clearParityWritten(job.stripe);
                ++stats_.abandonedStripes;
            }
            jobs_.retire(slot);
        }
        break;

      case JobKind::Reconstruct: {
        if (op != FlashOp::Read)
            panic("ParityEngine: non-read in reconstruction job");
        if (failed)
            job.failed = true; // a survivor itself was uncorrectable
        if (--job.remainingReads == 0) {
            MemoryRequest *origin = job.origin;
            const bool ok = !job.failed;
            jobs_.retire(slot);
            if (ok)
                ++stats_.reconstructions;
            else
                ++stats_.reconstructionFailures;
            finishReconstruct_(origin, ok);
        }
        break;
      }

      case JobKind::Rebuild:
        if (op == FlashOp::Read) {
            // Survivor read failures do not stop the relocation: the
            // mapping must leave the dead die either way.
            if (--job.remainingReads == 0)
                backend_.issue(RequestOwner::Parity, nextReqId_++, slot,
                               FlashOp::Program, job.rebuildTo);
        } else {
            if (failed) {
                const Ppn fresh = ftl_.onProgramFail(job.rebuildTo);
                if (fresh != kInvalidPage) {
                    ++stats_.rebuildProgramRetries;
                    job.rebuildTo = fresh;
                    backend_.issue(RequestOwner::Parity, nextReqId_++, slot,
                                   FlashOp::Program, fresh);
                    break;
                }
                // Superseded while re-homing: nothing left to write.
            } else {
                ++stats_.rebuildPagesRebuilt;
            }
            jobs_.retire(slot);
            scheduleRebuildStep();
        }
        break;
    }
}

} // namespace spk
