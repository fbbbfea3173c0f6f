#include "ftl/ftl.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace spk
{

namespace
{

std::uint64_t
logicalCapacity(const FlashGeometry &geo, double overprovision,
                bool die_parity)
{
    const double frac = std::clamp(1.0 - overprovision, 0.01, 1.0);
    // Die parity reserves one page per stripe: 1/D of raw capacity.
    std::uint64_t physical = geo.totalPages();
    if (die_parity)
        physical = physical / geo.diesPerChip * (geo.diesPerChip - 1);
    const auto pages = static_cast<std::uint64_t>(
        static_cast<double>(physical) * frac);
    return std::max<std::uint64_t>(pages, 1);
}

} // namespace

Ftl::Ftl(const FlashGeometry &geo, const FtlConfig &cfg,
         const FaultModel *faults, bool die_parity)
    : geo_(geo),
      cfg_(cfg),
      mapping_(geo, logicalCapacity(geo, cfg.overprovision, die_parity)),
      blocks_(geo, cfg.endurance, cfg.allocation, die_parity,
              cfg.gcFreeBlockThreshold),
      faults_(faults)
{
    geo_.validate();
    if (die_parity)
        parityMap_ = std::make_unique<StripeParityMap>(geo_);
}

void
Ftl::startCollection()
{
    batchScratch_.reserve(blocks_.numPlanes() + 1, geo_.pagesPerBlock);
    batchScratch_.reset();
}

void
Ftl::noteInvalidated(Ppn ppn)
{
    const PhysAddr addr = geo_.decompose(ppn);
    blocks_.addValid(blocks_.planeIndexOf(addr), addr.block, -1);
}

void
Ftl::noteValidated(Ppn ppn)
{
    const PhysAddr addr = geo_.decompose(ppn);
    blocks_.addValid(blocks_.planeIndexOf(addr), addr.block, +1);
}

std::optional<Ppn>
Ftl::allocateRotating(bool gc_reserve)
{
    const std::uint64_t n_planes = blocks_.numPlanes();
    for (std::uint64_t attempt = 0; attempt < n_planes; ++attempt) {
        const std::uint64_t plane = allocCursor_ % n_planes;
        ++allocCursor_;
        if (auto ppn = blocks_.allocatePage(plane, gc_reserve))
            return ppn;
    }
    return std::nullopt;
}

std::optional<Ppn>
Ftl::allocateWithReclaim(bool gc_reserve)
{
    auto ppn = allocateRotating(gc_reserve);
    for (int round = 0; round < 256 && !ppn; ++round) {
        // Emergency reclaim: urgent GC, launched through the GC
        // engine so its flash time is still charged.
        const GcBatchList &batches = collectGcUrgent();
        if (batches.empty())
            break;
        if (launchBatches_)
            launchBatches_(batches);
        ppn = allocateRotating(gc_reserve);
    }
    return ppn;
}

Ppn
Ftl::bindHostWrite(Lpn lpn, std::optional<Ppn> ppn)
{
    if (!ppn)
        return kInvalidPage;
    const Ppn old = mapping_.bind(lpn, *ppn);
    if (old != kInvalidPage)
        noteInvalidated(old);
    noteValidated(*ppn);
    ++stats_.hostWrites;
    return *ppn;
}

Ppn
Ftl::allocateWrite(Lpn lpn)
{
    return bindHostWrite(lpn, allocateRotating(/*gc_reserve=*/false));
}

Ppn
Ftl::hostWrite(Lpn lpn)
{
    return bindHostWrite(lpn, allocateWithReclaim(/*gc_reserve=*/false));
}

Ppn
Ftl::hostRead(Lpn lpn)
{
    const Ppn mapped = mapping_.lookup(lpn);
    if (mapped != kInvalidPage)
        return mapped;
    // Reading a never-written page: backfill a mapping, as if the
    // data existed before the trace started.
    const Ppn ppn = hostWrite(lpn);
    if (ppn != kInvalidPage && parityMap_) {
        // The fiction extends to parity: data that "already existed"
        // was already protected, untimed like a precondition
        // (otherwise a later die failure would leave backfilled
        // pages unreconstructable).
        parityMap_->markDataWritten(ppn);
        parityMap_->markParityWritten(parityMap_->stripeOf(ppn));
    }
    return ppn;
}

void
Ftl::movePage(Lpn lpn, Ppn from, Ppn to)
{
    mapping_.bind(lpn, to); // invalidates `from` in the mapping
    noteInvalidated(from);
    noteValidated(to);
    if (readdress_)
        readdress_(lpn, from, to);
}

bool
Ftl::gcNeeded() const
{
    // Dead planes are not counted: nothing left to reclaim there.
    return blocks_.planesBelowGcThreshold() != 0;
}

bool
Ftl::evacuateBlock(std::uint64_t plane, std::uint32_t block,
                   GcBatch &batch)
{
    batch.planeIdx = plane;
    batch.victimBlock = block;

    PhysAddr addr = blocks_.planeAddr(plane);
    addr.block = block;
    addr.page = 0;
    batch.victimBasePpn = geo_.compose(addr);

    for (std::uint32_t page = 0; page < geo_.pagesPerBlock; ++page) {
        addr.page = page;
        const Ppn from = geo_.compose(addr);
        if (!mapping_.isValid(from))
            continue;
        const Lpn lpn = mapping_.reverseLookup(from);

        const auto to = allocateRotating(/*gc_reserve=*/true);
        if (!to) {
            warn("Ftl: no space to evacuate a block; its remaining "
                 "live pages stay in place");
            return false;
        }
        batch.migrations.push_back(GcMigration{lpn, from, *to});
        ++stats_.pagesMigrated;
        movePage(lpn, from, *to);
    }
    return true;
}

bool
Ftl::migrateAndErase(std::uint64_t plane, std::uint32_t block)
{
    GcBatch &batch = batchScratch_.append();
    if (!evacuateBlock(plane, block, batch)) {
        // Out of space mid-victim. The moves already made are real
        // (mappings rebound, scheduler readdressed), so the batch
        // still charges them; the victim keeps its other live pages
        // and is not erased.
        batch.eraseAfter = false;
        if (batch.migrations.empty())
            batchScratch_.dropLast();
        return false;
    }
    if (faults_ &&
        faults_->eraseFails(batch.victimBasePpn,
                            blocks_.block(plane, block).eraseCount + 1)) {
        // The erase pulse fails on flash: the block is retired instead
        // of freed. The batch still charges the erase attempt's time.
        blocks_.retireBlock(plane, block);
        ++stats_.eraseFailures;
        ++stats_.blocksRetiredErase;
        parityForgetBlock(plane, block); // content untrusted mid-erase
        return true;
    }
    if (!blocks_.eraseBlock(plane, block))
        ++stats_.blocksRetiredWear; // endurance exhausted
    ++stats_.blocksErased;
    parityForgetBlock(plane, block);
    return true;
}

void
Ftl::parityForgetBlock(std::uint64_t plane, std::uint32_t block)
{
    if (!parityMap_)
        return;
    PhysAddr base = blocks_.planeAddr(plane);
    base.block = block;
    base.page = 0;
    parityMap_->clearBlock(geo_.compose(base), base.die);
}

const GcBatchList &
Ftl::collectGcGroups(bool respect_admission)
{
    startCollection();
    const std::uint64_t n_planes = blocks_.numPlanes();
    // With die parity a stripe spans the sibling planes (same chip
    // and plane-in-die) of every die, and collecting whole block
    // groups keeps stripes consistent: every stripe of the group
    // empties atomically, so none is left with a stale parity member.
    // Without parity a group is the plane alone.
    const std::uint32_t members = parityMap_ ? geo_.diesPerChip : 1;

    for (std::uint64_t plane = 0; plane < n_planes; ++plane) {
        if (blocks_.planeDead(plane))
            continue;
        if (blocks_.freeBlocks(plane) >= cfg_.gcFreeBlockThreshold)
            continue;

        PhysAddr sib = blocks_.planeAddr(plane);
        std::uint64_t group[kMaxDiesPerChip];
        for (std::uint32_t d = 0; d < members; ++d) {
            if (parityMap_)
                sib.die = d;
            group[d] = blocks_.planeIndexOf(sib);
        }

        const bool gated = respect_admission && gcAdmit_;
        bool deferred = false;
        if (gated) {
            for (std::uint32_t d = 0; d < members && !deferred; ++d) {
                if (!blocks_.planeDead(group[d]) && gcAdmit_(group[d]) == 0)
                    deferred = true;
            }
        }
        if (deferred) {
            // Live-batch bound reached: defer this collection until a
            // batch retires (the device retries then).
            ++stats_.gcDeferrals;
            continue;
        }

        // Greedy victim: the eligible group with the fewest live
        // pages, lowest block index on a tie. Every live member must
        // be Full (or an empty Free/Bad block); dead members must be
        // drained — their pages await rebuild and the survivors must
        // stay put.
        std::optional<std::uint32_t> best;
        std::uint64_t best_valid = ~0ull;
        for (std::uint32_t b = 0; b < geo_.blocksPerPlane; ++b) {
            bool eligible = false;
            bool blocked = false;
            std::uint64_t valid = 0;
            for (std::uint32_t d = 0; d < members && !blocked; ++d) {
                const BlockInfo &info = blocks_.block(group[d], b);
                if (blocks_.planeDead(group[d])) {
                    if (info.validPages != 0)
                        blocked = true;
                    continue;
                }
                switch (info.state) {
                  case BlockState::Full:
                    eligible = true;
                    valid += info.validPages;
                    break;
                  case BlockState::Free:
                  case BlockState::Bad:
                    if (info.validPages != 0)
                        blocked = true;
                    break;
                  case BlockState::Active:
                    blocked = true; // frontier in use
                    break;
                }
            }
            if (blocked || !eligible)
                continue;
            if (valid < best_valid) {
                best_valid = valid;
                best = b;
            }
        }
        if (!best)
            continue;

        const auto takesBatch = [&](std::uint32_t d) {
            return !blocks_.planeDead(group[d]) &&
                   blocks_.block(group[d], *best).state == BlockState::Full;
        };
        // With die parity a group is visited once per needy member,
        // so this round may already hold batches for it: they count
        // toward the bound too, or the launch would overrun it.
        if (gated && members > 1) {
            for (std::uint32_t d = 0; d < members && !deferred; ++d) {
                if (!takesBatch(d))
                    continue;
                const auto queued = static_cast<std::uint32_t>(
                    std::count_if(batchScratch_.begin(), batchScratch_.end(),
                                  [&](const GcBatch &batch) {
                                      return batch.planeIdx == group[d];
                                  }));
                if (queued >= gcAdmit_(group[d]))
                    deferred = true;
            }
            if (deferred) {
                ++stats_.gcDeferrals;
                continue;
            }
        }

        bool collected = false;
        for (std::uint32_t d = 0; d < members; ++d) {
            if (takesBatch(d) && migrateAndErase(group[d], *best))
                collected = true;
        }
        if (collected)
            ++stats_.gcInvocations;
    }
    return batchScratch_;
}

const GcBatchList &
Ftl::collectGc()
{
    return collectGcGroups(/*respect_admission=*/true);
}

const GcBatchList &
Ftl::collectGcUrgent()
{
    return collectGcGroups(/*respect_admission=*/false);
}

bool
Ftl::wearLevelNeeded() const
{
    if (cfg_.wearLevelThreshold == 0)
        return false;
    const auto spread = blocks_.eraseSpread();
    return spread.second - spread.first > cfg_.wearLevelThreshold;
}

const GcBatchList &
Ftl::collectWearLevel()
{
    startCollection();
    if (!wearLevelNeeded())
        return batchScratch_;
    // The coldest full block pins cold data on a low-wear block:
    // moving it lets the block re-enter the hot allocation rotation.
    const auto victim = blocks_.pickColdestFull();
    if (!victim)
        return batchScratch_;
    if (gcAdmit_ && gcAdmit_(victim->first) == 0) {
        ++stats_.gcDeferrals;
        return batchScratch_;
    }
    if (migrateAndErase(victim->first, victim->second))
        ++stats_.wearLevelMoves;
    return batchScratch_;
}

Ppn
Ftl::onProgramFail(Ppn failed)
{
    const PhysAddr faddr = geo_.decompose(failed);
    const std::uint64_t plane = blocks_.planeIndexOf(faddr);
    const Lpn lpn = mapping_.reverseLookup(failed);

    // Re-home the failed page first, so the block retirement below
    // never tries to "migrate" data that was never programmed. A
    // superseded mapping (a newer write or migration already rebound
    // the LPN) needs no re-program at all.
    Ppn fresh = kInvalidPage;
    if (lpn != kInvalidPage) {
        const auto to = allocateWithReclaim(/*gc_reserve=*/true);
        if (!to) {
            fatal("Ftl: spare capacity exhausted on plane " +
                  std::to_string(plane) +
                  " while re-homing a failed program (ppn " +
                  std::to_string(failed) + ")");
        }
        ++stats_.programRemaps;
        movePage(lpn, failed, *to);
        fresh = *to;
    }

    // A second in-flight program can fail into an already-retired
    // block; retire (and count) only once.
    if (blocks_.block(plane, faddr.block).state != BlockState::Bad) {
        ++stats_.blocksRetiredProgram;
        retireBlockWithMigration(plane, faddr.block);
    }
    return fresh;
}

void
Ftl::retireBlockWithMigration(std::uint64_t plane, std::uint32_t block)
{
    // Mark Bad before allocating destinations so the relocation can
    // never land inside the block being retired.
    blocks_.retireBlock(plane, block);

    retireScratch_.reserve(1, geo_.pagesPerBlock);
    retireScratch_.reset();
    GcBatch &batch = retireScratch_.append();
    batch.eraseAfter = false; // Bad blocks are never erased again
    // A short evacuation leaves data in place: the mapping still
    // resolves, the block just cannot be reused.
    evacuateBlock(plane, block, batch);
    if (!batch.migrations.empty() && launchBatches_)
        launchBatches_(retireScratch_);
}

void
Ftl::markDieDead(std::uint32_t chip, std::uint32_t die)
{
    PhysAddr addr;
    addr.chip = chip;
    addr.die = die;
    for (std::uint32_t p = 0; p < geo_.planesPerDie; ++p) {
        addr.plane = p;
        blocks_.markPlaneDead(blocks_.planeIndexOf(addr));
    }
}

Ppn
Ftl::rebuildRelocate(Ppn from)
{
    const Lpn lpn = mapping_.reverseLookup(from);
    if (lpn == kInvalidPage)
        return kInvalidPage; // superseded by a newer host write

    const auto to = allocateWithReclaim(/*gc_reserve=*/true);
    if (!to) {
        fatal("Ftl: spare capacity exhausted while rebuilding ppn " +
              std::to_string(from));
    }
    movePage(lpn, from, *to);
    return *to;
}

void
Ftl::reviveDie(std::uint32_t chip, std::uint32_t die)
{
    const Ppn base =
        (std::uint64_t{chip} * geo_.diesPerChip + die) * geo_.pagesPerDie();
    for (std::uint64_t off = 0; off < geo_.pagesPerDie(); ++off) {
        if (mapping_.isValid(base + off))
            panic("Ftl::reviveDie: live mapped page still on the die");
    }
    PhysAddr addr;
    addr.chip = chip;
    addr.die = die;
    for (std::uint32_t p = 0; p < geo_.planesPerDie; ++p) {
        addr.plane = p;
        blocks_.revivePlane(blocks_.planeIndexOf(addr));
    }
    if (parityMap_)
        parityMap_->clearDie(chip, die);
}

void
Ftl::precondition(double fill_fraction, double churn_fraction, Rng &rng)
{
    fill_fraction = std::clamp(fill_fraction, 0.0, 1.0);
    churn_fraction = std::clamp(churn_fraction, 0.0, 4.0);

    const auto n_fill = static_cast<std::uint64_t>(
        static_cast<double>(mapping_.logicalPages()) * fill_fraction);

    for (Lpn lpn = 0; lpn < n_fill; ++lpn) {
        if (allocateWrite(lpn) == kInvalidPage)
            fatal("Ftl::precondition: device full during sequential fill");
    }

    // Random overwrites fragment the blocks: every overwrite leaves an
    // invalid page behind in some earlier block.
    const auto n_churn = static_cast<std::uint64_t>(
        static_cast<double>(n_fill) * churn_fraction);
    for (std::uint64_t i = 0; i < n_churn; ++i) {
        if (n_fill == 0)
            break;
        const Lpn lpn = rng.nextBelow(n_fill);
        if (allocateWrite(lpn) == kInvalidPage) {
            // Out of space: reclaim synchronously (mapping-only GC);
            // preconditioning is not timed and launches nothing, so
            // no live-batch bound applies.
            collectGcUrgent();
            if (allocateWrite(lpn) == kInvalidPage)
                break;
        }
    }

    // Leave the device at the GC threshold, not beyond it: the timed
    // run should start from a fragmented-but-operable state.
    for (int rounds = 0; rounds < 1024 && gcNeeded(); ++rounds) {
        if (collectGcUrgent().empty())
            break;
    }

    syncParityAfterPrecondition();
}

void
Ftl::syncParityAfterPrecondition()
{
    if (!parityMap_)
        return;
    const std::uint32_t dies = geo_.diesPerChip;
    for (std::uint64_t plane = 0; plane < blocks_.numPlanes(); ++plane) {
        PhysAddr addr = blocks_.planeAddr(plane);
        for (std::uint32_t b = 0; b < geo_.blocksPerPlane; ++b) {
            const BlockInfo &info = blocks_.block(plane, b);
            addr.block = b;
            for (std::uint32_t pg = 0; pg < info.writtenPages; ++pg) {
                if (StripeParityMap::isParitySlot(addr.die, b, pg, dies))
                    continue;
                addr.page = pg;
                parityMap_->markDataWritten(geo_.compose(addr));
            }
        }
    }
    // Declare parity programmed for every stripe holding data: the
    // untimed precondition stands in for the flushes the parity
    // engine would have performed along the way.
    for (StripeId s = 0; s < parityMap_->stripeCount(); ++s) {
        if (parityMap_->dataMask(s) != 0)
            parityMap_->markParityWritten(s);
    }
}

} // namespace spk
