#include "controller/flash_backend.hh"

#include <algorithm>
#include <utility>

#include "flash/transaction.hh"
#include "sim/logging.hh"

namespace spk
{

FlashBackend::FlashBackend(EventQueue &events, const FlashGeometry &geo,
                           const FlashTiming &timing,
                           Tick decision_window,
                           Slab<MemoryRequest> &arena,
                           CompletionFn on_complete,
                           const FaultModel *faults,
                           SoftDecoder *decoder)
    : events_(events),
      geo_(geo),
      timing_(timing),
      decisionWindow_(decision_window),
      arena_(arena),
      onComplete_(std::move(on_complete)),
      faults_(faults),
      decoder_(decoder),
      state_(geo.numChips())
{
    chips_.reserve(geo_.numChips());
    for (std::uint32_t i = 0; i < geo_.numChips(); ++i)
        chips_.push_back(std::make_unique<FlashChip>(i, geo_));
    channels_.reserve(geo_.numChannels);
    for (std::uint32_t c = 0; c < geo_.numChannels; ++c)
        channels_.push_back(std::make_unique<Channel>(c));
}

void
FlashBackend::reserveSteadyState(std::uint32_t queue_depth)
{
    for (auto &cs : state_) {
        // Host tags 0..depth-1 land on slots 1..depth (slot 0 is GC).
        cs.perTag.resize(std::size_t{queue_depth} + 1, 0);
        cs.pending.reserve(queue_depth);
        cs.executing.reserve(queue_depth);
    }
}

void
FlashBackend::commit(MemoryRequest *req, bool front)
{
    if (!req->translated)
        panic("FlashBackend::commit untranslated request");
    const std::uint32_t chip = req->addr.chip;
    if (chip >= state_.size())
        panic("FlashBackend::commit chip out of range");

    req->committedAt = events_.now();
    auto &chip_state = state_[chip];
    const std::size_t slot = tagSlot(req->tag);
    if (slot >= chip_state.perTag.size())
        chip_state.perTag.resize(slot + 1, 0);
    if (chip_state.perTag[slot]++ == 0) {
        chip_state.ownerSlots++;
        chip_state.ownerXor ^= static_cast<std::uint32_t>(slot);
    }
    if (front)
        chip_state.pending.push_front(req);
    else
        chip_state.pending.push_back(req);
    armLaunch(chip);
}

MemoryRequest *
FlashBackend::issue(RequestOwner owner, std::uint64_t id,
                    std::uint32_t job, FlashOp op, Ppn ppn)
{
    MemoryRequest *req = arena_.acquire();
    req->id = id;
    req->owner = owner;
    req->job = job;
    req->op = op;
    place(*req, ppn);
    req->composed = true;
    commit(req, /*front=*/true);
    return req;
}

std::uint32_t
FlashBackend::outstanding(std::uint32_t chip) const
{
    const auto &cs = state_.at(chip);
    return static_cast<std::uint32_t>(cs.pending.size()) + cs.inFlight;
}

std::uint32_t
FlashBackend::pendingCount(std::uint32_t chip) const
{
    return static_cast<std::uint32_t>(state_.at(chip).pending.size());
}

ChipOwner
FlashBackend::ownerOf(std::uint32_t chip) const
{
    // Slot 0 is GC / parity work, which never counts as one host I/O.
    const auto &cs = state_.at(chip);
    if (cs.ownerSlots == 0)
        return {ChipOwner::Idle};
    if (cs.ownerSlots == 1 && cs.ownerXor != 0)
        return {ChipOwner::OneTag, static_cast<TagId>(cs.ownerXor - 1)};
    return {ChipOwner::Other};
}

bool
FlashBackend::drained() const
{
    for (const auto &cs : state_) {
        if (!cs.pending.empty() || cs.inFlight != 0)
            return false;
    }
    return true;
}

void
FlashBackend::armLaunch(std::uint32_t chip)
{
    auto &cs = state_[chip];
    if (cs.launchScheduled || cs.pending.empty())
        return;
    // Only arm when the chip can actually accept a transaction: the
    // end-of-transaction event re-arms otherwise.
    if (!chips_[chip]->readyAt(events_.now()) || cs.inFlight > 0)
        return;
    cs.launchScheduled = true;
    events_.scheduleAfter(decisionWindow_, [this, chip] {
        state_[chip].launchScheduled = false;
        tryLaunch(chip);
    });
}

void
FlashBackend::tryLaunch(std::uint32_t chip)
{
    auto &cs = state_[chip];
    FlashChip *flash = chips_[chip].get();
    const Tick now = events_.now();

    if (cs.pending.empty() || cs.inFlight > 0 || !flash->readyAt(now))
        return;

    // Seed with the oldest pending request, then greedily coalesce
    // every compatible one (same op; distinct die/plane; identical
    // page offset within a multi-plane die). Erases never coalesce.
    MemoryRequest *seed = cs.pending.front();
    FlashTransaction txn(seed->op, chip);
    txn.add(seed);

    // Retried reads re-execute solo: their sense phase runs at an
    // escalated ladder latency no coalesced peer would share.
    if (seed->op != FlashOp::Erase && seed->retryAttempt == 0) {
        const std::size_t max_size =
            flash->planesPerChip(); // one request per (die, plane)
        for (auto it = cs.pending.begin() + 1;
             it != cs.pending.end() && txn.size() < max_size; ++it) {
            if ((*it)->retryAttempt == 0 && canCoalesce(txn, **it))
                txn.add(*it);
        }
    }

    // Remove the selected requests from the pending queue.
    for (const auto *req : txn.requests()) {
        auto it = std::find(cs.pending.begin(), cs.pending.end(), req);
        cs.pending.erase(it);
    }

    TransactionPlan plan;
    if (seed->retryAttempt > 0 && faults_) {
        // Ladder step k senses slower than the base tR; re-plan the
        // transaction around the escalated sense latency.
        FlashTiming retry_timing = timing_;
        retry_timing.readLatency = faults_->senseLatency(
            seed->retryAttempt, timing_.readLatency);
        plan = txn.plan(retry_timing, geo_.pageSizeBytes);
    } else {
        plan = txn.plan(timing_, geo_.pageSizeBytes);
    }

    // One batched arbitration call books the command/data-in phase
    // and (for reads) the data-out phase: the data-out slot starts no
    // earlier than the cells finish, and command phases of other
    // chips first-fit into the cell-latency gap it leaves open
    // (channel pipelining) — so no mid-transaction re-arbitration
    // event is needed.
    Channel &channel = *channels_[geo_.channelOfChip(chip)];
    const ChannelGrant grant = channel.acquirePlan(
        now, plan.cmdPhase, plan.cellEnd, plan.dataOutPhase);
    const Tick start = grant.cmdStart;
    const Tick cell_end_abs = start + plan.cellEnd;

    const FlpClass flp = txn.classify();
    const Tick provisional_end = std::max(start + plan.cmdPhase,
                                          cell_end_abs);
    flash->beginTransaction(start, provisional_end, plan, flp,
                            txn.size());

    cs.inFlight += static_cast<std::uint32_t>(txn.size());
    stats_.transactions += 1;
    stats_.requestsServed += txn.size();

    cs.executing.assign(txn.requests().begin(), txn.requests().end());
    for (auto *req : cs.executing)
        req->startedAt = start;

    if (plan.dataOutPhase > 0) {
        // Reads: the data-out grant is already known, so the chip's
        // busy window extends now and the transaction completes in a
        // single end event (~2 events per transaction instead of ~3).
        const Tick end = grant.dataOutStart + plan.dataOutPhase;
        flash->extendBusy(end);
        events_.schedule(end, [this, chip, end] {
            finishTransaction(chip, end);
        });
    } else {
        events_.schedule(provisional_end,
                         [this, chip, provisional_end] {
                             finishTransaction(chip,
                                               provisional_end);
                         });
    }
}

void
FlashBackend::finishTransaction(std::uint32_t chip, Tick end)
{
    auto &cs = state_[chip];
    cs.inFlight -= static_cast<std::uint32_t>(cs.executing.size());
    const bool faulty = faults_ && faults_->enabled();
    for (auto *req : cs.executing) {
        if (faulty && applyFaults(chip, req, end))
            continue; // retrying or decoding; stays in perTag
        completeRequest(cs, req, end);
    }
    cs.executing.clear();
    // More pending work? Start the next decision window.
    armLaunch(chip);
}

void
FlashBackend::completeRequest(PerChip &cs, MemoryRequest *req,
                                 Tick end)
{
    // Owner state is derived from these counts: a request finishing
    // twice, or never committed here, would leave it wrong for the
    // rest of the run.
    const std::size_t slot = tagSlot(req->tag);
    if (slot >= cs.perTag.size() || cs.perTag[slot] == 0)
        panic("FlashBackend::completeRequest request not "
              "outstanding on its chip");
    if (--cs.perTag[slot] == 0) {
        cs.ownerSlots--;
        cs.ownerXor ^= static_cast<std::uint32_t>(slot);
    }
    req->finishedAt = end;
    onComplete_(req);
}

bool
FlashBackend::applyFaults(std::uint32_t chip, MemoryRequest *req,
                          Tick end)
{
    auto &cs = state_[chip];
    switch (req->op) {
      case FlashOp::Read: {
        // A stale read's result is discarded and the request re-issued
        // at the fresh location (NVMHC), so no fault verdict may be
        // charged against the old one — doing so double-counted an I/O
        // whose page then failed again at the new location.
        if (req->stale)
            return false;
        const ReadOutcome out = faults_->readAttempt(
            req->ppn, req->id, req->retryAttempt, end);
        if (out == ReadOutcome::Ok)
            return false;
        if (out == ReadOutcome::Retry) {
            // Re-book the chip for the next ladder step. The request
            // keeps its perTag accounting (it is still
            // outstanding from the scheduler's point of view) and
            // jumps the pending queue: a read mid-ladder blocks its
            // I/O until it resolves.
            ++req->retryAttempt;
            ++stats_.readRetries;
            ++stats_.readRetriesByStep[req->retryAttempt - 1];
            cs.pending.push_front(req);
            return true;
        }
        // Ladder exhausted. Fall back to the shared soft decoder when
        // modeled — unless the die itself is gone, in which case there
        // is no soft information to decode.
        if (decoder_ && faults_->config().softDecodeEnabled &&
            !faults_->dieDead(req->ppn, end)) {
            startSoftDecode(chip, req, end);
            return true;
        }
        ++stats_.uncorrectableReads;
        req->faultFailed = true; // deliver the error to the owner
        return false;
      }
      case FlashOp::Program:
        if (faults_->programFails(req->ppn, req->id, end)) {
            ++stats_.programFailures;
            req->faultFailed = true; // owner remaps (FTL/GC)
        }
        return false;
      case FlashOp::Erase:
        // Erase outcomes are decided at FTL collect time, where the
        // block is retired instead of freed; nothing to do here.
        return false;
    }
    return false;
}

void
FlashBackend::startSoftDecode(std::uint32_t chip, MemoryRequest *req,
                              Tick end)
{
    // The decoder is one serialized device-wide resource: a decode
    // starts when the previous one finishes, and the wait is the
    // contention component of the read's latency.
    const Tick start = std::max(end, decoder_->busyUntil);
    const Tick cost =
        faults_->softDecodeCost(req->retryAttempt, geo_.pageSizeBytes);
    const Tick done = start + cost;
    decoder_->busyUntil = done;
    decoder_->stats.invocations++;
    decoder_->stats.busyTime += cost;
    decoder_->stats.stallTime += start - end;
    events_.schedule(done, [this, chip, req, done] {
        finishSoftDecode(chip, req, done);
    });
}

void
FlashBackend::finishSoftDecode(std::uint32_t chip, MemoryRequest *req,
                               Tick done)
{
    // A readdress while decoding makes the verdict moot: the NVMHC
    // discards the result and re-executes at the fresh location.
    if (!req->stale && faults_->softDecodeFails(req->ppn, req->id)) {
        decoder_->stats.failures++;
        ++stats_.uncorrectableReads;
        req->faultFailed = true;
    }
    completeRequest(state_[chip], req, done);
}

} // namespace spk
