#include "sched/sprinkler.hh"

#include <algorithm>

#include "flash/transaction.hh"
#include "sim/logging.hh"

namespace spk
{

SprinklerScheduler::SprinklerScheduler(bool rios, bool faro,
                                       std::uint32_t window)
    : rios_(rios), faro_(faro), window_(window == 0 ? 1 : window)
{
    if (!rios && !faro)
        fatal("SprinklerScheduler: enable at least one of RIOS/FARO");
}

const char *
SprinklerScheduler::name() const
{
    if (rios_ && faro_)
        return "SPK3";
    return rios_ ? "SPK2" : "SPK1";
}

MemoryRequest *
SprinklerScheduler::oldest(SchedulerContext &ctx,
                           std::uint32_t chip) const
{
    for (MemoryRequest *req = ctx.pending->front(chip); req != nullptr;
         req = req->chipNext) {
        if (ctx.view->schedulable(*req))
            return req;
    }
    return nullptr;
}

void
SprinklerScheduler::bestSet(SchedulerContext &ctx, std::uint32_t chip,
                            std::vector<MemoryRequest *> &out) const
{
    candScratch_.clear();
    for (MemoryRequest *req = ctx.pending->front(chip); req != nullptr;
         req = req->chipNext) {
        if (ctx.view->schedulable(*req))
            candScratch_.push_back(req);
    }
    bestSetFrom(candScratch_, chip, out);
}

void
SprinklerScheduler::bestSetFrom(
    const std::vector<MemoryRequest *> &candidates, std::uint32_t chip,
    std::vector<MemoryRequest *> &out) const
{
    out.clear();
    if (candidates.empty())
        return;

    // Connectivity: requests per owning I/O among the candidates.
    // Flat per-tag counters, reset via the touched-slot list (tags
    // recycle within the NVMHC queue depth, so this stays tiny).
    for (const auto slot : touchedTags_)
        tagCount_[slot] = 0;
    touchedTags_.clear();
    for (const auto *req : candidates) {
        const std::size_t slot = tagSlot(req->tag);
        if (slot >= tagCount_.size())
            tagCount_.resize(slot + 1, 0);
        if (tagCount_[slot]++ == 0)
            touchedTags_.push_back(static_cast<std::uint32_t>(slot));
    }

    // Greedy coalescable set seeded at the oldest candidate of each
    // operation type; the larger set has the higher overlap depth.
    const auto greedy = [&](FlashOp op,
                            std::vector<MemoryRequest *> &set) {
        set.clear();
        FlashTransaction txn(op, chip);
        for (MemoryRequest *req : candidates) {
            if (req->op != op || set.size() >= window_)
                continue;
            if (canCoalesce(txn, *req)) {
                txn.add(req);
                set.push_back(req);
            }
        }
    };

    greedy(FlashOp::Read, readSet_);
    greedy(FlashOp::Program, writeSet_);

    const auto connectivity =
        [&](const std::vector<MemoryRequest *> &set) {
            std::uint32_t best = 0;
            for (const auto *req : set)
                best = std::max(best, tagCount_[tagSlot(req->tag)]);
            return best;
        };

    const auto pick = [&](const std::vector<MemoryRequest *> &set) {
        out.assign(set.begin(), set.end());
    };

    if (readSet_.size() != writeSet_.size()) {
        pick(readSet_.size() > writeSet_.size() ? readSet_ : writeSet_);
        return;
    }
    if (readSet_.empty())
        return; // both empty
    // Same overlap depth: prefer the higher-connectivity set; final
    // tie goes to the set whose seed arrived first.
    const auto conn_r = connectivity(readSet_);
    const auto conn_w = connectivity(writeSet_);
    if (conn_r != conn_w) {
        pick(conn_r > conn_w ? readSet_ : writeSet_);
        return;
    }
    pick(readSet_.front()->id <= writeSet_.front()->id ? readSet_
                                                       : writeSet_);
}

MemoryRequest *
SprinklerScheduler::takeSet(const std::vector<MemoryRequest *> &set)
{
    batch_.assign(set.begin() + 1, set.end());
    batchPos_ = 0;
    return set.front();
}

MemoryRequest *
SprinklerScheduler::nextRios(SchedulerContext &ctx)
{
    const std::uint32_t n = ctx.geo->numChips();
    for (std::uint32_t i = 0; i < n; ++i) {
        // Chip indices already stripe across channels (chip k lives on
        // channel k % numChannels), so linear traversal is the RIOS
        // visit order: same offset across channels, then next offset.
        const auto chip = static_cast<std::uint32_t>((cursor_ + i) % n);
        if (ctx.pending->front(chip) == nullptr)
            continue;

        if (faro_) {
            if (ctx.view->outstanding(chip) >= window_)
                continue;
            bestSet(ctx, chip, setScratch_);
            if (setScratch_.empty())
                continue;
            cursor_ = chip + 1;
            return takeSet(setScratch_);
        }

        // SPK2: no over-commitment -- one outstanding request per
        // chip, oldest first.
        if (ctx.view->outstanding(chip) > 0)
            continue;
        if (MemoryRequest *req = oldest(ctx, chip)) {
            cursor_ = chip + 1;
            return req;
        }
    }
    return nullptr;
}

MemoryRequest *
SprinklerScheduler::nextFaroOnly(SchedulerContext &ctx)
{
    // SPK1: FARO without RIOS. Composition is still driven by the
    // host's I/O arrival order -- only the requests of the few I/Os
    // at the head of the queue are visible for over-commitment, so
    // parallelism dependency remains (Section 5.2: "FARO cannot
    // always secure enough memory requests without RIOS's help").
    constexpr std::size_t kLookaheadIos = 4;

    TagId head[kLookaheadIos];
    std::size_t n_head = 0;
    for (const IoRequest *io : *ctx.queue) {
        if (io->allComposed())
            continue;
        head[n_head++] = io->tag;
        if (n_head == kLookaheadIos)
            break;
    }
    if (n_head == 0)
        return nullptr;

    const auto by_id = [](const MemoryRequest *a, const MemoryRequest *b) {
        return a->id < b->id;
    };
    std::size_t best_depth = 0;
    std::uint64_t best_seed = 0;
    bestScratch_.clear();
    const std::uint32_t n_chips = ctx.geo->numChips();
    for (std::uint32_t chip = 0; chip < n_chips; ++chip) {
        if (ctx.pending->front(chip) == nullptr ||
            ctx.view->outstanding(chip) >= window_)
            continue;
        // The chip's requests of the head I/Os, in request-id order.
        // The head I/Os are in id order already; a readdressed read
        // rejoined its (chip, tag) list at the back.
        candScratch_.clear();
        std::uint64_t oldest = ~std::uint64_t{0};
        for (std::size_t i = 0; i < n_head; ++i) {
            for (MemoryRequest *req = ctx.pending->frontOf(chip, head[i]);
                 req != nullptr; req = req->chipTagNext) {
                if (!req->composing) {
                    candScratch_.push_back(req);
                    oldest = std::min(oldest, req->id);
                }
            }
        }
        // A set is at most window_ deep and seeded by one of these
        // requests: skip the chip before any hazard check when it
        // cannot beat the best set so far (deeper, or as deep with an
        // older seed).
        const std::size_t max_depth =
            std::min<std::size_t>(candScratch_.size(), window_);
        if (max_depth < best_depth ||
            (max_depth == best_depth && oldest > best_seed))
            continue;
        std::erase_if(candScratch_, [&](const MemoryRequest *req) {
            return !ctx.view->schedulable(*req);
        });
        if (!std::is_sorted(candScratch_.begin(), candScratch_.end(), by_id))
            std::sort(candScratch_.begin(), candScratch_.end(), by_id);
        bestSetFrom(candScratch_, chip, setScratch_);
        if (setScratch_.empty())
            continue;
        const std::uint64_t seed = setScratch_.front()->id;
        if (setScratch_.size() > best_depth ||
            (setScratch_.size() == best_depth && seed < best_seed)) {
            best_depth = setScratch_.size();
            best_seed = seed;
            std::swap(bestScratch_, setScratch_);
        }
    }
    if (bestScratch_.empty())
        return nullptr;
    return takeSet(bestScratch_);
}

MemoryRequest *
SprinklerScheduler::next(SchedulerContext &ctx)
{
    // Finish committing the current FARO batch first so the whole set
    // reaches the flash controller within one decision window.
    while (batchPos_ < batch_.size()) {
        MemoryRequest *req = batch_[batchPos_++];
        if (!req->composed && ctx.view->schedulable(*req))
            return req;
    }
    return rios_ ? nextRios(ctx) : nextFaroOnly(ctx);
}

} // namespace spk
