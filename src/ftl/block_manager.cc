#include "ftl/block_manager.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"

namespace spk
{

const char *
allocationPolicyName(AllocationPolicy policy)
{
    switch (policy) {
      case AllocationPolicy::ChannelStripe:
        return "channel-stripe";
      case AllocationPolicy::PlaneFirst:
        return "plane-first";
    }
    return "?";
}

BlockManager::BlockManager(const FlashGeometry &geo,
                           std::uint32_t endurance,
                           AllocationPolicy policy, bool parity_reserve,
                           std::uint32_t gc_threshold)
    : geo_(geo), endurance_(endurance), policy_(policy),
      parityReserve_(parity_reserve), gcThreshold_(gc_threshold)
{
    const std::uint64_t n_planes = std::uint64_t{geo.numChips()} *
                                   geo.diesPerChip * geo.planesPerDie;
    planes_.resize(n_planes);
    blocks_.resize(n_planes * geo.blocksPerPlane);
    freeSlots_.resize(n_planes * geo.blocksPerPlane);
    for (std::uint64_t p = 0; p < n_planes; ++p) {
        for (std::uint32_t b = 0; b < geo.blocksPerPlane; ++b)
            freeSlots_[p * geo.blocksPerPlane + b] = b;
        planes_[p].freeCount = geo.blocksPerPlane;
        planes_[p].freeBlocks = geo.blocksPerPlane;
    }
    lowPlanes_ = geo.blocksPerPlane < gcThreshold_ ? n_planes : 0;
}

void
BlockManager::setPlaneState(std::uint64_t plane_idx,
                            std::uint32_t free_blocks, bool dead)
{
    Plane &plane = planes_[plane_idx];
    const bool was_low = planeLow(plane);
    plane.freeBlocks = free_blocks;
    plane.dead = dead;
    lowPlanes_ = lowPlanes_ - (was_low ? 1 : 0) + (planeLow(plane) ? 1 : 0);
}

void
BlockManager::freePushBack(std::uint64_t plane_idx, std::uint32_t blk)
{
    Plane &plane = planes_[plane_idx];
    if (plane.freeCount >= geo_.blocksPerPlane)
        panic("BlockManager free list overflow");
    const std::uint32_t pos =
        (plane.freeHead + plane.freeCount) % geo_.blocksPerPlane;
    freeSlots_[plane_idx * geo_.blocksPerPlane + pos] = blk;
    ++plane.freeCount;
}

std::uint32_t
BlockManager::freePopFront(std::uint64_t plane_idx)
{
    Plane &plane = planes_[plane_idx];
    const std::uint32_t blk =
        freeSlots_[plane_idx * geo_.blocksPerPlane + plane.freeHead];
    plane.freeHead = (plane.freeHead + 1) % geo_.blocksPerPlane;
    --plane.freeCount;
    return blk;
}

std::uint64_t
BlockManager::planeIndexOf(const PhysAddr &addr) const
{
    const std::uint64_t chip = addr.chip;
    const std::uint64_t die_plane =
        std::uint64_t{addr.die} * geo_.planesPerDie + addr.plane;
    const std::uint64_t planes_per_chip =
        std::uint64_t{geo_.diesPerChip} * geo_.planesPerDie;
    switch (policy_) {
      case AllocationPolicy::ChannelStripe:
        return die_plane * geo_.numChips() + chip;
      case AllocationPolicy::PlaneFirst:
        return chip * planes_per_chip + die_plane;
    }
    return 0;
}

PhysAddr
BlockManager::planeAddr(std::uint64_t plane_idx) const
{
    const std::uint64_t planes_per_chip =
        std::uint64_t{geo_.diesPerChip} * geo_.planesPerDie;
    std::uint64_t chip = 0;
    std::uint64_t die_plane = 0;
    switch (policy_) {
      case AllocationPolicy::ChannelStripe:
        chip = plane_idx % geo_.numChips();
        die_plane = plane_idx / geo_.numChips();
        break;
      case AllocationPolicy::PlaneFirst:
        chip = plane_idx / planes_per_chip;
        die_plane = plane_idx % planes_per_chip;
        break;
    }
    PhysAddr addr;
    addr.chip = static_cast<std::uint32_t>(chip);
    addr.die = static_cast<std::uint32_t>(die_plane / geo_.planesPerDie);
    addr.plane = static_cast<std::uint32_t>(die_plane % geo_.planesPerDie);
    return addr;
}

bool
BlockManager::ensureActive(std::uint64_t plane_idx, bool gc_reserve)
{
    Plane &plane = planes_[plane_idx];
    BlockInfo *blocks = planeBlocks(plane_idx);
    if (plane.activeBlock >= 0) {
        const auto &info =
            blocks[static_cast<std::uint32_t>(plane.activeBlock)];
        if (info.writtenPages < geo_.pagesPerBlock)
            return true;
        // Block is full: demote it.
        blocks[static_cast<std::uint32_t>(plane.activeBlock)].state =
            BlockState::Full;
        plane.activeBlock = -1;
    }
    while (plane.freeCount != 0) {
        // Host writes must not consume the last free block: garbage
        // collection needs a migration destination (GC reserve).
        if (!gc_reserve && plane.freeCount <= 1)
            return false;
        const std::uint32_t b = freePopFront(plane_idx);
        if (blocks[b].state != BlockState::Free)
            continue;
        blocks[b].state = BlockState::Active;
        blocks[b].writtenPages = 0;
        plane.activeBlock = static_cast<std::int32_t>(b);
        addFreeBlocks(plane_idx, -1);
        return true;
    }
    return false;
}

std::optional<Ppn>
BlockManager::allocatePage(std::uint64_t plane_idx, bool gc_reserve)
{
    if (plane_idx >= planes_.size())
        panic("BlockManager::allocatePage bad plane index");
    Plane &plane = planes_[plane_idx];
    if (plane.dead)
        return std::nullopt;
    PhysAddr addr = planeAddr(plane_idx);
    for (;;) {
        if (!ensureActive(plane_idx, gc_reserve))
            return std::nullopt;
        auto &info = planeBlocks(
            plane_idx)[static_cast<std::uint32_t>(plane.activeBlock)];
        const std::uint32_t blk =
            static_cast<std::uint32_t>(plane.activeBlock);
        if (parityReserve_) {
            // Skip the rotating parity slots; the parity engine
            // programs them when the stripe closes.
            while (info.writtenPages < geo_.pagesPerBlock &&
                   (blk + info.writtenPages) % geo_.diesPerChip ==
                       addr.die) {
                ++info.writtenPages;
            }
            if (info.writtenPages >= geo_.pagesPerBlock) {
                info.state = BlockState::Full;
                plane.activeBlock = -1;
                continue;
            }
        }
        addr.block = blk;
        addr.page = info.writtenPages;
        ++info.writtenPages;
        return geo_.compose(addr);
    }
}

std::uint32_t
BlockManager::countFreeListEntries(std::uint64_t plane_idx) const
{
    const Plane &plane = planes_.at(plane_idx);
    const BlockInfo *blocks = planeBlocks(plane_idx);
    const std::uint32_t *slots =
        freeSlots_.data() + plane_idx * geo_.blocksPerPlane;
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < plane.freeCount; ++i) {
        const std::uint32_t pos =
            (plane.freeHead + i) % geo_.blocksPerPlane;
        if (blocks[slots[pos]].state == BlockState::Free)
            ++n;
    }
    return n;
}

const BlockInfo &
BlockManager::block(std::uint64_t plane_idx, std::uint32_t blk) const
{
    if (plane_idx >= planes_.size() || blk >= geo_.blocksPerPlane)
        panic("BlockManager::block bad address");
    return planeBlocks(plane_idx)[blk];
}

void
BlockManager::addValid(std::uint64_t plane_idx, std::uint32_t blk,
                       int delta)
{
    if (plane_idx >= planes_.size() || blk >= geo_.blocksPerPlane)
        panic("BlockManager::addValid bad address");
    auto &info = planeBlocks(plane_idx)[blk];
    if (delta < 0 &&
        info.validPages < static_cast<std::uint32_t>(-delta)) {
        panic("BlockManager::addValid underflow");
    }
    info.validPages =
        static_cast<std::uint32_t>(static_cast<int>(info.validPages) +
                                   delta);
}

bool
BlockManager::eraseBlock(std::uint64_t plane_idx, std::uint32_t blk)
{
    Plane &plane = planes_.at(plane_idx);
    if (blk >= geo_.blocksPerPlane)
        panic("BlockManager::eraseBlock bad block");
    auto &info = planeBlocks(plane_idx)[blk];
    if (info.state == BlockState::Bad)
        panic("BlockManager::eraseBlock on a bad block");
    if (info.validPages != 0)
        panic("BlockManager::eraseBlock with live pages");
    // A Free block already holds its one free-list entry.
    const bool was_free = info.state == BlockState::Free;

    ++info.eraseCount;
    maxErase_ = std::max(maxErase_, info.eraseCount);
    spreadStale_ = true;
    info.writtenPages = 0;

    if (static_cast<std::int32_t>(blk) == plane.activeBlock)
        plane.activeBlock = -1;

    if (info.eraseCount >= endurance_) {
        // Bad block replacement: retire; capacity shrinks.
        info.state = BlockState::Bad;
        ++badBlocks_;
        if (was_free)
            addFreeBlocks(plane_idx, -1);
        return false;
    }
    info.state = BlockState::Free;
    if (!was_free) {
        freePushBack(plane_idx, blk);
        addFreeBlocks(plane_idx, +1);
    }
    return true;
}

void
BlockManager::retireBlock(std::uint64_t plane_idx, std::uint32_t blk)
{
    Plane &plane = planes_.at(plane_idx);
    if (blk >= geo_.blocksPerPlane)
        panic("BlockManager::retireBlock bad block");
    auto &info = planeBlocks(plane_idx)[blk];
    if (info.state == BlockState::Bad)
        return;
    if (static_cast<std::int32_t>(blk) == plane.activeBlock)
        plane.activeBlock = -1;
    // A retired block may still sit in the free list (fault while
    // Free); ensureActive skips non-Free entries, so it is harmless.
    if (info.state == BlockState::Free)
        addFreeBlocks(plane_idx, -1);
    info.state = BlockState::Bad;
    ++badBlocks_;
    spreadStale_ = true;
}

void
BlockManager::markPlaneDead(std::uint64_t plane_idx)
{
    Plane &plane = planes_.at(plane_idx);
    if (plane.dead)
        return;
    setPlaneState(plane_idx, plane.freeBlocks, /*dead=*/true);
    ++deadPlanes_;
}

void
BlockManager::revivePlane(std::uint64_t plane_idx)
{
    Plane &plane = planes_.at(plane_idx);
    if (!plane.dead)
        panic("BlockManager::revivePlane on a live plane");
    plane.freeHead = 0;
    plane.freeCount = 0;
    plane.activeBlock = -1;
    for (std::uint32_t b = 0; b < geo_.blocksPerPlane; ++b) {
        auto &info = planeBlocks(plane_idx)[b];
        if (info.validPages != 0)
            panic("BlockManager::revivePlane with live pages");
        if (info.state == BlockState::Bad)
            continue;
        info.state = BlockState::Free;
        info.writtenPages = 0;
        freePushBack(plane_idx, b);
    }
    setPlaneState(plane_idx, plane.freeCount, /*dead=*/false);
    --deadPlanes_;
}

std::pair<std::uint32_t, std::uint32_t>
BlockManager::eraseSpread() const
{
    if (!spreadStale_)
        return spread_;
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t hi = 0;
    for (const auto &info : blocks_) {
        if (info.state == BlockState::Bad)
            continue;
        lo = std::min(lo, info.eraseCount);
        hi = std::max(hi, info.eraseCount);
    }
    if (lo > hi)
        lo = hi;
    spread_ = {lo, hi};
    spreadStale_ = false;
    return spread_;
}

std::optional<std::pair<std::uint64_t, std::uint32_t>>
BlockManager::pickColdestFull() const
{
    std::optional<std::pair<std::uint64_t, std::uint32_t>> best;
    std::uint32_t best_erase = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t best_valid = 0;
    for (std::uint64_t p = 0; p < planes_.size(); ++p) {
        const auto &plane = planes_[p];
        if (plane.dead)
            continue;
        for (std::uint32_t b = 0; b < geo_.blocksPerPlane; ++b) {
            const auto &info = planeBlocks(p)[b];
            if (info.state != BlockState::Full)
                continue;
            if (info.eraseCount < best_erase ||
                (info.eraseCount == best_erase &&
                 info.validPages > best_valid)) {
                best_erase = info.eraseCount;
                best_valid = info.validPages;
                best = {p, b};
            }
        }
    }
    return best;
}

std::uint64_t
BlockManager::freePages(std::uint64_t plane_idx) const
{
    const Plane &plane = planes_.at(plane_idx);
    const BlockInfo *blocks = planeBlocks(plane_idx);
    std::uint64_t pages = 0;
    for (std::uint32_t b = 0; b < geo_.blocksPerPlane; ++b) {
        if (blocks[b].state == BlockState::Free)
            pages += geo_.pagesPerBlock;
    }
    if (plane.activeBlock >= 0) {
        const auto &info =
            blocks[static_cast<std::uint32_t>(plane.activeBlock)];
        pages += geo_.pagesPerBlock - info.writtenPages;
    }
    return pages;
}

} // namespace spk
