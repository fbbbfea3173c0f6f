/**
 * @file
 * Block allocation, write frontiers, wear tracking and bad blocks.
 *
 * Each plane owns its blocks. Writes are allocated from a per-plane
 * active block; the device-level allocator (in Ftl) rotates planes in
 * channel-stripe order so consecutive logical writes scatter across
 * chips first (system-level parallelism) and land on matching page
 * offsets across planes (enabling multiplane transactions later).
 */

#ifndef SPK_FTL_BLOCK_MANAGER_HH
#define SPK_FTL_BLOCK_MANAGER_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "flash/geometry.hh"
#include "sim/types.hh"

namespace spk
{

/** State of one erase block. */
enum class BlockState : std::uint8_t { Free, Active, Full, Bad };

/**
 * Page allocation (data placement) policy: the order in which the
 * write frontier rotates over planes. The paper notes that such
 * schemes are fixed at SSD design time [16, 36, 13]; both classic
 * orders are provided so their interaction with each scheduler can be
 * measured (see bench_ablation_allocation).
 */
enum class AllocationPolicy : std::uint8_t
{
    /**
     * Consecutive writes scatter across chips first (channel
     * striping + pipelining), then across dies/planes: maximizes
     * system-level parallelism for sequential streams.
     */
    ChannelStripe,

    /**
     * Consecutive writes fill one chip's planes/dies first: groups
     * consecutive data in one chip (higher per-chip FLP potential,
     * lower system-level parallelism).
     */
    PlaneFirst,
};

/** Printable name of an allocation policy. */
const char *allocationPolicyName(AllocationPolicy policy);

/** Book-keeping for one erase block. */
struct BlockInfo
{
    BlockState state = BlockState::Free;
    std::uint32_t writtenPages = 0; //!< frontier within the block
    std::uint32_t validPages = 0;   //!< live pages (maintained by Ftl)
    std::uint32_t eraseCount = 0;
};

/**
 * Per-device block manager.
 *
 * Planes are identified by a dense global plane index:
 * ((die * planesPerDie + plane) * numChips + chip). That ordering is
 * what makes consecutive allocations stripe across chips first.
 */
class BlockManager
{
  public:
    /**
     * @param geo device geometry
     * @param endurance erase cycles before a block is retired as bad
     * @param policy plane rotation order for the dense plane index
     * @param parity_reserve reserve the rotating die-parity page slots:
     *        the frontier skips offsets where (block + page) %
     *        diesPerChip equals the plane's die, leaving them for the
     *        parity engine
     * @param gc_threshold live planes with fewer free blocks than this
     *        are counted by planesBelowGcThreshold()
     */
    BlockManager(const FlashGeometry &geo, std::uint32_t endurance,
                 AllocationPolicy policy = AllocationPolicy::ChannelStripe,
                 bool parity_reserve = false,
                 std::uint32_t gc_threshold = 0);

    std::uint64_t numPlanes() const { return planes_.size(); }

    /** Dense global plane index for a physical address. */
    std::uint64_t planeIndexOf(const PhysAddr &addr) const;

    /** Global plane index -> (chip, die, plane) prefix of PhysAddr. */
    PhysAddr planeAddr(std::uint64_t plane_idx) const;

    /**
     * Allocate the next free page in @p plane_idx.
     *
     * Host allocations leave one free block per plane as a GC reserve
     * (otherwise garbage collection can deadlock with no destination
     * for live-page migration); pass @p gc_reserve = true from the GC
     * migration path to use the reserve.
     *
     * @return the Ppn, or std::nullopt if the plane has no free page.
     */
    std::optional<Ppn> allocatePage(std::uint64_t plane_idx,
                                    bool gc_reserve = false);

    /** Free blocks remaining in a plane (not counting the active one);
     *  O(1), kept exact at every block-state change. */
    std::uint32_t freeBlocks(std::uint64_t plane_idx) const
    {
        return planes_.at(plane_idx).freeBlocks;
    }

    /** Live planes whose freeBlocks() is below the GC threshold. */
    std::uint64_t planesBelowGcThreshold() const { return lowPlanes_; }

    /** Free entries of a plane's free-list ring, counted by walking
     *  it: the O(blocks) audit of freeBlocks(). */
    std::uint32_t countFreeListEntries(std::uint64_t plane_idx) const;

    /** Block metadata (block addressed by plane + block-in-plane). */
    const BlockInfo &block(std::uint64_t plane_idx,
                           std::uint32_t block) const;

    /** Adjust the valid-page count of a block (called by Ftl). */
    void addValid(std::uint64_t plane_idx, std::uint32_t block, int delta);

    /**
     * Erase a block: returns it to the free list (or retires it when
     * endurance is exhausted).
     * @return false when the block was retired as bad.
     */
    bool eraseBlock(std::uint64_t plane_idx, std::uint32_t block);

    /**
     * Retire a block outright (program/erase failure): mark it Bad
     * without erasing. No-op if the block is already Bad. The caller
     * is responsible for relocating any live pages first.
     */
    void retireBlock(std::uint64_t plane_idx, std::uint32_t block);

    /** Take a whole plane offline (die failure). Allocation and GC
     *  victim selection steer around dead planes. */
    void markPlaneDead(std::uint64_t plane_idx);

    /**
     * Bring a dead plane back online after rebuild: every non-Bad
     * block resets to Free with a rebuilt free list (the physical die
     * was replaced/erased wholesale; erase counts persist as wear
     * history). Panics if any block still holds valid pages — rebuild
     * must relocate them all first.
     */
    void revivePlane(std::uint64_t plane_idx);

    bool planeDead(std::uint64_t plane_idx) const
    {
        return planes_.at(plane_idx).dead;
    }

    /** Planes taken offline by die failure. */
    std::uint64_t deadPlanes() const { return deadPlanes_; }

    /** Total pages a plane can still accept before needing GC. */
    std::uint64_t freePages(std::uint64_t plane_idx) const;

    /** Highest erase count across all blocks (wear indicator). */
    std::uint32_t maxEraseCount() const { return maxErase_; }

    /** (min, max) erase counts over non-bad blocks ((0, 0) when every
     *  block is bad). Cached: only the first call after an erase or a
     *  retirement scans the blocks, so a device that erases nothing
     *  answers in O(1). */
    std::pair<std::uint32_t, std::uint32_t> eraseSpread() const;

    /**
     * Coldest Full block in the device: lowest erase count, most
     * valid pages as tie-break (static wear-leveling victim).
     * @return (plane index, block) or std::nullopt.
     */
    std::optional<std::pair<std::uint64_t, std::uint32_t>>
    pickColdestFull() const;

    /** Number of blocks retired as bad so far. */
    std::uint64_t badBlocks() const { return badBlocks_; }

  private:
    /**
     * Per-plane header. Block metadata and the free-list slots live in
     * the device-wide flat arrays below (blocks_, freeSlots_), indexed
     * by plane * blocksPerPlane + offset: a 512-plane device costs
     * three allocations instead of one-per-plane-per-container, which
     * keeps repeated device construction (sweeps, benchmarks) cheap.
     */
    struct Plane
    {
        /**
         * FIFO free list: erased blocks go to the back and new active
         * blocks come from the front, so every block cycles through
         * the rotation (LIFO would re-erase the same few blocks and
         * defeat wear leveling). freeHead/freeCount address a ring
         * inside the plane's fixed freeSlots_ segment -- a plane can
         * never have more than blocksPerPlane free blocks.
         */
        std::uint32_t freeHead = 0;
        std::uint32_t freeCount = 0;
        /** Ring entries whose block is Free. A Free block sits in the
         *  ring exactly once; Bad ones may linger there until popped. */
        std::uint32_t freeBlocks = 0;
        std::int32_t activeBlock = -1; //!< -1: none
        bool dead = false; //!< whole plane offline (die failure)
    };

    /** Flat blocks_ segment of one plane. */
    BlockInfo *planeBlocks(std::uint64_t plane_idx)
    {
        return blocks_.data() + plane_idx * geo_.blocksPerPlane;
    }
    const BlockInfo *planeBlocks(std::uint64_t plane_idx) const
    {
        return blocks_.data() + plane_idx * geo_.blocksPerPlane;
    }

    /** True when a live plane is below the GC threshold. */
    bool planeLow(const Plane &plane) const
    {
        return !plane.dead && plane.freeBlocks < gcThreshold_;
    }

    /** Set a plane's Free-block count and its dead flag, keeping
     *  lowPlanes_ exact. */
    void setPlaneState(std::uint64_t plane_idx, std::uint32_t free_blocks,
                       bool dead);

    /** Add @p delta to a plane's Free-block count. */
    void addFreeBlocks(std::uint64_t plane_idx, int delta)
    {
        Plane &plane = planes_[plane_idx];
        setPlaneState(plane_idx,
                      static_cast<std::uint32_t>(
                          static_cast<int>(plane.freeBlocks) + delta),
                      plane.dead);
    }

    void freePushBack(std::uint64_t plane_idx, std::uint32_t blk);
    std::uint32_t freePopFront(std::uint64_t plane_idx);

    /** Make sure a plane has an active block; may pop the free list. */
    bool ensureActive(std::uint64_t plane_idx, bool gc_reserve);

    FlashGeometry geo_;
    std::uint32_t endurance_;
    AllocationPolicy policy_;
    bool parityReserve_ = false;
    std::uint32_t gcThreshold_ = 0;
    std::uint64_t lowPlanes_ = 0; //!< live planes below gcThreshold_
    std::vector<Plane> planes_;
    std::vector<BlockInfo> blocks_;        //!< planes x blocksPerPlane
    std::vector<std::uint32_t> freeSlots_; //!< planes x blocksPerPlane
    std::uint32_t maxErase_ = 0;
    /** eraseSpread()'s answer, valid while !spreadStale_; eraseBlock
     *  and retireBlock set the bit. */
    mutable std::pair<std::uint32_t, std::uint32_t> spread_{0, 0};
    mutable bool spreadStale_ = false;
    std::uint64_t badBlocks_ = 0;
    std::uint64_t deadPlanes_ = 0;
};

} // namespace spk

#endif // SPK_FTL_BLOCK_MANAGER_HH
