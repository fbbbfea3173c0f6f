/**
 * @file
 * Physical geometry of a many-chip SSD and address arithmetic.
 *
 * The hierarchy follows the paper's platform: channels x chips per
 * channel, each chip has dies, each die has planes, each plane has
 * blocks of pages. A physical page number (Ppn) is a dense index over
 * the whole device; PhysAddr is its decomposed form.
 */

#ifndef SPK_FLASH_GEOMETRY_HH
#define SPK_FLASH_GEOMETRY_HH

#include <cstdint>
#include <string>

#include "sim/field_table.hh"
#include "sim/types.hh"

namespace spk
{

/**
 * Hard geometry ceilings, enforced by FlashGeometry::validate().
 *
 * Transaction classification, timing plans and coalesced request sets
 * are sized by these at compile time so the flash hot paths run on
 * fixed-size arrays instead of per-call associative containers.
 */
inline constexpr std::uint32_t kMaxDiesPerChip = 32;
inline constexpr std::uint32_t kMaxPlanesPerDie = 32;
/** Max requests one transaction can coalesce: one per (die, plane). */
inline constexpr std::uint32_t kMaxTxnRequests =
    kMaxDiesPerChip * kMaxPlanesPerDie;

/** Decomposed physical flash address. */
struct PhysAddr
{
    std::uint32_t chip = 0; //!< global chip index
    std::uint32_t die = 0;
    std::uint32_t plane = 0;
    std::uint32_t block = 0; //!< block index within the plane
    std::uint32_t page = 0;  //!< page index within the block

    bool operator==(const PhysAddr &) const = default;
};

/**
 * Immutable device geometry. All counts must be non-zero; validate()
 * is called by the constructor-style factory make().
 */
struct FlashGeometry
{
    std::uint32_t numChannels = 8;
    std::uint32_t chipsPerChannel = 8;
    std::uint32_t diesPerChip = 2;
    std::uint32_t planesPerDie = 4;
    std::uint32_t blocksPerPlane = 64;
    std::uint32_t pagesPerBlock = 128;
    std::uint32_t pageSizeBytes = 2048;

    /** Total chips in the device. */
    std::uint32_t numChips() const { return numChannels * chipsPerChannel; }

    std::uint64_t pagesPerPlane() const
    {
        return std::uint64_t{blocksPerPlane} * pagesPerBlock;
    }

    std::uint64_t pagesPerDie() const
    {
        return pagesPerPlane() * planesPerDie;
    }

    std::uint64_t pagesPerChip() const { return pagesPerDie() * diesPerChip; }

    /** Total physical pages in the device. */
    std::uint64_t totalPages() const
    {
        return pagesPerChip() * numChips();
    }

    std::uint64_t totalBlocks() const
    {
        return std::uint64_t{numChips()} * diesPerChip * planesPerDie *
               blocksPerPlane;
    }

    /** Raw capacity in bytes. */
    std::uint64_t capacityBytes() const
    {
        return totalPages() * pageSizeBytes;
    }

    /** Channel (bus) a global chip index lives on: chips stripe
     *  across channels, so consecutive chips sit on different buses. */
    std::uint32_t
    channelOfChip(std::uint32_t chip_index) const
    {
        return chip_index % numChannels;
    }

    /** Decompose a dense physical page number. */
    PhysAddr decompose(Ppn ppn) const;

    /** Recompose a physical address into a dense page number. */
    Ppn compose(const PhysAddr &addr) const;

    /** Global chip index a physical page lives on. */
    std::uint32_t chipOf(Ppn ppn) const;

    /** Abort via fatal() if any field is zero or inconsistent. */
    void validate() const;

    /** Human-readable one-line summary. */
    std::string describe() const;

    /** Field table (sim/field_table.hh): every member, in order. */
    template <typename F>
    static constexpr void forEachField(F &&f)
    {
        using G = FlashGeometry;
        visitFields(f, &G::numChannels, &G::chipsPerChannel,
                    &G::diesPerChip, &G::planesPerDie, &G::blocksPerPlane,
                    &G::pagesPerBlock, &G::pageSizeBytes);
    }
};

static_assert(fieldTableCovers<FlashGeometry>());

} // namespace spk

#endif // SPK_FLASH_GEOMETRY_HH
