/**
 * @file
 * Pure page-level address mapping (logical page -> physical page).
 *
 * Keeps the forward map and the reverse map (for garbage collection);
 * a physical page is valid exactly when the reverse map names a
 * logical page for it. The paper's FTL is "a pure page-level address
 * mapping FTL" (Section 5.1); this is that.
 */

#ifndef SPK_FTL_MAPPING_HH
#define SPK_FTL_MAPPING_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "flash/geometry.hh"
#include "sim/types.hh"

namespace spk
{

/**
 * Page-level mapping table.
 *
 * Both tables are dense 32-bit arrays indexed by Lpn / Ppn; the
 * geometry's page counts bound both spaces, and a geometry with more
 * than kMaxPages physical pages is rejected with fatal(). An entry
 * stores page + 1 and 0 means unmapped, so a table can start all-zero
 * and be cleared lazily (see Table). Validity lives here (not in the
 * block manager) because it is a property of the mapping.
 */
class PageMapping
{
  public:
    /** Most physical pages a device may have: entries are 32 bits
     *  wide and 0 is reserved for "unmapped". */
    static constexpr std::uint64_t kMaxPages = 0xFFFF'FFFFull;

    /**
     * @param geo device geometry (fixes the physical page count)
     * @param logical_pages exported logical capacity in pages; must
     *        not exceed the physical page count
     */
    PageMapping(const FlashGeometry &geo, std::uint64_t logical_pages);

    std::uint64_t logicalPages() const { return l2p_.size(); }
    std::uint64_t physicalPages() const { return p2l_.size(); }

    /** Physical page holding @p lpn, or kInvalidPage if unwritten. */
    Ppn lookup(Lpn lpn) const;

    /** Logical page stored at @p ppn, or kInvalidPage if free/stale. */
    Lpn reverseLookup(Ppn ppn) const;

    /** True if @p ppn holds live data. */
    bool isValid(Ppn ppn) const;

    /**
     * Bind @p lpn to @p ppn, invalidating any previous binding.
     * @return the previous physical page, or kInvalidPage.
     */
    Ppn bind(Lpn lpn, Ppn ppn);

    /** Drop the binding at @p ppn (used when a block is erased). */
    void invalidatePhysical(Ppn ppn);

    /** Number of live pages currently mapped. */
    std::uint64_t liveCount() const { return live_; }

  private:
    /**
     * One table of 32-bit entries (page + 1, 0 = unmapped), zeroed
     * lazily in chunks of kChunk entries: construction zeroes one flag
     * bit per chunk, and a chunk is zeroed by its first write. A
     * device pays for the chunks its run writes, not for its capacity,
     * on fresh and reused heap memory alike. Entries and flags share
     * one allocation.
     */
    class Table
    {
      public:
        explicit Table(std::uint64_t n);

        std::uint64_t size() const { return size_; }

        std::uint32_t
        get(std::uint64_t i) const
        {
            return cleared(i / kChunk) ? words_[i] : 0;
        }

        void
        set(std::uint64_t i, std::uint32_t entry)
        {
            const std::uint64_t chunk = i / kChunk;
            if (!cleared(chunk)) {
                std::fill_n(&words_[chunk * kChunk], kChunk, 0u);
                flags()[chunk / 32] |= std::uint32_t{1} << (chunk % 32);
            }
            words_[i] = entry;
        }

      private:
        static constexpr std::uint64_t kChunk = 64;

        /** Chunk-cleared bits, after the chunks' entries. */
        std::uint32_t *flags() const { return &words_[chunks_ * kChunk]; }

        bool
        cleared(std::uint64_t chunk) const
        {
            return (flags()[chunk / 32] >> (chunk % 32)) & 1;
        }

        std::uint64_t size_;
        std::uint64_t chunks_;
        std::unique_ptr<std::uint32_t[]> words_;
    };

    static std::uint64_t
    decode(std::uint32_t entry)
    {
        return entry == 0 ? kInvalidPage : std::uint64_t{entry} - 1;
    }

    static std::uint32_t
    encode(std::uint64_t page)
    {
        return static_cast<std::uint32_t>(page + 1);
    }

    Table p2l_; //!< first: its size check guards both allocations
    Table l2p_;
    std::uint64_t live_ = 0;
};

} // namespace spk

#endif // SPK_FTL_MAPPING_HH
