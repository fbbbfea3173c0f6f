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

#include <cstdint>
#include <vector>

#include "flash/geometry.hh"
#include "sim/types.hh"

namespace spk
{

/**
 * Page-level mapping table.
 *
 * Both tables are dense vectors indexed by Lpn / Ppn; the geometry's
 * page counts bound both spaces. Validity lives here (not in the
 * block manager) because it is a property of the mapping.
 */
class PageMapping
{
  public:
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
    std::vector<Ppn> l2p_;
    std::vector<Lpn> p2l_; //!< kInvalidPage = free or stale
    std::uint64_t live_ = 0;
};

} // namespace spk

#endif // SPK_FTL_MAPPING_HH
