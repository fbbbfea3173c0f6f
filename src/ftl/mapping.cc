#include "ftl/mapping.hh"

#include <string>

#include "sim/logging.hh"

namespace spk
{

namespace
{

/** Physical page count of @p geo, checked (before either table is
 *  allocated) against the 32-bit entries and the logical capacity. */
std::uint64_t
checkedPhysicalPages(const FlashGeometry &geo, std::uint64_t logical_pages)
{
    const std::uint64_t pages = geo.totalPages();
    if (pages > PageMapping::kMaxPages) {
        fatal("PageMapping: " + std::to_string(pages) +
              " physical pages exceed the 32-bit mapping limit of " +
              std::to_string(PageMapping::kMaxPages));
    }
    if (logical_pages > pages)
        fatal("PageMapping: logical capacity exceeds physical capacity");
    return pages;
}

} // namespace

PageMapping::Table::Table(std::uint64_t n)
    : size_(n), chunks_((n + kChunk - 1) / kChunk),
      words_(std::make_unique_for_overwrite<std::uint32_t[]>(
          chunks_ * kChunk + (chunks_ + 31) / 32))
{
    std::fill_n(flags(), (chunks_ + 31) / 32, 0u);
}

PageMapping::PageMapping(const FlashGeometry &geo,
                         std::uint64_t logical_pages)
    : p2l_(checkedPhysicalPages(geo, logical_pages)), l2p_(logical_pages)
{
}

Ppn
PageMapping::lookup(Lpn lpn) const
{
    if (lpn >= l2p_.size())
        panic("PageMapping::lookup out-of-range lpn");
    return decode(l2p_.get(lpn));
}

Lpn
PageMapping::reverseLookup(Ppn ppn) const
{
    if (ppn >= p2l_.size())
        panic("PageMapping::reverseLookup out-of-range ppn");
    return decode(p2l_.get(ppn));
}

bool
PageMapping::isValid(Ppn ppn) const
{
    if (ppn >= p2l_.size())
        panic("PageMapping::isValid out-of-range ppn");
    return p2l_.get(ppn) != 0;
}

Ppn
PageMapping::bind(Lpn lpn, Ppn ppn)
{
    if (lpn >= l2p_.size())
        panic("PageMapping::bind out-of-range lpn");
    if (ppn >= p2l_.size())
        panic("PageMapping::bind out-of-range ppn");
    if (p2l_.get(ppn) != 0)
        panic("PageMapping::bind to a page that already holds live data");

    const Ppn old = decode(l2p_.get(lpn));
    if (old != kInvalidPage) {
        p2l_.set(old, 0);
        --live_;
    }
    l2p_.set(lpn, encode(ppn));
    p2l_.set(ppn, encode(lpn));
    ++live_;
    return old;
}

void
PageMapping::invalidatePhysical(Ppn ppn)
{
    if (ppn >= p2l_.size())
        panic("PageMapping::invalidatePhysical out-of-range ppn");
    const Lpn lpn = decode(p2l_.get(ppn));
    if (lpn == kInvalidPage)
        return;
    if (decode(l2p_.get(lpn)) == ppn)
        l2p_.set(lpn, 0);
    p2l_.set(ppn, 0);
    --live_;
}

} // namespace spk
