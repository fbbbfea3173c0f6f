#include "ftl/mapping.hh"

#include "sim/logging.hh"

namespace spk
{

PageMapping::PageMapping(const FlashGeometry &geo,
                         std::uint64_t logical_pages)
    : l2p_(logical_pages, kInvalidPage),
      p2l_(geo.totalPages(), kInvalidPage)
{
    if (logical_pages > geo.totalPages())
        fatal("PageMapping: logical capacity exceeds physical capacity");
}

Ppn
PageMapping::lookup(Lpn lpn) const
{
    if (lpn >= l2p_.size())
        panic("PageMapping::lookup out-of-range lpn");
    return l2p_[lpn];
}

Lpn
PageMapping::reverseLookup(Ppn ppn) const
{
    if (ppn >= p2l_.size())
        panic("PageMapping::reverseLookup out-of-range ppn");
    return p2l_[ppn];
}

bool
PageMapping::isValid(Ppn ppn) const
{
    if (ppn >= p2l_.size())
        panic("PageMapping::isValid out-of-range ppn");
    return p2l_[ppn] != kInvalidPage;
}

Ppn
PageMapping::bind(Lpn lpn, Ppn ppn)
{
    if (lpn >= l2p_.size())
        panic("PageMapping::bind out-of-range lpn");
    if (ppn >= p2l_.size())
        panic("PageMapping::bind out-of-range ppn");
    if (p2l_[ppn] != kInvalidPage)
        panic("PageMapping::bind to a page that already holds live data");

    const Ppn old = l2p_[lpn];
    if (old != kInvalidPage) {
        p2l_[old] = kInvalidPage;
        --live_;
    }
    l2p_[lpn] = ppn;
    p2l_[ppn] = lpn;
    ++live_;
    return old;
}

void
PageMapping::invalidatePhysical(Ppn ppn)
{
    if (ppn >= p2l_.size())
        panic("PageMapping::invalidatePhysical out-of-range ppn");
    const Lpn lpn = p2l_[ppn];
    if (lpn == kInvalidPage)
        return;
    if (l2p_[lpn] == ppn)
        l2p_[lpn] = kInvalidPage;
    p2l_[ppn] = kInvalidPage;
    --live_;
}

} // namespace spk
