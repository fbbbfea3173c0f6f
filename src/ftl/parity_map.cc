#include "ftl/parity_map.hh"

#include "sim/logging.hh"

namespace spk
{

namespace
{

/**
 * Stripe ids are chip-major, then (plane, block, page) within the
 * chip, mirroring the Ppn layout with the die level removed:
 *   s = chipBase + ((plane * blocksPerPlane + block) * pagesPerBlock
 *                   + page)
 */
std::uint64_t
stripeOffsetInChip(const FlashGeometry &geo, const PhysAddr &addr)
{
    return (std::uint64_t{addr.plane} * geo.blocksPerPlane + addr.block) *
               geo.pagesPerBlock +
           addr.page;
}

} // namespace

StripeParityMap::StripeParityMap(const FlashGeometry &geo)
    : geo_(geo), dies_(geo.diesPerChip),
      stripesPerChip_(geo.pagesPerChip() / geo.diesPerChip),
      masks_(geo.totalPages() / geo.diesPerChip, 0u)
{
    if (dies_ < 2)
        fatal("StripeParityMap: parity needs diesPerChip >= 2, got " +
              std::to_string(dies_));
}

StripeId
StripeParityMap::stripeOf(Ppn ppn) const
{
    const PhysAddr addr = geo_.decompose(ppn);
    return chipStripeBase(addr.chip) + stripeOffsetInChip(geo_, addr);
}

std::uint32_t
StripeParityMap::parityDie(StripeId stripe) const
{
    const std::uint64_t in_chip = stripe % stripesPerChip_;
    const std::uint32_t page =
        static_cast<std::uint32_t>(in_chip % geo_.pagesPerBlock);
    const std::uint32_t block = static_cast<std::uint32_t>(
        (in_chip / geo_.pagesPerBlock) % geo_.blocksPerPlane);
    return parityDieOf(block, page, dies_);
}

Ppn
StripeParityMap::memberPpn(StripeId stripe, std::uint32_t die) const
{
    const std::uint32_t chip =
        static_cast<std::uint32_t>(stripe / stripesPerChip_);
    const std::uint64_t in_chip = stripe % stripesPerChip_;
    PhysAddr addr;
    addr.chip = chip;
    addr.die = die;
    addr.page = static_cast<std::uint32_t>(in_chip % geo_.pagesPerBlock);
    addr.block = static_cast<std::uint32_t>(
        (in_chip / geo_.pagesPerBlock) % geo_.blocksPerPlane);
    addr.plane = static_cast<std::uint32_t>(
        in_chip / geo_.pagesPerBlock / geo_.blocksPerPlane);
    return geo_.compose(addr);
}

bool
StripeParityMap::isParityPage(Ppn ppn) const
{
    const PhysAddr addr = geo_.decompose(ppn);
    return isParitySlot(addr.die, addr.block, addr.page, dies_);
}

void
StripeParityMap::markDataWritten(Ppn ppn)
{
    const PhysAddr addr = geo_.decompose(ppn);
    const StripeId s = stripeOf(ppn);
    if (isParitySlot(addr.die, addr.block, addr.page, dies_))
        panic("StripeParityMap: data write landed on a parity slot, ppn " +
              std::to_string(ppn));
    masks_[s] |= maskBit(addr.die);
}

bool
StripeParityMap::fullyWritten(StripeId stripe) const
{
    const std::uint32_t all = (dies_ >= 32) ? ~0u : ((1u << dies_) - 1);
    const std::uint32_t data_bits = all & ~maskBit(parityDie(stripe));
    return (masks_[stripe] & data_bits) == data_bits;
}

void
StripeParityMap::clearBlock(Ppn block_base_ppn, std::uint32_t die)
{
    PhysAddr addr = geo_.decompose(block_base_ppn);
    addr.page = 0;
    const StripeId first =
        chipStripeBase(addr.chip) + stripeOffsetInChip(geo_, addr);
    for (std::uint32_t pg = 0; pg < geo_.pagesPerBlock; ++pg) {
        const StripeId s = first + pg;
        const std::uint32_t bit = maskBit(die);
        if (!(masks_[s] & bit))
            continue;
        masks_[s] &= ~bit;
        const std::uint32_t pdie = parityDieOf(addr.block, pg, dies_);
        // Losing a data member while others remain makes the stored
        // parity stale; drop its flag so nobody reconstructs from it.
        if (die != pdie && dataMask(s) != 0)
            masks_[s] &= ~maskBit(pdie);
    }
}

void
StripeParityMap::clearDie(std::uint32_t chip, std::uint32_t die)
{
    const StripeId base = chipStripeBase(chip);
    const std::uint32_t bit = maskBit(die);
    for (std::uint64_t i = 0; i < stripesPerChip_; ++i) {
        const StripeId s = base + i;
        if (!(masks_[s] & bit))
            continue;
        masks_[s] &= ~bit;
        const std::uint32_t pdie = parityDie(s);
        // Same staleness rule as clearBlock: a stripe that loses a
        // data member while others remain has unusable parity.
        if (die != pdie && dataMask(s) != 0)
            masks_[s] &= ~maskBit(pdie);
    }
}

} // namespace spk
