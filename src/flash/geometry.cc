#include "flash/geometry.hh"

#include <sstream>

#include "sim/logging.hh"

namespace spk
{

/*
 * Dense Ppn layout (fastest-varying last):
 *   chip, die, plane, block, page
 * so consecutive pages within a block are consecutive Ppns and the
 * global chip index occupies the top bits. Chips stripe across
 * channels (channelOfChip(chip) = chip % numChannels), so consecutive
 * chip indices land on different channels — the stripe order RIOS
 * traverses.
 */

PhysAddr
FlashGeometry::decompose(Ppn ppn) const
{
    PhysAddr addr;
    addr.page = static_cast<std::uint32_t>(ppn % pagesPerBlock);
    ppn /= pagesPerBlock;
    addr.block = static_cast<std::uint32_t>(ppn % blocksPerPlane);
    ppn /= blocksPerPlane;
    addr.plane = static_cast<std::uint32_t>(ppn % planesPerDie);
    ppn /= planesPerDie;
    addr.die = static_cast<std::uint32_t>(ppn % diesPerChip);
    ppn /= diesPerChip;
    addr.chip = static_cast<std::uint32_t>(ppn);
    return addr;
}

Ppn
FlashGeometry::compose(const PhysAddr &addr) const
{
    std::uint64_t ppn = addr.chip;
    ppn = ppn * diesPerChip + addr.die;
    ppn = ppn * planesPerDie + addr.plane;
    ppn = ppn * blocksPerPlane + addr.block;
    ppn = ppn * pagesPerBlock + addr.page;
    return ppn;
}

std::uint32_t
FlashGeometry::chipOf(Ppn ppn) const
{
    return static_cast<std::uint32_t>(ppn / pagesPerChip());
}

void
FlashGeometry::validate() const
{
    if (numChannels == 0 || chipsPerChannel == 0 || diesPerChip == 0 ||
        planesPerDie == 0 || blocksPerPlane == 0 || pagesPerBlock == 0 ||
        pageSizeBytes == 0) {
        fatal("FlashGeometry: all dimensions must be non-zero");
    }
    if (diesPerChip > kMaxDiesPerChip)
        fatal("FlashGeometry: diesPerChip exceeds kMaxDiesPerChip");
    if (planesPerDie > kMaxPlanesPerDie)
        fatal("FlashGeometry: planesPerDie exceeds kMaxPlanesPerDie");
}

std::string
FlashGeometry::describe() const
{
    std::ostringstream os;
    os << numChannels << "ch x " << chipsPerChannel << "chips x "
       << diesPerChip << "dies x " << planesPerDie << "planes, "
       << blocksPerPlane << " blocks/plane, " << pagesPerBlock
       << " pages/block, " << pageSizeBytes << "B pages ("
       << (capacityBytes() >> 20) << " MiB)";
    return os.str();
}

} // namespace spk
