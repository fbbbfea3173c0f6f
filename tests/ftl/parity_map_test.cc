/**
 * @file
 * Unit tests for the die-level parity stripe map, centered on a
 * randomized cross-check against an independent reference model.
 *
 * The reference tracks written members as per-stripe die sets keyed
 * by coordinates it derives with its own div/mod arithmetic over the
 * documented Ppn layout — it shares no address code with the map
 * under test, so disagreement means one of them misdecodes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>

#include "ftl/parity_map.hh"

namespace spk
{
namespace
{

FlashGeometry
smallGeometry()
{
    FlashGeometry geo;
    geo.numChannels = 2;
    geo.chipsPerChannel = 2;
    geo.diesPerChip = 4;
    geo.planesPerDie = 2;
    geo.blocksPerPlane = 4;
    geo.pagesPerBlock = 8;
    geo.validate();
    return geo;
}

/** Independent reference for the parity map's per-stripe state. */
class ReferenceModel
{
  public:
    explicit ReferenceModel(const FlashGeometry &geo) : geo_(geo) {}

    // ppn = (((chip*D + die)*P + plane)*B + block)*K + page, with
    // 'chip' the global chip index.
    Ppn
    ppnOf(std::uint32_t chip, std::uint32_t die, std::uint32_t plane,
          std::uint32_t block, std::uint32_t page) const
    {
        std::uint64_t v = chip;
        v = v * geo_.diesPerChip + die;
        v = v * geo_.planesPerDie + plane;
        v = v * geo_.blocksPerPlane + block;
        v = v * geo_.pagesPerBlock + page;
        return v;
    }

    std::uint64_t
    stripeOf(std::uint32_t chip, std::uint32_t plane,
             std::uint32_t block, std::uint32_t page) const
    {
        const std::uint64_t per_chip =
            std::uint64_t{geo_.planesPerDie} * geo_.blocksPerPlane *
            geo_.pagesPerBlock;
        return chip * per_chip +
               (std::uint64_t{plane} * geo_.blocksPerPlane + block) *
                   geo_.pagesPerBlock +
               page;
    }

    std::uint32_t
    parityDie(std::uint32_t block, std::uint32_t page) const
    {
        return (block + page) % geo_.diesPerChip;
    }

    void
    markData(std::uint32_t chip, std::uint32_t die, std::uint32_t plane,
             std::uint32_t block, std::uint32_t page)
    {
        written_[stripeOf(chip, plane, block, page)].insert(die);
    }

    void
    markParity(std::uint32_t chip, std::uint32_t plane,
               std::uint32_t block, std::uint32_t page)
    {
        written_[stripeOf(chip, plane, block, page)].insert(
            parityDie(block, page));
    }

    void
    clearParity(std::uint32_t chip, std::uint32_t plane,
                std::uint32_t block, std::uint32_t page)
    {
        written_[stripeOf(chip, plane, block, page)].erase(
            parityDie(block, page));
    }

    void
    clearBlock(std::uint32_t chip, std::uint32_t die,
               std::uint32_t plane, std::uint32_t block)
    {
        for (std::uint32_t pg = 0; pg < geo_.pagesPerBlock; ++pg) {
            auto &dies = written_[stripeOf(chip, plane, block, pg)];
            if (dies.erase(die) == 0)
                continue;
            const std::uint32_t pdie = parityDie(block, pg);
            if (die != pdie && hasDataMember(dies, pdie))
                dies.erase(pdie);
        }
    }

    void
    clearDie(std::uint32_t chip, std::uint32_t die)
    {
        for (std::uint32_t plane = 0; plane < geo_.planesPerDie;
             ++plane) {
            for (std::uint32_t block = 0; block < geo_.blocksPerPlane;
                 ++block)
                clearBlock(chip, die, plane, block);
        }
    }

    std::uint32_t
    mask(std::uint32_t chip, std::uint32_t plane, std::uint32_t block,
         std::uint32_t page) const
    {
        const auto it = written_.find(stripeOf(chip, plane, block, page));
        if (it == written_.end())
            return 0;
        std::uint32_t m = 0;
        for (const std::uint32_t die : it->second)
            m |= 1u << die;
        return m;
    }

  private:
    static bool
    hasDataMember(const std::set<std::uint32_t> &dies,
                  std::uint32_t pdie)
    {
        for (const std::uint32_t d : dies) {
            if (d != pdie)
                return true;
        }
        return false;
    }

    FlashGeometry geo_;
    std::map<std::uint64_t, std::set<std::uint32_t>> written_;
};

TEST(ParityMap, GeometryAndRoundTrips)
{
    const FlashGeometry geo = smallGeometry();
    StripeParityMap map(geo);
    const ReferenceModel ref(geo);

    EXPECT_EQ(map.stripeCount(),
              geo.totalPages() / geo.diesPerChip);
    EXPECT_EQ(map.dies(), geo.diesPerChip);
    EXPECT_EQ(map.stripesPerChip() * geo.numChips(),
              map.stripeCount());

    for (StripeId s = 0; s < map.stripeCount(); ++s) {
        std::set<Ppn> members;
        for (std::uint32_t d = 0; d < geo.diesPerChip; ++d) {
            const Ppn p = map.memberPpn(s, d);
            EXPECT_EQ(map.stripeOf(p), s);
            members.insert(p);
            const PhysAddr a = geo.decompose(p);
            EXPECT_EQ(a.die, d);
            EXPECT_EQ(map.isParityPage(p), d == map.parityDie(s));
        }
        // D distinct pages, identical coordinates except the die.
        EXPECT_EQ(members.size(), geo.diesPerChip);
        const PhysAddr pa = geo.decompose(map.parityPpn(s));
        EXPECT_EQ(map.parityDie(s), ref.parityDie(pa.block, pa.page));
    }
}

TEST(ParityMap, RandomizedReferenceCrossCheck)
{
    const FlashGeometry geo = smallGeometry();
    StripeParityMap map(geo);
    ReferenceModel ref(geo);
    std::mt19937_64 rng(0xb10c5);

    const auto pick = [&rng](std::uint32_t n) {
        return static_cast<std::uint32_t>(rng() % n);
    };

    const auto verifyAll = [&] {
        for (std::uint32_t chip = 0; chip < geo.numChips(); ++chip) {
            for (std::uint32_t plane = 0; plane < geo.planesPerDie;
                 ++plane) {
                for (std::uint32_t block = 0;
                     block < geo.blocksPerPlane; ++block) {
                    for (std::uint32_t page = 0;
                         page < geo.pagesPerBlock; ++page) {
                        const StripeId s = map.stripeOf(
                            ref.ppnOf(chip, 0, plane, block, page));
                        const std::uint32_t expect =
                            ref.mask(chip, plane, block, page);
                        ASSERT_EQ(map.mask(s), expect)
                            << "chip " << chip << " plane " << plane
                            << " block " << block << " page " << page;
                        const std::uint32_t pbit =
                            1u << ref.parityDie(block, page);
                        EXPECT_EQ(map.dataMask(s), expect & ~pbit);
                        EXPECT_EQ(map.parityWritten(s),
                                  (expect & pbit) != 0);
                        const std::uint32_t all =
                            (1u << geo.diesPerChip) - 1;
                        EXPECT_EQ(map.fullyWritten(s),
                                  (expect & (all & ~pbit)) ==
                                      (all & ~pbit));
                    }
                }
            }
        }
    };

    for (int step = 0; step < 2000; ++step) {
        const std::uint32_t chip = pick(geo.numChips());
        const std::uint32_t die = pick(geo.diesPerChip);
        const std::uint32_t plane = pick(geo.planesPerDie);
        const std::uint32_t block = pick(geo.blocksPerPlane);
        const std::uint32_t page = pick(geo.pagesPerBlock);
        const std::uint32_t roll = pick(100);
        if (roll < 50) { // data program on a non-parity slot
            if (ref.parityDie(block, page) != die) {
                map.markDataWritten(
                    ref.ppnOf(chip, die, plane, block, page));
                ref.markData(chip, die, plane, block, page);
            }
        } else if (roll < 65) { // parity close
            map.markParityWritten(map.stripeOf(
                ref.ppnOf(chip, 0, plane, block, page)));
            ref.markParity(chip, plane, block, page);
        } else if (roll < 75) { // failed close / failed program
            map.clearParityWritten(map.stripeOf(
                ref.ppnOf(chip, 0, plane, block, page)));
            ref.clearParity(chip, plane, block, page);
        } else if (roll < 90) { // erase or retire a block on one die
            map.clearBlock(ref.ppnOf(chip, die, plane, block, 0), die);
            ref.clearBlock(chip, die, plane, block);
        } else { // die revival wipes the whole die
            map.clearDie(chip, die);
            ref.clearDie(chip, die);
        }
        if (step % 100 == 99)
            verifyAll();
    }
    verifyAll();
}

TEST(ParityMap, MarkDataIsIdempotent)
{
    const FlashGeometry geo = smallGeometry();
    StripeParityMap map(geo);
    const ReferenceModel ref(geo);
    // block 1 page 0 -> parity die 1; die 0 is a data slot.
    const Ppn p = ref.ppnOf(0, 0, 0, 1, 0);
    map.markDataWritten(p);
    const StripeId s = map.stripeOf(p);
    const std::uint32_t before = map.mask(s);
    map.markDataWritten(p); // a late migration program re-reports
    EXPECT_EQ(map.mask(s), before);
}

TEST(ParityMap, DataWriteOnParitySlotPanics)
{
    const FlashGeometry geo = smallGeometry();
    StripeParityMap map(geo);
    const ReferenceModel ref(geo);
    // block 2 page 1 -> parity die (2+1)%4 == 3.
    EXPECT_DEATH(map.markDataWritten(ref.ppnOf(0, 3, 0, 2, 1)),
                 "parity slot");
}

TEST(ParityMap, ClearBlockDropsStaleParity)
{
    const FlashGeometry geo = smallGeometry();
    StripeParityMap map(geo);
    const ReferenceModel ref(geo);
    // Stripe (block 0, page 0): parity die 0; data on dies 1,2,3.
    for (std::uint32_t d = 1; d < 4; ++d)
        map.markDataWritten(ref.ppnOf(0, d, 0, 0, 0));
    const StripeId s = map.stripeOf(ref.ppnOf(0, 1, 0, 0, 0));
    map.markParityWritten(s);
    EXPECT_TRUE(map.fullyWritten(s));
    EXPECT_TRUE(map.parityWritten(s));

    // Die 2 loses its block: the survivors' parity is now stale.
    map.clearBlock(ref.ppnOf(0, 2, 0, 0, 0), 2);
    EXPECT_FALSE(map.parityWritten(s));
    EXPECT_EQ(map.dataMask(s), (1u << 1) | (1u << 3));

    // The last members leaving keeps the stripe empty, not stale.
    map.clearBlock(ref.ppnOf(0, 1, 0, 0, 0), 1);
    map.clearBlock(ref.ppnOf(0, 3, 0, 0, 0), 3);
    EXPECT_EQ(map.mask(s), 0u);
}

TEST(ParityMap, TwoDieMinimumEnforced)
{
    FlashGeometry geo = smallGeometry();
    geo.diesPerChip = 1;
    geo.validate();
    EXPECT_DEATH(StripeParityMap{geo}, "diesPerChip >= 2");
}

} // namespace
} // namespace spk
