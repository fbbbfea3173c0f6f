/**
 * @file
 * Unit + property tests for geometry address arithmetic.
 */

#include <gtest/gtest.h>

#include <vector>

#include "flash/geometry.hh"
#include "sim/rng.hh"

namespace spk
{
namespace
{

FlashGeometry
smallGeo()
{
    FlashGeometry g;
    g.numChannels = 4;
    g.chipsPerChannel = 2;
    g.diesPerChip = 2;
    g.planesPerDie = 4;
    g.blocksPerPlane = 8;
    g.pagesPerBlock = 16;
    g.pageSizeBytes = 2048;
    return g;
}

TEST(Geometry, Counts)
{
    const auto g = smallGeo();
    EXPECT_EQ(g.numChips(), 8u);
    EXPECT_EQ(g.pagesPerPlane(), 128u);
    EXPECT_EQ(g.pagesPerDie(), 512u);
    EXPECT_EQ(g.pagesPerChip(), 1024u);
    EXPECT_EQ(g.totalPages(), 8192u);
    EXPECT_EQ(g.capacityBytes(), 8192u * 2048u);
    EXPECT_EQ(g.totalBlocks(), 8u * 2 * 4 * 8);
}

TEST(Geometry, ChannelOfChipStripesAcrossChannels)
{
    const auto g = smallGeo();
    // Chips 0..numChannels-1 sit on distinct channels and the next chip
    // wraps to channel 0: this IS the RIOS traversal order.
    std::vector<std::uint32_t> per_channel(g.numChannels, 0);
    for (std::uint32_t chip = 0; chip < g.numChips(); ++chip) {
        EXPECT_EQ(g.channelOfChip(chip), chip % g.numChannels);
        ++per_channel[g.channelOfChip(chip)];
    }
    for (const std::uint32_t n : per_channel)
        EXPECT_EQ(n, g.chipsPerChannel);
}

TEST(Geometry, ComposeDecomposeRoundTrip)
{
    const auto g = smallGeo();
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        const Ppn ppn = rng.nextBelow(g.totalPages());
        const PhysAddr addr = g.decompose(ppn);
        EXPECT_EQ(g.compose(addr), ppn);
        EXPECT_LT(addr.chip, g.numChips());
        EXPECT_LT(addr.die, g.diesPerChip);
        EXPECT_LT(addr.plane, g.planesPerDie);
        EXPECT_LT(addr.block, g.blocksPerPlane);
        EXPECT_LT(addr.page, g.pagesPerBlock);
    }
}

TEST(Geometry, ConsecutivePagesShareBlock)
{
    const auto g = smallGeo();
    const PhysAddr a = g.decompose(0);
    const PhysAddr b = g.decompose(1);
    EXPECT_EQ(a.block, b.block);
    EXPECT_EQ(a.plane, b.plane);
    EXPECT_EQ(b.page, a.page + 1);
}

TEST(Geometry, ChipOfMatchesDecompose)
{
    const auto g = smallGeo();
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const Ppn ppn = rng.nextBelow(g.totalPages());
        EXPECT_EQ(g.decompose(ppn).chip, g.chipOf(ppn));
    }
}

TEST(Geometry, ValidateRejectsZeroDimension)
{
    auto g = smallGeo();
    g.planesPerDie = 0;
    EXPECT_DEATH(g.validate(), "non-zero");
}

TEST(Geometry, DescribeMentionsShape)
{
    const auto g = smallGeo();
    const std::string desc = g.describe();
    EXPECT_NE(desc.find("4ch"), std::string::npos);
    EXPECT_NE(desc.find("2048B"), std::string::npos);
}

/** Property sweep: round trip must hold for many geometry shapes. */
class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(GeometrySweep, RoundTripAndBounds)
{
    const auto [channels, chips, dies, planes] = GetParam();
    FlashGeometry g;
    g.numChannels = channels;
    g.chipsPerChannel = chips;
    g.diesPerChip = dies;
    g.planesPerDie = planes;
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 8;
    g.validate();

    Rng rng(42);
    for (int i = 0; i < 300; ++i) {
        const Ppn ppn = rng.nextBelow(g.totalPages());
        EXPECT_EQ(g.compose(g.decompose(ppn)), ppn);
        EXPECT_EQ(g.decompose(ppn).chip, g.chipOf(ppn));
        EXPECT_LT(g.chipOf(ppn), g.numChips());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweep,
    ::testing::Combine(::testing::Values(1, 2, 8, 32),
                       ::testing::Values(1, 4, 32),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(1, 4)));

} // namespace
} // namespace spk
