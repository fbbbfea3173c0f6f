/**
 * @file
 * Unit tests for BusyTracker.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace spk
{
namespace
{

TEST(BusyTracker, SimpleInterval)
{
    BusyTracker t;
    t.claim(100);
    t.release(150);
    EXPECT_EQ(t.busyTime(200), 50u);
    EXPECT_FALSE(t.busy());
}

TEST(BusyTracker, OpenIntervalCountsUpToNow)
{
    BusyTracker t;
    t.claim(10);
    EXPECT_TRUE(t.busy());
    EXPECT_EQ(t.busyTime(60), 50u);
}

TEST(BusyTracker, NestedClaimsMergeIntoOneInterval)
{
    BusyTracker t;
    t.claim(0);
    t.claim(10);
    t.release(20);
    EXPECT_TRUE(t.busy());
    t.release(50);
    EXPECT_EQ(t.busyTime(100), 50u);
}

TEST(BusyTracker, UtilizationFraction)
{
    BusyTracker t;
    t.claim(0);
    t.release(25);
    EXPECT_DOUBLE_EQ(t.utilization(100), 0.25);
    EXPECT_DOUBLE_EQ(BusyTracker{}.utilization(0), 0.0);
}

TEST(BusyTracker, ReleaseWithoutClaimDies)
{
    BusyTracker t;
    EXPECT_DEATH(t.release(10), "without matching claim");
}

TEST(BusyTracker, ResetClearsEverything)
{
    BusyTracker t;
    t.claim(0);
    t.release(10);
    t.reset();
    EXPECT_EQ(t.busyTime(100), 0u);
    EXPECT_EQ(t.depth(), 0);
}

} // namespace
} // namespace spk
