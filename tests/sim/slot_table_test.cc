/**
 * @file
 * Unit tests for the recycled job-slot table shared by the GC and
 * parity engines.
 */

#include <gtest/gtest.h>

#include "sim/slot_table.hh"

namespace spk
{
namespace
{

struct Job
{
    int value = 7;
};

TEST(SlotTable, RetiredSlotsAreReusedLastInFirstOut)
{
    SlotTable<Job> table;
    EXPECT_EQ(table.acquire(), 0u);
    EXPECT_EQ(table.acquire(), 1u);
    EXPECT_EQ(table.acquire(), 2u);
    EXPECT_EQ(table.liveCount(), 3u);
    table.retire(0);
    table.retire(2);
    EXPECT_EQ(table.liveCount(), 1u);
    EXPECT_EQ(table.acquire(), 2u);
    EXPECT_EQ(table.acquire(), 0u);
    EXPECT_EQ(table.acquire(), 3u);
    EXPECT_EQ(table.liveCount(), 4u);
}

TEST(SlotTable, AcquiredSlotStartsFresh)
{
    SlotTable<Job> table;
    const std::uint32_t slot = table.acquire();
    table[slot].value = 42;
    EXPECT_EQ(table.expectLive(slot, "test").value, 42);
    table.retire(slot);
    ASSERT_EQ(table.acquire(), slot);
    EXPECT_EQ(table[slot].value, 7);
}

TEST(SlotTableDeathTest, UnknownOrRetiredSlotDies)
{
    SlotTable<Job> table;
    EXPECT_DEATH(table.expectLive(0, "Owner"),
                 "Owner: completion for an unknown or dead slot");
    const std::uint32_t slot = table.acquire();
    table.retire(slot);
    EXPECT_DEATH(table.expectLive(slot, "Owner"), "unknown or dead");
}

} // namespace
} // namespace spk
