/**
 * @file
 * Integration-style unit tests for the NVMHC against a small real
 * device built from chips/channels/controller/FTL.
 */

#include <gtest/gtest.h>

#include "ssd/ssd.hh"

namespace spk
{
namespace
{

SsdConfig
smallConfig(SchedulerKind kind)
{
    SsdConfig cfg;
    cfg.geometry.numChannels = 2;
    cfg.geometry.chipsPerChannel = 2;
    cfg.geometry.diesPerChip = 2;
    cfg.geometry.planesPerDie = 2;
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 16;
    cfg.scheduler = kind;
    cfg.nvmhc.queueDepth = 4;
    return cfg;
}

TEST(Nvmhc, SingleReadCompletes)
{
    Ssd ssd(smallConfig(SchedulerKind::SPK3));
    ssd.submitAt(0, false, 0, 2048);
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 1u);
    EXPECT_GT(ssd.results()[0].latency(), 0u);
    EXPECT_EQ(ssd.nvmhc().stats().iosCompleted, 1u);
}

TEST(Nvmhc, WriteCompletesAndCountsBytes)
{
    Ssd ssd(smallConfig(SchedulerKind::SPK3));
    ssd.submitAt(0, true, 0, 8192);
    ssd.run();
    EXPECT_EQ(ssd.nvmhc().stats().bytesWritten, 8192u);
    EXPECT_EQ(ssd.nvmhc().stats().bytesRead, 0u);
}

TEST(Nvmhc, UnalignedIoCoversAllTouchedPages)
{
    Ssd ssd(smallConfig(SchedulerKind::VAS));
    // 1 byte at the end of page 0 plus 1 byte into page 1 -> 2 pages.
    ssd.submitAt(0, false, 2047, 2, false);
    ssd.run();
    EXPECT_EQ(ssd.nvmhc().stats().requestsComposed, 2u);
}

TEST(Nvmhc, QueueDepthCausesStall)
{
    auto cfg = smallConfig(SchedulerKind::VAS);
    cfg.nvmhc.queueDepth = 1;
    Ssd ssd(cfg);
    // Two simultaneous arrivals through a depth-1 queue: the second
    // waits for the first to retire.
    ssd.submitAt(0, false, 0, 2048);
    ssd.submitAt(0, false, 1 << 20, 2048);
    ssd.run();
    EXPECT_EQ(ssd.results().size(), 2u);
    EXPECT_GT(ssd.nvmhc().stats().queueStallTime, 0u);
}

TEST(Nvmhc, EveryIoCompletesExactlyOnce)
{
    for (const auto kind :
         {SchedulerKind::VAS, SchedulerKind::PAS, SchedulerKind::SPK1,
          SchedulerKind::SPK2, SchedulerKind::SPK3}) {
        Ssd ssd(smallConfig(kind));
        constexpr int kIos = 40;
        for (int i = 0; i < kIos; ++i) {
            ssd.submitAt(i * 1000, i % 3 == 0,
                         (static_cast<std::uint64_t>(i) * 40960) %
                             (1 << 22),
                         4096 + (i % 4) * 2048);
        }
        ssd.run();
        EXPECT_EQ(ssd.results().size(), static_cast<size_t>(kIos))
            << schedulerKindName(kind);
        EXPECT_EQ(ssd.nvmhc().stats().iosCompleted,
                  static_cast<std::uint64_t>(kIos));
    }
}

TEST(Nvmhc, OverlappingLpnsKeepOrder)
{
    // A write and a read to the same page, arriving together: the
    // hazard chain must serve them in submission order.
    Ssd ssd(smallConfig(SchedulerKind::SPK3));
    ssd.submitAt(0, true, 4096, 2048);
    ssd.submitAt(1, false, 4096, 2048);
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 2u);
    // The read (second submission) cannot complete before the write.
    EXPECT_GE(ssd.results()[1].completed, ssd.results()[0].completed);
}

TEST(Nvmhc, FuaActsAsBarrier)
{
    Ssd ssd(smallConfig(SchedulerKind::SPK3));
    ssd.submitAt(0, true, 0, 2048, /*fua=*/true);
    ssd.submitAt(1, false, 1 << 20, 2048);
    ssd.submitAt(2, false, 2 << 20, 2048);
    ssd.run();
    ASSERT_EQ(ssd.results().size(), 3u);
    // The FUA write completes first even under SPK3 reordering.
    EXPECT_TRUE(ssd.results()[0].isWrite);
}

TEST(Nvmhc, ReadsOfUnwrittenDataAreBackfilled)
{
    Ssd ssd(smallConfig(SchedulerKind::PAS));
    ssd.submitAt(0, false, 5 << 20, 16384);
    ssd.run();
    EXPECT_EQ(ssd.results().size(), 1u);
    // The backfill bound mappings for the touched pages.
    EXPECT_GT(ssd.ftl().mapping().liveCount(), 0u);
}

TEST(Nvmhc, IdleAfterRun)
{
    Ssd ssd(smallConfig(SchedulerKind::SPK2));
    ssd.submitAt(0, true, 0, 65536);
    ssd.run();
    EXPECT_TRUE(ssd.nvmhc().idle());
    EXPECT_EQ(ssd.nvmhc().outstandingIos(), 0u);
}

TEST(Nvmhc, DeviceActiveTimeBounded)
{
    Ssd ssd(smallConfig(SchedulerKind::SPK3));
    ssd.submitAt(1000, false, 0, 2048);
    ssd.run();
    const Tick now = ssd.events().now();
    const Tick active = ssd.nvmhc().deviceActiveTime(now);
    EXPECT_GT(active, 0u);
    EXPECT_LE(active, now);
}

} // namespace
} // namespace spk
