/**
 * @file
 * Whole-device integration tests: conservation, determinism,
 * parallelism behaviour and transaction invariants.
 */

#include <gtest/gtest.h>

#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace
{

SsdConfig
config(SchedulerKind kind, std::uint32_t channels = 2,
       std::uint32_t chips_per_channel = 2)
{
    SsdConfig cfg;
    cfg.geometry.numChannels = channels;
    cfg.geometry.chipsPerChannel = chips_per_channel;
    cfg.geometry.blocksPerPlane = 32;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = kind;
    return cfg;
}

Trace
smallTrace(std::uint64_t seed, std::uint64_t ios = 120)
{
    SyntheticConfig wl;
    wl.numIos = ios;
    wl.readFraction = 0.6;
    wl.readSizes = {{8192, 0.7}, {32768, 0.3}};
    wl.writeSizes = {{8192, 0.7}, {16384, 0.3}};
    wl.spanBytes = 8ull << 20;
    wl.seed = seed;
    return generateSynthetic(wl);
}

TEST(SsdIntegration, AllSchedulersConserveIos)
{
    const Trace trace = smallTrace(1);
    for (const auto kind :
         {SchedulerKind::VAS, SchedulerKind::PAS, SchedulerKind::SPK1,
          SchedulerKind::SPK2, SchedulerKind::SPK3}) {
        Ssd ssd(config(kind));
        ssd.replay(trace);
        ssd.run();
        EXPECT_EQ(ssd.results().size(), trace.size())
            << schedulerKindName(kind);
        // Composed requests >= served (stale retries re-commit without
        // recomposition); every served request belongs to a txn.
        const auto m = ssd.metrics();
        EXPECT_GE(m.requestsServed, ssd.nvmhc().stats().requestsComposed)
            << schedulerKindName(kind);
        EXPECT_GT(m.transactions, 0u);
        EXPECT_LE(m.transactions, m.requestsServed);
    }
}

TEST(SsdIntegration, DeterministicAcrossRuns)
{
    const Trace trace = smallTrace(2);
    auto run = [&] {
        Ssd ssd(config(SchedulerKind::SPK3));
        ssd.replay(trace);
        ssd.run();
        return std::make_pair(ssd.events().now(),
                              ssd.metrics().transactions);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(SsdIntegration, LatenciesArePositiveAndOrderedSane)
{
    Ssd ssd(config(SchedulerKind::SPK3));
    ssd.replay(smallTrace(3));
    ssd.run();
    for (const auto &res : ssd.results()) {
        EXPECT_GT(res.completed, res.arrival);
        // A page read takes at least tR; nothing completes faster.
        EXPECT_GE(res.latency(), FlashTiming{}.readLatency / 2);
    }
}

TEST(SsdIntegration, MoreChipsDoNotHurtSpk3)
{
    const Trace trace = smallTrace(4, 200);
    auto makespan = [&](std::uint32_t chips_per_channel) {
        Ssd ssd(config(SchedulerKind::SPK3, 2, chips_per_channel));
        ssd.replay(trace);
        ssd.run();
        return ssd.events().now();
    };
    // Doubling the chips must not slow the device down noticeably.
    EXPECT_LE(makespan(4), makespan(2) * 11 / 10);
}

TEST(SsdIntegration, SequentialWriteStreamUsesAllChips)
{
    Ssd ssd(config(SchedulerKind::SPK3));
    // One big sequential write: pages stripe over all chips.
    ssd.submitAt(0, true, 0, 64 * 2048);
    ssd.run();
    for (const auto &chip : ssd.chips())
        EXPECT_GT(chip->stats().requestsServed, 0u);
}

TEST(SsdIntegration, ChipsNeverServeTwoTransactionsAtOnce)
{
    // FlashChip::beginTransaction panics on overlap, so a clean run
    // of a contended workload is itself the assertion.
    Ssd ssd(config(SchedulerKind::SPK3));
    Trace trace = smallTrace(5, 300);
    ssd.replay(trace);
    ssd.run();
    SUCCEED();
}

TEST(SsdIntegration, MetricsAreInternallyConsistent)
{
    Ssd ssd(config(SchedulerKind::SPK1));
    ssd.replay(smallTrace(6));
    ssd.run();
    const auto m = ssd.metrics();
    EXPECT_GT(m.makespan, 0u);
    EXPECT_LE(m.deviceActiveTime, m.makespan);
    EXPECT_GE(m.chipUtilizationPct, 0.0);
    EXPECT_LE(m.chipUtilizationPct, 100.0);
    EXPECT_GE(m.interChipIdlenessPct, 0.0);
    EXPECT_LE(m.interChipIdlenessPct, 100.0);
    EXPECT_GE(m.intraChipIdlenessPct, 0.0);
    EXPECT_LE(m.intraChipIdlenessPct, 100.0);
    double flp_total = 0.0;
    for (const double pct : m.flpPct) {
        EXPECT_GE(pct, 0.0);
        flp_total += pct;
    }
    EXPECT_NEAR(flp_total, 100.0, 0.1);
}

TEST(SsdIntegration, ZeroLengthSubmitDies)
{
    Ssd ssd(config(SchedulerKind::VAS));
    EXPECT_DEATH(ssd.submitAt(0, false, 0, 0), "zero-length");
}

TEST(SsdIntegration, OversizedSubmitDies)
{
    Ssd ssd(config(SchedulerKind::VAS));
    const std::uint64_t page = ssd.config().geometry.pageSizeBytes;
    // 2^32 + 1 pages: the page count must not truncate to one page.
    EXPECT_DEATH(ssd.submitAt(0, false, 0, ((1ull << 32) + 1) * page),
                 "more than 2\\^32 - 1 pages");
    // A byte range whose end wraps past 2^64.
    EXPECT_DEATH(ssd.submitAt(0, false, UINT64_MAX - 10, 4096),
                 "wraps past 2\\^64");
}

} // namespace
} // namespace spk
