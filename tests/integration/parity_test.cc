/**
 * @file
 * Die-level RAID parity integration tests: the parity=off bit-identity
 * guarantee, determinism with the full protection stack active
 * (including sharded execution), degraded-read reconstruction after a
 * die failure, reconstruction under every fault class at once, stripe
 * metadata invariants after fault-heavy runs, and rebuild restoring
 * pre-failure read behavior.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ftl/ftl.hh"
#include "ftl/parity_map.hh"
#include "sim/device_array.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace spk
{
namespace
{

SsdConfig
smallConfig()
{
    SsdConfig cfg = SsdConfig::withChips(8);
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = SchedulerKind::SPK3;
    return cfg;
}

SsdConfig
parityConfig()
{
    SsdConfig cfg = smallConfig();
    cfg.parity.enabled = true;
    return cfg;
}

/** Span sized for the smaller parity-on logical capacity. */
Trace
mixedTrace(std::uint64_t n, double write_frac, std::uint64_t seed)
{
    const SsdConfig cfg = parityConfig();
    const std::uint64_t span = cfg.geometry.totalPages() *
                               cfg.geometry.pageSizeBytes / 2 *
                               (cfg.geometry.diesPerChip - 1) /
                               cfg.geometry.diesPerChip;
    return fixedSizeStream(n, 8192, write_frac, span,
                           5 * kMicrosecond, seed);
}

MetricsSnapshot
runOnce(const SsdConfig &cfg, const Trace &trace)
{
    Ssd ssd(cfg);
    ssd.replay(trace);
    ssd.run();
    return ssd.metrics();
}

TEST(Parity, DisabledIsBitIdenticalToBaseline)
{
    // With parity off, the other parity knobs must be inert: the
    // subsystem cannot perturb an unprotected run in any way.
    const SsdConfig plain = smallConfig();
    SsdConfig tweaked = plain;
    tweaked.parity.flushWindow = 5 * kMicrosecond;
    tweaked.parity.rebuildPageInterval = 0;
    ASSERT_FALSE(tweaked.parity.enabled);

    const Trace trace = mixedTrace(1500, 0.5, 21);
    const MetricsSnapshot a = runOnce(plain, trace);
    const MetricsSnapshot b = runOnce(tweaked, trace);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.parityUpdates, 0u);
    EXPECT_EQ(a.reconstructedReads, 0u);
    EXPECT_EQ(a.rebuildPagesTotal, 0u);
    EXPECT_EQ(a.softDecodeInvocations, 0u);
}

TEST(Parity, EnabledRunsAreDeterministic)
{
    SsdConfig cfg = parityConfig();
    cfg.fault.readTransientRate = 1e-2;
    cfg.fault.programFailRate = 1e-3;
    const Trace trace = mixedTrace(1500, 0.5, 23);

    const MetricsSnapshot a = runOnce(cfg, trace);
    const MetricsSnapshot b = runOnce(cfg, trace);
    EXPECT_EQ(a, b);
    EXPECT_GT(a.parityUpdates, 0u);
    EXPECT_EQ(a.degradedDies, 0u);
}

TEST(Parity, StripeInvariantsHoldAfterFaultHeavyRun)
{
    SsdConfig cfg = parityConfig();
    cfg.fault.readTransientRate = 2e-2;
    cfg.fault.programFailRate = 5e-3;
    cfg.fault.eraseFailRate = 5e-3;
    const Trace trace = mixedTrace(2000, 0.6, 25);

    Ssd ssd(cfg);
    ssd.replay(trace);
    ssd.run();

    const StripeParityMap *map = ssd.ftl().parityMap();
    ASSERT_NE(map, nullptr);
    const std::uint32_t dies = map->dies();
    std::uint64_t closed = 0;
    for (StripeId s = 0; s < map->stripeCount(); ++s) {
        const std::uint32_t pbit = 1u << map->parityDie(s);
        // The parity bit never leaks into the data mask, and an
        // advertised (reconstructable) stripe always has at least one
        // data member the parity was computed over.
        EXPECT_EQ(map->dataMask(s) & pbit, 0u);
        if (map->parityWritten(s)) {
            EXPECT_NE(map->dataMask(s), 0u);
            ++closed;
        }
        EXPECT_EQ(map->fullyWritten(s),
                  map->dataMask(s) ==
                      (((1u << dies) - 1) & ~pbit));
    }
    EXPECT_GT(closed, 0u);
}

TEST(Parity, DegradedReadsReconstructAndRebuildHeals)
{
    // The acceptance scenario: a die dies mid-run with no other fault
    // class active. Every read must still complete — degraded ones
    // via survivor reconstruction — and the online rebuild must
    // re-materialize the die and end the run fully healed.
    SsdConfig cfg = parityConfig();
    cfg.fault.dieFailTick = 2 * kMillisecond;
    cfg.fault.dieFailChip = 0;
    cfg.fault.dieFailDie = 0;
    cfg.parity.rebuildPageInterval = 2 * kMicrosecond;
    const Trace trace = mixedTrace(2000, 0.5, 27);

    const MetricsSnapshot m = runOnce(cfg, trace);
    EXPECT_EQ(m.iosCompleted, trace.size());
    EXPECT_EQ(m.failedIos, 0u);
    EXPECT_GT(m.reconstructedReads, 0u);
    EXPECT_GE(m.reconstructionReads, m.reconstructedReads);
    EXPECT_EQ(m.degradedDies, 0u); // rebuild completed
    EXPECT_GT(m.rebuildPagesTotal, 0u);
    // The total is a failure-time snapshot: pages can still leave the
    // die legitimately (host overwrites, in-flight programs re-homed
    // off the dead die), so rebuilt is bounded by it, not equal.
    // Revival itself panics if any live page remains, so completion
    // proves total evacuation.
    EXPECT_GT(m.rebuildPagesRebuilt, 0u);
    EXPECT_LE(m.rebuildPagesRebuilt, m.rebuildPagesTotal);

    // Without parity the same failure strands the dead die's data.
    SsdConfig bare = cfg;
    bare.parity.enabled = false;
    const MetricsSnapshot u = runOnce(bare, trace);
    EXPECT_GT(u.failedIos, 0u);
    EXPECT_EQ(u.degradedDies, 1u);
}

TEST(Parity, ReconstructionSurvivesEveryFaultClass)
{
    // All fault classes at once: transient read noise driving the
    // retry ladder into soft decode, program/erase failures retiring
    // blocks, and a mid-run die failure with rebuild. The composite
    // must stay deterministic and keep reconstructing.
    SsdConfig cfg = parityConfig();
    cfg.fault.readTransientRate = 2e-2;
    cfg.fault.programFailRate = 5e-3;
    cfg.fault.eraseFailRate = 5e-3;
    cfg.fault.softDecodeEnabled = true;
    cfg.fault.dieFailTick = 2 * kMillisecond;
    cfg.parity.rebuildPageInterval = 2 * kMicrosecond;
    const Trace trace = mixedTrace(2000, 0.5, 29);

    const MetricsSnapshot a = runOnce(cfg, trace);
    const MetricsSnapshot b = runOnce(cfg, trace);
    EXPECT_EQ(a, b);
    EXPECT_GT(a.reconstructedReads, 0u);
    EXPECT_GT(a.softDecodeInvocations, 0u);
    EXPECT_EQ(a.degradedDies, 0u);
    EXPECT_LE(a.rebuildPagesRebuilt, a.rebuildPagesTotal);
}

TEST(Parity, RebuildRestoresPreFailureReadBehavior)
{
    // Writes land before the failure; reads of the same span arrive
    // long after the rebuild finished. None of them should need
    // reconstruction: the rebuilt die serves them like the original.
    SsdConfig cfg = parityConfig();
    cfg.fault.dieFailTick = 2 * kMillisecond;
    cfg.parity.rebuildPageInterval = kMicrosecond;

    const std::uint64_t span = cfg.geometry.totalPages() *
                               cfg.geometry.pageSizeBytes / 4 *
                               (cfg.geometry.diesPerChip - 1) /
                               cfg.geometry.diesPerChip;
    Ssd ssd(cfg);
    const std::uint64_t io_bytes = 8192;
    const std::uint64_t count = span / io_bytes;
    for (std::uint64_t i = 0; i < count; ++i)
        ssd.submitAt(i * kMicrosecond, true, i * io_bytes, io_bytes);
    for (std::uint64_t i = 0; i < count; ++i)
        ssd.submitAt(400 * kMillisecond + i * kMicrosecond, false,
                     i * io_bytes, io_bytes);
    ssd.run();

    const MetricsSnapshot m = ssd.metrics();
    EXPECT_EQ(m.iosCompleted, 2 * count);
    EXPECT_EQ(m.failedIos, 0u);
    EXPECT_EQ(m.degradedDies, 0u);
    EXPECT_GT(m.rebuildPagesRebuilt, 0u);
    EXPECT_LE(m.rebuildPagesRebuilt, m.rebuildPagesTotal);
    // The reads arrived ~398 ms after the failure: rebuild pacing at
    // 1 us/page covers the die long before, so none are degraded.
    EXPECT_EQ(m.reconstructedReads, 0u);
}

TEST(Parity, ShardedExecutionBitIdenticalWithFullStack)
{
    // The determinism contract extends to the parity path: sharded
    // DeviceArray runs with reconstruction, rebuild and soft decode
    // all active must match the sequential run bit for bit.
    std::vector<DeviceJob> jobs;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        DeviceJob job;
        job.cfg = parityConfig();
        job.cfg.seed = seed;
        job.cfg.fault.readTransientRate = 2e-2;
        job.cfg.fault.softDecodeEnabled = true;
        job.cfg.fault.dieFailTick = 2 * kMillisecond;
        job.cfg.parity.rebuildPageInterval = 2 * kMicrosecond;
        job.trace = mixedTrace(800, 0.5, seed);
        jobs.push_back(std::move(job));
    }

    std::vector<std::vector<MetricsSnapshot>> runs;
    for (const unsigned threads : {1u, 2u, 4u}) {
        DeviceArray array(jobs);
        runs.push_back(array.run(threads));
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
    std::uint64_t reconstructed = 0;
    std::uint64_t soft = 0;
    for (const auto &m : runs[0]) {
        reconstructed += m.reconstructedReads;
        soft += m.softDecodeInvocations;
    }
    EXPECT_GT(reconstructed, 0u);
    EXPECT_GT(soft, 0u);
}

TEST(Parity, ParityCompletionsRepollTheHostScheduler)
{
    // VAS stops composing while its next request's chip is busy. When
    // the chip is busy with a parity request, only the device's
    // scheduler re-poll after that parity completion restarts the
    // host path; without it the event queue drains with host I/O
    // still queued.
    SsdConfig cfg = parityConfig();
    cfg.scheduler = SchedulerKind::VAS;
    const Trace trace = mixedTrace(1500, 0.5, 31);
    Ssd ssd(cfg);
    ssd.replay(trace);
    ssd.events().run();
    EXPECT_TRUE(ssd.nvmhc().idle());
    const MetricsSnapshot m = ssd.metrics();
    EXPECT_EQ(m.iosCompleted, trace.size());
    EXPECT_GT(m.parityUpdates, 0u);
}

} // namespace
} // namespace spk
