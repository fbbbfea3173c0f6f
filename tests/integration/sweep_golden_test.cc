/**
 * @file
 * Golden sweep regression: a miniature paper-exhibit campaign
 * (2 traces x 5 schedulers x 2 seeds on a small geometry) run through
 * SweepRunner, with every per-cell MetricsSnapshot digest and the
 * fleet aggregate pinned, and the sharded path asserted bit-identical
 * to sequential. This puts the machinery behind every bench_fig*
 * exhibit under tier-1 guard: a scheduler regression that would
 * silently bend a figure shows up here as a digest mismatch.
 *
 * To re-pin after an intentional behavior change, run with
 * SPK_SWEEP_GOLDEN_REGEN=1: the pinned test prints a ready-to-paste
 * table and fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "sim/sweep.hh"
#include "workload/paper_traces.hh"

namespace spk
{
namespace
{

const std::vector<std::string> kTraces = {"hm0", "msnfs1"};
const std::vector<std::uint64_t> kSeeds = {101, 102};
constexpr std::uint64_t kIosPerCell = 200;

SweepAxes
goldenAxes()
{
    SweepAxes axes;
    axes.traces = kTraces;
    axes.schedulers = {SchedulerKind::VAS, SchedulerKind::PAS,
                       SchedulerKind::SPK1, SchedulerKind::SPK2,
                       SchedulerKind::SPK3};
    axes.seeds = kSeeds;
    return axes;
}

SsdConfig
goldenConfig(SchedulerKind kind, std::uint64_t seed)
{
    SsdConfig cfg = SsdConfig::withChips(8);
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = kind;
    cfg.seed = seed;
    return cfg;
}

std::unique_ptr<SweepRunner>
makeRunner()
{
    return std::make_unique<SweepRunner>(
        goldenAxes(), [](const SweepPoint &p) {
            DeviceJob job;
            job.cfg = goldenConfig(p.scheduler, p.seed);
            const std::uint64_t span =
                job.cfg.geometry.totalPages() *
                job.cfg.geometry.pageSizeBytes / 2;
            job.trace =
                generatePaperTrace(p.trace, kIosPerCell, span, p.seed);
            return job;
        });
}

/** FNV-1a over every snapshot field; doubles contribute their exact
 *  bit patterns, so the digest pins results to the bit. */
std::uint64_t
digest(const MetricsSnapshot &m)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto byte = [&h](std::uint8_t b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    const auto u64 = [&byte](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    const auto f64 = [&u64](double d) {
        u64(std::bit_cast<std::uint64_t>(d));
    };
    for (const char c : m.scheduler)
        byte(static_cast<std::uint8_t>(c));
    u64(m.makespan);
    u64(m.deviceActiveTime);
    u64(m.iosCompleted);
    u64(m.bytesRead);
    u64(m.bytesWritten);
    f64(m.bandwidthKBps);
    f64(m.iops);
    f64(m.avgLatencyNs);
    u64(m.p50LatencyNs);
    u64(m.p95LatencyNs);
    u64(m.p99LatencyNs);
    u64(m.maxLatencyNs);
    f64(m.avgReadLatencyNs);
    f64(m.avgWriteLatencyNs);
    u64(m.queueStallTime);
    f64(m.chipUtilizationPct);
    f64(m.flashLevelUtilizationPct);
    f64(m.interChipIdlenessPct);
    f64(m.intraChipIdlenessPct);
    for (const double pct : m.flpPct)
        f64(pct);
    u64(m.transactions);
    u64(m.requestsServed);
    f64(m.execBusPct);
    f64(m.execContentionPct);
    f64(m.execCellPct);
    f64(m.execIdlePct);
    u64(m.staleRetries);
    u64(m.gcBatches);
    u64(m.pagesMigrated);
    return h;
}

TEST(SweepGolden, ShardedMatchesSequentialBitIdentical)
{
    auto sequential = makeRunner();
    sequential->run(1);

    for (const unsigned threads : {2u, 4u}) {
        auto sharded = makeRunner();
        sharded->run(threads);
        ASSERT_EQ(sharded->results().size(),
                  sequential->results().size());
        for (const auto &p : sequential->points()) {
            EXPECT_EQ(sequential->results()[p.index],
                      sharded->results()[p.index])
                << p.trace << "/" << schedulerKindName(p.scheduler)
                << "/seed=" << p.seed << " diverged at " << threads
                << " threads";
        }
        EXPECT_TRUE(sequential->aggregate() == sharded->aggregate());
    }
}

/**
 * Pinned per-cell digests, captured on the PR 3 SweepRunner (which
 * produces bit-identical metrics to the PR 2 per-bench loops). Any
 * drift means scheduling DECISIONS changed, not just their cost;
 * update only with a change that is supposed to alter simulated
 * behavior, via SPK_SWEEP_GOLDEN_REGEN=1.
 */
TEST(SweepGolden, PerCellDigestsArePinned)
{
    struct PinnedCell
    {
        const char *trace;
        SchedulerKind kind;
        std::uint64_t seed;
        std::uint64_t digest;
    };
    const PinnedCell expected[] = {
        // clang-format off
        {"hm0", SchedulerKind::VAS, 101, 0xa4a94e4056838da1ull},
        {"hm0", SchedulerKind::VAS, 102, 0xe3c6a78687d677faull},
        {"hm0", SchedulerKind::PAS, 101, 0x7a98e4022db3866eull},
        {"hm0", SchedulerKind::PAS, 102, 0x39f0f395aa60e0c6ull},
        {"hm0", SchedulerKind::SPK1, 101, 0xf1e36e0ce8b5a861ull},
        {"hm0", SchedulerKind::SPK1, 102, 0xedb1e1f7c59d9c8bull},
        {"hm0", SchedulerKind::SPK2, 101, 0x10fde18d7e120606ull},
        {"hm0", SchedulerKind::SPK2, 102, 0x731e94fc35be44b9ull},
        {"hm0", SchedulerKind::SPK3, 101, 0x33afe6f6aba0019cull},
        {"hm0", SchedulerKind::SPK3, 102, 0xbdd6cb8ad46d1766ull},
        {"msnfs1", SchedulerKind::VAS, 101, 0xaa455a95943b3a65ull},
        {"msnfs1", SchedulerKind::VAS, 102, 0x2486303c2ab6116cull},
        {"msnfs1", SchedulerKind::PAS, 101, 0x9e60de2f242bedcbull},
        {"msnfs1", SchedulerKind::PAS, 102, 0x6e38ca02fccb77a0ull},
        {"msnfs1", SchedulerKind::SPK1, 101, 0xb0c930bb953ba53eull},
        {"msnfs1", SchedulerKind::SPK1, 102, 0x9d5ad4326f80712full},
        {"msnfs1", SchedulerKind::SPK2, 101, 0xbab2498c697399efull},
        {"msnfs1", SchedulerKind::SPK2, 102, 0xc917d88513db6eb6ull},
        {"msnfs1", SchedulerKind::SPK3, 101, 0xc9c026d72a5f6a5eull},
        {"msnfs1", SchedulerKind::SPK3, 102, 0x352b2e8c21a3a306ull},
        // clang-format on
    };

    auto sweep = makeRunner();
    sweep->run(4);

    if (std::getenv("SPK_SWEEP_GOLDEN_REGEN") != nullptr) {
        for (const auto &trace : kTraces) {
            for (const auto kind : goldenAxes().schedulers) {
                for (const auto seed : kSeeds) {
                    std::printf(
                        "        {\"%s\", SchedulerKind::%s, %llu, "
                        "0x%llxull},\n",
                        trace.c_str(), schedulerKindName(kind),
                        static_cast<unsigned long long>(seed),
                        static_cast<unsigned long long>(
                            digest(sweep->at(trace, kind, seed))));
                }
            }
        }
        FAIL() << "SPK_SWEEP_GOLDEN_REGEN set: paste the table above";
    }

    for (const auto &cell : expected) {
        EXPECT_EQ(digest(sweep->at(cell.trace, cell.kind, cell.seed)),
                  cell.digest)
            << cell.trace << "/" << schedulerKindName(cell.kind)
            << "/seed=" << cell.seed;
    }
}

/** The fleet aggregate of the mini campaign, pinned on the readable
 *  integer counters (the digest test covers the doubles). */
TEST(SweepGolden, FleetAggregateIsPinned)
{
    auto sweep = makeRunner();
    sweep->run(4);
    const MetricsSnapshot fleet = sweep->aggregate();

    if (std::getenv("SPK_SWEEP_GOLDEN_REGEN") != nullptr) {
        std::printf("ios=%llu bytesRead=%llu bytesWritten=%llu "
                    "txns=%llu served=%llu makespan=%llu stale=%llu "
                    "gc=%llu\n",
                    static_cast<unsigned long long>(fleet.iosCompleted),
                    static_cast<unsigned long long>(fleet.bytesRead),
                    static_cast<unsigned long long>(fleet.bytesWritten),
                    static_cast<unsigned long long>(fleet.transactions),
                    static_cast<unsigned long long>(
                        fleet.requestsServed),
                    static_cast<unsigned long long>(fleet.makespan),
                    static_cast<unsigned long long>(fleet.staleRetries),
                    static_cast<unsigned long long>(fleet.gcBatches));
        FAIL() << "SPK_SWEEP_GOLDEN_REGEN set: paste the line above";
    }

    EXPECT_EQ(fleet.scheduler, "mixed");
    EXPECT_EQ(fleet.iosCompleted, 4000ull);
    EXPECT_EQ(fleet.bytesRead, 21739520ull);
    EXPECT_EQ(fleet.bytesWritten, 30228480ull);
    EXPECT_EQ(fleet.transactions, 16466ull);
    EXPECT_EQ(fleet.requestsServed, 25375ull);
    EXPECT_EQ(fleet.makespan, 141089953ull);
    EXPECT_EQ(fleet.staleRetries, 0ull);
}

TEST(SweepGolden, FilterRestrictsMatchingAxisOnly)
{
    const SweepAxes axes = goldenAxes();

    const SweepAxes by_trace = filterAxes(axes, "msnfs");
    EXPECT_EQ(by_trace.traces,
              (std::vector<std::string>{"msnfs1"}));
    EXPECT_EQ(by_trace.schedulers.size(), 5u);
    EXPECT_EQ(by_trace.seeds.size(), 2u);

    const SweepAxes by_sched = filterAxes(axes, "spk3");
    EXPECT_EQ(by_sched.traces.size(), 2u);
    ASSERT_EQ(by_sched.schedulers.size(), 1u);
    EXPECT_EQ(by_sched.schedulers[0], SchedulerKind::SPK3);

    // A needle matching nothing leaves every axis untouched rather
    // than emptying the sweep.
    const SweepAxes no_match = filterAxes(axes, "zzz");
    EXPECT_EQ(no_match.traces.size(), 2u);
    EXPECT_EQ(no_match.schedulers.size(), 5u);
}

TEST(SweepGolden, CsvEmitsHeaderAndOneRowPerCell)
{
    auto sweep = makeRunner();
    sweep->run(2);
    std::ostringstream os;
    sweep->writeCsv(os);

    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(
        line.rfind(
            "trace,scheduler,seed,variant,arbiter,fault,fidelity,"
            "completed,",
            0),
        0u);
    std::size_t rows = 0;
    while (std::getline(is, line)) {
        ++rows;
        EXPECT_NE(line.find(",1,"), std::string::npos)
            << "row should be marked completed: " << line;
    }
    EXPECT_EQ(rows, sweep->cellCount());
    EXPECT_EQ(rows, 20u);

    // Every row of both CSVs has as many columns as its header. The
    // stream CSV needs a multi-stream cell: one cell, two streams.
    const auto columns = [](const std::string &l) {
        return std::count(l.begin(), l.end(), ',') + 1;
    };
    SweepAxes one;
    one.traces = {"hm0"};
    one.schedulers = {SchedulerKind::SPK3};
    one.seeds = {kSeeds[0]};
    SweepRunner streams(one, [](const SweepPoint &p) {
        DeviceJob job;
        job.cfg = goldenConfig(p.scheduler, p.seed);
        const std::uint64_t span = job.cfg.geometry.totalPages() *
                                   job.cfg.geometry.pageSizeBytes / 2;
        for (const std::uint64_t s : {0, 1}) {
            HostStreamConfig stream;
            stream.name = "s" + std::to_string(s);
            stream.trace = generatePaperTrace(p.trace, kIosPerCell / 2,
                                              span, p.seed + s);
            job.streams.push_back(std::move(stream));
        }
        return job;
    });
    streams.run(1);
    for (const bool per_stream : {false, true}) {
        std::ostringstream csv;
        if (per_stream)
            streams.writeStreamCsv(csv);
        else
            sweep->writeCsv(csv);
        std::istringstream lines(csv.str());
        ASSERT_TRUE(std::getline(lines, line));
        const auto width = columns(line);
        std::size_t n = 0;
        while (std::getline(lines, line)) {
            ++n;
            EXPECT_EQ(columns(line), width) << line;
        }
        EXPECT_EQ(n, per_stream ? 2u : 20u);
    }
}

TEST(SweepGolden, UnknownAxisValueDies)
{
    auto sweep = makeRunner();
    sweep->run(1);
    EXPECT_DEATH(sweep->at("nope", SchedulerKind::VAS, 101),
                 "not on the trace axis");
}

TEST(SweepGolden, ResultAccessBeforeRunDies)
{
    auto sweep = makeRunner();
    EXPECT_DEATH(sweep->at("hm0", SchedulerKind::VAS, 101),
                 "before run");
}

} // namespace
} // namespace spk
