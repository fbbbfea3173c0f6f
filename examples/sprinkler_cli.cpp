/**
 * @file
 * Full command-line front-end for the simulator: configure geometry,
 * timing, scheduler and workload from flags; emit a human table or
 * machine-readable CSV. This is the entry point a downstream user
 * scripts experiments with.
 *
 *   $ ./sprinkler_cli --help
 *   $ ./sprinkler_cli --sched spk3 --chips 64 --workload cfs3
 *   $ ./sprinkler_cli --sched all --workload synthetic --ios 2000 \
 *         --read-frac 0.7 --size 16384 --csv
 *   $ ./sprinkler_cli --trace-file msr.csv --sched pas --gc
 */

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/parse_number.hh"
#include "ssd/ssd.hh"
#include "workload/paper_traces.hh"
#include "workload/synthetic.hh"
#include "workload/trace_parser.hh"

namespace
{

using namespace spk;

struct Options
{
    std::string sched = "spk3"; //!< or "all"
    std::uint32_t chips = 64;
    std::uint32_t queueDepth = 32;
    std::uint32_t faroWindow = 8;
    std::uint32_t blocksPerPlane = 24;
    std::uint32_t pagesPerBlock = 32;
    std::string allocation = "channel-stripe";
    std::uint32_t wearLevel = 0;

    std::string workload = "synthetic"; //!< Table 1 name or synthetic
    std::string traceFile;
    std::uint64_t ios = 2000;
    double readFrac = 0.7;
    std::uint64_t sizeBytes = 16384;
    double randomness = 0.9;
    double locality = 0.5;
    std::uint64_t interarrivalNs = 10000;
    std::uint64_t seed = 42;

    bool gc = false; //!< precondition for garbage collection
    bool csv = false;
    bool help = false;
};

void
usage()
{
    std::printf(
        "sprinkler_cli -- many-chip SSD scheduling simulator\n\n"
        "device options:\n"
        "  --sched NAME        vas|pas|spk1|spk2|spk3|all (default spk3)\n"
        "  --chips N           number of flash chips (default 64)\n"
        "  --queue-depth N     NCQ depth (default 32)\n"
        "  --faro-window N     over-commitment window (default 8)\n"
        "  --blocks N          blocks per plane (default 24)\n"
        "  --pages N           pages per block (default 32)\n"
        "  --allocation P      channel-stripe|plane-first\n"
        "  --wear-level N      static wear-leveling threshold "
        "(0 = off)\n\n"
        "workload options:\n"
        "  --workload NAME     synthetic | a Table 1 trace name "
        "(cfs0..proj4)\n"
        "  --trace-file PATH   replay an MSR-format CSV instead\n"
        "  --ios N             I/O count (default 2000)\n"
        "  --read-frac F       read fraction for synthetic (default "
        "0.7)\n"
        "  --size BYTES        request size for synthetic (default "
        "16384)\n"
        "  --randomness F      non-sequential fraction (default 0.9)\n"
        "  --locality F        hot-window probability (default 0.5)\n"
        "  --interarrival NS   mean interarrival (default 10000)\n"
        "  --seed N            RNG seed (default 42)\n\n"
        "run options:\n"
        "  --gc                precondition to 95%% full + churn\n"
        "  --csv               machine-readable output\n"
        "  --help              this text\n");
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            return nullptr;
        }
        return argv[++i];
    };
    // Reads the next argument into a numeric option field.
    auto number = [&](int &i, auto &field) -> bool {
        const std::string flag = argv[i];
        const char *text = need(i);
        if (text == nullptr)
            return false;
        field = parseNumber<std::remove_reference_t<decltype(field)>>(
            flag, text);
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = nullptr;
        if (arg == "--help" || arg == "-h") {
            opt.help = true;
        } else if (arg == "--gc") {
            opt.gc = true;
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--sched") {
            if (!(val = need(i)))
                return false;
            opt.sched = val;
        } else if (arg == "--chips") {
            if (!number(i, opt.chips))
                return false;
        } else if (arg == "--queue-depth") {
            if (!number(i, opt.queueDepth))
                return false;
        } else if (arg == "--faro-window") {
            if (!number(i, opt.faroWindow))
                return false;
        } else if (arg == "--blocks") {
            if (!number(i, opt.blocksPerPlane))
                return false;
        } else if (arg == "--pages") {
            if (!number(i, opt.pagesPerBlock))
                return false;
        } else if (arg == "--allocation") {
            if (!(val = need(i)))
                return false;
            opt.allocation = val;
        } else if (arg == "--wear-level") {
            if (!number(i, opt.wearLevel))
                return false;
        } else if (arg == "--workload") {
            if (!(val = need(i)))
                return false;
            opt.workload = val;
        } else if (arg == "--trace-file") {
            if (!(val = need(i)))
                return false;
            opt.traceFile = val;
        } else if (arg == "--ios") {
            if (!number(i, opt.ios))
                return false;
        } else if (arg == "--read-frac") {
            if (!number(i, opt.readFrac))
                return false;
        } else if (arg == "--size") {
            if (!number(i, opt.sizeBytes))
                return false;
        } else if (arg == "--randomness") {
            if (!number(i, opt.randomness))
                return false;
        } else if (arg == "--locality") {
            if (!number(i, opt.locality))
                return false;
        } else if (arg == "--interarrival") {
            if (!number(i, opt.interarrivalNs))
                return false;
        } else if (arg == "--seed") {
            if (!number(i, opt.seed))
                return false;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

SsdConfig
buildConfig(const Options &opt, SchedulerKind kind)
{
    SsdConfig cfg = SsdConfig::withChips(opt.chips);
    cfg.geometry.blocksPerPlane = opt.blocksPerPlane;
    cfg.geometry.pagesPerBlock = opt.pagesPerBlock;
    cfg.scheduler = kind;
    cfg.nvmhc.queueDepth = opt.queueDepth;
    cfg.faroWindow = opt.faroWindow;
    cfg.seed = opt.seed;
    if (opt.allocation == "plane-first")
        cfg.ftl.allocation = AllocationPolicy::PlaneFirst;
    else if (opt.allocation != "channel-stripe")
        spk::fatal("unknown allocation policy: " + opt.allocation);
    cfg.ftl.wearLevelThreshold = opt.wearLevel;
    return cfg;
}

Trace
buildWorkload(const Options &opt, const SsdConfig &cfg)
{
    const std::uint64_t span =
        static_cast<std::uint64_t>(
            static_cast<double>(cfg.geometry.totalPages()) *
            (1.0 - cfg.ftl.overprovision) *
            cfg.geometry.pageSizeBytes) /
        2;

    if (!opt.traceFile.empty()) {
        auto parsed = parseMsrTraceFile(opt.traceFile);
        Trace trace = std::move(parsed.trace);
        if (trace.size() > opt.ios)
            trace.resize(opt.ios);
        for (auto &rec : trace) {
            rec.offsetBytes %= span;
            if (rec.offsetBytes + rec.sizeBytes > span)
                rec.sizeBytes = span - rec.offsetBytes;
            if (rec.sizeBytes == 0)
                rec.sizeBytes = cfg.geometry.pageSizeBytes;
        }
        return trace;
    }
    if (opt.workload != "synthetic")
        return generatePaperTrace(opt.workload, opt.ios, span, opt.seed);

    SyntheticConfig wl;
    wl.numIos = opt.ios;
    wl.readFraction = opt.readFrac;
    wl.readSizes = {{opt.sizeBytes, 1.0}};
    wl.writeSizes = {{opt.sizeBytes, 1.0}};
    wl.readRandomness = opt.randomness;
    wl.writeRandomness = opt.randomness;
    wl.locality = opt.locality;
    wl.spanBytes = span;
    wl.meanInterarrival = opt.interarrivalNs;
    wl.seed = opt.seed;
    return generateSynthetic(wl);
}

void
report(const Options &opt, const MetricsSnapshot &m, bool header)
{
    if (opt.csv) {
        if (header) {
            std::printf(
                "scheduler,bandwidth_kbps,iops,avg_latency_us,"
                "queue_stall_ms,chip_util_pct,flash_util_pct,"
                "inter_idle_pct,intra_idle_pct,transactions,"
                "requests,stale_retries,gc_batches\n");
        }
        std::printf("%s,%.0f,%.0f,%.1f,%.3f,%.2f,%.2f,%.2f,%.2f,%llu,"
                    "%llu,%llu,%llu\n",
                    m.scheduler.c_str(), m.bandwidthKBps, m.iops,
                    m.avgLatencyNs / 1000.0,
                    static_cast<double>(m.queueStallTime) / 1e6,
                    m.chipUtilizationPct, m.flashLevelUtilizationPct,
                    m.interChipIdlenessPct, m.intraChipIdlenessPct,
                    static_cast<unsigned long long>(m.transactions),
                    static_cast<unsigned long long>(m.requestsServed),
                    static_cast<unsigned long long>(m.staleRetries),
                    static_cast<unsigned long long>(m.gcBatches));
        return;
    }
    if (header) {
        std::printf("%-6s %12s %10s %12s %10s %10s %8s\n", "sched",
                    "BW KB/s", "IOPS", "latency us", "util %",
                    "flash %", "txns");
    }
    std::printf("%-6s %12.0f %10.0f %12.1f %10.1f %10.1f %8llu\n",
                m.scheduler.c_str(), m.bandwidthKBps, m.iops,
                m.avgLatencyNs / 1000.0, m.chipUtilizationPct,
                m.flashLevelUtilizationPct,
                static_cast<unsigned long long>(m.transactions));
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 1;
    }
    if (opt.help) {
        usage();
        return 0;
    }

    std::vector<SchedulerKind> kinds;
    if (opt.sched == "all") {
        kinds = {SchedulerKind::VAS, SchedulerKind::PAS,
                 SchedulerKind::SPK1, SchedulerKind::SPK2,
                 SchedulerKind::SPK3};
    } else {
        kinds = {parseSchedulerKind(opt.sched)};
    }

    bool header = true;
    for (const auto kind : kinds) {
        const SsdConfig cfg = buildConfig(opt, kind);
        Ssd ssd(cfg);
        if (opt.gc)
            ssd.preconditionForGc();
        ssd.replay(buildWorkload(opt, cfg));
        ssd.run();
        report(opt, ssd.metrics(), header);
        header = false;
    }
    return 0;
}
