/**
 * @file
 * Common command line for every exhibit bench.
 *
 *   --threads N    worker threads for the sweep (default: all
 *                  hardware threads). Results are bit-identical at
 *                  any value; only wall-clock changes.
 *   --filter S     keep only axis values whose label contains S
 *                  (case-insensitive; see spk::filterAxes).
 *   --csv PATH     also dump every sweep cell as CSV.
 *   --fidelity F   exact (default) runs the event-accurate engine,
 *                  fast the analytic estimator (sim/estimator.hh).
 *   --cache DIR    persistent content-addressed cell cache
 *                  (sim/cell_cache.hh): cells already simulated with
 *                  identical config/trace/seed/fidelity are served
 *                  from DIR instead of re-simulated, bit-identically.
 *                  Hit-rate is reported in the stderr footer.
 *
 * Every sweep also prints a parseable stderr footer with the run
 * makespan, per-worker busy times and thread imbalance (and cache
 * hits when --cache is active), so scheduling wins are measurable in
 * any exhibit run.
 *
 * Ctrl-C sets the sweep stop flag: in-flight cells finish, the bench
 * reports how far it got and exits 130 without printing tables built
 * from incomplete grids.
 */

#ifndef SPK_BENCH_BENCH_CLI_HH
#define SPK_BENCH_BENCH_CLI_HH

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>

#include "sim/cell_cache.hh"
#include "sim/parse_number.hh"
#include "sim/sweep.hh"

namespace spk
{
namespace bench
{

/** Parsed common options. */
struct BenchCli
{
    unsigned threads = 1;
    std::string filter;
    std::string csv;
    Fidelity fidelity = Fidelity::Exact;
    /** Cell-cache directory; empty disables the cache. */
    std::string cacheDir;
};

inline unsigned
defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

[[noreturn]] inline void
usage(const char *prog, int exit_code)
{
    std::fprintf(
        stderr,
        "usage: %s [--threads N] [--filter SUBSTR] [--csv PATH]\n"
        "          [--fidelity exact|fast] [--cache DIR]\n"
        "  --threads N   sweep worker threads (default: %u);\n"
        "                results are identical at any thread count\n"
        "  --filter S    keep axis values containing S "
        "(case-insensitive)\n"
        "  --csv PATH    also write every sweep cell as CSV\n"
        "  --fidelity F  exact: event-accurate engine (default);\n"
        "                fast: analytic estimator (calibrated, "
        "approximate)\n"
        "  --cache DIR   persistent cell cache: serve already-\n"
        "                simulated cells from DIR, bit-identically\n",
        prog, defaultThreads());
    std::exit(exit_code);
}

inline BenchCli
parseCli(int argc, char **argv)
{
    BenchCli cli;
    cli.threads = defaultThreads();
    for (int i = 1; i < argc; ++i) {
        const auto needsValue = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", argv[0],
                             flag);
                usage(argv[0], 2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--threads") == 0) {
            cli.threads = parseNumber<unsigned>(
                "--threads", needsValue("--threads"));
            if (cli.threads < 1) {
                std::fprintf(stderr, "%s: --threads must be >= 1\n",
                             argv[0]);
                usage(argv[0], 2);
            }
        } else if (std::strcmp(argv[i], "--filter") == 0) {
            cli.filter = needsValue("--filter");
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            cli.csv = needsValue("--csv");
        } else if (std::strcmp(argv[i], "--fidelity") == 0) {
            const char *value = needsValue("--fidelity");
            if (!parseFidelity(value, cli.fidelity)) {
                std::fprintf(stderr,
                             "%s: --fidelity must be exact or fast "
                             "(got %s)\n",
                             argv[0], value);
                usage(argv[0], 2);
            }
        } else if (std::strcmp(argv[i], "--cache") == 0) {
            cli.cacheDir = needsValue("--cache");
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "%s: unknown option %s\n", argv[0],
                         argv[i]);
            usage(argv[0], 2);
        }
    }
    return cli;
}

/** SIGINT-driven stop flag for clean sweep cancellation. */
inline std::atomic<bool> &
stopFlag()
{
    static std::atomic<bool> stop{false};
    return stop;
}

/**
 * Process-wide cell cache for @p dir; benches with several sub-sweeps
 * share one instance so the footer's hit/store counters accumulate
 * over the whole run. Null when @p dir is empty (cache disabled).
 */
inline CellCache *
processCache(const std::string &dir)
{
    static std::unique_ptr<CellCache> cache;
    if (!dir.empty() && !cache)
        cache = std::make_unique<CellCache>(dir);
    return cache.get();
}

/**
 * Parseable stderr footer: run makespan, per-worker busy seconds and
 * thread imbalance, plus cache hit accounting when a cache is active.
 * The CI cache smoke greps the "cache:" line for the hit percentage.
 */
inline void
printSweepFooter(const SweepRunner &sweep, const CellCache *cache)
{
    const auto &busy = sweep.threadBusySeconds();
    if (!busy.empty()) {
        const double max_busy =
            *std::max_element(busy.begin(), busy.end());
        const double min_busy =
            *std::min_element(busy.begin(), busy.end());
        const double imbalance =
            max_busy > 0.0 ? (max_busy - min_busy) / max_busy * 100.0
                           : 0.0;
        std::fprintf(stderr,
                     "sweep: %zu cells in %.3fs wall, %zu workers, "
                     "busy max/min %.3f/%.3fs, imbalance %.1f%%\n",
                     sweep.completedCount(), sweep.runWallSeconds(),
                     busy.size(), max_busy, min_busy, imbalance);
    }
    if (cache) {
        const auto lookups = cache->lookups();
        const double pct =
            lookups > 0 ? static_cast<double>(cache->hits()) /
                              static_cast<double>(lookups) * 100.0
                        : 0.0;
        std::fprintf(
            stderr, "cache: %llu hits / %llu lookups (%.1f%%), "
                    "%llu stored\n",
            static_cast<unsigned long long>(cache->hits()),
            static_cast<unsigned long long>(lookups), pct,
            static_cast<unsigned long long>(cache->stores()));
    }
}

inline void
installSigintStop()
{
    // Touch the flag first: the function-local static must finish
    // its (guarded) initialization before a handler could run it
    // from signal context.
    stopFlag();
    std::signal(SIGINT, [](int) {
        stopFlag().store(true, std::memory_order_relaxed);
    });
}

/**
 * Run a SweepRunner under the common CLI policy: SIGINT cancels,
 * progress goes to stderr when it is a terminal, cancellation exits
 * 130 before any table is printed, and the CSV dump (when requested)
 * goes to @p csv_path — benches with several sub-sweeps pass distinct
 * suffixed paths per sweep. @p extra_csv, when set, is invoked with
 * the CSV path right after every writeCsvFile — cancellation
 * included — so companion dumps (e.g. the per-stream CSV) honor the
 * same partial-results-kept contract as the main file.
 */
inline void
runSweep(SweepRunner &sweep, const BenchCli &cli,
         const std::string &csv_path,
         const std::function<void(const std::string &)> &extra_csv =
             {})
{
    installSigintStop();
    SweepRunner::Progress progress;
    progress.stop = &stopFlag();
    progress.cache = processCache(cli.cacheDir);
    const bool show_progress = isatty(fileno(stderr)) != 0;
    if (show_progress) {
        progress.onCellDone = [](std::size_t done, std::size_t total,
                                 const SweepPoint &) {
            std::fprintf(stderr, "\rsweep: %zu/%zu cells", done,
                         total);
            if (done == total)
                std::fprintf(stderr, "\n");
        };
    }
    sweep.run(cli.threads, progress);
    printSweepFooter(sweep, progress.cache);
    if (stopFlag().load(std::memory_order_relaxed)) {
        if (show_progress)
            std::fprintf(stderr, "\n");
        std::fprintf(stderr, "sweep cancelled after %zu/%zu cells\n",
                     sweep.completedCount(), sweep.cellCount());
        if (!csv_path.empty()) {
            // Completed cells are valid and final; keep them. The
            // completed column marks the skipped ones.
            sweep.writeCsvFile(csv_path);
            if (extra_csv)
                extra_csv(csv_path);
            std::fprintf(stderr, "kept partial results in %s\n",
                         csv_path.c_str());
        }
        std::exit(130);
    }
    if (!csv_path.empty()) {
        sweep.writeCsvFile(csv_path);
        if (extra_csv)
            extra_csv(csv_path);
        std::fprintf(stderr, "wrote %zu cells to %s\n",
                     sweep.cellCount(), csv_path.c_str());
    }
}

inline void
runSweep(SweepRunner &sweep, const BenchCli &cli)
{
    runSweep(sweep, cli, cli.csv);
}

} // namespace bench
} // namespace spk

#endif // SPK_BENCH_BENCH_CLI_HH
