/**
 * @file
 * Shared helpers for the benchmark harness: run one workload on one
 * scheduler configuration and print table rows in a uniform format.
 *
 * Every bench binary regenerates one exhibit (table or figure) of the
 * paper; see DESIGN.md section 4 for the mapping.
 */

#ifndef SPK_BENCH_BENCH_UTIL_HH
#define SPK_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "ssd/ssd.hh"
#include "workload/paper_traces.hh"
#include "workload/synthetic.hh"

#ifdef SPK_BENCH_COUNT_ALLOCS
#define SPK_COUNT_ALLOCS
#endif
#include "sim/alloc_counter.hh"

namespace spk
{
namespace bench
{

using spk::AllocWindow;

/** The five schedulers of the evaluation, in paper order. */
inline const std::vector<SchedulerKind> &
allSchedulers()
{
    static const std::vector<SchedulerKind> kinds = {
        SchedulerKind::VAS, SchedulerKind::PAS, SchedulerKind::SPK1,
        SchedulerKind::SPK2, SchedulerKind::SPK3};
    return kinds;
}

/** Paper evaluation geometry scaled for offline runtime. */
inline SsdConfig
evalConfig(SchedulerKind kind, std::uint32_t num_chips = 64)
{
    SsdConfig cfg = SsdConfig::withChips(num_chips);
    // Keep mapping tables small while preserving chip/die/plane
    // parallelism: the experiments exercise scheduling, not capacity.
    cfg.geometry.blocksPerPlane = 24;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = kind;
    return cfg;
}

/** evalConfig for the chip-count sweeps (Figures 15 and 16): at 512
 *  chips and up the block count drops to keep the run small. */
inline SsdConfig
sizeSweepConfig(SchedulerKind kind, std::uint32_t chips)
{
    SsdConfig cfg = evalConfig(kind, chips);
    if (chips >= 512)
        cfg.geometry.blocksPerPlane = 6;
    return cfg;
}

/** Span that fits comfortably inside the logical capacity. */
inline std::uint64_t
spanFor(const SsdConfig &cfg, double fraction = 0.5)
{
    const double logical =
        static_cast<double>(cfg.geometry.totalPages()) *
        (1.0 - cfg.ftl.overprovision) *
        static_cast<double>(cfg.geometry.pageSizeBytes);
    return static_cast<std::uint64_t>(logical * fraction);
}

/**
 * The sweep shared by the Table 1-workload exhibits (Figures 6 and
 * 10-14): the sixteen paper traces (1200 I/Os each) crossed with
 * @p schedulers on the evaluation geometry. Traces are generated once
 * per surviving workload (evalConfig only varies in the scheduler
 * field, so the span — and hence the trace — is
 * scheduler-independent) and interned in a shared TraceStore, so
 * every cell of a workload references the same parsed copy; @p filter
 * is applied before expansion so filtered-out cells cost nothing.
 */
inline std::unique_ptr<SweepRunner>
paperTraceSweep(std::vector<SchedulerKind> schedulers,
                std::uint64_t seed, const std::string &filter,
                Fidelity fidelity = Fidelity::Exact)
{
    SweepAxes axes;
    axes.traces.clear();
    for (const auto &info : paperTraces())
        axes.traces.push_back(info.name);
    axes.schedulers = std::move(schedulers);
    axes.seeds = {seed};
    axes.fidelities = {fidelity};
    const SweepAxes filtered = filterAxes(axes, filter);

    const std::uint64_t span =
        spanFor(evalConfig(SchedulerKind::VAS));
    auto store = std::make_shared<TraceStore>();
    for (const auto &name : filtered.traces) {
        store->intern(name, [&] {
            return generatePaperTrace(name, 1200, span, seed);
        });
    }

    return std::make_unique<SweepRunner>(
        filtered, [store = std::move(store)](const SweepPoint &p) {
            DeviceJob job;
            job.cfg = evalConfig(p.scheduler);
            job.trace = store->ref(p.trace);
            return job;
        });
}

/** True when @p kind survived the sweep's scheduler filter. */
inline bool
hasScheduler(const SweepRunner &sweep, SchedulerKind kind)
{
    const auto &kinds = sweep.axes().schedulers;
    return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
}

/** Print a header line for an exhibit. */
inline void
printHeader(const std::string &exhibit, const std::string &what)
{
    std::printf("\n=== %s: %s ===\n", exhibit.c_str(), what.c_str());
}

/** Print the paper-vs-measured shape note. */
inline void
printShapeNote(const std::string &note)
{
    std::printf("--- paper-shape check: %s\n", note.c_str());
}

} // namespace bench
} // namespace spk


#endif // SPK_BENCH_BENCH_UTIL_HH
