#include "workloads.hh"

#include <map>
#include <sstream>
#include <utility>

#include "sim/logging.hh"
#include "workload/fio_job.hh"
#include "workload/paper_traces.hh"
#include "workload/trace_store.hh"

namespace perfbench
{

using namespace spk;

namespace
{

/** I/Os per Table 1 trace. The exhibits replay 1200; the benchmark
 *  keeps every cell of the grid, msnfs3 x PAS included, and shortens
 *  the traces so one campaign fits a run several times over. */
constexpr std::uint64_t kPaperIos = 60;

/** Trace seeds per Table 1 workload. Several short traces instead of
 *  one long one: a campaign's cost then sums over more independent
 *  inputs, so it varies less from one benchmark seed to the next. */
constexpr std::uint64_t kTraceSeeds = 4;

/** The fast_sweep axes: device widths and host queue depths. */
const std::vector<std::uint32_t> kSweepChips = {8,   16,  32,  64,
                                                128, 256, 512, 1024};
const std::vector<std::uint32_t> kSweepDepths = {
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256};

/** The evaluation point of fast_sweep (the paper_grid device). */
constexpr std::uint32_t kEvalChips = 64;
constexpr std::uint32_t kEvalDepth = 32;

/** The fig18 mixed-tenant job (a random 4 KB reader, a sequential
 *  64 KB writer, two mixed read/write workers), sized so GC cycles
 *  many times on the preconditioned device. */
constexpr const char *kMixedJob = R"(
[global]
size=24m
number_ios=100

[oltp]
rw=randread
bs=4k
iodepth=8
prio=0
weight=1

[backup]
rw=write
bs=64k
iodepth=32
offset=24m
prio=2
weight=4

[worker]
rw=randrw
rwmixread=70
bssplit=4k/60:16k/30:64k/10
iodepth=8
numjobs=2
offset=48m
prio=1
weight=2
)";

/** Read-fault rate of gc_mixed: low enough that die parity
 *  reconstructs every uncorrectable page. */
constexpr double kMixedReadFaultRate = 1e-3;

/** The exhibits' evaluation device: paper geometry with small
 *  mapping tables (same shape as bench/bench_util.hh's evalConfig). */
SsdConfig
evalConfig(SchedulerKind kind, std::uint32_t chips, std::uint64_t seed)
{
    SsdConfig cfg = SsdConfig::withChips(chips);
    cfg.geometry.blocksPerPlane = 24;
    cfg.geometry.pagesPerBlock = 32;
    cfg.scheduler = kind;
    cfg.seed = seed;
    return cfg;
}

/** Half the logical capacity of a @p chips-wide evaluation device. */
std::uint64_t
halfSpan(std::uint32_t chips)
{
    const SsdConfig cfg = evalConfig(SchedulerKind::VAS, chips, 1);
    const double logical =
        static_cast<double>(cfg.geometry.totalPages()) *
        (1.0 - cfg.ftl.overprovision) *
        static_cast<double>(cfg.geometry.pageSizeBytes);
    return static_cast<std::uint64_t>(logical * 0.5);
}

const std::vector<SchedulerKind> kAllSchedulers = {
    SchedulerKind::VAS, SchedulerKind::PAS, SchedulerKind::SPK1,
    SchedulerKind::SPK2, SchedulerKind::SPK3};

std::string
sweepVariant(std::uint32_t chips, std::uint32_t depth)
{
    return "chips=" + std::to_string(chips) +
           ",qd=" + std::to_string(depth);
}

std::string
traceKey(const std::string &name, std::uint64_t seed)
{
    return name + "@" + std::to_string(seed);
}

/** Intern the sixteen Table 1 traces for every seed of @p seeds. */
std::shared_ptr<TraceStore>
paperStore(std::uint64_t span, const std::vector<std::uint64_t> &seeds)
{
    auto store = std::make_shared<TraceStore>();
    for (const auto &info : paperTraces()) {
        for (const auto seed : seeds) {
            store->intern(traceKey(info.name, seed), [&] {
                return generatePaperTrace(info.name, kPaperIos, span,
                                          seed);
            });
        }
    }
    return store;
}

std::vector<std::string>
paperNames()
{
    std::vector<std::string> names;
    for (const auto &info : paperTraces())
        names.push_back(info.name);
    return names;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_grid", "gc_mixed", "fast_sweep"};
    return names;
}

std::uint64_t
recordsOf(const DeviceJob &job)
{
    if (job.streams.empty())
        return job.trace.size();
    std::uint64_t n = 0;
    for (const auto &s : job.streams)
        n += s.trace.size();
    return n;
}

CampaignInputs
generateInputs(const std::string &workload, std::uint64_t seed)
{
    CampaignInputs in;
    SweepAxes &axes = in.axes;
    axes.seeds.clear();
    for (std::uint64_t i = 0; i < kTraceSeeds; ++i)
        axes.seeds.push_back(seed + i);
    SweepRunner::JobBuilder &build = in.build;

    if (workload == "paper_grid") {
        auto store = paperStore(halfSpan(kEvalChips), axes.seeds);
        axes.traces = paperNames();
        axes.schedulers = kAllSchedulers;
        axes.fidelities = {Fidelity::Exact, Fidelity::Fast};
        build = [store](const SweepPoint &p) {
            DeviceJob job;
            job.cfg = evalConfig(p.scheduler, kEvalChips, p.seed);
            job.trace = store->ref(traceKey(p.trace, p.seed));
            return job;
        };
    } else if (workload == "gc_mixed") {
        std::istringstream job_file(kMixedJob);
        FioJobOptions opt;
        opt.baseSeed = seed;
        auto streams = std::make_shared<std::vector<HostStreamConfig>>(
            parseFioJob(job_file, opt));
        axes.seeds = {seed};
        axes.traces = {"fig18_mixed"};
        axes.schedulers = {SchedulerKind::VAS, SchedulerKind::PAS,
                           SchedulerKind::SPK3};
        axes.arbiters = {ArbiterKind::WeightedRoundRobin};
        axes.fidelities = {Fidelity::Exact, Fidelity::Fast};
        build = [streams](const SweepPoint &p) {
            DeviceJob job;
            job.cfg = evalConfig(p.scheduler, kEvalChips, p.seed);
            job.cfg.nvmhc.arbiter = p.arbiter;
            job.cfg.parity.enabled = true;
            job.cfg.fault.readTransientRate = kMixedReadFaultRate;
            job.streams = *streams;
            job.preconditionGc = true;
            return job;
        };
    } else if (workload == "fast_sweep") {
        // Sized for the narrowest device so every width can hold it.
        auto store =
            paperStore(halfSpan(kSweepChips.front()), axes.seeds);
        axes.traces = paperNames();
        axes.schedulers = kAllSchedulers;
        auto shape = std::make_shared<
            std::map<std::string,
                     std::pair<std::uint32_t, std::uint32_t>>>();
        axes.variants.clear();
        for (const auto chips : kSweepChips) {
            for (const auto depth : kSweepDepths) {
                axes.variants.push_back(sweepVariant(chips, depth));
                (*shape)[axes.variants.back()] = {chips, depth};
            }
        }
        axes.fidelities = {Fidelity::Fast};
        build = [store, shape](const SweepPoint &p) {
            const auto &[chips, depth] = shape->at(p.variant);
            DeviceJob job;
            job.cfg = evalConfig(p.scheduler, chips, p.seed);
            job.cfg.nvmhc.queueDepth = depth;
            job.trace = store->ref(traceKey(p.trace, p.seed));
            return job;
        };
    } else {
        fatal("perfbench: unknown workload '" + workload + "'");
    }
    return in;
}

std::unique_ptr<SweepRunner>
buildValidation(const std::string &workload, const SweepRunner &campaign,
                std::vector<std::size_t> &pairs)
{
    pairs.clear();
    if (workload != "fast_sweep")
        return nullptr;
    const std::string eval = sweepVariant(kEvalChips, kEvalDepth);
    for (const auto &p : campaign.points()) {
        if (p.variant == eval)
            pairs.push_back(p.index);
    }
    // Expansion order (trace, scheduler, seed) matches the filtered
    // campaign points above.
    SweepAxes axes;
    axes.traces = campaign.axes().traces;
    axes.schedulers = campaign.axes().schedulers;
    axes.seeds = campaign.axes().seeds;
    axes.fidelities = {Fidelity::Exact};
    return std::make_unique<SweepRunner>(
        std::move(axes), [&campaign, eval](const SweepPoint &p) {
            return campaign.jobAt(p.trace, p.scheduler, p.seed, eval,
                                  ArbiterKind::RoundRobin, 0.0,
                                  Fidelity::Fast);
        });
}

} // namespace perfbench
