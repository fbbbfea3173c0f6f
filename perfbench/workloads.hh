/**
 * @file
 * The benchmark's three campaigns, built through the library's public
 * API only (trace generators, parseFioJob, TraceStore, SweepRunner).
 *
 *   paper_grid  16 Table 1 traces x 5 schedulers on the 64-chip
 *               evaluation device, exact on an empty device, plus the
 *               same cells at fidelity=fast as the accuracy pair. Each
 *               trace is generated for 4 seeds (a seed axis), so one
 *               campaign is 4 x 80 exact and 4 x 80 fast cells.
 *   gc_mixed    the fig18 mixed-tenant fio job under WRR on VAS, PAS
 *               and SPK3 devices preconditioned to 95% full with 30%
 *               churn, die parity on and a low read-fault rate; again
 *               paired with its fast cells.
 *   fast_sweep  a fidelity=fast capacity-planning grid: 16 traces x
 *               4 seeds x 5 schedulers x 8 chip counts (8-1024) x 16
 *               host queue depths (40960 cells). Its accuracy pair is
 *               an exact re-run of the 320 cells at the evaluation
 *               point (64 chips, depth 32), outside the timed phase.
 *
 * Every input is generated from the benchmark's seed; the program
 * receives only the generated traces and job streams.
 */

#ifndef SPK_PERFBENCH_WORKLOADS_HH
#define SPK_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace perfbench
{

/** Names accepted by --workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** A campaign's generated inputs: its axes and a job builder that
 *  holds the interned traces or parsed fio streams. */
struct CampaignInputs
{
    spk::SweepAxes axes;
    spk::SweepRunner::JobBuilder build;
};

/**
 * Generate every input of @p workload from @p input_seed (trace
 * generation, fio-job parsing, interning); fatal() on an unknown
 * workload name. Expanding the result is a SweepRunner construction.
 */
CampaignInputs generateInputs(const std::string &workload,
                              std::uint64_t input_seed);

/**
 * The exact cells that validate a campaign's fast cells, for a
 * campaign whose grid holds no exact cells of its own (fast_sweep).
 * Returns null when the grid carries its accuracy pair itself.
 * @p pairs receives, for each validation cell, the index of the
 * matching fast cell in @p campaign's expansion order. The returned
 * runner's jobs are copies of @p campaign's jobs at fidelity=exact.
 */
std::unique_ptr<spk::SweepRunner>
buildValidation(const std::string &workload,
                const spk::SweepRunner &campaign,
                std::vector<std::size_t> &pairs);

/** Host I/Os one cell submits (trace records or all stream records). */
std::uint64_t recordsOf(const spk::DeviceJob &job);

} // namespace perfbench

#endif // SPK_PERFBENCH_WORKLOADS_HH
