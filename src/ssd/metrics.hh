/**
 * @file
 * Device-level metric snapshot.
 *
 * Collects every quantity the paper's evaluation reports: bandwidth
 * and IOPS (Fig. 10a/b), device-level latency (10c), queue stall time
 * (10d), inter-/intra-chip idleness (Fig. 11), execution-time
 * breakdown (Fig. 13), FLP breakdown (Fig. 14), chip utilization
 * (Fig. 15) and flash transaction counts (Fig. 16).
 */

#ifndef SPK_SSD_METRICS_HH
#define SPK_SSD_METRICS_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "flash/fault_model.hh"
#include "sim/field_table.hh"
#include "sim/types.hh"

namespace spk
{

/**
 * Per-stream slice of a run's metrics (multi-queue host front-end).
 * Empty for single implicit-stream runs; one entry per configured
 * HostStreamConfig otherwise.
 */
struct StreamMetrics
{
    std::string name;

    std::uint64_t iosSubmitted = 0;
    std::uint64_t iosCompleted = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    Tick queueStallTime = 0;

    double bandwidthKBps = 0.0;
    double iops = 0.0;
    double avgLatencyNs = 0.0;
    Tick p99LatencyNs = 0;
    Tick maxLatencyNs = 0;

    bool operator==(const StreamMetrics &) const = default;

    /** Field table (sim/field_table.hh): CSV column and merge rule
     *  of every member, in order. */
    template <typename F>
    static constexpr void forEachField(F &&f)
    {
        using S = StreamMetrics;
        using enum Merge;
        visitFields(f,
            metric<Key>(&S::name, "stream"),
            metric<Sum>(&S::iosSubmitted, "ios_submitted"),
            metric<Sum>(&S::iosCompleted, "ios"),
            metric<Sum>(&S::bytesRead, "bytes_read"),
            metric<Sum>(&S::bytesWritten, "bytes_written"),
            metric<Sum>(&S::queueStallTime, "queue_stall_ns"),
            metric<Sum>(&S::bandwidthKBps, "bandwidth_kbps"),
            metric<Sum>(&S::iops, "iops"),
            metric<IoWeightedMean>(&S::avgLatencyNs, "avg_latency_ns"),
            metric<IoWeightedMean>(&S::p99LatencyNs, "p99_ns"),
            metric<Max>(&S::maxLatencyNs, "max_ns"));
    }
};

static_assert(fieldTableCovers<StreamMetrics>());

/** Everything measured over one run. */
struct MetricsSnapshot
{
    std::string scheduler;

    Tick makespan = 0;
    Tick deviceActiveTime = 0;

    std::uint64_t iosCompleted = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;

    double bandwidthKBps = 0.0;
    double iops = 0.0;
    double avgLatencyNs = 0.0;
    Tick p50LatencyNs = 0;
    Tick p95LatencyNs = 0;
    Tick p99LatencyNs = 0;
    Tick maxLatencyNs = 0;
    double avgReadLatencyNs = 0.0;
    double avgWriteLatencyNs = 0.0;
    Tick queueStallTime = 0;

    /** Mean over chips of R/B-busy-time / makespan, percent. */
    double chipUtilizationPct = 0.0;

    /**
     * Flash-level utilization: plane-active time over total
     * plane-time capacity, percent (Figure 15's y-axis). A chip
     * serving single-plane transactions is R/B-busy but uses 1/8 of
     * its flash internals.
     */
    double flashLevelUtilizationPct = 0.0;

    /** Chips idle while the device had outstanding work, percent. */
    double interChipIdlenessPct = 0.0;

    /** Die/plane capacity idle inside busy chips, percent. */
    double intraChipIdlenessPct = 0.0;

    /** Memory-request share served at each FLP level, percent.
     *  Order: NON-PAL, PAL1, PAL2, PAL3. */
    std::array<double, 4> flpPct{};

    std::uint64_t transactions = 0;
    std::uint64_t requestsServed = 0;

    /** Execution-time breakdown, percent of chip-time capacity. */
    double execBusPct = 0.0;
    double execContentionPct = 0.0;
    double execCellPct = 0.0;
    double execIdlePct = 0.0;

    std::uint64_t staleRetries = 0;
    std::uint64_t gcBatches = 0;
    std::uint64_t pagesMigrated = 0;

    // --- Reliability counters (fault injection; all zero when the
    // --- fault model is inert).

    /** Read-retry re-issues, total and per ladder step (bin k counts
     *  retries entering step k+1). */
    std::uint64_t readRetries = 0;
    std::array<std::uint64_t, kMaxRetrySteps> readRetriesByStep{};

    /** Pages lost to an exhausted retry ladder or a dead die. */
    std::uint64_t uncorrectableReads = 0;

    /** Program operations that failed on flash (host and GC). */
    std::uint64_t programFailures = 0;

    /** Pages re-homed to a fresh frontier page after a program fail. */
    std::uint64_t programRemaps = 0;

    /** Erase pulses that failed and retired their block. */
    std::uint64_t eraseFailures = 0;

    /** Blocks retired as Bad, by cause. */
    std::uint64_t blocksRetiredWear = 0;
    std::uint64_t blocksRetiredProgram = 0;
    std::uint64_t blocksRetiredErase = 0;

    /** Host I/Os that completed with at least one failed page. */
    std::uint64_t failedIos = 0;

    /** Dies taken offline by the configured die failure. */
    std::uint64_t degradedDies = 0;

    // --- Die-level parity, rebuild and soft-decode counters (all
    // --- zero when parity and soft decode are off).

    /** Parity-page programs (stripe closes and RMW updates). */
    std::uint64_t parityUpdates = 0;

    /** Stripes closed with every data member written. */
    std::uint64_t parityFullStripeCloses = 0;

    /** Stripes closed by flush-window expiry or a die failure. */
    std::uint64_t parityPartialCloses = 0;

    /** Parity read-modify-write read legs (late stripe members). */
    std::uint64_t parityRmwReads = 0;

    /** Failed host reads served via stripe reconstruction. */
    std::uint64_t reconstructedReads = 0;

    /** Survivor reads issued by degraded-read reconstruction. */
    std::uint64_t reconstructionReads = 0;

    /** Valid dead-die pages found when the rebuild started. An upper
     *  bound on rebuildPagesRebuilt: host overwrites and re-homed
     *  in-flight programs can evacuate pages before the cursor
     *  arrives. */
    std::uint64_t rebuildPagesTotal = 0;

    /** Pages the rebuild re-materialized onto spare capacity. */
    std::uint64_t rebuildPagesRebuilt = 0;

    /** Soft-decode (LDPC) invocations after ladder exhaustion. */
    std::uint64_t softDecodeInvocations = 0;

    /** Soft decodes that still could not correct the page. */
    std::uint64_t softDecodeFailures = 0;

    /** Time the shared soft decoder spent decoding. */
    Tick softDecodeBusyTime = 0;

    /** Time reads waited for the busy soft decoder. */
    Tick softDecodeStallTime = 0;

    /** GC migration reads that came back uncorrectable. */
    std::uint64_t gcReadFailures = 0;

    /** Per-stream slices (multi-queue runs; empty otherwise). */
    std::vector<StreamMetrics> streams;

    /** One-line key=value summary. */
    std::string summary() const;

    /** Exact (bit-level) comparison; used by determinism tests. */
    bool operator==(const MetricsSnapshot &) const = default;

    /** Field table (sim/field_table.hh): CSV columns and merge rule
     *  of every member, in order. The cache payload, the fleet merge
     *  and the CSV follow it: a new metric is one new row. */
    template <typename F>
    static constexpr void forEachField(F &&f)
    {
        using M = MetricsSnapshot;
        using enum Merge;
        visitFields(f,
            metric<SameOrMixed>(&M::scheduler),
            metric<Max>(&M::makespan, "makespan_ns"),
            metric<Sum>(&M::deviceActiveTime, "device_active_ns"),
            metric<Sum>(&M::iosCompleted, "ios"),
            metric<Sum>(&M::bytesRead, "bytes_read"),
            metric<Sum>(&M::bytesWritten, "bytes_written"),
            metric<Sum>(&M::bandwidthKBps, "bandwidth_kbps"),
            metric<Sum>(&M::iops, "iops"),
            metric<IoWeightedMean>(&M::avgLatencyNs, "avg_latency_ns"),
            metric<IoWeightedMean>(&M::p50LatencyNs, "p50_ns"),
            metric<IoWeightedMean>(&M::p95LatencyNs, "p95_ns"),
            metric<IoWeightedMean>(&M::p99LatencyNs, "p99_ns"),
            metric<Max>(&M::maxLatencyNs, "max_ns"),
            metric<ReadShareWeightedMean>(&M::avgReadLatencyNs,
                                          "avg_read_ns"),
            metric<WriteShareWeightedMean>(&M::avgWriteLatencyNs,
                                           "avg_write_ns"),
            metric<Sum>(&M::queueStallTime, "queue_stall_ns"),
            metric<MakespanWeightedMean>(&M::chipUtilizationPct,
                                         "chip_util_pct"),
            metric<MakespanWeightedMean>(&M::flashLevelUtilizationPct,
                                         "flash_util_pct"),
            metric<MakespanWeightedMean>(&M::interChipIdlenessPct,
                                         "inter_idle_pct"),
            metric<MakespanWeightedMean>(&M::intraChipIdlenessPct,
                                         "intra_idle_pct"),
            metric<RequestsWeightedMean>(&M::flpPct, "flp_non",
                                         "flp_pal1", "flp_pal2",
                                         "flp_pal3"),
            metric<Sum>(&M::transactions, "transactions"),
            metric<Sum>(&M::requestsServed, "requests"),
            metric<MakespanWeightedMean>(&M::execBusPct, "exec_bus_pct"),
            metric<MakespanWeightedMean>(&M::execContentionPct,
                                         "exec_cont_pct"),
            metric<MakespanWeightedMean>(&M::execCellPct,
                                         "exec_cell_pct"),
            metric<MakespanWeightedMean>(&M::execIdlePct,
                                         "exec_idle_pct"),
            metric<Sum>(&M::staleRetries, "stale_retries"),
            metric<Sum>(&M::gcBatches, "gc_batches"),
            metric<Sum>(&M::pagesMigrated, "pages_migrated"),
            metric<Sum>(&M::readRetries, "read_retries"),
            metric<Sum>(&M::readRetriesByStep),
            metric<Sum>(&M::uncorrectableReads, "uncorrectable_reads"),
            metric<Sum>(&M::programFailures, "program_failures"),
            metric<Sum>(&M::programRemaps, "program_remaps"),
            metric<Sum>(&M::eraseFailures, "erase_failures"),
            metric<Sum>(&M::blocksRetiredWear, "blocks_retired_wear"),
            metric<Sum>(&M::blocksRetiredProgram,
                        "blocks_retired_program"),
            metric<Sum>(&M::blocksRetiredErase, "blocks_retired_erase"),
            metric<Sum>(&M::failedIos, "failed_ios"),
            metric<Sum>(&M::degradedDies, "degraded_dies"),
            metric<Sum>(&M::parityUpdates, "parity_updates"),
            metric<Sum>(&M::parityFullStripeCloses, "parity_full_closes"),
            metric<Sum>(&M::parityPartialCloses, "parity_partial_closes"),
            metric<Sum>(&M::parityRmwReads, "parity_rmw_reads"),
            metric<Sum>(&M::reconstructedReads, "reconstructed_reads"),
            metric<Sum>(&M::reconstructionReads, "reconstruction_reads"),
            metric<Sum>(&M::rebuildPagesTotal, "rebuild_pages_total"),
            metric<Sum>(&M::rebuildPagesRebuilt, "rebuild_pages_rebuilt"),
            metric<Sum>(&M::softDecodeInvocations,
                        "soft_decode_invocations"),
            metric<Sum>(&M::softDecodeFailures, "soft_decode_failures"),
            metric<Sum>(&M::softDecodeBusyTime, "soft_decode_busy_ns"),
            metric<Sum>(&M::softDecodeStallTime, "soft_decode_stall_ns"),
            metric<Sum>(&M::gcReadFailures, "gc_read_failures"),
            metric<ByStreamName>(&M::streams));
    }
};

static_assert(fieldTableCovers<MetricsSnapshot>());

std::ostream &operator<<(std::ostream &os, const MetricsSnapshot &m);

} // namespace spk

#endif // SPK_SSD_METRICS_HH
