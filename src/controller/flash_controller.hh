/**
 * @file
 * Per-channel flash controller: builds and executes flash transactions.
 *
 * The controller receives committed memory requests, keeps a pending
 * queue per chip, and whenever a chip's R/B is free coalesces as many
 * compatible pending requests as possible into one transaction
 * (Section 2.2 / Figure 8). Coalescing is a property of the
 * controller, not of the scheduler: schedulers differ only in *which*
 * requests are committed and *when*.
 */

#ifndef SPK_CONTROLLER_FLASH_CONTROLLER_HH
#define SPK_CONTROLLER_FLASH_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "controller/channel.hh"
#include "controller/soft_decoder.hh"
#include "flash/chip.hh"
#include "flash/fault_model.hh"
#include "flash/mem_request.hh"
#include "flash/timing.hh"
#include "flash/transaction.hh"
#include "sim/event_queue.hh"
#include "sim/ring_deque.hh"
#include "sim/types.hh"

namespace spk
{

/** Aggregate controller statistics. */
struct ControllerStats
{
    std::uint64_t transactions = 0;
    std::uint64_t requestsServed = 0;

    /** Read-retry re-issues, total and per ladder step (bin k counts
     *  retries entering step k+1). */
    std::uint64_t readRetries = 0;
    std::array<std::uint64_t, kMaxRetrySteps> readRetriesByStep{};

    /** Reads whose retry ladder was exhausted (pages lost). */
    std::uint64_t uncorrectableReads = 0;

    /** Program operations that failed (host and GC). */
    std::uint64_t programFailures = 0;
};

/**
 * Flash controller for one channel.
 *
 * Transaction launch is deferred by a short decision window (the
 * paper's "transaction type decision time"): when a chip becomes
 * ready with pending work, the launch fires after decisionWindow
 * ticks, letting temporally-close commitments join the same
 * transaction.
 */
class FlashController
{
  public:
    using CompletionFn = std::function<void(MemoryRequest *)>;

    /**
     * @param events shared event queue
     * @param channel the bus this controller drives
     * @param chips chips on this channel, indexed by chip-in-channel
     * @param timing NAND timing parameters
     * @param page_bytes flash page size
     * @param decision_window transaction-decision latency
     * @param on_complete invoked once per finished memory request
     * @param faults fault decider; nullptr or inert = fault-free
     * @param decoder device-shared soft decoder; nullptr (or soft
     *        decode disabled in @p faults) keeps ladder exhaustion
     *        terminal as before
     */
    FlashController(EventQueue &events, Channel &channel,
                    std::vector<FlashChip *> chips,
                    const FlashTiming &timing, std::uint32_t page_bytes,
                    Tick decision_window, CompletionFn on_complete,
                    const FaultModel *faults = nullptr,
                    SoftDecoder *decoder = nullptr);

    /**
     * Commit a memory request to its chip's pending queue.
     * @param front push ahead of existing work (GC priority).
     */
    void commit(MemoryRequest *req, bool front = false);

    /**
     * Pre-size every chip's queues for the NVMHC tag space so the
     * steady state is reached without incremental container growth
     * (repeated device construction in sweeps stays cheap).
     */
    void reserveSteadyState(std::uint32_t queue_depth);

    /** Committed-but-unfinished requests on a chip (by chip offset). */
    std::uint32_t outstanding(std::uint32_t chip_offset) const;

    /**
     * Whose committed-but-unfinished requests a chip holds. PAS-style
     * schedulers use this: a chip whose queue only holds the same
     * I/O's requests is not a conflict (per-chip flash queues,
     * Section 5.1). O(1).
     */
    ChipOwner ownerOf(std::uint32_t chip_offset) const;

    /** Committed-but-unstarted requests on a chip. */
    std::uint32_t pendingCount(std::uint32_t chip_offset) const;

    /** True when no request is pending or in flight anywhere. */
    bool drained() const;

    const ControllerStats &stats() const { return stats_; }

    /** Total transactions grouped by FLP class, summed over chips. */
    std::array<std::uint64_t, 4> txnPerClass() const;

  private:
    struct PerChip
    {
        RingDeque<MemoryRequest *> pending;
        std::uint32_t inFlight = 0;
        bool launchScheduled = false;
        /**
         * Outstanding request count per owning I/O tag, flat-indexed
         * by tagSlot(). Tags recycle within the NVMHC queue depth, so
         * the vector reaches a small steady-state size and stays there.
         */
        std::vector<std::uint32_t> perTag;
        /**
         * The perTag slots that are non-zero, as a count and an XOR:
         * with one slot the XOR names it. Updated request-by-request
         * during transaction completion (inFlight drops
         * transaction-at-once), so mid-completion scheduler queries
         * see each request leave individually.
         */
        std::uint32_t ownerSlots = 0;
        std::uint32_t ownerXor = 0;
        /** Requests of the in-flight transaction (reused storage). */
        std::vector<MemoryRequest *> executing;
    };

    /** Arm the decision-window timer for a chip if useful. */
    void armLaunch(std::uint32_t chip_offset);

    /** Build and execute one transaction on a ready chip. */
    void tryLaunch(std::uint32_t chip_offset);

    /** The in-flight transaction on @p chip_offset completed. */
    void finishTransaction(std::uint32_t chip_offset, Tick end);

    /**
     * Apply the fault model to a completed request. Returns true when
     * the request was re-queued for a read retry or handed to the
     * soft decoder (skip completion); otherwise the request completes,
     * possibly with faultFailed set.
     */
    bool applyFaults(std::uint32_t chip_offset, MemoryRequest *req,
                     Tick end);

    /** Queue @p req on the shared soft decoder (serialized resource). */
    void startSoftDecode(std::uint32_t chip_offset, MemoryRequest *req,
                         Tick end);

    /** Decode finished: decide the verdict and complete the request. */
    void finishSoftDecode(std::uint32_t chip_offset, MemoryRequest *req,
                          Tick done);

    /** Shared completion tail: drop perTag accounting and hand the
     *  request back to its owner. */
    void completeRequest(PerChip &cs, MemoryRequest *req, Tick end);

    EventQueue &events_;
    Channel &channel_;
    std::vector<FlashChip *> chips_;
    FlashTiming timing_;
    std::uint32_t pageBytes_;
    Tick decisionWindow_;
    CompletionFn onComplete_;
    const FaultModel *faults_ = nullptr;
    SoftDecoder *decoder_ = nullptr;
    std::vector<PerChip> state_;
    ControllerStats stats_;
};

} // namespace spk

#endif // SPK_CONTROLLER_FLASH_CONTROLLER_HH
