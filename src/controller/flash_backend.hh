/**
 * @file
 * The device's flash back end: the one flash controller every memory
 * request goes through once it has a physical page.
 *
 * Host, GC and parity requests all reach the chips through this one
 * object (Figures 2-3). It points a request at a PPN, commits it to
 * its chip's pending queue, answers the scheduler's per-chip
 * outstanding queries, issues background (GC / parity) requests ahead
 * of host work (Section 5.9), and builds and executes transactions.
 *
 * Whenever a chip's R/B is free, the controller coalesces as many
 * compatible pending requests as possible into one transaction
 * (Section 2.2 / Figure 8). Coalescing is a property of the
 * controller, not of the scheduler: schedulers differ only in *which*
 * requests are committed and *when*. The back end owns the device's
 * chips and channel buses; per-chip state is indexed by the global
 * chip index, and the only thing chips share is their channel bus,
 * channels[geo.channelOfChip(chip)].
 */

#ifndef SPK_CONTROLLER_FLASH_BACKEND_HH
#define SPK_CONTROLLER_FLASH_BACKEND_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "controller/channel.hh"
#include "controller/soft_decoder.hh"
#include "flash/chip.hh"
#include "flash/fault_model.hh"
#include "flash/geometry.hh"
#include "flash/mem_request.hh"
#include "flash/timing.hh"
#include "sim/event_queue.hh"
#include "sim/ring_deque.hh"
#include "sim/slab.hh"
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
 * Places, commits and executes the memory requests of every owner.
 *
 * Transaction launch is deferred by a short decision window (the
 * paper's "transaction type decision time"): when a chip becomes
 * ready with pending work, the launch fires after decisionWindow
 * ticks, letting temporally-close commitments join the same
 * transaction.
 */
class FlashBackend
{
  public:
    using CompletionFn = std::function<void(MemoryRequest *)>;

    /**
     * @param events shared event queue
     * @param geo device geometry: one chip per global chip index, one
     *        bus per channel, chips striped across channels
     * @param timing NAND timing parameters
     * @param decision_window transaction-decision latency
     * @param arena device-wide MemoryRequest arena (must outlive the
     *        back end and every request it hands out)
     * @param on_complete invoked once per finished memory request
     * @param faults fault decider; nullptr or inert = fault-free
     * @param decoder device-shared soft decoder; nullptr (or soft
     *        decode disabled in @p faults) keeps ladder exhaustion
     *        terminal
     */
    FlashBackend(EventQueue &events, const FlashGeometry &geo,
                 const FlashTiming &timing, Tick decision_window,
                 Slab<MemoryRequest> &arena, CompletionFn on_complete,
                 const FaultModel *faults = nullptr,
                 SoftDecoder *decoder = nullptr);

    const FlashGeometry &geometry() const { return geo_; }

    /** Every chip, by global chip index. */
    const std::vector<std::unique_ptr<FlashChip>> &chips() const
    {
        return chips_;
    }

    /** Every channel bus, by channel index. */
    const std::vector<std::unique_ptr<Channel>> &channels() const
    {
        return channels_;
    }

    /** A fresh request from the device-wide arena. */
    MemoryRequest *acquire() { return arena_.acquire(); }

    /** Scrub @p req and return it to the arena. */
    void release(MemoryRequest *req) { arena_.releaseScrubbed(req); }

    /** Point @p req at physical page @p ppn. */
    void
    place(MemoryRequest &req, Ppn ppn) const
    {
        req.ppn = ppn;
        req.addr = geo_.decompose(ppn);
        req.translated = true;
    }

    /**
     * Commit a placed request to its chip's pending queue.
     * @param front push ahead of the chip's queued work (GC priority).
     */
    void commit(MemoryRequest *req, bool front = false);

    /**
     * Issue a background request: acquire it, tag it with @p owner,
     * @p id and owner-side @p job slot, place it on @p ppn and commit
     * it ahead of host work. Background requests skip composition.
     */
    MemoryRequest *issue(RequestOwner owner, std::uint64_t id,
                         std::uint32_t job, FlashOp op, Ppn ppn);

    /**
     * Pre-size every chip's queues for the NVMHC tag space so the
     * steady state is reached without incremental container growth
     * (repeated device construction in sweeps stays cheap).
     */
    void reserveSteadyState(std::uint32_t queue_depth);

    /** Committed-but-unfinished requests on global chip @p chip. */
    std::uint32_t outstanding(std::uint32_t chip) const;

    /**
     * Whose committed-but-unfinished requests global chip @p chip
     * holds. PAS-style schedulers use this: a chip whose queue only
     * holds the same I/O's requests is not a conflict (per-chip flash
     * queues, Section 5.1). O(1).
     */
    ChipOwner ownerOf(std::uint32_t chip) const;

    /** Committed-but-unstarted requests on global chip @p chip. */
    std::uint32_t pendingCount(std::uint32_t chip) const;

    /** True when no request is pending or in flight anywhere. */
    bool drained() const;

    const ControllerStats &stats() const { return stats_; }

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
    void armLaunch(std::uint32_t chip);

    /** Build and execute one transaction on a ready chip. */
    void tryLaunch(std::uint32_t chip);

    /** The in-flight transaction on @p chip completed. */
    void finishTransaction(std::uint32_t chip, Tick end);

    /**
     * Apply the fault model to a completed request. Returns true when
     * the request was re-queued for a read retry or handed to the
     * soft decoder (skip completion); otherwise the request completes,
     * possibly with faultFailed set.
     */
    bool applyFaults(std::uint32_t chip, MemoryRequest *req, Tick end);

    /** Queue @p req on the shared soft decoder (serialized resource). */
    void startSoftDecode(std::uint32_t chip, MemoryRequest *req,
                         Tick end);

    /** Decode finished: decide the verdict and complete the request. */
    void finishSoftDecode(std::uint32_t chip, MemoryRequest *req,
                          Tick done);

    /** Shared completion tail: drop perTag accounting and hand the
     *  request back to its owner. */
    void completeRequest(PerChip &cs, MemoryRequest *req, Tick end);

    EventQueue &events_;
    FlashGeometry geo_;
    std::vector<std::unique_ptr<FlashChip>> chips_;
    std::vector<std::unique_ptr<Channel>> channels_;
    FlashTiming timing_;
    Tick decisionWindow_;
    Slab<MemoryRequest> &arena_;
    CompletionFn onComplete_;
    const FaultModel *faults_ = nullptr;
    SoftDecoder *decoder_ = nullptr;
    std::vector<PerChip> state_; //!< by global chip
    ControllerStats stats_;
};

} // namespace spk

#endif // SPK_CONTROLLER_FLASH_BACKEND_HH
