/**
 * @file
 * Device-level I/O scheduler interface.
 *
 * Schedulers live in the NVMHC and decide which memory request is
 * composed (data movement initiated) and committed next. The five
 * strategies evaluated by the paper -- VAS, PAS, SPK1 (FARO), SPK2
 * (RIOS), SPK3 (RIOS+FARO) -- differ only in this decision; memory
 * request composition cost and flash-level transaction coalescing are
 * common machinery.
 */

#ifndef SPK_SCHED_SCHEDULER_HH
#define SPK_SCHED_SCHEDULER_HH

#include <cstdint>
#include "sim/ring_deque.hh"
#include <memory>
#include <string>

#include "controller/io_request.hh"
#include "flash/geometry.hh"
#include "flash/mem_request.hh"
#include "sched/chip_pending.hh"

namespace spk
{

/**
 * Device-state queries the NVMHC answers for its scheduler.
 *
 * Schedulers poll these on every next() call, per chip, so the
 * implementation must be allocation-free and O(1): the NVMHC backs
 * them with flat per-chip/per-tag counters maintained incrementally
 * at commit/finish time (no closures, no recomputation).
 */
class SchedulerView
{
  public:
    virtual ~SchedulerView() = default;

    /** Committed-but-unfinished request count on a global chip. */
    virtual std::uint32_t outstanding(std::uint32_t chip) const = 0;

    /**
     * Whose committed-but-unfinished requests a global chip holds (a
     * chip whose per-chip queue only holds one's own I/O is not a
     * conflict for a PAS-style scheduler).
     */
    virtual ChipOwner ownerOf(std::uint32_t chip) const = 0;

    /**
     * Hazard gate: false while an older request on the same logical
     * page is still pending, or while an FUA barrier holds the
     * request back (Section 4.4, hazard control).
     */
    virtual bool schedulable(const MemoryRequest &req) const = 0;
};

/**
 * The view the NVMHC exposes to a scheduler when asking for the next
 * memory request to compose.
 */
struct SchedulerContext
{
    const FlashGeometry *geo = nullptr;

    /** Queue entries in arrival order (oldest first). */
    const RingDeque<IoRequest *> *queue = nullptr;

    /**
     * Uncomposed host requests per chip, in arrival order (owned and
     * maintained by the NVMHC; see ChipPendingIndex).
     */
    const ChipPendingIndex *pending = nullptr;

    /** Device-state queries (owned by the NVMHC). */
    const SchedulerView *view = nullptr;
};

/**
 * Abstract device-level I/O scheduler.
 *
 * next() returns the memory request the NVMHC should compose now, or
 * nullptr when the strategy has nothing eligible (e.g. VAS blocked on
 * a chip conflict). The NVMHC re-polls after every completion and
 * enqueue. Everything a strategy reads -- queue, per-chip index,
 * device state -- comes through the context.
 */
class IoScheduler
{
  public:
    virtual ~IoScheduler() = default;

    /** Short name used in reports ("VAS", "SPK3", ...). */
    virtual const char *name() const = 0;

    /** Pick the next memory request to compose, or nullptr. */
    virtual MemoryRequest *next(SchedulerContext &ctx) = 0;

    /**
     * Whether the FTL should deliver readdressing callbacks: the NVMHC
     * then retargets uncomposed reads of migrated pages (Section 4.3),
     * moving each to the back of its new chip's pending list.
     */
    virtual bool wantsReaddressing() const { return false; }
};

/** Scheduler strategy selector used by configs and factories. */
enum class SchedulerKind : std::uint8_t { VAS, PAS, SPK1, SPK2, SPK3 };

/** Printable name of a scheduler kind. */
const char *schedulerKindName(SchedulerKind kind);

/** Parse a scheduler name ("VAS", "spk3", ...); fatal() on unknown. */
SchedulerKind parseSchedulerKind(const std::string &name);

/**
 * Factory: build a scheduler strategy.
 * @param faro_window over-commitment window per chip for SPK1/SPK3.
 */
std::unique_ptr<IoScheduler> makeScheduler(SchedulerKind kind,
                                           std::uint32_t faro_window);

} // namespace spk

#endif // SPK_SCHED_SCHEDULER_HH
