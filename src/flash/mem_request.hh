/**
 * @file
 * Flash memory request: the atomic unit of flash I/O.
 *
 * The NVMHC splits each host I/O request into page-sized memory
 * requests (Section 2.1 of the paper). A memory request carries both
 * its logical page and, once the FTL has translated it, its physical
 * placement.
 */

#ifndef SPK_FLASH_MEM_REQUEST_HH
#define SPK_FLASH_MEM_REQUEST_HH

#include <cstdint>

#include "flash/geometry.hh"
#include "sim/types.hh"

namespace spk
{

/** Flash operation kinds a transaction can execute. */
enum class FlashOp : std::uint8_t { Read, Program, Erase };

/** Which subsystem issued a memory request (and gets its completion). */
enum class RequestOwner : std::uint8_t { Host, Gc, Parity };

/**
 * Whose committed-but-unfinished work a flash chip holds: nobody, the
 * requests of one host I/O alone, or anything else (several I/Os, or
 * any GC / parity work). A PAS-style scheduler commits a host request
 * only to a chip that is idle or holds the request's own I/O alone.
 */
struct ChipOwner
{
    enum Kind : std::uint8_t { Idle, OneTag, Other };

    Kind kind = Idle;
    TagId tag = kInvalidTag; //!< the owning host I/O when OneTag

    bool operator==(const ChipOwner &) const = default;
};

/** Printable name of a flash operation. */
const char *flashOpName(FlashOp op);

/**
 * One page-sized flash memory request.
 *
 * Life cycle ticks are recorded for latency and idleness accounting:
 * committed (handed to a flash controller), started (entered an
 * executing transaction), finished (transaction completed).
 */
struct MemoryRequest
{
    std::uint64_t id = 0;       //!< unique; host/GC/parity id ranges
    TagId tag = kInvalidTag;    //!< owning host I/O; kInvalidTag if none
    std::uint32_t idxInIo = 0;  //!< page index within the owning I/O
    Lpn lpn = kInvalidPage;
    Ppn ppn = kInvalidPage;
    PhysAddr addr;              //!< valid once translated

    /** Owner-side job slot: the GC engine's batch or the parity
     *  engine's job; unused for host requests. */
    std::uint32_t job = 0;

    FlashOp op = FlashOp::Read;
    RequestOwner owner = RequestOwner::Host;

    /** Read-retry ladder step; 0 = first sense (FaultModel). */
    std::uint8_t retryAttempt = 0;

    /** Operation failed permanently (uncorrectable read / failed
     *  program); the owner decides remap vs error completion. */
    bool faultFailed = false;

    bool translated = false;    //!< addr/ppn fields are valid
    bool composing = false;     //!< composition in flight this instant
    bool composed = false;      //!< NVMHC initiated data movement
    bool stale = false;         //!< target migrated; re-execute after

    Tick committedAt = 0;
    Tick startedAt = 0;
    Tick finishedAt = 0;

    /** Intrusive link for the NVMHC's per-LPN hazard chain. */
    MemoryRequest *lpnNext = nullptr;

    /** Intrusive links for the NVMHC's per-chip pending index: the
     *  chip's list and the chip's list for this request's I/O. */
    MemoryRequest *chipPrev = nullptr;
    MemoryRequest *chipNext = nullptr;
    MemoryRequest *chipTagPrev = nullptr;
    MemoryRequest *chipTagNext = nullptr;

    /** Intrusive free-list link while recycled in a Slab arena. */
    MemoryRequest *slabNext = nullptr;

    /**
     * Destination PPN of the paired migration program (GC migration
     * reads only). Replaces the old read -> program unordered_map.
     */
    Ppn gcPairPpn = kInvalidPage;
};

// Every queued page of every device lives in one of these: the small
// fields share one 8-byte word, and the chip is stored once (in addr),
// so a request is 144 B on LP64 (a larger request raises a full
// device's peak RSS).
static_assert(sizeof(MemoryRequest) <= 144,
              "MemoryRequest grew: repack fields before adding any");

} // namespace spk

#endif // SPK_FLASH_MEM_REQUEST_HH
