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
    FlashOp op = FlashOp::Read;
    Lpn lpn = kInvalidPage;
    Ppn ppn = kInvalidPage;
    PhysAddr addr;              //!< valid once translated
    std::uint32_t chip = 0;     //!< global chip index (from addr)
    bool translated = false;    //!< addr/ppn fields are valid
    bool composing = false;     //!< composition in flight this instant
    bool composed = false;      //!< NVMHC initiated data movement
    bool stale = false;         //!< target migrated; re-execute after
    RequestOwner owner = RequestOwner::Host;

    /** Owner-side job slot: the GC engine's batch or the parity
     *  engine's job; unused for host requests. */
    std::uint32_t job = 0;

    /** Read-retry ladder step; 0 = first sense (FaultModel). */
    std::uint8_t retryAttempt = 0;

    /** Operation failed permanently (uncorrectable read / failed
     *  program); the owner decides remap vs error completion. */
    bool faultFailed = false;

    Tick committedAt = 0;
    Tick startedAt = 0;
    Tick finishedAt = 0;

    /** Intrusive link for the NVMHC's per-LPN hazard chain. */
    MemoryRequest *lpnNext = nullptr;

    /** Intrusive links for the NVMHC's per-chip pending index. */
    MemoryRequest *chipPrev = nullptr;
    MemoryRequest *chipNext = nullptr;

    /** Intrusive free-list link while recycled in a Slab arena. */
    MemoryRequest *slabNext = nullptr;

    /**
     * Destination PPN of the paired migration program (GC migration
     * reads only). Replaces the old read -> program unordered_map.
     */
    Ppn gcPairPpn = kInvalidPage;
};

} // namespace spk

#endif // SPK_FLASH_MEM_REQUEST_HH
