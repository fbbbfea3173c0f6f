/**
 * @file
 * Per-chip index of uncomposed host memory requests.
 *
 * Both device-level decisions of the paper are per chip: PAS commits
 * to idle chips through per-chip flash queues, and RIOS buckets every
 * queued request by physical chip. The NVMHC therefore keeps one list
 * per chip of the host requests it has not composed yet and hands it
 * to every scheduler through SchedulerContext, split a second time by
 * owning I/O so PAS can read just the requests of the one I/O a chip
 * is working for. The lists are threaded through the requests
 * themselves (MemoryRequest::chipPrev/chipNext and
 * chipTagPrev/chipTagNext), so enqueue, compose and retarget are O(1)
 * and never touch the heap.
 */

#ifndef SPK_SCHED_CHIP_PENDING_HH
#define SPK_SCHED_CHIP_PENDING_HH

#include <cstdint>
#include <vector>

#include "flash/mem_request.hh"
#include "sim/logging.hh"

namespace spk
{

/**
 * One insertion-ordered intrusive list per global chip, and one per
 * (chip, host tag) holding the same requests split by I/O. A request
 * is listed under the chip and tag it had when pushed; whoever changes
 * an indexed request's chip or tag must unlink it first and push it
 * again.
 */
class ChipPendingIndex
{
  public:
    /**
     * @param num_chips global chips of the device
     * @param num_tags host tags in use, [0, num_tags) (queue depth)
     */
    explicit ChipPendingIndex(std::uint32_t num_chips = 0,
                              std::uint32_t num_tags = 0)
        : numChips_(num_chips),
          numTags_(num_tags),
          lists_(std::size_t{num_chips} * (1 + std::size_t{num_tags}))
    {
    }

    /** Append @p req to the back of its chip's and (chip, tag)'s
     *  lists. */
    void
    pushBack(MemoryRequest *req)
    {
        if (req->tag >= numTags_)
            panic("ChipPendingIndex::pushBack tag out of range");
        append<&MemoryRequest::chipPrev, &MemoryRequest::chipNext>(
            lists_[req->addr.chip], req);
        append<&MemoryRequest::chipTagPrev, &MemoryRequest::chipTagNext>(
            lists_[tagIndex(req->addr.chip, req->tag)], req);
    }

    /** Remove @p req from both of its lists. */
    void
    unlink(MemoryRequest *req)
    {
        List &list = lists_[req->addr.chip];
        if (req->chipPrev == nullptr && list.head != req)
            panic("ChipPendingIndex::unlink request not listed");
        remove<&MemoryRequest::chipPrev, &MemoryRequest::chipNext>(list,
                                                                   req);
        remove<&MemoryRequest::chipTagPrev, &MemoryRequest::chipTagNext>(
            lists_[tagIndex(req->addr.chip, req->tag)], req);
    }

    /** Oldest entry on @p chip (walk on with chipNext); or nullptr. */
    MemoryRequest *front(std::uint32_t chip) const
    {
        return lists_[chip].head;
    }

    /** Oldest entry of host I/O @p tag on @p chip (walk on with
     *  chipTagNext); or nullptr. */
    MemoryRequest *
    frontOf(std::uint32_t chip, TagId tag) const
    {
        return lists_[tagIndex(chip, tag)].head;
    }

  private:
    struct List
    {
        MemoryRequest *head = nullptr;
        MemoryRequest *tail = nullptr;
    };

    using Link = MemoryRequest *MemoryRequest::*;

    template <Link Prev, Link Next>
    static void
    append(List &list, MemoryRequest *req)
    {
        req->*Prev = list.tail;
        req->*Next = nullptr;
        (list.tail != nullptr ? list.tail->*Next : list.head) = req;
        list.tail = req;
    }

    template <Link Prev, Link Next>
    static void
    remove(List &list, MemoryRequest *req)
    {
        (req->*Prev != nullptr ? req->*Prev->*Next : list.head) =
            req->*Next;
        (req->*Next != nullptr ? req->*Next->*Prev : list.tail) =
            req->*Prev;
        req->*Prev = nullptr;
        req->*Next = nullptr;
    }

    std::size_t
    tagIndex(std::uint32_t chip, TagId tag) const
    {
        return numChips_ + std::size_t{chip} * numTags_ + tag;
    }

    std::uint32_t numChips_;
    std::uint32_t numTags_;

    /** The chip lists [0, numChips_), then each chip's numTags_ tag
     *  lists: one allocation per device. */
    std::vector<List> lists_;
};

} // namespace spk

#endif // SPK_SCHED_CHIP_PENDING_HH
