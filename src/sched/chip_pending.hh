/**
 * @file
 * Per-chip index of uncomposed host memory requests.
 *
 * Both device-level decisions of the paper are per chip: PAS commits
 * to idle chips through per-chip flash queues, and RIOS buckets every
 * queued request by physical chip. The NVMHC therefore keeps one list
 * per chip of the host requests it has not composed yet and hands it
 * to every scheduler through SchedulerContext. The lists are threaded
 * through the requests themselves (MemoryRequest::chipPrev/chipNext),
 * so enqueue, compose and retarget are O(1) and never touch the heap.
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
 * One insertion-ordered intrusive list per global chip. A request is
 * listed under the chip it had when pushed; whoever changes an
 * indexed request's chip must unlink it first and push it again.
 */
class ChipPendingIndex
{
  public:
    explicit ChipPendingIndex(std::uint32_t num_chips = 0)
        : lists_(num_chips)
    {
    }

    /** Append @p req to the back of its chip's list. */
    void
    pushBack(MemoryRequest *req)
    {
        List &list = lists_[req->chip];
        req->chipPrev = list.tail;
        req->chipNext = nullptr;
        (list.tail != nullptr ? list.tail->chipNext : list.head) = req;
        list.tail = req;
    }

    /** Remove @p req from its chip's list. */
    void
    unlink(MemoryRequest *req)
    {
        List &list = lists_[req->chip];
        if (req->chipPrev == nullptr && list.head != req)
            panic("ChipPendingIndex::unlink request not listed");
        (req->chipPrev != nullptr ? req->chipPrev->chipNext
                                  : list.head) = req->chipNext;
        (req->chipNext != nullptr ? req->chipNext->chipPrev
                                  : list.tail) = req->chipPrev;
        req->chipPrev = nullptr;
        req->chipNext = nullptr;
    }

    /** Oldest entry on @p chip (walk on with chipNext); or nullptr. */
    MemoryRequest *front(std::uint32_t chip) const
    {
        return lists_[chip].head;
    }

  private:
    struct List
    {
        MemoryRequest *head = nullptr;
        MemoryRequest *tail = nullptr;
    };

    std::vector<List> lists_;
};

} // namespace spk

#endif // SPK_SCHED_CHIP_PENDING_HH
