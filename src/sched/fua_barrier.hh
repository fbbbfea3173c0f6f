/**
 * @file
 * O(1) FUA barrier over the NVMHC device queue.
 *
 * An FUA I/O is served strictly in order: nothing younger starts
 * before it finishes, and it waits for everything older (Section 4.4,
 * hazard control). Answering that by walking the device queue costs
 * O(queue depth) per hazard check, and the schedulers check every
 * candidate request. The barrier instead stamps each queued I/O with
 * its enqueue sequence number and keeps the queued FUA I/Os in a
 * FIFO: only the oldest one matters, so a check is two comparisons.
 */

#ifndef SPK_SCHED_FUA_BARRIER_HH
#define SPK_SCHED_FUA_BARRIER_HH

#include <cstdint>

#include "controller/io_request.hh"
#include "sim/logging.hh"
#include "sim/ring_deque.hh"

namespace spk
{

/**
 * Queued FUA I/Os, oldest first. The owner reports every I/O joining
 * the back of the device queue and every I/O leaving it; FUA I/Os
 * must leave in arrival order, which the barrier itself guarantees
 * (a younger FUA I/O cannot start before an older one finishes). The
 * FIFO grows to its high-water mark on the first FUA I/Os, so a
 * device that never sees one never allocates it.
 */
class FuaBarrier
{
  public:
    /** @p io joined the back of the device queue. */
    void
    enqueued(IoRequest &io)
    {
        io.seq = nextSeq_++;
        if (io.fua)
            fua_.push_back(&io);
    }

    /** @p io left the device queue. */
    void
    retired(const IoRequest &io)
    {
        if (!io.fua)
            return;
        if (fua_.empty() || fua_.front() != &io)
            panic("FuaBarrier: FUA I/O retired out of arrival order");
        fua_.pop_front();
    }

    /**
     * May requests of the queued @p io start? @p head is the oldest
     * queued I/O.
     */
    bool
    admits(const IoRequest &io, const IoRequest *head) const
    {
        if (fua_.empty())
            return true;
        if (fua_.front()->seq < io.seq)
            return false; // an older FUA I/O is still incomplete
        return !io.fua || &io == head;
    }

  private:
    RingDeque<const IoRequest *> fua_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace spk

#endif // SPK_SCHED_FUA_BARRIER_HH
