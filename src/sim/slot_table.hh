/**
 * @file
 * Flat table of recycled job slots.
 *
 * The GC and parity engines tag every flash request they issue with
 * the slot of the job it belongs to (MemoryRequest::job) and look the
 * job up again when the request completes. Retired slots are reused
 * LIFO, so the table reaches a steady-state size and stays there:
 * there are no per-job heap nodes and no request -> job maps.
 */

#ifndef SPK_SIM_SLOT_TABLE_HH
#define SPK_SIM_SLOT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace spk
{

template <typename T>
class SlotTable
{
  public:
    /** Pre-size for @p n simultaneously live slots. */
    void
    reserve(std::size_t n)
    {
        slots_.reserve(n);
        free_.reserve(n);
    }

    /** A live slot holding T{}: the last retired one, else a new one. */
    std::uint32_t
    acquire()
    {
        std::uint32_t slot;
        if (free_.empty()) {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        } else {
            slot = free_.back();
            free_.pop_back();
            slots_[slot].value = T{};
        }
        slots_[slot].live = true;
        ++live_;
        return slot;
    }

    /** Recycle live slot @p slot. */
    void
    retire(std::uint32_t slot)
    {
        slots_[slot].live = false;
        free_.push_back(slot);
        --live_;
    }

    /**
     * The live slot a completing request names. A completion for a
     * slot never handed out, or already retired, is a simulator bug:
     * panic() naming @p owner.
     */
    T &
    expectLive(std::uint32_t slot, const char *owner)
    {
        if (slot >= slots_.size() || !slots_[slot].live) {
            panic(std::string(owner) +
                  ": completion for an unknown or dead slot");
        }
        return slots_[slot].value;
    }

    T &operator[](std::uint32_t slot) { return slots_[slot].value; }

    /** Slots acquired and not yet retired. */
    std::uint32_t liveCount() const { return live_; }

  private:
    struct Slot
    {
        T value{};
        bool live = false;
    };

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_; //!< retired slot ids (LIFO)
    std::uint32_t live_ = 0;
};

} // namespace spk

#endif // SPK_SIM_SLOT_TABLE_HH
