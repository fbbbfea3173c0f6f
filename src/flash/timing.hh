/**
 * @file
 * NAND flash timing parameters (ONFI 2.x, MLC).
 *
 * Values default to the paper's evaluation configuration: 20 us reads,
 * 200-2200 us programs depending on the page address (MLC fast/slow
 * page pairing), ONFI 2.x synchronous bus.
 */

#ifndef SPK_FLASH_TIMING_HH
#define SPK_FLASH_TIMING_HH

#include <cstdint>

#include "sim/field_table.hh"
#include "sim/types.hh"

namespace spk
{

/**
 * Timing model for one NAND package / channel pair.
 *
 * Program latency varies per page address: MLC pairs a fast (LSB) and
 * a slow (MSB) page on the same wordline. We model the common layout
 * where even page indices are fast pages.
 */
struct FlashTiming
{
    /** Page read (cell sense) latency, tR. */
    Tick readLatency = 20 * kMicrosecond;

    /** Fast (LSB) page program latency. */
    Tick programFast = 200 * kMicrosecond;

    /** Slow (MSB) page program latency. */
    Tick programSlow = 2200 * kMicrosecond;

    /** Block erase latency, tBERS. */
    Tick eraseLatency = 1500 * kMicrosecond;

    /** Channel bus bandwidth (ONFI 2.x sync mode ~166 MB/s). */
    std::uint64_t busBytesPerSec = 166'000'000;

    /** Command + address cycles per memory request. */
    Tick commandOverhead = 200 * kNanosecond;

    /** Program latency for a given page index within its block. */
    Tick
    programLatency(std::uint32_t page_in_block) const
    {
        return (page_in_block % 2 == 0) ? programFast : programSlow;
    }

    /** Time to move @p bytes over the channel bus. */
    Tick
    transferTime(std::uint64_t bytes) const
    {
        // Round up to whole nanoseconds.
        return (bytes * kSecond + busBytesPerSec - 1) / busBytesPerSec;
    }

    /** Field table (sim/field_table.hh): every member, in order. */
    template <typename F>
    static constexpr void forEachField(F &&f)
    {
        using T = FlashTiming;
        visitFields(f, &T::readLatency, &T::programFast, &T::programSlow,
                    &T::eraseLatency, &T::busBytesPerSec,
                    &T::commandOverhead);
    }
};

static_assert(fieldTableCovers<FlashTiming>());

} // namespace spk

#endif // SPK_FLASH_TIMING_HH
