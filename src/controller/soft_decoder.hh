/**
 * @file
 * Shared soft-decision (LDPC) decoder resource.
 *
 * Reads that exhaust the retry ladder fall back to soft decode: the
 * raw analog sense data streams to one decoder shared by the whole
 * device, whose occupancy serializes concurrent decodes. The cost of
 * one decode scales with transfer size and with the retry depth the
 * read burned first (FaultModel::softDecodeCost); contention shows up
 * as stall time and shapes the fault sweep's p99 before die-parity
 * reconstruction ever kicks in.
 *
 * The struct is plain state — the flash controller drives it — so a
 * sharded DeviceArray run stays bit-identical to a sequential one
 * (each device owns its decoder and its own event queue).
 */

#ifndef SPK_CONTROLLER_SOFT_DECODER_HH
#define SPK_CONTROLLER_SOFT_DECODER_HH

#include <cstdint>

#include "sim/types.hh"

namespace spk
{

/** Counters exported by the shared decoder. */
struct SoftDecoderStats
{
    std::uint64_t invocations = 0; //!< decodes started
    std::uint64_t failures = 0;    //!< decodes that still failed
    Tick busyTime = 0;             //!< total decoder occupancy
    Tick stallTime = 0;            //!< total wait for a busy decoder
};

/** One decoder shared by every channel controller of a device. */
struct SoftDecoder
{
    Tick busyUntil = 0;
    SoftDecoderStats stats;
};

} // namespace spk

#endif // SPK_CONTROLLER_SOFT_DECODER_HH
