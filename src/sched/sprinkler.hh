/**
 * @file
 * Sprinkler: resource-driven scheduling (RIOS) with FLP-aware request
 * over-commitment (FARO) -- the paper's contribution (Section 4).
 *
 * RIOS buckets every queued memory request by physical chip (the
 * NVMHC's per-chip pending index) and composes/commits per chip,
 * traversing chips in channel-stripe order (same chip offset across
 * channels first), fully relaxing the parallelism dependency on I/O
 * arrival order.
 *
 * FARO over-commits multiple requests per chip, choosing the set with
 * the highest overlap depth (requests coalescable into one multi-die /
 * multi-plane transaction) and breaking ties by connectivity (requests
 * of the same I/O), so flash controllers can build single high-FLP
 * transactions.
 *
 * The three evaluated variants map to constructor flags:
 *   SPK1 = FARO only, SPK2 = RIOS only, SPK3 = RIOS + FARO.
 *
 * All decision state lives in flat per-chip / per-tag vectors reused
 * across next() calls; the inner loops are allocation-free once the
 * scratch buffers reach their steady-state sizes.
 */

#ifndef SPK_SCHED_SPRINKLER_HH
#define SPK_SCHED_SPRINKLER_HH

#include <cstdint>
#include <vector>

#include "sched/scheduler.hh"

namespace spk
{

/** Sprinkler scheduler; see file comment for the RIOS/FARO split. */
class SprinklerScheduler : public IoScheduler
{
  public:
    /**
     * @param rios enable resource-driven chip traversal
     * @param faro enable over-commitment with depth/connectivity
     *             priority
     * @param window max committed-but-unfinished requests per chip
     *               when over-committing (FARO)
     */
    SprinklerScheduler(bool rios, bool faro, std::uint32_t window);

    const char *name() const override;

    MemoryRequest *next(SchedulerContext &ctx) override;

    /** Sprinkler registers the readdressing callback (Section 4.3). */
    bool wantsReaddressing() const override { return true; }

    bool riosEnabled() const { return rios_; }
    bool faroEnabled() const { return faro_; }
    std::uint32_t window() const { return window_; }

  private:
    /**
     * Largest coalescable set among @p candidates for @p chip (the
     * highest-overlap-depth group), written into @p out. Ties between
     * the read-seeded and write-seeded candidate sets break toward
     * higher connectivity, then toward the older seed.
     */
    void bestSetFrom(const std::vector<MemoryRequest *> &candidates,
                     std::uint32_t chip,
                     std::vector<MemoryRequest *> &out) const;

    /** bestSetFrom over the schedulable pending requests of a chip. */
    void bestSet(SchedulerContext &ctx, std::uint32_t chip,
                 std::vector<MemoryRequest *> &out) const;

    /** Oldest schedulable pending request on a chip. */
    MemoryRequest *oldest(SchedulerContext &ctx, std::uint32_t chip) const;

    /** RIOS traversal step; returns a request or nullptr. */
    MemoryRequest *nextRios(SchedulerContext &ctx);

    /** SPK1: depth-first chip selection without traversal. */
    MemoryRequest *nextFaroOnly(SchedulerContext &ctx);

    /** Adopt @p set: head is returned, the rest becomes the batch. */
    MemoryRequest *takeSet(const std::vector<MemoryRequest *> &set);

    bool rios_;
    bool faro_;
    std::uint32_t window_;

    /** RIOS chip traversal cursor. */
    std::uint64_t cursor_ = 0;

    /** FARO batch being committed; batchPos_ is the next entry. */
    std::vector<MemoryRequest *> batch_;
    std::size_t batchPos_ = 0;

    // Scratch buffers reused across next() calls (mutable: decision
    // helpers are const). Their contents never outlive one call.
    mutable std::vector<MemoryRequest *> candScratch_;
    mutable std::vector<MemoryRequest *> readSet_;
    mutable std::vector<MemoryRequest *> writeSet_;
    mutable std::vector<std::uint32_t> tagCount_;   //!< by tag slot
    mutable std::vector<std::uint32_t> touchedTags_;
    std::vector<MemoryRequest *> setScratch_;
    std::vector<MemoryRequest *> bestScratch_;
    /** SPK1 per-chip candidate lists + touched-chip index. */
    std::vector<std::vector<MemoryRequest *>> faroPerChip_;
    std::vector<std::uint32_t> faroTouched_;
};

} // namespace spk

#endif // SPK_SCHED_SPRINKLER_HH
