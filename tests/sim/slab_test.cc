/**
 * @file
 * Unit tests for the reusable chunked-slab arena (sim/slab.hh), plus
 * a randomized cross-check of the arena-based GC engine against a
 * map-based reference model with the bookkeeping shape of the
 * pre-refactor GcManager (per-request owner map, per-batch state
 * map): same sequencing, no leaks, no stray completions.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "sim/rng.hh"
#include "sim/slab.hh"
#include "ssd/gc_manager.hh"

namespace spk
{
namespace
{

struct Node
{
    std::uint64_t value = 0;
    Node *slabNext = nullptr;
};

TEST(Slab, GrowsByChunkAndRecyclesLifo)
{
    Slab<Node> slab(4);
    EXPECT_EQ(slab.capacity(), 0u);
    EXPECT_EQ(slab.freeCount(), 0u);

    Node *a = slab.acquire();
    EXPECT_EQ(slab.capacity(), 4u);
    EXPECT_EQ(slab.freeCount(), 3u);
    EXPECT_EQ(slab.liveCount(), 1u);
    EXPECT_EQ(a->slabNext, nullptr);

    slab.release(a);
    EXPECT_EQ(slab.freeCount(), 4u);
    // LIFO: the most recently released object comes back first.
    EXPECT_EQ(slab.acquire(), a);
}

TEST(Slab, ReserveReachesRequestedCapacity)
{
    Slab<Node> slab(8);
    slab.reserve(20);
    EXPECT_GE(slab.capacity(), 20u);
    EXPECT_EQ(slab.capacity() % 8, 0u); // whole chunks only
    EXPECT_EQ(slab.freeCount(), slab.capacity());
}

TEST(Slab, AddressesStayStableAcrossGrowth)
{
    Slab<Node> slab(2);
    std::vector<Node *> live;
    for (std::uint64_t i = 0; i < 500; ++i) {
        Node *n = slab.acquire();
        n->value = i;
        live.push_back(n);
    }
    // Growth must never move or scrub previously acquired objects.
    std::set<Node *> distinct(live.begin(), live.end());
    EXPECT_EQ(distinct.size(), live.size());
    for (std::uint64_t i = 0; i < live.size(); ++i)
        EXPECT_EQ(live[i]->value, i);
    EXPECT_EQ(slab.liveCount(), live.size());
}

TEST(Slab, SteadyStateStopsGrowing)
{
    Slab<Node> slab(16);
    std::vector<Node *> live;
    for (int i = 0; i < 100; ++i)
        live.push_back(slab.acquire());
    const std::size_t high_water = slab.capacity();
    // Churn at or below the high-water mark: capacity must not move.
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i) {
        if (!live.empty() &&
            (rng.nextBelow(2) == 0 || live.size() >= 100)) {
            slab.release(live.back());
            live.pop_back();
        } else {
            live.push_back(slab.acquire());
        }
    }
    EXPECT_EQ(slab.capacity(), high_water);
}

struct LinkedElsewhere
{
    LinkedElsewhere *chain = nullptr; //!< the spare link the pool uses
    int payload = 0;
};

TEST(Slab, CustomLinkMemberWorks)
{
    Slab<LinkedElsewhere, &LinkedElsewhere::chain> slab(4);
    LinkedElsewhere *a = slab.acquire();
    LinkedElsewhere *b = slab.acquire();
    a->payload = 1;
    b->payload = 2;
    slab.release(a);
    slab.release(b);
    EXPECT_EQ(slab.acquire(), b); // LIFO through the custom link
    EXPECT_EQ(slab.acquire(), a);
}

/**
 * Map-based reference bookkeeping in the shape of the pre-refactor
 * GcManager: per-batch-slot state tracked in an unordered_map, fed
 * purely from the completion stream the engine produces. Batches are
 * identified at erase time by their migration count — each round
 * launches batches with pairwise-distinct counts, so the match is
 * unambiguous.
 */
struct MapModel
{
    struct SlotState
    {
        std::uint64_t reads = 0;
        std::uint64_t programs = 0;
    };
    std::unordered_map<std::uint32_t, SlotState> live;
    std::set<std::uint64_t> expectedCounts; //!< this round's batches
    std::uint64_t erases = 0;

    void
    observe(FlashOp op, std::uint32_t slot)
    {
        SlotState &s = live[slot]; // created on first sighting
        switch (op) {
          case FlashOp::Read:
            ++s.reads;
            break;
          case FlashOp::Program:
            // A paired program is issued by its read's completion, so
            // programs can never catch up with reads mid-flight.
            ASSERT_LT(s.programs, s.reads);
            ++s.programs;
            break;
          case FlashOp::Erase: {
            // Erase is strictly last and pairs every read.
            ASSERT_EQ(s.reads, s.programs);
            const auto it = expectedCounts.find(s.reads);
            ASSERT_NE(it, expectedCounts.end())
                << "erase for an unknown batch (count " << s.reads
                << ")";
            expectedCounts.erase(it);
            live.erase(slot);
            ++erases;
            break;
          }
        }
    }

    bool idle() const { return live.empty() && expectedCounts.empty(); }
};

TEST(SlabGcCrossCheck, RandomBatchStormMatchesMapModel)
{
    FlashGeometry geo;
    geo.numChannels = 2;
    geo.chipsPerChannel = 2;
    geo.diesPerChip = 2;
    geo.planesPerDie = 2;
    geo.blocksPerPlane = 64;
    geo.pagesPerBlock = 8;

    EventQueue events;
    Slab<MemoryRequest> arena;
    std::unique_ptr<FlashBackend> backend;
    std::unique_ptr<GcManager> gc;

    MapModel model;
    std::uint64_t completions = 0;

    backend = std::make_unique<FlashBackend>(
        events, geo, FlashTiming{}, 0, arena, [&](MemoryRequest *req) {
            ++completions;
            model.observe(req->op, req->job);
            gc->onRequestFinished(req);
        });
    gc = std::make_unique<GcManager>(*backend);

    Rng rng(99);
    std::uint64_t launched = 0;
    std::uint64_t migrations_total = 0;

    for (int round = 0; round < 12; ++round) {
        GcBatchList batches;
        const std::uint64_t n = 1 + rng.nextBelow(4);
        // Distinct migration counts make erase->batch matching
        // unambiguous in the model.
        std::set<std::uint64_t> counts;
        while (counts.size() < n)
            counts.insert(rng.nextBelow(geo.pagesPerBlock));
        for (const std::uint64_t migs : counts) {
            GcBatch &batch = batches.append();
            PhysAddr base{};
            base.chip =
                static_cast<std::uint32_t>(rng.nextBelow(geo.numChips()));
            base.block = static_cast<std::uint32_t>(
                rng.nextBelow(geo.blocksPerPlane / 2));
            batch.victimBasePpn = geo.compose(base);
            for (std::uint64_t m = 0; m < migs; ++m) {
                PhysAddr from = geo.decompose(batch.victimBasePpn);
                from.page = static_cast<std::uint32_t>(m);
                PhysAddr to = from;
                to.block += geo.blocksPerPlane / 2;
                batch.migrations.push_back(GcMigration{
                    m, geo.compose(from), geo.compose(to)});
            }
            migrations_total += migs;
            model.expectedCounts.insert(migs);
        }

        const std::uint64_t before = gc->stats().batches;
        gc->launch(batches);
        EXPECT_EQ(gc->stats().batches, before + n);
        launched += n;

        events.run();
        EXPECT_TRUE(gc->idle());
        EXPECT_TRUE(model.idle());
        EXPECT_EQ(arena.liveCount(), 0u) << "GC requests leaked";
    }

    EXPECT_EQ(gc->stats().batches, launched);
    EXPECT_EQ(gc->stats().migrationReads, migrations_total);
    EXPECT_EQ(gc->stats().migrationPrograms, migrations_total);
    EXPECT_EQ(gc->stats().erases, launched);
    EXPECT_EQ(model.erases, launched);
    EXPECT_EQ(completions, 2 * migrations_total + launched);

    // Steady state: every request recycled; the arena's high-water
    // capacity is bounded by the largest in-flight round.
    EXPECT_EQ(arena.freeCount(), arena.capacity());
}

} // namespace
} // namespace spk
