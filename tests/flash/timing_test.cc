/**
 * @file
 * Property tests for transaction timing plans across the full
 * (operation x die-count x plane-count) grid: monotonicity,
 * conservation and FLP-benefit invariants.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "flash/transaction.hh"

namespace spk
{
namespace
{

struct PlanCase
{
    FlashOp op;
    std::uint32_t dies;
    std::uint32_t planesPerDie;
};

class PlanSweep : public ::testing::TestWithParam<PlanCase>
{
  protected:
    /** Build a valid transaction touching dies x planes slots. */
    std::vector<std::unique_ptr<MemoryRequest>>
    build(FlashTransaction &txn, const PlanCase &pc)
    {
        std::vector<std::unique_ptr<MemoryRequest>> pool;
        for (std::uint32_t d = 0; d < pc.dies; ++d) {
            for (std::uint32_t p = 0; p < pc.planesPerDie; ++p) {
                auto req = std::make_unique<MemoryRequest>();
                req->op = pc.op;
                req->addr.chip = 0;
                req->addr.die = d;
                req->addr.plane = p;
                req->addr.block = p;
                req->addr.page = d; // same page within each die
                req->translated = true;
                txn.add(req.get());
                pool.push_back(std::move(req));
            }
        }
        return pool;
    }

    FlashTiming timing_{};
    static constexpr std::uint32_t kPageBytes = 2048;
};

TEST_P(PlanSweep, ValidAndClassified)
{
    const auto pc = GetParam();
    FlashTransaction txn(pc.op, 0);
    auto pool = build(txn, pc);
    ASSERT_TRUE(txn.valid());
    EXPECT_EQ(txn.dieCount(), pc.dies);

    const FlpClass cls = txn.classify();
    if (pc.dies > 1 && pc.planesPerDie > 1)
        EXPECT_EQ(cls, FlpClass::Pal3);
    else if (pc.dies > 1)
        EXPECT_EQ(cls, FlpClass::Pal2);
    else if (pc.planesPerDie > 1)
        EXPECT_EQ(cls, FlpClass::Pal1);
    else
        EXPECT_EQ(cls, FlpClass::NonPal);
}

TEST_P(PlanSweep, PlanConservation)
{
    const auto pc = GetParam();
    FlashTransaction txn(pc.op, 0);
    auto pool = build(txn, pc);
    const auto plan = txn.plan(timing_, kPageBytes);

    // One cell phase per die; plane mask covers every request.
    EXPECT_EQ(plan.cells.size(), pc.dies);
    EXPECT_EQ(plan.planesTouched, pc.dies * pc.planesPerDie);

    // Command phase covers at least one command per request, plus
    // data-in for programs.
    Tick floor = txn.size() * timing_.commandOverhead;
    if (pc.op == FlashOp::Program)
        floor += txn.size() * timing_.transferTime(kPageBytes);
    EXPECT_GE(plan.cmdPhase, floor);

    // Cells start only after their commands and end within the plan.
    for (const auto &cell : plan.cells) {
        EXPECT_LE(cell.start, plan.cmdPhase);
        EXPECT_LE(cell.start + cell.duration, plan.cellEnd);
        EXPECT_GT(cell.duration, 0u);
    }
    EXPECT_GE(plan.minDuration(), plan.cellEnd);

    if (pc.op == FlashOp::Read) {
        EXPECT_EQ(plan.dataOutPhase,
                  txn.size() * (timing_.commandOverhead +
                                timing_.transferTime(kPageBytes)));
    } else {
        EXPECT_EQ(plan.dataOutPhase, 0u);
    }
}

TEST_P(PlanSweep, CoalescingBeatsSerialExecution)
{
    const auto pc = GetParam();
    if (pc.dies * pc.planesPerDie < 2)
        GTEST_SKIP() << "needs at least two requests";

    FlashTransaction txn(pc.op, 0);
    auto pool = build(txn, pc);
    const auto plan = txn.plan(timing_, kPageBytes);

    // Serial execution: each request as its own transaction.
    Tick serial = 0;
    for (const auto *req : txn.requests()) {
        FlashTransaction single(pc.op, 0);
        // const_cast-free: rebuild a single-request transaction.
        MemoryRequest copy = *req;
        single.add(&copy);
        serial += single.plan(timing_, kPageBytes).minDuration();
    }
    EXPECT_LT(plan.minDuration(), serial)
        << "coalesced transaction must beat serial execution";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlanSweep,
    ::testing::Values(PlanCase{FlashOp::Read, 1, 1},
                      PlanCase{FlashOp::Read, 1, 4},
                      PlanCase{FlashOp::Read, 2, 1},
                      PlanCase{FlashOp::Read, 2, 4},
                      PlanCase{FlashOp::Program, 1, 1},
                      PlanCase{FlashOp::Program, 1, 4},
                      PlanCase{FlashOp::Program, 2, 1},
                      PlanCase{FlashOp::Program, 2, 4},
                      PlanCase{FlashOp::Program, 2, 2},
                      PlanCase{FlashOp::Read, 2, 2}));

TEST(TimingProperties, ReadLatencyDominatedByCellForSmallPages)
{
    FlashTiming t;
    MemoryRequest req;
    req.op = FlashOp::Read;
    req.translated = true;
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&req);
    const auto plan = txn.plan(t, 2048);
    EXPECT_GT(t.readLatency, plan.cmdPhase);
}

TEST(TimingProperties, FasterBusShortensTransfers)
{
    FlashTiming slow;
    slow.busBytesPerSec = 50'000'000;
    FlashTiming fast;
    fast.busBytesPerSec = 400'000'000;
    EXPECT_GT(slow.transferTime(2048), fast.transferTime(2048));
}

TEST(TimingProperties, TransferTimeAdditive)
{
    FlashTiming t;
    // Rounding may add at most 1 ns per call.
    const Tick two = t.transferTime(4096);
    const Tick one = t.transferTime(2048);
    EXPECT_NEAR(static_cast<double>(two),
                2.0 * static_cast<double>(one), 2.0);
}

} // namespace
} // namespace spk
