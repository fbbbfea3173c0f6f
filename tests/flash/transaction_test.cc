/**
 * @file
 * Unit tests for flash transactions: FLP classification, validity,
 * coalescing rules and timing plans.
 */

#include <gtest/gtest.h>

#include "flash/transaction.hh"

namespace spk
{
namespace
{

MemoryRequest
makeReq(std::uint32_t die, std::uint32_t plane, std::uint32_t page,
        FlashOp op = FlashOp::Read, std::uint32_t chip = 0)
{
    MemoryRequest req;
    req.op = op;
    req.addr.chip = chip;
    req.addr.die = die;
    req.addr.plane = plane;
    req.addr.page = page;
    req.addr.block = plane; // arbitrary distinct blocks
    req.translated = true;
    return req;
}

FlashTiming
timing()
{
    return FlashTiming{};
}

TEST(Transaction, SingleRequestIsNonPal)
{
    auto r = makeReq(0, 0, 0);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&r);
    EXPECT_TRUE(txn.valid());
    EXPECT_EQ(txn.classify(), FlpClass::NonPal);
    EXPECT_EQ(txn.dieCount(), 1u);
}

TEST(Transaction, MultiplaneSameDieIsPal1)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 1, 5);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_TRUE(txn.valid());
    EXPECT_EQ(txn.classify(), FlpClass::Pal1);
}

TEST(Transaction, DieInterleaveIsPal2)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(1, 0, 9);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_TRUE(txn.valid());
    EXPECT_EQ(txn.classify(), FlpClass::Pal2);
    EXPECT_EQ(txn.dieCount(), 2u);
}

TEST(Transaction, CombinedIsPal3)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 1, 5);
    auto c = makeReq(1, 0, 7);
    auto d = makeReq(1, 2, 7);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    txn.add(&c);
    txn.add(&d);
    EXPECT_TRUE(txn.valid());
    EXPECT_EQ(txn.classify(), FlpClass::Pal3);
}

TEST(Transaction, SamePlaneTwiceIsInvalid)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 0, 9);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_FALSE(txn.valid());
}

TEST(Transaction, MultiplaneDifferentPageIsInvalid)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 1, 6); // ONFI multiplane needs same page
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_FALSE(txn.valid());
}

TEST(Transaction, WrongChipOrOpIsInvalid)
{
    auto a = makeReq(0, 0, 5, FlashOp::Read, 1);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    EXPECT_FALSE(txn.valid());

    auto b = makeReq(0, 0, 5, FlashOp::Program, 0);
    FlashTransaction txn2(FlashOp::Read, 0);
    txn2.add(&b);
    EXPECT_FALSE(txn2.valid());
}

TEST(Transaction, CanCoalesceMirrorsValidity)
{
    auto a = makeReq(0, 0, 5);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);

    auto same_plane = makeReq(0, 0, 9);
    EXPECT_FALSE(canCoalesce(txn, same_plane));

    auto diff_page_same_die = makeReq(0, 1, 9);
    EXPECT_FALSE(canCoalesce(txn, diff_page_same_die));

    auto good_plane = makeReq(0, 1, 5);
    EXPECT_TRUE(canCoalesce(txn, good_plane));

    auto other_die = makeReq(1, 3, 11);
    EXPECT_TRUE(canCoalesce(txn, other_die));

    auto wrong_op = makeReq(1, 3, 11, FlashOp::Program);
    EXPECT_FALSE(canCoalesce(txn, wrong_op));
}

TEST(TransactionPlan, ReadHasDataOutPhase)
{
    auto a = makeReq(0, 0, 5);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    const auto plan = txn.plan(timing(), 2048);
    EXPECT_GT(plan.cmdPhase, 0u);
    EXPECT_GT(plan.dataOutPhase, 0u);
    EXPECT_EQ(plan.cells.size(), 1u);
    EXPECT_EQ(plan.cells[0].duration, timing().readLatency);
    EXPECT_EQ(plan.planesTouched, 1u);
}

TEST(TransactionPlan, ProgramMovesDataUpFront)
{
    auto a = makeReq(0, 0, 0, FlashOp::Program);
    FlashTransaction txn(FlashOp::Program, 0);
    txn.add(&a);
    const auto plan = txn.plan(timing(), 2048);
    EXPECT_EQ(plan.dataOutPhase, 0u);
    // cmd phase covers command + page transfer
    EXPECT_GE(plan.cmdPhase,
              timing().commandOverhead + timing().transferTime(2048));
    EXPECT_EQ(plan.cells[0].duration, timing().programFast);
}

TEST(TransactionPlan, SlowPageDominatesMultiplaneProgram)
{
    auto a = makeReq(0, 0, 0, FlashOp::Program); // fast page
    auto b = makeReq(0, 1, 0, FlashOp::Program);
    b.addr.page = 0;
    FlashTransaction txn(FlashOp::Program, 0);
    txn.add(&a);
    txn.add(&b);
    auto plan = txn.plan(timing(), 2048);
    EXPECT_EQ(plan.cells[0].duration, timing().programFast);

    // Same wordline but an odd (slow) page index.
    auto c = makeReq(1, 0, 1, FlashOp::Program);
    auto d = makeReq(1, 1, 1, FlashOp::Program);
    FlashTransaction txn2(FlashOp::Program, 0);
    txn2.add(&c);
    txn2.add(&d);
    plan = txn2.plan(timing(), 2048);
    EXPECT_EQ(plan.cells[0].duration, timing().programSlow);
}

TEST(TransactionPlan, DieInterleaveOverlapsCellPhases)
{
    auto a = makeReq(0, 0, 3);
    auto b = makeReq(1, 0, 9);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    const auto plan = txn.plan(timing(), 2048);
    ASSERT_EQ(plan.cells.size(), 2u);
    // Die 1's commands go out after die 0's, so its cell starts later,
    // but both cells overlap: total << 2 x tR.
    EXPECT_LT(plan.cells[0].start, plan.cells[1].start);
    EXPECT_LT(plan.cellEnd, 2 * timing().readLatency);
    // Interleaved transaction must beat two serial reads.
    const Tick serial = 2 * (timing().commandOverhead +
                             timing().readLatency +
                             timing().transferTime(2048));
    EXPECT_LT(plan.minDuration(), serial);
}

TEST(TransactionPlan, EraseUsesEraseLatency)
{
    auto a = makeReq(0, 0, 0, FlashOp::Erase);
    FlashTransaction txn(FlashOp::Erase, 0);
    txn.add(&a);
    const auto plan = txn.plan(timing(), 2048);
    EXPECT_EQ(plan.cells[0].duration, timing().eraseLatency);
    EXPECT_EQ(plan.dataOutPhase, 0u);
}

TEST(TransactionPlan, InvalidTransactionDies)
{
    auto a = makeReq(0, 0, 5);
    auto b = makeReq(0, 0, 9);
    FlashTransaction txn(FlashOp::Read, 0);
    txn.add(&a);
    txn.add(&b);
    EXPECT_DEATH(txn.plan(timing(), 2048), "invalid");
}

TEST(Timing, TransferTimeRoundsUp)
{
    FlashTiming t;
    t.busBytesPerSec = 1000; // 1 byte per ms
    EXPECT_EQ(t.transferTime(1), kSecond / 1000);
    EXPECT_EQ(t.transferTime(0), 0u);
}

TEST(Timing, ProgramLatencyAlternatesFastSlow)
{
    FlashTiming t;
    EXPECT_EQ(t.programLatency(0), t.programFast);
    EXPECT_EQ(t.programLatency(1), t.programSlow);
    EXPECT_EQ(t.programLatency(2), t.programFast);
}

} // namespace
} // namespace spk
