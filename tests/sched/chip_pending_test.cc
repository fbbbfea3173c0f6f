/**
 * @file
 * Unit tests for the NVMHC's per-chip pending index: the chip lists
 * and the per-(chip, tag) lists stay in push order through random
 * push, unlink and retarget sequences.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "sched/chip_pending.hh"

namespace spk
{
namespace
{

constexpr std::uint32_t kChips = 5;
constexpr std::uint32_t kTags = 4;

/** Walk a list from @p head along @p next. */
std::vector<const MemoryRequest *>
walk(const MemoryRequest *head, MemoryRequest *MemoryRequest::*next)
{
    std::vector<const MemoryRequest *> out;
    for (; head != nullptr; head = head->*next)
        out.push_back(head);
    return out;
}

TEST(ChipPendingIndex, ListsMatchBruteForceScan)
{
    std::mt19937_64 rng(15);
    const auto below = [&rng](std::uint64_t n) { return rng() % n; };
    for (int trial = 0; trial < 50; ++trial) {
        ChipPendingIndex index(kChips, kTags);
        std::vector<std::unique_ptr<MemoryRequest>> reqs;
        // Brute force: every listed request, in push order.
        std::vector<MemoryRequest *> listed;

        for (int op = 0; op < 200; ++op) {
            const auto kind = below(4);
            if (kind <= 1 || listed.empty()) { // push a new request
                auto req = std::make_unique<MemoryRequest>();
                req->id = reqs.size();
                req->addr.chip = static_cast<std::uint32_t>(below(kChips));
                req->tag = static_cast<TagId>(below(kTags));
                index.pushBack(req.get());
                listed.push_back(req.get());
                reqs.push_back(std::move(req));
            } else {
                const auto at = below(listed.size());
                MemoryRequest *req = listed[at];
                index.unlink(req);
                listed.erase(listed.begin() + static_cast<long>(at));
                if (kind == 3) { // retarget: to the back of a new chip
                    req->addr.chip = static_cast<std::uint32_t>(below(kChips));
                    index.pushBack(req);
                    listed.push_back(req);
                }
            }

            for (std::uint32_t chip = 0; chip < kChips; ++chip) {
                std::vector<const MemoryRequest *> want;
                for (const MemoryRequest *req : listed) {
                    if (req->addr.chip == chip)
                        want.push_back(req);
                }
                ASSERT_EQ(walk(index.front(chip), &MemoryRequest::chipNext),
                          want)
                    << "trial " << trial << " op " << op << " chip "
                    << chip;
                for (TagId tag = 0; tag < kTags; ++tag) {
                    std::vector<const MemoryRequest *> mine;
                    for (const MemoryRequest *req : want) {
                        if (req->tag == tag)
                            mine.push_back(req);
                    }
                    ASSERT_EQ(walk(index.frontOf(chip, tag),
                                   &MemoryRequest::chipTagNext),
                              mine)
                        << "trial " << trial << " op " << op << " chip "
                        << chip << " tag " << tag;
                }
            }
        }
    }
}

TEST(ChipPendingIndex, UnlinkClearsBothLinks)
{
    ChipPendingIndex index(1, 1);
    MemoryRequest a;
    MemoryRequest b;
    a.tag = b.tag = 0;
    index.pushBack(&a);
    index.pushBack(&b);
    index.unlink(&a);
    EXPECT_EQ(a.chipNext, nullptr);
    EXPECT_EQ(a.chipTagNext, nullptr);
    EXPECT_EQ(b.chipPrev, nullptr);
    EXPECT_EQ(b.chipTagPrev, nullptr);
    EXPECT_EQ(index.front(0), &b);
    EXPECT_EQ(index.frontOf(0, 0), &b);
}

TEST(ChipPendingIndexDeathTest, TagOutOfRangeDies)
{
    ChipPendingIndex index(2, 2);
    MemoryRequest req;
    req.tag = 2;
    EXPECT_DEATH(index.pushBack(&req), "tag out of range");
}

TEST(ChipPendingIndexDeathTest, UnlinkingAnUnlistedRequestDies)
{
    ChipPendingIndex index(2, 2);
    MemoryRequest listed;
    MemoryRequest stray;
    listed.tag = stray.tag = 0;
    index.pushBack(&listed);
    EXPECT_DEATH(index.unlink(&stray), "not listed");
}

} // namespace
} // namespace spk
