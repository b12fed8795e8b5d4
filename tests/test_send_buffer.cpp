#include "core/send_buffer.hpp"

#include <gtest/gtest.h>

#include "common/expect.hpp"

namespace snoc {
namespace {

Message msg(TileId origin, std::uint32_t seq, std::uint16_t ttl = 5) {
    Message m;
    m.id = MessageId{origin, seq};
    m.source = origin;
    m.destination = 0;
    m.ttl = ttl;
    return m;
}

TEST(SendBuffer, InsertAndSize) {
    SendBuffer b(8);
    EXPECT_TRUE(b.empty());
    EXPECT_TRUE(b.insert(msg(1, 0)));
    EXPECT_TRUE(b.insert(msg(1, 1)));
    EXPECT_EQ(b.size(), 2u);
    EXPECT_TRUE(b.knows(MessageId{1, 0}));
    EXPECT_FALSE(b.knows(MessageId{2, 0}));
}

TEST(SendBuffer, DuplicateIdNotInserted) {
    // Sec. 3.2.3: "if a message is already present, a duplicate message
    // will not be inserted".
    SendBuffer b(8);
    EXPECT_TRUE(b.insert(msg(1, 0)));
    EXPECT_FALSE(b.insert(msg(1, 0)));
    EXPECT_EQ(b.size(), 1u);
}

TEST(SendBuffer, NoResurrectionAfterExpiry) {
    SendBuffer b(8);
    EXPECT_TRUE(b.insert(msg(1, 0, /*ttl=*/1)));
    EXPECT_EQ(b.age_and_collect(), 1u);
    EXPECT_TRUE(b.empty());
    // A late copy of the same rumor must not restart the broadcast.
    EXPECT_FALSE(b.insert(msg(1, 0, /*ttl=*/4)));
    EXPECT_TRUE(b.knows(MessageId{1, 0}));
}

TEST(SendBuffer, AgingDecrementsAllAndCollectsExpired) {
    SendBuffer b(8);
    b.insert(msg(1, 0, 1));
    b.insert(msg(1, 1, 2));
    b.insert(msg(1, 2, 3));
    EXPECT_EQ(b.age_and_collect(), 1u);
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(b.age_and_collect(), 1u);
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(b.messages().front().ttl, 1u);
    EXPECT_EQ(b.age_and_collect(), 1u);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.age_and_collect(), 0u);
}

TEST(SendBuffer, AgingPreservesOrder) {
    SendBuffer b(8);
    b.insert(msg(1, 0, 5));
    b.insert(msg(1, 1, 1));
    b.insert(msg(1, 2, 5));
    b.age_and_collect();
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b.messages()[0].id().sequence, 0u);
    EXPECT_EQ(b.messages()[1].id().sequence, 2u);
}

TEST(SendBuffer, CapacityEvictsOldest) {
    SendBuffer b(2);
    b.insert(msg(1, 0));
    b.insert(msg(1, 1));
    EXPECT_TRUE(b.insert(msg(1, 2)));
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(b.overflow_drops(), 1u);
    EXPECT_EQ(b.messages()[0].id().sequence, 1u);
    EXPECT_EQ(b.messages()[1].id().sequence, 2u);
}

TEST(SendBuffer, ZeroCapacityRejected) {
    EXPECT_THROW(SendBuffer(0), ContractViolation);
}

TEST(SendBuffer, AgingThrowsOnZeroTtlEntry) {
    // Inserting a TTL-0 message then ageing is a protocol bug; the
    // invariant check must fire rather than wrap around.
    SendBuffer b(4);
    b.insert(msg(1, 0, 0));
    EXPECT_THROW(b.age_and_collect(), ContractViolation);
}

TEST(SendBuffer, ClearForgetsEverything) {
    SendBuffer b(4);
    b.insert(msg(1, 0));
    b.clear();
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.knows(MessageId{1, 0}));
    EXPECT_TRUE(b.insert(msg(1, 0)));
}

TEST(SendBuffer, DistinctOriginsSameSequenceCoexist) {
    SendBuffer b(8);
    EXPECT_TRUE(b.insert(msg(1, 7)));
    EXPECT_TRUE(b.insert(msg(2, 7)));
    EXPECT_EQ(b.size(), 2u);
}

TEST(SendBuffer, RemembersEveryIdAcrossManyGrowths) {
    // Thousands of ids force the membership table through repeated
    // growth, and evictions keep the buffer itself small: every id ever
    // held stays known, no other id does, and none can come back.
    SendBuffer b(4);
    for (std::uint32_t seq = 0; seq < 3000; ++seq)
        ASSERT_TRUE(b.insert(msg(seq % 7, seq)));
    EXPECT_EQ(b.size(), 4u);
    EXPECT_EQ(b.overflow_drops(), 2996u);
    for (std::uint32_t seq = 0; seq < 3000; ++seq) {
        EXPECT_TRUE(b.knows(MessageId{seq % 7, seq})) << seq;
        EXPECT_FALSE(b.knows(MessageId{seq % 7 + 7, seq})) << seq;
        EXPECT_FALSE(b.insert(msg(seq % 7, seq))) << seq;
    }
}

} // namespace
} // namespace snoc
