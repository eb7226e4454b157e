// Tests for the timing-port retry protocol and the PacketQueue helper.
#include "test_util.hh"

namespace accesys::mem {
namespace {

using test::MockRequestor;
using test::MockResponder;

TEST(Ports, BindOnceOnly)
{
    MockRequestor req("req");
    MockResponder resp("resp");
    req.port().bind(resp.port());
    EXPECT_TRUE(req.port().bound());
    EXPECT_TRUE(resp.port().bound());

    MockResponder other("other");
    EXPECT_THROW(req.port().bind(other.port()), SimError);
}

TEST(Ports, UnboundSendThrows)
{
    MockRequestor req("req");
    auto pkt = Packet::make_read(0, 4);
    EXPECT_THROW((void)req.port().send_req(pkt), SimError);
}

TEST(Ports, RequestDeliveredToResponder)
{
    MockRequestor req("req");
    MockResponder resp("resp");
    req.port().bind(resp.port());

    auto pkt = Packet::make_read(0x40, 8);
    EXPECT_TRUE(req.port().send_req(pkt));
    EXPECT_EQ(pkt, nullptr); // ownership moved
    ASSERT_EQ(resp.requests.size(), 1u);
    EXPECT_EQ(resp.requests.front()->addr(), 0x40u);
}

TEST(Ports, RefusedRequestKeepsOwnershipAndRetries)
{
    MockRequestor req("req");
    MockResponder resp("resp");
    req.port().bind(resp.port());
    resp.refuse_requests(1);

    auto pkt = Packet::make_read(0x40, 8);
    EXPECT_FALSE(req.port().send_req(pkt));
    ASSERT_NE(pkt, nullptr); // caller keeps it

    resp.grant_retry();
    EXPECT_EQ(req.req_retries, 1u);
    EXPECT_TRUE(req.port().send_req(pkt));
}

TEST(Ports, RetryOnlyFiresWhenOwed)
{
    MockRequestor req("req");
    MockResponder resp("resp");
    req.port().bind(resp.port());
    resp.grant_retry(); // nothing owed
    EXPECT_EQ(req.req_retries, 0u);
}

TEST(Ports, ResponsePathWithRetry)
{
    MockRequestor req("req");
    MockResponder resp("resp");
    req.port().bind(resp.port());

    auto pkt = Packet::make_read(0x80, 4);
    ASSERT_TRUE(req.port().send_req(pkt));

    req.refuse_responses(1);
    EXPECT_FALSE(resp.answer_one()); // refused; responder keeps...
    // answer_one moved the packet out of requests and the send failed, so
    // the protocol requires the responder to hold it. Our mock dropped it,
    // which is fine for this protocol-level test: what matters is the
    // retry signal below.
    req.port().send_retry_resp();
    EXPECT_EQ(resp.resp_retries, 1u);
}

TEST(Ports, WrongPacketKindAsserts)
{
    MockRequestor req("req");
    MockResponder resp("resp");
    req.port().bind(resp.port());
    auto pkt = Packet::make_read(0, 4);
    pkt->make_response();
    EXPECT_THROW((void)req.port().send_req(pkt), SimError);
}

struct QueueFixture : ::testing::Test {
    Simulator sim;
    MockRequestor req{"req"};
    MockResponder resp{"resp"};

    QueueFixture() { req.port().bind(resp.port()); }
};

TEST_F(QueueFixture, DeliversInOrderAtScheduledTicks)
{
    PacketQueue q(sim, "q", req.port());
    q.push(Packet::make_read(0x100, 4), 100);
    q.push(Packet::make_read(0x200, 4), 50); // later push, earlier ready: FIFO still
    sim.run();
    ASSERT_EQ(resp.requests.size(), 2u);
    // FIFO semantics: the first-pushed packet leaves first even though the
    // second became ready earlier (models an ordered egress pipe).
    EXPECT_EQ(resp.requests[0]->addr(), 0x100u);
    EXPECT_EQ(resp.requests[1]->addr(), 0x200u);
}

TEST_F(QueueFixture, HonoursBackpressureAndRetry)
{
    PacketQueue q(sim, "q", req.port());
    resp.refuse_requests(1);
    q.push_now(Packet::make_read(0x1, 4));
    q.push_now(Packet::make_read(0x2, 4));
    sim.run();
    EXPECT_EQ(resp.requests.size(), 0u);
    EXPECT_TRUE(q.blocked());
    EXPECT_EQ(q.size(), 2u);

    resp.grant_retry();
    q.retry();
    sim.run();
    EXPECT_EQ(resp.requests.size(), 2u);
    EXPECT_TRUE(q.empty());
}

TEST_F(QueueFixture, DrainHookFiresAfterSends)
{
    PacketQueue q(sim, "q", req.port());
    int drains = 0;
    q.set_drain_hook([](void* d) { ++*static_cast<int*>(d); }, &drains);
    q.push_now(Packet::make_read(0x1, 4));
    q.push_now(Packet::make_read(0x2, 4));
    sim.run();
    EXPECT_GE(drains, 1);
    EXPECT_EQ(resp.requests.size(), 2u);
}

TEST_F(QueueFixture, BlockedQueueDoesNotSpin)
{
    // Regression: a blocked queue must not re-arm its own send event at the
    // current tick (that was an infinite same-tick event loop). With the
    // responder refusing forever, the simulation must simply drain.
    PacketQueue q(sim, "q", req.port());
    resp.refuse_requests(1000);
    q.push_now(Packet::make_read(0x1, 4));
    const auto rr = sim.run(kTicksPerMs);
    EXPECT_NE(rr.cause, ExitCause::horizon_reached);
    EXPECT_LT(rr.events, 10u); // a spin would execute millions
    EXPECT_TRUE(q.blocked());
}

TEST_F(QueueFixture, HeadReadyReportsSchedule)
{
    PacketQueue q(sim, "q", req.port());
    EXPECT_EQ(q.head_ready(), kMaxTick);
    q.push(Packet::make_read(0x1, 4), 777);
    EXPECT_EQ(q.head_ready(), 777u);
}

} // namespace
} // namespace accesys::mem
