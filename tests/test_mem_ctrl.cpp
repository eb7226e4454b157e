// Tests for MemCtrl (+ DramTiming backend), SimpleMem and TrafficGen.
#include "test_util.hh"

#include "mem/mem_ctrl.hh"
#include "mem/traffic_gen.hh"

namespace accesys::mem {
namespace {

using test::MockRequestor;

struct CtrlFixture : ::testing::Test {
    Simulator sim;
    MemCtrlParams params;
    AddrRange range{0, 64 * kMiB};

    CtrlFixture() { params.dram = ddr4_2400(); }
};

TEST_F(CtrlFixture, ReadGetsResponseWithLatency)
{
    MemCtrl ctrl(sim, "mem", params, range);
    MockRequestor req("req");
    req.port().bind(ctrl.port());

    auto pkt = Packet::make_read(0x1000, 64);
    ASSERT_TRUE(req.port().send_req(pkt));
    test::drain(sim);

    ASSERT_EQ(req.responses.size(), 1u);
    EXPECT_EQ(req.responses[0]->cmd(), MemCmd::read_resp);
    // At least activate + CAS + burst + backend must have elapsed.
    EXPECT_GE(sim.now(), params.dram.tRCD() + params.dram.tCL());
}

TEST_F(CtrlFixture, WriteAckedQuickly)
{
    MemCtrl ctrl(sim, "mem", params, range);
    MockRequestor req("req");
    req.port().bind(ctrl.port());

    auto pkt = Packet::make_write(0x1000, 64);
    ASSERT_TRUE(req.port().send_req(pkt));
    sim.run(ticks_from_ns(params.frontend_latency_ns) + 1);
    EXPECT_EQ(req.responses.size(), 1u);
    test::drain(sim);
}

TEST_F(CtrlFixture, PostedWriteNoResponse)
{
    MemCtrl ctrl(sim, "mem", params, range);
    MockRequestor req("req");
    req.port().bind(ctrl.port());

    auto pkt = Packet::make_write(0x1000, 64);
    pkt->flags.posted = true;
    ASSERT_TRUE(req.port().send_req(pkt));
    test::drain(sim);
    EXPECT_EQ(req.responses.size(), 0u);
    EXPECT_EQ(sim.stats().value("mem.writes"), 1.0);
}

TEST_F(CtrlFixture, OutOfRangeRequestPanics)
{
    MemCtrl ctrl(sim, "mem", params, range);
    MockRequestor req("req");
    req.port().bind(ctrl.port());
    auto pkt = Packet::make_read(range.end(), 64);
    EXPECT_THROW((void)req.port().send_req(pkt), SimError);
}

TEST_F(CtrlFixture, BackpressureWhenQueueFull)
{
    params.read_queue_capacity = 2;
    MemCtrl ctrl(sim, "mem", params, range);
    MockRequestor req("req");
    req.port().bind(ctrl.port());

    // Saturate without letting the sim run.
    int accepted = 0;
    for (int i = 0; i < 4; ++i) {
        auto pkt = Packet::make_read(0x1000 + i * 64, 64);
        if (req.port().send_req(pkt)) {
            ++accepted;
        } else {
            break;
        }
    }
    EXPECT_EQ(accepted, 2);
    test::drain(sim);
    EXPECT_GE(req.req_retries, 1u); // retry arrived once space freed
    EXPECT_EQ(req.responses.size(), 2u);
}

TEST_F(CtrlFixture, TrafficGenReachesDdr4Bandwidth)
{
    MemCtrl ctrl(sim, "mem", params, range);
    TrafficGenParams tp;
    tp.total_bytes = 2 * kMiB;
    tp.working_set = 32 * kMiB;
    tp.req_bytes = 64;
    tp.window = 32;
    TrafficGen gen(sim, "gen", tp);
    gen.port().bind(ctrl.port());
    sim.startup();
    gen.start();
    test::drain(sim);
    EXPECT_TRUE(gen.done());
    EXPECT_GT(gen.achieved_gbps(), 0.85 * params.dram.peak_gbps());
    EXPECT_GT(ctrl.row_hit_rate(), 0.9); // sequential stream
}

TEST_F(CtrlFixture, RandomTrafficHasLowerRowHitRate)
{
    MemCtrl ctrl(sim, "mem", params, range);
    TrafficGenParams tp;
    tp.total_bytes = 1 * kMiB;
    tp.working_set = 32 * kMiB;
    tp.req_bytes = 64;
    tp.random_addresses = true;
    TrafficGen gen(sim, "gen", tp);
    gen.port().bind(ctrl.port());
    sim.startup();
    gen.start();
    test::drain(sim);
    EXPECT_LT(ctrl.row_hit_rate(), 0.5);
    EXPECT_LT(gen.achieved_gbps(), params.dram.peak_gbps());
}

TEST_F(CtrlFixture, MixedReadWriteCompletes)
{
    MemCtrl ctrl(sim, "mem", params, range);
    TrafficGenParams tp;
    tp.total_bytes = 1 * kMiB;
    tp.req_bytes = 64;
    tp.write_fraction = 0.5;
    TrafficGen gen(sim, "gen", tp);
    gen.port().bind(ctrl.port());
    sim.startup();
    bool done = false;
    gen.start([&done] { done = true; });
    test::drain(sim);
    EXPECT_TRUE(done);
    EXPECT_GT(sim.stats().value("mem.writes"), 0.0);
    EXPECT_GT(sim.stats().value("mem.bytes_written"), 0.0);
}

TEST_F(CtrlFixture, LargerRequestsSplitIntoBursts)
{
    MemCtrl ctrl(sim, "mem", params, range);
    MockRequestor req("req");
    req.port().bind(ctrl.port());
    auto pkt = Packet::make_read(0x1000, 256); // 4 bursts of 64
    ASSERT_TRUE(req.port().send_req(pkt));
    test::drain(sim);
    ASSERT_EQ(req.responses.size(), 1u);
    EXPECT_EQ(sim.stats().value("mem.bytes_read"), 256.0);
}

TEST_F(CtrlFixture, NonPow2BurstsRoundByDivision)
{
    // A 24-bit channel moves 24 B per burst: a 256 B read at 0x1000 spans
    // bytes 4080..4368 of the burst grid, i.e. 12 bursts (a power-of-two
    // mask would model 10 starting at 4096).
    params.dram.data_width_bits = 24;
    ASSERT_EQ(params.dram.burst_bytes(), 24u);
    MemCtrl ctrl(sim, "mem", params, range);
    MockRequestor req("req");
    req.port().bind(ctrl.port());
    auto pkt = Packet::make_read(0x1000, 256);
    ASSERT_TRUE(req.port().send_req(pkt));
    test::drain(sim);
    ASSERT_EQ(req.responses.size(), 1u);
    EXPECT_EQ(ctrl.bursts(), 12u);
}

struct SimpleMemFixture : ::testing::Test {
    Simulator sim;
    SimpleMemParams params;
    AddrRange range{0, 16 * kMiB};
};

TEST_F(SimpleMemFixture, LatencyIsConfigured)
{
    params.latency_ns = 100.0;
    params.bandwidth_gbps = 1000.0; // effectively no serialization
    SimpleMem memory(sim, "sm", params, range);
    MockRequestor req("req");
    req.port().bind(memory.port());
    auto pkt = Packet::make_read(0, 64);
    ASSERT_TRUE(req.port().send_req(pkt));
    test::drain(sim);
    ASSERT_EQ(req.responses.size(), 1u);
    EXPECT_GE(sim.now(), ticks_from_ns(100.0));
    EXPECT_LE(sim.now(), ticks_from_ns(102.0));
}

TEST_F(SimpleMemFixture, BandwidthBoundsStream)
{
    params.latency_ns = 10.0;
    params.bandwidth_gbps = 8.0;
    SimpleMem memory(sim, "sm", params, range);
    TrafficGenParams tp;
    tp.total_bytes = 1 * kMiB;
    tp.req_bytes = 256;
    tp.window = 32;
    TrafficGen gen(sim, "gen", tp);
    gen.port().bind(memory.port());
    sim.startup();
    gen.start();
    test::drain(sim);
    EXPECT_LE(gen.achieved_gbps(), 8.0 * 1.02);
    EXPECT_GT(gen.achieved_gbps(), 8.0 * 0.9);
}

TEST_F(SimpleMemFixture, QueueCapacityBackpressures)
{
    params.queue_capacity = 1;
    params.latency_ns = 50.0;
    SimpleMem memory(sim, "sm", params, range);
    MockRequestor req("req");
    req.port().bind(memory.port());
    auto p1 = Packet::make_read(0, 64);
    auto p2 = Packet::make_read(64, 64);
    EXPECT_TRUE(req.port().send_req(p1));
    EXPECT_FALSE(req.port().send_req(p2));
    test::drain(sim);
    EXPECT_GE(req.req_retries, 1u);
}

TEST(TrafficGenParams, Validation)
{
    TrafficGenParams tp;
    tp.req_bytes = 0;
    EXPECT_THROW(tp.validate(), ConfigError);
    tp = {};
    tp.write_fraction = 1.5;
    EXPECT_THROW(tp.validate(), ConfigError);
    tp = {};
    tp.working_set = 16;
    tp.req_bytes = 64;
    EXPECT_THROW(tp.validate(), ConfigError);
}

} // namespace
} // namespace accesys::mem
