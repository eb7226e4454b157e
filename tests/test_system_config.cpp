// Tests for SystemConfig (Table II defaults, knobs, validation).
#include <gtest/gtest.h>

#include "core/system_config.hh"
#include "core/topology.hh"
#include "mem/dram_config.hh"

namespace accesys::core {
namespace {

TEST(SystemConfig, PaperDefaultMatchesTableII)
{
    const auto cfg = SystemConfig::paper_default();
    EXPECT_DOUBLE_EQ(cfg.cpu.freq_ghz, 1.0);
    EXPECT_EQ(cfg.l1d.size_bytes, 64 * kKiB);
    EXPECT_EQ(cfg.llc.size_bytes, 2 * kMiB);
    EXPECT_EQ(cfg.iocache.size_bytes, 32 * kKiB);
    EXPECT_EQ(cfg.host_mem.dram.name, "DDR3-1600");
    EXPECT_EQ(cfg.host_dram_bytes, 4 * kGiB);
    EXPECT_EQ(cfg.pcie.lanes, 4u);
    EXPECT_DOUBLE_EQ(cfg.pcie.lane_gbps, 4.0);
    EXPECT_EQ(cfg.pcie.gen, pcie::Gen::gen2);
    EXPECT_DOUBLE_EQ(cfg.rc.latency_ns, 150.0);
    ASSERT_EQ(cfg.switch_tree.size(), 1u);
    EXPECT_DOUBLE_EQ(cfg.switch_tree[0].params.latency_ns, 50.0);
    ASSERT_EQ(cfg.devices.size(), 1u);
    EXPECT_EQ(cfg.devices[0].accel.sa.rows, 16u);
    EXPECT_EQ(cfg.devices[0].accel.sa.cols, 16u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SystemConfig, SetPacketSizeSyncsKnobs)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_packet_size(1024);
    EXPECT_EQ(cfg.devices[0].accel.dma.request_bytes, 1024u);
    EXPECT_EQ(cfg.devices[0].accel.dma.write_bytes, 1024u);
    EXPECT_EQ(cfg.rc.max_payload_bytes, 1024u);
}

TEST(SystemConfig, SetPcieTargetHitsBandwidth)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_pcie_target_gbps(8.0);
    EXPECT_NEAR(cfg.pcie.effective_gbps(), 8.0, 1e-9);
    cfg.set_pcie_target_gbps(64.0, 16);
    EXPECT_NEAR(cfg.pcie.effective_gbps(), 64.0, 1e-9);
    EXPECT_EQ(cfg.pcie.lanes, 16u);
}

TEST(SystemConfig, SetHostDram)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_host_dram("HBM2");
    EXPECT_EQ(cfg.host_mem.dram.name, "HBM2");
    EXPECT_THROW(cfg.set_host_dram("nvram"), ConfigError);
}

TEST(SystemConfig, SetDevmemEnables)
{
    auto cfg = SystemConfig::paper_default();
    EXPECT_FALSE(cfg.devices[0].enable_devmem);
    cfg.set_devmem("GDDR6");
    EXPECT_TRUE(cfg.devices[0].enable_devmem);
    EXPECT_EQ(cfg.devices[0].devmem_mem.dram.name, "GDDR6");
}

TEST(SystemConfig, ValidationCatchesBadConfigs)
{
    auto cfg = SystemConfig::paper_default();
    cfg.host_dram_bytes = 1 * kMiB; // too small for page tables
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.devices[0].accel.bar0_base = 0x1000; // overlaps host DRAM
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.pcie.lanes = 5;
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.cpu.freq_ghz = 0.0;
    EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(SystemConfig, DefaultAccessModeIsDc)
{
    const auto cfg = SystemConfig::paper_default();
    EXPECT_EQ(cfg.access_mode, AccessMode::dc);
}

TEST(SystemConfig, MatrixFlowDefaultsMatchPaper)
{
    const auto cfg = SystemConfig::paper_default();
    const accel::MatrixFlowParams& accel = cfg.devices[0].accel;
    EXPECT_EQ(accel.local_buffer_bytes, 256 * kKiB);
    // Streaming dataflow: one tile-column panels (16 B/cycle intensity).
    EXPECT_EQ(accel.max_block_cols, 16u);
    EXPECT_DOUBLE_EQ(accel.sa.freq_ghz, 1.0);
}

// The setters act on the topology lists, so a sweep may apply them in any
// order relative to set_num_devices() / add_switch_below().
TEST(SystemConfig, SettersReachEveryEndpointInAnyOrder)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    cfg.set_packet_size(1024);
    cfg.set_devmem("HBM2");
    const auto plan = TopologyBuilder::resolve(cfg);
    ASSERT_EQ(plan.devices.size(), 2u);
    for (const ResolvedDevice& dev : plan.devices) {
        EXPECT_EQ(dev.accel.dma.request_bytes, 1024u) << dev.name;
        EXPECT_EQ(dev.accel.dma.write_bytes, 1024u) << dev.name;
        EXPECT_TRUE(dev.devmem_enabled) << dev.name;
        EXPECT_EQ(dev.devmem_mem.dram.name, "HBM2") << dev.name;
    }
    EXPECT_EQ(cfg.rc.max_payload_bytes, 1024u);

    // Reversed order: set_num_devices() clones the already-tuned device 0.
    auto rev = SystemConfig::paper_default();
    rev.set_packet_size(1024);
    rev.set_devmem("HBM2");
    rev.set_num_devices(2);
    const auto rev_plan = TopologyBuilder::resolve(rev);
    for (std::size_t i = 0; i < plan.devices.size(); ++i) {
        EXPECT_EQ(rev_plan.devices[i].accel.dma.request_bytes, 1024u);
        EXPECT_EQ(rev_plan.devices[i].devmem, plan.devices[i].devmem);
    }

    // Every switch uplink is built from the system-wide link, even for a
    // switch declared before the link was retuned.
    cfg.devices[1].attach_to = cfg.add_switch_below(0);
    cfg.set_pcie_target_gbps(64.0, 16);
    Simulator sim;
    mem::BackingStore store;
    pcie::RootComplex rc(sim, "rc", cfg.rc);
    const Topology topo = TopologyBuilder::build(sim, store, cfg, rc);
    ASSERT_EQ(topo.uplinks.size(), 2u);
    for (const auto& uplink : topo.uplinks) {
        EXPECT_NEAR(uplink->params().effective_gbps(), 64.0, 1e-9)
            << uplink->name();
    }
}

TEST(SystemConfig, ValidationRejectsEmptyTopology)
{
    auto cfg = SystemConfig::paper_default();
    cfg.devices.clear();
    EXPECT_THROW(cfg.validate(), ConfigError);
    EXPECT_THROW((void)TopologyBuilder::resolve(cfg), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.switch_tree.clear();
    EXPECT_THROW(cfg.validate(), ConfigError);
    EXPECT_THROW((void)TopologyBuilder::resolve(cfg), ConfigError);
}

} // namespace
} // namespace accesys::core
