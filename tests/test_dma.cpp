// Tests for the multi-channel DMA engine against a mock PCIe port.
#include <gtest/gtest.h>

#include <deque>

#include "dma/dma_engine.hh"
#include "sim/simulator.hh"

namespace accesys::dma {
namespace {

/// Captures outgoing TLPs; the test plays root-complex and answers reads.
struct MockPort : DmaPort {
    struct Sent {
        pcie::TlpPtr tlp;
        pcie::SentHook on_sent;
    };

    void dma_send(pcie::TlpPtr tlp, pcie::SentHook on_sent) override
    {
        sent.push_back(Sent{std::move(tlp), on_sent});
    }
    std::size_t dma_egress_depth() const override { return egress_depth; }
    std::uint16_t dma_device_id() const override { return 1; }

    /// Fire the wire-departure callback for every staged TLP.
    void flush_sent_callbacks()
    {
        for (auto& s : sent) {
            if (s.on_sent) {
                const auto cb = s.on_sent;
                s.on_sent = {};
                cb();
            }
        }
    }

    std::deque<Sent> sent;
    std::size_t egress_depth = 0;
};

/// Records completion continuations by arg (the descriptor-based
/// replacement for the old capture-a-bool closures).
struct Recorder final : TransferListener {
    std::vector<std::uint32_t> fired;
    void transfer_done(std::uint8_t, std::uint32_t arg) override
    {
        fired.push_back(arg);
    }
    Continuation cont(std::uint32_t arg = 0) { return {this, 0, arg}; }
    [[nodiscard]] bool done() const { return !fired.empty(); }
};

struct DmaFixture : ::testing::Test {
    Simulator sim;
    mem::BackingStore store;
    DmaParams params;
    MockPort port;
    Recorder rec;

    std::unique_ptr<DmaEngine> make()
    {
        return std::make_unique<DmaEngine>(sim, "dma", params, port, store);
    }

    /// Complete the oldest outstanding MRd with a single full completion.
    void complete_one(DmaEngine& dma)
    {
        ASSERT_FALSE(port.sent.empty());
        auto tlp = std::move(port.sent.front().tlp);
        port.sent.pop_front();
        ASSERT_EQ(tlp->type, pcie::TlpType::mem_read);
        auto cpl = pcie::make_completion(tlp->length, tlp->tag, 1, 0, true);
        dma.on_completion(*cpl);
    }
};

TEST_F(DmaFixture, ReadJobChunksAtRequestSize)
{
    params.request_bytes = 256;
    params.window_bytes = 64 * kKiB;
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x1000, 0x700000, 1024,
                       rec.cont()});
    ASSERT_EQ(port.sent.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(port.sent[i].tlp->addr, 0x1000u + i * 256);
        EXPECT_EQ(port.sent[i].tlp->length, 256u);
    }
    while (!port.sent.empty()) {
        complete_one(*dma);
    }
    EXPECT_TRUE(rec.done());
    EXPECT_TRUE(dma->idle());
}

TEST_F(DmaFixture, WindowLimitsOutstandingReads)
{
    params.request_bytes = 256;
    params.window_bytes = 512; // 2 requests
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0, 0x700000, 2048, {}});
    EXPECT_EQ(port.sent.size(), 2u);
    complete_one(*dma);
    EXPECT_EQ(port.sent.size(), 2u); // window freed -> next issued
}

TEST_F(DmaFixture, TagLimitBounds)
{
    params.request_bytes = 64;
    params.window_bytes = 64 * kKiB;
    params.max_tags = 4;
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0, 0x700000, 4096, {}});
    EXPECT_EQ(port.sent.size(), 4u);
    // Tags must be distinct.
    std::set<int> tags;
    for (auto& s : port.sent) {
        tags.insert(s.tlp->tag);
    }
    EXPECT_EQ(tags.size(), 4u);
}

TEST_F(DmaFixture, ReadCopiesDataOnCompletion)
{
    params.request_bytes = 128;
    auto dma = make();
    const char msg[] = "dma payload check";
    store.write(0x2000, msg, sizeof(msg));
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x2000, 0x700000, 128,
                       rec.cont()});
    complete_one(*dma);
    ASSERT_TRUE(rec.done());
    char out[sizeof(msg)] = {};
    store.read(0x700000, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST_F(DmaFixture, PartialCompletionsWaitForLast)
{
    params.request_bytes = 256;
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0, 0x700000, 256,
                       rec.cont()});
    ASSERT_EQ(port.sent.size(), 1u);
    const auto tag = port.sent[0].tlp->tag;
    port.sent.pop_front();

    auto c1 = pcie::make_completion(128, tag, 1, 0, false);
    dma->on_completion(*c1);
    EXPECT_FALSE(rec.done());
    auto c2 = pcie::make_completion(128, tag, 1, 128, true);
    dma->on_completion(*c2);
    EXPECT_TRUE(rec.done());
}

TEST_F(DmaFixture, WriteJobSnapshotsAndPostsChunks)
{
    params.write_bytes = 256;
    auto dma = make();
    const char msg[] = "write me to host";
    store.write(0x700000, msg, sizeof(msg));
    dma->submit(DmaJob{DmaJob::Dir::dev_to_host, 0x5000, 0x700000, 512,
                       rec.cont()});
    // Functional data lands at submit (drain-FIFO semantics).
    char out[sizeof(msg)] = {};
    store.read(0x5000, out, sizeof(msg));
    EXPECT_STREQ(out, msg);

    ASSERT_EQ(port.sent.size(), 2u);
    EXPECT_EQ(port.sent[0].tlp->type, pcie::TlpType::mem_write);
    EXPECT_FALSE(rec.done());
    port.flush_sent_callbacks(); // both hit the wire
    EXPECT_TRUE(rec.done());
}

TEST_F(DmaFixture, WriteGatedByEgressDepth)
{
    params.write_bytes = 64;
    params.max_egress = 2;
    auto dma = make();
    port.egress_depth = 2; // endpoint backlog
    dma->submit(DmaJob{DmaJob::Dir::dev_to_host, 0x5000, 0x700000, 512, {}});
    EXPECT_EQ(port.sent.size(), 0u);
    port.egress_depth = 0;
    dma->on_tx_ready();
    EXPECT_EQ(port.sent.size(), 8u);
}

TEST_F(DmaFixture, ChannelsRunJobsConcurrently)
{
    params.channels = 2;
    params.request_bytes = 256;
    params.window_bytes = 64 * kKiB;
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x0, 0x700000, 256, {}});
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x10000, 0x710000, 256, {}});
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x20000, 0x720000, 256, {}});
    // Two channels: first two jobs issue, third queues.
    EXPECT_EQ(port.sent.size(), 2u);
    EXPECT_EQ(dma->jobs_in_flight(), 3u);
    complete_one(*dma);
    EXPECT_EQ(port.sent.size(), 2u); // third job admitted
}

TEST_F(DmaFixture, CompletionOrderCallbacksInOrder)
{
    params.channels = 1;
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0, 0x700000, 256,
                       rec.cont(1)});
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x1000, 0x710000, 256,
                       rec.cont(2)});
    complete_one(*dma);
    complete_one(*dma);
    EXPECT_EQ(rec.fired, (std::vector<std::uint32_t>{1, 2}));
}

TEST_F(DmaFixture, SetRequestBytesOnlyWhenIdle)
{
    auto dma = make();
    dma->set_request_bytes(512);
    EXPECT_EQ(dma->params().request_bytes, 512u);
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0, 0x700000, 512, {}});
    EXPECT_THROW(dma->set_request_bytes(128), SimError);
}

TEST_F(DmaFixture, ZeroLengthJobRejected)
{
    auto dma = make();
    EXPECT_THROW(dma->submit(DmaJob{}), SimError);
}

TEST(WriteJournal, AppliesTickPrefixesAndKeepsLaterRecords)
{
    // The parallel core applies a journal only up to the root's tick, so
    // records can outlive a barrier while their applied predecessors are
    // compacted away. Each record snapshots its source at record time.
    mem::BackingStore store;
    mem::WriteJournal journal;
    const Addr src = 0x1000;
    const Addr dst = 0x8000;
    for (std::uint64_t i = 0; i < 6; ++i) {
        store.write_obj<std::uint64_t>(src, 100 + i);
        journal.record(/*t=*/10 * (i + 1), store, dst + 8 * i, src, 8);
    }
    store.write_obj<std::uint64_t>(src, 0); // later writes are not seen

    journal.apply_until(store, 35); // ticks 10, 20, 30
    EXPECT_FALSE(journal.empty());
    for (std::uint64_t i = 0; i < 6; ++i) {
        EXPECT_EQ(store.read_obj<std::uint64_t>(dst + 8 * i),
                  i < 3 ? 100 + i : 0)
            << i;
    }
    journal.record(70, store, dst + 48, src, 8); // appended after compaction
    journal.apply_until(store, 50);              // ticks 40, 50
    EXPECT_EQ(store.read_obj<std::uint64_t>(dst + 32), 104u);
    EXPECT_EQ(store.read_obj<std::uint64_t>(dst + 40), 0u);
    journal.apply_until(store, 70);
    EXPECT_TRUE(journal.empty());
    EXPECT_EQ(store.read_obj<std::uint64_t>(dst + 40), 105u);
    EXPECT_EQ(store.read_obj<std::uint64_t>(dst + 48), 0u);
    EXPECT_EQ(journal.recorded_total(), 7u);
}

TEST(DmaParams, Validation)
{
    DmaParams p;
    p.request_bytes = 100; // not a power of two
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.window_bytes = 64;
    p.request_bytes = 256;
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.max_tags = 300;
    EXPECT_THROW(p.validate(), ConfigError);
}

} // namespace
} // namespace accesys::dma
