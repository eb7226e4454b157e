// Memory controller: bounded read/write queues, FR-FCFS scheduling, and a
// DramTiming backend. Used for host DRAM and (with a different preset) for
// accelerator device-side memory.
//
// Write handling follows the usual controller idiom: writes are acknowledged
// once accepted (their latency is the queue admission) but still occupy the
// DRAM data bus when drained, so they consume real bandwidth.
#pragma once

#include "mem/addr_range.hh"
#include "mem/dram_timing.hh"
#include "mem/port.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulator.hh"

namespace accesys::mem {

struct MemCtrlParams {
    DramParams dram;
    std::size_t read_queue_capacity = 32;
    std::size_t write_queue_capacity = 64;
    /// Queue admission / decode pipeline.
    double frontend_latency_ns = 10.0;
    /// Response path back to the fabric.
    double backend_latency_ns = 10.0;
    /// FR-FCFS: how deep into the read queue to look for row hits.
    std::size_t frfcfs_window = 16;
    /// Start draining writes above this fill fraction.
    double write_drain_threshold = 0.75;
};

class MemCtrl final : public SimObject {
  public:
    MemCtrl(Simulator& sim, std::string name, const MemCtrlParams& params,
            AddrRange range);

    /// Fabric-facing port (bind an upstream RequestPort to it).
    [[nodiscard]] ResponsePort& port() noexcept { return port_; }
    [[nodiscard]] const AddrRange& range() const noexcept { return range_; }
    [[nodiscard]] const DramParams& dram_params() const noexcept
    {
        return dram_.params();
    }

    /// Row-hit fraction over all bursts so far (test/diagnostic hook).
    [[nodiscard]] double row_hit_rate() const;
    /// DRAM bursts issued so far (test/diagnostic hook).
    [[nodiscard]] std::uint64_t bursts() const noexcept
    {
        return dram_.bursts();
    }

    /// Checkpoint/restore queues, pacing horizons and DRAM bank state.
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

  private:
    // port_ handlers
    bool recv_req(PacketPtr& pkt);
    void retry_resp() { resp_q_.retry(); }

    struct WriteJob {
        Addr addr;
        std::uint32_t size;
    };

    void schedule_issue();
    void issue_next();
    void service_dram(Addr addr, std::uint32_t size, bool is_write,
                      Tick& completion);
    void maybe_unblock();
    [[nodiscard]] bool read_q_full() const
    {
        return read_q_.size() >= params_.read_queue_capacity;
    }
    [[nodiscard]] bool write_q_full() const
    {
        return write_q_.size() >= params_.write_queue_capacity;
    }

    MemCtrlParams params_;
    Tick frontend_ticks_ = 0;
    Tick backend_ticks_ = 0;
    double dram_ps_per_byte_ = 0.0; ///< issue pacing at peak bandwidth
    AddrRange range_;
    DramTiming dram_;
    ResponsePort port_;
    PacketQueue resp_q_;
    Event issue_event_;

    RingBuffer<PacketPtr> read_q_;
    /// Packed (channel,bank,row) key per queued read, parallel to read_q_
    /// (same admission order, same take_at shifts). The FR-FCFS window scan
    /// compares these against DramTiming's open-row keys — one 64-bit
    /// compare per entry instead of a full address decode.
    RingBuffer<std::uint64_t> read_keys_;
    RingBuffer<WriteJob> write_q_;
    Tick issue_free_ = 0;  ///< aggregate issue pacing (tracks peak bandwidth)
    bool draining_writes_ = false;
    bool blocked_upstream_ = false;

    stats::Scalar n_reads_{stat_group(), "reads", "read requests accepted"};
    stats::Scalar n_writes_{stat_group(), "writes",
                            "write requests accepted"};
    stats::Scalar bytes_read_{stat_group(), "bytes_read",
                              "bytes returned to the fabric"};
    stats::Scalar bytes_written_{stat_group(), "bytes_written",
                                 "bytes drained to DRAM"};
    stats::Average read_latency_ns_{
        stat_group(), "read_latency_ns",
        "accept-to-data latency of reads in nanoseconds"};
    stats::Scalar retries_{stat_group(), "retries",
                           "requests refused due to full queues"};
    stats::Scalar frfcfs_window_hits_{
        stat_group(), "frfcfs_window_hits",
        "reads issued on an open-row hit within the window (the hit may be "
        "the oldest entry itself)"};
    stats::Scalar frfcfs_oldest_picks_{
        stat_group(), "frfcfs_oldest_picks",
        "reads issued oldest-first (no row hit in the window)"};
    stats::ValueFn row_hit_rate_{stat_group(), "row_hit_rate",
                                 "row-buffer hit fraction",
                                 [this] { return row_hit_rate(); }};
};

/// Fixed-latency / fixed-bandwidth memory (Fig. 6 sweeps, unit tests).
struct SimpleMemParams {
    double latency_ns = 30.0;
    double bandwidth_gbps = 25.6;
    std::size_t queue_capacity = 64;
};

class SimpleMem final : public SimObject {
  public:
    SimpleMem(Simulator& sim, std::string name, const SimpleMemParams& params,
              AddrRange range);

    [[nodiscard]] ResponsePort& port() noexcept { return port_; }
    [[nodiscard]] const AddrRange& range() const noexcept { return range_; }

    /// Checkpoint/restore the response queue and bus/occupancy state.
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

  private:
    bool recv_req(PacketPtr& pkt);
    void retry_resp() { resp_q_.retry(); }

    SimpleMemParams params_;
    Tick latency_ticks_ = 0;
    double ps_per_byte_ = 0.0;
    AddrRange range_;
    ResponsePort port_;
    PacketQueue resp_q_;
    Tick bus_free_ = 0;
    bool blocked_upstream_ = false;

    stats::Scalar n_reads_{stat_group(), "reads", "read requests"};
    stats::Scalar n_writes_{stat_group(), "writes", "write requests"};
    stats::Scalar bytes_{stat_group(), "bytes", "total bytes transferred"};
};

} // namespace accesys::mem
