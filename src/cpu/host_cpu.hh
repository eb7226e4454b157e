// Timing host CPU executing an explicit operation trace.
//
// The evaluation never depends on ISA details — only on *where* Non-GEMM
// operators execute and which memory they touch (paper §V-D). The CPU
// therefore executes a program of abstract ops:
//
//   * MmioWrite  — uncacheable 8-byte write (doorbell) through the fabric;
//   * PollFlag   — cacheable 8-byte read repeated until the flag matches
//                  (the DMA'd completion flag invalidates the polled line
//                  via bus snooping, which is what makes polling cheap);
//   * VectorOp   — a Non-GEMM operator: streams `bytes_in` line-granular
//                  reads and `bytes_out` posted writes through the cache
//                  port while an ALU pipe (simd_lanes elems/cycle) grinds
//                  `alu_ops` operations; completes when both finish;
//   * Delay      — fixed busy cycles;
//   * Call       — zero-time host hook (phase markers, descriptor setup).
//
// Ops run strictly in order (an in-order core with a small memory window).
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "mem/addr_range.hh"
#include "mem/backing_store.hh"
#include "mem/port.hh"
#include "sim/simulator.hh"

namespace accesys::cpu {

struct CpuParams {
    double freq_ghz = 1.0;     ///< paper Table II: ARM, 1 GHz
    unsigned mem_window = 8;   ///< outstanding line requests in vector ops
    /// Outstanding window for uncacheable targets (device memory). Uncached
    /// accesses are strongly ordered on real cores, so only a handful can
    /// be in flight — the source of the paper's NUMA penalty (Fig. 8).
    unsigned uncacheable_window = 4;
    std::uint32_t line_bytes = 64;
    unsigned simd_lanes = 4;   ///< ALU elements per cycle
    unsigned poll_interval_cycles = 50;
    /// Missed polls back off exponentially up to this cap (models a driver
    /// easing off the flag; keeps long offloads cheap to simulate).
    unsigned poll_interval_max_cycles = 8192;
    /// Liveness watchdog: a single PollFlag op issuing more than this many
    /// reads without a match raises a diagnostic SimError instead of
    /// spinning forever (a flag that can never arrive — e.g. the job went
    /// to a latched-failed link — with timeout_ns=0 would otherwise poll
    /// until the heat death of the host). 0 = unlimited.
    std::uint64_t max_polls_per_op = 0;

    void validate() const;
};

struct MmioWrite {
    Addr addr = 0;
    std::uint64_t value = 0;
};

struct PollFlag {
    Addr addr = 0;
    std::uint64_t expected = 1;
    /// Give-up budget: after this many ns without a match the poll op
    /// completes anyway (the driver's job timeout). 0 = poll forever.
    /// Callers decide success by reading the flag after the run.
    double timeout_ns = 0.0;
};

struct VectorOp {
    std::string label;
    Addr in_addr = 0;
    std::uint64_t bytes_in = 0;
    Addr out_addr = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t alu_ops = 0;
};

struct Delay {
    Cycles cycles = 0;
};

struct Call {
    std::function<void()> fn;
};

using CpuOp = std::variant<MmioWrite, PollFlag, VectorOp, Delay, Call>;

class HostCpu final : public SimObject, public Clocked {
  public:
    HostCpu(Simulator& sim, std::string name, const CpuParams& params,
            mem::BackingStore& store);

    /// Port toward the L1D cache (or directly to the fabric in tests).
    [[nodiscard]] mem::RequestPort& mem_port() noexcept { return port_; }

    /// Addresses in these ranges are accessed uncacheably (MMIO, DevMem).
    void add_uncacheable_range(mem::AddrRange range)
    {
        uncacheable_.push_back(range);
    }

    /// Execute `ops` in order; `on_done` fires after the last one.
    void run_program(std::vector<CpuOp> ops, std::function<void()> on_done);

    [[nodiscard]] bool idle() const noexcept { return !running_; }

    /// Checkpoint/restore execution position and in-op progress. The
    /// program itself (ops + completion closure) is not serialized: the
    /// caller re-runs the identical dispatch before restore (see
    /// core::Runner), and this overwrites pc_/progress on top of it.
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

  private:
    bool recv_resp(mem::PacketPtr& pkt);
    void retry_req()
    {
        blocked_ = false;
        // Only vector ops use backpressured streaming; a retry can only be
        // pending while one is current.
        if (pc_ < program_.size() &&
            std::holds_alternative<VectorOp>(program_[pc_])) {
            pump_vector();
        }
    }

    void next_op();
    void exec_current();
    void on_wake();
    void pump_vector();
    void vector_maybe_done();
    void issue_poll();
    [[nodiscard]] bool is_uncacheable(Addr addr) const;
    [[nodiscard]] bool send(mem::PacketPtr& pkt);

    CpuParams params_;
    mem::BackingStore* store_;
    mem::RequestPort port_;
    std::uint32_t requestor_id_;
    std::vector<mem::AddrRange> uncacheable_;

    std::vector<CpuOp> program_;
    std::function<void()> on_done_;
    std::size_t pc_ = 0;
    bool running_ = false;
    bool blocked_ = false;
    bool delay_pending_ = false;
    unsigned poll_backoff_ = 0; ///< current poll interval (cycles)
    Tick poll_deadline_ = kMaxTick; ///< give-up tick of the current poll
    std::uint64_t polls_this_op_ = 0; ///< liveness cap (max_polls_per_op)

    // Vector-op progress.
    std::uint64_t vec_read_issued_ = 0;
    std::uint64_t vec_read_done_ = 0; ///< responses received (diagnostics)
    std::uint64_t vec_write_issued_ = 0;
    unsigned vec_inflight_ = 0;
    Tick vec_alu_done_ = 0;
    bool vec_reads_complete_ = false;

    Event wake_event_{"", nullptr};
    Event poll_event_{"", nullptr};
    Event alu_event_{"", nullptr}; ///< vector-op ALU pipe completion

    stats::Scalar n_mmio_writes_{stat_group(), "mmio_writes",
                                 "doorbell/MMIO writes"};
    stats::Scalar n_polls_{stat_group(), "polls", "flag poll reads"};
    stats::Scalar n_vector_ops_{stat_group(), "vector_ops",
                                "Non-GEMM vector ops executed"};
    stats::Scalar vec_bytes_{stat_group(), "vector_bytes",
                             "bytes streamed by vector ops"};
    stats::Scalar busy_ticks_{stat_group(), "busy_ticks",
                              "ticks spent in program execution"};
};

} // namespace accesys::cpu
