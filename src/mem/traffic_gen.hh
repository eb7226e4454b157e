// Synthetic traffic generator for memory-system characterisation.
//
// Drives a RequestPort with a configurable stream (sequential or random,
// reads or writes, bounded outstanding window) and reports achieved
// bandwidth and latency. Used by Table III validation benches and the
// memory/cache test suites.
#pragma once

#include <functional>

#include "mem/port.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace accesys::mem {

struct TrafficGenParams {
    Addr base = 0;
    std::uint64_t working_set = 1 * kMiB; ///< wraps within [base, base+ws)
    std::uint64_t total_bytes = 4 * kMiB; ///< stop after this much traffic
    std::uint32_t req_bytes = 64;
    unsigned window = 16;       ///< outstanding requests
    double write_fraction = 0.0;
    bool random_addresses = false;
    std::uint64_t seed = 1;

    void validate() const;
};

class TrafficGen final : public SimObject {
  public:
    TrafficGen(Simulator& sim, std::string name,
               const TrafficGenParams& params);

    [[nodiscard]] RequestPort& port() noexcept { return port_; }

    /// Begin streaming; `on_done` fires when the last response returns.
    void start(std::function<void()> on_done = {});

    [[nodiscard]] bool done() const noexcept { return done_; }
    [[nodiscard]] Tick elapsed() const noexcept
    {
        return end_tick_ - start_tick_;
    }
    [[nodiscard]] double achieved_gbps() const;
    [[nodiscard]] double mean_read_latency_ns() const
    {
        return latency_ns_.mean();
    }

    /// Stream position and window occupancy. `on_done_` is a closure and
    /// follows the restore protocol: the restoring process re-calls
    /// start() with the same callback before loading the snapshot.
    void serialize(Ckpt& ar) override;

  private:
    bool recv_resp(PacketPtr& pkt);
    void retry_req()
    {
        blocked_ = false;
        pump();
    }

    void pump();
    void finish();
    [[nodiscard]] Addr next_addr();

    TrafficGenParams params_;
    RequestPort port_;
    Rng rng_;
    std::function<void()> on_done_;

    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0; ///< responses received (reads/nonposted)
    std::uint64_t acked_bytes_ = 0;
    unsigned in_flight_ = 0;
    bool blocked_ = false;
    bool done_ = false;
    Tick start_tick_ = 0;
    Tick end_tick_ = 0;

    stats::Scalar n_reads_{stat_group(), "reads", "read requests issued"};
    stats::Scalar n_writes_{stat_group(), "writes", "write requests issued"};
    stats::Average latency_ns_{stat_group(), "latency_ns",
                               "read round-trip latency (ns)"};
};

} // namespace accesys::mem
