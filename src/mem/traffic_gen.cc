#include "mem/traffic_gen.hh"

#include "sim/serialize.hh"

namespace accesys::mem {

void TrafficGenParams::validate() const
{
    require_cfg(req_bytes > 0 && total_bytes >= req_bytes,
                "traffic gen needs at least one request");
    require_cfg(working_set >= req_bytes, "working set too small");
    require_cfg(window >= 1, "traffic gen window must be >= 1");
    require_cfg(write_fraction >= 0.0 && write_fraction <= 1.0,
                "write fraction must be in [0,1]");
}

TrafficGen::TrafficGen(Simulator& sim, std::string name,
                       const TrafficGenParams& params)
    : SimObject(sim, std::move(name)),
      params_(params),
      port_(this->name() + ".port", this,
            Handlers<&TrafficGen::recv_resp, &TrafficGen::retry_req>{}),
      rng_(params.seed)
{
    params_.validate();
}

void TrafficGen::start(std::function<void()> on_done)
{
    on_done_ = std::move(on_done);
    start_tick_ = now();
    issued_ = completed_ = acked_bytes_ = 0;
    in_flight_ = 0;
    done_ = false;
    pump();
}

Addr TrafficGen::next_addr()
{
    if (params_.random_addresses) {
        const std::uint64_t slots = params_.working_set / params_.req_bytes;
        return params_.base + rng_.below(slots) * params_.req_bytes;
    }
    return params_.base + issued_ % params_.working_set;
}

void TrafficGen::pump()
{
    while (!done_ && issued_ < params_.total_bytes && !blocked_ &&
           in_flight_ < params_.window) {
        const Addr addr = next_addr();
        const bool write = rng_.chance(params_.write_fraction);
        PacketPtr pkt = write ? packet_pool().make_write(addr, params_.req_bytes)
                              : packet_pool().make_read(addr, params_.req_bytes);
        pkt->set_created_at(now());
        if (!port_.send_req(pkt)) {
            blocked_ = true;
            return;
        }
        if (write) {
            ++n_writes_;
        } else {
            ++n_reads_;
        }
        issued_ += params_.req_bytes;
        ++in_flight_;
    }
    if (issued_ >= params_.total_bytes && in_flight_ == 0 && !done_) {
        finish();
    }
}

bool TrafficGen::recv_resp(PacketPtr& pkt)
{
    if (pkt->cmd() == MemCmd::read_resp) {
        latency_ns_.sample(ticks_to_ns(now() - pkt->created_at()));
    }
    acked_bytes_ += pkt->size();
    pkt.reset();
    ensure(in_flight_ > 0, name(), ": window underflow");
    --in_flight_;
    ++completed_;
    pump();
    return true;
}

void TrafficGen::finish()
{
    done_ = true;
    end_tick_ = now();
    if (on_done_) {
        on_done_();
    }
}

void TrafficGen::serialize(Ckpt& ar)
{
    rng_.serialize(ar);
    ar.io(issued_, completed_, acked_bytes_, in_flight_, blocked_, done_,
          start_tick_, end_tick_);
}

double TrafficGen::achieved_gbps() const
{
    ensure(done_, "traffic gen still running");
    const double secs = ticks_to_sec(elapsed());
    return secs <= 0.0
               ? 0.0
               : static_cast<double>(params_.total_bytes) / secs / 1e9;
}

} // namespace accesys::mem
