// Shared fixtures and mock components for the accesys test suites.
#pragma once

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/simulator.hh"

namespace accesys::test {

/// A requestor that records every response and can optionally refuse the
/// first N responses (to exercise the retry protocol).
class MockRequestor {
  public:
    explicit MockRequestor(std::string name)
        : port_(std::move(name), this,
                mem::Handlers<&MockRequestor::recv_resp,
                              &MockRequestor::retry_req>{})
    {
    }

    mem::RequestPort& port() { return port_; }

    bool recv_resp(mem::PacketPtr& pkt)
    {
        if (refuse_next_ > 0) {
            --refuse_next_;
            ++refused;
            return false;
        }
        responses.push_back(std::move(pkt));
        return true;
    }

    void retry_req() { ++req_retries; }

    void refuse_responses(unsigned n) { refuse_next_ = n; }

    std::vector<mem::PacketPtr> responses;
    unsigned req_retries = 0;
    unsigned refused = 0;

  private:
    mem::RequestPort port_;
    unsigned refuse_next_ = 0;
};

/// A responder that queues requests and answers on demand; can refuse the
/// first N requests.
class MockResponder {
  public:
    explicit MockResponder(std::string name)
        : port_(std::move(name), this,
                mem::Handlers<&MockResponder::recv_req,
                              &MockResponder::retry_resp>{})
    {
    }

    mem::ResponsePort& port() { return port_; }

    bool recv_req(mem::PacketPtr& pkt)
    {
        if (refuse_next_ > 0) {
            --refuse_next_;
            ++refused;
            return false;
        }
        requests.push_back(std::move(pkt));
        return true;
    }

    void retry_resp() { ++resp_retries; }

    /// Convert the oldest pending request into a response and send it.
    bool answer_one()
    {
        if (requests.empty()) {
            return false;
        }
        mem::PacketPtr pkt = std::move(requests.front());
        requests.pop_front();
        pkt->make_response();
        return port_.send_resp(pkt);
    }

    void refuse_requests(unsigned n) { refuse_next_ = n; }
    void grant_retry() { port_.send_retry_req(); }

    std::deque<mem::PacketPtr> requests;
    unsigned resp_retries = 0;
    unsigned refused = 0;

  private:
    mem::ResponsePort port_;
    unsigned refuse_next_ = 0;
};

/// Run the simulator until drained, asserting it terminates.
inline void drain(Simulator& sim, Tick horizon = 100 * kTicksPerMs)
{
    const auto rr = sim.run(horizon);
    ASSERT_NE(rr.cause, ExitCause::horizon_reached)
        << "simulation failed to drain by tick " << horizon;
}

} // namespace accesys::test
