// Timing ports with a gem5-style retry protocol, plus a queued-egress helper.
//
// Protocol summary:
//   * A requestor owns a RequestPort; a responder owns a ResponsePort; the
//     two are bound 1:1.
//   * RequestPort::send_req(pkt) delivers to the responder. A `false` return
//     means "busy": the caller keeps ownership and must wait for the
//     requestor's retry handler before re-sending. At most one blocked
//     request per port.
//   * Responses flow the other way with the symmetric rules.
//   * `PacketQueue` implements the common egress pattern: schedule a packet
//     to leave at a future tick, retry automatically on backpressure.
//
// Dispatch structure: a port is bound to its owner exactly once, at
// construction, with the owner's two handlers named as member-function
// pointers — `port_(name, this, mem::Handlers<&Cache::recv_req,
// &Cache::retry_resp>{})`. The constructor template instantiates one static
// trampoline per handler, so delivery is a raw `fn(ctx, pkt)` call (the
// same trick Event::set_raw_callback uses) straight into the concrete
// handler: no vtable, no std::function, no rebinding. A PacketQueue is
// constructed with the port it drains and sends through it directly; its
// drain hook is a raw fn/ctx pair for the same reason.
#pragma once

#include <algorithm>
#include <string>
#include <utility>

#include "mem/packet.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulator.hh"

namespace accesys::mem {

/// A port owner's handler pair, as compile-time member-function pointers.
/// On a RequestPort: `bool Owner::Recv(PacketPtr&)` takes a response and
/// `void Owner::Retry()` re-sends a request the responder refused. On a
/// ResponsePort: Recv takes a request, Retry re-sends a refused response.
/// Recv returns false to backpressure (the peer waits for a retry).
template <auto Recv, auto Retry>
struct Handlers {};

namespace detail {

template <class Owner, auto Recv>
bool recv_thunk(void* owner, PacketPtr& pkt)
{
    return (static_cast<Owner*>(owner)->*Recv)(pkt);
}

template <class Owner, auto Retry>
void retry_thunk(void* owner)
{
    (static_cast<Owner*>(owner)->*Retry)();
}

} // namespace detail

class ResponsePort;

class RequestPort {
  public:
    using RecvFn = bool (*)(void*, PacketPtr&);
    using RetryFn = void (*)(void*);

    /// Responses go to `owner->*RecvResp`; `owner->*RetryReq` runs when
    /// the responder unblocks after refusing a request.
    template <class Owner, auto RecvResp, auto RetryReq>
    RequestPort(std::string name, Owner* owner,
                Handlers<RecvResp, RetryReq> /*handlers*/)
        : name_(std::move(name)),
          recv_resp_(&detail::recv_thunk<Owner, RecvResp>),
          retry_req_(&detail::retry_thunk<Owner, RetryReq>),
          ctx_(owner)
    {
    }

    void bind(ResponsePort& peer);
    [[nodiscard]] bool bound() const noexcept { return peer_ != nullptr; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Checkpoint/restore the retry obligation (the only dynamic state a
    /// port holds; owners call this from their serialize()).
    void serialize(Ckpt& ar);

    /// Send a request to the bound responder. On `false` the caller keeps
    /// `pkt` and must wait for the owner's retry handler.
    [[nodiscard]] bool send_req(PacketPtr& pkt);

    /// Notify the responder that this side can accept responses again.
    void send_retry_resp();

  private:
    friend class ResponsePort;
    std::string name_;
    RecvFn recv_resp_;  ///< delivers responses to this port's owner
    RetryFn retry_req_; ///< wakes this port's owner after backpressure
    void* ctx_;
    ResponsePort* peer_ = nullptr;
    bool want_retry_ = false; ///< peer owes us a request retry
};

class ResponsePort {
  public:
    using RecvFn = RequestPort::RecvFn;
    using RetryFn = RequestPort::RetryFn;

    /// Requests go to `owner->*RecvReq`; `owner->*RetryResp` runs when
    /// the requestor unblocks after refusing a response.
    template <class Owner, auto RecvReq, auto RetryResp>
    ResponsePort(std::string name, Owner* owner,
                 Handlers<RecvReq, RetryResp> /*handlers*/)
        : name_(std::move(name)),
          recv_req_(&detail::recv_thunk<Owner, RecvReq>),
          retry_resp_(&detail::retry_thunk<Owner, RetryResp>),
          ctx_(owner)
    {
    }

    void bind(RequestPort& peer) { peer.bind(*this); }
    [[nodiscard]] bool bound() const noexcept { return peer_ != nullptr; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Checkpoint/restore the retry obligation (the only dynamic state a
    /// port holds; owners call this from their serialize()).
    void serialize(Ckpt& ar);

    /// Send a response to the bound requestor. On `false` the caller keeps
    /// `pkt` and must wait for the owner's retry handler.
    [[nodiscard]] bool send_resp(PacketPtr& pkt);

    /// Notify the requestor that this side can accept requests again.
    void send_retry_req();

  private:
    friend class RequestPort;
    std::string name_;
    RecvFn recv_req_;    ///< delivers requests to this port's owner
    RetryFn retry_resp_; ///< wakes this port's owner after backpressure
    void* ctx_;
    RequestPort* peer_ = nullptr;
    bool want_retry_ = false; ///< peer owes us a response retry
};

inline bool RequestPort::send_req(PacketPtr& pkt)
{
    ensure(peer_ != nullptr, "unbound request port: ", name_);
    ensure(pkt != nullptr && pkt->is_request(),
           "send_req needs a request packet on ", name_);
    if (peer_->recv_req_(peer_->ctx_, pkt)) {
        return true;
    }
    peer_->want_retry_ = true;
    return false;
}

inline void RequestPort::send_retry_resp()
{
    ensure(peer_ != nullptr, "unbound request port: ", name_);
    if (want_retry_) {
        want_retry_ = false;
        peer_->retry_resp_(peer_->ctx_);
    }
}

inline bool ResponsePort::send_resp(PacketPtr& pkt)
{
    ensure(peer_ != nullptr, "unbound response port: ", name_);
    ensure(pkt != nullptr && pkt->is_response(),
           "send_resp needs a response packet on ", name_);
    if (peer_->recv_resp_(peer_->ctx_, pkt)) {
        return true;
    }
    peer_->want_retry_ = true;
    return false;
}

inline void ResponsePort::send_retry_req()
{
    ensure(peer_ != nullptr, "unbound response port: ", name_);
    if (want_retry_) {
        want_retry_ = false;
        peer_->retry_req_(peer_->ctx_);
    }
}

/// Deferred-egress queue: packets become sendable at a scheduled tick and are
/// pushed out in order, transparently honouring peer backpressure.
///
/// The queue drains into the port it is constructed with (requests out of
/// a RequestPort, responses out of a ResponsePort); the port's owner calls
/// `retry()` from its retry handler. Declare the queue after its port.
class PacketQueue {
  public:
    using HookFn = void (*)(void*);

    PacketQueue(Simulator& sim, const std::string& name, RequestPort& port)
        : PacketQueue(sim, name)
    {
        send_ = [](void* p, PacketPtr& pkt) {
            return static_cast<RequestPort*>(p)->send_req(pkt);
        };
        port_ = &port;
    }

    PacketQueue(Simulator& sim, const std::string& name, ResponsePort& port)
        : PacketQueue(sim, name)
    {
        send_ = [](void* p, PacketPtr& pkt) {
            return static_cast<ResponsePort*>(p)->send_resp(pkt);
        };
        port_ = &port;
    }

    /// Queue `pkt` to be sent no earlier than `ready` (absolute tick).
    ///
    /// Same-resolved-tick fusion: when the packet is already sendable, the
    /// queue is idle, and nothing else is pending at the current tick, the
    /// send event this push would schedule is guaranteed to be the very
    /// next dispatch — so the hand-off happens synchronously and the
    /// intermediate self-event is skipped entirely (disabled together with
    /// batch dispatch by ACCESYS_NO_BATCH; results are identical by
    /// contract).
    void push(PacketPtr pkt, Tick ready)
    {
        // Guard ordering matters: most pushes carry a future ready tick, so
        // the tick compare disqualifies first; the queue-state flags are
        // one cache line; tick_quiescent (a queue probe) runs last.
        const Tick now = eq_->now();
        if (ready <= now && q_.empty() && !blocked_ && fuse_ &&
            !in_send_ && !send_event_.scheduled() &&
            eq_->tick_quiescent()) {
            in_send_ = true;
            const bool ok = send_(port_, pkt);
            in_send_ = false;
            if (ok) {
                if (drain_hook_ != nullptr) {
                    drain_hook_(drain_ctx_);
                }
                return;
            }
            // Refused: same as a try_send head refusal — hold the packet,
            // wait for the peer's retry().
            blocked_ = true;
            q_.push_back(Entry{std::move(pkt), ready});
            return;
        }
        q_.push_back(Entry{std::move(pkt), ready});
        if (!blocked_) {
            // Inline arm(): the queue cannot be empty after the push, and
            // egress is FIFO — the wakeup tracks the *head's* ready tick
            // (an out-of-order earlier `ready` must not wake the queue
            // before the head can actually leave). Hop sends go through
            // the express lane: quiescent memory-hierarchy chains
            // trampoline hop-to-hop without touching the event heap.
            const Tick head_ready = q_.front().ready;
            const Tick when = head_ready > now ? head_ready : now;
            if (!send_event_.scheduled()) {
                eq_->schedule_express(send_event_, when);
            } else if (send_event_.when() > when) {
                eq_->reschedule(send_event_, when);
            }
        }
    }

    /// Queue `pkt` for immediate send.
    void push_now(PacketPtr pkt) { push(std::move(pkt), eq_->now()); }

    /// Peer signalled readiness: resume sending.
    void retry()
    {
        blocked_ = false;
        try_send();
    }

    /// Invoked after each packet leaves the queue (used by bounded owners to
    /// wake requestors they previously refused).
    void set_drain_hook(HookFn hook, void* ctx)
    {
        drain_hook_ = hook;
        drain_ctx_ = ctx;
    }

    [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }
    [[nodiscard]] bool blocked() const noexcept { return blocked_; }

    /// Checkpoint/restore the queued entries (re-materialized from the
    /// calling thread's pool), the blocked flag and the send event.
    void serialize(Ckpt& ar);

    /// Tick at which the head entry becomes sendable (kMaxTick when empty).
    [[nodiscard]] Tick head_ready() const noexcept
    {
        return q_.empty() ? kMaxTick : q_.front().ready;
    }

  private:
    struct Entry {
        PacketPtr pkt;
        Tick ready;
    };

    PacketQueue(Simulator& sim, const std::string& name)
        : eq_(&sim.current_queue()), send_event_(name + ".send", nullptr)
    {
        send_event_.set_raw_callback(
            [](void* self) { static_cast<PacketQueue*>(self)->try_send(); },
            this);
        fuse_ = eq_->batching_enabled();
    }

    void arm()
    {
        // While blocked, progress comes from retry(), not from the event.
        if (q_.empty() || blocked_) {
            return;
        }
        const Tick when = std::max(q_.front().ready, eq_->now());
        if (!send_event_.scheduled()) {
            eq_->schedule_express(send_event_, when);
        } else if (send_event_.when() > when) {
            eq_->reschedule(send_event_, when);
        }
    }

    void try_send()
    {
        bool sent_any = false;
        while (!q_.empty() && !blocked_ && q_.front().ready <= eq_->now()) {
            PacketPtr& pkt = q_.front().pkt;
            if (!send_(port_, pkt)) {
                blocked_ = true;
                break;
            }
            q_.pop_front();
            sent_any = true;
        }
        arm();
        if (sent_any && drain_hook_ != nullptr) {
            drain_hook_(drain_ctx_);
        }
    }

    // try_send()'s working set first; the Event (large: name + callback)
    // sits behind it. Bound to the constructing domain's queue so owners
    // inside a simulation domain schedule locally.
    EventQueue* eq_;
    RingBuffer<Entry> q_;
    bool blocked_ = false;
    bool fuse_ = true;    ///< same-tick fusion on (mirrors batch dispatch)
    bool in_send_ = false; ///< re-entrancy guard for the fused hand-off
    bool (*send_)(void*, PacketPtr&) = nullptr; ///< send_req or send_resp
    void* port_ = nullptr;
    HookFn drain_hook_ = nullptr;
    void* drain_ctx_ = nullptr;
    Event send_event_;
};

} // namespace accesys::mem
