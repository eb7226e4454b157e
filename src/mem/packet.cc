#include "mem/packet.hh"

#include <sstream>

#include "sim/serialize.hh"

namespace accesys::mem {

namespace {
std::uint32_t next_requestor_id = 1;
} // namespace

std::uint32_t alloc_requestor_id()
{
    return next_requestor_id++;
}

void reset_requestor_ids()
{
    next_requestor_id = 1;
}

std::string Packet::describe() const
{
    std::ostringstream os;
    os << to_string(cmd_) << " addr=0x" << std::hex << addr_ << std::dec
       << " size=" << size_ << " req=" << requestor_ << " tag=" << tag_;
    if (flags.uncacheable) {
        os << " UC";
    }
    if (flags.from_device) {
        os << " DEV";
    }
    if (flags.needs_translation) {
        os << " VA";
    }
    return os.str();
}

PacketPool::~PacketPool()
{
    for (Packet* p : free_) {
        delete p;
    }
}

void PacketPool::reserve(std::size_t n)
{
    free_.reserve(free_.size() + n);
    for (std::size_t i = 0; i < n; ++i) {
        ++allocs_total_;
        lifetime_allocs_.fetch_add(1, std::memory_order_relaxed);
        Packet* p = new Packet(MemCmd::read_req, 0, 0);
        p->pool_ = this;
        free_.push_back(p);
    }
}

PacketPool& PacketPool::global()
{
    // Leaked intentionally: packets may be recycled from destructors of
    // static-storage objects, so the pool must outlive all of them.
    static PacketPool* pool = new PacketPool();
    return *pool;
}

thread_local PacketPool* PacketPool::current_ = nullptr;
std::atomic<std::uint64_t> PacketPool::lifetime_allocs_{0};

void Packet::serialize(Ckpt& ar)
{
    ar.io(cmd_, addr_, size_, orig_addr_, requestor_, stream_, tag_,
          created_at_, flags.uncacheable, flags.from_device,
          flags.needs_translation, flags.posted, flags.poisoned,
          route_depth_, payload_size_);
    ar.raw(route_.data(), route_depth_ * sizeof(route_[0]));
    ar.raw(payload_.data(), payload_size_);
}

void PacketPool::serialize_counters(Ckpt& ar)
{
    ar.io(allocs_total_, acquires_total_, recycles_total_);
}

void ckpt_packet(Ckpt& ar, PacketPtr& pkt)
{
    std::uint8_t present = pkt != nullptr ? 1 : 0;
    ar.io(present);
    if (present == 0) {
        if (ar.loading()) {
            pkt.reset();
        }
        return;
    }
    if (ar.loading()) {
        pkt = PacketPool::current().make(MemCmd::read_req, 0, 0);
    }
    pkt->serialize(ar);
}

} // namespace accesys::mem
