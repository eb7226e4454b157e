#include "pcie/tlp.hh"

#include <sstream>

#include "sim/serialize.hh"

namespace accesys::pcie {

std::string Tlp::describe() const
{
    std::ostringstream os;
    os << to_string(type) << " addr=0x" << std::hex << addr << std::dec
       << " len=" << length << " tag=" << static_cast<int>(tag) << " req="
       << requester;
    if (type == TlpType::completion) {
        os << " off=" << byte_offset << (is_last ? " last" : "");
    }
    return os.str();
}

TlpPool::~TlpPool()
{
    for (Tlp* t : free_) {
        delete t;
    }
}

TlpPool& TlpPool::global()
{
    // Leaked intentionally: TLPs may be recycled from destructors of
    // static-storage objects, so the pool must outlive all of them.
    static TlpPool* pool = new TlpPool();
    return *pool;
}

thread_local TlpPool* TlpPool::current_ = nullptr;
std::atomic<std::uint64_t> TlpPool::lifetime_allocs_{0};

void Tlp::serialize(Ckpt& ar)
{
    ar.io(type, addr, length, tag, requester, byte_offset, is_last, dl_seq,
          dl_corrupt, poisoned, data_size_);
    ar.raw(data_.data(), data_size_);
}

void TlpPool::serialize_counters(Ckpt& ar)
{
    ar.io(allocs_total_, acquires_total_, recycles_total_);
}

void ckpt_tlp(Ckpt& ar, TlpPtr& tlp)
{
    std::uint8_t present = tlp != nullptr ? 1 : 0;
    ar.io(present);
    if (present == 0) {
        if (ar.loading()) {
            tlp.reset();
        }
        return;
    }
    if (ar.loading()) {
        tlp = TlpPool::current().make();
    }
    tlp->serialize(ar);
}

} // namespace accesys::pcie
