// Per-domain staging of device->host functional writes.
//
// Under the parallel event core a device domain must not write host memory
// mid-window: the root thread (host CPU poll loops, stat probes) may be
// reading the same bytes. Instead the domain snapshots the source bytes at
// the moment the write logically happens and appends a journal record; the
// root thread applies records in tick order while the domain is quiesced,
// always as a prefix (tick <= t): at window barriers up to the tick the
// root domain has reached, at mid-window read fences
// (Simulator::sync_functional_reads) up to the read tick. An endpoint
// domain's window may end past the root's, so records can outlive a
// barrier; applying them early would let a host poll see a completion flag
// before its tick. Applying a prefix preserves the serial run's
// read-after-write values exactly: a serial poll at tick t observes
// precisely the dev->host copies submitted at ticks <= t.
//
// Thread contract: record() runs on the owning domain's thread; drain
// calls run on the root thread only while the domain is quiesced (the
// done_gen acquire at the barrier/fence is the happens-before edge). The
// two are never concurrent, so the journal itself needs no locks.
//
// Records and snapshot bytes live in flat vectors. The applied prefix is
// compacted away once it is at least half of the records (so each record
// moves at most once on average), and a full drain recycles the vectors in
// place, so the steady state reuses capacity and allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/backing_store.hh"
#include "sim/error.hh"
#include "sim/types.hh"

namespace accesys::mem {

class WriteJournal {
  public:
    WriteJournal() = default;
    WriteJournal(const WriteJournal&) = delete;
    WriteJournal& operator=(const WriteJournal&) = delete;

    /// Stage a write of `n` bytes to `dst`, snapshotting the current
    /// contents of `src` (device-local memory — safe to read on the
    /// domain thread) from `store`. `t` is the write's logical tick;
    /// event-order recording makes ticks nondecreasing.
    void record(Tick t, const BackingStore& store, Addr dst, Addr src,
                std::uint64_t n)
    {
        ensure(recs_.empty() || recs_.back().tick <= t,
               "write journal ticks must be nondecreasing");
        const std::uint64_t off = bytes_.size();
        bytes_.resize(off + n);
        store.read(src, bytes_.data() + off, n);
        recs_.push_back(Rec{t, dst, off, n});
        ++recorded_total_;
    }

    /// Apply every staged record with tick <= `t` to `store`, in record
    /// (= tick) order. Root thread only, domain quiesced.
    void apply_until(BackingStore& store, Tick t)
    {
        while (next_ < recs_.size() && recs_[next_].tick <= t) {
            const Rec& r = recs_[next_];
            store.write(r.dst, bytes_.data() + r.off, r.bytes);
            ++next_;
        }
        if (next_ == recs_.size()) {
            // Fully drained: recycle capacity so offsets restart at zero.
            recs_.clear();
            bytes_.clear();
            next_ = 0;
        } else if (next_ * 2 >= recs_.size()) {
            // Drop the applied prefix and rebase the survivors' offsets.
            const std::uint64_t base = recs_[next_].off;
            bytes_.erase(bytes_.begin(),
                         bytes_.begin() + static_cast<std::ptrdiff_t>(base));
            recs_.erase(recs_.begin(),
                        recs_.begin() + static_cast<std::ptrdiff_t>(next_));
            for (Rec& r : recs_) {
                r.off -= base;
            }
            next_ = 0;
        }
    }

    /// True when no staged record is waiting to be applied.
    [[nodiscard]] bool empty() const noexcept { return next_ == recs_.size(); }
    /// Records staged over the journal's lifetime (drained or not).
    [[nodiscard]] std::uint64_t recorded_total() const noexcept
    {
        return recorded_total_;
    }

  private:
    struct Rec {
        Tick tick;
        Addr dst;
        std::uint64_t off;   ///< offset of the snapshot in `bytes_`
        std::uint64_t bytes;
    };

    std::vector<Rec> recs_;
    std::vector<std::uint8_t> bytes_; ///< snapshot arena
    std::size_t next_ = 0;            ///< first unapplied record
    std::uint64_t recorded_total_ = 0;
};

} // namespace accesys::mem
