// Construction-time snapshot of every ACCESYS_* environment knob.
//
// Hot paths must never call getenv(): libc walks `environ` on every call,
// and reading the environment from multiple simulation threads is UB once
// anything mutates it. All runtime escape hatches are therefore read
// exactly once, the first time any component asks, and cached as plain
// flags. Components capture the values they need at construction time, so
// a knob flipped mid-process has no effect — which is also the only
// thread-safe semantics available.
//
// Knobs (boolean ones: unset or empty = default, `0` = off, anything
// else = on, so `ACCESYS_NO_BATCH=0` keeps batching):
//   ACCESYS_NO_BATCH=1       disable same-tick batched dispatch
//   ACCESYS_NO_HOP_FUSION=1  disable the event-queue express lane
//   ACCESYS_EAGER_CREDITS=1  per-return PCIe credit events (lazy default)
//   ACCESYS_FAULTS=0         ignore any configured FaultPlan (default on)
//   ACCESYS_THREADS=N        simulation worker threads (default 1 = serial)
#pragma once

namespace accesys {

struct EnvFlags {
    bool no_batch = false;
    bool no_hop_fusion = false;
    bool eager_credits = false;
    bool faults = true;
    unsigned threads = 1;

    /// The process-wide snapshot (taken on first use, immutable after —
    /// except via set_for_test).
    [[nodiscard]] static const EnvFlags& get();

    /// Parse the environment now (what the snapshot is taken from).
    [[nodiscard]] static EnvFlags read();

    /// TEST ONLY: replace the process snapshot. Components capture flag
    /// values at construction, so call this only while no Simulator (or
    /// other flag consumer) exists, and restore the previous snapshot
    /// afterwards. Not thread-safe.
    static void set_for_test(const EnvFlags& flags);
};

/// Shorthand for EnvFlags::get().
[[nodiscard]] inline const EnvFlags& env_flags()
{
    return EnvFlags::get();
}

} // namespace accesys
