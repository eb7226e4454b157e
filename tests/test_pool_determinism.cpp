// Pooling must be invisible to simulation results: running the same sim
// twice in one process — first with cold (empty) Packet/TLP pools, then
// with pools warmed by the first run's recycled objects — must produce
// bit-identical stats registries and end ticks. Any field the pools fail
// to re-initialise on reuse would show up here as a diverging counter.
// The same contract extends to the parallel event core: a run carved
// into per-endpoint domains on N worker threads must be bit-identical
// to the serial run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/runner.hh"
#include "mem/packet.hh"
#include "pcie/tlp.hh"
#include "sim/env_flags.hh"

namespace accesys {
namespace {

/// RAII override of the process-wide EnvFlags snapshot. Components capture
/// flag values at construction, so the swap is only valid between Simulator
/// lifetimes — which is exactly how these tests use it.
class ScopedEnvFlags {
  public:
    template <typename Fn>
    explicit ScopedEnvFlags(Fn tweak) : saved_(env_flags())
    {
        EnvFlags flags = saved_;
        tweak(flags);
        EnvFlags::set_for_test(flags);
    }
    ~ScopedEnvFlags() { EnvFlags::set_for_test(saved_); }
    ScopedEnvFlags(const ScopedEnvFlags&) = delete;
    ScopedEnvFlags& operator=(const ScopedEnvFlags&) = delete;

  private:
    EnvFlags saved_;
};

struct SimSnapshot {
    std::string stats_text;
    std::string stats_json;
    Tick end_tick = 0;
    std::uint64_t events = 0;
    std::uint64_t barriers = 0;
    Tick quantum = 0;
    bool verified = false;
};

/// The paper-default config with `devices` endpoints. `threads` == 0
/// leaves the config default (the ACCESYS_THREADS snapshot) in place; any
/// other value pins the worker budget. A non-null `fault` installs that
/// FaultPlan. Placement::devmem gives every endpoint HBM2 device memory.
core::SystemConfig gemm_config(std::size_t devices, unsigned threads,
                               const FaultPlan* fault,
                               core::Placement placement)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    if (devices > 1) {
        cfg.set_num_devices(devices);
    }
    if (placement == core::Placement::devmem) {
        cfg.set_devmem("HBM2");
    }
    if (threads != 0) {
        cfg.threads = threads;
    }
    if (fault != nullptr) {
        cfg.fault_plan = *fault;
    }
    return cfg;
}

SimSnapshot run_gemm_sim(std::size_t devices, std::uint32_t size,
                         unsigned threads = 0,
                         const FaultPlan* fault = nullptr,
                         core::Placement placement = core::Placement::host)
{
    core::System sys(gemm_config(devices, threads, fault, placement));
    core::Runner runner(sys);
    const workload::GemmSpec spec{size, size, size, /*seed=*/3};
    for (std::size_t d = 0; d < devices; ++d) {
        runner.dispatch(d, spec, placement, /*verify=*/true);
    }
    const auto res = runner.run_dispatched();

    SimSnapshot snap;
    snap.end_tick = sys.sim().now();
    snap.barriers = sys.sim().barrier_waits();
    snap.quantum = sys.sim().quantum();
    snap.events = sys.sim().queue().events_processed();
    snap.verified = res.all_verified();
    std::ostringstream text;
    sys.stats().write_text(text);
    snap.stats_text = text.str();
    std::ostringstream json;
    sys.stats().write_json(json);
    snap.stats_json = json.str();
    return snap;
}

/// Split-at-`ckpt_at` variant of run_gemm_sim: one System runs until the
/// scheduled checkpoint fires and exits, then a *fresh* System is built
/// from the same config, the identical dispatch sequence is re-run (the
/// restore protocol: programs and closures are reconstructed, not
/// serialized), the snapshot overwrites its dynamic state, and the run
/// finishes. The returned snapshot must be bit-identical to the straight
/// run's. Saving and resuming may use different worker budgets — the
/// config hash deliberately excludes `threads`.
SimSnapshot run_gemm_split(std::size_t devices, std::uint32_t size,
                           unsigned save_threads, unsigned restore_threads,
                           const FaultPlan* fault, Tick ckpt_at,
                           const std::string& path,
                           core::Placement placement = core::Placement::host)
{
    const workload::GemmSpec spec{size, size, size, /*seed=*/3};
    {
        core::System sys(gemm_config(devices, save_threads, fault, placement));
        core::Runner runner(sys);
        for (std::size_t d = 0; d < devices; ++d) {
            runner.dispatch(d, spec, placement, /*verify=*/true);
        }
        sys.sim().request_checkpoint_at(path, ckpt_at);
        const auto res = runner.run_dispatched();
        EXPECT_TRUE(res.checkpointed)
            << "run finished at " << res.end
            << " before the checkpoint tick " << ckpt_at;
    }

    core::System sys(gemm_config(devices, restore_threads, fault, placement));
    core::Runner runner(sys);
    for (std::size_t d = 0; d < devices; ++d) {
        runner.dispatch(d, spec, placement, /*verify=*/true);
    }
    runner.set_restore_path(path);
    const auto res = runner.run_dispatched();
    std::remove(path.c_str());

    SimSnapshot snap;
    snap.end_tick = sys.sim().now();
    snap.events = sys.sim().queue().events_processed();
    snap.verified = res.all_verified();
    std::ostringstream text;
    sys.stats().write_text(text);
    snap.stats_text = text.str();
    std::ostringstream json;
    sys.stats().write_json(json);
    snap.stats_json = json.str();
    return snap;
}

TEST(PoolDeterminism, ColdVsWarmPoolsAreBitIdentical)
{
    // First run: the global pools start cold (or in whatever state earlier
    // tests left them); it both produces the reference and warms the pools.
    const SimSnapshot cold = run_gemm_sim(1, 48);
    EXPECT_TRUE(cold.verified);
    EXPECT_GT(mem::packet_pool().free_count(), 0u);
    EXPECT_GT(pcie::tlp_pool().free_count(), 0u);

    // Second run: every packet/TLP is now a recycled object.
    const SimSnapshot warm = run_gemm_sim(1, 48);
    EXPECT_TRUE(warm.verified);
    EXPECT_EQ(cold.end_tick, warm.end_tick);
    EXPECT_EQ(cold.events, warm.events);
    EXPECT_EQ(cold.stats_text, warm.stats_text);
    EXPECT_EQ(cold.stats_json, warm.stats_json);
}

TEST(PoolDeterminism, MultiDeviceWarmRerunIsBitIdentical)
{
    const SimSnapshot first = run_gemm_sim(2, 32);
    const SimSnapshot second = run_gemm_sim(2, 32);
    EXPECT_TRUE(first.verified);
    EXPECT_EQ(first.end_tick, second.end_tick);
    EXPECT_EQ(first.events, second.events);
    EXPECT_EQ(first.stats_text, second.stats_text);
}

TEST(PoolDeterminism, ParallelDomainsMatchSerialBitIdentical)
{
    // The parallel event core's determinism contract: carving each
    // endpoint subtree into its own quantum-synchronized domain thread
    // (cfg.threads >= 2) must be invisible to simulation results — the
    // end tick and both stats dumps are bit-identical to the serial run
    // for any worker count. Each parallel System constructs cold
    // per-domain Packet/TLP pools, so the first run is the cold case and
    // the rerun checks run-to-run stability on warmed global pools.
    // Event *counts* are not compared: the root queue's dispatch counter
    // covers only the root domain in parallel runs, and cross-domain
    // handoffs re-arm delivery events at barriers.
    const SimSnapshot serial = run_gemm_sim(4, 32, /*threads=*/1);
    EXPECT_TRUE(serial.verified);

    for (const unsigned threads : {2U, 4U}) {
        const SimSnapshot cold = run_gemm_sim(4, 32, threads);
        EXPECT_TRUE(cold.verified) << "threads=" << threads;
        EXPECT_EQ(serial.end_tick, cold.end_tick) << "threads=" << threads;
        EXPECT_EQ(serial.stats_text, cold.stats_text)
            << "threads=" << threads;
        EXPECT_EQ(serial.stats_json, cold.stats_json)
            << "threads=" << threads;

        const SimSnapshot warm = run_gemm_sim(4, 32, threads);
        EXPECT_TRUE(warm.verified) << "threads=" << threads;
        EXPECT_EQ(serial.end_tick, warm.end_tick) << "threads=" << threads;
        EXPECT_EQ(serial.stats_text, warm.stats_text)
            << "threads=" << threads;
        EXPECT_EQ(serial.stats_json, warm.stats_json)
            << "threads=" << threads;
    }
}

TEST(PoolDeterminism, DevmemPromisesStretchWindows)
{
    // Barrier-count regression lock for the parallel core's window rule.
    // While a devmem GEMM computes, its endpoint sends nothing upstream
    // until the completion flag, and the controller bounds when that can
    // be; windows then run to the host's next event instead of 2Q past
    // the endpoints' next event, so a busy devmem fleet meets fewer than
    // a tenth of end_tick / Q barriers. A window rule that ignores the
    // promises, or a grid that shrinks windows below Q, fails this before
    // it shows up as lost throughput. Results stay bit-identical to the
    // serial run at 2 and 4 threads.
    const SimSnapshot serial =
        run_gemm_sim(4, 128, /*threads=*/1, nullptr, core::Placement::devmem);
    ASSERT_TRUE(serial.verified);
    for (const unsigned threads : {2U, 4U}) {
        const SimSnapshot par = run_gemm_sim(4, 128, threads, nullptr,
                                             core::Placement::devmem);
        EXPECT_TRUE(par.verified) << "threads=" << threads;
        EXPECT_EQ(serial.end_tick, par.end_tick) << "threads=" << threads;
        EXPECT_EQ(serial.stats_text, par.stats_text) << "threads=" << threads;
        EXPECT_EQ(serial.stats_json, par.stats_json) << "threads=" << threads;
        ASSERT_GT(par.quantum, 0u);
        EXPECT_LT(par.barriers * par.quantum * 10, par.end_tick)
            << par.barriers << " barriers at quantum " << par.quantum
            << ", threads=" << threads;
    }
}

TEST(PoolDeterminism, BackToBackRoundsBitIdenticalAcrossThreads)
{
    // Each run() call ends with the endpoint domains' clocks up to a
    // window ahead of the root's exit tick, and the next call starts from
    // there. Three dispatch rounds and a single-device run_gemm() on one
    // System must match the serial run for both placements.
    for (const core::Placement place :
         {core::Placement::devmem, core::Placement::host}) {
        auto run = [place](unsigned threads) {
            core::System sys(gemm_config(4, threads, nullptr, place));
            core::Runner runner(sys);
            bool verified = true;
            for (std::uint32_t round = 0; round < 3; ++round) {
                const workload::GemmSpec spec{32 + 16 * round, 32, 48,
                                              /*seed=*/round};
                for (std::size_t d = 0; d < 4; ++d) {
                    runner.dispatch(d, spec, place, /*verify=*/true);
                }
                verified = runner.run_dispatched().all_verified() && verified;
            }
            verified = runner.run_gemm({64, 64, 64, /*seed=*/9}, place,
                                       /*verify=*/true)
                           .verified &&
                       verified;
            std::ostringstream json;
            sys.stats().write_json(json);
            EXPECT_TRUE(verified) << "threads=" << threads;
            return std::make_pair(sys.sim().now(), json.str());
        };
        const auto serial = run(1);
        for (const unsigned threads : {2U, 4U}) {
            const auto par = run(threads);
            EXPECT_EQ(serial.first, par.first) << "threads=" << threads;
            EXPECT_EQ(serial.second, par.second) << "threads=" << threads;
        }
    }
}

TEST(PoolDeterminism, BatchedDispatchMatchesUnbatchedBitExactly)
{
    // Same-tick batch dispatch and same-resolved-tick egress fusion
    // (sim/event.hh, mem/port.hh) must be invisible to simulation results:
    // a run with the ACCESYS_NO_BATCH escape hatch set — forcing the
    // one-event-at-a-time path and disabling queue fusion — must produce
    // the same end tick and bit-identical stats dumps as the default
    // batched run. Event *counts* may differ (fusion elides self-events),
    // so they are deliberately not compared. Components capture the flag
    // at EventQueue construction, so the snapshot override swaps modes
    // between Simulator lifetimes within one process.
    const SimSnapshot batched = run_gemm_sim(2, 48);
    EXPECT_TRUE(batched.verified);

    SimSnapshot unbatched;
    {
        const ScopedEnvFlags override_flags(
            [](EnvFlags& f) { f.no_batch = true; });
        unbatched = run_gemm_sim(2, 48);
    }
    EXPECT_TRUE(unbatched.verified);

    EXPECT_EQ(batched.end_tick, unbatched.end_tick);
    EXPECT_EQ(batched.stats_text, unbatched.stats_text);
    EXPECT_EQ(batched.stats_json, unbatched.stats_json);
    EXPECT_GE(unbatched.events, batched.events)
        << "fusion may only remove self-events, never add them";
}

TEST(PoolDeterminism, HopFusionExpressLaneMatchesDisabledBitExactly)
{
    // The memory-hierarchy express lane (sim/event.hh schedule_express)
    // stages hop events in a one-slot lane and dispatches them straight
    // from it when they are the earliest pending work. The staged entry
    // carries the same (tick, priority, sequence) key a plain schedule()
    // would have produced, so dispatch order — and with it every stat and
    // the end tick — must be identical with no_hop_fusion set (which
    // degrades every schedule_express to schedule()). Unlike batch fusion
    // and lazy credits, the lane elides no events, so the counts must
    // match exactly as well.
    const SimSnapshot fused = run_gemm_sim(2, 48);
    EXPECT_TRUE(fused.verified);

    SimSnapshot plain;
    {
        const ScopedEnvFlags override_flags(
            [](EnvFlags& f) { f.no_hop_fusion = true; });
        plain = run_gemm_sim(2, 48);
    }
    EXPECT_TRUE(plain.verified);

    EXPECT_EQ(fused.end_tick, plain.end_tick);
    EXPECT_EQ(fused.events, plain.events)
        << "the express lane must dispatch, not elide";
    EXPECT_EQ(fused.stats_text, plain.stats_text);
    EXPECT_EQ(fused.stats_json, plain.stats_json);
}

TEST(PoolDeterminism, LazyCreditsMatchEagerBitExactly)
{
    // Lazy link-credit accounting (pcie/link.cc) elides the per-TLP
    // credit-return event on unstarved directions; a starved sender's kick
    // is scheduled for the exact tick the eager model would have fired it.
    // A run with eager_credits set — restoring the per-return event —
    // must therefore produce the same end tick and bit-identical stats
    // dumps. Event *counts* may differ (the elided kicks were no-ops), so
    // they are deliberately not compared. PcieLink captures the flag at
    // construction; the snapshot override swaps modes between Simulator
    // lifetimes within one process.
    const SimSnapshot lazy = run_gemm_sim(2, 48);
    EXPECT_TRUE(lazy.verified);

    SimSnapshot eager;
    {
        const ScopedEnvFlags override_flags(
            [](EnvFlags& f) { f.eager_credits = true; });
        eager = run_gemm_sim(2, 48);
    }
    EXPECT_TRUE(eager.verified);

    EXPECT_EQ(lazy.end_tick, eager.end_tick);
    EXPECT_EQ(lazy.stats_text, eager.stats_text);
    EXPECT_EQ(lazy.stats_json, eager.stats_json);
    EXPECT_GE(eager.events, lazy.events)
        << "lazy accounting may only elide credit events, never add them";
}

TEST(PoolDeterminism, SeededFaultPlanBitIdenticalAcrossThreads)
{
    // The fault-injection determinism contract: per-(site, direction)
    // corruption streams are keyed by topology registration order — which
    // is single-threaded — and each stream is drawn only by the domain
    // thread owning that direction's transmitter, so a fixed seeded plan
    // (Bernoulli corruption everywhere plus a mid-run link-down window)
    // is bit-identical for any ACCESYS_THREADS worker count.
    FaultPlan plan;
    plan.seed = 11;
    plan.corrupt_rate = 0.01;
    FaultEvent down;
    down.kind = FaultKind::link_down;
    down.site = "link_dn2";
    down.at_ns = 5000.0;
    down.duration_ns = 10000.0;
    plan.events.push_back(down);
    plan.max_replays = 16;
    plan.replay_timeout_ns = 3000.0;

    const SimSnapshot serial = run_gemm_sim(4, 32, /*threads=*/1, &plan);
    EXPECT_TRUE(serial.verified) << "replay must recover every corruption";

    for (const unsigned threads : {2U, 4U}) {
        const SimSnapshot par = run_gemm_sim(4, 32, threads, &plan);
        EXPECT_TRUE(par.verified) << "threads=" << threads;
        EXPECT_EQ(serial.end_tick, par.end_tick) << "threads=" << threads;
        EXPECT_EQ(serial.stats_text, par.stats_text)
            << "threads=" << threads;
        EXPECT_EQ(serial.stats_json, par.stats_json)
            << "threads=" << threads;
    }
}

TEST(PoolDeterminism, StaleDllKicksWaitForTheBarrierTick)
{
    // Corruption on the host link with a shallow replay buffer leaves the
    // root-side transmitter replay-starved with lazily-unharvested ACKs
    // while it idles to the end of a window. A NAK flushed at the barrier
    // then kicks the DLL for a record whose arrival is already past; the
    // kick (and any replay it sends) must wait for the barrier tick, not
    // run at the root's last-event clock below the endpoint's, or the
    // replay lands in the endpoint domain's past.
    FaultPlan plan;
    plan.seed = 5;
    plan.corrupt_rate = 0.02;
    plan.replay_buffer_tlps = 4;

    const SimSnapshot serial = run_gemm_sim(1, 64, /*threads=*/1, &plan);
    EXPECT_TRUE(serial.verified);
    for (const unsigned threads : {2U, 4U}) {
        const SimSnapshot par = run_gemm_sim(1, 64, threads, &plan);
        EXPECT_TRUE(par.verified) << "threads=" << threads;
        EXPECT_EQ(serial.end_tick, par.end_tick) << "threads=" << threads;
        EXPECT_EQ(serial.stats_text, par.stats_text)
            << "threads=" << threads;
    }
}

TEST(PoolDeterminism, DegradedRunBitIdenticalAcrossThreads)
{
    // Graceful degradation must also be deterministic: with one endpoint's
    // link dead from tick 0 and completion/job timeouts armed, the failed
    // job's give-up path and the surviving endpoints' completions land on
    // the same ticks for any worker count.
    FaultPlan plan;
    FaultEvent down;
    down.kind = FaultKind::link_down;
    down.site = "link_dn1";
    down.at_ns = 0.0;
    down.duration_ns = 1e12;
    plan.events.push_back(down);
    plan.max_replays = 4;
    plan.replay_timeout_ns = 2000.0;
    plan.completion_timeout_ns = 50000.0;
    plan.job_timeout_ns = 2e6;

    const SimSnapshot serial = run_gemm_sim(4, 32, /*threads=*/1, &plan);
    EXPECT_FALSE(serial.verified) << "device 1's job must have timed out";

    for (const unsigned threads : {2U, 4U}) {
        const SimSnapshot par = run_gemm_sim(4, 32, threads, &plan);
        EXPECT_EQ(serial.end_tick, par.end_tick) << "threads=" << threads;
        EXPECT_EQ(serial.stats_text, par.stats_text)
            << "threads=" << threads;
        EXPECT_EQ(serial.stats_json, par.stats_json)
            << "threads=" << threads;
    }
}

TEST(PoolDeterminism, DisabledFaultsMatchEmptyPlanBitExactly)
{
    // ACCESYS_FAULTS=0 is the escape hatch: a populated FaultPlan must
    // then behave exactly like an absent one — no fault state allocated,
    // no fault stats registered, and both dumps bit-identical to a run
    // with the default (inactive) plan.
    const SimSnapshot clean = run_gemm_sim(2, 32);
    EXPECT_TRUE(clean.verified);

    FaultPlan plan;
    plan.seed = 17;
    plan.corrupt_rate = 0.05;
    plan.completion_timeout_ns = 50000.0;
    plan.job_timeout_ns = 1e6;

    SimSnapshot disabled;
    {
        const ScopedEnvFlags override_flags(
            [](EnvFlags& f) { f.faults = false; });
        disabled = run_gemm_sim(2, 32, /*threads=*/0, &plan);
    }
    EXPECT_TRUE(disabled.verified);
    EXPECT_EQ(clean.end_tick, disabled.end_tick);
    EXPECT_EQ(clean.events, disabled.events);
    EXPECT_EQ(clean.stats_text, disabled.stats_text);
    EXPECT_EQ(clean.stats_json, disabled.stats_json);
}

TEST(CheckpointRoundTrip, SplitRunBitIdenticalAcrossThreads)
{
    // The checkpoint/restore bit-identity contract: a run checkpointed at
    // its midpoint and resumed in a fresh System — for any worker count —
    // must finish with the same end tick and byte-identical stats dumps
    // as the uninterrupted run.
    const SimSnapshot straight = run_gemm_sim(4, 32, /*threads=*/1);
    ASSERT_TRUE(straight.verified);
    const Tick mid = straight.end_tick / 2;
    ASSERT_GT(mid, 0u);

    for (const unsigned threads : {1U, 2U, 4U}) {
        const std::string path = ::testing::TempDir() + "roundtrip_t" +
                                 std::to_string(threads) + ".ckpt";
        const SimSnapshot split =
            run_gemm_split(4, 32, threads, threads, nullptr, mid, path);
        EXPECT_TRUE(split.verified) << "threads=" << threads;
        EXPECT_EQ(straight.end_tick, split.end_tick)
            << "threads=" << threads;
        EXPECT_EQ(straight.stats_text, split.stats_text)
            << "threads=" << threads;
        EXPECT_EQ(straight.stats_json, split.stats_json)
            << "threads=" << threads;
    }
}

TEST(CheckpointRoundTrip, RestoreDispatchedResumesBitIdentical)
{
    // The restore-only entry point: restore_dispatched() re-stages the
    // dispatch round without running it, so the snapshot's CPU pc must land
    // in a program of the same op shape run_dispatched() staged. Running
    // the simulator afterwards must finish exactly like the straight run.
    const SimSnapshot straight = run_gemm_sim(2, 64, /*threads=*/1);
    ASSERT_TRUE(straight.verified);
    const std::string path = ::testing::TempDir() + "restore_dispatched.ckpt";
    const workload::GemmSpec spec{64, 64, 64, /*seed=*/3};
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_num_devices(2);
    cfg.threads = 1;
    {
        core::System sys(cfg);
        core::Runner runner(sys);
        for (std::size_t d = 0; d < 2; ++d) {
            runner.dispatch(d, spec, core::Placement::host, /*verify=*/true);
        }
        sys.sim().request_checkpoint_at(path, straight.end_tick / 2);
        ASSERT_TRUE(runner.run_dispatched().checkpointed);
    }

    core::System sys(cfg);
    core::Runner runner(sys);
    for (std::size_t d = 0; d < 2; ++d) {
        runner.dispatch(d, spec, core::Placement::host, /*verify=*/true);
    }
    runner.restore_dispatched(path);
    std::remove(path.c_str());
    EXPECT_EQ(sys.sim().run().cause, ExitCause::exit_requested);
    EXPECT_EQ(sys.sim().now(), straight.end_tick);
    std::ostringstream text;
    sys.stats().write_text(text);
    EXPECT_EQ(text.str(), straight.stats_text);
}

TEST(CheckpointRoundTrip, SaveSerialRestoreParallel)
{
    // The config hash deliberately excludes the worker budget: a snapshot
    // written by a serial run must resume bit-identically on 4 domain
    // threads (and the barrier-tick legality rule makes the snapshot
    // thread-count-neutral by construction).
    const SimSnapshot straight = run_gemm_sim(4, 32, /*threads=*/1);
    ASSERT_TRUE(straight.verified);
    const std::string path = ::testing::TempDir() + "roundtrip_1to4.ckpt";

    const SimSnapshot split = run_gemm_split(
        4, 32, /*save_threads=*/1, /*restore_threads=*/4, nullptr,
        straight.end_tick / 2, path);
    EXPECT_TRUE(split.verified);
    EXPECT_EQ(straight.end_tick, split.end_tick);
    EXPECT_EQ(straight.stats_text, split.stats_text);
    EXPECT_EQ(straight.stats_json, split.stats_json);
}

TEST(CheckpointRoundTrip, DevmemSaveParallelRestoreAnyThreads)
{
    // Device-memory fleet: the endpoint domains run ahead of the root, so
    // the checkpoint is taken at a symmetric barrier after one
    // equal-horizon window, with every write journal applied. A snapshot
    // written on 4 domain threads must resume bit-identically on 1, 2 and
    // 4.
    const SimSnapshot straight =
        run_gemm_sim(4, 64, /*threads=*/1, nullptr, core::Placement::devmem);
    ASSERT_TRUE(straight.verified);
    const Tick mid = straight.end_tick / 2;
    for (const unsigned threads : {1U, 2U, 4U}) {
        const std::string path = ::testing::TempDir() + "devmem_4to" +
                                 std::to_string(threads) + ".ckpt";
        const SimSnapshot split =
            run_gemm_split(4, 64, /*save_threads=*/4, threads, nullptr, mid,
                           path, core::Placement::devmem);
        EXPECT_TRUE(split.verified) << "threads=" << threads;
        EXPECT_EQ(straight.end_tick, split.end_tick)
            << "threads=" << threads;
        EXPECT_EQ(straight.stats_text, split.stats_text)
            << "threads=" << threads;
        EXPECT_EQ(straight.stats_json, split.stats_json)
            << "threads=" << threads;
    }
}

TEST(CheckpointRoundTrip, MidLinkDownWindowWithSeededCorruption)
{
    // Hardest restore case: checkpoint inside an active link_down window
    // of a seeded plan with Bernoulli corruption everywhere. The snapshot
    // must carry the replay buffers, ACK/NAK state, down-window cursors,
    // and — critically — the per-(site, direction) RNG stream positions,
    // so the resumed run draws the exact corruption sequence the straight
    // run drew.
    FaultPlan plan;
    plan.seed = 11;
    plan.corrupt_rate = 0.01;
    FaultEvent down;
    down.kind = FaultKind::link_down;
    down.site = "link_dn2";
    down.at_ns = 5000.0;
    down.duration_ns = 10000.0;
    plan.events.push_back(down);
    plan.max_replays = 16;
    plan.replay_timeout_ns = 3000.0;

    const SimSnapshot straight = run_gemm_sim(4, 32, /*threads=*/1, &plan);
    ASSERT_TRUE(straight.verified);
    const Tick in_window = ticks_from_ns(8000.0); // 5000 + 10000 window
    ASSERT_GT(straight.end_tick, in_window)
        << "run must outlast the checkpoint point";

    for (const unsigned threads : {1U, 2U}) {
        const std::string path = ::testing::TempDir() + "roundtrip_fault_t" +
                                 std::to_string(threads) + ".ckpt";
        const SimSnapshot split =
            run_gemm_split(4, 32, threads, threads, &plan, in_window, path);
        EXPECT_TRUE(split.verified) << "threads=" << threads;
        EXPECT_EQ(straight.end_tick, split.end_tick)
            << "threads=" << threads;
        EXPECT_EQ(straight.stats_text, split.stats_text)
            << "threads=" << threads;
        EXPECT_EQ(straight.stats_json, split.stats_json)
            << "threads=" << threads;
    }
}

TEST(PoolDeterminism, FailoverHangPoisonFlrBitIdenticalAcrossThreads)
{
    // The endpoint-level fault contract: device-fault streams (hang,
    // poison) are keyed by (site, channel) in topology registration
    // order and drawn only by the owning endpoint's domain thread, and
    // the Runner's failover rounds (timeout -> FLR -> re-dispatch) are
    // host-driven, so a seeded hang+poison plan with failover armed is
    // bit-identical for any ACCESYS_THREADS worker count.
    FaultPlan plan;
    plan.seed = 23;
    plan.poison_rate = 0.005;
    FaultEvent hang;
    hang.kind = FaultKind::accel_hang;
    hang.site = "mf1"; // endpoint 1's first command freezes its FSM
    hang.at_ns = 0.0;
    plan.events.push_back(hang);
    plan.job_timeout_ns = 2e6;
    plan.job_max_attempts = 3;
    plan.flr_ns = 2000.0;

    const SimSnapshot serial = run_gemm_sim(4, 32, /*threads=*/1, &plan);
    EXPECT_TRUE(serial.verified)
        << "failover must re-dispatch every failed job to completion";

    for (const unsigned threads : {2U, 4U}) {
        const SimSnapshot par = run_gemm_sim(4, 32, threads, &plan);
        EXPECT_TRUE(par.verified) << "threads=" << threads;
        EXPECT_EQ(serial.end_tick, par.end_tick) << "threads=" << threads;
        EXPECT_EQ(serial.stats_text, par.stats_text)
            << "threads=" << threads;
        EXPECT_EQ(serial.stats_json, par.stats_json)
            << "threads=" << threads;
    }
}

TEST(CheckpointRoundTrip, MidFlrCheckpointRoundTripsBitIdentical)
{
    // Checkpoint taken *inside* a function-level reset window: the
    // snapshot must carry the endpoint's flr_until horizon, the hung-flag
    // clear, the drained DMA/command state and the deferred doorbell
    // kick, so the resumed run re-arms the endpoint on the same tick and
    // finishes byte-identical to the straight run. The failover path
    // stays disarmed (job_max_attempts = 1): the test drives the
    // hang -> FLR -> re-ring sequence manually in two classic rounds so
    // the restore protocol (re-run the identical dispatch, then overwrite
    // dynamic state) applies to the round containing the checkpoint.
    auto make_cfg = [] {
        core::SystemConfig cfg = core::SystemConfig::paper_default();
        cfg.set_num_devices(2);
        FaultEvent hang;
        hang.kind = FaultKind::accel_hang;
        hang.site = "mf1";
        hang.at_ns = 0.0;
        cfg.fault_plan.events.push_back(hang);
        cfg.fault_plan.job_timeout_ns = 1e6;
        return cfg;
    };
    const workload::GemmSpec spec{32, 32, 32, 3};
    const double flr_ns = 4000.0;

    // One leg = round 1 (endpoint 1 hangs, its job times out), a manual
    // FLR, then round 2 (both jobs complete). `ckpt_at`, when non-zero,
    // schedules a checkpoint halfway into the FLR window and the leg
    // stops there; `restore` resumes round 2 from that snapshot.
    struct LegResult {
        SimSnapshot snap;
        Tick ckpt_at = 0;
    };
    auto run_leg = [&](Tick ckpt_at, const std::string& ckpt_path,
                       const std::string& restore) {
        core::System sys(make_cfg());
        core::Runner runner(sys);
        runner.dispatch(0, spec, core::Placement::host, /*verify=*/true);
        runner.dispatch(1, spec, core::Placement::host, /*verify=*/true);
        const auto r1 = runner.run_dispatched();
        EXPECT_EQ(r1.devices[0].status, core::JobStatus::ok);
        EXPECT_EQ(r1.devices[1].status, core::JobStatus::timed_out);

        const Tick flr_start = sys.sim().now();
        sys.accelerator(1).begin_flr(ticks_from_ns(flr_ns));

        LegResult leg;
        leg.ckpt_at = flr_start + ticks_from_ns(flr_ns / 2);
        runner.dispatch(0, spec, core::Placement::host, /*verify=*/true);
        runner.dispatch(1, spec, core::Placement::host, /*verify=*/true);
        if (ckpt_at != 0) {
            sys.sim().request_checkpoint_at(ckpt_path, ckpt_at);
        }
        if (!restore.empty()) {
            runner.set_restore_path(restore);
        }
        const auto r2 = runner.run_dispatched();
        if (ckpt_at != 0) {
            EXPECT_TRUE(r2.checkpointed)
                << "round 2 finished before the mid-FLR checkpoint";
        } else {
            EXPECT_TRUE(r2.all_verified())
                << "FLR must have unwedged endpoint 1";
        }

        leg.snap.end_tick = sys.sim().now();
        std::ostringstream text;
        sys.stats().write_text(text);
        leg.snap.stats_text = text.str();
        std::ostringstream json;
        sys.stats().write_json(json);
        leg.snap.stats_json = json.str();
        return leg;
    };

    const LegResult straight = run_leg(0, "", "");
    const std::string path = ::testing::TempDir() + "mid_flr.ckpt";
    const LegResult save = run_leg(straight.ckpt_at, path, "");
    const LegResult resumed = run_leg(0, "", path);
    std::remove(path.c_str());

    EXPECT_EQ(straight.snap.end_tick, resumed.snap.end_tick);
    EXPECT_EQ(straight.snap.stats_text, resumed.snap.stats_text);
    EXPECT_EQ(straight.snap.stats_json, resumed.snap.stats_json);
    EXPECT_LT(save.snap.end_tick, straight.snap.end_tick)
        << "the save leg must have stopped at the mid-FLR checkpoint";
}

TEST(PoolDeterminism, SteadyStateForwardingAllocatesNothing)
{
    // Warm-up run, then measure: the second identical sim must not grow
    // either pool's heap-allocation counter — every transaction object is
    // served from the free lists. Lifetime counters sum the global pools
    // and every per-domain pool. Pinned to the serial path: parallel
    // Systems own their domain pools, so a *fresh* parallel System always
    // re-warms them — the parallel steady state holds within a System
    // (exercised by perf_baseline's gated contention metric), not across
    // System lifetimes.
    (void)run_gemm_sim(1, 48, /*threads=*/1);
    const std::uint64_t pkt_allocs = mem::PacketPool::lifetime_allocs();
    const std::uint64_t tlp_allocs = pcie::TlpPool::lifetime_allocs();
    (void)run_gemm_sim(1, 48, /*threads=*/1);
    EXPECT_EQ(mem::PacketPool::lifetime_allocs(), pkt_allocs);
    EXPECT_EQ(pcie::TlpPool::lifetime_allocs(), tlp_allocs);
}

TEST(EnvFlags, BooleanKnobsParseByValue)
{
    // One rule for every boolean knob: unset or empty keeps the default,
    // "0" turns it off, any other value turns it on — so `=0` can never
    // switch an escape hatch on.
    struct Knob {
        const char* name;
        bool EnvFlags::*flag;
        bool dflt;
    };
    const Knob knobs[] = {
        {"ACCESYS_NO_BATCH", &EnvFlags::no_batch, false},
        {"ACCESYS_NO_HOP_FUSION", &EnvFlags::no_hop_fusion, false},
        {"ACCESYS_EAGER_CREDITS", &EnvFlags::eager_credits, false},
        {"ACCESYS_FAULTS", &EnvFlags::faults, true},
    };
    for (const Knob& k : knobs) {
        const char* prev = std::getenv(k.name);
        const std::string saved = prev != nullptr ? prev : "";

        ::unsetenv(k.name);
        EXPECT_EQ(EnvFlags::read().*k.flag, k.dflt) << k.name << " unset";
        ::setenv(k.name, "", 1);
        EXPECT_EQ(EnvFlags::read().*k.flag, k.dflt) << k.name << "=";
        ::setenv(k.name, "0", 1);
        EXPECT_FALSE(EnvFlags::read().*k.flag) << k.name << "=0";
        ::setenv(k.name, "1", 1);
        EXPECT_TRUE(EnvFlags::read().*k.flag) << k.name << "=1";
        ::setenv(k.name, "yes", 1);
        EXPECT_TRUE(EnvFlags::read().*k.flag) << k.name << "=yes";

        if (prev != nullptr) {
            ::setenv(k.name, saved.c_str(), 1);
        } else {
            ::unsetenv(k.name);
        }
    }
}

} // namespace
} // namespace accesys
