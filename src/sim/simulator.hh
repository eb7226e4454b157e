// Top-level simulation container: event queue + stats registry + run control.
//
// Parallel mode (the quantum-synchronized domain core):
//
// A Simulator normally owns one EventQueue and dispatches serially. When
// `set_threads(N>=2)` is called *and* the topology carves simulation
// domains (TopologyBuilder does this at PCIe downstream-link boundaries),
// each domain gets its own EventQueue and run() switches to a conservative
// parallel loop: every endpoint domain free-runs a window on its own
// thread while the root domain runs its window on the caller's thread,
// then all domains meet at a barrier. Q — the quantum — is the minimum
// cross-domain latency (PCIe link propagation delay): an event scheduled
// into another domain lands at least Q after the tick of the event that
// sent it.
//
// Windows are anchored on the earliest pending events, with one horizon
// for the root domain and one for every endpoint domain. The carve is a
// star — each boundary link joins the root to exactly one endpoint
// domain — so an effect from one endpoint reaches another only through
// the root, at least 2Q later. At each barrier every endpoint domain i
// publishes a promise P_i: a lower bound on the tick of its next boundary
// send (TLP, credit return or DLL record), given that nothing new arrives
// from the root during the window. It defaults to b_i, the domain's
// earliest pending tick, and is never below it; components that can
// prove they stay silent longer (an idle accelerator, or one computing
// from device memory) promise later ticks. With `a` the root's earliest
// pending tick and P = min_i P_i, the root runs to H_root = min(a, P) + Q
// and every endpoint domain to H_ep = min(a + Q, P + 2Q - 1) (exclusive).
// Whatever one side sends in the window lands at or past the other
// side's horizon; an idle root lets the endpoints run nearly 2Q past
// their promise, and endpoints that promise silence let both sides run
// to the root's next event plus Q. Every boundary send ensures its
// domain keeps its promise. The root never runs past the endpoints, so a
// mid-window read fence at root tick t finds every device->host write
// with tick <= t already staged. Every horizon is at least the previous
// one, so no clock ever moves backwards. The first window of a run()
// call is symmetric: from the slowest domain clock to that clock plus Q.
// Cross-domain traffic is staged in per-edge buffers during the window
// and injected by registered barrier hooks in deterministic registration
// order with exact (tick, priority, sequence) keys, so dispatch order —
// and every stat — is bit-identical to the serial run for any thread
// count. Hooks get the tick the root reached (H_root - 1) and arm nothing
// earlier, so the next window's anchors never sit below a domain's clock.
// The barrier also applies per-domain functional-write journals
// (device->host DMA data staged off-thread; see mem/write_journal.hh) up
// to the tick the root has reached, H_root - 1.
//
// A checkpoint (requested tick reached, or an interrupt posted) first
// runs one symmetric window — every domain to E = H_root, the common end
// min(H_root, H_ep) — and snapshots at its barrier, where every domain has
// run exactly the events below E and every journal is empty. The horizon
// barrier of run(max_tick), where every clock is warped to max_tick, is
// symmetric too: a checkpoint due there is written there, as in the
// serial loop.
//
// ACCESYS_THREADS=1 (the default) never carves domains: the exact serial
// code path runs, untouched.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace accesys {

class FaultInjector;
class SimObject;

class Ckpt;

/// Why a Simulator::run() call returned.
enum class ExitCause {
    queue_drained,   ///< no live events remain
    exit_requested,  ///< a component called request_exit()
    horizon_reached, ///< max_tick passed without drain/exit
    checkpointed,    ///< a requested checkpoint was written (see exit_reason
                     ///< for the path); resume via Simulator::restore()
};

struct RunResult {
    ExitCause cause = ExitCause::queue_drained;
    std::string exit_reason;      ///< set for ExitCause::exit_requested
    Tick end_tick = 0;            ///< simulated time when run() returned
    std::uint64_t events = 0;     ///< events executed by this run() call
};

/// Owns the event queue and the stat registry; SimObjects attach to it.
class Simulator {
  public:
    /// One parallel simulation domain (beyond the implicit root domain).
    /// Created by begin_domain(); the owning thread is assigned by run().
    struct Domain {
        std::string label;
        std::unique_ptr<EventQueue> queue;
        /// Installed on the worker thread before each window (and by
        /// begin_domain() during construction): thread-context setup such
        /// as the domain's packet/TLP pools. May be empty.
        std::function<void()> install;
        /// Apply staged functional writes with tick <= arg to the shared
        /// backing store. Called only while the domain is quiesced (at
        /// barriers with the tick the root domain has reached, at read
        /// fences with the read tick), in domain order. May be empty.
        std::function<void(Tick)> drain_functional;
        /// This domain's promise for the coming window: a lower bound on
        /// the tick of its next boundary send, given `b`, the tick of its
        /// earliest pending event, and no new input from the root during
        /// the window. Called in the serial barrier section after the
        /// hooks, only when another window follows; the promise holds
        /// until the next barrier. Results below `b` count as `b`. May
        /// be empty (the promise is `b`).
        std::function<Tick(Tick)> promise;
        std::uint64_t events = 0; ///< events executed in the current run()
        /// Window-completion publication: the generation of the last
        /// window this domain finished. A generation — not the window-end
        /// tick — because a barrier hook can schedule work back inside the
        /// just-finished window, forcing the same window end to be
        /// republished; a tick-based barrier would treat the previous
        /// completion as already satisfying the repeat and let the root's
        /// serial section race the still-running worker. Release-published
        /// by the worker; the root thread acquires it at barriers and read
        /// fences, which is the happens-before edge covering everything
        /// the window wrote.
        alignas(64) std::atomic<std::uint64_t> done_gen{0};
    };

    Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// The root domain's queue (the only queue in serial mode).
    [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
    [[nodiscard]] Tick now() const noexcept { return queue_.now(); }
    [[nodiscard]] stats::Registry& stats() noexcept { return stats_; }

    /// Ask the run loop to stop after the current event.
    void request_exit(std::string reason)
    {
        exit_requested_ = true;
        stop_now_ = true;
        exit_reason_ = std::move(reason);
    }

    [[nodiscard]] bool exit_requested() const noexcept
    {
        return exit_requested_;
    }

    /// Install the fault injector (owned by core::System, set before any
    /// fault-aware component constructs). Null — the default — means no
    /// fault model: components must allocate no fault state and register
    /// no fault stats, keeping clean runs bit-identical.
    void set_fault_injector(FaultInjector* fi) noexcept
    {
        fault_injector_ = fi;
    }
    /// The active fault injector, or null when faults are not modelled.
    /// (A disabled injector is also reported as null so call sites need
    /// only one check.)
    [[nodiscard]] FaultInjector* fault_injector() const noexcept;

    /// Invoke SimObject::startup() on every attached object (once).
    void startup();

    /// Run until drain, requested exit, or `max_tick`.
    RunResult run(Tick max_tick = kMaxTick);

    // --- domain carving (construction time only) ---------------------------

    /// Worker-thread budget for run(). Must be set before domains are
    /// carved; 1 (the default) keeps the exact serial path.
    void set_threads(unsigned n) { threads_ = n == 0 ? 1 : n; }
    [[nodiscard]] unsigned threads() const noexcept { return threads_; }

    /// Open a new simulation domain: SimObjects constructed until the
    /// matching end_domain() bind to the domain's own EventQueue, and the
    /// domain's install hook (if already set) runs so construction sees
    /// the same thread context as the worker will. Returns the domain
    /// index. Must not nest.
    std::size_t begin_domain(std::string label);
    void end_domain();

    /// The queue new SimObjects bind to: the active domain's inside a
    /// begin/end_domain scope, else the root queue.
    [[nodiscard]] EventQueue& current_queue() noexcept
    {
        return active_domain_ == nullptr ? queue_ : *active_domain_->queue;
    }

    [[nodiscard]] std::size_t domain_count() const noexcept
    {
        return domains_.size();
    }
    [[nodiscard]] Domain& domain(std::size_t i) { return *domains_.at(i); }

    /// True when run() will use the parallel window loop.
    [[nodiscard]] bool parallel() const noexcept
    {
        return threads_ > 1 && !domains_.empty();
    }

    /// Barrier quantum in ticks (the minimum cross-domain latency).
    /// TopologyBuilder sets this from the boundary links it carves.
    void set_quantum(Tick q) { quantum_ = q; }
    [[nodiscard]] Tick quantum() const noexcept { return quantum_; }

    /// Register a hook run in the serial section of every window barrier,
    /// in registration order (the deterministic cross-domain injection
    /// order). Hooks flush boundary-edge handoff buffers: they may touch
    /// any domain's queue/pools because every domain is quiesced. The
    /// argument is the tick the root domain has reached (every endpoint
    /// domain is at or past it); nothing a hook schedules may run earlier.
    void register_barrier_hook(std::function<void(Tick)> fn)
    {
        barrier_hooks_.push_back(std::move(fn));
    }

    /// Read fence for functional host-memory reads issued mid-window by
    /// root-domain components (e.g. the host CPU's completion-flag poll):
    /// waits until every domain finished the current window, then applies
    /// all staged functional writes with tick <= `t` in domain order. A
    /// no-op unless a parallel run is in progress. Never called from
    /// non-root domains (they would deadlock the window).
    void sync_functional_reads(Tick t);

    /// Cross-domain items injected at barriers (bumped by flush hooks).
    void note_handoffs(std::uint64_t n) noexcept { stat_handoffs_ += n; }
    [[nodiscard]] std::uint64_t handoffs() const noexcept
    {
        return stat_handoffs_;
    }
    /// Window barriers completed across all run() calls.
    [[nodiscard]] std::uint64_t barrier_waits() const noexcept
    {
        return stat_barriers_;
    }
    /// Mid-window read fences served (each waits for all domains).
    [[nodiscard]] std::uint64_t fence_waits() const noexcept
    {
        return stat_fences_;
    }

    // --- checkpoint/restore (see sim/serialize.hh) --------------------------

    /// Hash of the originating SystemConfig, stamped into every checkpoint
    /// and verified on restore. core::System sets it at construction.
    void set_config_hash(std::uint64_t h) noexcept { config_hash_ = h; }
    [[nodiscard]] std::uint64_t config_hash() const noexcept
    {
        return config_hash_;
    }

    /// Thread-context setup for the root domain (pool installation),
    /// mirroring Domain::install; used while restoring root components.
    void set_root_install(std::function<void()> fn)
    {
        root_install_ = std::move(fn);
    }

    /// Register a named serialization hook for stateful non-SimObject
    /// state (backing store, packet/TLP pools, runner bookkeeping). Runs
    /// in registration order between the component and stats sections.
    void add_ckpt_hook(std::string name, std::function<void(Ckpt&)> fn)
    {
        ckpt_hooks_.push_back({std::move(name), std::move(fn)});
    }

    /// Write a checkpoint of the current state to `path`. Legal only at a
    /// quiescent point: between events when serial, at a window barrier
    /// when parallel — run() enforces this via the request_* entry points
    /// below, which is how callers should normally checkpoint.
    void checkpoint(const std::string& path);

    /// Ask run() to write a checkpoint to `path` at the first legal point
    /// covering tick `at` (exactly `at` when serial; when parallel, the
    /// symmetric barrier that follows the first barrier by which every
    /// domain has run past `at`), then return
    /// ExitCause::checkpointed. Deterministic: the snapshot is identical
    /// for every ACCESYS_THREADS by the barrier bit-identity contract.
    void request_checkpoint_at(std::string path, Tick at);

    /// Pre-register the checkpoint path used when an asynchronous
    /// interrupt arrives (post_interrupt allocates nothing).
    void arm_interrupt_checkpoint(std::string path)
    {
        interrupt_ckpt_path_ = std::move(path);
    }

    /// Async-signal/watchdog-thread entry point: request a checkpoint (to
    /// the armed path) at the next legal point, then return
    /// ExitCause::checkpointed. Only flag writes — safe from a signal
    /// handler or another thread while run() executes.
    void post_interrupt() noexcept
    {
        interrupt_posted_ = true;
        stop_now_ = true;
    }
    [[nodiscard]] bool interrupt_posted() const noexcept
    {
        return interrupt_posted_;
    }

    /// Rebuild dynamic state from a checkpoint written under the same
    /// SystemConfig (fresh process, construction and wiring complete).
    /// The next run() resumes such that final results are bit-identical
    /// to the uninterrupted run. Throws SimError on any mismatch.
    void restore(const std::string& path);

    // --- liveness watchdog --------------------------------------------------

    /// Parallel no-progress horizon: consecutive window barriers with zero
    /// dispatched events before run() raises a diagnostic SimError
    /// (0 disables). Serial runs surface the same condition as a drain
    /// with jobs outstanding (core::Runner turns that into the SimError).
    void set_max_idle_quanta(unsigned n) noexcept { max_idle_quanta_ = n; }
    [[nodiscard]] unsigned max_idle_quanta() const noexcept
    {
        return max_idle_quanta_;
    }

    /// One line per component that currently holds queued/blocked work —
    /// the diagnostic payload for liveness-watchdog SimErrors.
    [[nodiscard]] std::string occupancy_report() const;

  private:
    friend class SimObject;
    void attach(SimObject& obj) { objects_.push_back(&obj); }
    void detach(SimObject& obj) noexcept;

    RunResult run_parallel(Tick max_tick);
    /// Spin until every domain published completion of window generation
    /// `gen` (yields: correctness must not depend on core count).
    void await_domains(std::uint64_t gen) const;

    /// Per-queue clock/live-count payload of the "sim" section.
    void serialize_sim_clocks(Ckpt& ar);
    /// Run the thread-context install hook owning queue `q` (root install
    /// or the domain's install) so pool re-materialization during restore
    /// draws from the correct per-domain pool.
    void install_context_for(EventQueue* q);

    EventQueue queue_;
    stats::Registry stats_;
    std::vector<SimObject*> objects_;
    bool started_ = false;
    bool exit_requested_ = false;
    std::string exit_reason_;

    FaultInjector* fault_injector_ = nullptr;
    unsigned threads_ = 1;
    Tick quantum_ = 0;
    std::vector<std::unique_ptr<Domain>> domains_;
    Domain* active_domain_ = nullptr; ///< inside begin/end_domain scope
    std::vector<std::function<void(Tick)>> barrier_hooks_;
    /// Set only while run_parallel() is between startup and join; gates
    /// sync_functional_reads. The endpoint domains' (exclusive) horizon
    /// for the in-flight window lives in window_end_ (written by the root
    /// thread before releasing the window, read by workers after acquiring
    /// the generation).
    bool parallel_running_ = false;
    Tick window_end_ = 0;
    /// Window-release counter: bumped (release) by the root thread after
    /// writing window_end_; workers spin on it (acquire). Monotonic across
    /// repeat windows, so it doubles as the barrier identity await_domains
    /// waits on.
    std::atomic<std::uint64_t> window_gen_{0};
    std::uint64_t stat_barriers_ = 0;
    std::uint64_t stat_fences_ = 0;
    std::uint64_t stat_handoffs_ = 0;

    // --- checkpoint/restore state -------------------------------------------
    /// Run-loop stop flag polled between events: request_exit() and
    /// post_interrupt() both raise it (a plain bool on purpose — it must
    /// be writable from a signal handler, and a one-byte store/load is
    /// the same cost the exit flag always paid).
    bool stop_now_ = false;
    bool interrupt_posted_ = false;
    std::uint64_t config_hash_ = 0;
    std::string ckpt_path_;            ///< request_checkpoint_at target
    Tick ckpt_at_ = kMaxTick;          ///< request_checkpoint_at tick
    std::string interrupt_ckpt_path_;  ///< armed async-interrupt target
    std::function<void()> root_install_;
    struct CkptHook {
        std::string name;
        std::function<void(Ckpt&)> fn;
    };
    std::vector<CkptHook> ckpt_hooks_;
    /// Whether the snapshot being restored was taken under the same
    /// domain carve (thread count). Snapshots are thread-count-neutral:
    /// on a mismatch the per-queue clock records collapse to canonical
    /// values and live-entry verification switches to the global total.
    bool ckpt_layout_match_ = true;
    std::uint64_t ckpt_live_total_ = 0;
    unsigned max_idle_quanta_ = 64;
};

/// Base class for every named simulated component.
///
/// Binds to the Simulator's *current* queue at construction: objects built
/// inside a begin_domain()/end_domain() scope schedule into — and read
/// time from — their domain's queue, transparently.
class SimObject {
  public:
    SimObject(Simulator& sim, std::string name);
    virtual ~SimObject();

    SimObject(const SimObject&) = delete;
    SimObject& operator=(const SimObject&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] Simulator& sim() noexcept { return *sim_; }
    /// This object's event queue (its domain's queue; the root queue in
    /// serial mode).
    [[nodiscard]] EventQueue& eq() const noexcept { return *eq_; }
    [[nodiscard]] Tick now() const noexcept { return eq_->now(); }

    /// Hook called once before the first run(); wiring must be complete.
    virtual void startup() {}

    /// Checkpoint/restore this object's dynamic state (one symmetric
    /// field list; see sim/serialize.hh). The default is for stateless
    /// objects only — every component holding queues, in-flight packets,
    /// scheduled events or counters outside the stats registry must
    /// override, and must route each owned Event through
    /// Event::serialize(ar, eq()).
    virtual void serialize(Ckpt& ar) { (void)ar; }

    /// Append "name: <occupancy>" lines for any queued/blocked work this
    /// object currently holds (liveness-watchdog diagnostics). Objects
    /// holding nothing append nothing.
    virtual void report_occupancy(std::string& out) const { (void)out; }

  protected:
    void schedule(Event& ev, Tick when) { eq_->schedule(ev, when); }
    void schedule_in(Event& ev, Tick delta)
    {
        eq_->schedule_in(ev, delta);
    }
    void reschedule(Event& ev, Tick when) { eq_->reschedule(ev, when); }
    void deschedule(Event& ev) { eq_->deschedule(ev); }

    [[nodiscard]] stats::Group& stat_group() noexcept { return stats_; }

  private:
    Simulator* sim_;
    EventQueue* eq_;
    std::string name_;
    stats::Group stats_;
};

/// Mixin describing a clock domain (period in ticks).
class Clocked {
  public:
    explicit Clocked(Tick period) : period_(period)
    {
        ensure(period > 0, "zero clock period");
    }

    [[nodiscard]] Tick clock_period() const noexcept { return period_; }

    [[nodiscard]] Tick cycles_to_ticks(Cycles c) const noexcept
    {
        return c * period_;
    }

    [[nodiscard]] Cycles ticks_to_cycles(Tick t) const noexcept
    {
        return t / period_;
    }

    /// First clock edge at or after `now`. (Periods are arbitrary tick
    /// counts — e.g. 1 GHz = 1000 ticks — so this must not assume a
    /// power-of-two period.)
    [[nodiscard]] Tick next_edge(Tick now) const noexcept
    {
        return (now + period_ - 1) / period_ * period_;
    }

    /// Frequency in GHz implied by the period.
    [[nodiscard]] double freq_ghz() const noexcept
    {
        return 1000.0 / static_cast<double>(period_);
    }

  private:
    Tick period_;
};

} // namespace accesys
