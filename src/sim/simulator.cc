#include "sim/simulator.hh"

#include <algorithm>
#include <exception>
#include <mutex>
#include <set>
#include <thread>

#include "sim/fault_injector.hh"
#include "sim/serialize.hh"

namespace accesys {

namespace {

/// `t + d`, saturating at kMaxTick (an empty queue's next tick).
Tick sat_add(Tick t, Tick d)
{
    return t > kMaxTick - d ? kMaxTick : t + d;
}

} // namespace

FaultInjector* Simulator::fault_injector() const noexcept
{
    return fault_injector_ != nullptr && fault_injector_->enabled()
               ? fault_injector_
               : nullptr;
}

void Simulator::startup()
{
    if (started_) {
        return;
    }
    started_ = true;
    // Objects may attach more objects during startup; index loop is safe.
    for (std::size_t i = 0; i < objects_.size(); ++i) {
        objects_[i]->startup();
    }
}

RunResult Simulator::run(Tick max_tick)
{
    if (parallel()) {
        return run_parallel(max_tick);
    }

    startup();
    exit_requested_ = false;
    stop_now_ = false;
    exit_reason_.clear();

    RunResult res;
    std::uint64_t n = 0;
    // The queue's batched drain loop owns event dispatch; the stop flag is
    // observed between events exactly as the per-event exit check did. A
    // pending deterministic checkpoint clips the horizon to its tick; any
    // inter-event point is a legal serial checkpoint, so async interrupts
    // snapshot right where they stopped.
    for (;;) {
        Tick horizon = max_tick;
        const bool ckpt_clips = ckpt_at_ != kMaxTick && ckpt_at_ - 1 < horizon;
        if (ckpt_clips) {
            horizon = ckpt_at_ - 1;
        }
        const EventQueue::DrainOutcome outcome =
            queue_.drain(horizon, stop_now_, n);
        if (outcome == EventQueue::DrainOutcome::stopped) {
            if (exit_requested_) {
                res.cause = ExitCause::exit_requested;
                res.exit_reason = exit_reason_;
                break;
            }
            // Async interrupt (signal/watchdog thread) between events.
            interrupt_posted_ = false;
            stop_now_ = false;
            if (!interrupt_ckpt_path_.empty()) {
                checkpoint(interrupt_ckpt_path_);
                res.cause = ExitCause::checkpointed;
                res.exit_reason = interrupt_ckpt_path_;
                break;
            }
            continue; // spurious interrupt with nothing armed
        }
        if (outcome == EventQueue::DrainOutcome::drained) {
            res.cause = ExitCause::queue_drained;
            break;
        }
        if (ckpt_clips && queue_.next_event_tick() > horizon) {
            // Every event before the requested tick has run: snapshot.
            const std::string path = std::move(ckpt_path_);
            ckpt_path_.clear();
            ckpt_at_ = kMaxTick;
            checkpoint(path);
            res.cause = ExitCause::checkpointed;
            res.exit_reason = path;
            break;
        }
        res.cause = ExitCause::horizon_reached;
        queue_.warp_to(max_tick);
        break;
    }
    res.end_tick = queue_.now();
    res.events = n;
    return res;
}

void Simulator::request_checkpoint_at(std::string path, Tick at)
{
    ensure(at > 0, "checkpoint tick must be positive");
    ckpt_path_ = std::move(path);
    ckpt_at_ = at;
}

std::size_t Simulator::begin_domain(std::string label)
{
    ensure(active_domain_ == nullptr, "nested simulation domains");
    ensure(!started_, "domain carved after startup");
    auto d = std::make_unique<Domain>();
    d->label = std::move(label);
    d->queue = std::make_unique<EventQueue>();
    domains_.push_back(std::move(d));
    active_domain_ = domains_.back().get();
    return domains_.size() - 1;
}

void Simulator::end_domain()
{
    ensure(active_domain_ != nullptr, "end_domain without begin_domain");
    active_domain_ = nullptr;
}

void Simulator::await_domains(std::uint64_t gen) const
{
    // Spin with a yield per probe: windows are short and the wait ends
    // with the peer's release store, but correctness (and the 1-core CI
    // host) must not depend on having a core per thread.
    for (const auto& d : domains_) {
        while (d->done_gen.load(std::memory_order_acquire) < gen) {
            std::this_thread::yield();
        }
    }
}

void Simulator::sync_functional_reads(Tick t)
{
    if (!parallel_running_) {
        return;
    }
    // Every domain publishes its generation only at window completion, so
    // once this returns no domain appends to its journal until the root
    // thread releases the next window — the drains below run race-free.
    await_domains(window_gen_.load(std::memory_order_relaxed));
    // The root never runs past the endpoint domains, so every record with
    // tick <= t has been staged by now.
    ensure(t < window_end_, "read fence at tick ", t,
           " past the endpoint window end ", window_end_);
    ++stat_fences_;
    for (auto& d : domains_) {
        if (d->drain_functional) {
            d->drain_functional(t);
        }
    }
}

RunResult Simulator::run_parallel(Tick max_tick)
{
    startup();
    exit_requested_ = false;
    stop_now_ = false;
    exit_reason_.clear();

    ensure(quantum_ > 0, "parallel run without a cross-domain quantum");
    const Tick q = quantum_;
    const std::size_t nd = domains_.size();
    const auto nworkers =
        static_cast<unsigned>(std::min<std::size_t>(threads_ - 1, nd));

    for (auto& d : domains_) {
        d->events = 0;
        d->done_gen.store(0, std::memory_order_relaxed);
    }
    window_gen_.store(0, std::memory_order_relaxed);
    parallel_running_ = true;

    // Window-release protocol: the root thread writes window_end_, then
    // bumps window_gen_ (release). Workers spin on window_gen_ (acquire),
    // run each of their domains up to the window end, and release-publish
    // the domain's completed generation. The acquire/release pairs carry
    // every cross-thread happens-before edge; all other cross-domain state
    // is only touched in the root thread's serial barrier section.
    std::atomic<bool> quit{false};

    // Exception containment: event callbacks may throw (ensure failures,
    // liveness diagnostics). A worker publishes the first error, releases
    // its remaining domain clocks so the root's barrier wait completes,
    // and exits; the root rethrows after joining everyone — a joinable
    // std::thread destructor (std::terminate) is never the failure mode.
    std::mutex err_mu;
    std::exception_ptr worker_err;
    std::atomic<bool> err_flag{false};

    auto worker_body = [&, nworkers](unsigned w) {
        std::uint64_t seen = 0;
        for (;;) {
            while (window_gen_.load(std::memory_order_acquire) == seen) {
                if (quit.load(std::memory_order_acquire)) {
                    return;
                }
                std::this_thread::yield();
            }
            ++seen;
            const Tick wend = window_end_;
            for (std::size_t i = w; i < nd; i += nworkers) {
                Domain& dom = *domains_[i];
                try {
                    if (dom.install) {
                        dom.install(); // thread context (domain pools)
                    }
                    dom.events += dom.queue->run(wend - 1);
                } catch (...) {
                    {
                        const std::lock_guard<std::mutex> lock(err_mu);
                        if (!worker_err) {
                            worker_err = std::current_exception();
                        }
                    }
                    err_flag.store(true, std::memory_order_release);
                    for (std::size_t j = w; j < nd; j += nworkers) {
                        domains_[j]->done_gen.store(
                            seen, std::memory_order_release);
                    }
                    return;
                }
                dom.done_gen.store(seen, std::memory_order_release);
            }
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(nworkers);
    for (unsigned w = 0; w < nworkers; ++w) {
        workers.emplace_back(worker_body, w);
    }

    RunResult res;
    std::uint64_t executed = 0;

    // First window: symmetric, from the slowest domain clock. Every pending
    // event sits at or after its own domain's clock, so nothing sent in
    // this window lands before its end.
    const Tick limit = max_tick == kMaxTick ? kMaxTick : max_tick + 1;
    Tick min_now = queue_.now();
    for (auto& d : domains_) {
        min_now = std::min(min_now, d->queue->now());
    }
    Tick root_end = std::min(sat_add(min_now, q), limit);
    Tick dom_end = root_end;

    // Checkpoint state: a due checkpoint runs one symmetric window first
    // (ckpt_window), then snapshots at that window's barrier.
    bool interrupt_ckpt = false;
    bool ckpt_window = false;

    // Liveness watchdog: consecutive barriers with zero dispatched events
    // anywhere mean the fabric is wedged (e.g. a leaked credit with no
    // timer armed); diagnose instead of spinning forever.
    std::uint64_t last_total = 0;
    unsigned idle_quanta = 0;
    bool liveness_tripped = false;

    std::exception_ptr run_err;
    try {
    for (;;) {
        window_end_ = dom_end;
        const std::uint64_t gen =
            window_gen_.fetch_add(1, std::memory_order_release) + 1;

        // The root domain's window runs on this thread, overlapped with
        // the workers; the stop flag is observed between events exactly
        // as in the serial loop.
        EventQueue::DrainOutcome outcome =
            queue_.drain(root_end - 1, stop_now_, executed);
        while (outcome == EventQueue::DrainOutcome::stopped &&
               !exit_requested_) {
            // Async interrupt mid-window: a checkpoint is only legal at a
            // symmetric barrier (premature handoff flushes would perturb
            // peer sequence numbering), so finish the window and schedule
            // one.
            interrupt_posted_ = false;
            stop_now_ = false;
            interrupt_ckpt = interrupt_ckpt || !interrupt_ckpt_path_.empty();
            outcome = queue_.drain(root_end - 1, stop_now_, executed);
        }

        await_domains(gen);
        ++stat_barriers_;
        if (err_flag.load(std::memory_order_acquire)) {
            break; // a dead worker publishes no further clocks — rethrow
        }

        // Serial section: every domain is quiesced. Inject cross-domain
        // handoffs in registration order — deterministic — then anchor
        // the next window on the earliest pending events (the injected
        // handoffs included). The root has reached its exit tick if it
        // stopped, else its horizon; every endpoint domain is past that.
        const bool stopped = outcome == EventQueue::DrainOutcome::stopped;
        const Tick root_reached = stopped ? queue_.now() : root_end - 1;
        for (auto& hook : barrier_hooks_) {
            hook(root_reached);
        }
        const Tick a = queue_.next_event_tick();
        Tick b = kMaxTick;
        for (auto& d : domains_) {
            b = std::min(b, d->queue->next_event_tick());
        }
        const bool drained = !stopped && a == kMaxTick && b == kMaxTick;
        const bool horizon =
            !stopped && !drained && std::min(a, b) > max_tick;
        if (horizon) {
            // Every event at or below max_tick has run: line all clocks up
            // there, as the serial loop's warp does.
            if (queue_.now() < max_tick) {
                queue_.warp_to(max_tick);
            }
            for (auto& d : domains_) {
                if (d->queue->now() < max_tick) {
                    d->queue->warp_to(max_tick);
                }
            }
        }

        // Apply staged functional writes in domain order, up to the tick
        // the root has reached. Later records stay staged: a root read
        // before their tick must not see them. A stopped root's later
        // records belong to the next run() call, as in the serial run; at
        // a drain or the horizon every record is due.
        const Tick applied = drained   ? kMaxTick
                             : horizon ? max_tick
                                       : root_reached;
        for (auto& d : domains_) {
            if (d->drain_functional) {
                d->drain_functional(applied);
            }
        }

        if (stopped) {
            res.cause = ExitCause::exit_requested;
            res.exit_reason = exit_reason_;
            break;
        }

        // Checkpoint at a symmetric barrier — the end of a checkpoint
        // window, a full drain or the horizon: every domain has run the
        // same events, handoff staging is flushed and every journal is
        // applied, the canonical quiescent point the restore contract is
        // defined at. As in the serial loop, a requested tick at or below
        // max_tick is honoured at the horizon; the requested snapshot
        // wins over an interrupt once its tick is passed.
        if (ckpt_window || ((drained || horizon) && interrupt_ckpt) ||
            (horizon && ckpt_at_ <= max_tick)) {
            const bool requested =
                ckpt_at_ <= (horizon ? max_tick : root_end - 1);
            std::string path =
                requested ? std::move(ckpt_path_) : interrupt_ckpt_path_;
            if (requested) {
                ckpt_path_.clear();
                ckpt_at_ = kMaxTick;
            }
            checkpoint(path);
            res.cause = ExitCause::checkpointed;
            res.exit_reason = std::move(path);
            break;
        }

        std::uint64_t total = executed;
        for (auto& d : domains_) {
            total += d->events;
        }
        if (total == last_total && max_idle_quanta_ != 0) {
            if (++idle_quanta >= max_idle_quanta_) {
                liveness_tripped = true;
                break;
            }
        } else {
            idle_quanta = 0;
            last_total = total;
        }

        if (drained) {
            res.cause = ExitCause::queue_drained;
            break;
        }
        if (horizon) {
            res.cause = ExitCause::horizon_reached;
            break;
        }

        // Next horizons (see the header). Nothing is pending below the
        // tick a domain reached: the root ran to root_end - 1 and hooks
        // schedule no earlier, an endpoint's run() left its clock at
        // dom_end - 1, and handoffs land at or past each side's horizon.
        // The endpoints' 2Q - 1 (not 2Q) keeps them within Q - 1 of the
        // root, which makes every horizon at least its predecessor. The
        // proofs hold for any P >= b, so promises only stretch windows.
        ensure(a >= root_end - 1 && b >= dom_end - 1,
               "event pending below a window horizon (root next ", a,
               ", horizon ", root_end, "; endpoints next ", b, ", horizon ",
               dom_end, ")");
        Tick p = kMaxTick;
        for (auto& d : domains_) {
            const Tick bi = d->queue->next_event_tick();
            p = std::min(p, d->promise ? std::max(d->promise(bi), bi) : bi);
        }
        const Tick next_root = std::min(sat_add(std::min(a, p), q), limit);
        Tick next_dom =
            std::min({sat_add(a, q), sat_add(p, 2 * q - 1), limit});
        if (ckpt_at_ < root_end || interrupt_ckpt) {
            // Every domain has run past the requested tick (or an
            // interrupt is pending): line all clocks up at the root's next
            // horizon — the common end E — and snapshot there.
            next_dom = next_root;
            ckpt_window = true;
        }
        ensure(next_root >= root_end && next_dom >= dom_end,
               "parallel window horizon moved backwards (root ", root_end,
               " -> ", next_root, ", endpoints ", dom_end, " -> ", next_dom,
               ")");
        root_end = next_root;
        dom_end = next_dom;
    }
    } catch (...) {
        run_err = std::current_exception();
    }

    quit.store(true, std::memory_order_release);
    for (auto& t : workers) {
        t.join();
    }
    parallel_running_ = false;

    if (run_err == nullptr && err_flag.load(std::memory_order_acquire)) {
        run_err = worker_err; // workers are joined: safe to read unlocked
    }
    if (run_err != nullptr) {
        std::rethrow_exception(run_err);
    }

    if (liveness_tripped) {
        // Per-queue clock + earliest pending event: distinguishes a true
        // wedge (nothing pending anywhere) from a scheduling bug (work
        // pending that never dispatches).
        std::string queues;
        auto describe = [&queues](const std::string& label, EventQueue& eq) {
            queues += strcat_msg("  ", label, ": now=", eq.now(),
                                 " next=", eq.next_event_tick(), " (",
                                 eq.next_event_name(), ")\n");
        };
        describe("root", queue_);
        for (auto& d : domains_) {
            describe(d->label, *d->queue);
        }
        throw SimError(strcat_msg(
            "liveness watchdog: ", max_idle_quanta_,
            " consecutive window barriers dispatched zero events (window "
            "ends: root ",
            root_end, ", endpoints ", dom_end, "); queues:\n", queues,
            "component occupancy:\n", occupancy_report()));
    }

    res.end_tick = queue_.now();
    res.events = executed;
    for (auto& d : domains_) {
        res.events += d->events;
    }
    return res;
}

void Simulator::serialize_sim_clocks(Ckpt& ar)
{
    std::uint64_t nd = domains_.size();
    ar.io(nd);
    ckpt_layout_match_ = nd == domains_.size();
    queue_.serialize_clock(ar); // the root record always maps exactly
    if (ckpt_layout_match_) {
        for (auto& d : domains_) {
            d->queue->serialize_clock(ar);
        }
        return;
    }
    // Snapshot taken under a different thread count: the saved per-domain
    // records don't map onto this carve. Every domain is quiesced at the
    // checkpoint, so the records are interchangeable — drain them, then
    // seed each current domain from the root clock and the maximum saved
    // schedule sequence (post-resume schedules then order after every
    // restored key, exactly as they would have in the saving process).
    // Live-entry verification moves to the global total: the event
    // population redistributes across queues with the carve.
    std::uint64_t live_total = queue_.expected_live();
    std::uint64_t seq = queue_.next_seq();
    for (std::uint64_t i = 0; i < nd; ++i) {
        Tick dnow = 0;
        std::uint64_t dseq = 0;
        std::uint64_t dlive = 0;
        ar.io(dnow, dseq, dlive);
        live_total += dlive;
        seq = std::max(seq, dseq);
    }
    queue_.seed_clock(queue_.now(), seq);
    for (auto& d : domains_) {
        d->queue->seed_clock(queue_.now(), seq);
    }
    ckpt_live_total_ = live_total;
}

void Simulator::install_context_for(EventQueue* q)
{
    if (q == &queue_) {
        if (root_install_) {
            root_install_();
        }
        return;
    }
    for (auto& d : domains_) {
        if (d->queue.get() == q) {
            if (d->install) {
                d->install();
            }
            return;
        }
    }
    panic("component bound to an unknown event queue during restore");
}

void Simulator::checkpoint(const std::string& path)
{
    Ckpt ar;
    ar.begin_section("sim");
    serialize_sim_clocks(ar);
    ar.end_section();

    std::set<std::string> names;
    for (SimObject* obj : objects_) {
        ensure(names.insert(obj->name()).second,
               "duplicate component name in checkpoint: ", obj->name());
        ar.begin_section(obj->name());
        obj->serialize(ar);
        ar.end_section();
    }
    for (CkptHook& hook : ckpt_hooks_) {
        ar.begin_section(hook.name);
        hook.fn(ar);
        ar.end_section();
    }

    // Dispatch-path counters last: restoration itself schedules nothing,
    // but re-inserting events bumps heap counters — the saved values win.
    // Count-prefixed so a restore under a different domain carve can
    // drain the records it cannot map.
    ar.begin_section("sim.counters");
    std::uint64_t nq = 1 + domains_.size();
    ar.io(nq);
    queue_.serialize_counters(ar);
    for (auto& d : domains_) {
        d->queue->serialize_counters(ar);
    }
    ar.io(stat_barriers_, stat_fences_, stat_handoffs_);
    ar.end_section();

    ar.begin_section("stats");
    stats_.serialize(ar);
    ar.end_section();

    ar.write_file(path, config_hash_);
}

void Simulator::restore(const std::string& path)
{
    startup();
    Ckpt ar = Ckpt::load_file(path, config_hash_);

    // Wipe every queue: construction/startup-scheduled events are dropped
    // wholesale and each component re-inserts its own pending events with
    // their exact checkpointed keys.
    queue_.restore_begin();
    for (auto& d : domains_) {
        d->queue->restore_begin();
    }

    ar.begin_section("sim");
    serialize_sim_clocks(ar);
    ar.end_section();

    // Components restore under their own domain's thread context so pool
    // re-materialization draws from the correct per-domain pool.
    EventQueue* ctx = nullptr;
    for (SimObject* obj : objects_) {
        if (&obj->eq() != ctx) {
            ctx = &obj->eq();
            install_context_for(ctx);
        }
        ar.begin_section(obj->name());
        obj->serialize(ar);
        ar.end_section();
    }
    install_context_for(&queue_);
    for (CkptHook& hook : ckpt_hooks_) {
        ar.begin_section(hook.name);
        hook.fn(ar);
        ar.end_section();
    }

    ar.begin_section("sim.counters");
    std::uint64_t nq = 0;
    ar.io(nq);
    if (ckpt_layout_match_) {
        queue_.serialize_counters(ar);
        for (auto& d : domains_) {
            d->queue->serialize_counters(ar);
        }
    } else {
        // Per-queue dispatch counters don't map across a different carve:
        // drain the saved records into a scratch queue and keep this
        // process's organic values (they truthfully count restore work).
        EventQueue scratch;
        for (std::uint64_t i = 0; i < nq; ++i) {
            scratch.serialize_counters(ar);
        }
    }
    ar.io(stat_barriers_, stat_fences_, stat_handoffs_);
    ar.end_section();

    ar.begin_section("stats");
    stats_.serialize(ar);
    ar.end_section();

    if (ckpt_layout_match_) {
        ensure(queue_.restore_complete(), "restore re-inserted ",
               queue_.restored_count(), " events into the root queue but "
               "the checkpoint recorded ",
               queue_.expected_live(), " live entries (a component is "
               "missing an Event in its serialize())");
        for (auto& d : domains_) {
            ensure(d->queue->restore_complete(), "restore re-inserted ",
                   d->queue->restored_count(), " events into domain '",
                   d->label, "' but the checkpoint recorded ",
                   d->queue->expected_live(), " live entries");
        }
    } else {
        // The event population redistributes across queues with the
        // carve; only the global total is checkable.
        std::uint64_t restored = queue_.restored_count();
        for (auto& d : domains_) {
            restored += d->queue->restored_count();
        }
        ensure(restored == ckpt_live_total_, "restore re-inserted ",
               restored, " events across all queues but the checkpoint "
               "recorded ",
               ckpt_live_total_, " live entries (a component is missing "
               "an Event in its serialize())");
    }
}

std::string Simulator::occupancy_report() const
{
    std::string out;
    for (const SimObject* obj : objects_) {
        obj->report_occupancy(out);
    }
    if (out.empty()) {
        out = "  (no component reports queued work)\n";
    }
    return out;
}

void Simulator::detach(SimObject& obj) noexcept
{
    objects_.erase(std::remove(objects_.begin(), objects_.end(), &obj),
                   objects_.end());
}

SimObject::SimObject(Simulator& sim, std::string name)
    : sim_(&sim),
      eq_(&sim.current_queue()),
      name_(std::move(name)),
      stats_(sim.stats(), name_)
{
    sim_->attach(*this);
}

SimObject::~SimObject()
{
    sim_->detach(*this);
}

} // namespace accesys
