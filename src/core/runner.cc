#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <iostream>
#include <utility>

#include "accel/command.hh"
#include "sim/fault_injector.hh"
#include "sim/serialize.hh"
#include "workload/request_gen.hh"

namespace accesys::core {

namespace {

/// Simulator targeted by the signal-checkpoint handler. post_interrupt()
/// is flag writes only, so the handler is async-signal-safe.
std::atomic<Simulator*> g_signal_sim{nullptr};

void on_checkpoint_signal(int)
{
    Simulator* sim = g_signal_sim.load(std::memory_order_relaxed);
    if (sim != nullptr) {
        sim->post_interrupt();
    }
}

} // namespace

void arm_signal_checkpoint(System& sys, std::string path)
{
    sys.sim().arm_interrupt_checkpoint(std::move(path));
    g_signal_sim.store(&sys.sim(), std::memory_order_relaxed);
    std::signal(SIGINT, on_checkpoint_signal);
    std::signal(SIGTERM, on_checkpoint_signal);
}

namespace {

/// Run the simulation; if a SimError escapes mid-run, flush a partial
/// stats dump to stderr first so the failure state is diagnosable, then
/// rethrow.
RunResult run_with_stats_flush(System& sys, const char* what)
{
    try {
        return sys.sim().run();
    } catch (const SimError&) {
        std::cerr << "accesys: SimError during " << what << " at tick "
                  << sys.sim().now() << "; partial stats dump follows\n";
        sys.stats().write_text(std::cerr);
        throw;
    }
}

/// The doorbell register's system address for endpoint `idx`.
Addr doorbell_addr(System& sys, std::size_t idx = 0)
{
    return sys.accelerator(idx).params().bar0_base + accel::kRegDoorbell;
}

/// The active fault plan, or the empty one (no timeout, one attempt).
const FaultPlan& active_plan(System& sys)
{
    static const FaultPlan kNone;
    const FaultInjector* fi = sys.sim().fault_injector();
    return fi != nullptr ? fi->plan() : kNone;
}

/// DMA payload bytes endpoint `idx` has moved so far (both directions).
std::uint64_t dma_bytes(System& sys, std::size_t idx)
{
    const std::string& prefix = sys.accelerator(idx).name();
    return static_cast<std::uint64_t>(
        sys.stat(prefix + ".dma.bytes_read") +
        sys.stat(prefix + ".dma.bytes_written"));
}

} // namespace

GemmRunResult Runner::run_gemm(const workload::GemmSpec& spec,
                               Placement place, bool verify)
{
    ensure(pending_.empty(), "run_gemm with ", pending_.size(),
           " GEMMs already dispatched; use run_dispatched()");
    dispatch(0, spec, place, verify);
    const MultiGemmResult multi = run_dispatched();

    GemmRunResult res;
    res.start = multi.start;
    res.end = multi.end;
    res.verified = multi.devices[0].verified;
    res.mismatches = multi.devices[0].mismatches;
    return res;
}

void Runner::dispatch(std::size_t device_idx, const workload::GemmSpec& spec,
                      Placement place, bool verify)
{
    System& sys = *sys_;
    ensure(spec.m > 0 && spec.n > 0 && spec.k > 0, "degenerate GEMM spec");
    ensure(device_idx < sys.device_count(), "dispatch to device ",
           device_idx, " but the system has ", sys.device_count(),
           " endpoints");
    // One GEMM per endpoint per run: per-device DMA accounting reads the
    // device-wide stat delta, which two commands on one device would share.
    for (const PendingGemm& p : pending_) {
        ensure(p.device != device_idx, "device ", device_idx,
               " already has a dispatched GEMM in this batch");
    }

    const Addr a = sys.alloc_on(device_idx, place, spec.a_bytes());
    const Addr bt = sys.alloc_on(device_idx, place, spec.b_bytes());
    const Addr c = sys.alloc_on(device_idx, place, spec.c_bytes());
    const Addr flag = sys.alloc_host(64);
    const Addr desc = sys.alloc_host(64);

    sys.map_host_pages(flag, 8);
    sys.map_host_pages(desc, sizeof(accel::GemmCommand));
    if (place == Placement::host) {
        sys.map_host_pages(a, spec.a_bytes());
        sys.map_host_pages(bt, spec.b_bytes());
        sys.map_host_pages(c, spec.c_bytes());
    }

    PendingGemm p;
    p.device = device_idx;
    p.spec = spec;
    p.place = place;
    p.verify = verify;
    p.c = c;
    p.desc.addr = desc;

    if (verify) {
        workload::init_gemm_data(sys.store(), spec, a, bt);
        p.golden = workload::gemm_golden(sys.store(), spec, a, bt);
    }

    accel::GemmCommand& cmd = p.desc.cmd;
    cmd.flags = (verify ? accel::kCmdVerify : 0U) |
                (place == Placement::devmem ? accel::kCmdDataInDevMem : 0U);
    cmd.m = spec.m;
    cmd.n = spec.n;
    cmd.k = spec.k;
    cmd.addr_a = a;
    cmd.addr_b = bt;
    cmd.addr_c = c;
    cmd.flag_addr = flag;
    cmd.flag_value = 1;
    pending_.push_back(std::move(p));
}

MultiGemmResult Runner::run_dispatched()
{
    System& sys = *sys_;
    ensure(!pending_.empty(), "run_dispatched with nothing dispatched");

    // Fault runs bound each completion poll by the plan's job timeout so
    // one dead endpoint cannot wedge the whole batch. Retries — and with
    // them endpoint health, FLRs and the runner.fleet stats — are armed
    // only by a plan allowing more than one attempt per job; a disarmed
    // run is a single round that reports unfinished jobs as timed_out.
    const FaultPlan& fp = active_plan(sys);
    const FaultPlan* plan = fp.job_max_attempts > 1 ? &fp : nullptr;
    if (plan != nullptr) {
        track_health();
    }

    MultiGemmResult res;
    res.devices.resize(pending_.size());
    // Jobs awaiting dispatch, in job order (deterministic round shapes).
    std::vector<std::size_t> backlog(pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        res.devices[i].device = pending_[i].device;
        res.devices[i].spec = pending_[i].spec;
        backlog[i] = i;
    }
    std::uint32_t budget = fp.fleet_retry_budget;
    bool first_round = true;

    auto fail_job = [&](std::size_t job) {
        res.devices[job].status = JobStatus::failed;
        ++fleet_->failures;
    };

    // Pick an endpoint for `job` this round: its own device for a first
    // attempt, else the least-loaded usable one. Returns -1 when the job
    // must wait for a later round (its candidates are claimed), or -2 when
    // no endpoint can ever take it (pinned to a quarantined device).
    auto pick_endpoint = [&](std::size_t job,
                             const std::vector<bool>& claimed)
        -> std::ptrdiff_t {
        const PendingGemm& p = pending_[job];
        const auto own = static_cast<std::ptrdiff_t>(p.device);
        if (plan == nullptr) {
            return own; // one round, one job per device (dispatch() rule)
        }
        const bool own_usable =
            health_[p.device].state != EndpointHealth::quarantined;
        if (p.place == Placement::devmem) {
            // Operands live in the original device's memory: pinned.
            if (!own_usable) {
                return -2;
            }
            return claimed[p.device] ? -1 : own;
        }
        if (res.devices[job].attempts.empty() && own_usable &&
            !claimed[p.device]) {
            return own;
        }
        return pick_usable(claimed);
    };

    while (!backlog.empty()) {
        if (plan != nullptr) {
            ensure_usable("fleet", backlog.size());
        }
        // Claim endpoints for this round: at most one job per endpoint, so
        // per-device DMA stat deltas attribute cleanly.
        std::vector<Slot> slots;
        std::vector<bool> claimed(sys.device_count(), false);
        std::vector<std::size_t> waiting;
        for (const std::size_t job : backlog) {
            const std::ptrdiff_t ep = pick_endpoint(job, claimed);
            if (ep >= 0) {
                claimed[static_cast<std::size_t>(ep)] = true;
                slots.push_back(Slot{job, static_cast<std::uint64_t>(ep),
                                     pending_[job].desc.cmd.flag_value});
            } else if (ep == -1) {
                waiting.push_back(job);
            } else {
                fail_job(job); // pinned to a quarantined endpoint
            }
        }
        if (slots.empty()) {
            // Nothing can run now or ever (the -1 case needs a claim, and
            // nothing claimed): abandon what's left.
            for (const std::size_t job : waiting) {
                fail_job(job);
            }
            break;
        }
        if (plan != nullptr) {
            ++fleet_->rounds;
        }

        // The first round's fill Call writes every descriptor; retries
        // reuse them.
        std::vector<std::uint64_t> dma_before;
        std::vector<Desc> descs;
        for (const Slot& s : slots) {
            dma_before.push_back(dma_bytes(sys, s.ep));
            descs.push_back(pending_[s.job].desc);
        }
        stage_round(slots, descs,
                    first_round ? pending_descs() : std::vector<Desc>{},
                    fp.job_timeout_ns);
        const RunResult rr = run_round("run_dispatched", plan != nullptr);
        if (first_round) {
            res.start = ticks_->start;
            first_round = false;
        }
        if (rr.cause == ExitCause::checkpointed) {
            res.checkpointed = true;
            res.end = rr.end_tick;
            pending_.clear();
            return res;
        }
        res.end = ticks_->end;

        std::vector<std::size_t> retries;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const Slot& s = slots[i];
            DeviceGemmResult& d = res.devices[s.job];
            const Verdict v = settle(s, pending_[s.job].desc.cmd.flag_addr,
                                     ticks_->start, d.attempts, plan, budget);
            if (v == Verdict::timed_out) {
                d.status = JobStatus::timed_out;
                continue; // no done tick, no verify: the job never finished
            }
            d.dma_bytes += dma_bytes(sys, s.ep) - dma_before[i];
            if (v == Verdict::ok) {
                d.status = JobStatus::ok;
                d.done = sys.accelerator(s.ep).last_complete_tick();
                continue;
            }
            ++res.flrs;
            if (v == Verdict::retry) {
                ++res.redispatches;
                retries.push_back(s.job);
            } else {
                d.status = JobStatus::failed;
            }
        }
        // Preserve job order: waiting jobs first (they were dispatched
        // earlier), then this round's retries.
        waiting.insert(waiting.end(), retries.begin(), retries.end());
        std::sort(waiting.begin(), waiting.end());
        backlog = std::move(waiting);
    }

    if (plan != nullptr) {
        for (const EpHealth& h : health_) {
            res.health.push_back(h.state);
        }
    }
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const PendingGemm& p = pending_[i];
        DeviceGemmResult& d = res.devices[i];
        if (d.ok() && p.verify) {
            d.mismatches =
                workload::gemm_check(sys.store(), p.spec, p.c, p.golden);
            d.verified = d.mismatches == 0;
        }
    }
    pending_.clear();
    return res;
}

std::vector<Runner::Desc> Runner::pending_descs() const
{
    std::vector<Desc> descs;
    for (const PendingGemm& p : pending_) {
        descs.push_back(p.desc);
    }
    return descs;
}

void Runner::stage_round(const std::vector<Slot>& slots,
                         const std::vector<Desc>& descs,
                         std::vector<Desc> fill, double timeout_ns)
{
    // The driver fills the descriptors, rings every doorbell back-to-back
    // (the devices start pulling operands immediately and contend on the
    // fabric), then polls each completion flag in slot order.
    System* sys = sys_;
    std::vector<cpu::CpuOp> prog;
    prog.push_back(cpu::Call{[sys, ticks = ticks_, fill = std::move(fill)] {
        ticks->start = sys->sim().now();
        for (const Desc& d : fill) {
            sys->store().write_obj(d.addr, d.cmd);
        }
    }});
    for (std::size_t i = 0; i < slots.size(); ++i) {
        prog.push_back(
            cpu::MmioWrite{doorbell_addr(*sys, slots[i].ep), descs[i].addr});
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
        prog.push_back(cpu::PollFlag{descs[i].cmd.flag_addr,
                                     slots[i].flag_value, timeout_ns});
    }
    arm(std::move(prog));
}

void Runner::arm(std::vector<cpu::CpuOp> prog)
{
    System* sys = sys_;
    *ticks_ = RoundTicks{};
    prog.push_back(cpu::Call{
        [sys, ticks = ticks_] { ticks->end = sys->sim().now(); }});
    sys->host_cpu().run_program(std::move(prog), [sys] {
        sys->sim().request_exit("dispatch round complete");
    });
    if (!restore_.empty()) {
        sys->sim().restore(std::exchange(restore_, {}));
    }
}

RunResult Runner::run_round(const char* what, bool health_tracked)
{
    System& sys = *sys_;
    RunResult rr;
    try {
        rr = run_with_stats_flush(sys, what);
    } catch (const SimError&) {
        if (health_tracked) {
            std::cerr << health_summary();
        }
        throw;
    }
    if (rr.cause == ExitCause::checkpointed) {
        return rr;
    }
    // Liveness: a clean run that drains with the program unfinished is a
    // deadlock — report who still holds work instead of hanging. A fault
    // run degrades gracefully: the flags tell timeouts apart.
    ensure(sys.sim().fault_injector() != nullptr ||
               rr.cause == ExitCause::exit_requested,
           what, " deadlocked: simulation drained at tick ", rr.end_tick,
           " with jobs outstanding; component occupancy:\n",
           sys.sim().occupancy_report());
    if (ticks_->end == 0) {
        ticks_->end = rr.end_tick; // drained mid-program
    }
    return rr;
}

Runner::Verdict Runner::settle(const Slot& s, Addr flag, Tick start,
                               std::vector<JobAttempt>& attempts,
                               const FaultPlan* plan, std::uint32_t& budget)
{
    // The functional flag is ground truth: it is only ever written at the
    // device's run_complete().
    const bool done = sys_->store().read_obj<std::uint64_t>(flag) ==
                      s.flag_value;
    if (plan == nullptr) {
        return done ? Verdict::ok : Verdict::timed_out;
    }
    const auto ep = static_cast<std::size_t>(s.ep);
    attempts.push_back(JobAttempt{
        ep, done ? JobStatus::ok : JobStatus::timed_out, start, ticks_->end});
    if (done) {
        health_success(ep, *plan);
        return Verdict::ok;
    }
    // health_failure issues the FLR that drains whatever wedged the
    // endpoint and re-arms its link credits.
    health_failure(ep, *plan);
    if (attempts.size() < static_cast<std::size_t>(plan->job_max_attempts) &&
        budget > 0) {
        --budget;
        ++fleet_->redispatches;
        return Verdict::retry;
    }
    ++fleet_->failures;
    return Verdict::failed;
}

void Runner::track_health()
{
    if (fleet_ == nullptr) {
        fleet_ = std::make_unique<FleetStats>(sys_->stats());
    }
    if (health_.size() < sys_->device_count()) {
        health_.resize(sys_->device_count());
    }
}

std::string Runner::health_summary() const
{
    auto state_name = [](EndpointHealth h) {
        switch (h) {
        case EndpointHealth::healthy:
            return "healthy";
        case EndpointHealth::degraded:
            return "degraded";
        case EndpointHealth::quarantined:
            return "quarantined";
        }
        return "?";
    };
    std::string out = "endpoint health:\n";
    for (std::size_t ep = 0; ep < health_.size(); ++ep) {
        const EpHealth& h = health_[ep];
        out += "  ep" + std::to_string(ep) + ": " + state_name(h.state) +
               ", failures=" + std::to_string(h.failures_total) +
               " (consecutive " + std::to_string(h.consecutive_failures) +
               "), successes=" + std::to_string(h.successes_total) +
               " (consecutive " + std::to_string(h.consecutive_successes) +
               ")\n";
    }
    return out;
}

void Runner::ensure_usable(const char* who, std::size_t waiting) const
{
    const bool any_usable =
        std::any_of(health_.begin(), health_.end(), [](const EpHealth& h) {
            return h.state != EndpointHealth::quarantined;
        });
    ensure(any_usable, who, " stalled: every endpoint is quarantined with ",
           waiting, " job(s) waiting\n", health_summary(),
           "component occupancy:\n", sys_->sim().occupancy_report());
}

std::ptrdiff_t Runner::pick_usable(const std::vector<bool>& claimed) const
{
    // Ascending-index scans with a strict `<`: ties on load resolve to the
    // lowest endpoint index (topology order), so the pick is a pure
    // function of the health table — identical for every ACCESYS_THREADS.
    for (const EndpointHealth want :
         {EndpointHealth::healthy, EndpointHealth::degraded}) {
        std::ptrdiff_t best = -1;
        std::uint64_t best_load = 0;
        for (std::size_t ep = 0; ep < health_.size(); ++ep) {
            if (health_[ep].state != want || claimed[ep]) {
                continue;
            }
            const std::uint64_t load =
                health_[ep].failures_total + health_[ep].successes_total;
            if (best < 0 || load < best_load) {
                best = static_cast<std::ptrdiff_t>(ep);
                best_load = load;
            }
        }
        if (best >= 0) {
            return best;
        }
    }
    return -1;
}

void Runner::health_success(std::size_t ep, const FaultPlan& plan)
{
    EpHealth& h = health_[ep];
    h.consecutive_failures = 0;
    ++h.consecutive_successes;
    ++h.successes_total;
    if (h.state == EndpointHealth::degraded &&
        h.consecutive_successes >= plan.rehab_successes) {
        h.state = EndpointHealth::healthy;
        ++fleet_->rehabs;
    }
}

void Runner::health_failure(std::size_t ep, const FaultPlan& plan)
{
    EpHealth& h = health_[ep];
    h.consecutive_successes = 0;
    ++h.consecutive_failures;
    ++h.failures_total;
    if (h.state == EndpointHealth::healthy) {
        h.state = EndpointHealth::degraded;
        ++fleet_->degrades;
    }
    if (h.state == EndpointHealth::degraded &&
        h.consecutive_failures >= plan.quarantine_failures) {
        h.state = EndpointHealth::quarantined;
        ++fleet_->quarantines;
    }
    sys_->accelerator(ep).begin_flr(ticks_from_ns(plan.flr_ns));
    ++fleet_->flrs;
}

void Runner::serialize_serving(Ckpt& ar)
{
    std::uint8_t active = (serve_ != nullptr && serve_->active) ? 1 : 0;
    ar.pod(active);
    if (active == 0) {
        if (ar.loading() && serve_ != nullptr) {
            serve_->active = false;
        }
        return;
    }
    if (ar.loading() && serve_ == nullptr) {
        serve_ = std::make_unique<ServeState>();
    }
    ServeState& st = *serve_;
    st.active = true;
    ar.io(st.round_kind, st.idle_cycles, st.est_service_ticks,
          st.retry_budget, st.state, st.start, st.rounds, st.idle_rounds,
          st.redispatches, st.flrs);
    ar.pod_vec(st.ep_flag_value);
    ar.pod_vec(st.slots);
    ar.pod_vec(st.queue);
    ar.vec(health_, [&ar](EpHealth& h) {
        ar.io(h.state, h.consecutive_failures, h.consecutive_successes,
              h.failures_total, h.successes_total);
    });
    std::uint64_t n = st.jobs.size();
    ar.pod(n);
    if (ar.loading()) {
        st.jobs.assign(static_cast<std::size_t>(n), ServedJob{});
    }
    for (ServedJob& j : st.jobs) {
        ar.io(j.id, j.tenant, j.spec.m, j.spec.n, j.spec.k, j.spec.seed,
              j.arrival, j.first_dispatch, j.last_dispatch, j.done, j.status,
              j.verified, j.mismatches);
        ar.vec(j.attempts, [&ar](JobAttempt& a) {
            ar.io(a.device, a.status, a.start, a.end);
        });
    }
}

namespace {

/// p-th percentile of `v` (sorted in place); the same index formula the
/// benches use, so reported numbers line up.
double percentile(std::vector<double>& v, std::size_t p)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t idx = v.size() * p / 100;
    return v[std::min(idx, v.size() - 1)];
}

} // namespace

ServingResult Runner::serve(workload::RequestGen& gen,
                            const ServingConfig& scfg)
{
    System& sys = *sys_;
    scfg.validate();
    ensure(pending_.empty(), "serve with ", pending_.size(),
           " GEMMs already dispatched; run them first");
    ensure(&gen.sim() == &sys.sim(),
           "RequestGen belongs to a different simulator");

    const std::size_t n_eps = sys.device_count();
    const auto& tenants = gen.config().tenants;
    const std::size_t n_tenants = tenants.size();

    // Compose with the active fault model exactly like run_dispatched():
    // the plan supplies timeouts, attempt counts and health thresholds. A
    // missing injector means the defaults (no timeout, one attempt).
    // Health is tracked at any job_max_attempts.
    const FaultPlan& plan = active_plan(sys);
    track_health();
    if (serving_ == nullptr) {
        serving_ = std::make_unique<ServingStats>(sys.stats());
    }
    for (std::size_t t = 0; t < n_tenants; ++t) {
        if (t < serving_->tenants.size()) {
            ensure(serving_->tenants[t]->group.prefix() ==
                       "runner.serving." + tenants[t].name,
                   "serve() tenant list changed between runs on one Runner");
        } else {
            serving_->tenants.push_back(
                std::make_unique<ServingStats::Tenant>(sys.stats(),
                                                       tenants[t].name));
        }
    }

    ServingResult res;
    if (gen.total() == 0) {
        res.start = res.end = sys.sim().now();
        res.tenants.resize(n_tenants);
        for (std::size_t t = 0; t < n_tenants; ++t) {
            res.tenants[t].name = tenants[t].name;
        }
        return res;
    }

    // Per-endpoint operand slots sized for the largest shape anywhere in
    // the schedule: operand memory is bounded no matter how long the
    // overload lasts (the admission queue holds ids, not buffers).
    std::uint64_t max_a = 0;
    std::uint64_t max_b = 0;
    std::uint64_t max_c = 0;
    for (const workload::Request& r : gen.schedule()) {
        max_a = std::max(max_a, r.spec.a_bytes());
        max_b = std::max(max_b, r.spec.b_bytes());
        max_c = std::max(max_c, r.spec.c_bytes());
    }
    struct EpSlot {
        Addr a = 0;
        Addr b = 0;
        Addr c = 0;
        Addr flag = 0;
        Addr desc = 0;
    };
    std::vector<EpSlot> slot_mem(n_eps);
    for (std::size_t ep = 0; ep < n_eps; ++ep) {
        EpSlot& s = slot_mem[ep];
        s.a = sys.alloc_host(max_a);
        s.b = sys.alloc_host(max_b);
        s.c = sys.alloc_host(max_c);
        s.flag = sys.alloc_host(64);
        s.desc = sys.alloc_host(64);
        sys.map_host_pages(s.a, max_a);
        sys.map_host_pages(s.b, max_b);
        sys.map_host_pages(s.c, max_c);
        sys.map_host_pages(s.flag, 8);
        sys.map_host_pages(s.desc, sizeof(accel::GemmCommand));
    }

    if (!serving_hook_armed_) {
        serving_hook_armed_ = true;
        sys.sim().add_ckpt_hook("runner.serving",
                                [this](Ckpt& ar) { serialize_serving(ar); });
    }

    const bool restoring = !restore_.empty();
    serve_ = std::make_unique<ServeState>();
    if (restoring) {
        // Peek the serving section out of the checkpoint before anything
        // runs: the saved in-flight round must be re-staged (identical
        // program shape, identical operand bytes) before Simulator::
        // restore() overwrites the CPU's pc and every component on top.
        Ckpt ar = Ckpt::load_file(restore_, sys.sim().config_hash());
        ar.begin_section("runner.serving");
        serialize_serving(ar);
        ar.end_section();
        ensure(serve_->active && serve_->round_kind != 0,
               "restored checkpoint holds no in-flight serving round");
    } else {
        serve_->active = true;
        serve_->retry_budget = plan.fleet_retry_budget;
        serve_->ep_flag_value.assign(n_eps, 0);
        serve_->start = sys.sim().now();
    }
    ServeState& st = *serve_;

    std::vector<std::size_t> queued_by_tenant(n_tenants, 0);
    for (const std::uint64_t id : st.queue) {
        ++queued_by_tenant[st.jobs[id].tenant];
    }

    // In-flight goldens, one per endpoint (slots are reused every round so
    // completed jobs verify immediately at round evaluation).
    std::vector<std::vector<std::int32_t>> golden(n_eps);

    auto note_shed = [&](std::uint64_t id) {
        ServedJob& j = st.jobs[id];
        j.status = JobStatus::shed;
        ++serving_->shed;
        ++serving_->tenants[j.tenant]->shed;
        --queued_by_tenant[j.tenant];
    };

    // Materialize the round described by st.slots: operands, descriptors
    // and the stage_round() program. With `restaging` the dispatch-tick
    // ledger fields are left alone — the checkpoint already holds them,
    // and this fresh process' pre-restore now() would corrupt the SLO
    // split.
    auto stage_dispatch = [&](bool restaging) {
        const Tick dispatch_tick = sys.sim().now();
        std::vector<Desc> descs;
        for (const Slot& s : st.slots) {
            ServedJob& j = st.jobs[s.job];
            const EpSlot& mem = slot_mem[s.ep];
            workload::init_gemm_data(sys.store(), j.spec, mem.a, mem.b);
            if (scfg.verify) {
                golden[s.ep] =
                    workload::gemm_golden(sys.store(), j.spec, mem.a, mem.b);
            }
            accel::GemmCommand cmd;
            cmd.flags = scfg.verify ? accel::kCmdVerify : 0U;
            cmd.m = j.spec.m;
            cmd.n = j.spec.n;
            cmd.k = j.spec.k;
            cmd.addr_a = mem.a;
            cmd.addr_b = mem.b;
            cmd.addr_c = mem.c;
            cmd.flag_addr = mem.flag;
            cmd.flag_value = s.flag_value;
            descs.push_back(Desc{mem.desc, cmd});
            if (!restaging) {
                if (j.attempts.empty()) {
                    j.first_dispatch = dispatch_tick;
                }
                j.last_dispatch = dispatch_tick;
            }
        }
        stage_round(st.slots, descs, descs, plan.job_timeout_ns);
    };

    // Empty-queue round: burn CPU cycles until just past the next arrival
    // so take_until() picks it up at the round boundary (arm() samples the
    // round end inside the program, so serial and parallel runs agree).
    auto stage_idle = [&](bool restaging) {
        if (!restaging) {
            const Tick target = gen.next_arrival_tick();
            ensure(target != kMaxTick, "idle serving round with no arrival");
            const Tick now = sys.sim().now();
            const Tick period =
                period_from_ghz(sys.config().cpu.freq_ghz);
            st.idle_cycles =
                (target > now ? (target - now) / period : 0) + 2;
        }
        arm({cpu::Delay{st.idle_cycles}});
    };

    // Fill st.slots from the queue head: deadline shedding first (policy
    // deadline_aware only), then least-loaded healthy endpoints, falling
    // back to degraded — pick_usable(), as run_dispatched() re-dispatch
    // uses. Returns false with an empty queue (idle) and diagnoses a
    // fully-quarantined fleet loudly.
    auto choose_slots = [&]() -> bool {
        st.slots.clear();
        std::vector<bool> claimed(n_eps, false);
        const Tick now = sys.sim().now();
        while (!st.queue.empty() && st.slots.size() < n_eps) {
            if (scfg.policy == ShedPolicy::deadline_aware &&
                st.est_service_ticks > 0) {
                while (!st.queue.empty()) {
                    const std::uint64_t id = st.queue.front();
                    const double dl = tenants[st.jobs[id].tenant].deadline_ns;
                    if (dl <= 0.0) {
                        break;
                    }
                    const Tick deadline =
                        st.jobs[id].arrival + ticks_from_ns(dl);
                    if (now + st.est_service_ticks <= deadline) {
                        break;
                    }
                    st.queue.erase(st.queue.begin());
                    note_shed(id);
                }
                if (st.queue.empty()) {
                    break;
                }
            }
            const std::ptrdiff_t ep = pick_usable(claimed);
            if (ep < 0) {
                break; // every usable endpoint is claimed (or none usable)
            }
            const std::uint64_t id = st.queue.front();
            st.queue.erase(st.queue.begin());
            --queued_by_tenant[st.jobs[id].tenant];
            claimed[static_cast<std::size_t>(ep)] = true;
            st.slots.push_back(Slot{
                id, static_cast<std::uint64_t>(ep),
                ++st.ep_flag_value[static_cast<std::size_t>(ep)]});
        }
        if (st.slots.empty() && !st.queue.empty()) {
            ensure_usable("serving", st.queue.size());
        }
        return !st.slots.empty();
    };

    // Admission: every offered request enters the ledger and leaves it as
    // exactly one of admitted / rejected; a later shed or failure keeps
    // the entry — nothing is ever silently dropped.
    auto admit = [&](const workload::Request* r) {
        ensure(st.jobs.size() == r->id, "request ids must be dense");
        ServedJob j;
        j.id = r->id;
        j.tenant = r->tenant;
        j.spec = r->spec;
        j.arrival = r->arrival;
        st.jobs.push_back(std::move(j));
        ServingStats::Tenant& ts = *serving_->tenants[r->tenant];
        ++serving_->offered;
        ++ts.offered;
        const workload::TenantSpec& tn = tenants[r->tenant];
        if (tn.queue_quota > 0 &&
            queued_by_tenant[r->tenant] >= tn.queue_quota) {
            st.jobs.back().status = JobStatus::rejected;
            ++serving_->rejected;
            ++ts.rejected;
            return;
        }
        if (st.queue.size() >= scfg.queue_capacity) {
            if (scfg.policy == ShedPolicy::shed_oldest) {
                const std::uint64_t victim = st.queue.front();
                st.queue.erase(st.queue.begin());
                note_shed(victim);
            } else {
                st.jobs.back().status = JobStatus::rejected;
                ++serving_->rejected;
                ++ts.rejected;
                return;
            }
        }
        ++serving_->admitted;
        ++ts.admitted;
        st.queue.push_back(r->id);
        ++queued_by_tenant[r->tenant];
    };

    auto update_state = [&]() {
        const std::size_t depth = st.queue.size();
        ServingState next = ServingState::normal;
        if (depth >= scfg.shed_mark()) {
            next = ServingState::shedding;
        } else if (depth >= scfg.throttle_mark()) {
            next = ServingState::throttled;
        }
        if (next != static_cast<ServingState>(st.state)) {
            if (next == ServingState::throttled) {
                ++serving_->throttle_enters;
            }
            if (next == ServingState::shedding) {
                ++serving_->shed_enters;
            }
            st.state = static_cast<std::uint8_t>(next);
            serving_->state.set(static_cast<double>(st.state));
        }
        serving_->queue_depth.sample(static_cast<double>(depth));
    };

    bool staged = false;
    if (restoring) {
        if (st.round_kind == 1) {
            stage_dispatch(true);
        } else {
            stage_idle(true); // both apply the snapshot on top (arm())
        }
        staged = true;
    }

    res.end = st.start;
    for (;;) {
        if (!staged) {
            if (choose_slots()) {
                st.round_kind = 1;
                stage_dispatch(false);
            } else if (!gen.exhausted()) {
                st.round_kind = 2;
                stage_idle(false);
            } else {
                break; // queue drained (or fully shed), schedule exhausted
            }
        }
        staged = false;

        const RunResult rr = run_round("serve", true);
        if (rr.cause == ExitCause::checkpointed) {
            res.checkpointed = true;
            res.start = st.start;
            res.end = rr.end_tick;
            res.offered = st.jobs.size();
            for (const ServedJob& j : st.jobs) {
                res.rejected += j.status == JobStatus::rejected;
                res.shed += j.status == JobStatus::shed;
                res.completed += j.status == JobStatus::ok;
                res.failed += j.status == JobStatus::failed;
            }
            res.admitted = res.offered - res.rejected;
            res.rounds = st.rounds;
            res.idle_rounds = st.idle_rounds;
            res.redispatches = st.redispatches;
            res.flrs = st.flrs;
            return res;
        }
        const Tick round_end = ticks_->end;
        res.end = round_end;

        if (st.round_kind == 1) {
            ++st.rounds;
            ++serving_->rounds;
            ++fleet_->rounds;
        } else {
            ++st.idle_rounds;
            ++serving_->idle_rounds;
        }

        std::vector<std::uint64_t> retries;
        if (st.round_kind == 1) {
            for (const Slot& s : st.slots) {
                ServedJob& j = st.jobs[s.job];
                ServingStats::Tenant& ts = *serving_->tenants[j.tenant];
                const auto ep = static_cast<std::size_t>(s.ep);
                const Verdict v = settle(s, slot_mem[ep].flag, j.last_dispatch,
                                         j.attempts, &plan, st.retry_budget);
                if (v == Verdict::ok) {
                    j.status = JobStatus::ok;
                    j.done = sys.accelerator(ep).last_complete_tick();
                    if (scfg.verify) {
                        j.mismatches = workload::gemm_check(
                            sys.store(), j.spec, slot_mem[ep].c, golden[ep]);
                        j.verified = j.mismatches == 0;
                        if (!j.verified) {
                            ++serving_->verify_failures;
                        }
                    }
                    const Tick service = j.done - j.last_dispatch;
                    const double queue_ns =
                        ticks_to_ns(j.first_dispatch - j.arrival);
                    const double service_ns = ticks_to_ns(service);
                    const double e2e_ns = ticks_to_ns(j.done - j.arrival);
                    ++serving_->completed;
                    ++ts.completed;
                    serving_->queue_ns.sample(queue_ns);
                    serving_->service_ns.sample(service_ns);
                    serving_->e2e_ns.sample(e2e_ns);
                    ts.queue_ns.sample(queue_ns);
                    ts.service_ns.sample(service_ns);
                    ts.e2e_ns.sample(e2e_ns);
                    // EMA of observed service time feeds deadline shedding.
                    st.est_service_ticks =
                        st.est_service_ticks == 0
                            ? service
                            : (st.est_service_ticks * 7 + service) / 8;
                    continue;
                }
                ++st.flrs;
                if (v == Verdict::retry) {
                    ++st.redispatches;
                    ++serving_->retries;
                    retries.push_back(s.job);
                } else {
                    j.status = JobStatus::failed;
                    ++serving_->failed;
                    ++ts.failed;
                }
            }
            st.slots.clear();
        }

        // Drain arrivals up to the round boundary (a tick sampled inside
        // the program, so serial and parallel runs agree — see the
        // RequestGen determinism note), then put retries back at the
        // front: they are older than anything that arrived this round.
        for (const workload::Request* r : gen.take_until(round_end)) {
            admit(r);
        }
        for (auto it = retries.rbegin(); it != retries.rend(); ++it) {
            st.queue.insert(st.queue.begin(), *it);
            ++queued_by_tenant[st.jobs[*it].tenant];
        }
        update_state();
        st.round_kind = 0;
    }

    // Finalize: the run is over, the ledger is total (no pending entries),
    // and the accounting identity must hold exactly.
    st.active = false;
    res.start = st.start;
    res.rounds = st.rounds;
    res.idle_rounds = st.idle_rounds;
    res.redispatches = st.redispatches;
    res.flrs = st.flrs;
    res.final_state = static_cast<ServingState>(st.state);
    res.health.resize(n_eps);
    for (std::size_t ep = 0; ep < n_eps; ++ep) {
        res.health[ep] = health_[ep].state;
    }
    res.jobs = std::move(st.jobs);

    res.tenants.resize(n_tenants);
    std::vector<std::vector<double>> qv(n_tenants);
    std::vector<std::vector<double>> sv(n_tenants);
    std::vector<std::vector<double>> ev(n_tenants);
    for (const ServedJob& j : res.jobs) {
        ensure(j.status != JobStatus::pending && j.status != JobStatus::timed_out,
               "serving ledger entry ", j.id, " left unaccounted");
        TenantSlo& slo = res.tenants[j.tenant];
        ++slo.offered;
        switch (j.status) {
        case JobStatus::ok:
            ++slo.admitted;
            ++slo.completed;
            qv[j.tenant].push_back(ticks_to_ns(j.first_dispatch - j.arrival));
            sv[j.tenant].push_back(ticks_to_ns(j.done - j.last_dispatch));
            ev[j.tenant].push_back(ticks_to_ns(j.done - j.arrival));
            break;
        case JobStatus::failed:
            ++slo.admitted;
            ++slo.failed;
            break;
        case JobStatus::shed:
            ++slo.admitted;
            ++slo.shed;
            break;
        case JobStatus::rejected:
            ++slo.rejected;
            break;
        default:
            break;
        }
    }
    const double horizon_s = ticks_to_sec(res.elapsed());
    for (std::size_t t = 0; t < n_tenants; ++t) {
        TenantSlo& slo = res.tenants[t];
        slo.name = tenants[t].name;
        slo.p50_queue_ns = percentile(qv[t], 50);
        slo.p99_queue_ns = percentile(qv[t], 99);
        slo.p50_service_ns = percentile(sv[t], 50);
        slo.p99_service_ns = percentile(sv[t], 99);
        slo.p50_e2e_ns = percentile(ev[t], 50);
        slo.p99_e2e_ns = percentile(ev[t], 99);
        slo.goodput_jobs_per_s =
            horizon_s > 0.0
                ? static_cast<double>(slo.completed) / horizon_s
                : 0.0;
        res.offered += slo.offered;
        res.admitted += slo.admitted;
        res.rejected += slo.rejected;
        res.shed += slo.shed;
        res.completed += slo.completed;
        res.failed += slo.failed;
        ServingStats::Tenant& ts = *serving_->tenants[t];
        ts.p50_queue_ns.set(slo.p50_queue_ns);
        ts.p99_queue_ns.set(slo.p99_queue_ns);
        ts.p50_service_ns.set(slo.p50_service_ns);
        ts.p99_service_ns.set(slo.p99_service_ns);
        ts.p50_e2e_ns.set(slo.p50_e2e_ns);
        ts.p99_e2e_ns.set(slo.p99_e2e_ns);
        ts.goodput.set(slo.goodput_jobs_per_s);
    }
    serving_->goodput.set(res.goodput_jobs_per_s());
    ensure(res.accounted(), "serving accounting broken: offered ",
           res.offered, " != admitted ", res.admitted, " + rejected ",
           res.rejected, " (or completed ", res.completed, " + shed ",
           res.shed, " + failed ", res.failed, " != admitted)");
    return res;
}

void Runner::restore_dispatched(const std::string& path)
{
    ensure(!pending_.empty(), "restore_dispatched with nothing dispatched");
    std::vector<Slot> slots;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        slots.push_back(Slot{i, pending_[i].device,
                             pending_[i].desc.cmd.flag_value});
    }
    restore_ = path;
    stage_round(slots, pending_descs(), pending_descs(),
                active_plan(*sys_).job_timeout_ns);
    pending_.clear();
}

VitRunResult Runner::run_vit(const workload::VitConfig& cfg, Placement place)
{
    System& sys = *sys_;
    const auto ops = workload::lower_vit(cfg);

    // Activation ping-pong buffers sized for the largest operand of any op.
    std::uint64_t act_a_bytes = 0;
    std::uint64_t act_c_bytes = 0;
    for (const auto& op : ops) {
        if (op.kind == workload::VitOp::Kind::gemm) {
            act_a_bytes = std::max(act_a_bytes, op.a_bytes());
            act_c_bytes = std::max(act_c_bytes, op.c_bytes());
        } else {
            act_c_bytes = std::max(act_c_bytes, op.bytes_in);
            act_a_bytes = std::max(act_a_bytes, op.bytes_out);
        }
    }

    const Addr act_a = sys.alloc(place, act_a_bytes);
    const Addr act_c = sys.alloc(place, act_c_bytes);
    const Addr flag = sys.alloc_host(64);
    const Addr desc = sys.alloc_host(64);
    sys.map_host_pages(flag, 8);
    sys.map_host_pages(desc, sizeof(accel::GemmCommand));
    if (place == Placement::host) {
        sys.map_host_pages(act_a, act_a_bytes);
        sys.map_host_pages(act_c, act_c_bytes);
    }

    // Distinct weights per GEMM (real models never reuse them).
    std::vector<Addr> weights;
    weights.reserve(ops.size());
    for (const auto& op : ops) {
        if (op.kind == workload::VitOp::Kind::gemm) {
            const Addr w = sys.alloc(place, op.b_bytes());
            if (place == Placement::host) {
                sys.map_host_pages(w, op.b_bytes());
            }
            weights.push_back(w);
        } else {
            weights.push_back(0);
        }
    }

    VitRunResult res;
    // `mark` lives on the heap: the program outlives this stack frame only
    // within run(), but shared_ptr keeps the lambdas self-contained.
    auto mark = std::make_shared<Tick>(0);

    std::vector<cpu::CpuOp> prog;
    prog.push_back(
        cpu::Call{[&sys, &res] { res.start = sys.sim().now(); }});

    std::uint64_t flag_value = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto& op = ops[i];
        if (op.kind == workload::VitOp::Kind::gemm) {
            ++flag_value;
            accel::GemmCommand cmd;
            cmd.flags =
                place == Placement::devmem ? accel::kCmdDataInDevMem : 0U;
            cmd.m = op.m;
            cmd.n = op.n;
            cmd.k = op.k;
            cmd.addr_a = act_a;
            cmd.addr_b = weights[i];
            cmd.addr_c = act_c;
            cmd.flag_addr = flag;
            cmd.flag_value = flag_value;

            prog.push_back(cpu::Call{[&sys, mark, desc, cmd] {
                *mark = sys.sim().now();
                sys.store().write_obj(desc, cmd);
            }});
            prog.push_back(cpu::MmioWrite{doorbell_addr(sys), desc});
            prog.push_back(cpu::PollFlag{flag, flag_value});
            prog.push_back(cpu::Call{[&sys, &res, mark] {
                res.gemm_ticks += sys.sim().now() - *mark;
                ++res.gemm_cmds;
            }});
        } else {
            cpu::VectorOp vop;
            vop.label = op.label;
            vop.in_addr = act_c;
            vop.bytes_in = op.bytes_in;
            vop.out_addr = act_a;
            vop.bytes_out = op.bytes_out;
            vop.alu_ops = op.alu_ops;

            prog.push_back(cpu::Call{
                [&sys, mark] { *mark = sys.sim().now(); }});
            prog.push_back(std::move(vop));
            prog.push_back(cpu::Call{[&sys, &res, mark] {
                res.nongemm_ticks += sys.sim().now() - *mark;
                ++res.vector_ops;
            }});
        }
    }
    prog.push_back(cpu::Call{[&sys, &res] { res.end = sys.sim().now(); }});

    sys.host_cpu().run_program(std::move(prog), [&sys] {
        sys.sim().request_exit("vit complete");
    });
    if (!restore_.empty()) {
        sys.sim().restore(std::exchange(restore_, {}));
    }
    const RunResult rr = run_with_stats_flush(sys, "run_vit");
    if (rr.cause == ExitCause::checkpointed) {
        res.end = rr.end_tick;
        return res;
    }
    ensure(rr.cause == ExitCause::exit_requested,
           "ViT run deadlocked: simulation drained at tick ", rr.end_tick,
           " with jobs outstanding; component occupancy:\n",
           sys.sim().occupancy_report());
    return res;
}

} // namespace accesys::core
