// End-to-end benchmark workloads for the accesys simulator.
//
// One process runs one workload exactly once on a freshly built
// core::System, so the simulated caches, the host packet/TLP pools and the
// backing store all start empty. The process prints one JSON object on
// stdout: host-time end-to-end figures (setup, wall, CPU, peak RSS), the
// correctness verdict, a digest of the simulated stats, and — with
// --trace — the per-layer breakdown. e2ebench/run.py repeats processes for
// a time budget and aggregates them.
//
//   e2ebench --workload host_contention|devmem_fleet|serving_overload
//            --seed N [--trace] [--threads N]
//
// The three workloads stress disjoint parts of the model (README.md says
// why each was chosen):
//   host_contention   4 x 512^3 GEMMs with host-resident operands behind
//                     the shared PCIe 2.0 x4 uplink: bulk DMA through the
//                     RC/switch/uplink and the membus -> iocache -> LLC ->
//                     DDR hierarchy. Serial event core.
//   devmem_fleet      16 x 512^3 GEMMs in per-endpoint HBM2: work stays in
//                     the endpoint domains, so the parallel event core and
//                     the devmem controllers dominate.
//   serving_overload  open-loop two-tenant Poisson serving at 1.5x fleet
//                     capacity: thousands of tiny jobs through admission,
//                     doorbells, polling and per-TLP root-complex work.
//
// Per-layer host time comes from an EventQueue::DispatchObserver installed
// on every queue: the host time from one dispatch to the next dispatch on
// the same thread is charged to the earlier event, and the event's name
// prefix selects its layer (kLayerMap). Host code that runs between two
// dispatches — Runner callbacks, round staging — is therefore charged to
// the event before it; components whose host ns per event stand far above
// the norm are flagged instead of hidden.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/runner.hh"
#include "core/system.hh"
#include "core/system_config.hh"
#include "workload/gemm.hh"
#include "workload/request_gen.hh"

namespace {

using namespace accesys;
using Clock = std::chrono::steady_clock;

double secs_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/// Process user + system CPU seconds (all threads).
double cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// FNV-1a over the full stats dump: identical for identical simulations.
std::uint64_t stats_digest(core::System& sys)
{
    std::ostringstream os;
    sys.stats().write_json(os);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : os.str()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

// --- per-layer dispatch trace -----------------------------------------------

/// Event-name component (text before the first '.') -> layer, matched by
/// prefix in order. Layers are the src/ modules; the DMA engine's events
/// share the accelerator's "mf*" prefix and so count as accel.
constexpr std::pair<const char*, const char*> kLayerMap[] = {
    {"membus", "mem.membus"},
    {"hostmem", "mem.hostmem"},
    {"devmem", "mem.devmem"}, // devmem<i> controllers and devmem_xbar<i>
    {"iocache", "cache"},
    {"llc", "cache"},
    {"l1d", "cache"},
    {"rc", "pcie.rc"},
    {"link_", "pcie.link"},
    {"pcie_sw", "pcie.switch"}, // "pcie_sw<i>_up" links handled below
    {"smmu", "smmu"},
    {"mf", "accel"},
    {"cpu", "cpu"},
    {"reqgen", "workload"},
};

std::string layer_of(const std::string& component)
{
    if (component.rfind("pcie_sw", 0) == 0 && component.size() > 3 &&
        component.compare(component.size() - 3, 3, "_up") == 0) {
        return "pcie.link"; // inter-switch uplink
    }
    for (const auto& [prefix, layer] : kLayerMap) {
        if (component.rfind(prefix, 0) == 0) {
            return layer;
        }
    }
    return "";
}

/// Charges host time between consecutive dispatches on one thread to the
/// earlier event. In a parallel run a gap that crosses a window boundary
/// spans a barrier (wait, handoff injection, journal drain), so it is
/// charged to the sim layer instead of to the event before it.
class LayerTrace final : public EventQueue::DispatchObserver {
  public:
    explicit LayerTrace(Tick quantum) : quantum_(quantum) {}

    void on_dispatch(const Event& ev) override
    {
        const auto t = Clock::now();
        ThreadLog& log = local_log();
        if (log.last != nullptr) {
            const double ns =
                std::chrono::duration<double, std::nano>(t - log.last_t)
                    .count();
            if (quantum_ != 0 &&
                ev.when() / quantum_ != log.last_tick / quantum_) {
                log.sync_ns += ns;
            } else {
                ++log.last->count;
                log.last->ns += ns;
            }
        }
        log.last = &log.slots[&ev.name()];
        log.last_tick = ev.when();
        log.last_t = t;
    }

    struct Component {
        std::uint64_t events = 0;
        double ns = 0.0;
    };

    /// Per-component totals over every thread.
    [[nodiscard]] std::map<std::string, Component> components() const
    {
        std::map<std::string, Component> out;
        const std::lock_guard<std::mutex> lock(mu_);
        for (const auto& log : logs_) {
            for (const auto& [name, slot] : log->slots) {
                Component& c = out[name->substr(0, name->find('.'))];
                c.events += slot.count;
                c.ns += slot.ns;
            }
        }
        return out;
    }

    /// Barrier-spanning host time over every thread.
    [[nodiscard]] double sync_ns() const
    {
        double ns = 0.0;
        const std::lock_guard<std::mutex> lock(mu_);
        for (const auto& log : logs_) {
            ns += log->sync_ns;
        }
        return ns;
    }

    /// Host time the calling thread's dispatches cover.
    [[nodiscard]] double caller_ns()
    {
        const ThreadLog& log = local_log();
        double ns = log.sync_ns;
        for (const auto& [_, slot] : log.slots) {
            ns += slot.ns;
        }
        return ns;
    }

  private:
    struct Slot {
        std::uint64_t count = 0;
        double ns = 0.0;
    };
    struct ThreadLog {
        std::unordered_map<const std::string*, Slot> slots;
        Slot* last = nullptr;
        Tick last_tick = 0;
        Clock::time_point last_t;
        double sync_ns = 0.0;
    };

    ThreadLog& local_log()
    {
        // One trace per process; simulation worker threads live for one
        // run() call, so every thread registers its log on first dispatch.
        thread_local ThreadLog* log = nullptr;
        if (log == nullptr) {
            auto owned = std::make_unique<ThreadLog>();
            log = owned.get();
            const std::lock_guard<std::mutex> lock(mu_);
            logs_.push_back(std::move(owned));
        }
        return *log;
    }

    Tick quantum_;
    mutable std::mutex mu_; // guards logs_ (the vector, not the logs)
    std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Every event queue of the system: the root plus one per domain.
std::vector<EventQueue*> all_queues(core::System& sys)
{
    std::vector<EventQueue*> qs{&sys.sim().queue()};
    for (std::size_t i = 0; i < sys.sim().domain_count(); ++i) {
        qs.push_back(sys.sim().domain(i).queue.get());
    }
    return qs;
}

// --- JSON output ------------------------------------------------------------

class JsonObj {
  public:
    void num(const std::string& k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        add(k, buf);
    }
    void str(const std::string& k, const std::string& v)
    {
        add(k, "\"" + v + "\"");
    }
    void boolean(const std::string& k, bool v) { add(k, v ? "true" : "false"); }
    void raw(const std::string& k, const std::string& v) { add(k, v); }
    [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

  private:
    void add(const std::string& k, const std::string& v)
    {
        if (!body_.empty()) {
            body_ += ", ";
        }
        body_ += "\"" + k + "\": " + v;
    }
    std::string body_;
};

// --- workloads --------------------------------------------------------------

struct Outcome {
    double setup_s = 0.0; ///< System construction + staging
    double stage_s = 0.0; ///< staging alone (dispatch / RequestGen)
    double wall_s = 0.0;  ///< the timed run call
    double cpu_s = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t failed_ops = 0;
    std::vector<std::string> problems; ///< correctness failures
    JsonObj model;                     ///< workload-specific model outputs
};

constexpr std::uint32_t kGemmDim = 512;

/// Per-endpoint operand seed derived from the workload seed.
std::uint64_t gemm_seed(std::uint64_t seed, std::size_t dev)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + dev + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    return z ^ (z >> 31);
}

/// What one process builds and measures: the system with its runner and
/// request source (kept alive so their stats stay registered for the
/// digest) and, with tracing on, the dispatch trace plus the run-call time
/// no root-thread dispatch covers.
struct RunCtx {
    unsigned threads = 1;
    bool traced = false;
    std::unique_ptr<core::System> sys;
    std::unique_ptr<workload::RequestGen> gen;
    std::unique_ptr<core::Runner> runner;
    std::unique_ptr<LayerTrace> trace;
    double uncovered_ns = 0.0;

    core::System& build(core::SystemConfig cfg)
    {
        cfg.threads = threads;
        sys = std::make_unique<core::System>(cfg);
        runner = std::make_unique<core::Runner>(*sys);
        return *sys;
    }

    /// Runs `timed` between CPU/wall samples, with the trace (if any)
    /// installed on every queue; fills wall_s and cpu_s.
    template <typename F>
    void timed_call(Outcome& out, F&& timed)
    {
        const auto queues = all_queues(*sys);
        if (traced) {
            Simulator& sim = sys->sim();
            trace = std::make_unique<LayerTrace>(
                sim.parallel() ? sim.quantum() : 0);
            for (EventQueue* q : queues) {
                q->set_dispatch_observer(trace.get());
            }
        }
        const double c0 = cpu_seconds();
        const auto t0 = Clock::now();
        timed();
        const auto t1 = Clock::now();
        out.cpu_s = cpu_seconds() - c0;
        out.wall_s = secs_between(t0, t1);
        if (traced) {
            for (EventQueue* q : queues) {
                q->set_dispatch_observer(nullptr);
            }
            uncovered_ns = out.wall_s * 1e9 - trace->caller_ns();
        }
    }
};

/// N concurrent 512^3 GEMMs, one per endpoint, every result bit-verified
/// against the golden model computed at dispatch.
Outcome run_gemm_fleet(RunCtx& ctx, core::SystemConfig cfg,
                       std::size_t devices, core::Placement place,
                       std::uint64_t seed)
{
    Outcome out;
    cfg.set_num_devices(devices);
    const auto t0 = Clock::now();
    ctx.build(cfg);
    const auto t1 = Clock::now();
    for (std::size_t d = 0; d < devices; ++d) {
        ctx.runner->dispatch(d,
                        workload::GemmSpec{kGemmDim, kGemmDim, kGemmDim,
                                           gemm_seed(seed, d)},
                        place, /*verify=*/true);
    }
    const auto t2 = Clock::now();
    out.setup_s = secs_between(t0, t2);
    out.stage_s = secs_between(t1, t2);

    core::MultiGemmResult res;
    ctx.timed_call(out, [&] { res = ctx.runner->run_dispatched(); });

    out.ops = devices;
    if (res.checkpointed) {
        out.problems.push_back("run stopped at a checkpoint");
    }
    std::uint64_t good = 0;
    for (const auto& d : res.devices) {
        if (d.ok() && d.verified && d.mismatches == 0) {
            ++good;
        } else {
            out.problems.push_back("device " + std::to_string(d.device) +
                                   " failed verification (" +
                                   std::to_string(d.mismatches) +
                                   " mismatches)");
        }
    }
    out.failed_ops = devices - std::min<std::uint64_t>(good, devices);
    if (good != devices && out.problems.empty()) {
        out.problems.push_back("missing per-device results");
    }
    out.model.num("sim_us", ticks_to_sec(res.elapsed()) * 1e6);
    out.model.num("aggregate_gbps", res.aggregate_gbps());
    return out;
}

/// The pinned two-tenant serving mix (interactive 16^3/32^3, batch 48^3)
/// offered at `rate` jobs/s over `horizon_ns` of simulated time.
workload::RequestGenConfig serving_mix(std::uint64_t seed, double rate,
                                       double horizon_ns)
{
    workload::RequestGenConfig g;
    g.seed = seed;
    g.horizon_ns = horizon_ns;
    workload::TenantSpec interactive;
    interactive.name = "interactive";
    interactive.rate_jobs_per_s = rate * 2.0 / 3.0;
    interactive.mix = {workload::GemmSpec{16, 16, 16},
                       workload::GemmSpec{32, 32, 32}};
    workload::TenantSpec batch;
    batch.name = "batch";
    batch.rate_jobs_per_s = rate / 3.0;
    batch.mix = {workload::GemmSpec{48, 48, 48}};
    g.tenants = {interactive, batch};
    return g;
}

/// Open-loop serving at 1.5x the 4-endpoint fleet's capacity (6e5 jobs/s
/// offered over 40 ms simulated); every completed job is bit-verified and
/// every request accounted.
Outcome run_serving(RunCtx& ctx, std::uint64_t seed)
{
    Outcome out;
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_num_devices(4);
    const auto t0 = Clock::now();
    core::System& sys = ctx.build(cfg);
    const auto t1 = Clock::now();
    ctx.gen = std::make_unique<workload::RequestGen>(
        sys.sim(), serving_mix(seed, 6e5, 4e7));
    const auto t2 = Clock::now();
    out.setup_s = secs_between(t0, t2);
    out.stage_s = secs_between(t1, t2);

    core::ServingConfig scfg;
    scfg.policy = core::ShedPolicy::shed_oldest;
    scfg.queue_capacity = 8;
    scfg.verify = true;
    core::ServingResult res;
    ctx.timed_call(out, [&] { res = ctx.runner->serve(*ctx.gen, scfg); });

    // Shed and rejected requests are simulated outcomes, not failures.
    out.ops = res.offered;
    if (res.checkpointed) {
        out.problems.push_back("run stopped at a checkpoint");
    }
    if (res.offered != ctx.gen->total() || !res.accounted()) {
        out.problems.push_back("serving accounting identity broken");
        ++out.failed_ops;
    }
    if (sys.stats().value("runner.serving.verify_failures") != 0.0) {
        out.problems.push_back("runner.serving.verify_failures != 0");
    }
    std::uint64_t bad_jobs = 0;
    for (const auto& j : res.jobs) {
        const bool done_ok = j.status == core::JobStatus::ok &&
                             j.verified && j.mismatches == 0;
        if (!done_ok && j.status != core::JobStatus::shed &&
            j.status != core::JobStatus::rejected) {
            ++bad_jobs;
        }
    }
    if (bad_jobs != 0) {
        out.failed_ops += bad_jobs;
        out.problems.push_back(std::to_string(bad_jobs) +
                               " jobs failed, timed out or mismatched");
    }
    double p99 = 0.0;
    for (const auto& t : res.tenants) {
        p99 = std::max(p99, t.p99_e2e_ns);
    }
    out.model.num("sim_us", ticks_to_sec(res.elapsed()) * 1e6);
    out.model.num("serving.offered", static_cast<double>(res.offered));
    out.model.num("serving.admitted", static_cast<double>(res.admitted));
    out.model.num("serving.rejected", static_cast<double>(res.rejected));
    out.model.num("serving.completed", static_cast<double>(res.completed));
    out.model.num("serving.shed", static_cast<double>(res.shed));
    out.model.num("serving.failed", static_cast<double>(res.failed));
    out.model.num("serving.rounds", static_cast<double>(res.rounds));
    out.model.num("serving.p99_e2e_ns", p99);
    out.model.num("serving.goodput_jobs_per_s", res.goodput_jobs_per_s());
    return out;
}

// --- per-layer metrics ------------------------------------------------------

/// Stats-registry readings summed over every instance of a component
/// ("mf", "mf1", ... "mf15"), parsed from the text dump.
class StatSums {
  public:
    explicit StatSums(core::System& sys)
    {
        std::ostringstream os;
        sys.stats().write_text(os);
        std::istringstream is(os.str());
        std::string line;
        while (std::getline(is, line)) {
            std::istringstream ls(line);
            std::string name;
            std::string value;
            if (!(ls >> name >> value) || name[0] == '#') {
                continue;
            }
            if (value.rfind("mean=", 0) == 0) {
                value = value.substr(5);
            }
            char* end = nullptr;
            const double v = std::strtod(value.c_str(), &end);
            if (end != value.c_str()) {
                values_.emplace_back(name, v);
            }
        }
    }

    /// Sum of `<prefix><digits>.<leaf>` over every instance.
    [[nodiscard]] double sum(const std::string& prefix,
                             const std::string& leaf) const
    {
        double s = 0.0;
        for (const auto& [name, v] : values_) {
            s += matches(name, prefix, leaf) ? v : 0.0;
        }
        return s;
    }

    /// Mean of the same readings (0 when no instance exists).
    [[nodiscard]] double mean(const std::string& prefix,
                              const std::string& leaf) const
    {
        double s = 0.0;
        std::size_t n = 0;
        for (const auto& [name, v] : values_) {
            if (matches(name, prefix, leaf)) {
                s += v;
                ++n;
            }
        }
        return n == 0 ? 0.0 : s / static_cast<double>(n);
    }

  private:
    static bool matches(const std::string& name, const std::string& prefix,
                        const std::string& leaf)
    {
        if (name.size() < prefix.size() + leaf.size() + 1 ||
            name.rfind(prefix, 0) != 0) {
            return false;
        }
        const std::size_t dot = name.size() - leaf.size() - 1;
        if (name[dot] != '.' || name.compare(dot + 1, leaf.size(), leaf) != 0) {
            return false;
        }
        // The instance suffix is digits only, so "mf" never matches
        // "mf.devmem_mover" and "devmem" never matches "devmem_xbar".
        for (std::size_t i = prefix.size(); i < dot; ++i) {
            if (name[i] < '0' || name[i] > '9') {
                return false;
            }
        }
        return true;
    }

    std::vector<std::pair<std::string, double>> values_;
};

/// Per-layer metrics: traced host time by layer plus simulated counts from
/// the stats registry and the event-core accessors. Components whose host
/// ns per event is far above the norm are appended to `flags`; event
/// components no layer claims are appended to `unmapped`.
std::string layer_metrics(core::System& sys, const RunCtx& ctx,
                          const Outcome& out, std::vector<std::string>& flags,
                          std::vector<std::string>& unmapped)
{
    JsonObj m;
    const auto comps = ctx.trace->components();
    std::map<std::string, double> layer_ns;
    for (const auto& [_, layer] : kLayerMap) {
        layer_ns[layer] = 0.0; // every layer reported, exercised or not
    }
    std::uint64_t events = 0;
    double attributed_ns = 0.0;
    for (const auto& [comp, c] : comps) {
        events += c.events;
        attributed_ns += c.ns;
        const std::string layer = layer_of(comp);
        if (layer.empty()) {
            unmapped.push_back(comp);
        } else {
            layer_ns[layer] += c.ns;
        }
    }
    for (const auto& [layer, ns] : layer_ns) {
        m.num(layer + ".host_ms", ns * 1e-6);
    }
    m.num("sim.host_ms", ctx.trace->sync_ns() * 1e-6);
    m.num("core.host_ms", std::max(0.0, ctx.uncovered_ns) * 1e-6);
    m.num("workload.stage_ms", out.stage_s * 1e3);

    // Flag component families (instance digits stripped: mf1 -> mf) whose
    // host ns per event is over 5x the mean. Two causes: heavy work per
    // event (functional GEMM tiles), or host code running between two
    // dispatches (Runner callbacks: admission, golden compute, verify)
    // charged to the event before it. Families under 1% of the attributed
    // time are not flagged.
    std::map<std::string, LayerTrace::Component> families;
    for (const auto& [comp, c] : comps) {
        auto& f = families[comp.substr(
            0, comp.find_last_not_of("0123456789") + 1)];
        f.events += c.events;
        f.ns += c.ns;
    }
    const double norm = events == 0 ? 0.0 : attributed_ns / events;
    for (const auto& [fam, c] : families) {
        const double per = c.events == 0 ? 0.0 : c.ns / c.events;
        if (per > 5.0 * norm && c.ns > 0.01 * attributed_ns) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s* (%s): %.0f host ns/event over %llu events vs "
                          "%.0f mean, %.1f%% of attributed time",
                          fam.c_str(), layer_of(fam).c_str(), per,
                          static_cast<unsigned long long>(c.events), norm,
                          100.0 * c.ns / attributed_ns);
            flags.emplace_back(buf);
        }
    }
    m.num("trace.flagged_components", static_cast<double>(flags.size()));

    // Host hierarchy.
    const StatSums s(sys);
    m.num("mem.membus.requests", s.sum("membus", "requests"));
    m.num("mem.membus.snoops", s.sum("membus", "snoops"));
    m.num("cache.iocache.hit_rate", s.sum("iocache", "hit_rate"));
    m.num("cache.llc.hit_rate", s.sum("llc", "hit_rate"));
    m.num("cache.l1d.hit_rate", s.sum("l1d", "hit_rate"));
    m.num("cache.writebacks", s.sum("iocache", "writebacks") +
                                  s.sum("llc", "writebacks") +
                                  s.sum("l1d", "writebacks"));
    m.num("cache.mshr_rejects", s.sum("iocache", "mshr_rejects") +
                                    s.sum("llc", "mshr_rejects") +
                                    s.sum("l1d", "mshr_rejects"));
    m.num("mem.hostmem.row_hit_rate", s.sum("hostmem", "row_hit_rate"));
    m.num("mem.hostmem.read_latency_ns",
          s.sum("hostmem", "read_latency_ns"));

    // PCIe fabric and SMMU.
    pcie::PcieLink& up = sys.pcie_uplink();
    m.num("pcie.link_up.tlps", s.sum("link_up", "tlps"));
    m.num("pcie.link_up.utilization",
          std::max(up.utilization(0), up.utilization(1)));
    m.num("pcie.rc.hol_stalls", s.sum("rc", "hol_stalls"));
    const double lookups = s.sum("smmu", "utlb_lookups");
    m.num("smmu.translations", s.sum("smmu", "translations"));
    m.num("smmu.utlb_miss_rate",
          lookups == 0.0 ? 0.0 : s.sum("smmu", "utlb_misses") / lookups);
    m.num("smmu.ptws", s.sum("smmu", "ptw_count"));

    // Device side.
    m.num("mem.devmem.bytes", s.sum("devmem", "bytes_read") +
                                  s.sum("devmem", "bytes_written"));
    m.num("mem.devmem.row_hit_rate", s.mean("devmem", "row_hit_rate"));
    m.num("dma.bytes_read", s.sum("mf", "dma.bytes_read"));
    m.num("dma.bytes_written", s.sum("mf", "dma.bytes_written"));
    m.num("accel.compute_ticks", s.sum("mf", "compute_ticks"));

    // Event core and parallel core. Domain imbalance is the busiest
    // endpoint domain's event count over the mean (root domain excluded).
    Simulator& sim = sys.sim();
    std::uint64_t express = 0;
    std::uint64_t pushes = 0;
    std::uint64_t total_events = 0;
    for (EventQueue* q : all_queues(sys)) {
        express += q->express_hits();
        pushes += q->heap_pushes();
        total_events += q->events_processed();
    }
    double dom_max = 0.0;
    double dom_sum = 0.0;
    for (std::size_t i = 0; i < sim.domain_count(); ++i) {
        const auto e =
            static_cast<double>(sim.domain(i).queue->events_processed());
        dom_max = std::max(dom_max, e);
        dom_sum += e;
    }
    const auto barriers = static_cast<double>(sim.barrier_waits());
    const auto n_events = static_cast<double>(total_events);
    m.num("sim.events", n_events);
    m.num("sim.express_hits", static_cast<double>(express));
    m.num("sim.heap_pushes", static_cast<double>(pushes));
    m.num("sim.barriers", barriers);
    m.num("sim.handoffs", static_cast<double>(sim.handoffs()));
    m.num("sim.read_fences", static_cast<double>(sim.fence_waits()));
    m.num("sim.events_per_barrier",
          barriers == 0.0 ? 0.0 : n_events / barriers);
    m.num("sim.domain_imbalance",
          dom_sum == 0.0 ? 0.0
                         : dom_max * static_cast<double>(sim.domain_count()) /
                               dom_sum);

    // Control plane.
    m.num("core.rounds", s.sum("runner.serving", "rounds"));
    m.num("workload.arrivals", s.sum("reqgen", "arrivals"));
    return m.text();
}

std::string json_list(const std::vector<std::string>& v)
{
    std::string s = "[";
    for (const auto& e : v) {
        s += (s.size() > 1 ? ", \"" : "\"") + e + "\"";
    }
    return s + "]";
}

int usage()
{
    std::fprintf(stderr,
                 "usage: e2ebench --workload host_contention|devmem_fleet|"
                 "serving_overload --seed N [--trace] [--threads N]\n");
    return 2;
}

} // namespace

int main(int argc, char** argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    bool have_seed = false;
    RunCtx ctx;
    unsigned threads_override = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload" && i + 1 < argc) {
            workload = argv[++i];
        } else if (a == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (a == "--threads" && i + 1 < argc) {
            threads_override =
                static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (a == "--trace") {
            ctx.traced = true;
        } else {
            return usage();
        }
    }
    if (!have_seed) {
        return usage();
    }

    // Simulation threads: only devmem_fleet runs the parallel core, capped
    // at the CPUs this process may use so it never time-slices. Simulated
    // results are identical for any thread count.
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    const int cores =
        sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
    ctx.threads =
        workload == "devmem_fleet" ? std::clamp(cores, 1, 4) : 1;
    if (threads_override != 0) {
        ctx.threads = threads_override;
    }

    Outcome out;
    if (workload == "host_contention") {
        core::SystemConfig cfg = core::SystemConfig::paper_default();
        cfg.access_mode = core::AccessMode::dc;
        out = run_gemm_fleet(ctx, cfg, 4, core::Placement::host, seed);
    } else if (workload == "devmem_fleet") {
        core::SystemConfig cfg = core::SystemConfig::paper_default();
        cfg.set_devmem("HBM2");
        out = run_gemm_fleet(ctx, cfg, 16, core::Placement::devmem, seed);
    } else if (workload == "serving_overload") {
        out = run_serving(ctx, seed);
    } else {
        return usage();
    }
    core::System& sys = *ctx.sys;

    JsonObj j;
    j.str("workload", workload);
    j.num("seed", static_cast<double>(seed));
    j.num("threads", ctx.threads);
    j.boolean("traced", ctx.traced);
    j.num("setup_s", out.setup_s);
    j.num("wall_s", out.wall_s);
    j.num("cpu_s", out.cpu_s);
    j.num("peak_rss_mb", peak_rss_mb());
    j.num("ops", static_cast<double>(out.ops));
    j.num("failed_ops", static_cast<double>(out.failed_ops));
    j.raw("problems", json_list(out.problems));
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(stats_digest(sys)));
    j.str("stats_digest", digest);
    j.raw("model", out.model.text());
    if (ctx.traced) {
        std::vector<std::string> flags;
        std::vector<std::string> unmapped;
        j.raw("layers", layer_metrics(sys, ctx, out, flags, unmapped));
        j.raw("flagged", json_list(flags));
        j.raw("unmapped", json_list(unmapped));
    }
    std::printf("%s\n", j.text().c_str());
    return out.problems.empty() ? 0 : 1;
}
