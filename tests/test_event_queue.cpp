// Unit and property tests for the discrete-event core.
#include <gtest/gtest.h>
#include <cstdio>

#include <map>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/random.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulator.hh"

namespace accesys {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    Event a("a", [&] { order.push_back(1); });
    Event b("b", [&] { order.push_back(2); });
    Event c("c", [&] { order.push_back(3); });
    q.schedule(a, 30);
    q.schedule(b, 10);
    q.schedule(c, 20);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue q;
    std::vector<int> order;
    Event a("a", [&] { order.push_back(1); });
    Event b("b", [&] { order.push_back(2); });
    q.schedule(a, 5);
    q.schedule(b, 5);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue q;
    std::vector<int> order;
    Event late("late", [&] { order.push_back(1); }, kPrioLate);
    Event early("early", [&] { order.push_back(2); }, kPrioEarly);
    q.schedule(late, 5);
    q.schedule(early, 5);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, DescheduleSquashes)
{
    EventQueue q;
    int fired = 0;
    Event a("a", [&] { ++fired; });
    q.schedule(a, 10);
    q.deschedule(a);
    EXPECT_FALSE(a.scheduled());
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue q;
    Tick fired_at = 0;
    Event a("a", [&] { fired_at = q.now(); });
    q.schedule(a, 100);
    q.reschedule(a, 50);
    q.run();
    EXPECT_EQ(fired_at, 50u);
    EXPECT_EQ(q.events_processed(), 1u);
}

TEST(EventQueue, RescheduleAfterDescheduleWorks)
{
    EventQueue q;
    int fired = 0;
    Event a("a", [&] { ++fired; });
    q.schedule(a, 10);
    q.deschedule(a);
    q.schedule(a, 20);
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, SelfReschedulingEvent)
{
    EventQueue q;
    int count = 0;
    Event tick("tick", nullptr);
    tick.set_callback([&] {
        if (++count < 5) {
            q.schedule(tick, q.now() + 10);
        }
    });
    q.schedule(tick, 10);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, DoubleScheduleThrows)
{
    EventQueue q;
    Event a("a", [] {});
    q.schedule(a, 10);
    EXPECT_THROW(q.schedule(a, 20), SimError);
}

TEST(EventQueue, ScheduleInPastThrows)
{
    EventQueue q;
    Event a("a", [] {});
    Event b("b", [] {});
    q.schedule(a, 100);
    q.run();
    EXPECT_THROW(q.schedule(b, 50), SimError);
}

TEST(EventQueue, DescheduleIdleThrows)
{
    EventQueue q;
    Event a("a", [] {});
    EXPECT_THROW(q.deschedule(a), SimError);
}

TEST(EventQueue, RunHorizonStopsAndWarps)
{
    EventQueue q;
    int fired = 0;
    Event a("a", [&] { ++fired; });
    Event b("b", [&] { ++fired; });
    q.schedule(a, 10);
    q.schedule(b, 1000);
    q.run(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 100u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventAtHorizonStillRuns)
{
    EventQueue q;
    int fired = 0;
    Event a("a", [&] { ++fired; });
    q.schedule(a, 100);
    q.run(100);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, NextEventNameAndTick)
{
    EventQueue q;
    Event a("alpha", [] {});
    EXPECT_EQ(q.next_event_tick(), kMaxTick);
    EXPECT_TRUE(q.next_event_name().empty());
    q.schedule(a, 42);
    EXPECT_EQ(q.next_event_tick(), 42u);
    EXPECT_EQ(q.next_event_name(), "alpha");
}

TEST(EventQueue, WarpRespectsPendingEvents)
{
    EventQueue q;
    Event a("a", [] {});
    q.schedule(a, 50);
    EXPECT_THROW(q.warp_to(60), SimError);
    q.warp_to(50);
    EXPECT_EQ(q.now(), 50u);
}

// Property: against a reference model, random schedule/deschedule sequences
// must produce identical firing orders.
class EventQueueRandomized : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EventQueueRandomized, MatchesReferenceModel)
{
    Rng rng(GetParam());
    EventQueue q;

    constexpr int kEvents = 64;
    std::vector<std::unique_ptr<Event>> events;
    std::vector<std::pair<Tick, int>> fired; // (tick, id)
    for (int i = 0; i < kEvents; ++i) {
        events.push_back(std::make_unique<Event>(
            "e" + std::to_string(i), [&fired, &q, i] {
                fired.push_back({q.now(), i});
            }));
    }

    // Reference: multimap tick -> insertion sequence -> id.
    std::multimap<std::pair<Tick, std::uint64_t>, int> model;
    std::uint64_t seq = 0;
    std::vector<std::multimap<std::pair<Tick, std::uint64_t>,
                              int>::iterator>
        live(kEvents, model.end());

    for (int step = 0; step < 500; ++step) {
        const int id = static_cast<int>(rng.below(kEvents));
        if (events[id]->scheduled()) {
            q.deschedule(*events[id]);
            model.erase(live[id]);
            live[id] = model.end();
        } else {
            const Tick when = rng.between(1, 1000);
            q.schedule(*events[id], when);
            live[id] = model.insert({{when, seq++}, id});
        }
    }

    q.run();

    std::vector<std::pair<Tick, int>> expected;
    for (const auto& [key, id] : model) {
        expected.push_back({key.first, id});
    }
    EXPECT_EQ(fired, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueRandomized,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

TEST(EventQueue, ScheduleNowRunsAfterCurrentEvent)
{
    EventQueue q;
    std::vector<int> order;
    Event b("b", [&] { order.push_back(2); });
    Event c("c", [&] { order.push_back(3); });
    Event a("a", [&] {
        order.push_back(1);
        q.schedule_now(b); // same tick, runs after already-queued peers
    });
    q.schedule(a, 10);
    q.schedule(c, 10);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, CachedTopSurvivesInterleavedScheduling)
{
    // Regression shape: after an event executes (cache empty), scheduling a
    // LATER event than a live entry still in the heap must not let the new
    // entry overtake it.
    EventQueue q;
    std::vector<int> order;
    Event late("late", [&] { order.push_back(3); });
    Event mid("mid", [&] { order.push_back(2); });
    Event first("first", [&] {
        order.push_back(1);
        q.schedule(late, 30); // heap holds mid@20; 30 must not be cached
    });
    q.schedule(first, 10);
    q.schedule(mid, 20);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(RingBuffer, FifoReuseAndGrowth)
{
    RingBuffer<int> r;
    EXPECT_TRUE(r.empty());
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 20; ++i) {
            r.push_back(round * 100 + i);
        }
        for (int i = 0; i < 20; ++i) {
            EXPECT_EQ(r.front(), round * 100 + i);
            r.pop_front();
        }
    }
    EXPECT_TRUE(r.empty());
    const std::size_t cap = r.capacity();
    for (int i = 0; i < 16; ++i) {
        r.push_back(i);
    }
    EXPECT_EQ(r.capacity(), cap); // steady state reuses storage
    EXPECT_THROW((void)RingBuffer<int>{}.front(), SimError);
}

TEST(RingBuffer, IndexAndEraseAt)
{
    RingBuffer<int> r;
    for (int i = 0; i < 6; ++i) {
        r.push_back(i);
    }
    r.pop_front();
    r.pop_front();
    r.push_back(6);
    r.push_back(7); // wraps
    EXPECT_EQ(r[0], 2);
    EXPECT_EQ(r[5], 7);
    r.erase_at(1); // removes 3
    EXPECT_EQ(r.size(), 5u);
    EXPECT_EQ(r[0], 2);
    EXPECT_EQ(r[1], 4);
    EXPECT_EQ(r[4], 7);
    EXPECT_THROW(r.erase_at(5), SimError);
}

TEST(Simulator, ExitRequestStopsRun)
{
    Simulator sim;
    Event a("a", [&] { sim.request_exit("test reason"); });
    Event b("b", [] { FAIL() << "must not run"; });
    sim.queue().schedule(a, 10);
    sim.queue().schedule(b, 20);
    const auto rr = sim.run();
    EXPECT_EQ(rr.cause, ExitCause::exit_requested);
    EXPECT_EQ(rr.exit_reason, "test reason");
    EXPECT_EQ(rr.end_tick, 10u);
}

TEST(Simulator, DrainedRunReportsCause)
{
    Simulator sim;
    Event a("a", [] {});
    sim.queue().schedule(a, 5);
    const auto rr = sim.run();
    EXPECT_EQ(rr.cause, ExitCause::queue_drained);
    EXPECT_EQ(rr.events, 1u);
}

TEST(Simulator, StartupCalledOncePerObject)
{
    Simulator sim;
    struct Obj : SimObject {
        using SimObject::SimObject;
        int started = 0;
        void startup() override { ++started; }
    };
    Obj o(sim, "obj");
    sim.run();
    sim.run();
    EXPECT_EQ(o.started, 1);
}

TEST(EventQueue, StopMidBatchPreservesOrderAcrossDrains)
{
    // Regression: stopping a drain inside a same-tick batch must return
    // the unexecuted remainder without breaking the ring-precedes-heap
    // invariant — a later-tick event cached ahead of the spilled
    // remainder must not run first on the resumed drain.
    EventQueue q;
    std::vector<int> order;
    bool stop = false;
    Event a("a", [&] {
        order.push_back(0);
        stop = true;
    });
    Event b("b", [&] { order.push_back(1); });
    Event c("c", [&] { order.push_back(2); });
    q.schedule(a, 10);
    q.schedule(b, 10); // same tick as a: dispatched as a batch
    q.schedule(c, 15); // later tick, parked behind them
    std::uint64_t n = 0;
    EXPECT_EQ(q.drain(kMaxTick, stop, n),
              EventQueue::DrainOutcome::stopped);
    stop = false;
    EXPECT_EQ(q.drain(kMaxTick, stop, n),
              EventQueue::DrainOutcome::drained);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(n, 3u);
}

TEST(EventQueue, EarlyPriorityScheduledMidBatchRunsBeforeRemainder)
{
    // Regression: a kPrioEarly event scheduled at the current tick from
    // inside a batch must interleave ahead of the pending remainder, and
    // the spill that makes room for it must keep later-tick entries
    // ordered after the current tick.
    EventQueue q;
    std::vector<int> order;
    Event early("early", [&] { order.push_back(9); }, kPrioEarly);
    Event a("a", [&] {
        order.push_back(0);
        q.schedule_now(early);
    });
    Event b("b", [&] { order.push_back(1); });
    Event c("c", [&] { order.push_back(2); });
    q.schedule(a, 10);
    q.schedule(b, 10);
    q.schedule(c, 15);
    (void)q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 9, 1, 2}));
}

TEST(Simulator, CrossDomainHandoffOrderIsDeterministic)
{
    // Generic model of the parallel core's barrier protocol: two carved
    // domains free-run quantum-Q windows on worker threads, staging
    // "handoff" records that per-domain barrier hooks inject into the
    // root queue at stage tick + Q (the minimum cross-domain latency),
    // in hook registration order. The delivered (tick, payload) log must
    // match the serial semantics exactly — same-tick arrivals ordered by
    // registration order, then staging order — for any worker count, run
    // after run.
    constexpr Tick kQ = 100;

    struct Producer {
        std::vector<std::pair<Tick, int>> staged; // (stage tick, payload)
        Event ev{"produce", nullptr};
        int fired = 0;
    };

    const auto run_once = [](unsigned threads) {
        Simulator sim;
        sim.set_threads(threads);
        std::vector<std::pair<Tick, int>> log;
        std::vector<std::unique_ptr<Event>> deliveries;

        Producer a;
        Producer b;
        const std::size_t da = sim.begin_domain("a");
        sim.end_domain();
        const std::size_t db = sim.begin_domain("b");
        sim.end_domain();
        EventQueue& qa = *sim.domain(da).queue;
        EventQueue& qb = *sim.domain(db).queue;

        // Domain a stages at 10/110/210; domain b at 10/60/110/160, so
        // the two domains collide at arrival ticks 110 and 210.
        a.ev.set_callback([&a, &qa] {
            a.staged.push_back({qa.now(), 100 + a.fired});
            if (++a.fired < 3) {
                qa.schedule(a.ev, qa.now() + 100);
            }
        });
        b.ev.set_callback([&b, &qb] {
            b.staged.push_back({qb.now(), 200 + b.fired});
            if (++b.fired < 4) {
                qb.schedule(b.ev, qb.now() + 50);
            }
        });
        qa.schedule(a.ev, 10);
        qb.schedule(b.ev, 10);

        const auto flush = [&sim, &log, &deliveries](Producer& p) {
            for (const auto& rec : p.staged) {
                const int payload = rec.second;
                auto ev = std::make_unique<Event>(
                    "deliver", [&sim, &log, payload] {
                        log.push_back({sim.queue().now(), payload});
                    });
                sim.queue().schedule(*ev, rec.first + kQ);
                deliveries.push_back(std::move(ev));
            }
            p.staged.clear();
        };
        sim.register_barrier_hook([&flush, &a](Tick) { flush(a); });
        sim.register_barrier_hook([&flush, &b](Tick) { flush(b); });
        sim.set_quantum(kQ);

        const auto rr = sim.run();
        EXPECT_EQ(rr.cause, ExitCause::queue_drained);
        return log;
    };

    const std::vector<std::pair<Tick, int>> expected{
        {110, 100}, {110, 200}, {160, 201}, {210, 101},
        {210, 202}, {260, 203}, {310, 102},
    };
    EXPECT_EQ(run_once(2), expected);
    EXPECT_EQ(run_once(2), expected) << "run-to-run divergence";
    EXPECT_EQ(run_once(4), expected)
        << "worker count must not affect injection order";
}

TEST(Simulator, CheckpointDueInTheLastWindowIsWritten)
{
    // run(max_tick) with a requested checkpoint tick inside the final,
    // clipped window: the serial loop snapshots there, and the parallel
    // loop must too — at the horizon barrier, where every clock has been
    // lined up at max_tick — instead of returning horizon_reached.
    constexpr Tick kQ = 100;
    constexpr Tick kCkptAt = 975;
    constexpr Tick kMax = 980;

    for (const unsigned threads : {1U, 2U}) {
        Simulator sim;
        sim.set_threads(threads);
        EventQueue* dq = &sim.queue();
        if (threads > 1) {
            const std::size_t d = sim.begin_domain("d");
            sim.end_domain();
            dq = sim.domain(d).queue.get();
            sim.set_quantum(kQ);
        }
        // Root events every 30 ticks, domain events every 50: no window
        // anchor falls where a horizon could end inside (975, 980].
        Event r("r", nullptr);
        Event e("e", nullptr);
        r.set_callback([&] { sim.queue().schedule(r, sim.queue().now() + 30); });
        e.set_callback([&] { dq->schedule(e, dq->now() + 50); });
        sim.queue().schedule(r, 0);
        dq->schedule(e, 0);

        const std::string path = ::testing::TempDir() + "last_window_t" +
                                 std::to_string(threads) + ".ckpt";
        sim.request_checkpoint_at(path, kCkptAt);
        const RunResult rr = sim.run(kMax);
        EXPECT_EQ(rr.cause, ExitCause::checkpointed) << "threads=" << threads;
        EXPECT_EQ(rr.exit_reason, path) << "threads=" << threads;
        EXPECT_EQ(std::remove(path.c_str()), 0) << "threads=" << threads;
    }
}

TEST(Clocked, EdgeMath)
{
    Clocked c(period_from_ghz(1.0)); // 1000 ticks
    EXPECT_EQ(c.cycles_to_ticks(5), 5000u);
    EXPECT_EQ(c.ticks_to_cycles(5999), 5u);
    EXPECT_EQ(c.next_edge(0), 0u);
    EXPECT_EQ(c.next_edge(1), 1000u);
    EXPECT_EQ(c.next_edge(1000), 1000u);
    EXPECT_DOUBLE_EQ(c.freq_ghz(), 1.0);
}

} // namespace
} // namespace accesys
