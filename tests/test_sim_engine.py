"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupted,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_schedule_runs_callback_at_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, seen.append, "a")
        sim.run()
        assert seen == ["a"]
        assert sim.now == 100

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        seen = []
        for tag in "abcde":
            sim.schedule(50, seen.append, tag)
        sim.run()
        assert seen == list("abcde")

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_run_until_stops_clock_at_deadline(self):
        sim = Simulator()
        sim.schedule(1000, lambda: None)
        sim.run(until=500)
        assert sim.now == 500

    def test_run_until_processes_events_at_deadline(self):
        sim = Simulator()
        seen = []
        sim.schedule(500, seen.append, 1)
        sim.run(until=500)
        assert seen == [1]

    def test_event_budget_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_run_until_event_stops_early(self):
        sim = Simulator()
        ev = sim.event()
        sim.schedule(10, ev.succeed)
        # a perpetual background process
        ticks = []

        def ticker():
            while True:
                yield sim.timeout(5)
                ticks.append(sim.now)

        sim.process(ticker())
        assert sim.run_until_event(ev, deadline=1000)
        assert sim.now == 10
        assert len(ticks) <= 2

    def test_run_until_event_deadline_miss(self):
        sim = Simulator()
        ev = sim.event()
        sim.schedule(2000, ev.succeed)
        assert not sim.run_until_event(ev, deadline=100)

    def test_run_until_then_run_resumes(self):
        sim = Simulator()
        seen = []
        sim.schedule(10_000_000, seen.append, "late")
        sim.run(until=5_000_000)
        assert seen == [] and sim.now == 5_000_000
        sim.run()
        assert seen == ["late"] and sim.now == 10_000_000

    def test_far_future_timer_fires(self):
        sim = Simulator()
        seen = []
        sim.schedule(500_000_000, seen.append, "far")
        sim.run()
        assert seen == ["far"] and sim.now == 500_000_000

    def test_run_bound_before_now_is_rejected(self):
        """The clock never runs backwards: a ``run`` or
        ``run_until_event`` bound below ``now`` raises and leaves the
        clock and the queue alone."""
        sim = Simulator()
        sim.run(until=150)
        with pytest.raises(SimulationError):
            sim.run(until=50)
        assert sim.now == 150
        ev = sim.event()
        sim.schedule(100, ev.succeed)
        with pytest.raises(SimulationError):
            sim.run_until_event(ev, deadline=10)
        assert sim.now == 150
        assert sim.run_until_event(ev, deadline=150 + 100)
        assert sim.now == 250 and sim.events_processed == 1


class TestEvents:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]

    def test_double_trigger_rejected(self):
        ev = Simulator().event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self):
        ev = Simulator().event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_callback_after_trigger_still_fires(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == [1]

    def test_value_before_trigger_raises(self):
        ev = Simulator().event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_remove_callback(self):
        sim = Simulator()
        ev = sim.event()
        got = []
        cb = lambda e: got.append(1)
        ev.add_callback(cb)
        ev.remove_callback(cb)
        ev.succeed()
        sim.run()
        assert got == []


class TestTimeout:
    def test_timeout_fires_after_delay(self):
        sim = Simulator()
        t = sim.timeout(250, value="done")
        sim.run()
        assert t.triggered and t.value == "done"
        assert sim.now == 250

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().timeout(-5)


class TestProcesses:
    def test_process_advances_time(self):
        sim = Simulator()

        def prog():
            yield sim.timeout(10)
            yield sim.timeout(20)
            return "finished"

        p = sim.process(prog())
        sim.run()
        assert p.value == "finished"
        assert sim.now == 30

    def test_processes_wait_on_each_other(self):
        sim = Simulator()

        def child():
            yield sim.timeout(100)
            return 7

        def parent():
            result = yield sim.process(child())
            return result * 2

        p = sim.process(parent())
        sim.run()
        assert p.value == 14

    def test_failed_event_raises_inside_process(self):
        sim = Simulator(crash_on_process_error=False)
        ev = sim.event()

        def prog():
            try:
                yield ev
            except ValueError:
                return "caught"
            return "not caught"

        p = sim.process(prog())
        sim.schedule(5, ev.fail, ValueError("boom"))
        sim.run()
        assert p.value == "caught"

    def test_uncaught_exception_fails_process(self):
        sim = Simulator(crash_on_process_error=False)

        def prog():
            yield sim.timeout(1)
            raise RuntimeError("bad")

        p = sim.process(prog())
        sim.run()
        assert p.triggered and not p.ok

    def test_uncaught_exception_crashes_run_when_configured(self):
        sim = Simulator(crash_on_process_error=True)

        def prog():
            yield sim.timeout(1)
            raise RuntimeError("bad")

        sim.process(prog())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_yield_non_event_fails_process(self):
        sim = Simulator(crash_on_process_error=False)

        def prog():
            yield 42

        p = sim.process(prog())
        sim.run()
        assert not p.ok

    def test_interrupt_waiting_process(self):
        sim = Simulator()

        def prog():
            try:
                yield sim.timeout(1000)
            except Interrupted as exc:
                return f"interrupted:{exc.cause}@{sim.now}"
            return "ran out"

        p = sim.process(prog())
        sim.schedule(10, p.interrupt, "why")
        sim.run()
        # Delivered promptly at t=10, not when the abandoned timeout fires.
        assert p.value == "interrupted:why@10"

    def test_interrupt_dead_process_is_noop(self):
        sim = Simulator()

        def prog():
            yield sim.timeout(1)

        p = sim.process(prog())
        sim.run()
        p.interrupt("late")  # must not raise
        sim.run()

    def test_is_alive(self):
        sim = Simulator()

        def prog():
            yield sim.timeout(5)

        p = sim.process(prog())
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestCombinators:
    def test_any_of_returns_first(self):
        sim = Simulator()
        a, b = sim.timeout(100), sim.timeout(50)
        any_ev = sim.any_of([a, b])
        sim.run()
        assert any_ev.value is b

    def test_all_of_waits_for_all(self):
        sim = Simulator()
        events = [sim.timeout(t, value=t) for t in (30, 10, 20)]
        all_ev = sim.all_of(events)
        sim.run()
        assert all_ev.value == [30, 10, 20]
        assert sim.now == 30

    def test_all_of_empty_succeeds(self):
        sim = Simulator()
        all_ev = sim.all_of([])
        sim.run()
        assert all_ev.triggered

    def test_any_of_propagates_failure(self):
        sim = Simulator()
        bad = sim.event()
        any_ev = sim.any_of([sim.timeout(100), bad])
        sim.schedule(5, bad.fail, ValueError("x"))
        sim.run()
        assert any_ev.triggered and not any_ev.ok

    def test_any_of_requires_events(self):
        with pytest.raises(SimulationError):
            Simulator().any_of([])


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            sim = Simulator()
            trace = []

            def worker(tag, delay):
                for _ in range(5):
                    yield sim.timeout(delay)
                    trace.append((sim.now, tag))

            for i in range(4):
                sim.process(worker(i, 7 + i))
            sim.run()
            return trace

        assert build() == build()


class TestCancellation:
    def test_cancel_revokes_scheduled_entry(self):
        sim = Simulator()
        seen = []
        entry = sim.schedule(100, seen.append, "x")
        assert sim.cancel(entry)
        sim.schedule(200, seen.append, "y")
        sim.run()
        assert seen == ["y"]

    def test_cancelled_entry_does_not_count_as_processed(self):
        sim = Simulator()
        entry = sim.schedule(100, lambda: None)
        sim.cancel(entry)
        sim.schedule(200, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_cancel_twice_returns_false(self):
        sim = Simulator()
        entry = sim.schedule(100, lambda: None)
        assert sim.cancel(entry)
        assert not sim.cancel(entry)

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        entry = sim.schedule(100, lambda: None)
        sim.run()
        assert not sim.cancel(entry)
        assert sim._dead == 0

    def test_timeout_cancel_revokes_expiry(self):
        sim = Simulator()
        t = sim.timeout(500)
        assert t.cancel()
        sim.schedule(1000, lambda: None)
        sim.run()
        assert not t.triggered

    def test_timeout_cancel_refused_while_waited_on(self):
        sim = Simulator()
        t = sim.timeout(500)

        def waiter():
            yield t

        sim.process(waiter())
        sim.run(until=0)  # let the process reach its yield
        assert not t.cancel()
        sim.run()
        assert t.triggered

    def test_timeout_cancel_after_trigger_returns_false(self):
        sim = Simulator()
        t = sim.timeout(10)
        sim.run()
        assert t.triggered
        assert not t.cancel()

    def test_any_of_cancels_losing_timeout(self):
        """The RPC wait pattern: when the reply wins, the deadline
        timeout's queue entry must be revoked, not left to churn."""
        sim = Simulator()
        reply = sim.event("reply")
        deadline = sim.timeout(1_000_000)
        winner_box = []

        def waiter():
            winner = yield sim.any_of([reply, deadline])
            winner_box.append(winner)

        sim.process(waiter())
        sim.schedule(100, reply.succeed, "ok")
        sim.run()
        assert winner_box == [reply]
        assert not deadline.triggered
        assert deadline._entry is None or deadline._entry[2] is None

    def test_interrupt_cancels_abandoned_timeout(self):
        sim = Simulator()
        t = sim.timeout(1_000_000)

        def sleeper():
            try:
                yield t
            except Interrupted:
                return "interrupted"

        proc = sim.process(sleeper())
        sim.schedule(10, proc.interrupt, "wake")
        sim.run()
        assert proc.value == "interrupted"
        assert not t.triggered
        assert t._entry is None or t._entry[2] is None

    def test_heap_compaction_at_exact_threshold(self):
        """Crossing ``_COMPACT_MIN_DEAD`` cancelled entries (while dead
        entries outnumber half the heap) compacts the queue in place —
        and the survivors still dispatch correctly."""
        from repro.sim.engine import _COMPACT_MIN_DEAD

        sim = Simulator()
        seen = []
        doomed = [sim.schedule(1_000_000 + i, seen.append, f"dead{i}")
                  for i in range(_COMPACT_MIN_DEAD + 1)]
        keep = [sim.schedule(2_000_000 + i, seen.append, f"keep{i}")
                for i in range(10)]
        # Cancel up to the threshold: entries are cleared in place but
        # stay in the heap (compaction requires dead > _COMPACT_MIN_DEAD
        # *and* dead majority).
        for entry in doomed[:_COMPACT_MIN_DEAD]:
            assert sim.cancel(entry)
        assert sim._dead == _COMPACT_MIN_DEAD
        assert len(sim._queue) == _COMPACT_MIN_DEAD + 1 + len(keep)
        # One more cancellation crosses the threshold -> compaction.
        assert sim.cancel(doomed[_COMPACT_MIN_DEAD])
        assert sim._dead == 0
        assert len(sim._queue) == len(keep)
        assert all(e[2] is not None for e in sim._queue)
        # Cancelling an already-cancelled entry is a no-op.
        assert not sim.cancel(doomed[0])
        sim.run()
        assert seen == [f"keep{i}" for i in range(10)]
        assert sim.events_processed == len(keep)


# -- reference oracle ----------------------------------------------------

# Few distinct delays, repeated, so that equal times and zero-delay
# same-instant chains are common.
_DELAYS = st.sampled_from([0, 0, 1, 5, 5, 17, 100, 1000])
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, st.none() | _DELAYS),
    st.tuples(st.just("timer"), _DELAYS),
    st.tuples(st.just("process"), st.lists(_DELAYS, min_size=1,
                                           max_size=4)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("run"), st.integers(0, 300)),
    st.tuples(st.just("run_until_event"), _DELAYS, st.integers(0, 300)),
), max_size=40)


class TestDispatchOracle:
    """The dispatch loop against a sorted-order oracle: plain callbacks
    fire in ``(time, seq)`` order at their scheduled time, cancelled
    entries never fire, run bounds stop the clock where they say, and
    ``events_processed`` counts exactly the live dispatches — profiled
    or not."""

    @settings(max_examples=150, deadline=None)
    @given(steps=_STEPS, profile=st.booleans())
    def test_dispatch_matches_sorted_oracle(self, steps, profile):
        sim = Simulator(profile=profile)
        fired = []          # (time, seq) of each plain callback, in order
        entries = []        # plain entries, scheduled in order
        cancellable = []    # plain entries and bare timeouts
        cancelled = set()   # seqs of revoked plain entries
        timers = []         # (timeout, revoked)
        expected = 0        # dispatches the engine must count

        def schedule(delay, child):
            key = {}

            def fire():
                fired.append((sim.now, key["seq"]))
                if child is not None:
                    schedule(child, None)

            entry = sim.schedule(delay, fire)
            key["seq"] = entry[1]
            entries.append(entry)
            cancellable.append(entry)

        def proc(gaps):
            last = sim.now
            for gap in gaps:
                yield sim.timeout(gap)
                assert sim.now == last + gap
                last = sim.now

        for step in steps:
            kind = step[0]
            if kind == "schedule":
                schedule(step[1], step[2])
            elif kind == "timer":
                timer = sim.timeout(step[1])
                timers.append(timer)
                cancellable.append(timer)
            elif kind == "process":
                sim.process(proc(step[1]))
                # first resume, then an expiry and a resume per timeout
                expected += 1 + 2 * len(step[1])
            elif kind == "cancel" and cancellable:
                target = cancellable[step[1] % len(cancellable)]
                if isinstance(target, Timeout):
                    target.cancel()
                elif sim.cancel(target):
                    cancelled.add(target[1])
            elif kind == "run":
                until = sim.now + step[1]
                sim.run(until=until)
                assert sim.now == until
                done = {seq for _t, seq in fired}
                for entry in entries:
                    due = entry[0] <= until and entry[1] not in cancelled
                    assert (entry[1] in done) == due
            elif kind == "run_until_event":
                ev = sim.event()
                at = sim.now + step[1]
                sim.schedule(step[1], ev.succeed)
                expected += 1
                deadline = sim.now + step[2]
                hit = sim.run_until_event(ev, deadline=deadline)
                assert hit == (at <= deadline)
                assert sim.now == (at if hit else deadline)
            assert all(t <= sim.now for t, _seq in fired)
        sim.run()

        assert fired == sorted(fired)
        scheduled_at = {entry[1]: entry[0] for entry in entries}
        assert all(scheduled_at[seq] == t for t, seq in fired)
        assert not cancelled & {seq for _t, seq in fired}
        assert len(fired) == len(entries) - len(cancelled)
        expected += len(fired) + sum(t.triggered for t in timers)
        assert sim.events_processed == expected
        if profile:
            prof = sim.profile
            assert (prof.heap_dispatches + prof.inline_dispatches
                    == sim.events_processed)
