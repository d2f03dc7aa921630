"""Scheduler and machine-level tests."""

from types import SimpleNamespace

import pytest

from repro.core.engine import FetchRetry, RetryPark
from repro.cpu.assembler import assemble
from repro.cpu.isa import AGSI, AHI, HALT, JNZ, LHI, Mem
from repro.errors import ConfigurationError
from repro.params import ZEC12
from repro.sim.machine import Machine, MarkRecorder
from repro.sim.scheduler import Scheduler


class FakeDriver:
    """Deterministic driver for scheduler unit tests."""

    def __init__(self, latencies, engine=None):
        self.latencies = list(latencies)
        self.steps = []
        self.done = not self.latencies
        self.engine = engine if engine is not None else FakeEngine()

    def step(self):
        self.steps.append(True)
        latency = self.latencies.pop(0)
        if not self.latencies:
            self.done = True
        if isinstance(latency, Exception):
            raise latency
        return latency


class FakeEngine:
    solo_requested = False
    stopped_by_broadcast = False


class TestScheduler:
    def test_runs_all_drivers_to_completion(self):
        drivers = [FakeDriver([1, 1, 1]), FakeDriver([5])]
        scheduler = Scheduler(drivers)
        final = scheduler.run()
        assert all(d.done for d in drivers)
        assert final >= 5

    def test_smallest_local_time_first(self):
        slow = FakeDriver([100, 1])
        fast = FakeDriver([1, 1, 1])
        scheduler = Scheduler([slow, fast])
        scheduler.run()
        # fast finished its three steps before slow's second step; just
        # assert completion and monotonic time.
        assert scheduler.now >= 101

    def test_fetch_retry_reschedules_same_driver(self):
        driver = FakeDriver([FetchRetry(10), 1])
        scheduler = Scheduler([driver])
        scheduler.run()
        assert len(driver.steps) == 2
        assert scheduler.now >= 10

    def test_max_cycles_stops_early(self):
        driver = FakeDriver([50] * 100)
        scheduler = Scheduler([driver])
        final = scheduler.run(max_cycles=200)
        assert final <= 200
        assert not driver.done

    def test_solo_defers_other_cpus(self):
        a = FakeDriver([1, 1, 1, 1])
        b = FakeDriver([1, 1])
        a.engine.solo_requested = True
        order = []
        a_step, b_step = a.step, b.step

        def wrap(driver, name, orig):
            def stepper():
                order.append(name)
                if name == "a" and len([x for x in order if x == "a"]) == 2:
                    driver.engine.solo_requested = False
                return orig()
            return stepper

        a.step = wrap(a, "a", a_step)
        b.step = wrap(b, "b", b_step)
        Scheduler([a, b]).run()
        # b never runs before a's second step (solo released there).
        assert order[:2] == ["a", "a"]
        assert a.done and b.done

    def test_broadcast_stop_flag_applied(self):
        a = FakeDriver([1, 1])
        b = FakeDriver([1])
        a.engine.solo_requested = True
        scheduler = Scheduler([a, b])
        scheduler.run()
        # After the run nobody is stopped any more.
        assert not b.engine.stopped_by_broadcast

    def test_fetch_retry_backs_off_by_delay(self):
        # The retried step resumes exactly ``delay`` later: the second
        # (successful) step lands at t=25, then runs for 5 cycles.
        driver = FakeDriver([FetchRetry(25), 5])
        scheduler = Scheduler([driver])
        final = scheduler.run()
        assert len(driver.steps) == 2
        assert final == 30

    def test_fetch_retry_lets_other_cpus_run_during_backoff(self):
        # While one CPU waits out a stiff-armed fetch, the others keep
        # executing in simulated-time order.
        blocked = FakeDriver([FetchRetry(100), 1])
        runner = FakeDriver([10, 10, 10])
        order = []
        blocked.step = self._traced(blocked, "blocked", order)
        runner.step = self._traced(runner, "runner", order)
        Scheduler([blocked, runner]).run()
        assert order == ["blocked", "runner", "runner", "runner", "blocked"]

    @staticmethod
    def _traced(driver, name, order):
        orig = driver.step

        def stepper():
            order.append(name)
            return orig()

        return stepper

    def test_deferred_queue_flushed_when_solo_releases(self):
        # b's event is deferred while a holds the broadcast-stop token;
        # the moment a releases it, the deferred queue flushes and b
        # finishes. The token takes effect after a's *first* step (solo
        # requests are observed post-step), so b sees stopped=True at
        # a's second step and stopped=False again after the release.
        a = FakeDriver([1, 1, 1])
        b = FakeDriver([1, 1])
        a.engine.solo_requested = True
        seen_stopped = []
        orig = a.step

        def solo_stepper():
            seen_stopped.append(b.engine.stopped_by_broadcast)
            if len(seen_stopped) == 2:
                a.engine.solo_requested = False
            return orig()

        a.step = solo_stepper
        scheduler = Scheduler([a, b])
        scheduler.run()
        assert a.done and b.done
        assert len(b.steps) == 2
        assert seen_stopped == [False, True, False]
        assert not scheduler._deferred
        assert not b.engine.stopped_by_broadcast

    def test_solo_request_mid_run_stops_others(self):
        # b's next event is far ahead, so the queue hands a's events back
        # one after another. A solo request raised by a's second step
        # must apply the stop before a's third step.
        a = FakeDriver([1, 1, 1, 1, 1])
        b = FakeDriver([100, 1])
        seen_stopped = []
        orig = a.step

        def solo_stepper():
            seen_stopped.append(b.engine.stopped_by_broadcast)
            if len(seen_stopped) == 2:
                a.engine.solo_requested = True
            elif len(seen_stopped) == 4:
                a.engine.solo_requested = False
            return orig()

        a.step = solo_stepper
        scheduler = Scheduler([a, b])
        scheduler.run()
        assert seen_stopped == [False, False, True, True, False]
        assert scheduler.stats_broadcast_stops == 1

    def test_deferred_queue_flushed_when_solo_driver_finishes(self):
        # The solo CPU runs to completion without ever releasing the
        # token; the deferred CPUs must still be flushed (the post-step
        # check notices the solo driver is done) and run to completion.
        a = FakeDriver([1, 1])
        b = FakeDriver([1, 1, 1])
        c = FakeDriver([1])
        a.engine.solo_requested = True
        scheduler = Scheduler([a, b, c])
        scheduler.run()
        assert a.done and b.done and c.done
        assert len(b.steps) == 3 and len(c.steps) == 1
        assert not scheduler._deferred

    def test_deferred_events_not_replayed_in_the_past(self):
        # Deferred events flush at max(original time, now): b was queued
        # at t=0 but must resume at the solo's release point (t=10, when
        # a's final step is dispatched), never back at t=0.
        a = FakeDriver([10, 10])
        b = FakeDriver([1])
        a.engine.solo_requested = True
        b_times = []
        orig = b.step

        def timed_step():
            b_times.append(scheduler.now)
            return orig()

        b.step = timed_step
        scheduler = Scheduler([a, b])
        scheduler.run()
        assert b_times == [10]

    def test_retry_parked_stm_committer_wakes_under_broadcast_stop(self):
        # b is a software (STM) committer holding orecs, so its events
        # are exempt from a's broadcast-stop. Its first step's raise
        # parks it on a retry chain while a holds the token; the parked
        # event, due after the raise's delay, must wake b and run for
        # real rather than advance as a placeholder.
        a = FakeDriver([5, 1])
        a.engine.solo_requested = True
        b_engine = FakeEngine()
        b_engine.pending_abort = None
        b_engine.stm = SimpleNamespace(commit_holds_locks=True)
        rec = SimpleNamespace(is_retry=True, engine=b_engine, ticks=0)
        b = FakeDriver([RetryPark(rec, 2), 3], engine=b_engine)
        unparks = []
        b.retry_unpark = lambda: unparks.append(scheduler.now)
        real_steps = []
        orig = b.step

        def step():
            real_steps.append((scheduler.now, b_engine.stopped_by_broadcast))
            return orig()

        b.step = step
        scheduler = Scheduler([a, b])
        scheduler.run()
        assert a.done and b.done
        assert scheduler.stats_retry_parks == 1
        assert scheduler.stats_retry_wakes == 1
        assert len(unparks) == 1
        # The raising step at t=0, then its successor event at t=0+2 run
        # for real while b is still broadcast-stopped (a holds the token
        # until t=5).
        assert real_steps == [(0, True), (2, True)]
        assert not scheduler._parked
        assert scheduler.now == 6

    def test_retry_park_delay_is_perturbed_like_a_fetch_retry(self):
        # The parking raise's delay goes through the jitter hook exactly
        # as a FetchRetry's would: the parked chain's first event is due
        # at the perturbed time, and its pop ticks the chain. The tick
        # finds a pending abort, so it wakes the CPU and that very event
        # runs for real.
        engine = FakeEngine()
        engine.pending_abort = "abort"
        engine.fabric = SimpleNamespace(
            _ports=[], _miss_latency=None,
            lat=SimpleNamespace(l1_hit=1, l2_hit=4),
            _outcome_reject=SimpleNamespace(latency=3))
        rec = SimpleNamespace(is_retry=True, engine=engine, cpu=0,
                              line=0x100, exclusive=False, line_info=None)
        driver = FakeDriver([RetryPark(rec, 10), 1], engine=engine)
        scheduler = Scheduler([driver])
        scheduler.perturb = lambda index, latency: latency + 7
        steps_at = []
        step = driver.step

        def timed_step():
            steps_at.append(scheduler.now)
            return step()

        driver.step = timed_step
        driver.retry_unpark = lambda: None
        scheduler.run()
        assert steps_at == [0, 17]
        assert scheduler.stats_retry_parks == scheduler.stats_retry_wakes == 1
        assert scheduler.stats_retry_ticks == 0
        assert driver.done


class TestMachine:
    def test_run_without_cpus_rejected(self):
        with pytest.raises(ConfigurationError):
            Machine(ZEC12).run()

    def test_too_many_cpus_rejected(self):
        machine = Machine(ZEC12)
        program = assemble([HALT()])
        with pytest.raises(ConfigurationError):
            for _ in range(ZEC12.topology.total_cores + 1):
                machine.add_program(program)

    def test_with_cpus_grows_topology(self):
        grown = ZEC12.with_cpus(ZEC12.topology.total_cores + 30)
        assert grown.topology.total_cores >= ZEC12.topology.total_cores + 30

    def test_results_collect_intervals_and_stats(self):
        from repro.cpu.isa import MARK_END, MARK_START, TBEGIN, TEND, JNZ

        program = assemble([
            MARK_START(),
            TBEGIN(),
            JNZ("out"),
            AGSI(Mem(disp=0x1000), 1),
            TEND(),
            ("out", MARK_END()),
            HALT(),
        ])
        machine = Machine(ZEC12)
        machine.add_program(program)
        result = machine.run()
        assert result.cpus[0].updates == 1
        assert result.cpus[0].intervals[0] > 0
        assert result.cpus[0].tx_committed == 1
        assert result.cpus[0].instructions > 0

    def test_external_interrupts_abort_transactions(self):
        program = assemble([
            LHI(9, 50),
            ("loop", AGSI(Mem(disp=0x1000), 1)),
            AHI(9, -1),
            JNZ("loop"),
            HALT(),
        ])
        machine = Machine(ZEC12, external_interrupt_interval=500)
        machine.add_program(program)
        machine.run()  # interrupts outside transactions are no-ops
        assert machine.memory.read_int(0x1000, 8) == 50

    def test_aborted_early_flag(self):
        program = assemble([
            LHI(9, 10000),
            ("loop", AHI(9, -1)),
            JNZ("loop"),
            HALT(),
        ])
        machine = Machine(ZEC12)
        machine.add_program(program)
        result = machine.run(max_cycles=50)
        assert result.aborted_early


class TestMarkRecorder:
    def test_intervals(self):
        clock = [0]
        recorder = MarkRecorder(lambda: clock[0])
        recorder("start")
        clock[0] = 40
        recorder("end")
        assert recorder.intervals == [40]

    def test_end_without_start_ignored(self):
        recorder = MarkRecorder(lambda: 0)
        recorder("end")
        assert recorder.intervals == []
