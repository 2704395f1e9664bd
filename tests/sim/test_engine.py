"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5, order.append, "b")
    sim.schedule(1, order.append, "a")
    sim.schedule(9, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(3, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_zero_delay_event_runs_at_current_time():
    sim = Simulator()
    seen = []
    sim.schedule(2, lambda: sim.schedule(0, seen.append, sim.now))
    sim.run()
    assert seen == [2]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(7, seen.append, "x")
    sim.run()
    assert seen == ["x"] and sim.now == 7


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(3, lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(4, seen.append, "early")
    sim.schedule(10, seen.append, "late")
    sim.run(until=6)
    assert seen == ["early"]
    assert sim.now == 6            # clock advanced to the horizon
    sim.run()
    assert seen == ["early", "late"]


def test_pending():
    sim = Simulator()
    assert sim.pending() == 0
    sim.schedule(3, lambda: None)
    sim.schedule(0, lambda: None)
    assert sim.pending() == 2


def test_events_executed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_executed == 4


def test_process_sleeps_for_yielded_delay():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield 10
        times.append(sim.now)
        yield 5
        times.append(sim.now)

    sim.spawn(proc(), "p")
    sim.run()
    assert times == [0, 10, 15]


def test_process_result_and_done_signal():
    sim = Simulator()

    def worker():
        yield 3
        return 42

    proc = sim.spawn(worker(), "w")
    results = []
    proc.done_signal.wait(results.append)
    sim.run()
    assert proc.finished and proc.result == 42
    assert results == [42]


def test_process_waits_on_signal_and_receives_payload():
    sim = Simulator()
    sig = sim.signal("data-ready")
    got = []

    def consumer():
        payload = yield sig
        got.append((sim.now, payload))

    def producer():
        yield 20
        sig.fire("hello")

    sim.spawn(consumer(), "c")
    sim.spawn(producer(), "p")
    sim.run()
    assert got == [(20, "hello")]


def test_process_waits_on_another_process():
    sim = Simulator()
    log = []

    def inner():
        yield 7
        log.append("inner-done")
        return "payload"

    def outer():
        proc = sim.spawn(inner(), "inner")
        yield proc
        log.append(("outer-resumed", sim.now))

    sim.spawn(outer(), "outer")
    sim.run()
    assert log == ["inner-done", ("outer-resumed", 7)]


def test_process_negative_yield_raises():
    sim = Simulator()

    def bad():
        yield -5

    sim.spawn(bad(), "bad")
    with pytest.raises(SimulationError):
        sim.run()


def test_process_bad_yield_type_raises():
    sim = Simulator()

    def bad():
        yield "nope"

    sim.spawn(bad(), "bad")
    with pytest.raises(SimulationError):
        sim.run()


def test_signal_wakes_only_current_waiters():
    sim = Simulator()
    sig = sim.signal()
    hits = []
    sig.wait(lambda _: hits.append(1))
    assert sig.fire() == 1
    # late subscriber needs the next fire
    sig.wait(lambda _: hits.append(2))
    sim.run()
    assert hits == [1]
    sig.fire()
    sim.run()
    assert hits == [1, 2]


def test_signal_fire_count_and_payload():
    sim = Simulator()
    sig = sim.signal("s")
    sig.fire("a")
    sig.fire("b")
    assert sig.fire_count == 2 and sig.last_payload == "b"
