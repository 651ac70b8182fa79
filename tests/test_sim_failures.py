"""Failure-path tests for the simulation kernel: errors must propagate."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_failed_event_throws_into_waiting_process():
    sim = Simulator()
    caught = []

    def worker(sim, trigger):
        try:
            yield trigger
        except RuntimeError as exc:
            caught.append(str(exc))
            return "recovered"

    trigger = sim.event()
    proc = sim.process(worker(sim, trigger))

    def failer(sim):
        yield sim.timeout(1.0)
        trigger.fail(RuntimeError("device offline"))

    sim.process(failer(sim))
    sim.run()
    assert caught == ["device offline"]
    assert proc.value == "recovered"


def test_unhandled_failure_fails_the_process():
    sim = Simulator()

    def worker(sim, trigger):
        yield trigger

    trigger = sim.event()
    sim.process(worker(sim, trigger))

    def failer(sim):
        yield sim.timeout(1.0)
        trigger.fail(RuntimeError("boom"))

    sim.process(failer(sim))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_exception_raised_inside_process_surfaces():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("model code bug")

    proc = sim.process(bad(sim))
    with pytest.raises(ValueError, match="model code bug"):
        sim.run()
    assert proc.failed


def test_joining_failed_process_propagates():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise KeyError("missing")

    def parent(sim, child_proc):
        try:
            yield child_proc
        except KeyError:
            return "saw child failure"

    child_proc = sim.process(child(sim))
    parent_proc = sim.process(parent(sim, child_proc))
    with pytest.raises(KeyError):
        sim.run()
    # The child's failure was delivered to the parent, which recovered.
    assert parent_proc.value == "saw child failure"


def test_event_fail_marks_failed_flag():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("x"))
    assert event.failed
    assert isinstance(event.value, RuntimeError)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError("again"))


def test_all_of_fails_with_its_first_failed_child():
    sim = Simulator()
    caught = []

    def bad(sim, delay, message):
        yield sim.timeout(delay)
        raise ValueError(message)

    def waiter(sim):
        try:
            yield sim.all_of([sim.timeout(3.0),
                              sim.process(bad(sim, 2.0, "second to fail")),
                              sim.process(bad(sim, 1.0, "first to fail")),
                              sim.timeout(2.0)])
        except ValueError as exc:
            caught.append(str(exc))
            return "recovered"

    proc = sim.process(waiter(sim))
    # Each failed child surfaces from run(); a caller that keeps running
    # sees the barrier fail too, not "succeed" with the errors as values.
    for message in ("first to fail", "second to fail"):
        with pytest.raises(ValueError, match=message):
            sim.run()
    sim.run()
    # The first failed child in child order, not in time order.
    assert caught == ["second to fail"]
    assert proc.value == "recovered"
    assert sim.now == 3.0
