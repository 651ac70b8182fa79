"""Tests for channels, semaphores, stores, and the phase clock."""

from functools import partial

import pytest

from repro.errors import SimulationError
from repro.sim import (Channel, PhaseClock, Semaphore, Simulator, Store,
                       Timeout, TransferRecord)


# ----------------------------------------------------------------------
# Channel
# ----------------------------------------------------------------------
def test_channel_transfer_time():
    sim = Simulator()
    channel = Channel(sim, "link", bandwidth=100.0)
    channel.transfer(250.0)
    assert sim.run() == pytest.approx(2.5)


def test_channel_latency_added_per_op():
    sim = Simulator()
    channel = Channel(sim, "link", bandwidth=100.0, latency=0.5)
    channel.transfer(100.0)
    assert sim.run() == pytest.approx(1.5)


def test_channel_serializes_fifo():
    sim = Simulator()
    channel = Channel(sim, "link", bandwidth=10.0)
    first = channel.transfer(10.0)
    second = channel.transfer(10.0)
    ends = {}
    first.add_callback(lambda e: ends.setdefault("first", sim.now))
    second.add_callback(lambda e: ends.setdefault("second", sim.now))
    sim.run()
    assert ends["first"] == pytest.approx(1.0)
    assert ends["second"] == pytest.approx(2.0)


def test_two_channels_overlap():
    sim = Simulator()
    a = Channel(sim, "a", bandwidth=10.0)
    b = Channel(sim, "b", bandwidth=10.0)
    a.transfer(10.0)
    b.transfer(10.0)
    assert sim.run() == pytest.approx(1.0)


def test_channel_zero_byte_transfer_pays_latency_only():
    sim = Simulator()
    channel = Channel(sim, "link", bandwidth=10.0, latency=0.25)
    channel.transfer(0.0)
    assert sim.run() == pytest.approx(0.25)


def test_channel_rejects_bad_config():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Channel(sim, "bad", bandwidth=0.0)
    with pytest.raises(SimulationError):
        Channel(sim, "bad", bandwidth=1.0, latency=-1.0)


def test_channel_rejects_negative_size():
    sim = Simulator()
    channel = Channel(sim, "link", bandwidth=10.0)
    with pytest.raises(SimulationError):
        channel.transfer(-5.0)


def test_channel_accounting():
    sim = Simulator()
    channel = Channel(sim, "link", bandwidth=10.0)
    channel.transfer(10.0, tag="x")
    channel.transfer(30.0, tag="y")
    sim.run()
    assert channel.bytes_total == 40.0
    assert channel.ops_total == 2
    assert channel.busy_time() == pytest.approx(4.0)
    assert channel.utilization() == pytest.approx(1.0)
    tags = [record.tag for record in channel.records]
    assert tags == ["x", "y"]


def test_channel_utilization_with_idle_time():
    sim = Simulator()
    channel = Channel(sim, "link", bandwidth=10.0)
    channel.transfer(10.0)
    sim.timeout(3.0)
    sim.run()
    assert channel.utilization() == pytest.approx(1.0 / 3.0)


def test_channel_gap_then_transfer():
    sim = Simulator()
    channel = Channel(sim, "link", bandwidth=10.0)

    def late(sim):
        yield sim.timeout(5.0)
        yield channel.transfer(10.0)
        return sim.now

    proc = sim.process(late(sim))
    sim.run()
    assert proc.value == pytest.approx(6.0)


# ----------------------------------------------------------------------
# Semaphore
# ----------------------------------------------------------------------
def test_semaphore_limits_concurrency():
    sim = Simulator()
    sem = Semaphore(sim, "slots", capacity=2)
    active = []
    peak = []

    def worker(sim):
        yield sem.acquire()
        active.append(1)
        peak.append(len(active))
        yield sim.timeout(1.0)
        active.pop()
        sem.release()

    for _ in range(5):
        sim.process(worker(sim))
    sim.run()
    assert max(peak) == 2
    assert sem.max_in_use == 2


def test_semaphore_fifo_order():
    sim = Simulator()
    sem = Semaphore(sim, "slots", capacity=1)
    order = []

    def worker(sim, name):
        yield sem.acquire()
        order.append(name)
        yield sim.timeout(1.0)
        sem.release()

    for name in ("a", "b", "c"):
        sim.process(worker(sim, name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_semaphore_release_without_acquire_rejected():
    sim = Simulator()
    sem = Semaphore(sim, "slots", capacity=1)
    with pytest.raises(SimulationError):
        sem.release()


def test_semaphore_invalid_capacity():
    with pytest.raises(SimulationError):
        Semaphore(Simulator(), "bad", capacity=0)


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("item")
    event = store.get()
    sim.run()
    assert event.value == "item"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer(sim):
        item = yield store.get()
        received.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(2.0)
        store.put("late")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert received == [(2.0, "late")]


def test_store_preserves_fifo():
    sim = Simulator()
    store = Store(sim)
    for value in (1, 2, 3):
        store.put(value)
    values = []
    for _ in range(3):
        store.get().add_callback(lambda e: values.append(e.value))
    sim.run()
    assert values == [1, 2, 3]
    assert len(store) == 0


# ----------------------------------------------------------------------
# PhaseClock
# ----------------------------------------------------------------------
def test_phase_clock_accumulates():
    sim = Simulator()
    clock = PhaseClock(sim)

    def run(sim):
        clock.begin("fw")
        yield sim.timeout(1.0)
        clock.end("fw")
        clock.begin("bw")
        yield sim.timeout(2.0)
        clock.end("bw")
        clock.begin("fw")
        yield sim.timeout(0.5)
        clock.end("fw")

    sim.process(run(sim))
    sim.run()
    assert clock.totals["fw"] == pytest.approx(1.5)
    assert clock.totals["bw"] == pytest.approx(2.0)
    assert clock.total() == pytest.approx(3.5)


def test_phase_clock_rejects_double_begin_and_stray_end():
    clock = PhaseClock(Simulator())
    clock.begin("x")
    with pytest.raises(SimulationError):
        clock.begin("x")
    with pytest.raises(SimulationError):
        clock.end("never-started")


# ----------------------------------------------------------------------
# Composite transfers: one completion event against per-leg barriers
# ----------------------------------------------------------------------
def reference_transfer(channel, nbytes, tag=""):
    """``Channel.transfer`` as it was: the FIFO slot reserved inline and
    one ``Timeout`` of ``end - now``."""
    now = channel.sim.now
    start = max(now, channel._free_at)
    duration = channel.latency + nbytes / channel.bandwidth
    end = start + duration
    channel._free_at = end
    channel.bytes_total += nbytes
    channel.ops_total += 1
    channel.records.append(
        TransferRecord(channel.name, tag, nbytes, start, end))
    return Timeout(channel.sim, end - now, nbytes)


class ReferenceComposites:
    """The per-leg composites: one :func:`reference_transfer` event per
    leg, joined by ``all_of`` — what the fabric and the scenario gradient
    offload did before a composite became one completion event."""

    def __init__(self, fabric):
        self.fabric = fabric

    def transfer(self, nbytes):
        return reference_transfer(self.fabric.link_up, nbytes, tag="up")

    def raid_read(self, nbytes, tag="raid-read"):
        fabric, leg = self.fabric, reference_transfer
        per_member = nbytes / fabric.num_devices / fabric.raid_efficiency
        legs = [leg(device.nand_read, per_member, tag=tag)
                for device in fabric.devices]
        legs.append(leg(fabric.link_up, nbytes, tag=tag))
        return fabric.sim.all_of(legs)

    def raid_write(self, nbytes, tag="raid-write"):
        fabric, leg = self.fabric, reference_transfer
        per_member = nbytes / fabric.num_devices / fabric.raid_efficiency
        legs = [leg(device.nand_write, per_member, tag=tag)
                for device in fabric.devices]
        legs.append(leg(fabric.link_down, nbytes, tag=tag))
        return fabric.sim.all_of(legs)

    def host_to_device(self, index, nbytes, tag="h2d"):
        fabric, leg = self.fabric, reference_transfer
        return fabric.sim.all_of([
            leg(fabric.link_down, nbytes, tag=tag),
            leg(fabric.devices[index].nand_write, nbytes, tag=tag)])

    def device_to_host(self, index, nbytes, tag="d2h"):
        fabric, leg = self.fabric, reference_transfer
        return fabric.sim.all_of([
            leg(fabric.devices[index].nand_read, nbytes, tag=tag),
            leg(fabric.link_up, nbytes, tag=tag)])

    def offload(self, nbytes):
        per_device = nbytes / self.fabric.num_devices
        return self.fabric.sim.all_of([
            self.host_to_device(index, per_device, tag="grad-offload")
            for index in range(self.fabric.num_devices)])


class Composites:
    """The same calls on the code under test."""

    def __init__(self, fabric):
        from repro.nn.models import get_model
        from repro.perf.scenarios import _Scenario
        from repro.perf.workload import make_workload
        sim = fabric.sim
        scenario = _Scenario(sim, fabric, PhaseClock(sim), fabric.system,
                             make_workload(get_model("gpt2-1.16b")), "su",
                             0.02, 16)
        self.fabric, self.scenario = fabric, scenario

    def raid_read(self, nbytes, tag="raid-read"):
        return self.fabric.sim._timeout_at(
            self.fabric._raid_read(nbytes, tag))

    def raid_write(self, nbytes, tag="raid-write"):
        return self.fabric.sim._timeout_at(
            self.fabric._raid_write(nbytes, tag))

    def host_to_device(self, index, nbytes, tag="h2d"):
        return self.fabric.sim._timeout_at(
            self.fabric._host_to_device(index, nbytes, tag))

    def device_to_host(self, index, nbytes, tag="d2h"):
        return self.fabric.sim._timeout_at(
            self.fabric._device_to_host(index, nbytes, tag))

    def offload(self, nbytes):
        return self.fabric.sim._timeout_at(
            self.scenario._offload_legs(nbytes))

    def transfer(self, nbytes):
        return self.fabric.link_up.transfer(nbytes, tag="up")


#: (operation, args) per call; sizes differ so legs queue unevenly.
COMPOSITE_CALLS = [("raid_read", (3.1e9,)), ("raid_write", (1.7e9,)),
                   ("host_to_device", (1, 0.9e9)),
                   ("device_to_host", (2, 1.3e9)), ("offload", (2.2e9,)),
                   ("device_to_host", (0, 0.4e9)), ("transfer", (2.5e9,)),
                   ("raid_read", (0.7e9,))]


def _fabric(num_csds=4):
    from repro.hw.topology import default_system
    from repro.perf.fabric import Fabric
    return Fabric(Simulator(), default_system(num_csds=num_csds))


def _drive(api_class, calls, workers=3):
    """Run ``workers`` staggered processes issuing ``calls`` against one
    fabric; returns (resume log, fabric)."""
    fabric = _fabric()
    sim, api, log = fabric.sim, api_class(fabric), []

    def worker(name, delay, calls):
        yield sim.timeout(delay)
        for op, args in calls:
            yield getattr(api, op)(*args)
            log.append((name, op, sim.now))

    for name in range(workers):
        sim.process(worker(name, 0.01 * name, calls[name:] + calls[:name]))
    sim.run()
    return log, fabric


def _records(fabric):
    return {channel.name: (list(channel.records), channel.bytes_total,
                           channel.ops_total)
            for channel in fabric.all_channels()}


@pytest.mark.parametrize("op, args", COMPOSITE_CALLS[:5])
def test_each_composite_completes_at_the_per_leg_instant(op, args):
    log, fabric = _drive(Composites, [(op, args)] * 3)
    reference, reference_fabric = _drive(ReferenceComposites,
                                         [(op, args)] * 3)
    assert log == reference          # instants bit for bit, same order
    assert _records(fabric) == _records(reference_fabric)
    assert (fabric.sim.events_processed
            < reference_fabric.sim.events_processed)


def test_contending_composites_resume_in_the_per_leg_order():
    log, fabric = _drive(Composites, COMPOSITE_CALLS)
    reference, reference_fabric = _drive(ReferenceComposites,
                                         COMPOSITE_CALLS)
    assert len(log) == 3 * len(COMPOSITE_CALLS)
    assert log == reference
    assert _records(fabric) == _records(reference_fabric)


@pytest.mark.parametrize("op, args", COMPOSITE_CALLS[:5])
@pytest.mark.parametrize("timeout_first", [False, True])
def test_composite_and_timeout_at_one_instant_keep_their_order(
        op, args, timeout_first):
    # The composite's finish, from a per-leg dry run started at 0.
    dry = _fabric()
    barrier = getattr(ReferenceComposites(dry), op)(*args)
    finish = []
    barrier.add_callback(lambda _event: finish.append(dry.sim.now))
    dry.sim.run()

    def run(api_class):
        fabric = _fabric()
        sim, api, order = fabric.sim, api_class(fabric), []

        def composite():
            yield getattr(api, op)(*args)
            order.append(("composite", sim.now))

        def timeout():
            yield sim.timeout(finish[0])
            order.append(("timeout", sim.now))

        for body in ((timeout, composite) if timeout_first
                     else (composite, timeout)):
            sim.process(body())
        sim.run()
        return order

    order = run(Composites)
    assert order == run(ReferenceComposites)
    assert order[0][1] == order[1][1] == finish[0]
    assert order[0][0] == ("timeout" if timeout_first else "composite")


# ----------------------------------------------------------------------
# Deferred tasks: one event against the straight-line process
# ----------------------------------------------------------------------
class ProcessLeaves:
    """The processes a ``Simulator.deferred`` event stands for."""

    @staticmethod
    def leaf(sim, reserve, *args):
        """A one-transfer process: its only step is to ``yield`` the
        transfer ``reserve(*args)`` reserves."""
        def leaf():
            yield sim._timeout_at(reserve(*args))
        return sim.process(leaf(), name="leaf")

    @staticmethod
    def chain(sim, fabric, name, then):
        """A three-leg tasklet: a flash load, a link copy and a delay,
        then ``then()``."""
        def chain():
            yield fabric.devices[name % 4].nand_read.transfer(
                0.5e9, f"load{name}")
            yield fabric.link_up.transfer(0.3e9, f"chain{name}")
            yield sim.timeout(0.002)
            then()
        return sim.process(chain(), name="chain")


class DeferredLeaves:
    """The same tasks as ``Simulator.deferred`` events."""

    @staticmethod
    def leaf(sim, reserve, *args):
        return sim.deferred((partial(reserve, *args),))

    @staticmethod
    def chain(sim, fabric, name, then):
        return sim.deferred(
            (partial(fabric.devices[name % 4].nand_read._reserve, 0.5e9,
                     f"load{name}"),
             partial(fabric.link_up._reserve, 0.3e9, f"chain{name}"),
             partial(sim._after, 0.002)), then)


def _drive_leaves(leaves, workers=3, chained=False):
    """Workers hand a one-slot semaphore on: each holder moves bytes on
    the shared up-link, releases the slot and, at that same instant,
    spawns leaf transfers (a link leg, a composite upstream copy, a
    gradient offload), then waits on them.  ``chained`` adds a
    three-leg task per worker, spawned with the leaves, whose action
    spawns a tail transfer and releases a two-slot semaphore the
    workers take first.  Returns (log, fabric)."""
    fabric = _fabric()
    sim, log = fabric.sim, []
    scenario = Composites(fabric).scenario
    slot = Semaphore(sim, "slot", capacity=1)
    buffers = Semaphore(sim, "buffers", capacity=2)

    def worker(name):
        yield sim.timeout(0.001 * name)
        if chained:
            yield buffers.acquire()
        yield slot.acquire()
        log.append((name, "holds", sim.now))
        yield fabric.link_up.transfer(1.1e9, tag=f"held{name}")
        slot.release()
        leaf = leaves.leaf(sim, fabric.link_up._reserve, 0.6e9,
                           f"leaf{name}")
        upstream = leaves.leaf(sim, fabric._device_to_host, name % 4,
                               0.4e9, f"up{name}")
        grads = leaves.leaf(sim, scenario._offload_legs, 0.9e9)
        chains, tail = [], []

        def chain_done():
            log.append((name, "chain", sim.now))
            tail.append(leaves.leaf(sim, fabric._device_to_host,
                                    (name + 1) % 4, 0.2e9, f"tail{name}"))
            buffers.release()

        if chained:
            chains.append(leaves.chain(sim, fabric, name, chain_done))
        leaf.add_callback(lambda _event: log.append(
            (name, "leaf", sim.now)))
        yield upstream
        log.append((name, "upstream", sim.now))
        yield sim.all_of([leaf, grads] + chains)
        log.append((name, "joined", sim.now))
        if chained:
            yield sim.all_of(tail)
            log.append((name, "tail", sim.now))

    for name in range(workers):
        sim.process(worker(name))
    sim.run()
    return log, fabric


def test_deferred_transfer_matches_the_one_transfer_process():
    log, fabric = _drive_leaves(DeferredLeaves)
    reference, reference_fabric = _drive_leaves(ProcessLeaves)
    assert log == reference          # instants bit for bit, same order
    assert _records(fabric) == _records(reference_fabric)
    # Two heap entries each way: the spawn and the completion.
    assert (fabric.sim.events_processed
            == reference_fabric.sim.events_processed)


def test_three_leg_deferred_matches_the_process_it_replaces():
    log, fabric = _drive_leaves(DeferredLeaves, chained=True)
    reference, reference_fabric = _drive_leaves(ProcessLeaves,
                                                chained=True)
    assert [entry[1] for entry in log].count("chain") == 3
    assert log == reference          # instants bit for bit, same order
    assert _records(fabric) == _records(reference_fabric)
    # The spawn and one entry per leg each way.
    assert (fabric.sim.events_processed
            == reference_fabric.sim.events_processed)


def test_leaf_spawned_beside_a_semaphore_wake_reserves_after_it():
    # The release queues the next holder's wake first; the leaf spawned
    # at the same instant takes its link slot only when its own entry is
    # dispatched, behind the transfer the woken holder starts.
    _log, fabric = _drive_leaves(DeferredLeaves, workers=2)
    tags = [record.tag for record in fabric.link_up.records]
    assert tags.index("held1") < tags.index("leaf0")
    assert fabric.link_up.records == _drive_leaves(
        ProcessLeaves, workers=2)[1].link_up.records


def test_second_leg_reserves_behind_what_ran_while_the_first_did():
    # The chain spawned beside the queued wake reserves its link leg
    # only when its flash load finishes: behind the woken holder's
    # transfer, and behind the leaf that holder spawned at its own
    # release while the load ran.
    _log, fabric = _drive_leaves(DeferredLeaves, workers=2, chained=True)
    tags = [record.tag for record in fabric.link_up.records]
    assert tags.index("held1") < tags.index("leaf1") < tags.index("chain0")
    assert fabric.link_up.records == _drive_leaves(
        ProcessLeaves, workers=2, chained=True)[1].link_up.records


def test_deferred_transfer_reserves_at_dispatch_and_carries_no_value():
    sim = Simulator()
    channel = Channel(sim, "link", bandwidth=10.0)
    done = sim.deferred((partial(channel._reserve, 20.0, "x"),))
    bad = sim.deferred((partial(channel._reserve, -1.0, "y"),))
    assert channel.records == [] and not done.triggered
    with pytest.raises(SimulationError):
        sim.run()                    # the bad size fails when dispatched
    sim.run()
    assert (done.triggered, done.value, sim.now) == (True, None, 2.0)
    assert not bad.triggered
