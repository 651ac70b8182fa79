"""Telemetry integration: non-perturbation, engine metrics, CLI trace.

The acceptance invariants of the telemetry layer:

* enabling telemetry never changes what the engines compute — training
  outputs are bit-identical with tracing on vs. off (property-tested);
* one functional training step populates the same metric families on
  both parallel backends, written once per step on the main thread from
  the step's spans and ledgers;
* the urgent write-back is a span, and on the ``Timeline`` it ends
  before its subgroup's lazy write-backs begin (the SU+O policy);
* ``python -m repro trace`` writes a valid Chrome trace-event JSON with
  correctly nested wall-clock spans and both time domains present.
"""

import json
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cli import main
from repro.nn import SequenceClassifier, bert_config
from repro.runtime import SmartInfinityEngine, TrainingConfig
from repro.telemetry.export import SIM_PID, WALL_PID
from repro.telemetry.metrics import MetricsRegistry


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def make_model(seed=0, dim=32):
    return SequenceClassifier(
        bert_config(vocab_size=16, dim=dim, num_layers=1, num_heads=2,
                    max_seq_len=8),
        num_classes=2, seed=seed)


def train_once(workdir, config, tokens, labels, enable_telemetry):
    from dataclasses import replace
    engine = SmartInfinityEngine(make_model(), loss_fn, str(workdir),
                                 config=replace(config, num_csds=2))
    try:
        if enable_telemetry:
            with telemetry.session() as session:
                result = engine.train_step(tokens, labels)
        else:
            session = None
            result = engine.train_step(tokens, labels)
        return result, engine.space.gather_params(), session
    finally:
        engine.close()


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(optimizer=st.sampled_from(["adam", "sgd"]),
       subgroup=st.sampled_from([512, 4096]),
       seed=st.integers(0, 50))
def test_engine_output_bit_identical_with_telemetry(tmp_path_factory,
                                                    optimizer, subgroup,
                                                    seed):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, 16, size=(4, 8))
    labels = rng.integers(0, 2, size=4)
    config = TrainingConfig(optimizer=optimizer,
                            optimizer_kwargs={"lr": 1e-2},
                            subgroup_elements=subgroup)
    workdir = tmp_path_factory.mktemp("tel")

    result_off, params_off, _ = train_once(
        workdir / "off", config, tokens, labels, enable_telemetry=False)
    result_on, params_on, session = train_once(
        workdir / "on", config, tokens, labels, enable_telemetry=True)

    np.testing.assert_array_equal(params_off, params_on)
    assert result_off.loss == result_on.loss
    assert result_off.traffic.host_total == result_on.traffic.host_total
    # And telemetry actually observed the traced run.
    assert session.tracer.by_name("iteration")
    assert not telemetry.enabled()


def test_utilization_signals_in_consecutive_sessions(tmp_path):
    """``util:*`` health signals are cut from the spans recorded since
    the previous step; the count of spans already seen belongs to one
    tracer, so a second session on the same engine (or a cleared
    tracer) must start from zero instead of waiting to outgrow the
    first session's count."""
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 16, size=(4, 8))
    labels = rng.integers(0, 2, size=4)
    config = TrainingConfig(optimizer="adam", subgroup_elements=1024,
                            num_csds=2)

    def util_samples(engine):
        return {name: window.samples
                for name, window in engine.health.signals.items()
                if name.startswith("util:")}

    with SmartInfinityEngine(make_model(), loss_fn, str(tmp_path),
                             config=config) as engine:
        with telemetry.session():
            engine.train_step(tokens, labels)
            engine.train_step(tokens, labels)
        first = util_samples(engine)
        assert first and set(first.values()) == {2}
        with telemetry.session() as session:
            engine.train_step(tokens, labels)
            assert set(util_samples(engine).values()) == {3}
            session.tracer.clear()
            engine.train_step(tokens, labels)
        assert util_samples(engine) == dict.fromkeys(first, 4)


#: Every family a functional step exposes, with its label keys: the
#: same on both backends.
STEP_FAMILIES = {
    "arena_alloc_total": {("arena",)},
    "arena_bytes_in_use": {("arena",)},
    "arena_checkouts_total": {("arena",)},
    "arena_high_water_bytes": {("arena",)},
    "handler_lazy_queue_depth": {("device",)},
    "handler_lazy_writeback_latency_us": {("device",)},
    "handler_urgent_writeback_latency_us": {("device",)},
    "storage_read_bytes_total": {("device",)},
    "storage_write_bytes_total": {("device",)},
}


def _families(snapshot):
    """``snapshot`` keys as ``family -> {label keys}``."""
    families = {}
    for key in snapshot:
        name, _, labels = key.partition("{")
        keys = tuple(sorted(part.split("=", 1)[0]
                            for part in labels.rstrip("}").split(",")
                            if part))
        families.setdefault(name, set()).add(keys)
    return families


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_functional_engine_populates_metrics(tmp_path, backend):
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 16, size=(4, 8))
    labels = rng.integers(0, 2, size=4)
    config = TrainingConfig(optimizer="adam",
                            optimizer_kwargs={"lr": 1e-2},
                            subgroup_elements=1024, num_csds=2,
                            parallel_backend=backend)
    with telemetry.session() as session:
        with SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "csd"),
                                 config=config) as engine:
            traffic = engine.train_step(tokens, labels).traffic
    snapshot = session.registry.snapshot()
    assert _families(snapshot) == STEP_FAMILIES

    # Handler queue depth gauge, per device, from the lazy spans.
    depth_keys = [key for key in snapshot
                  if key.startswith("handler_lazy_queue_depth")]
    assert len(depth_keys) == 2
    assert any(snapshot[key]["peak"] >= 1 for key in depth_keys)

    # The write-back histograms hold exactly the write-back spans'
    # durations (urgent on the update worker, lazy on the writer).
    for name, family in (
            ("handler.urgent_writeback",
             "handler_urgent_writeback_latency_us"),
            ("handler.lazy_writeback", "handler_lazy_writeback_latency_us")):
        spans = session.tracer.by_name(name)
        for device in (0, 1):
            mine = [span for span in spans if span.attrs["device"] == device]
            series = snapshot[f'{family}{{device="{device}"}}']
            assert mine and series["count"] == len(mine)
            assert series["sum"] == pytest.approx(
                sum(span.duration for span in mine) * 1e6)

    # The device byte counters hold the step's pread/pwrite traffic:
    # what crossed the host link plus what crossed the devices' own.
    def device_bytes(family):
        return sum(snapshot[f'{family}{{device="csd{device}"}}']["value"]
                   for device in (0, 1))

    assert device_bytes("storage_read_bytes_total") \
        == traffic.host_reads + traffic.internal_reads
    assert device_bytes("storage_write_bytes_total") \
        == traffic.host_writes + traffic.internal_writes

    # Spans from the worker thread carry a different thread id than the
    # engine's iteration span.
    iteration = session.tracer.by_name("iteration")[0]
    lazy = session.tracer.by_name("handler.lazy_writeback")
    assert lazy
    assert any(span.thread_id != iteration.thread_id for span in lazy)


def _registry_callers(monkeypatch):
    """``(family, thread)`` of every registry instrument lookup, from
    now on."""
    callers = []
    for kind in ("counter", "gauge", "histogram"):
        original = getattr(MetricsRegistry, kind)

        def record(self, name, *args, _original=original, **kwargs):
            callers.append((name, threading.current_thread()))
            return _original(self, name, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, kind, record)
    return callers


def test_registry_is_written_on_the_main_thread_only(tmp_path,
                                                     monkeypatch):
    """Hot paths keep spans and ledgers; the engine writes the registry
    once per step, from the thread that observes the step."""
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 16, size=(4, 8))
    labels = rng.integers(0, 2, size=4)
    config = TrainingConfig(optimizer="adam", subgroup_elements=1024,
                            num_csds=2, parallel_csds=2,
                            compression_ratio=0.1)
    callers = _registry_callers(monkeypatch)
    with telemetry.session(), \
            SmartInfinityEngine(make_model(), loss_fn, str(tmp_path),
                                config=config) as engine:
        engine.train_step(tokens, labels)
        del callers[:]
        engine.train_step(tokens, labels)
    assert callers and len(callers) <= 60
    assert {thread for _name, thread in callers} \
        == {threading.main_thread()}


def _write_back_spans(spans):
    return [span for span in spans
            if span.name in ("handler.urgent_writeback",
                             "handler.lazy_writeback")]


@pytest.mark.parametrize("compression", [None, 0.1],
                         ids=["su_o", "su_o_c"])
def test_write_back_span_bytes_equal_the_internal_ledger(tmp_path,
                                                         compression):
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 16, size=(4, 8))
    labels = rng.integers(0, 2, size=4)
    config = TrainingConfig(optimizer="adam", subgroup_elements=1024,
                            num_csds=2, compression_ratio=compression)
    with telemetry.session() as session, \
            SmartInfinityEngine(make_model(), loss_fn, str(tmp_path),
                                config=config) as engine:
        devices = [worker.device for worker in engine._coord._workers]
        for _ in range(2):
            before = sum(device.internal_traffic.bytes_written
                         for device in devices)
            cursor = len(session.tracer.spans)
            engine.train_step(tokens, labels)
            written = sum(device.internal_traffic.bytes_written
                          for device in devices) - before
            spans = _write_back_spans(session.tracer.spans[cursor:])
            assert written > 0
            assert sum(span.attrs["nbytes"] for span in spans) == written


def test_urgent_write_back_ends_before_its_lazy_write_backs(tmp_path):
    """The SU+O policy (§IV-B, Fig. 5b), read off the ``Timeline``: on
    each device's write link the ops run urgent, then the subgroup's
    lazy state writes, and the urgent one has ended before they begin."""
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 16, size=(4, 8))
    labels = rng.integers(0, 2, size=4)
    config = TrainingConfig(optimizer="adam", subgroup_elements=512,
                            num_csds=2, parallel_csds=2)
    with telemetry.session() as session, \
            SmartInfinityEngine(make_model(), loss_fn, str(tmp_path),
                                config=config) as engine:
        engine.train_step(tokens, labels)
        states = len(engine.optimizer.state_names)
        subgroups = [len(worker.subgroups)
                     for worker in engine._coord._workers]
    timeline = telemetry.Timeline.from_spans(session.tracer.spans)
    for device, count in enumerate(subgroups):
        ops = sorted(timeline.ops[f"ssd{device}-write"],
                     key=lambda op: op.start)
        assert len(ops) == count * (1 + states)
        for first in range(0, len(ops), 1 + states):
            urgent, *lazy = ops[first:first + 1 + states]
            assert urgent.tag == "handler.urgent_writeback"
            assert [op.tag for op in lazy] \
                == ["handler.lazy_writeback"] * states
            assert all(urgent.end <= op.start for op in lazy)


def _chaos_fault_lines(tmp_path, backend):
    from repro.faults import FaultPlan, FaultRule, RetryPolicy

    # Reads and kernel passes only: a device's lazy writer interleaves
    # its writes with the update worker's ops as the threads happen to
    # run, so which op a draw lands on would vary from run to run.
    plan = FaultPlan(seed=3, rules=(
        FaultRule(kind="io_error", op="read", probability=0.05),
        FaultRule(kind="kernel_stall", op="kernel", probability=0.05),
        FaultRule(kind="latency", op="read", probability=0.05,
                  latency_s=1e-5),
        FaultRule(kind="device_dropout", device=1, op="read",
                  probability=0.02),
    ), retry=RetryPolicy(base_delay_s=1e-4, max_delay_s=1e-3))
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 16, size=(4, 8))
    labels = rng.integers(0, 2, size=4)
    config = TrainingConfig(optimizer="adam", subgroup_elements=1024,
                            num_csds=2, parallel_csds=2,
                            parallel_backend=backend, fault_plan=plan)
    with telemetry.session() as session, \
            SmartInfinityEngine(make_model(), loss_fn,
                                str(tmp_path / backend),
                                config=config) as engine:
        for _ in range(3):
            engine.train_step(tokens, labels)
        stats = engine.fault_stats()
    return stats, session.registry


def _fault_lines(registry):
    return [line for line in registry.render_prometheus().splitlines()
            if "faults_" in line]


def test_fault_counters_match_across_backends(tmp_path):
    """A worker process's fault ledger reaches the parent's registry, so
    a seeded chaos run exposes the same ``faults_*`` lines on both
    backends."""
    stats, registry = _chaos_fault_lines(tmp_path, "thread")
    thread_lines = _fault_lines(registry)
    assert sum(stats["injected"].values()) > 0 and stats["demotions"] == 1
    assert any(line.startswith("faults_injected_total{")
               for line in thread_lines)
    assert _fault_lines(_chaos_fault_lines(tmp_path, "process")[1]) \
        == thread_lines


def test_fault_metrics_are_the_ledger_written_on_the_main_thread(
        tmp_path, monkeypatch):
    """Faults fire on worker threads, where the demotion is absorbed and
    its incident raised; all of it reaches the registry from the main
    thread at step end, and each family's total is the ledger's."""
    callers = _registry_callers(monkeypatch)
    stats, registry = _chaos_fault_lines(tmp_path, "thread")
    assert {thread for _name, thread in callers} \
        == {threading.main_thread()}
    snapshot = registry.snapshot()

    def total(family):
        return sum(series["value"] for key, series in snapshot.items()
                   if key.split("{", 1)[0] == family)

    assert total("faults_injected_total") == sum(stats["injected"].values())
    for key, family in (("retries", "faults_retries_total"),
                        ("dropouts", "faults_dropouts_total"),
                        ("demotions", "faults_demotions_total"),
                        ("degraded_steps", "faults_degraded_steps_total")):
        assert total(family) == stats[key] > 0, family
    assert snapshot['health_alerts_total{rule="device_dropout",'
                    'severity="critical"}']["value"] == 1


def _events_by_pid(events, pid):
    return [event for event in events
            if event["ph"] == "X" and event["pid"] == pid]


def _assert_wall_spans_nest(events):
    """Depth-d+1 spans must lie inside a depth-d span on the same lane."""
    walls = _events_by_pid(events, WALL_PID)
    assert walls
    checked = 0
    for event in walls:
        depth = event["args"].get("depth", 0)
        if depth == 0:
            continue
        parents = [
            parent for parent in walls
            if parent["tid"] == event["tid"]
            and parent["args"].get("depth") == depth - 1
            and parent["ts"] <= event["ts"] + 1e-6
            and event["ts"] + event["dur"]
            <= parent["ts"] + parent["dur"] + 1e-6
        ]
        assert parents, f"span {event['name']} has no enclosing parent"
        checked += 1
    assert checked > 0, "trace contains no nested wall-clock spans"


def test_cli_trace_emits_valid_two_domain_chrome_trace(tmp_path, capsys):
    out = str(tmp_path / "acceptance.trace.json")
    assert main(["trace", "--model", "gpt2-4.0b", "--csds", "6",
                 "--method", "su_o_c", "--out", out]) == 0
    assert "wrote" in capsys.readouterr().out
    with open(out) as handle:
        document = json.load(handle)
    events = document["traceEvents"]

    # Both time domains present, named.
    assert {e["pid"] for e in events if e["ph"] == "X"} == {WALL_PID,
                                                           SIM_PID}
    process_names = {e["args"]["name"] for e in events
                     if e.get("name") == "process_name"}
    assert process_names == {"wall-clock", "sim-time"}

    # Wall-clock spans nest correctly.
    _assert_wall_spans_nest(events)

    # The sim-time side has the DES phase lane and per-channel transfers.
    sim_events = _events_by_pid(events, SIM_PID)
    phase_names = {e["name"] for e in sim_events
                   if e.get("cat") == "sim-phase"}
    assert phase_names == {"forward", "backward_grad", "update"}
    channels = {e["args"]["channel"] for e in sim_events
                if "channel" in e["args"]}
    assert "host-link-up" in channels
    assert any(name.startswith("ssd") for name in channels)

    # The wall-clock side contains the functional proxy's engine and
    # handler spans, including worker-thread lazy write-backs.
    wall_names = {e["name"] for e in _events_by_pid(events, WALL_PID)}
    assert {"functional.proxy", "iteration", "handler.subgroup",
            "handler.lazy_writeback"} <= wall_names


def test_cli_trace_skip_functional_is_sim_only(tmp_path):
    out = str(tmp_path / "sim-only.trace.json")
    assert main(["trace", "--model", "gpt2-1.16b", "--csds", "2",
                 "--skip-functional", "--out", out]) == 0
    with open(out) as handle:
        events = json.load(handle)["traceEvents"]
    wall = _events_by_pid(events, WALL_PID)
    # Only the des.simulate bracketing span lives on the wall side.
    assert {e["name"] for e in wall} == {"des.simulate"}
    assert _events_by_pid(events, SIM_PID)


def test_cli_trace_metrics_flag_prints_exposition(tmp_path, capsys):
    out = str(tmp_path / "m.trace.json")
    assert main(["trace", "--model", "gpt2-1.16b", "--csds", "2",
                 "--metrics", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "# TYPE des_channel_bytes_total counter" in printed
    assert "handler_lazy_writeback_latency_us_count" in printed


def test_cli_simulate_metrics_flag(capsys):
    assert main(["simulate", "--model", "gpt2-1.16b", "--csds", "2",
                 "--metrics"]) == 0
    out = capsys.readouterr().out
    assert 'des_channel_utilization{channel="host-link-up"' in out
    assert 'method="su_o_c"' in out


def _baseline_under_plan(tmp_path, *rules):
    """A one-member baseline engine whose injector never really sleeps."""
    from repro.faults import FaultPlan
    from repro.runtime import BaselineOffloadEngine

    engine = BaselineOffloadEngine(
        make_model(), loss_fn, str(tmp_path),
        config=TrainingConfig(optimizer="adam", subgroup_elements=1024,
                              fault_plan=FaultPlan(rules=rules)))
    engine.faults._sleep = lambda _s: None
    return engine


def test_fault_counters_land_in_telemetry_exposition(tmp_path):
    """Chaos accounting shares the exposition with everything else:
    deterministic transient faults show up, at the step's end, as
    described counter families (injections, retries, backoff seconds)."""
    from repro.faults import FaultRule

    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 16, size=(4, 8))
    labels = rng.integers(0, 2, size=4)
    with telemetry.session() as session, _baseline_under_plan(
            tmp_path,
            FaultRule(kind="io_error", op="read", at_op=1, count=2),
            FaultRule(kind="latency", op="write", at_op=1, count=1,
                      latency_s=0.001)) as engine:
        engine.train_step(tokens, labels)
        stats = engine.fault_stats()
    snapshot = session.registry.snapshot()

    def total(name):
        return sum(series["value"] for key, series in snapshot.items()
                   if key.split("{", 1)[0] == name)

    assert total("faults_injected_total") == 3
    assert total("faults_retries_total") == stats["retries"] == 2
    assert total("faults_backoff_seconds_total") \
        == stats["backoff_seconds"] > 0.0
    assert total("faults_latency_seconds_total") == pytest.approx(0.001)

    text = session.registry.render_prometheus()
    assert "# TYPE faults_injected_total counter" in text
    assert "# HELP faults_injected_total Faults injected" in text
    assert 'faults_injected_total{device="0",kind="io_error",op="read"}' \
        in text
    assert "# HELP faults_retries_total" in text


def test_fault_dropout_counter_increments(tmp_path):
    """A step that dies of a dropout still closes its books: the dropout,
    the degraded RAID0 volume and the crash alert reach the registry
    although no step ever finishes."""
    from repro.errors import DeviceFailedError

    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 16, size=(4, 8))
    labels = rng.integers(0, 2, size=4)
    with telemetry.session() as session, \
            _baseline_under_plan(tmp_path) as engine:
        engine.faults.fail_device(0, reason="test")
        for _ in range(2):
            with pytest.raises(DeviceFailedError):
                engine.train_step(tokens, labels)
    snapshot = session.registry.snapshot()
    assert snapshot['faults_dropouts_total{device="0"}']["value"] == 1
    assert snapshot['raid_degraded_total{member="ssd0",volume="raid0[1]"}'
                    ]["value"] == 1
    assert snapshot['health_alerts_total{rule="engine_exception",'
                    'severity="critical"}']["value"] == 2


def test_fault_counters_noop_without_session():
    from repro.faults import FaultInjector, FaultPlan, FaultRule
    from repro.faults.plan import summarize

    plan = FaultPlan(rules=(
        FaultRule(kind="io_error", op="read", at_op=1, count=1),))
    injector = FaultInjector(plan, sleep=lambda _s: None)
    assert not telemetry.enabled()
    injector.guard(0, "read")  # must not raise with telemetry off
    assert summarize(injector.ledger.series())["injected"] == {"io_error": 1}


def test_utilization_signals_cover_only_new_intervals(tmp_path,
                                                      monkeypatch):
    """Two engines under two (nested) sessions: what an engine attributes
    for ``util:*`` is exactly the intervals recorded in the active
    session since that engine's own last observation — returning to the
    outer session does not re-read what it had already attributed
    there."""
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 16, size=(4, 8))
    labels = rng.integers(0, 2, size=4)
    config = TrainingConfig(optimizer="adam", subgroup_elements=1024,
                            num_csds=2)
    attributed = []
    from_spans = telemetry.Timeline.from_spans.__func__

    def spy(cls, spans, *args, **kwargs):
        attributed.append(list(spans))
        return from_spans(cls, spans, *args, **kwargs)

    monkeypatch.setattr(telemetry.Timeline, "from_spans", classmethod(spy))

    def step(engine):
        """The spans ``engine`` attributed for this step's ``util:*``."""
        before = len(attributed)
        engine.train_step(tokens, labels)
        (spans,) = attributed[before:]
        return spans

    with SmartInfinityEngine(make_model(), loss_fn, str(tmp_path / "a"),
                             config=config) as one, \
            SmartInfinityEngine(make_model(), loss_fn, str(tmp_path / "b"),
                                config=config) as two:
        with telemetry.session() as outer:
            first = step(one)
            assert first == outer.tracer.spans
            second = step(two)       # never observed: everything so far
            assert second == outer.tracer.spans
            with telemetry.session() as inner:
                nested = step(one)
                assert nested == inner.tracer.spans
            seen = len(outer.tracer.spans)
            again = step(one)
            # Only this step: not the outer spans it attributed before
            # the inner session, nor engine two's step in between.
            assert again == outer.tracer.spans[seen:]
            assert step(two) == outer.tracer.spans[len(second):]
