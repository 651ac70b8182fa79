"""One round of one workload, in a fresh process.

``run.py`` starts this file once per round so that set-up (imports,
model build, ``create_engine``, initial placement, warm-up) is paid and
measured every round, and no state leaks from one round into the next.
A round runs a fixed number of steps — never a time limit — so its
counts, checksum and ``loss_final`` repeat exactly.  The result is one
JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import struct
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402  (after the BLAS pins run.py exports)

from tracer import STEP, Tracer, span_metrics, summarize  # noqa: E402
from workloads import (CROSSCHECK_STEPS, SMOKE_STEPS, SMOKE_WARMUP,  # noqa: E402
                       WORKLOADS, SweepWorkload, TrainingWorkload,
                       build_engine)


def _cpu_seconds() -> float:
    """CPU time of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _steal_ticks() -> Optional[List[int]]:
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return [fields[7] if len(fields) > 7 else 0, sum(fields[:8])]


def _resident_mib() -> float:
    """Current resident set from /proc/self/statm (0 off Linux)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


class Calibration:
    """A fixed kernel timed before, during and after each round.

    This shared 2-CPU host changes speed by 30-45 % for minutes at a
    time (measured in one process: a pure-Python loop 10.8 -> 14 ms, a
    matmul 4.5 -> 6.5 ms), and in bursts within a round; ten raw runs of
    one workload spread 10-26 % (inter-quartile range / median), far
    more than any bound a regression gate could use.  The kernel samples
    the host's speed next to the steps it is used to correct: equal
    thirds of interpreter bytecode, single-thread BLAS and streaming
    ufuncs — what a step is made of.  It touches nothing under ``src/``,
    so a change to the program cannot move it.  ``run.py`` divides each
    round's time-based end-to-end metrics by median(samples) /
    ``REFERENCE_S``.  Measured on 5-minute series, 5 rounds per run:
    baseline_raid0 10.3 % -> 2.7 % (coefficient of variation), des_sweep
    3.3 % -> 1.4 %, smart_suoc (whose two worker threads a one-thread
    kernel tracks less well) 10.1 % -> 6.4 %; sampling only before and
    after a round gave 4.0 % on baseline_raid0.  A fourth part walking
    25 MB of Python objects helped two workloads, hurt two, and cost
    50 MB of resident set, so it is not here.
    """

    #: Kernel time at the reference host speed the metrics are quoted at.
    REFERENCE_S = 0.100

    def __init__(self) -> None:
        before = _resident_mib()
        rng = np.random.default_rng(0)
        self._square = rng.standard_normal((256, 256)).astype(np.float32)
        self._stream = rng.standard_normal(1 << 20).astype(np.float32)
        self._scratch = np.full_like(self._stream, 0.0)
        #: What the kernel's own arrays add to the resident set; taken
        #: off ``peak_rss_mb`` so that metric is the program's alone.
        self.resident_mib = max(0.0, _resident_mib() - before)
        self.wall: List[float] = []
        self.cpu: List[float] = []

    def sample(self) -> None:
        cpu_before = time.process_time()
        begin = time.perf_counter()
        total = 0
        for value in range(600_000):
            total += value * value
        for _ in range(200):
            self._square @ self._square
        for _ in range(40):
            np.multiply(self._stream, 1.0001, out=self._scratch)
            np.sqrt(np.abs(self._scratch, out=self._scratch),
                    out=self._scratch)
        self.wall.append(time.perf_counter() - begin)
        self.cpu.append(time.process_time() - cpu_before)


def _checksum(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _timed_loop(run_step: Callable[[int], float], steps: int,
                tracer: Optional[Tracer]
                ) -> Tuple[Dict[str, object], List[float]]:
    """Closed loop, one generator thread: step ``i+1`` starts when step
    ``i`` returned.  ``run_step`` returns the step's loss (or any finite
    number); raising, or a non-finite loss, fails the step.  A raise
    ends the round: the engine's state is suspect, so the remaining
    steps count as failed too.  The calibration kernel runs between
    steps, four times a round plus once before; its time is in neither
    the wall nor the CPU figures.  Returns the round's measurements and
    the per-step losses.
    """
    if tracer is not None:
        run_step = tracer.wrap(run_step, STEP)
    step_seconds: List[float] = []
    losses: List[float] = []
    failed, error, cpu = 0, None, 0.0
    calibration = Calibration()
    calibrate_every = max(1, steps // 4)
    steal_before = _steal_ticks()
    for index in range(steps):
        if index % calibrate_every == 0:
            calibration.sample()
        if tracer is not None:
            tracer.step = index
        cpu_before = _cpu_seconds()
        begin = time.perf_counter()
        try:
            loss = run_step(index)
        except Exception as exc:  # boundary: record, count, stop the round
            error = f"{type(exc).__name__}: {exc}"
            failed += steps - index
            break
        step_seconds.append(time.perf_counter() - begin)
        cpu += _cpu_seconds() - cpu_before
        losses.append(loss)
        failed += not math.isfinite(loss)
    if tracer is not None:
        tracer.step = -1
    calibration.sample()
    steal_after = _steal_ticks()
    steal_share = None
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        steal_share = ((steal_after[0] - steal_before[0])
                       / (steal_after[1] - steal_before[1]))
    done = len(step_seconds)
    wall = sum(step_seconds)
    return {
        "steps": steps, "failed": failed, "error": error,
        "wall_s": wall,
        "steps_per_s": done / wall if done else 0.0,
        "step_ms_p50": (statistics.median(step_seconds) * 1e3
                        if done else 0.0),
        "step_ms_p95": (_percentile(step_seconds, 0.95) * 1e3
                        if done else 0.0),
        "cpu_ms_per_step": cpu / done * 1e3 if done else 0.0,
        "steal_share": steal_share,
        # Medians: one sample that was preempted for half a second
        # must not double the factor (seen once at 5 % stolen time).
        "speed_factor": (statistics.median(calibration.wall)
                         / Calibration.REFERENCE_S),
        "cpu_speed_factor": (statistics.median(calibration.cpu)
                             / Calibration.REFERENCE_S),
        "calibration_rss_mb": calibration.resident_mib,
    }, losses


def _start_tracer(args) -> Optional[Tracer]:
    """An installed tracer for a traced round, else None."""
    if not args.trace:
        return None
    import repro.api  # noqa: F401  loads every layer module to wrap
    tracer = Tracer()
    tracer.install()
    return tracer


def _add_layers(result: Dict[str, object], tracer: Tracer, workers: int,
                dense_grad_bytes: int, extra: Dict[str, float]) -> None:
    """Put a traced round's per-layer metrics into its result."""
    done = max(1, result["steps"] - result["failed"])
    summary = summarize(tracer.spans, done, threading.current_thread().name)
    layers = span_metrics(summary, workers, dense_grad_bytes)
    layers["runtime.step_ms_p95"] = result["step_ms_p95"]
    layers.update(extra)
    result.update(layers=layers, calls=summary["calls"],
                  layer_self_ms=summary["layer_self_ms"],
                  missing_wrappers=tracer.missing)


# ----------------------------------------------------------------------
# training workloads
# ----------------------------------------------------------------------
def _expected_host_bytes(workload: TrainingWorkload, engine) -> int:
    """Table I closed form for one iteration of this engine."""
    from repro.runtime.stats import expected_traffic
    shards = getattr(engine, "shards", None)
    expected = expected_traffic(
        engine.num_params, workload.traffic,
        states_per_param=engine.optimizer.states_per_param,
        compression_ratio=workload.config.get("compression_ratio") or 0.02,
        shard_sizes=[s.count for s in shards] if shards else None)
    return expected["host_reads"] + expected["host_writes"]


def training_round(workload: TrainingWorkload, args, spawned: float,
                   workdir: str) -> Dict[str, object]:
    from repro.memory import aggregate_arena_stats

    tracer = _start_tracer(args)
    batches = np.load(args.data)
    warmup, steps = ((SMOKE_WARMUP, SMOKE_STEPS) if args.smoke
                     else (workload.warmup, workload.steps))
    wrap_loss = None
    if tracer is not None:
        def wrap_loss(loss_fn):
            return tracer.wrap(loss_fn, "nn.forward")
    with build_engine(workload, args.seed, workdir, wrap_loss) as engine:
        for index in range(warmup):
            engine.train_step(batches[index % len(batches)])
        setup_s = time.monotonic() - spawned

        arena_before = aggregate_arena_stats()
        flight_before = (engine.flight.stats()["events_recorded"]
                         if engine.flight else 0)

        def run_step(index: int) -> float:
            batch = batches[(warmup + index) % len(batches)]
            return engine.train_step(batch).loss

        result, losses = _timed_loop(run_step, steps, tracer)
        traffic = engine.meter.iterations[-1]
        result.update(
            setup_s=setup_s,
            peak_rss_mb=_peak_rss_mib() - result["calibration_rss_mb"],
            checksum=_checksum(engine.space.gather_params()),
            loss_final=(float(np.mean(losses[-10:])) if losses
                        else float("nan")),
            host_bytes_per_step=traffic.host_total,
            expected_host_bytes=_expected_host_bytes(workload, engine))
        if tracer is not None:
            done = max(1, len(losses))
            arena = aggregate_arena_stats()
            flight = (engine.flight.stats()["events_recorded"]
                      if engine.flight else 0)
            _add_layers(result, tracer, getattr(engine, "workers", 0),
                        4 * engine.num_params, {
                "runtime.host_bytes_per_step": traffic.host_total,
                "nn.loss_final": result["loss_final"],
                "csd.p2p_bytes": traffic.internal_total,
                "memory.arena_checkouts":
                    (arena.checkouts - arena_before.checkouts) / done,
                "memory.arena_allocs":
                    (arena.allocations - arena_before.allocations) / done,
                "telemetry.flight_events": (flight - flight_before) / done,
            })
    return result


def crosscheck(workload: TrainingWorkload, args,
               workdir: str) -> Dict[str, object]:
    """The paper's SU == baseline claim: the smart engine without
    compression and the baseline engine, same model, data and seed,
    must hold bit-identical parameters after the same steps."""
    batches = np.load(args.data)
    steps = SMOKE_STEPS if args.smoke else CROSSCHECK_STEPS
    checksums = {}
    arms = {   # ``workload`` is baseline_raid0; the other arm is plain SU
        "baseline": {},
        "smart_su": dict(mode="smart", num_csds=2, parallel_csds=2),
    }
    for arm, overrides in arms.items():
        with build_engine(workload, args.seed,
                          os.path.join(workdir, arm), **overrides) as engine:
            for index in range(steps):
                engine.train_step(batches[index % len(batches)])
            checksums[arm] = _checksum(engine.space.gather_params())
    return {"steps": steps, "checksums": checksums,
            "identical": len(set(checksums.values())) == 1}


# ----------------------------------------------------------------------
# the DES sweep
# ----------------------------------------------------------------------
def sweep_round(workload: SweepWorkload, args,
                spawned: float) -> Dict[str, object]:
    from repro.hw.topology import default_system
    from repro.nn.models import get_model
    from repro.perf.scenarios import METHODS, SCHEDULES, trace_scenario
    from repro.perf.workload import make_workload
    from repro.telemetry.attrib import attribute_channels
    from repro.telemetry.critpath import DepGraph

    tracer = _start_tracer(args)

    def critical_path(channels, windows):
        graph = DepGraph.from_channels(channels, windows)
        return graph.critical_path() if graph.nodes else None

    simulate, attribute = trace_scenario, attribute_channels
    if tracer is not None:
        simulate = tracer.wrap(simulate, "perf.scenario")
        attribute = tracer.wrap(attribute, "telemetry.attrib")
        critical_path = tracer.wrap(critical_path, "telemetry.critpath")

    totals: Dict[tuple, float] = {}
    digests: List[str] = []
    records = 0

    def one_pass(_index: int) -> float:
        nonlocal records
        digest = hashlib.sha256()
        records = 0
        for model in workload.models:
            work = make_workload(get_model(model))
            for csds in workload.csds:
                system = default_system(num_csds=csds)
                for method in METHODS:
                    for schedule in SCHEDULES:
                        trace = simulate(system, work, method,
                                         schedule=schedule)
                        channels = trace.fabric.all_channels()
                        attribute(trace.phase_windows, channels,
                                  horizon=trace.breakdown.total)
                        critical_path(channels, trace.phase_windows)
                        total = trace.breakdown.total
                        digest.update(struct.pack("<d", total))
                        totals[(model, csds, method, schedule)] = total
                        records += sum(len(c.records) for c in channels)
        digests.append(digest.hexdigest()[:16])
        if digests[-1] != digests[0]:
            raise RuntimeError("breakdown digest changed between passes: "
                               f"{digests[0]} -> {digests[-1]}")
        return total

    warmup, steps = ((SMOKE_WARMUP, 1) if args.smoke
                     else (workload.warmup, workload.steps))
    for index in range(warmup):
        one_pass(index)
    setup_s = time.monotonic() - spawned
    result, _losses = _timed_loop(one_pass, steps, tracer)

    model, csds = workload.headline
    modeled = {
        method: totals[(model, csds, method, "phased")]
        for method in ("baseline", "su_o_c")}
    interleaved = totals[(model, csds, "su_o_c", "interleaved")]
    result.update(
        setup_s=setup_s,
        peak_rss_mb=_peak_rss_mib() - result["calibration_rss_mb"],
        # Digest over every scenario's breakdown.total, in grid order;
        # one_pass has checked that every pass produced the same one.
        checksum=digests[0],
        modeled_speedup=modeled["baseline"] / modeled["su_o_c"])
    if tracer is not None:
        _add_layers(result, tracer, 0, 0, {
            "perf.transfer_records": records,
            "perf.modeled_speedup": result["modeled_speedup"],
            "perf.modeled_step_s.baseline": modeled["baseline"],
            "perf.modeled_step_s.su_o_c": modeled["su_o_c"],
            "perf.modeled_interleaved_gain":
                modeled["su_o_c"] / interleaved,
        })
    return result


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--task", required=True,
                        help="round | crosscheck | isolated | probe:<name>")
    parser.add_argument("--workload", default="smart_suoc")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--data", help=".npy token batches from run.py")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--spawned", type=float, default=None,
                        help="time.monotonic() when run.py started us")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spawned = args.spawned if args.spawned is not None else time.monotonic()

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        if args.task == "round":
            if isinstance(workload, TrainingWorkload):
                result = training_round(workload, args, spawned, workdir)
            else:
                result = sweep_round(workload, args, spawned)
        elif args.task == "crosscheck":
            result = crosscheck(workload, args, workdir)
        else:
            import micro
            result = micro.run_task(args.task, args, workdir)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
