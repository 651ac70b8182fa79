"""Isolated layer microbenchmarks and A/B probes (traced runs only).

*Isolated* numbers time one layer alone, each beside a floor measured
in the same process (raw ``os.preadv``/``os.pwrite`` for storage, a
numpy copy for the optimizer kernels).  *A/B probes* alternate two
engine configurations ABAB and report the ratio of their median step
times; they cover the knobs ROADMAP lists as deletion candidates, so
each probe runs in its own process and a probe that raises is reported
as ``null`` by ``run.py`` instead of failing the run.

Storage numbers are syscall + copy cost through the page cache — the
step path never fsyncs — not device cost.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from typing import Callable, Dict, List

import numpy as np

from workloads import WORKLOADS

MIB = 1 << 20


def _best(fn: Callable[[], None], repeats: int) -> float:
    """Fastest of ``repeats`` calls, in seconds: the floor of a
    deterministic kernel, robust to a noisy neighbour."""
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


# ----------------------------------------------------------------------
# isolated layers
# ----------------------------------------------------------------------
def _storage(workdir: str, smoke: bool) -> Dict[str, float]:
    from repro.storage.blockdev import FileBlockDevice
    from repro.storage.raid0 import RAID0Volume
    from repro.storage.tensor_store import TensorStore

    total = (4 if smoke else 64) * MIB
    repeats = 1 if smoke else 3
    block = np.full(MIB // 4, 1.5, dtype=np.float32)
    offsets = range(0, total, MIB)
    mbps = {}

    def rate(name: str, fn: Callable[[], None]) -> None:
        mbps[name] = total / MIB / _best(fn, repeats)

    raw = os.open(os.path.join(workdir, "raw.img"),
                  os.O_RDWR | os.O_CREAT, 0o644)
    try:
        view = memoryview(block).cast("B")
        rate("storage.raw_write_mbps", lambda: [
            os.pwrite(raw, view, off) for off in offsets])
        rate("storage.raw_read_mbps", lambda: [
            os.preadv(raw, [view], off) for off in offsets])
    finally:
        os.close(raw)

    with FileBlockDevice(os.path.join(workdir, "dev.img"), total) as dev:
        rate("storage.blockdev_write_mbps", lambda: [
            dev.pwrite(off, block) for off in offsets])
        rate("storage.blockdev_read_mbps", lambda: [
            dev.pread_into(off, block) for off in offsets])

    members = [FileBlockDevice(os.path.join(workdir, f"raid{i}.img"),
                               total // 2 + MIB) for i in range(2)]
    with RAID0Volume(members, chunk_bytes=MIB) as volume:
        big = np.full(MIB, 1.5, dtype=np.float32)        # 4 MiB, 4 chunks
        strides = range(0, total, 4 * MIB)
        rate("storage.raid0_write_mbps", lambda: [
            volume.pwrite(off, big) for off in strides])
        rate("storage.raid0_read_mbps", lambda: [
            volume.pread_into(off, big) for off in strides])

    with FileBlockDevice(os.path.join(workdir, "ts.img"),
                         total + MIB) as dev:
        store = TensorStore(dev)
        elements = total // 4
        store.allocate("x", elements)
        store.write_array("x", np.zeros(elements, dtype=np.float32))
        out = np.empty(1 << 16, dtype=np.float32)        # one subgroup
        rate("storage.tensorstore_slice_mbps", lambda: [
            store.read_slice_into("x", start, out.size, out)
            for start in range(0, elements, out.size)])
    return mbps


def _optimizers(smoke: bool) -> Dict[str, float]:
    from repro.csd.kernels import UpdaterKernel
    from repro.optim import make_optimizer

    elements = (1 << 16) if smoke else (1 << 20)
    repeats = 2 if smoke else 7
    rng = np.random.default_rng(0)
    grads = rng.standard_normal(elements).astype(np.float32)
    gbps = {}

    def kernel_rate(name: str, optimizer, step) -> None:
        params = rng.standard_normal(elements).astype(np.float32)
        state = optimizer.init_state(elements)
        # grads read once; params and every state word read and written.
        moved = 4 * elements * (1 + 2 * optimizer.states_per_param)
        step(params, grads, state, 1)                     # warm the arena
        seconds = _best(lambda: step(params, grads, state, 2), repeats)
        gbps[name] = moved / seconds / 1e9

    for name in ("adam", "adamw", "sgd", "adagrad"):
        optimizer = make_optimizer(name)
        kernel_rate(f"optim.{name}_gbps", optimizer, optimizer.step)
    adam = make_optimizer("adam")
    kernel_rate("csd.updater_gbps", adam, UpdaterKernel(adam).run)

    source, target = grads, np.empty_like(grads)
    seconds = _best(lambda: np.copyto(target, source), repeats)
    gbps["optim.copy_gbps"] = 8 * elements / seconds / 1e9
    return gbps


def _compression(smoke: bool) -> Dict[str, float]:
    from repro.compression.topk import compress_topk
    from repro.csd.kernels import DecompressorKernel

    elements = (1 << 16) if smoke else (1 << 20)
    repeats = 2 if smoke else 5
    rng = np.random.default_rng(0)
    dense = rng.standard_normal(elements).astype(np.float32)
    # An embedding-like gradient: 90 % exact zeros.  argpartition's
    # introselect degrades badly on the ties (see workloads.py).
    sparse = dense.copy()
    sparse[rng.random(elements) < 0.9] = 0.0
    scratch = np.empty(elements, dtype=np.float32)
    out = np.empty(elements, dtype=np.float32)
    compressed = compress_topk(dense, 0.02, abs_scratch=scratch)
    kernel = DecompressorKernel()
    melems = elements / 1e6
    return {
        "compression.topk_melems_s": melems / _best(
            lambda: compress_topk(dense, 0.02, abs_scratch=scratch),
            repeats),
        "compression.topk_sparse_melems_s": melems / _best(
            lambda: compress_topk(sparse, 0.02, abs_scratch=scratch),
            repeats),
        "compression.decompress_melems_s": melems / _best(
            lambda: kernel.run(compressed, out), repeats),
    }


def _handler_over_naive(workdir: str, smoke: bool) -> Dict[str, float]:
    """``run_update_pass`` / ``naive_update_pass`` on one dense shard."""
    from repro.csd.device import SmartSSDDevice
    from repro.csd.handler import (TransferHandler, naive_update_pass,
                                   plan_subgroups)
    from repro.csd.kernels import UpdaterKernel
    from repro.optim import make_optimizer

    elements = (1 << 17) if smoke else (1 << 20)
    optimizer = make_optimizer("adam")
    names = optimizer.state_names
    subgroups = plan_subgroups(elements, 1 << 16)
    kernel = UpdaterKernel(optimizer)
    with SmartSSDDevice(os.path.join(workdir, "csd.img"),
                        4 * elements * 5 + 2 * MIB) as device:
        rng = np.random.default_rng(0)
        for region in ("master_params", "grads") + names:
            device.store.allocate(region, elements)
            device.store.write_array(
                region, np.abs(rng.standard_normal(elements)).astype(
                    np.float32))

        def load(subgroup, buffer):
            return device.p2p_read_into("grads", subgroup.start, buffer,
                                        subgroup.count)

        seconds: Dict[str, List[float]] = {"handler": [], "naive": []}
        with TransferHandler(device, names, 1 << 16) as handler:
            arms = {
                "handler": lambda: handler.run_update_pass(
                    subgroups, kernel, 1, load),
                "naive": lambda: naive_update_pass(
                    device, subgroups, kernel, 1, names, load),
            }
            for _ in range(2 if smoke else 5):
                for arm, run in arms.items():
                    begin = time.perf_counter()
                    run()
                    seconds[arm].append(time.perf_counter() - begin)
    return {"csd.handler_over_naive":
            statistics.median(seconds["handler"])
            / statistics.median(seconds["naive"])}


def _round_trips(smoke: bool) -> Dict[str, float]:
    """A no-op ``map_ordered`` over two workers, per backend."""
    from repro.runtime.parallel import CSDWorkerPool, ProcessCSDWorkerPool

    calls = 20 if smoke else 300
    micros = {}
    for name, pool_type in (("thread", CSDWorkerPool),
                            ("process", ProcessCSDWorkerPool)):
        with pool_type(2) as pool:
            pool.map_ordered(abs, (0, 1))
            begin = time.perf_counter()
            for _ in range(calls):
                pool.map_ordered(abs, (0, 1))
            micros[f"runtime.{name}_rtt_us"] = (
                (time.perf_counter() - begin) / calls * 1e6)
    return micros


def _block(smoke: bool) -> Dict[str, float]:
    """Forward and backward of one ``compute_spill`` transformer block."""
    from repro.nn import Tensor, TransformerBlock, gpt2_config

    spec = WORKLOADS["compute_spill"]
    config = gpt2_config(**spec.model)
    rng = np.random.default_rng(0)
    block = TransformerBlock(config, rng)
    x = rng.standard_normal(
        (spec.batch, spec.seq_len, config.dim)).astype(np.float32)
    delta = np.ones_like(x)
    forward, backward = [], []
    for _ in range(3 if smoke else 20):
        block.zero_grad()
        leaf = Tensor(x, requires_grad=True)
        begin = time.perf_counter()
        out = block(leaf)
        middle = time.perf_counter()
        out.backward(delta)
        backward.append(time.perf_counter() - middle)
        forward.append(middle - begin)
    return {"nn.block_fwd_ms": statistics.median(forward) * 1e3,
            "nn.block_bwd_ms": statistics.median(backward) * 1e3}


def _arena(smoke: bool) -> Dict[str, float]:
    from repro.memory import thread_arena

    arena = thread_arena()
    calls = 1000 if smoke else 20000
    arena.release(arena.acquire(1 << 16))
    begin = time.perf_counter()
    for _ in range(calls):
        arena.release(arena.acquire(1 << 16))
    return {"memory.arena_acquire_ns":
            (time.perf_counter() - begin) / calls * 1e9}


def isolated(workdir: str, smoke: bool) -> Dict[str, object]:
    """Every isolated metric; a group that raises reports its error
    under ``errors`` and leaves its metrics out (``null`` downstream)."""
    groups = (
        lambda: _storage(workdir, smoke),
        lambda: _optimizers(smoke),
        lambda: _compression(smoke),
        lambda: _handler_over_naive(workdir, smoke),
        lambda: _round_trips(smoke),
        lambda: _block(smoke),
        lambda: _arena(smoke),
    )
    values: Dict[str, float] = {}
    errors: List[str] = []
    for group in groups:
        try:
            values.update(group())
        except Exception as exc:  # boundary: a removed layer is not a crash
            errors.append(f"{type(exc).__name__}: {exc}")
    return {"values": values, "errors": errors}


# ----------------------------------------------------------------------
# A/B probes
# ----------------------------------------------------------------------
#: probe -> (workload, arm A overrides, arm B overrides, share?).  The
#: value is p50(A) / p50(B), minus 1 for ``*_overhead_share`` probes.
PROBES = {
    "runtime.process_over_thread": (
        "smart_suoc", {"parallel_backend": "process"},
        {"parallel_backend": "thread"}),
    "runtime.workers2_over_1": (
        "smart_suoc", {"parallel_csds": 2}, {"parallel_csds": 1}),
    "runtime.interleaved_over_phased": (
        "smart_suoc", {"schedule": "interleaved"}, {"schedule": "phased"}),
    "nn.spill_over_recompute": (
        "compute_spill", {"activation_offload": "spill"},
        {"activation_offload": "recompute"}),
    "telemetry.flight_overhead_share": (
        "smart_suoc", {"flight_recorder": True},
        {"flight_recorder": False}),
    "telemetry.session_overhead_share": (
        "smart_suoc", {"_session": True}, {"_session": False}),
}


def probe(name: str, seed: int, workdir: str, smoke: bool) -> float:
    """ABAB: each block is a fresh engine (so the two arms never share
    a flight recorder or an arena), warmed up, then timed."""
    from repro import telemetry
    from workloads import build_engine, make_inputs

    workload_name, arm_a, arm_b = PROBES[name]
    workload = WORKLOADS[workload_name]
    batches = make_inputs(workload_name, seed)
    warmup, steps = (1, 2) if smoke else (3, 10)
    seconds: Dict[str, List[float]] = {"a": [], "b": []}
    for block in range(4):
        arm = "ab"[block % 2]
        overrides = dict(arm_a if arm == "a" else arm_b)
        session = (telemetry.session() if overrides.pop("_session", False)
                   else contextlib.nullcontext())
        storage = os.path.join(workdir, f"block{block}")
        with session, build_engine(workload, seed, storage,
                                   **overrides) as engine:
            for index in range(warmup + steps):
                begin = time.perf_counter()
                engine.train_step(batches[index % len(batches)])
                if index >= warmup:
                    seconds[arm].append(time.perf_counter() - begin)
    ratio = (statistics.median(seconds["a"])
             / statistics.median(seconds["b"]))
    return ratio - 1.0 if name.endswith("_overhead_share") else ratio


def run_task(task: str, args, workdir: str) -> Dict[str, object]:
    """Dispatch for ``worker.py --task isolated | probe:<name>``."""
    if task == "isolated":
        return isolated(workdir, bool(args.smoke))
    kind, _, name = task.partition(":")
    if kind != "probe" or name not in PROBES:
        raise SystemExit(f"unknown task {task!r}")
    return {"value": probe(name, args.seed, workdir, bool(args.smoke))}
