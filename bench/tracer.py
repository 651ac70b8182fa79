"""Spans recorded from the benchmark's own files, around layer calls.

Nothing under ``src/`` is edited: :func:`install` replaces each layer's
public functions with timing wrappers at run time (class attributes for
methods; every ``repro.*`` module attribute and default argument that
holds a module-level function).  A span is ``(name, thread, start, end,
child_seconds, step, amount)``; a span's *self time* is its duration
minus the part its same-thread children cover.  Spans are kept in
memory and summarised when the round ends.  A wrapper that is already
open on the calling thread under the same span name passes straight
through, so ``read_slice -> read_slice_into`` or ``AdamW.step ->
Adam.step`` count once.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span name of one timed step (opened by the harness, not a layer).
STEP = "step"

def _io_amount(args, result) -> int:
    return result if isinstance(result, int) else len(result)


def _elements(args, result) -> int:
    return args[1].size


#: (module, class or None, attribute, span name, amount(args, result)).
#: ``amount`` is the work a call did (bytes, elements), summed per span
#: name so ratios are measured where the work happens.
WRAPPERS: Tuple[Tuple[str, Optional[str], str, str,
                      Optional[Callable]], ...] = (
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward", None),
    ("repro.nn.precision", None, "has_overflow", "nn.precision", None),
    ("repro.nn.precision", None, "clip_gradients", "nn.precision", None),
    ("repro.nn.offload", "ActivationSpillStore", "put", "nn.spill_put",
     lambda args, result: args[2].nbytes),
    ("repro.nn.offload", "ActivationSpillStore", "get", "nn.spill_get",
     None),
    ("repro.runtime.partition", "FlatParameterSpace", "gather_grads",
     "runtime.partition", None),
    ("repro.runtime.partition", "FlatParameterSpace", "install_fp16_slice",
     "runtime.partition", None),
    ("repro.runtime.partition", "FlatParameterSpace", "scatter_slice",
     "runtime.partition", None),
    ("repro.runtime.parallel", "CSDWorkerPool", "map_ordered",
     "runtime.pool", None),
    ("repro.runtime.interleave", "InterleavedScheduler", "submit",
     "runtime.pool", None),
    ("repro.runtime.interleave", "InterleavedScheduler", "drain",
     "runtime.pool", None),
    ("repro.compression.topk", None, "compress_topk", "compression.topk",
     lambda args, result: result.num_kept),
    ("repro.compression.error_feedback", "ErrorFeedback", "compensate",
     "compression.feedback", None),
    ("repro.compression.error_feedback", "ErrorFeedback", "absorb",
     "compression.feedback", None),
    ("repro.csd.handler", "TransferHandler", "run_update_pass",
     "csd.handler_pass", None),
    ("repro.csd.handler", None, "naive_update_pass", "csd.handler_pass",
     None),
    ("repro.csd.kernels", "UpdaterKernel", "run", "csd.updater", None),
    ("repro.csd.kernels", "DecompressorKernel", "run", "csd.decompress",
     None),
    ("repro.csd.device", "SmartSSDDevice", "host_write", "csd.host_write",
     None),
    ("repro.csd.device", "SmartSSDDevice", "host_read", "csd.host_read",
     None),
    ("repro.csd.device", "SmartSSDDevice", "host_read_into",
     "csd.host_read", None),
    ("repro.csd.device", "SmartSSDDevice", "p2p_read", "csd.p2p_read",
     None),
    ("repro.csd.device", "SmartSSDDevice", "p2p_read_into", "csd.p2p_read",
     None),
    ("repro.csd.device", "SmartSSDDevice", "p2p_write", "csd.p2p_write",
     None),
    ("repro.csd.device", "SmartSSDDevice", "p2p_write_from",
     "csd.p2p_write", None),
    ("repro.optim.adam", "Adam", "step", "optim.step", _elements),
    ("repro.optim.adam", "AdamW", "step", "optim.step", _elements),
    ("repro.optim.sgd", "SGDMomentum", "step", "optim.step", _elements),
    ("repro.optim.adagrad", "AdaGrad", "step", "optim.step", _elements),
    ("repro.storage.tensor_store", "TensorStore", "read_slice_into",
     "storage.tensorstore_read", None),
    ("repro.storage.tensor_store", "TensorStore", "read_slice",
     "storage.tensorstore_read", None),
    ("repro.storage.tensor_store", "TensorStore", "read_array",
     "storage.tensorstore_read", None),
    ("repro.storage.tensor_store", "TensorStore", "write_slice",
     "storage.tensorstore_write", None),
    ("repro.storage.tensor_store", "TensorStore", "write_array",
     "storage.tensorstore_write", None),
    ("repro.storage.raid0", "RAID0Volume", "pread_into",
     "storage.raid0_read", None),
    ("repro.storage.raid0", "RAID0Volume", "pread", "storage.raid0_read",
     None),
    ("repro.storage.raid0", "RAID0Volume", "pwrite", "storage.raid0_write",
     None),
    ("repro.storage.blockdev", "FileBlockDevice", "pread_into",
     "storage.blockdev_read", _io_amount),
    ("repro.storage.blockdev", "FileBlockDevice", "pread",
     "storage.blockdev_read", _io_amount),
    ("repro.storage.blockdev", "FileBlockDevice", "pwrite",
     "storage.blockdev_write", _io_amount),
    ("repro.telemetry.health", "StepHealthMonitor", "observe",
     "telemetry.health", None),
    ("repro.telemetry.health", "RulesEngine", "evaluate",
     "telemetry.health", None),
    ("repro.sim.core", "Simulator", "run", "sim.run",
     lambda args, result: args[0].events_processed),
)


class Tracer:
    """In-memory span recorder; records only while ``step >= 0``."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: Index of the timed step in progress; -1 outside timed steps
        #: (set-up, warm-up), when wrappers pass straight through.
        self.step = -1
        self.missing: List[str] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             amount: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` recorded around each call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.step < 0:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            for frame in stack:
                if frame[0] == name:
                    return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            begin = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = amount(args, result) if amount is not None else 0
            except BaseException:
                tracer._close(stack, frame, begin, 0)
                raise
            tracer._close(stack, frame, begin, done)
            return result

        return wrapper

    def _close(self, stack: list, frame: list, begin: float,
               amount: int) -> None:
        end = time.perf_counter()
        stack.pop()
        if stack:
            stack[-1][1] += end - begin
        self.spans.append((frame[0], threading.current_thread().name,
                           begin, end, frame[1], self.step, amount))

    def install(self) -> None:
        """Wrap every layer entry point in :data:`WRAPPERS`.

        An entry whose module, class or attribute no longer exists is
        skipped and listed in :attr:`missing` — the reconciliation check
        then shows its time as unexplained instead of failing the run.
        """
        for module_name, owner, attr, name, amount in WRAPPERS:
            try:
                target = importlib.import_module(module_name)
                if owner is not None:
                    target = getattr(target, owner)
                original = vars(target)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(
                    ".".join(filter(None, (module_name, owner, attr))))
                continue
            wrapped = self.wrap(original, name, amount)
            if owner is not None:
                setattr(target, attr, wrapped)
            else:
                _rebind(original, wrapped)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro.*`` reference to a module-level function —
    ``from x import f`` bindings and default arguments — at its wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, types.FunctionType) \
                    and value.__defaults__ \
                    and any(d is original for d in value.__defaults__):
                value.__defaults__ = tuple(
                    replacement if d is original else d
                    for d in value.__defaults__)


def summarize(spans: List[tuple], steps: int, main_thread: str,
              worker_prefix: str = "csd-worker") -> Dict[str, object]:
    """Per-span-name totals of one round, per timed step.

    Returns ``incl_ms`` (all threads), ``main_self_ms`` (main thread
    only), ``calls`` and ``amount`` per span name, the
    main-thread self time grouped by layer (``layer_self_ms``; these
    tile the step exactly), and the pool workers' busy milliseconds.
    """
    incl: Dict[str, float] = defaultdict(float)
    self_main: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    amount: Dict[str, float] = defaultdict(float)
    worker_self = 0.0
    for name, thread, begin, end, child, _step, done in spans:
        duration = end - begin
        incl[name] += duration
        calls[name] += 1
        amount[name] += done
        if thread == main_thread:
            self_main[name] += duration - child
        elif thread.startswith(worker_prefix):
            worker_self += duration - child
    per_step_ms = 1e3 / steps
    layer_self: Dict[str, float] = defaultdict(float)
    for name, seconds in self_main.items():
        layer_self[name.split(".")[0]] += seconds * per_step_ms
    return {
        "incl_ms": {k: v * per_step_ms for k, v in incl.items()},
        "main_self_ms": {k: v * per_step_ms for k, v in self_main.items()},
        "calls": {k: v / steps for k, v in calls.items()},
        "amount": {k: v / steps for k, v in amount.items()},
        "layer_self_ms": dict(layer_self),
        "worker_busy_ms": worker_self * per_step_ms,
    }


#: Per-layer metrics read straight off a round's span summary:
#: metric -> (span name, summary table).  ``incl_ms`` is the time inside
#: calls to that layer entry point per step, layers below included and
#: summed over threads; ``main_self_ms`` is main-thread self time.
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "nn.forward_ms": ("nn.forward", "incl_ms"),
    "nn.backward_ms": ("nn.backward", "incl_ms"),
    "nn.precision_ms": ("nn.precision", "incl_ms"),
    "nn.spill_put_ms": ("nn.spill_put", "incl_ms"),
    "nn.spill_get_wait_ms": ("nn.spill_get", "incl_ms"),
    "nn.spill_bytes": ("nn.spill_put", "amount"),
    "runtime.step_ms": (STEP, "incl_ms"),
    "runtime.glue_ms": (STEP, "main_self_ms"),
    "runtime.partition_ms": ("runtime.partition", "incl_ms"),
    "runtime.pool_wait_ms": ("runtime.pool", "main_self_ms"),
    "compression.topk_ms": ("compression.topk", "incl_ms"),
    "compression.topk_calls": ("compression.topk", "calls"),
    "compression.feedback_ms": ("compression.feedback", "incl_ms"),
    "csd.handler_pass_ms": ("csd.handler_pass", "incl_ms"),
    "csd.updater_ms": ("csd.updater", "incl_ms"),
    "csd.updater_calls": ("csd.updater", "calls"),
    "csd.decompress_ms": ("csd.decompress", "incl_ms"),
    "csd.host_write_ms": ("csd.host_write", "incl_ms"),
    "csd.host_read_ms": ("csd.host_read", "incl_ms"),
    "csd.p2p_read_ms": ("csd.p2p_read", "incl_ms"),
    "csd.p2p_write_ms": ("csd.p2p_write", "incl_ms"),
    "optim.step_ms": ("optim.step", "incl_ms"),
    "optim.step_calls": ("optim.step", "calls"),
    "optim.elems_per_step": ("optim.step", "amount"),
    "storage.tensorstore_read_ms": ("storage.tensorstore_read", "incl_ms"),
    "storage.tensorstore_write_ms": ("storage.tensorstore_write",
                                     "incl_ms"),
    "storage.raid0_read_ms": ("storage.raid0_read", "incl_ms"),
    "storage.raid0_write_ms": ("storage.raid0_write", "incl_ms"),
    "storage.blockdev_read_ms": ("storage.blockdev_read", "incl_ms"),
    "storage.blockdev_write_ms": ("storage.blockdev_write", "incl_ms"),
    "storage.read_bytes": ("storage.blockdev_read", "amount"),
    "storage.write_bytes": ("storage.blockdev_write", "amount"),
    "storage.read_ops": ("storage.blockdev_read", "calls"),
    "storage.write_ops": ("storage.blockdev_write", "calls"),
    "telemetry.health_ms": ("telemetry.health", "incl_ms"),
    "perf.scenario_ms": ("perf.scenario", "incl_ms"),
    "sim.events": ("sim.run", "amount"),
    "telemetry.attrib_ms": ("telemetry.attrib", "incl_ms"),
    "telemetry.critpath_ms": ("telemetry.critpath", "incl_ms"),
}


def span_metrics(summary: Dict[str, object], workers: int,
                 dense_grad_bytes: int) -> Dict[str, float]:
    """The in-situ per-layer metrics of one traced round.

    A layer the workload bypasses reports 0 calls and 0 ms — that zero
    is the measurement (see the bypass assertions), not a gap.
    """
    values = {metric: summary[table].get(span, 0.0)
              for metric, (span, table) in SPAN_METRICS.items()}
    step_ms = values["runtime.step_ms"]
    values["runtime.unexplained_share"] = values["runtime.glue_ms"] / step_ms
    values["runtime.worker_busy_share"] = (
        summary["worker_busy_ms"] / (workers * step_ms) if workers else 0.0)
    sim_seconds = summary["incl_ms"].get("sim.run", 0.0) / 1e3
    values["sim.events_per_s"] = (values["sim.events"] / sim_seconds
                                  if sim_seconds else 0.0)
    kept = summary["amount"].get("compression.topk", 0.0)
    values["compression.kept_ratio"] = (8.0 * kept / dense_grad_bytes
                                        if dense_grad_bytes else 0.0)
    return values
