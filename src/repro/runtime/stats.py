"""Interconnect traffic accounting and Table I verification helpers.

The paper's Table I states per-iteration traffic through the shared system
interconnect, in units of M (the FP16 model size, 2 bytes/parameter):

==============  =================  ==================
method          SSD read           SSD write
==============  =================  ==================
ZeRO-Inf        6M (opt) + 2M (g)  6M (opt) + 2M (g)
SmartUpdate     2M (params up)     2M (gradients)
SmartComp(c%)   2M (params up)     c% x 2M (gradients)
==============  =================  ==================

A step's traffic is what the engine's device ledgers (each device's
:class:`~repro.storage.blockdev.IOCounters`) gained during the step, and
the tests check it against these closed forms exactly.

:func:`expected_host_resident` is the same kind of statement about host
memory: which buffers a warmed-up engine may hold, itemised by owner and
checked byte for byte against ``engine.host_resident()``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TrainingError


@dataclass
class IterationTraffic:
    """Host-interconnect bytes of one training iteration."""

    host_reads: int = 0
    host_writes: int = 0
    internal_reads: int = 0
    internal_writes: int = 0

    @property
    def host_total(self) -> int:
        return self.host_reads + self.host_writes

    @property
    def internal_total(self) -> int:
        return self.internal_reads + self.internal_writes


@dataclass
class TrafficMeter:
    """Per-iteration traffic, read off the devices' own ledgers.

    ``begin_iteration`` / ``end_iteration`` take the engine's cumulative
    link totals (its devices' ``IOCounters``, summed) at the two ends of
    a step, and an iteration's traffic is their difference.  Both are
    main-thread calls at step boundaries; the ledgers' locks are what
    keep the bytes exact while a device's update worker and lazy writer
    overlap.
    """

    iterations: List[IterationTraffic] = field(default_factory=list)
    _start: IterationTraffic = field(default_factory=IterationTraffic)

    def begin_iteration(self, totals: IterationTraffic) -> None:
        self._start = totals

    def end_iteration(self, totals: IterationTraffic) -> IterationTraffic:
        traffic = IterationTraffic(*(
            now - start for now, start in zip(astuple(totals),
                                              astuple(self._start))))
        self.iterations.append(traffic)
        return traffic


def expected_traffic(num_params: int, method: str,
                     states_per_param: int = 3,
                     compression_ratio: float = 0.02,
                     shard_sizes: Optional[List[int]] = None
                     ) -> Dict[str, int]:
    """Closed-form Table I traffic in bytes per iteration.

    ``states_per_param`` is 3 for Adam (master, momentum, variance -> 6M in
    the paper's M units) and 2 for SGD-momentum/AdaGrad (4M).  ``method``
    is one of ``baseline`` / ``smartupdate`` / ``smartcomp``.  For
    SmartComp, compression runs per CSD shard, so pass ``shard_sizes`` to
    get the exact kept-element arithmetic the engine performs.
    """
    opt = 4 * states_per_param * num_params  # 6M for Adam
    grads = 4 * num_params                   # 2M (fp32 gradients)
    masters_up = 4 * num_params              # 2M (fp32 masters upstream)
    if method == "baseline":
        return {"host_reads": opt + grads, "host_writes": opt + grads}
    if method == "smartupdate":
        return {"host_reads": masters_up, "host_writes": grads}
    if method == "smartcomp":
        from ..compression.topk import keep_count
        sizes = shard_sizes or [num_params]
        kept = sum(keep_count(size, compression_ratio) for size in sizes)
        return {"host_reads": masters_up, "host_writes": 8 * kept}
    raise TrainingError(f"unknown method {method!r}")


#: One arena checkout: (how many at once, dtype string, elements).
_Checkout = Tuple[int, str, int]


def _pooled_bytes(phases: Iterable[Sequence[_Checkout]]) -> int:
    """What one thread's arena ends up holding after running ``phases``.

    A phase lists the checkouts that are out *at the same time*; phases
    follow each other.  A freelist is keyed by (dtype, size class) and
    never shrinks, so it ends up with as many blocks as the busiest
    phase had out under that key.
    """
    from ..memory import size_class
    blocks: Dict[Tuple[str, int], int] = {}
    for phase in phases:
        out: Dict[Tuple[str, int], int] = {}
        for count, dtype, elements in phase:
            key = (dtype, size_class(elements))
            out[key] = out.get(key, 0) + count
        for key, count in out.items():
            blocks[key] = max(blocks.get(key, 0), count)
    return sum(count * np.dtype(dtype).itemsize * elements
               for (dtype, elements), count in blocks.items())


def expected_host_resident(num_params: int, mode: str,
                           shard_sizes: Optional[Sequence[int]] = None,
                           subgroup_elements: int = 1 << 16,
                           states_per_param: int = 3,
                           compression_ratio: Optional[float] = None,
                           error_feedback: bool = True,
                           workers: int = 1,
                           transfer_handler: bool = True,
                           optimizer_scratch: int = 2) -> Dict[str, int]:
    """Closed-form host-resident bytes of a warmed-up engine, by owner.

    The model-sized buffers that may exist, and nothing else: the flat
    working copy, the flat gradient buffer, and — SmartComp with error
    feedback — one residual per shard.  Everything else is bounded by a
    subgroup, a block constant or the kept count:

    ``flat_params`` / ``flat_grads``
        4 B per parameter each (:class:`~repro.runtime.partition.
        FlatParameterSpace`).
    ``grad_accumulator``
        0: ``train_step`` needs none (``train_step_accumulated`` over
        more than one micro-batch adds one more 4 B per parameter).
    ``ef_residual``
        per shard, the residual (4 B per element) and its kept-value
        staging (4 B per kept element).
    ``compressed_stream``
        per shard, the step's (index, value) pairs, held for a demoted
        shard's host-side update: 8 B per kept element.
    ``handler_dram``
        per shard, the transfer handler's pre-allocated device buffers:
        gradients, masters and every moment, one subgroup each (the
        naive SU loop allocates and frees per subgroup: 0).
    ``arenas``
        what the scratch arenas of the main thread and of the
        ``workers - 1`` pool threads pool, each block at its size class
        (:func:`repro.memory.size_class`).  Main thread: the
        ``round_fp16`` pair of each install (initial, then per shard)
        and the norm's float64 block.  Per shard chain, on every thread
        (the main one runs a shard too): the Top-K block; then, with
        the three compressed-stream stages held, per subgroup
        ``optimizer_scratch`` temporaries (2 for Adam and AdaGrad, 1
        for SGD-momentum, 3 for AdamW).  The baseline's block loop
        holds two block sets of ``1 + states_per_param`` blocks (the
        block being updated and the one its I/O thread loads) around
        the temporaries, then the block's ``round_fp16`` pair.  Exact
        once every thread has run a largest shard.

    ``mode`` is ``baseline`` or ``smart`` (thread backend; dense
    SmartUpdate when ``compression_ratio`` is None); ``shard_sizes``
    defaults to one shard of everything.
    """
    from ..compression.topk import TOPK_BLOCK, keep_count
    from ..nn.precision import _ROUND_CHUNK, NORM_BLOCK

    def round_pair(count: int) -> List[_Checkout]:
        """The two ``round_fp16`` staging blocks of a ``count`` install."""
        return [(2, "f4", min(count, _ROUND_CHUNK))]

    def block_sizes(total: int, size: int) -> List[int]:
        size = min(size, total)
        return sorted({size, total % size or size})

    main: List[List[_Checkout]] = [
        round_pair(num_params),                       # initial install
        [(1, "f8", NORM_BLOCK)]]                      # global_grad_norm
    resident = dict(flat_params=4 * num_params, flat_grads=4 * num_params,
                    grad_accumulator=0, ef_residual=0, compressed_stream=0,
                    handler_dram=0)
    if mode == "baseline":
        blocks = [(2 * (1 + states_per_param), "f4",
                   min(subgroup_elements, num_params))]
        for count in block_sizes(num_params, subgroup_elements):
            main += [blocks + [(optimizer_scratch, "f4", count)],
                     blocks + round_pair(count)]
        resident["arenas"] = _pooled_bytes(main)
        return resident
    if mode != "smart":
        raise TrainingError(f"unknown mode {mode!r}")

    worker: List[List[_Checkout]] = []
    for shard in shard_sizes or [num_params]:
        stages: List[_Checkout] = []
        if compression_ratio is not None:
            kept = keep_count(shard, compression_ratio)
            resident["compressed_stream"] += 8 * kept
            if error_feedback:
                resident["ef_residual"] += 4 * (shard + kept)
            worker.append([(1, "f4", min(shard, TOPK_BLOCK))])
            stages = [(2, "i4", kept), (1, "f4", kept)]
        if transfer_handler:
            resident["handler_dram"] += 4 * (1 + states_per_param) * min(
                subgroup_elements, shard)
        for count in block_sizes(shard, subgroup_elements):
            worker.append(stages + [(optimizer_scratch, "f4", count)])
        main.append(round_pair(shard))
    resident["arenas"] = (_pooled_bytes(main + worker)
                          + (workers - 1) * _pooled_bytes(worker))
    return resident
