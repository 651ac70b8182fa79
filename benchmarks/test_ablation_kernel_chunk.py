"""Ablation bench: elements per updater-kernel call (the update unit).

``UpdaterKernel.run`` applies the optimizer's fused sequence once over
whatever it is handed — in the engines, one resident subgroup of ``D``
elements; it does not dispatch per BRAM chunk ``S``.  So the size that
matters for emulator throughput is the unit the caller slices the shard
into: small units pay the fixed per-call cost (validation, arena
checkout, a dozen ufunc dispatches) once per few microseconds of
arithmetic, very large ones fall out of cache between the sequence's
passes.  This ablation sweeps the unit and reports throughput, asserting
results stay bit-identical across unit sizes — the element-wise
invariant that makes the size a pure performance knob.
"""

import time

import numpy as np

from repro.csd import UpdaterKernel
from repro.optim import Adam

ELEMENTS = 1 << 20
UNITS = (1 << 12, 1 << 14, 1 << 16, 1 << 18)


def _throughput(unit_elements, repeats=3):
    rng = np.random.default_rng(0)
    optimizer = Adam(lr=1e-3)
    kernel = UpdaterKernel(optimizer)
    params = rng.standard_normal(ELEMENTS).astype(np.float32)
    grads = rng.standard_normal(ELEMENTS).astype(np.float32)
    state = optimizer.init_state(ELEMENTS)

    def update(step):
        for start in range(0, ELEMENTS, unit_elements):
            unit = slice(start, start + unit_elements)
            kernel.run(params[unit], grads[unit],
                       {name: buf[unit] for name, buf in state.items()},
                       step)

    update(1)
    start = time.perf_counter()
    for step in range(2, repeats + 2):
        update(step)
    elapsed = time.perf_counter() - start
    streamed = 4 * 4 * ELEMENTS * repeats  # grads + 3 state words
    return streamed / elapsed, params


def test_kernel_chunk_size_ablation(benchmark, save_result):
    def run():
        results = {}
        reference = None
        for unit in UNITS:
            throughput, params = _throughput(unit)
            results[unit] = throughput
            if reference is None:
                reference = params
            else:
                np.testing.assert_array_equal(params, reference)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    # Tiny units pay per-call overhead; big units must not be
    # dramatically slower than the sweet spot.
    assert results[UNITS[-1]] > 0.5 * max(results.values())
    lines = ["updater emulator throughput vs elements per kernel call:"]
    for unit, throughput in results.items():
        lines.append(f"  unit={unit:>7,} elements: "
                     f"{throughput / 1e9:6.2f} GB/s")
    lines.append("results bit-identical across all unit sizes: yes")
    save_result("ablation_kernel_chunk", "\n".join(lines))
