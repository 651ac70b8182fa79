"""Tests for the functional FPGA kernels (updater + decompressor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import compress_topk
from repro.compression.topk import CompressedGradient
from repro.csd import DecompressorKernel, UpdaterKernel
from repro.errors import KernelError
from repro.optim import AdaGrad, Adam, SGDMomentum, make_optimizer


def random_problem(size, seed=0):
    rng = np.random.default_rng(seed)
    params = rng.standard_normal(size).astype(np.float32)
    grads = rng.standard_normal(size).astype(np.float32)
    return params, grads


# ----------------------------------------------------------------------
# updater kernel: the paper's "algorithmically identical" claim
# ----------------------------------------------------------------------
def _run_in_units(kernel, unit, params, grads, state, step):
    """Hand the kernel the vector ``unit`` elements at a time, the way
    the handler hands it subgroups."""
    for start in range(0, params.size, unit):
        piece = slice(start, start + unit)
        kernel.run(params[piece], grads[piece],
                   {name: buf[piece] for name, buf in state.items()}, step)


@pytest.mark.parametrize("name", ["adam", "adamw", "sgd", "adagrad"])
def test_subgroup_wise_updater_bitwise_matches_host(name):
    optimizer = make_optimizer(name)
    params, grads = random_problem(1000, seed=3)
    host_params = params.copy()
    host_state = optimizer.init_state(1000)
    kernel_params = params.copy()
    kernel_state = optimizer.init_state(1000)
    kernel = UpdaterKernel(optimizer)

    for step in range(1, 5):
        optimizer.step(host_params, grads.copy(), host_state, step)
        _run_in_units(kernel, 97, kernel_params, grads.copy(),  # awkward
                      kernel_state, step)
        np.testing.assert_array_equal(host_params, kernel_params)
        for key in host_state:
            np.testing.assert_array_equal(host_state[key],
                                          kernel_state[key])


def test_updater_runs_the_fused_sequence_once_per_call():
    """One validation + one optimizer dispatch per resident subgroup,
    whatever the design's BRAM chunk size S."""
    calls = []

    class Counting(Adam):
        def step(self, params, grads, state, step_num):
            calls.append(params.size)
            super().step(params, grads, state, step_num)

    optimizer = Counting()
    kernel = UpdaterKernel(optimizer, chunk_elements=64)
    params, grads = random_problem(1000)
    kernel.run(params, grads, optimizer.init_state(1000), 1)
    assert calls == [1000]


def test_updater_counters():
    kernel = UpdaterKernel(Adam(), chunk_elements=64)
    params, grads = random_problem(256)
    state = kernel.optimizer.init_state(256)
    kernel.run(params, grads, state, 1)
    assert kernel.counters.invocations == 1
    assert kernel.counters.elements_processed == 256
    # Adam streams grads + 3 state words: 4 words x 4 bytes x 256.
    assert kernel.counters.bytes_streamed == 4 * 4 * 256


def test_updater_rejects_bad_chunk():
    with pytest.raises(KernelError):
        UpdaterKernel(Adam(), chunk_elements=0)


@settings(max_examples=20, deadline=None)
@given(size=st.integers(1, 500), unit=st.integers(1, 64),
       seed=st.integers(0, 1000))
def test_unit_size_invariance_property(size, unit, seed):
    """Any split of the vector into kernel calls gives the identical
    result (element-wise update)."""
    optimizer = Adam(lr=1e-2)
    params, grads = random_problem(size, seed=seed)
    ref_params = params.copy()
    ref_state = optimizer.init_state(size)
    optimizer.step(ref_params, grads.copy(), ref_state, 1)

    kernel_params = params.copy()
    kernel_state = optimizer.init_state(size)
    _run_in_units(UpdaterKernel(optimizer), unit, kernel_params,
                  grads.copy(), kernel_state, 1)
    np.testing.assert_array_equal(ref_params, kernel_params)
    for key in ref_state:
        np.testing.assert_array_equal(ref_state[key], kernel_state[key])


# ----------------------------------------------------------------------
# decompressor kernel
# ----------------------------------------------------------------------
def test_decompressor_matches_reference_scatter():
    rng = np.random.default_rng(0)
    gradient = rng.standard_normal(500).astype(np.float32)
    compressed = compress_topk(gradient, volume_ratio=0.1)
    output = np.zeros(500, dtype=np.float32)
    DecompressorKernel(chunk_elements=7).run(compressed, output)
    from repro.compression import decompress_topk
    np.testing.assert_array_equal(output, decompress_topk(compressed))


def test_decompressor_zeroes_stale_buffer():
    compressed = compress_topk(np.ones(10, dtype=np.float32), 2.0)
    output = np.full(10, 99.0, dtype=np.float32)
    DecompressorKernel().run(compressed, output)
    np.testing.assert_array_equal(output, np.ones(10, dtype=np.float32))


def test_decompressor_rejects_small_buffer():
    compressed = compress_topk(np.ones(10, dtype=np.float32), 2.0)
    with pytest.raises(KernelError):
        DecompressorKernel().run(compressed,
                                 np.zeros(5, dtype=np.float32))


def test_decompressor_rejects_bad_index():
    compressed = CompressedGradient(
        indices=np.array([12], dtype=np.int32),
        values=np.array([1.0], dtype=np.float32), original_size=20)
    bad = CompressedGradient(
        indices=np.array([25], dtype=np.int32),
        values=np.array([1.0], dtype=np.float32), original_size=20)
    buffer = np.zeros(20, dtype=np.float32)
    DecompressorKernel().run(compressed, buffer)  # fine
    with pytest.raises(KernelError):
        DecompressorKernel().run(bad, buffer)


def test_decompressor_rejects_bad_buffer_dtype():
    compressed = compress_topk(np.ones(4, dtype=np.float32), 2.0)
    with pytest.raises(KernelError):
        DecompressorKernel().run(compressed,
                                 np.zeros(4, dtype=np.float64))


def test_decompressor_counters():
    kernel = DecompressorKernel()
    compressed = compress_topk(np.arange(100, dtype=np.float32), 0.2)
    kernel.run(compressed, np.zeros(100, dtype=np.float32))
    assert kernel.counters.invocations == 1
    assert kernel.counters.elements_processed == 100


@settings(max_examples=25, deadline=None)
@given(size=st.integers(2, 300), chunk=st.integers(1, 50),
       ratio=st.floats(0.05, 2.0), seed=st.integers(0, 1000))
def test_decompressor_chunking_invariance(size, chunk, ratio, seed):
    rng = np.random.default_rng(seed)
    gradient = rng.standard_normal(size).astype(np.float32)
    compressed = compress_topk(gradient, volume_ratio=ratio)
    a = np.zeros(size, dtype=np.float32)
    b = np.zeros(size, dtype=np.float32)
    DecompressorKernel(chunk_elements=chunk).run(compressed, a)
    DecompressorKernel(chunk_elements=size).run(compressed, b)
    np.testing.assert_array_equal(a, b)
