"""Tests for mixed-precision utilities: scaler, overflow scan, clipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.nn.precision import (LossScaler, clip_gradients, from_fp16,
                                global_grad_norm, has_overflow, to_fp16)


def test_fp16_roundtrip_quantizes():
    values = np.array([1.0, 1e-8, 3.14159265], dtype=np.float32)
    roundtrip = from_fp16(to_fp16(values))
    assert roundtrip.dtype == np.float32
    assert roundtrip[0] == 1.0
    assert roundtrip[1] == 0.0  # below fp16 subnormal resolution
    assert roundtrip[2] != values[2]  # precision was lost
    assert roundtrip[2] == pytest.approx(values[2], rel=1e-3)


def test_has_overflow_detects_nan_and_inf():
    clean = [np.ones(4, dtype=np.float32)]
    assert not has_overflow(clean)
    assert has_overflow([np.array([1.0, np.nan], dtype=np.float32)])
    assert has_overflow([np.ones(2), np.array([np.inf])])
    assert has_overflow([np.array([-np.inf])])


def test_global_grad_norm_matches_concatenation():
    a = np.array([3.0], dtype=np.float32)
    b = np.array([4.0], dtype=np.float32)
    assert global_grad_norm([a, b]) == pytest.approx(5.0)


def test_scaler_halves_on_overflow_and_skips():
    scaler = LossScaler(scale=1024.0)
    assert not scaler.update(overflow=True)
    assert scaler.scale == 512.0
    assert scaler.skipped_steps == 1


def test_scaler_grows_after_interval():
    scaler = LossScaler(scale=4.0, growth_interval=3)
    for _ in range(3):
        assert scaler.update(overflow=False)
    assert scaler.scale == 8.0


def test_scaler_growth_counter_resets_on_overflow():
    scaler = LossScaler(scale=4.0, growth_interval=2)
    scaler.update(False)
    scaler.update(True)
    scaler.update(False)
    assert scaler.scale == 2.0  # halved once, not yet regrown


def test_scaler_respects_bounds():
    scaler = LossScaler(scale=1.0, min_scale=1.0)
    scaler.update(True)
    assert scaler.scale == 1.0
    top = LossScaler(scale=2.0 ** 24, growth_interval=1,
                     max_scale=2.0 ** 24)
    top.update(False)
    assert top.scale == 2.0 ** 24


def test_scaler_unscale_divides_in_place():
    scaler = LossScaler(scale=8.0)
    grads = [np.full(3, 16.0, dtype=np.float32)]
    scaler.unscale(grads)
    np.testing.assert_allclose(grads[0], 2.0)


def test_scaler_rejects_nonpositive_scale():
    with pytest.raises(TrainingError):
        LossScaler(scale=0.0)


def test_clip_reduces_large_norm_exactly():
    grads = [np.full(4, 10.0, dtype=np.float32)]
    before = clip_gradients(grads, max_norm=1.0)
    assert before == pytest.approx(20.0)
    assert global_grad_norm(grads) == pytest.approx(1.0, rel=1e-4)


def test_clip_leaves_small_gradients_untouched():
    grads = [np.array([0.1, 0.1], dtype=np.float32)]
    original = grads[0].copy()
    clip_gradients(grads, max_norm=5.0)
    np.testing.assert_array_equal(grads[0], original)


def test_clip_rejects_nonpositive_max_norm():
    with pytest.raises(TrainingError):
        clip_gradients([np.ones(2, dtype=np.float32)], max_norm=0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), max_norm=st.floats(0.1, 10.0))
def test_clip_property_norm_never_exceeds_bound(seed, max_norm):
    rng = np.random.default_rng(seed)
    grads = [rng.standard_normal(16).astype(np.float32) * 100]
    clip_gradients(grads, max_norm=max_norm)
    assert global_grad_norm(grads) <= max_norm * (1 + 1e-4)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_clip_preserves_direction(seed):
    rng = np.random.default_rng(seed)
    original = rng.standard_normal(8).astype(np.float32) * 50
    grads = [original.copy()]
    clip_gradients(grads, max_norm=1.0)
    cosine = float(np.dot(grads[0], original)
                   / (np.linalg.norm(grads[0])
                      * np.linalg.norm(original) + 1e-12))
    assert cosine == pytest.approx(1.0, abs=1e-5)


# ----------------------------------------------------------------------
# one pass: the norm is the overflow scan
# ----------------------------------------------------------------------
def _two_pass_reference(arrays):
    """The parent commit's scan + norm, kept here as the reference:
    a separate isfinite pass and a fresh float64 temporary per array."""
    total = 0.0
    for array in arrays:
        total += float(np.square(array, dtype=np.float64).sum())
    return has_overflow(arrays), float(np.sqrt(total))


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


_SPECIALS = {
    "nan": [np.array([1.0, np.nan, 2.0], dtype=np.float32)],
    "+inf": [np.array([np.inf, 1.0], dtype=np.float32)],
    "-inf": [np.array([1.0, -np.inf], dtype=np.float32)],
    "inf and -inf": [np.array([np.inf], dtype=np.float32),
                     np.array([-np.inf, 3.0], dtype=np.float32)],
    "float32 max": [np.full(1000, np.finfo(np.float32).max,
                            dtype=np.float32)],
    "all zero": [np.zeros(17, dtype=np.float32)],
    "multi-array, multi-dim": [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.full(5, -2.5, dtype=np.float32),
        np.zeros((2, 2), dtype=np.float32)],
    "nan in a later array": [np.ones(4, dtype=np.float32),
                             np.array([np.nan], dtype=np.float32)],
}


@pytest.mark.parametrize("case", sorted(_SPECIALS))
def test_one_pass_verdict_and_norm_match_two_pass_on_specials(case):
    arrays = [a.copy() for a in _SPECIALS[case]]
    overflow, norm = _two_pass_reference(arrays)
    assert _same_bits(global_grad_norm(arrays), norm)
    # max_norm above every finite norm here, so nothing is rescaled.
    returned = clip_gradients(arrays, max_norm=1e300)
    assert _same_bits(returned, norm)
    assert (not np.isfinite(returned)) == overflow
    for got, want in zip(arrays, _SPECIALS[case]):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=4),
       poison=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       scale=st.sampled_from([1e-20, 1.0, 1e4, 1e30]))
def test_one_pass_verdict_and_norm_match_two_pass(seed, sizes, poison,
                                                  scale):
    rng = np.random.default_rng(seed)
    arrays = [(rng.standard_normal(n) * scale).astype(np.float32)
              for n in sizes]
    if poison is not None:
        victim = arrays[rng.integers(len(arrays))]
        victim[rng.integers(victim.size)] = poison
    overflow, norm = _two_pass_reference(arrays)
    assert _same_bits(global_grad_norm(arrays), norm)
    assert (not np.isfinite(norm)) == overflow
    assert overflow == (poison is not None)


def test_clip_with_norm_exactly_at_max_norm_leaves_gradients():
    grads = [np.array([3.0, 4.0], dtype=np.float32)]
    assert clip_gradients(grads, max_norm=5.0) == 5.0
    np.testing.assert_array_equal(grads[0], [3.0, 4.0])
    # Just under the norm, the clip engages.
    clip_gradients(grads, max_norm=4.99)
    assert global_grad_norm(grads) == pytest.approx(4.99, rel=1e-6)


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_clip_leaves_gradients_untouched_on_non_finite_norm(poison):
    """The phased engines still offload the gradient buffer (and fold it
    into the error-feedback residual) on a skipped step; a norm of +inf
    used to give factor 0 and zero that very buffer."""
    original = [np.array([1.0, poison, -2.0], dtype=np.float32),
                np.array([7.0], dtype=np.float32)]
    grads = [a.copy() for a in original]
    norm = clip_gradients(grads, max_norm=1.0)
    assert not np.isfinite(norm)
    for got, want in zip(grads, original):
        np.testing.assert_array_equal(got, want)
