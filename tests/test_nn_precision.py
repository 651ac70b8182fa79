"""Tests for mixed-precision utilities: scaler, overflow scan, clipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.nn import precision
from repro.nn.precision import (LossScaler, clip_gradients, from_fp16,
                                global_grad_norm, round_fp16, to_fp16)


def test_fp16_roundtrip_quantizes():
    values = np.array([1.0, 1e-8, 3.14159265], dtype=np.float32)
    roundtrip = from_fp16(to_fp16(values))
    assert roundtrip.dtype == np.float32
    assert roundtrip[0] == 1.0
    assert roundtrip[1] == 0.0  # below fp16 subnormal resolution
    assert roundtrip[2] != values[2]  # precision was lost
    assert roundtrip[2] == pytest.approx(values[2], rel=1e-3)


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
    overflow = any(not np.all(np.isfinite(array)) for array in arrays)
    return overflow, float(np.sqrt(total))


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


# ----------------------------------------------------------------------
# the norm stages its squares one block at a time
# ----------------------------------------------------------------------
_BLOCK = precision.NORM_BLOCK

#: Sizes around every place the blocked sum can go wrong: one element,
#: the block boundary, the first split (``half -= half % 8`` moves with
#: ``n % 16``) and the second.
_norm_sizes = st.one_of(
    st.integers(1, 3 * _BLOCK + 7),
    st.builds(lambda blocks, delta: max(1, blocks * _BLOCK + delta),
              st.integers(0, 3), st.integers(-17, 17)))


def _norm_values(rng, size, kind):
    if kind == "huge":       # squares fit float64 only
        values = rng.choice(np.float32([3.4e38, -3.4e38, 1e30]), size)
    elif kind == "subnormal":
        values = (rng.standard_normal(size) * 1e-41).astype(np.float32)
    elif kind == "signed zeros":
        values = rng.choice(np.float32([-0.0, 0.0, 1.0]), size)
    else:
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9)
    return values.astype(np.float32)


def _assert_norm_matches_whole_array_staging(arrays):
    overflow, norm = _two_pass_reference(arrays)
    got = global_grad_norm(arrays)
    if overflow:             # the verdict; a NaN's payload is not pinned
        assert not np.isfinite(got) and np.isnan(got) == np.isnan(norm)
    else:
        assert _same_bits(got, norm)


@settings(max_examples=120, deadline=None)
@given(sizes=st.lists(_norm_sizes, min_size=1, max_size=3),
       kind=st.sampled_from(["normal", "huge", "subnormal",
                             "signed zeros"]),
       poison=st.sampled_from([None, None, np.nan, np.inf, -np.inf]),
       seed=st.integers(0, 10_000))
def test_blocked_norm_is_bit_equal_to_whole_array_staging(sizes, kind,
                                                          poison, seed):
    rng = np.random.default_rng(seed)
    arrays = [_norm_values(rng, size, kind) for size in sizes]
    if poison is not None:
        victim = arrays[rng.integers(len(arrays))]
        victim[rng.integers(victim.size)] = poison
    _assert_norm_matches_whole_array_staging(arrays)


def test_blocked_norm_stages_one_block_whatever_the_size():
    from repro.memory import thread_arena
    arena = thread_arena()
    big = np.ones(5 * _BLOCK + 3, dtype=np.float32)
    global_grad_norm([big])                     # warm: the block exists
    before = arena.stats()
    assert global_grad_norm([big, big[:7]]) == np.sqrt(big.size + 7.0)
    after = arena.stats()
    assert after.allocations == before.allocations
    assert after.checkouts == before.checkouts + 1
    assert after.high_water_bytes == before.high_water_bytes


@pytest.mark.exhaustive
def test_blocked_norm_is_bit_equal_on_every_size():
    """Every size up to two blocks and a bit, then every size within 17
    of each block multiple up to 4 M elements (about a minute)."""
    rng = np.random.default_rng(5)
    longest = 64 * _BLOCK + 17 + 4
    values = (rng.standard_normal(longest)
              * 10.0 ** rng.integers(-6, 7, size=longest)
              ).astype(np.float32)
    sizes = list(range(1, 2 * _BLOCK + 65))
    for blocks in range(3, 65):
        sizes.extend(range(blocks * _BLOCK - 17, blocks * _BLOCK + 18))
    for size in sizes:
        offset = size % 5                       # any alignment
        chunk = values[offset:offset + size]
        assert chunk.size == size
        _assert_norm_matches_whole_array_staging([chunk])


def test_clip_with_norm_exactly_at_max_norm_leaves_gradients():
    grads = [np.array([3.0, 4.0], dtype=np.float32)]
    assert clip_gradients(grads, max_norm=5.0) == 5.0
    np.testing.assert_array_equal(grads[0], [3.0, 4.0])
    # Just under the norm, the clip engages.
    clip_gradients(grads, max_norm=4.99)
    assert global_grad_norm(grads) == pytest.approx(4.99, rel=1e-6)


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_clip_leaves_gradients_untouched_on_non_finite_norm(poison):
    """The phased engines still offload the gradient buffer on a skipped
    step; a norm of +inf used to give factor 0 and zero that very
    buffer."""
    original = [np.array([1.0, poison, -2.0], dtype=np.float32),
                np.array([7.0], dtype=np.float32)]
    grads = [a.copy() for a in original]
    norm = clip_gradients(grads, max_norm=1.0)
    assert not np.isfinite(norm)
    for got, want in zip(grads, original):
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# round_fp16: the FP16 round trip without the half
# ----------------------------------------------------------------------
#: First float32 bit pattern (sign cleared) the identity does not cover.
_OVERFLOW_BITS = int(np.float32(65520.0).view(np.uint32))


def _two_cast_reference(values: np.ndarray) -> np.ndarray:
    """What the installs did before: a software cast each way."""
    with np.errstate(over="ignore", invalid="ignore"):
        return values.astype(np.float16).astype(np.float32)


def _assert_rounds_like_two_casts(bits: np.ndarray, fast_only=None):
    """``round_fp16`` == the two casts, bit for bit, on the float32
    values with these uint32 patterns.  With ``fast_only`` (a
    monkeypatch) the cast fallback is disabled for the call."""
    values = np.ascontiguousarray(bits, dtype=np.uint32).view(np.float32)
    out = np.empty_like(values)
    with np.errstate(over="ignore", invalid="ignore"):
        if fast_only is None:
            round_fp16(values, out)
        else:
            with fast_only.context() as patch:
                patch.setattr(precision, "to_fp16", None)
                round_fp16(values, out)
    want = _two_cast_reference(values)
    mismatch = np.flatnonzero(out.view(np.uint32) != want.view(np.uint32))
    assert mismatch.size == 0, (
        f"{mismatch.size} patterns differ, first {bits[mismatch[0]]:#010x}")


def _boundary_mantissas() -> np.ndarray:
    """The 4096 lowest mantissas and every 2**12-th one +- 1: every
    FP16 rounding boundary (a multiple of 2**12) and its neighbours."""
    ties = np.arange(0, 1 << 23, 1 << 12, dtype=np.int64)
    near = np.concatenate([np.arange(1 << 12), ties - 1, ties, ties + 1])
    return np.unique(near[(near >= 0) & (near < 1 << 23)]).astype(np.uint32)


@pytest.mark.parametrize("sign", [0, 1])
def test_round_fp16_matches_two_casts_on_every_exponent(sign, monkeypatch):
    mantissas = _boundary_mantissas()
    for exponent in range(256):
        bits = (np.uint32(sign << 31) | np.uint32(exponent << 23)
                | mantissas)
        _assert_rounds_like_two_casts(bits)
        covered = bits[(bits & 0x7FFFFFFF) < _OVERFLOW_BITS]
        if covered.size:
            _assert_rounds_like_two_casts(covered, fast_only=monkeypatch)


@settings(max_examples=200, deadline=None)
@given(patterns=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                         max_size=64))
def test_round_fp16_matches_two_casts_on_drawn_patterns(patterns):
    _assert_rounds_like_two_casts(np.array(patterns, dtype=np.uint32))


def test_round_fp16_special_values(monkeypatch):
    below = np.nextafter(np.float32(65520.0), np.float32(0.0))
    tiny = np.float32(2.0 ** -25)       # the tie between 0 and 2**-24
    covered = np.array(
        [0.0, -0.0, 1e-45, -1e-45, 2.0 ** -24, tiny, -tiny,
         np.nextafter(tiny, np.float32(1.0)), 6.0e-8, -6.1e-5, 6.1035e-5,
         1.0, -1.0009766, 65504.0, below, -below], dtype=np.float32)
    _assert_rounds_like_two_casts(covered.view(np.uint32),
                                  fast_only=monkeypatch)
    out = np.empty_like(covered)
    round_fp16(covered, out)
    assert np.signbit(out[[1, 3, 6]]).all() and not out[[1, 3, 6]].any()
    assert out[-2] == 65504.0 and out[-1] == -65504.0
    fallback = np.array([65520.0, -65520.0, 1e38, np.inf, -np.inf, np.nan,
                         1.0], dtype=np.float32)
    _assert_rounds_like_two_casts(fallback.view(np.uint32))
    with pytest.raises(TypeError):      # ... and it did take the casts
        _assert_rounds_like_two_casts(fallback.view(np.uint32),
                                      fast_only=monkeypatch)


def test_round_fp16_in_place_and_across_chunks():
    rng = np.random.default_rng(0)
    values = (rng.standard_normal(3 * precision._ROUND_CHUNK + 17)
              * 10.0 ** rng.integers(-9, 4, size=3 * precision._ROUND_CHUNK
                                     + 17)).astype(np.float32)
    values[precision._ROUND_CHUNK + 5] = np.inf  # one chunk falls back
    want = _two_cast_reference(values)
    live = values.copy()
    view = live[1:-1]                   # the live buffer outlives the call
    with np.errstate(over="ignore"):
        assert round_fp16(view, view).base is live
    np.testing.assert_array_equal(live[1:-1].view(np.uint32),
                                  want[1:-1].view(np.uint32))
    assert live[0] == values[0] and live[-1] == values[-1]
    round_fp16(values[:0], live[:0])    # empty is a no-op


def test_round_fp16_rejects_what_it_cannot_view():
    ok = np.zeros(8, dtype=np.float32)
    for bad in (np.zeros(8, dtype=np.float64), np.zeros(16, np.float32)[::2],
                np.zeros(9, dtype=np.float32)):
        with pytest.raises(TrainingError):
            round_fp16(bad, ok)
        with pytest.raises(TrainingError):
            round_fp16(ok, bad)


@pytest.mark.exhaustive
def test_round_fp16_matches_two_casts_on_all_patterns(monkeypatch):
    """All 2**32 float32 patterns: the covered range with the cast
    fallback disabled, the rest through it (about three minutes)."""
    step = 1 << 22
    for sign in (0, 1 << 31):
        for start in range(0, 1 << 31, step):
            stop = start + step
            bits = np.arange(start, stop, dtype=np.uint32) | np.uint32(sign)
            if stop <= _OVERFLOW_BITS:
                _assert_rounds_like_two_casts(bits, fast_only=monkeypatch)
            elif start >= _OVERFLOW_BITS:
                _assert_rounds_like_two_casts(bits)
            else:
                split = _OVERFLOW_BITS - start
                _assert_rounds_like_two_casts(bits[:split],
                                              fast_only=monkeypatch)
                _assert_rounds_like_two_casts(bits[split:])
