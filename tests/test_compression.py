"""Tests for gradient compression: Top-K and error feedback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import topk
from repro.compression import (CompressedGradient, ErrorFeedback,
                               compress_topk, compress_with_feedback,
                               compression_error, decompress_topk,
                               keep_count)
from repro.errors import TrainingError


# ----------------------------------------------------------------------
# keep_count semantics (the paper's "2% volume = top 1% elements")
# ----------------------------------------------------------------------
def test_keep_count_volume_semantics():
    assert keep_count(1000, 0.02) == 10   # 1% of elements
    assert keep_count(1000, 0.10) == 50
    assert keep_count(1000, 2.0) == 1000


def test_keep_count_at_least_one():
    assert keep_count(10, 0.001) == 1


def test_keep_count_rejects_bad_ratio():
    with pytest.raises(TrainingError):
        keep_count(100, 0.0)
    with pytest.raises(TrainingError):
        keep_count(100, 2.5)


# ----------------------------------------------------------------------
# Top-K
# ----------------------------------------------------------------------
def test_topk_selects_largest_magnitudes():
    gradient = np.array([0.1, -5.0, 0.2, 4.0, -0.05, 3.0],
                        dtype=np.float32)
    compressed = compress_topk(gradient, volume_ratio=1.0)  # keep 3
    assert compressed.num_kept == 3
    assert set(compressed.indices.tolist()) == {1, 3, 5}


def test_topk_roundtrip_preserves_kept_and_zeroes_rest():
    rng = np.random.default_rng(0)
    gradient = rng.standard_normal(100).astype(np.float32)
    compressed = compress_topk(gradient, volume_ratio=0.2)  # keep 10
    dense = decompress_topk(compressed)
    np.testing.assert_array_equal(dense[compressed.indices],
                                  gradient[compressed.indices])
    mask = np.ones(100, dtype=bool)
    mask[compressed.indices] = False
    assert (dense[mask] == 0).all()


def test_topk_indices_sorted_for_sequential_scatter():
    rng = np.random.default_rng(1)
    compressed = compress_topk(rng.standard_normal(64).astype(np.float32),
                               volume_ratio=0.25)
    assert (np.diff(compressed.indices) > 0).all()


def test_topk_wire_size_and_ratio():
    gradient = np.zeros(1000, dtype=np.float32)
    compressed = compress_topk(gradient, volume_ratio=0.02)
    assert compressed.nbytes == 8 * 10
    assert compressed.volume_ratio == pytest.approx(0.02)
    assert compressed.original_nbytes == 4000


def test_topk_full_ratio_is_lossless():
    rng = np.random.default_rng(2)
    gradient = rng.standard_normal(50).astype(np.float32)
    compressed = compress_topk(gradient, volume_ratio=2.0)
    np.testing.assert_array_equal(decompress_topk(compressed), gradient)


def test_topk_on_multidimensional_input_flattens():
    gradient = np.ones((4, 5), dtype=np.float32)
    compressed = compress_topk(gradient, volume_ratio=0.5)
    assert compressed.original_size == 20


def test_compression_error_is_residual():
    rng = np.random.default_rng(3)
    gradient = rng.standard_normal(40).astype(np.float32)
    compressed = compress_topk(gradient, volume_ratio=0.2)
    residual = compression_error(gradient, compressed)
    np.testing.assert_allclose(residual + decompress_topk(compressed),
                               gradient, rtol=1e-6)
    assert (residual[compressed.indices] == 0).all()


def test_compressed_gradient_validation():
    with pytest.raises(TrainingError):
        CompressedGradient(indices=np.array([0, 1]),
                           values=np.array([1.0]), original_size=10)
    with pytest.raises(TrainingError):
        CompressedGradient(indices=np.arange(5),
                           values=np.ones(5, dtype=np.float32),
                           original_size=3)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(4, 300), ratio=st.floats(0.02, 1.0),
       seed=st.integers(0, 10_000))
def test_topk_beats_any_other_selection_property(size, ratio, seed):
    """Top-K minimizes the L2 error over all same-size sparse supports."""
    rng = np.random.default_rng(seed)
    gradient = rng.standard_normal(size).astype(np.float32)
    compressed = compress_topk(gradient, volume_ratio=ratio)
    topk_error = np.linalg.norm(
        compression_error(gradient, compressed))
    chosen = np.sort(np.random.default_rng(seed + 1).choice(
        size, size=keep_count(size, ratio), replace=False)).astype(np.int32)
    random = CompressedGradient(indices=chosen, values=gradient[chosen],
                                original_size=size)
    random_error = np.linalg.norm(compression_error(gradient, random))
    assert topk_error <= random_error + 1e-5


@settings(max_examples=30, deadline=None)
@given(size=st.integers(2, 200), seed=st.integers(0, 10_000))
def test_topk_roundtrip_norm_never_increases(size, seed):
    rng = np.random.default_rng(seed)
    gradient = rng.standard_normal(size).astype(np.float32)
    dense = decompress_topk(compress_topk(gradient, 0.5))
    assert np.linalg.norm(dense) <= np.linalg.norm(gradient) + 1e-6


# ----------------------------------------------------------------------
# Top-K selection: exact, with the tie rule pinned
# ----------------------------------------------------------------------
def _reference_topk(gradient, ratio):
    """Rank by (magnitude descending, index ascending), keep the first
    k: a stable argsort of the negated magnitudes."""
    flat = np.asarray(gradient, dtype=np.float32).reshape(-1)
    kept = keep_count(flat.size, ratio)
    return np.sort(np.argsort(-np.abs(flat), kind="stable")[:kept])


def _assert_matches_reference(gradient, ratio):
    compressed = compress_topk(gradient, ratio)
    want = _reference_topk(gradient, ratio)
    assert compressed.indices.dtype == np.int32
    np.testing.assert_array_equal(compressed.indices, want)
    np.testing.assert_array_equal(compressed.values,
                                  gradient.reshape(-1)[want])


def _topk_cases():
    rng = np.random.default_rng(0)
    size = 5 * topk._SAMPLE_ELEMENTS + 123     # sampled with stride 5
    dense = rng.standard_normal(size).astype(np.float32)
    tied = rng.integers(-3, 4, size=size).astype(np.float32)
    mostly_zero = dense * (rng.random(size) < 0.1)
    few_nonzero = np.zeros(size, dtype=np.float32)
    few_nonzero[rng.choice(size, 40, replace=False)] = \
        rng.standard_normal(40).astype(np.float32)
    # Every sampled position is large, nothing else is: the threshold
    # lands among the large values and too few elements pass it.
    sample_sees_large = dense * np.float32(1e-3)
    sample_sees_large[::5] = 10.0 + rng.random(sample_sees_large[::5].size)
    # Every sampled position is small: the threshold passes nearly all.
    sample_sees_small = dense.copy()
    sample_sees_small[::5] *= np.float32(1e-6)
    return {
        "dense": dense, "tied": tied,
        "all equal": np.full(size, -2.5, dtype=np.float32),
        "all zero": np.zeros(size, dtype=np.float32),
        "mostly zero": mostly_zero.astype(np.float32),
        "fewer than k non-zero": few_nonzero,
        "sample sees only large": sample_sees_large,
        "sample sees only small": sample_sees_small,
        "small": dense[:37], "two-dimensional": dense[:4096].reshape(64, 64),
    }


_TOPK_CASES = _topk_cases()


@pytest.mark.parametrize("ratio", [0.002, 0.02, 0.5, 1.9])
@pytest.mark.parametrize("case", sorted(_TOPK_CASES))
def test_topk_matches_stable_argsort_reference(case, ratio):
    _assert_matches_reference(_TOPK_CASES[case], ratio)


def test_topk_misjudged_sample_falls_back_to_every_index():
    flat = _TOPK_CASES["sample sees only large"]
    scratch = np.empty(min(flat.size, topk.TOPK_BLOCK), dtype=np.float32)
    kept = keep_count(flat.size, 0.5)
    assert topk._candidates(flat, kept, scratch).size == flat.size
    # ... while a well-placed threshold passes about 2 x kept.
    flat = _TOPK_CASES["dense"]
    kept = keep_count(flat.size, 0.02)
    assert kept <= topk._candidates(flat, kept, scratch).size < 4 * kept


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 400), ratio=st.floats(0.01, 2.0),
       levels=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_topk_matches_reference_on_tied_inputs_property(size, ratio, levels,
                                                        seed):
    rng = np.random.default_rng(seed)
    gradient = rng.integers(-levels, levels + 1, size=size).astype(np.float32)
    _assert_matches_reference(gradient, ratio)


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_topk_non_finite_input_keeps_argpartition_behaviour(poison):
    """NaN ranks above infinity above everything finite, wherever the
    sample looks (index 1 is never sampled at this size)."""
    rng = np.random.default_rng(1)
    size = 4 * topk._SAMPLE_ELEMENTS
    gradient = rng.permutation(size).astype(np.float32) + 1.0
    gradient[1], gradient[size // 2] = poison, np.inf
    for ratio in (0.001, 0.02):
        kept = keep_count(size, ratio)
        compressed = compress_topk(gradient, ratio)
        old = np.sort(np.argpartition(np.abs(gradient), size - kept)[-kept:])
        np.testing.assert_array_equal(compressed.indices, old)
        assert {1, size // 2} <= set(compressed.indices.tolist())


# ----------------------------------------------------------------------
# block-by-block candidate search == the whole-vector |g| pass it replaced
# ----------------------------------------------------------------------
def _whole_vector_candidates(bits, kept):
    """The parent commit's ``_candidates``, verbatim: one comparison
    over the bit patterns of a shard-sized ``|g|``."""
    sample = bits[::max(1, bits.size // topk._SAMPLE_ELEMENTS)]
    rank = min(sample.size, max(topk._MIN_SAMPLE_RANK,
                                -(-2 * kept * sample.size // bits.size)))
    threshold = np.partition(sample, sample.size - rank)[sample.size - rank]
    chosen = np.flatnonzero(bits >= max(threshold, 1))
    if chosen.size >= kept:
        return chosen
    if threshold > 0:
        return np.arange(bits.size)
    zeros = np.flatnonzero(bits[:kept] == 0)[:kept - chosen.size]
    return np.sort(np.concatenate((chosen, zeros)))


def _whole_vector_select_topk(magnitudes, kept):
    """The parent commit's ``_select_topk``, verbatim."""
    pool_indices = _whole_vector_candidates(magnitudes.view(np.int32), kept)
    pool = magnitudes[pool_indices]
    if not np.isfinite(pool.max()):
        top = np.argpartition(magnitudes, magnitudes.size - kept)[-kept:]
        top.sort()
        return top
    cut = np.partition(pool, pool.size - kept)[pool.size - kept]
    keep = pool > cut
    ties = np.flatnonzero(pool == cut)[:kept - np.count_nonzero(keep)]
    keep[ties] = True
    return np.compress(keep, pool_indices)


def _whole_vector_compress_topk(flat, volume_ratio):
    """The parent commit's ``compress_topk`` on a flat float32 vector."""
    kept = keep_count(flat.size, volume_ratio)
    if kept >= flat.size:
        indices = np.arange(flat.size, dtype=np.int32)
    else:
        indices = _whole_vector_select_topk(np.abs(flat),
                                            kept).astype(np.int32)
    return indices, flat[indices]


def _assert_matches_whole_vector_pass(gradient, ratio):
    """Indices and value bits, with a one-block scratch, a whole-shard
    one (what ``bench/micro.py`` passes) and none."""
    want_indices, want_values = _whole_vector_compress_topk(gradient, ratio)
    one_block = np.empty(min(gradient.size, topk.TOPK_BLOCK),
                         dtype=np.float32)
    for scratch in (one_block, np.empty(gradient.size + 5, np.float32),
                    None):
        got = compress_topk(gradient, ratio, abs_scratch=scratch)
        assert got.indices.dtype == np.int32
        np.testing.assert_array_equal(got.indices, want_indices)
        np.testing.assert_array_equal(got.values.view(np.uint32),
                                      want_values.view(np.uint32))


def _blocked_topk_case(kind, size, rng):
    dense = rng.standard_normal(size).astype(np.float32)
    if kind == "dense":
        return dense
    if kind == "90% zero":
        return dense * (rng.random(size) < 0.1).astype(np.float32)
    if kind == "all zero":
        return np.zeros(size, dtype=np.float32)
    if kind == "near empty":             # fewer non-zeros than kept
        return dense * (rng.random(size) < 1e-4).astype(np.float32)
    if kind == "tie heavy":
        return np.round(dense * 2.0) / np.float32(2.0)
    if kind == "non-finite":
        dense[rng.integers(size, size=3)] = np.inf
        dense[rng.integers(size, size=2)] = np.nan
        return dense
    assert kind == "sample misjudges"    # threshold > 0, too few pass
    dense *= np.float32(1e-3)
    stride = max(1, size // topk._SAMPLE_ELEMENTS)
    dense[::stride] = 10.0 + rng.random(dense[::stride].size)
    return dense


_BLOCKED_KINDS = ("dense", "90% zero", "all zero", "near empty",
                  "tie heavy", "non-finite", "sample misjudges")
#: Smaller than a block, a block, one element over, 2.6 and 4.5 blocks.
_BLOCKED_SIZES = (1000, topk.TOPK_BLOCK, topk.TOPK_BLOCK + 1,
                  170_001, 4 * topk.TOPK_BLOCK + topk.TOPK_BLOCK // 2)


@pytest.mark.parametrize("size", _BLOCKED_SIZES)
@pytest.mark.parametrize("kind", _BLOCKED_KINDS)
def test_blocked_topk_matches_whole_vector_pass(kind, size):
    gradient = _blocked_topk_case(kind, size, np.random.default_rng(size))
    for ratio in (0.0004, 0.02, 0.5, 2.0):    # 2.0: kept >= size
        _assert_matches_whole_vector_pass(gradient, ratio)


def test_blocked_topk_takes_the_fallback_it_claims_to():
    """The "sample misjudges" case really is ``threshold > 0`` with too
    few passing, and "near empty" really tops up with zeros."""
    rng = np.random.default_rng(0)
    size = _BLOCKED_SIZES[-1]
    scratch = np.empty(topk.TOPK_BLOCK, dtype=np.float32)
    misjudged = _blocked_topk_case("sample misjudges", size, rng)
    kept = keep_count(size, 0.5)
    assert topk._candidates(misjudged, kept, scratch).size == size
    sparse = _blocked_topk_case("near empty", size, rng)
    kept = keep_count(size, 0.02)
    assert np.count_nonzero(sparse) < kept
    assert topk._candidates(sparse, kept, scratch).size == kept


def test_topk_scratch_is_one_block_and_only_that_much_is_touched():
    gradient = np.random.default_rng(2).standard_normal(
        3 * topk.TOPK_BLOCK).astype(np.float32)
    scratch = np.full(gradient.size, -1.0, dtype=np.float32)
    compress_topk(gradient, 0.02, abs_scratch=scratch)
    assert (scratch[topk.TOPK_BLOCK:] == -1.0).all()
    assert (scratch[:topk.TOPK_BLOCK] >= 0.0).all()


@pytest.mark.exhaustive
def test_blocked_topk_matches_whole_vector_pass_sweep():
    """300 drawn inputs over every kind, sizes straddling one to six
    blocks, drawn ratios (under ten seconds)."""
    rng = np.random.default_rng(11)
    for trial in range(300):
        kind = _BLOCKED_KINDS[trial % len(_BLOCKED_KINDS)]
        size = int(rng.integers(1, 7)) * topk.TOPK_BLOCK \
            + int(rng.integers(-40, 41))
        gradient = _blocked_topk_case(kind, size, rng)
        _assert_matches_whole_vector_pass(
            gradient, float(10.0 ** rng.uniform(-4, 0.3)))


# ----------------------------------------------------------------------
# error feedback
# ----------------------------------------------------------------------
def test_error_feedback_replays_dropped_coordinates():
    """A coordinate too small to be sent accumulates until it is."""
    feedback = ErrorFeedback(4)
    gradient = np.array([10.0, 0.1, 0.1, 0.1], dtype=np.float32)
    # Keep exactly one element each round.
    first = compress_with_feedback(gradient, feedback, 0.5)
    assert first.indices.tolist() == [0]
    assert feedback.residual_norm() > 0
    # After enough identical rounds, a small coordinate's residual grows
    # past the big one (already absorbed) and gets transmitted.
    sent = set(first.indices.tolist())
    for _round in range(200):
        compressed = compress_with_feedback(
            np.zeros(4, dtype=np.float32), feedback, 0.5)
        sent.update(compressed.indices.tolist())
    assert sent == {0, 1, 2, 3}


def test_error_feedback_without_memory_loses_information():
    gradient = np.array([10.0, 1.0], dtype=np.float32)
    compressed = compress_with_feedback(gradient, None, 1.0)
    dense = decompress_topk(compressed)
    assert dense[1] == 0.0


def test_error_feedback_compensates_in_place_or_absorbs_a_copy():
    """``compensate`` hands back the residual itself (no staging vector);
    ``absorb`` still accepts any other compensated vector."""
    rng = np.random.default_rng(2)
    first, second = (rng.standard_normal(64).astype(np.float32)
                     for _ in range(2))
    in_place, foreign = ErrorFeedback(64), ErrorFeedback(64)
    for gradient in (first, second):
        compensated = in_place.compensate(gradient)
        assert compensated is in_place.residual
        compressed = compress_topk(compensated, 0.25)
        in_place.absorb(compensated, compressed)
        separate = gradient + foreign.residual
        foreign.absorb(separate, compress_topk(separate, 0.25))
        np.testing.assert_array_equal(in_place.residual, foreign.residual)
        assert not in_place.residual[compressed.indices].any()


def test_error_feedback_shape_checks():
    feedback = ErrorFeedback(4)
    with pytest.raises(TrainingError):
        feedback.compensate(np.ones(5, dtype=np.float32))
    with pytest.raises(TrainingError):
        ErrorFeedback(0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_error_feedback_transmits_everything_eventually(seed):
    """Sum of transmitted values converges to the sum of true gradients
    (no mass is lost, only delayed)."""
    rng = np.random.default_rng(seed)
    size = 32
    feedback = ErrorFeedback(size)
    total_true = np.zeros(size, dtype=np.float32)
    total_sent = np.zeros(size, dtype=np.float32)
    for _step in range(30):
        gradient = rng.standard_normal(size).astype(np.float32)
        total_true += gradient
        compressed = compress_with_feedback(gradient, feedback, 0.25)
        total_sent += decompress_topk(compressed)
    # Remaining residual accounts exactly for the gap.
    np.testing.assert_allclose(total_sent + feedback.residual, total_true,
                               rtol=1e-3, atol=1e-3)


@pytest.mark.exhaustive
def test_error_feedback_keeps_accuracy_at_an_aggressive_ratio(tmp_path):
    """DESIGN.md names error feedback as what keeps SmartComp's accuracy
    close to exact training: at a 4 % volume ratio the residual memory
    must not hurt, and training with it stays clearly above chance."""
    from repro.nn import functional as F
    from repro.nn import (SequenceClassifier, bert_config,
                          make_classification_dataset)
    from repro.runtime import SmartInfinityEngine, TrainingConfig

    dataset = make_classification_dataset(num_train=192, num_dev=96,
                                          seq_len=32, vocab_size=64,
                                          noise=0.02, seed=21)

    def accuracy(error_feedback):
        model = SequenceClassifier(
            bert_config(vocab_size=64, dim=48, num_layers=2, num_heads=4,
                        max_seq_len=32), num_classes=3, seed=8)
        config = TrainingConfig(optimizer="adam",
                                optimizer_kwargs={"lr": 5e-3},
                                subgroup_elements=8192,
                                compression_ratio=0.04,
                                error_feedback=error_feedback, num_csds=2)
        workdir = tmp_path / f"feedback-{error_feedback}"
        with SmartInfinityEngine(model, lambda m, t, l: m.loss(t, l),
                                 str(workdir), config=config) as engine:
            for epoch in range(5):
                rng = np.random.default_rng(epoch)
                for tokens, labels in dataset.batches(8, rng):
                    engine.train_step(tokens, labels)
        model.eval()
        return F.accuracy(model(dataset.dev_tokens), dataset.dev_labels)

    with_feedback = accuracy(True)
    assert with_feedback >= accuracy(False) - 0.05
    assert with_feedback > 0.6   # chance is 1/3
