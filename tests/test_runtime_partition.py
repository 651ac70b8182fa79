"""Tests for parameter flattening and CSD shard distribution."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.nn import SequenceClassifier, bert_config
from repro.nn.modules import Linear, Module
from repro.runtime import FlatParameterSpace, distribute_shards


def tiny_model(seed=0):
    return SequenceClassifier(
        bert_config(vocab_size=16, dim=16, num_layers=1, num_heads=2,
                    max_seq_len=8), num_classes=2, seed=seed)


def test_flat_space_counts_all_parameters():
    model = tiny_model()
    space = FlatParameterSpace(model)
    assert space.total_elements == model.num_parameters()
    assert space.slots[0].offset == 0
    # Slots tile the space with no gaps or overlap.
    for left, right in zip(space.slots, space.slots[1:]):
        assert left.end == right.offset
    assert space.slots[-1].end == space.total_elements


def test_gather_scatter_roundtrip():
    model = tiny_model()
    space = FlatParameterSpace(model)
    flat = space.gather_params()
    space.scatter_params(np.zeros_like(flat))
    assert space.gather_params().sum() == 0.0
    space.scatter_params(flat)
    np.testing.assert_array_equal(space.gather_params(), flat)


def test_scatter_slice_matches_full_scatter():
    model_a, model_b = tiny_model(3), tiny_model(3)
    space_a = FlatParameterSpace(model_a)
    space_b = FlatParameterSpace(model_b)
    rng = np.random.default_rng(0)
    new_flat = rng.standard_normal(space_a.total_elements).astype(
        np.float32)
    space_a.scatter_params(new_flat)
    # Scatter in awkward slices.
    cursor = 0
    while cursor < space_b.total_elements:
        count = min(97, space_b.total_elements - cursor)
        space_b.scatter_slice(cursor, new_flat[cursor:cursor + count])
        cursor += count
    np.testing.assert_array_equal(space_a.gather_params(),
                                  space_b.gather_params())


def test_scatter_slice_bounds():
    space = FlatParameterSpace(tiny_model())
    with pytest.raises(PartitionError):
        space.scatter_slice(-1, np.zeros(4, dtype=np.float32))
    with pytest.raises(PartitionError):
        space.scatter_slice(space.total_elements - 2,
                            np.zeros(4, dtype=np.float32))


def test_gather_grads_zero_for_missing():
    model = tiny_model()
    space = FlatParameterSpace(model)
    grads = space.gather_grads()
    assert grads.shape == (space.total_elements,)
    assert (grads == 0).all()


def test_gather_grads_places_by_slot():
    model = tiny_model()
    space = FlatParameterSpace(model)
    name, param = next(iter(model.named_parameters()))
    param.grad = np.ones_like(param.data, dtype=np.float32)
    grads = space.gather_grads()
    slot = space.slot(name)
    assert grads[slot.offset:slot.end].sum() == slot.size
    assert grads[slot.end:].sum() == 0


def test_gather_grads_unscales_in_place():
    """Bit-equal to gathering and then multiplying a copy of the flat
    vector — the separate unscale pass the engines used to run."""
    model = tiny_model()
    space = FlatParameterSpace(model)
    rng = np.random.default_rng(3)
    params = [param for _name, param in model.named_parameters()]
    for param in params[1:]:            # the first slot has no gradient
        param.grad = (rng.standard_normal(param.data.shape)
                      * 1e4).astype(np.float32)
    params[-1].grad.flat[0] = np.inf
    scale = 1.0 / 2.0 ** 16 * 3.0       # not a power of two: it rounds
    want = space.gather_grads().copy()  # scale 1.0 changes no bit
    want *= np.float32(scale)
    got = space.gather_grads(scale)
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
    assert not got[:space.slots[0].size].any()
    # The result is the space's own buffer, and every .grad a view of it.
    assert got is space.gather_grads()
    assert all(np.shares_memory(param.grad, got) for param in params[1:])


# ----------------------------------------------------------------------
# the gradient lives once: backward writes into the flat buffer
# ----------------------------------------------------------------------
def _backward_once(model, seed=0):
    """One backward pass; returns what a copy-then-gather would have
    produced (each parameter's gradient, copied out in flat order)."""
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, 16, size=(3, 8))
    labels = rng.integers(0, 2, size=3)
    model.loss(tokens, labels).backward()
    return np.concatenate([
        np.zeros(param.size, dtype=np.float32) if param.grad is None
        else param.grad.reshape(-1).copy()
        for _name, param in model.named_parameters()])


def test_backward_writes_into_the_flat_gradient_buffer():
    model = tiny_model()
    space = FlatParameterSpace(model)
    want = _backward_once(model)
    for _name, param in model.named_parameters():
        assert param.grad is None or np.shares_memory(param.grad,
                                                      space._flat_grads)
    got = space.gather_grads()
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
    # A second backward without zero_grad accumulates in place.
    again = _backward_once(model)
    np.testing.assert_array_equal(again, want + want)
    np.testing.assert_array_equal(space.gather_grads(), again)


def test_zero_grad_then_partial_backward_gathers_zeros_for_the_rest():
    """A parameter that received no gradient this step reads zeros,
    whatever last step left in its slot."""
    model = tiny_model()
    space = FlatParameterSpace(model)
    _backward_once(model)
    assert space.gather_grads().any()
    model.zero_grad()
    name, param = next(iter(model.named_parameters()))
    param._accumulate(np.full(param.shape, 2.0, dtype=np.float32))
    grads = space.gather_grads(0.5)
    slot = space.slot(name)
    np.testing.assert_array_equal(grads[slot.offset:slot.end], 1.0)
    assert not grads[slot.end:].any()
    model.zero_grad()
    assert not space.gather_grads().any()


def test_hand_assigned_grad_is_readopted():
    model = tiny_model()
    space = FlatParameterSpace(model)
    _backward_once(model)               # every slot holds something else
    model.zero_grad()
    name, param = list(model.named_parameters())[2]
    mine = np.arange(param.size, dtype=np.float32).reshape(param.shape)
    param.grad = mine
    grads = space.gather_grads(2.0)
    slot = space.slot(name)
    np.testing.assert_array_equal(grads[slot.offset:slot.end],
                                  2.0 * np.arange(param.size))
    assert not grads[:slot.offset].any() and not grads[slot.end:].any()
    np.testing.assert_array_equal(mine.reshape(-1),
                                  np.arange(param.size))  # only read
    assert np.shares_memory(param.grad, grads)
    # ... so the next backward accumulates into the buffer again.
    model.zero_grad()
    want = _backward_once(model, seed=1)
    np.testing.assert_array_equal(space.gather_grads(), want)


def test_load_state_dict_leaves_gather_grads_correct():
    model = tiny_model()
    space = FlatParameterSpace(model)
    model.load_state_dict({name: value + np.float32(0.5)
                           for name, value in model.state_dict().items()})
    want = _backward_once(model)
    np.testing.assert_array_equal(space.gather_grads(), want)
    # Same gradients as a model that was built with those weights.
    twin = tiny_model()
    twin.load_state_dict(model.state_dict())
    np.testing.assert_array_equal(_backward_once(twin), want)


def test_second_space_over_one_model_takes_the_gradients_over():
    """Each space re-adopts what the other bound, so whichever gathers
    gets this step's gradients."""
    model = tiny_model()
    first = FlatParameterSpace(model)
    second = FlatParameterSpace(model)
    want = _backward_once(model)        # lands in ``second``'s buffer
    np.testing.assert_array_equal(first.gather_grads(), want)
    model.zero_grad()
    want = _backward_once(model, seed=1)    # now in ``first``'s
    np.testing.assert_array_equal(second.gather_grads(0.25),
                                  want * np.float32(0.25))
    model.zero_grad()
    assert not first.gather_grads().any()
    assert not second.gather_grads().any()


def test_slot_lookup_unknown():
    space = FlatParameterSpace(tiny_model())
    with pytest.raises(PartitionError):
        space.slot("nope")


def test_install_fp16_quantizes():
    model = tiny_model()
    space = FlatParameterSpace(model)
    masters = space.gather_params() + np.float32(1e-5)
    space.install_fp16_params(masters)
    installed = space.gather_params()
    expected = masters.astype(np.float16).astype(np.float32)
    np.testing.assert_array_equal(installed, expected)


def test_empty_module_rejected():
    class Empty(Module):
        def forward(self):  # pragma: no cover
            return None

    with pytest.raises(PartitionError):
        FlatParameterSpace(Empty())


def test_flat_check_rejects_wrong_length():
    space = FlatParameterSpace(tiny_model())
    with pytest.raises(PartitionError):
        space.scatter_params(np.zeros(3, dtype=np.float32))


# ----------------------------------------------------------------------
# shards (§IV-D)
# ----------------------------------------------------------------------
def test_shards_cover_exactly_once():
    shards = distribute_shards(100, 3)
    assert [s.count for s in shards] == [34, 33, 33]
    assert shards[0].start == 0
    for left, right in zip(shards, shards[1:]):
        assert left.end == right.start
    assert shards[-1].end == 100


def test_shard_sizes_differ_by_at_most_one():
    shards = distribute_shards(1000, 7)
    counts = [s.count for s in shards]
    assert max(counts) - min(counts) <= 1


def test_shards_validate_inputs():
    with pytest.raises(PartitionError):
        distribute_shards(10, 0)
    with pytest.raises(PartitionError):
        distribute_shards(2, 3)


def test_distribution_is_architecture_agnostic():
    """Same flat length -> identical shard map regardless of the module
    structure behind it (the paper's §IV-D property)."""
    rng = np.random.default_rng(0)
    wide = Linear(10, 10, rng)       # 110 params
    deep_elems = FlatParameterSpace(wide).total_elements
    assert [
        (s.start, s.count) for s in distribute_shards(deep_elems, 4)
    ] == [(s.start, s.count) for s in distribute_shards(110, 4)]


@settings(max_examples=40, deadline=None)
@given(total=st.integers(1, 100_000), devices=st.integers(1, 16))
def test_shard_coverage_property(total, devices):
    if total < devices:
        with pytest.raises(PartitionError):
            distribute_shards(total, devices)
        return
    shards = distribute_shards(total, devices)
    assert sum(s.count for s in shards) == total
    assert len(shards) == devices
    assert all(s.count >= 1 for s in shards)


# ----------------------------------------------------------------------
# the flat-backed working copy
# ----------------------------------------------------------------------
def _model_flat(model):
    """Parameters read through the module, never through the space."""
    return np.concatenate([value.reshape(-1)
                           for value in model.state_dict().values()])


def test_parameters_are_views_of_one_flat_buffer():
    model = tiny_model()
    before = _model_flat(model)
    space = FlatParameterSpace(model)
    np.testing.assert_array_equal(_model_flat(model), before)
    for _name, param in model.named_parameters():
        assert param.data.base is not None
        assert np.shares_memory(param.data, space._flat)
    # An install is visible through the module without any re-binding.
    bound = [param.data for _name, param in model.named_parameters()]
    space.scatter_slice(3, np.full(5, 9.0, dtype=np.float32))
    np.testing.assert_array_equal(_model_flat(model)[3:8], 9.0)
    for data, (_name, param) in zip(bound, model.named_parameters()):
        assert param.data is data


def test_install_fp16_slice_matches_full_install():
    sliced, full = tiny_model(), tiny_model()
    space_sliced, space_full = (FlatParameterSpace(sliced),
                                FlatParameterSpace(full))
    rng = np.random.default_rng(0)
    masters = (rng.standard_normal(space_full.total_elements) * 1e-3
               ).astype(np.float32)
    space_full.install_fp16_params(masters)
    for start in range(0, masters.size, 701):  # straddles parameters
        space_sliced.install_fp16_slice(start, masters[start:start + 701])
    np.testing.assert_array_equal(_model_flat(sliced), _model_flat(full))
    np.testing.assert_array_equal(
        _model_flat(full), masters.astype(np.float16).astype(np.float32))
    with pytest.raises(PartitionError):
        space_sliced.install_fp16_slice(masters.size - 2, masters[:3])
    with pytest.raises(PartitionError):
        space_full.install_fp16_params(masters[:-1])


def test_concurrent_adjacent_installs_need_no_lock():
    """Two writers install adjacent slices whose boundary falls inside
    one parameter tensor; disjoint flat ranges never interfere, so every
    round ends in the sequential result."""
    model = tiny_model()
    space = FlatParameterSpace(model)
    straddled = max(space.slots, key=lambda slot: slot.size)
    boundary = straddled.offset + straddled.size // 2 + 1
    assert straddled.offset < boundary < straddled.end
    rounds = 1000
    rng = np.random.default_rng(1)
    masters = rng.standard_normal(
        (rounds, space.total_elements)).astype(np.float32)
    # Writers and the checking thread meet before and after each round.
    barrier = threading.Barrier(3, timeout=30)
    failures = []

    def writer(start, stop):
        try:
            for index in range(rounds):
                barrier.wait()
                space.install_fp16_slice(start, masters[index, start:stop])
                barrier.wait()
        except BaseException as exc:  # surfaced by the assert below
            failures.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=writer, args=(0, boundary)),
               threading.Thread(target=writer,
                                args=(boundary, space.total_elements))]
    # More runnable threads than cores and a short switch interval, so
    # the two installs really interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for index in range(rounds):
            barrier.wait()
            barrier.wait()
            expected = masters[index].astype(np.float16).astype(np.float32)
            np.testing.assert_array_equal(_model_flat(model), expected)
    except threading.BrokenBarrierError:
        pass  # a writer failed; its exception is reported below
    except BaseException:
        barrier.abort()  # release the writers before reporting
        raise
    finally:
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not failures, failures
    assert not any(thread.is_alive() for thread in threads)


def test_rebound_parameter_is_readopted():
    model = tiny_model()
    space = FlatParameterSpace(model)
    state = {name: value + np.float32(1.0)
             for name, value in model.state_dict().items()}
    model.load_state_dict(state)  # re-binds every param.data
    name, param = next(iter(model.named_parameters()))
    assert not np.shares_memory(param.data, space._flat)

    space.gather_grads()
    assert np.shares_memory(param.data, space._flat)
    np.testing.assert_array_equal(param.data, state[name])
    # ... so a later install reaches the storage the model reads.
    space.scatter_slice(0, np.zeros(4, dtype=np.float32))
    np.testing.assert_array_equal(_model_flat(model)[:4], 0.0)

    model.load_state_dict(state)
    np.testing.assert_array_equal(space.gather_params(),
                                  _model_flat(model))
    model.load_state_dict(state)
    space.scatter_params(np.zeros(space.total_elements, dtype=np.float32))
    np.testing.assert_array_equal(_model_flat(model), 0.0)
