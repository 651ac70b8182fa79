"""Tests for the flat-array optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.optim import (AdaGrad, Adam, AdamW, OPTIMIZERS, SGDMomentum,
                         make_optimizer)


def flat(*values):
    return np.array(values, dtype=np.float32)


# ----------------------------------------------------------------------
# Adam
# ----------------------------------------------------------------------
def test_adam_first_step_matches_closed_form():
    """With bias correction, the very first Adam step moves by ~lr in the
    gradient's sign direction (for eps -> 0)."""
    opt = Adam(lr=0.1, eps=1e-12)
    params = flat(1.0)
    state = opt.init_state(1)
    opt.step(params, flat(0.5), state, step_num=1)
    assert params[0] == pytest.approx(1.0 - 0.1, rel=1e-4)


def test_adam_momentum_and_variance_updates():
    opt = Adam(lr=0.1, beta1=0.9, beta2=0.99)
    state = opt.init_state(1)
    opt.step(flat(0.0), flat(2.0), state, step_num=1)
    assert state["momentum"][0] == pytest.approx(0.2, rel=1e-5)
    assert state["variance"][0] == pytest.approx(0.04, rel=1e-5)


def test_adam_converges_on_quadratic():
    opt = Adam(lr=0.1)
    params = flat(5.0)
    state = opt.init_state(1)
    for step in range(1, 300):
        grads = 2.0 * params.copy()  # d/dx x^2
        opt.step(params, grads.astype(np.float32), state, step)
    assert abs(params[0]) < 1e-2


def test_adam_states_per_param_is_three():
    assert Adam().states_per_param == 3
    assert Adam().state_names == ("momentum", "variance")


def test_adam_rejects_bad_hyperparameters():
    with pytest.raises(TrainingError):
        Adam(lr=0.0)
    with pytest.raises(TrainingError):
        Adam(beta1=1.0)
    with pytest.raises(TrainingError):
        Adam(eps=0.0)


def test_adamw_decays_weights_decoupled():
    plain = Adam(lr=0.1)
    decayed = AdamW(lr=0.1, weight_decay=0.1)
    p1, p2 = flat(1.0), flat(1.0)
    s1, s2 = plain.init_state(1), decayed.init_state(1)
    zero_grad = flat(0.0)
    plain.step(p1, zero_grad.copy(), s1, 1)
    decayed.step(p2, zero_grad.copy(), s2, 1)
    assert p1[0] == pytest.approx(1.0)
    assert p2[0] == pytest.approx(1.0 - 0.1 * 0.1, rel=1e-5)


def test_adamw_rejects_negative_decay():
    with pytest.raises(TrainingError):
        AdamW(weight_decay=-0.1)


# ----------------------------------------------------------------------
# SGD momentum / AdaGrad
# ----------------------------------------------------------------------
def test_sgd_momentum_accumulates():
    opt = SGDMomentum(lr=1.0, momentum=0.5)
    params = flat(0.0)
    state = opt.init_state(1)
    opt.step(params, flat(1.0), state, 1)
    assert params[0] == pytest.approx(-1.0)
    opt.step(params, flat(1.0), state, 2)
    # Momentum buffer: 0.5*1 + 1 = 1.5 -> total -2.5.
    assert params[0] == pytest.approx(-2.5)


def test_sgd_states_per_param_is_two():
    assert SGDMomentum().states_per_param == 2


def test_adagrad_shrinks_effective_lr():
    opt = AdaGrad(lr=1.0)
    params = flat(0.0)
    state = opt.init_state(1)
    opt.step(params, flat(1.0), state, 1)
    first_move = abs(params[0])
    before = params[0]
    opt.step(params, flat(1.0), state, 2)
    second_move = abs(params[0] - before)
    assert second_move < first_move


def test_adagrad_accumulator_monotone():
    opt = AdaGrad(lr=0.1)
    state = opt.init_state(3)
    params = np.zeros(3, dtype=np.float32)
    previous = state["accumulator"].copy()
    for step in range(1, 5):
        grads = np.full(3, 0.5, dtype=np.float32)
        opt.step(params, grads, state, step)
        assert (state["accumulator"] >= previous).all()
        previous = state["accumulator"].copy()


# ----------------------------------------------------------------------
# interface
# ----------------------------------------------------------------------
def test_registry_contains_all_four():
    assert set(OPTIMIZERS) == {"adam", "adamw", "sgd", "adagrad"}
    assert isinstance(make_optimizer("ADAM", lr=0.1), Adam)


def test_registry_rejects_unknown():
    with pytest.raises(KeyError):
        make_optimizer("lion")


def test_step_validates_shapes_and_dtypes():
    opt = Adam()
    params = np.zeros(4, dtype=np.float32)
    state = opt.init_state(4)
    with pytest.raises(TrainingError):
        opt.step(params, np.zeros(3, dtype=np.float32), state, 1)
    with pytest.raises(TrainingError):
        opt.step(params.astype(np.float64),
                 np.zeros(4, dtype=np.float64), state, 1)
    with pytest.raises(TrainingError):
        opt.step(params, np.zeros(4, dtype=np.float32), {}, 1)


def test_init_state_rejects_nonpositive():
    with pytest.raises(TrainingError):
        Adam().init_state(0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       name=st.sampled_from(["adam", "adamw", "sgd", "adagrad"]))
def test_step_is_bounded_property(seed, name):
    """No optimizer moves a parameter by more than a few lr per step
    (Adam's per-step displacement is bounded by ~lr/(1-beta1))."""
    rng = np.random.default_rng(seed)
    lr = 0.01
    opt = make_optimizer(name, lr=lr)
    params = rng.standard_normal(32).astype(np.float32)
    reference = params.copy()
    state = opt.init_state(32)
    grads = (rng.standard_normal(32) * 10).astype(np.float32)
    opt.step(params, grads, state, 1)
    moved = np.abs(params - reference)
    if name in ("adam", "adamw"):
        assert moved.max() <= 3 * lr + 0.02  # + decay term for adamw
    # SGD/AdaGrad move proportionally to gradient magnitude; just check
    # finiteness and that something moved.
    assert np.isfinite(params).all()
    assert moved.max() > 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_adam_deterministic_across_runs(seed):
    rng = np.random.default_rng(seed)
    grads = rng.standard_normal(16).astype(np.float32)
    results = []
    for _run in range(2):
        opt = Adam(lr=1e-3)
        params = np.ones(16, dtype=np.float32)
        state = opt.init_state(16)
        for step in range(1, 4):
            opt.step(params, grads.copy(), state, step)
        results.append(params.copy())
    np.testing.assert_array_equal(results[0], results[1])
