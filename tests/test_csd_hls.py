"""Tests for the HLS template layer: designs, resources, sanity checks."""

import numpy as np
import pytest

from repro.csd import (get_design, register_design, registered_designs,
                       sanity_check_updater, updater_design)
from repro.csd.hls import KernelDesign, SHELL
from repro.errors import KernelError
from repro.hw import FPGAResources, ku15p
from repro.optim import Adam, make_optimizer
from repro.optim.base import FlatOptimizer


def test_adam_design_reproduces_table3():
    util = updater_design("adam").utilization(ku15p())
    assert util["LUT"] == pytest.approx(33.66, abs=0.05)
    assert util["BRAM"] == pytest.approx(27.13, abs=0.05)
    assert util["URAM"] == pytest.approx(34.38, abs=0.05)
    assert util["DSP"] == pytest.approx(11.03, abs=0.05)


def test_adam_topk_design_reproduces_table3():
    util = updater_design("adam",
                          with_decompressor=True).utilization(ku15p())
    assert util["LUT"] == pytest.approx(34.12, abs=0.05)
    assert util["BRAM"] == pytest.approx(27.13, abs=0.05)
    assert util["URAM"] == pytest.approx(35.94, abs=0.05)
    assert util["DSP"] == pytest.approx(11.03, abs=0.05)


def test_decompressor_adds_no_dsps():
    """Table III: the Top-K decompressor is routing only — zero DSP cost."""
    plain = updater_design("adam").total
    with_topk = updater_design("adam", with_decompressor=True).total
    assert with_topk.dsps == plain.dsps
    assert with_topk.brams == plain.brams
    assert with_topk.luts > plain.luts


def test_sgd_design_smaller_than_adam():
    adam = updater_design("adam").total
    sgd = updater_design("sgd").total
    assert sgd.luts < adam.luts
    assert sgd.dsps < adam.dsps
    assert sgd.urams < adam.urams


def test_all_registered_designs_fit_ku15p():
    fpga = ku15p()
    for name in registered_designs():
        assert get_design(name).fits(fpga), name


def test_design_registry_contents():
    names = registered_designs()
    assert "adam-updater" in names
    assert "adam-updater+topk" in names
    assert "sgd-updater" in names


def test_register_rejects_duplicates_and_unknown_lookup():
    with pytest.raises(KernelError):
        register_design("adam-updater", lambda: None)
    with pytest.raises(KernelError):
        get_design("no-such-design")


def test_custom_design_registration():
    register_design(
        "test-custom",
        lambda: KernelDesign(name="custom", modules={"shell": SHELL}))
    assert get_design("test-custom").total.luts == SHELL.luts


def test_updater_design_validates_inputs():
    with pytest.raises(KernelError):
        updater_design("unknown-optimizer")
    with pytest.raises(KernelError):
        updater_design("adam", num_pes=0)


def test_oversized_design_does_not_fit():
    huge = KernelDesign(name="huge", modules={
        "pe": FPGAResources(luts=10_000_000, brams=0, urams=0, dsps=0)})
    assert not huge.fits(ku15p())


def test_sanity_checker_passes_correct_kernels():
    sanity_check_updater(Adam(lr=1e-3), num_elements=512, num_steps=2)


@pytest.mark.parametrize("name", ["adam", "adamw", "sgd", "adagrad"])
def test_sanity_checker_passes_builtins_at_awkward_chunk(name):
    # 1000 = 10 x 97 + 30: full chunks plus a ragged tail.
    sanity_check_updater(make_optimizer(name), num_elements=1000,
                         num_steps=3, chunk_elements=97)


def test_sanity_checker_catches_non_elementwise_updater():
    class MaxNormalized(FlatOptimizer):
        """Divides by the largest |gradient| it was handed, so every
        element's update depends on which others share its call — the
        updater kernel's one pass per subgroup would not be exact."""

        def __init__(self):
            super().__init__(lr=0.1)

        def step(self, params, grads, state, step_num):
            params -= np.float32(self.lr) * grads / np.abs(grads).max()

    with pytest.raises(KernelError, match="diverged"):
        sanity_check_updater(MaxNormalized(), num_elements=1000,
                             num_steps=1, chunk_elements=97)


def test_sanity_checker_rejects_bad_chunk():
    with pytest.raises(KernelError):
        sanity_check_updater(Adam(), chunk_elements=0)


def test_sanity_checker_catches_broken_updater():
    class BrokenAdam(Adam):
        """An updater whose chunked execution diverges: it uses the chunk's
        local mean, so results depend on chunk boundaries."""

        def step(self, params, grads, state, step_num):
            params -= np.float32(self.lr) * (grads - grads.mean())

    with pytest.raises(KernelError, match="diverged"):
        sanity_check_updater(BrokenAdam(lr=0.1), num_elements=512,
                             num_steps=1, chunk_elements=100)


def test_sanity_checker_catches_state_divergence():
    class StatefulBug(FlatOptimizer):
        state_names = ("momentum",)

        def __init__(self):
            super().__init__(lr=0.1)

        def step(self, params, grads, state, step_num):
            # Writes a chunk-size-dependent value into the state.
            state["momentum"][:] = float(len(grads))

    with pytest.raises(KernelError, match="state"):
        sanity_check_updater(StatefulBug(), num_elements=512,
                             num_steps=1, chunk_elements=100)
