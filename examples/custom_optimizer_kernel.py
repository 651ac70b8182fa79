"""Extending Smart-Infinity with a custom optimizer kernel (Fig. 8 flow).

The paper ships HLS templates so users can deploy their own updater logic
on the CSD FPGA.  This example walks the same flow in the functional
framework with the Lion optimizer (Chen et al., 2023 — sign-momentum, a
single state word per parameter):

1. implement the update rule as a :class:`FlatOptimizer`;
2. run the template's **sanity checker** (the update streamed chunk by
   chunk must match one flat update bitwise, i.e. be element-wise);
3. compose an accelerator **design** and check it fits the KU15P;
4. train through the Smart-Infinity engine using the custom kernel.

Usage::

    python examples/custom_optimizer_kernel.py
"""

import tempfile

import numpy as np

from repro import TrainingConfig, create_engine
from repro.csd import sanity_check_updater, updater_design
from repro.csd.hls import (AXPBY_LANE, KernelDesign, PE_BUFFERS, SHELL,
                           UPDATER_CONTROL)
from repro.hw import ku15p
from repro.nn import SequenceClassifier, bert_config, \
    make_classification_dataset
from repro.optim import OPTIMIZERS
from repro.optim.base import FlatOptimizer


class Lion(FlatOptimizer):
    """Lion: sign of an interpolated momentum, one state word (2M)."""

    state_names = ("momentum",)

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.99):
        super().__init__(lr)
        self.beta1 = np.float32(beta1)
        self.beta2 = np.float32(beta2)

    def step(self, params, grads, state, step_num):
        self.check(params, grads, state)
        momentum = state["momentum"]
        one = np.float32(1.0)
        # Update direction: sign(beta1 * m + (1 - beta1) * g).
        direction = np.sign(self.beta1 * momentum
                            + (one - self.beta1) * grads)
        params -= np.float32(self.lr) * direction
        # AXPBY: m = beta2 * m + (1 - beta2) * g.
        momentum *= self.beta2
        momentum += (one - self.beta2) * grads


def lion_design() -> KernelDesign:
    """Lion needs two AXPBY lanes plus a sign unit per PE."""
    modules = {"shell": SHELL, "control": UPDATER_CONTROL}
    pe = PE_BUFFERS + AXPBY_LANE + AXPBY_LANE
    total = pe
    for _ in range(15):
        total = total + pe
    modules["updater[lion x16PE]"] = total
    return KernelDesign(name="lion-updater", modules=modules)


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def main():
    # 1. Register the optimizer so engines can instantiate it by name.
    OPTIMIZERS.setdefault("lion", Lion)

    # 2. Sanity-check: chunk-streamed execution == one flat update.
    sanity_check_updater(Lion(lr=1e-3), num_elements=4096, num_steps=3,
                         chunk_elements=128)
    print("sanity check: chunk-streamed Lion update is bit-identical to the flat one")

    # 3. Resource estimation against the SmartSSD's KU15P.
    design = lion_design()
    fpga = ku15p()
    utilization = design.utilization(fpga)
    print(f"design {design.name!r} fits KU15P: {design.fits(fpga)}")
    for resource, percent in utilization.items():
        print(f"  {resource:<5} {percent:6.2f}%")
    adam = updater_design("adam")
    print(f"(Adam for comparison: "
          f"LUT {adam.utilization(fpga)['LUT']:.2f}%)")

    # 4. Train through the Smart-Infinity engine with the custom kernel.
    dataset = make_classification_dataset(num_train=128, num_dev=64,
                                          seq_len=32, vocab_size=64,
                                          seed=2)
    model = SequenceClassifier(
        bert_config(vocab_size=64, dim=48, num_layers=2, num_heads=4,
                    max_seq_len=32), num_classes=3, seed=3)
    config = TrainingConfig(optimizer="lion",
                            optimizer_kwargs={"lr": 3e-4},
                            subgroup_elements=8192, num_csds=3)
    with tempfile.TemporaryDirectory() as workdir:
        engine = create_engine("smart", model, loss_fn, workdir,
                               config=config)
        losses = []
        for epoch in range(4):
            rng = np.random.default_rng(epoch)
            for tokens, labels in dataset.batches(8, rng):
                losses.append(engine.train_step(tokens, labels).loss)
        engine.close()
    print(f"Lion training loss: {losses[0]:.4f} -> {losses[-1]:.4f}")
    print(f"Lion stores {Lion().states_per_param} fp32 words/param "
          f"(Adam stores 3) -> even less CSD-internal traffic")


if __name__ == "__main__":
    main()
