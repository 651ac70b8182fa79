"""Fig. 13 — applying Smart-Infinity to BLOOM and ViT.

The speedup trend carries over to other transformer families (the paper
reports 1.32x-1.85x) because the bottleneck is storage bandwidth, which
depends only on parameter count.  The functional side also trains tiny
BLOOM (ALiBi) and ViT configurations through the Smart-Infinity engine to
show the runtime really is architecture-agnostic.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..hw.topology import default_system
from ..nn.data import make_classification_dataset, make_lm_dataset
from ..nn.models import get_model
from ..nn.transformer import (LanguageModel, SequenceClassifier,
                              bloom_config, vit_config)
from ..perf.scenarios import simulate_iteration
from ..perf.workload import make_workload
from ..api import create_engine
from ..runtime.engine import TrainingConfig
from .report import render_table

RESULT_STEM = "fig13_models"

MODELS = ("bloom-7.1b", "vit-1.9b")


@dataclass(frozen=True)
class Fig13Result:
    """Modelled speedups plus functional-training loss drops."""

    speedups: Dict[str, Dict[int, float]]
    functional_loss: Dict[str, Dict[str, float]]

    def all_in_paper_band(self, low: float = 1.2, high: float = 2.2) -> bool:
        return all(low <= value <= high
                   for cell in self.speedups.values()
                   for value in cell.values())

    def render(self) -> str:
        counts = sorted(next(iter(self.speedups.values())))
        rows = [(name, *(f"{self.speedups[name][n]:.2f}x" for n in counts))
                for name in self.speedups]
        part_a = render_table(
            ("model", *(f"speedup @{n} SSDs" for n in counts)), rows,
            title="Fig 13: Smart-Infinity on BLOOM and ViT")
        rows_b = [(name, f"{losses['first']:.3f}", f"{losses['last']:.3f}")
                  for name, losses in self.functional_loss.items()]
        part_b = render_table(
            ("tiny model", "first loss", "last loss"), rows_b,
            title="Functional training through the Smart-Infinity engine")
        return part_a + "\n\n" + part_b


def _train_tiny_bloom() -> Dict[str, float]:
    model = LanguageModel(bloom_config(vocab_size=32, dim=32, num_layers=2,
                                       num_heads=2, max_seq_len=16), seed=0)
    data = make_lm_dataset(num_sequences=16, seq_len=17, vocab_size=32,
                           seed=2)

    def loss_fn(m, tokens):
        return m.loss(tokens)

    with tempfile.TemporaryDirectory() as workdir:
        engine = create_engine(
            "smart", model, loss_fn, workdir,
            config=TrainingConfig(optimizer="adam",
                                  optimizer_kwargs={"lr": 1e-2},
                                  subgroup_elements=4096, num_csds=2))
        losses = [engine.train_step(data[:4]).loss for _ in range(12)]
        engine.close()
    return {"first": losses[0], "last": losses[-1]}


def _train_tiny_vit() -> Dict[str, float]:
    config = vit_config(num_patches=16, num_patch_ids=32, dim=32,
                        num_layers=2, num_heads=2)
    model = SequenceClassifier(config, num_classes=3, seed=0)
    data = make_classification_dataset(num_train=32, seq_len=16,
                                       vocab_size=32, seed=4)

    def loss_fn(m, tokens, labels):
        return m.loss(tokens, labels)

    with tempfile.TemporaryDirectory() as workdir:
        engine = create_engine(
            "smart", model, loss_fn, workdir,
            config=TrainingConfig(optimizer="adam",
                                  optimizer_kwargs={"lr": 1e-2},
                                  subgroup_elements=4096, num_csds=2))
        rng = np.random.default_rng(0)
        losses = []
        for _epoch in range(4):
            for tokens, labels in data.batches(8, rng):
                losses.append(engine.train_step(tokens, labels).loss)
        engine.close()
    return {"first": losses[0], "last": losses[-1]}


def run(ssd_counts=(6, 10), batch_size: int = 4,
        train_functional: bool = True) -> Fig13Result:
    """Regenerate Fig. 13 plus the functional cross-family check."""
    speedups: Dict[str, Dict[int, float]] = {}
    for model_name in MODELS:
        workload = make_workload(get_model(model_name),
                                 batch_size=batch_size)
        speedups[model_name] = {}
        for count in ssd_counts:
            system = default_system(num_csds=count)
            base = simulate_iteration(system, workload, "baseline").total
            smart = simulate_iteration(system, workload, "su_o_c").total
            speedups[model_name][count] = base / smart
    functional = {}
    if train_functional:
        functional["bloom-tiny"] = _train_tiny_bloom()
        functional["vit-tiny"] = _train_tiny_vit()
    return Fig13Result(speedups=speedups, functional_loss=functional)
