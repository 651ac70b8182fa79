"""Table IV — fine-tuning accuracy and speedup per method.

The paper fine-tunes BERT-345M / GPT-2 on four GLUE tasks and shows:

* SmartUpdate (SU+O) is algorithmically identical to the baseline, so its
  accuracy is *exactly* the baseline's;
* SmartComp's lossy Top-K compression (10% down to 1%) costs little or no
  accuracy while adding speedup.

Without GLUE or pretrained checkpoints we train tiny transformers on
synthetic classification tasks (see `repro.nn.data`) through the *real*
functional engines — storage offload, near-storage update, compression and
all — and report dev accuracy per method, plus the speedup column from the
performance model at 6 SSDs for the paper's three checkpoint sizes.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..hw.topology import default_system
from ..nn import functional as F
from ..nn.data import ClassificationDataset, make_glue_suite
from ..nn.models import get_model
from ..nn.transformer import SequenceClassifier, bert_config
from ..perf.scenarios import simulate_iteration
from ..perf.workload import make_workload
from ..api import create_engine
from ..runtime.engine import TrainingConfig
from .report import render_table

RESULT_STEM = "table4_finetune"

FINETUNE_MODELS = ("bert-0.34b", "gpt2-0.77b", "gpt2-1.6b")
COMPRESSION_RATIOS = (0.10, 0.05, 0.02, 0.01)
METHOD_ORDER = ("baseline", "su_o", "comp_10", "comp_5", "comp_2", "comp_1")

_METHOD_RATIO = {
    "comp_10": 0.10, "comp_5": 0.05, "comp_2": 0.02, "comp_1": 0.01,
}


@dataclass(frozen=True)
class Table4Result:
    """Dev accuracy per (task, method) + modelled speedups per checkpoint."""

    accuracies: Dict[Tuple[str, str], float]
    speedups: Dict[Tuple[str, str], float]
    tasks: Tuple[str, ...]

    def su_matches_baseline(self) -> bool:
        """SU+O must reproduce the baseline accuracy exactly."""
        return all(
            self.accuracies[(task, "su_o")]
            == self.accuracies[(task, "baseline")]
            for task in self.tasks)

    def compression_accuracy_drop(self, method: str) -> float:
        """Mean accuracy drop of a compressed method vs baseline."""
        drops = [self.accuracies[(task, "baseline")]
                 - self.accuracies[(task, method)]
                 for task in self.tasks]
        return float(np.mean(drops))

    def render(self) -> str:
        methods = [m for m in METHOD_ORDER
                   if any((task, m) in self.accuracies
                          for task in self.tasks)]
        rows = []
        for method in methods:
            rows.append((method,
                         *(f"{self.accuracies[(task, method)]:.2%}"
                           for task in self.tasks)))
        part_a = render_table(("method", *self.tasks), rows,
                              title="Table IV: dev accuracy "
                                    "(functional engines, synthetic GLUE)")
        rows_b = []
        for (model, method), speedup in sorted(self.speedups.items()):
            rows_b.append((model, method, f"{speedup:.2f}x"))
        part_b = render_table(("checkpoint", "method", "speedup @6 SSDs"),
                              rows_b,
                              title="Table IV: modelled speedup column")
        return part_a + "\n\n" + part_b


def _evaluate(model: SequenceClassifier,
              dataset: ClassificationDataset) -> float:
    model.eval()
    logits = model(dataset.dev_tokens)
    accuracy = F.accuracy(logits, dataset.dev_labels)
    model.train()
    return accuracy


def _finetune(dataset: ClassificationDataset, method: str, epochs: int,
              batch_size: int, seed: int) -> float:
    """Train one tiny classifier through the matching functional engine."""
    config_kwargs = dict(optimizer="adam", optimizer_kwargs={"lr": 5e-3},
                         subgroup_elements=8192)
    ratio: Optional[float] = _METHOD_RATIO.get(method)
    model = SequenceClassifier(
        bert_config(vocab_size=64, dim=48, num_layers=2, num_heads=4,
                    max_seq_len=dataset.train_tokens.shape[1]),
        num_classes=dataset.num_classes, seed=seed)

    def loss_fn(m, tokens, labels):
        return m.loss(tokens, labels)

    with tempfile.TemporaryDirectory() as workdir:
        if method == "baseline":
            engine = create_engine(
                "baseline", model, loss_fn, workdir,
                config=TrainingConfig(**config_kwargs, raid_members=2))
        else:
            engine = create_engine(
                "smart", model, loss_fn, workdir,
                config=TrainingConfig(**config_kwargs, num_csds=3,
                                      compression_ratio=ratio))
        for epoch in range(epochs):
            rng = np.random.default_rng(1000 + epoch)
            for tokens, labels in dataset.batches(batch_size, rng):
                engine.train_step(tokens, labels)
        accuracy = _evaluate(model, dataset)
        engine.close()
    return accuracy


def run(tasks=("mnli", "qqp", "sst2", "qnli"), epochs: int = 3,
        batch_size: int = 8, seed: int = 0,
        methods=METHOD_ORDER) -> Table4Result:
    """Regenerate Table IV: functional accuracy + modelled speedups."""
    suite = make_glue_suite(seed=seed)
    accuracies: Dict[Tuple[str, str], float] = {}
    for task in tasks:
        dataset = suite[task]
        for method in methods:
            accuracies[(task, method)] = _finetune(
                dataset, method, epochs=epochs, batch_size=batch_size,
                seed=seed)

    speedups: Dict[Tuple[str, str], float] = {}
    system = default_system(num_csds=6)
    for model_name in FINETUNE_MODELS:
        workload = make_workload(get_model(model_name), batch_size=4)
        base = simulate_iteration(system, workload, "baseline").total
        speedups[(model_name, "su_o")] = base / simulate_iteration(
            system, workload, "su_o").total
        for ratio in COMPRESSION_RATIOS:
            smart = simulate_iteration(system, workload, "su_o_c",
                                       compression_ratio=ratio).total
            speedups[(model_name, f"comp_{int(ratio * 100)}")] = (
                base / smart)
    return Table4Result(accuracies=accuracies, speedups=speedups,
                        tasks=tuple(tasks))
