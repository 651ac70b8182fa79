"""Extension experiment — model compression on Smart-Infinity (§VIII-B).

The paper's discussion predicts that using Smart-Infinity for model
compression (quantization/pruning fine-tuning) brings *further* speedup,
because the CSD can upload the compressed model, shrinking the remaining
upstream bottleneck.  This experiment implements that future-work item:

* **functional** — fine-tune through the engine with CSD-side int8
  quantization of the upstream masters (STE on the host) and with a 50%
  magnitude-pruning mask; measure upstream traffic and dev accuracy;
* **modelled** — the ``su_o_c_q`` DES method vs plain ``su_o_c``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..hw.topology import default_system
from ..nn import functional as F
from ..nn.data import make_classification_dataset
from ..nn.models import get_model
from ..nn.transformer import SequenceClassifier, bert_config
from ..perf.scenarios import simulate_iteration
from ..perf.workload import make_workload
from ..api import create_engine
from ..runtime.engine import TrainingConfig
from .report import render_table

RESULT_STEM = "ext_modelcomp"


@dataclass(frozen=True)
class ModelCompResult:
    """Functional accuracy/traffic plus modelled speedups."""

    accuracies: Dict[str, float]
    upstream_bytes: Dict[str, int]
    modelled_speedup: Dict[str, float]
    pruned_zero_fraction: float

    def quantization_cuts_upstream_4x(self) -> bool:
        return self.upstream_bytes["fp32"] > 3.5 * self.upstream_bytes[
            "int8"]

    def render(self) -> str:
        rows = [
            (variant, f"{self.accuracies[variant]:.2%}",
             f"{self.upstream_bytes[variant]:,} B"
             if variant in self.upstream_bytes else "(as fp32)")
            for variant in self.accuracies
        ]
        part_a = render_table(
            ("variant", "dev accuracy", "upstream/iter"), rows,
            title="§VIII-B functional: fine-tuning with compressed "
                  "upstream")
        rows_b = [(m, f"{v:.2f}x") for m, v in
                  self.modelled_speedup.items()]
        part_b = render_table(("method", "speedup @10 CSDs"), rows_b,
                              title="§VIII-B modelled: quantized upstream")
        return part_a + "\n\n" + part_b


def _loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def _finetune(dataset, config: TrainingConfig, epochs: int = 3):
    model = SequenceClassifier(
        bert_config(vocab_size=64, dim=48, num_layers=2, num_heads=4,
                    max_seq_len=dataset.train_tokens.shape[1]),
        num_classes=dataset.num_classes, seed=4)
    with tempfile.TemporaryDirectory() as workdir:
        engine = create_engine("smart", model, _loss_fn, workdir,
                               config=config)
        upstream = 0
        for epoch in range(epochs):
            rng = np.random.default_rng(50 + epoch)
            for tokens, labels in dataset.batches(8, rng):
                result = engine.train_step(tokens, labels)
                upstream = result.traffic.host_reads
        model.eval()
        accuracy = F.accuracy(model(dataset.dev_tokens),
                              dataset.dev_labels)
        working = engine.space.gather_params()
        zero_fraction = float((working == 0).mean())
        engine.close()
    return accuracy, upstream, zero_fraction


def run(epochs: int = 5) -> ModelCompResult:
    """Run the §VIII-B extension study."""
    dataset = make_classification_dataset(num_train=192, num_dev=96,
                                          seq_len=32, vocab_size=64,
                                          noise=0.03, seed=9)
    base_kwargs = dict(optimizer="adam", optimizer_kwargs={"lr": 5e-3},
                       subgroup_elements=8192, compression_ratio=0.05,
                       num_csds=2)

    accuracies: Dict[str, float] = {}
    upstream: Dict[str, int] = {}

    acc, up, _zeros = _finetune(dataset, TrainingConfig(**base_kwargs),
                                epochs=epochs)
    accuracies["fp32"], upstream["fp32"] = acc, up

    acc, up, _zeros = _finetune(
        dataset, TrainingConfig(**base_kwargs, quantized_upstream=True,
                                quantization_group=1024),
        epochs=epochs)
    accuracies["int8"], upstream["int8"] = acc, up

    acc, _up, zeros = _finetune(
        dataset, TrainingConfig(**base_kwargs, pruning_sparsity=0.5),
        epochs=epochs)
    accuracies["pruned-50%"] = acc

    workload = make_workload(get_model("gpt2-8.4b"))
    system = default_system(num_csds=10)
    base = simulate_iteration(system, workload, "baseline").total
    modelled = {
        "su_o_c": base / simulate_iteration(system, workload,
                                            "su_o_c").total,
        "su_o_c_q": base / simulate_iteration(system, workload,
                                              "su_o_c_q").total,
    }
    return ModelCompResult(accuracies=accuracies, upstream_bytes=upstream,
                           modelled_speedup=modelled,
                           pruned_zero_fraction=zeros)
