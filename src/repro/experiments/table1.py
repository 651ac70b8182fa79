"""Table I — system-interconnect traffic per method.

Two reproductions in one:

* **analytic** — the closed forms (6M/2M etc.) for a paper-scale model;
* **measured** — a tiny transformer trained for one step through each
  *functional* engine, every byte crossing the host path read off the
  devices' own I/O ledgers.
  The measured numbers must equal the closed forms exactly.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Dict

from ..api import create_engine
from ..nn.data import make_classification_dataset
from ..nn.models import get_model
from ..nn.transformer import SequenceClassifier, bert_config
from ..runtime.engine import TrainingConfig
from ..runtime.partition import distribute_shards
from ..runtime.stats import expected_traffic
from .report import render_table

RESULT_STEM = "table1_traffic"

METHOD_LABELS = {
    "baseline": "ZeRO-Inf",
    "smartupdate": "SmartUpdate",
    "smartcomp": "SmartComp (2%)",
}


@dataclass(frozen=True)
class Table1Result:
    """Analytic and measured per-iteration host traffic (bytes)."""

    model_name: str
    num_params_analytic: int
    analytic: Dict[str, Dict[str, int]]
    num_params_measured: int
    measured: Dict[str, Dict[str, int]]

    def matches(self) -> bool:
        """Measured == closed-form for every method."""
        for method, expected in self.measured.items():
            reference = expected_traffic(
                self.num_params_measured, method,
                shard_sizes=self._shard_sizes() if method == "smartcomp"
                else None)
            if expected != reference:
                return False
        return True

    def _shard_sizes(self):
        return [shard.count for shard in
                distribute_shards(self.num_params_measured, 3)]

    def render(self) -> str:
        m_bytes = 2 * self.num_params_analytic
        rows = []
        for method, traffic in self.analytic.items():
            rows.append((METHOD_LABELS[method],
                         f"{traffic['host_reads'] / m_bytes:.2f}M",
                         f"{traffic['host_writes'] / m_bytes:.2f}M"))
        part_a = render_table(
            ("method", "SSD read", "SSD write"), rows,
            title=(f"Table I (analytic, {self.model_name}, "
                   "M = fp16 model size)"))
        rows_m = [
            (METHOD_LABELS[method], traffic["host_reads"],
             traffic["host_writes"])
            for method, traffic in self.measured.items()
        ]
        part_b = render_table(
            ("method", "bytes read", "bytes written"), rows_m,
            title=(f"Table I (measured, functional engines, "
                   f"P={self.num_params_measured})"))
        return part_a + "\n\n" + part_b


def _loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def run(model_name: str = "gpt2-4.0b") -> Table1Result:
    """Regenerate Table I analytically and by functional measurement."""
    spec = get_model(model_name)
    analytic = {
        method: expected_traffic(spec.num_parameters, method)
        for method in ("baseline", "smartupdate", "smartcomp")
    }

    data = make_classification_dataset(num_train=8, seq_len=16,
                                       vocab_size=32, seed=0)
    config_kwargs = dict(optimizer="adam",
                         optimizer_kwargs={"lr": 1e-3},
                         subgroup_elements=4096)
    measured: Dict[str, Dict[str, int]] = {}
    num_params = 0

    def tiny_model():
        return SequenceClassifier(
            bert_config(vocab_size=32, dim=32, num_layers=2, num_heads=2,
                        max_seq_len=16), num_classes=3, seed=1)

    engines = {
        "baseline": lambda d: create_engine(
            "baseline", tiny_model(), _loss_fn, d,
            config=TrainingConfig(**config_kwargs, raid_members=3)),
        "smartupdate": lambda d: create_engine(
            "smart", tiny_model(), _loss_fn, d,
            config=TrainingConfig(**config_kwargs, num_csds=3)),
        "smartcomp": lambda d: create_engine(
            "smart", tiny_model(), _loss_fn, d,
            config=TrainingConfig(**config_kwargs, num_csds=3,
                                  compression_ratio=0.02)),
    }
    for method, factory in engines.items():
        with tempfile.TemporaryDirectory() as workdir:
            engine = factory(workdir)
            result = engine.train_step(data.train_tokens[:4],
                                       data.train_labels[:4])
            num_params = engine.num_params
            measured[method] = {
                "host_reads": result.traffic.host_reads,
                "host_writes": result.traffic.host_writes,
            }
            engine.close()

    return Table1Result(
        model_name=model_name,
        num_params_analytic=spec.num_parameters,
        analytic=analytic,
        num_params_measured=num_params,
        measured=measured,
    )
