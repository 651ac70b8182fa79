"""The four benchmark workloads and the inputs a seed makes for them.

Each workload stresses a different set of layers (see ``README.md``):

* ``smart_suoc``     — the paper's full system (SU+O+C); update-bound.
* ``baseline_raid0`` — the ZeRO-Infinity comparison point; same model,
  data and seed, same ``storage``/``optim`` layers used differently,
  bypasses ``csd``/``compression``/worker pools.
* ``compute_spill``  — ``nn``-bound (checkpointed loss, activation
  spill), dense gradient offload, interleaved schedule.
* ``des_sweep``      — no engine: DES + attribution + critical path.

Model sizing.  The update-bound pair uses a 256-token vocabulary on
purpose: ``compress_topk`` selects with ``argpartition``, which is ~20x
slower on a shard that is mostly exact zeros (measured: 2 ms dense vs
60 ms at 90 % zeros on a 1 M-element shard), and a 4096-row embedding
touched by 32 tokens per batch puts shard 0 right on that cliff — step
time then swings 2x with the seed.  The cliff itself is measured by the
isolated ``compression.topk_sparse_melems_s`` metric instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class TrainingWorkload:
    """One functional-engine workload: model, engine config, step counts."""

    why: str
    mode: str                      # create_engine mode
    config: Dict[str, object]      # TrainingConfig fields
    model: Dict[str, int]          # gpt2_config kwargs
    batch: int
    num_batches: int
    warmup: int
    steps: int
    checkpointed: bool             # loss = checkpointed_lm_loss
    traffic: str                   # expected_traffic method (Table I)

    @property
    def seq_len(self) -> int:
        return self.model["max_seq_len"]


@dataclass(frozen=True)
class SweepWorkload:
    """The DES workload: one step is one pass over the scenario grid."""

    why: str
    models: Tuple[str, ...]
    csds: Tuple[int, ...]
    warmup: int
    steps: int
    #: Scenario whose baseline/su_o_c ratio is the paper's Fig. 9 headline.
    headline: Tuple[str, int] = ("gpt2-4.0b", 10)


_ADAM = {"optimizer": "adam", "optimizer_kwargs": {"lr": 1e-3}}

#: ~1.72 M parameters; forward/backward is ~30 % of a baseline step.
UPDATE_BOUND_MODEL = dict(vocab_size=256, dim=256, num_layers=2,
                          num_heads=4, max_seq_len=16)

#: ~0.24 M parameters, 4 blocks, long sequences: autograd dominates.
COMPUTE_BOUND_MODEL = dict(vocab_size=256, dim=64, num_layers=4,
                           num_heads=4, max_seq_len=64)

WORKLOADS: Dict[str, object] = {
    "smart_suoc": TrainingWorkload(
        why="Paper's full system (SU+O+C, 2 CSDs, 2 threads, 2% Top-K): "
            "update-bound, so csd, compression, optim, p2p storage "
            "slices and the worker pool carry the step; nn does little.",
        mode="smart",
        config=dict(_ADAM, num_csds=2, parallel_csds=2,
                    parallel_backend="thread", use_transfer_handler=True,
                    compression_ratio=0.02, error_feedback=True,
                    schedule="phased", activation_offload="recompute"),
        model=UPDATE_BOUND_MODEL, batch=2, num_batches=16,
        warmup=10, steps=40, checkpointed=False, traffic="smartcomp"),
    "baseline_raid0": TrainingWorkload(
        why="ZeRO-Infinity baseline on 2-way RAID0, same model/data/seed:"
            " 16 B/param striped in big blocks, host-loop optimizer; "
            "bypasses csd, compression and worker pools entirely.",
        mode="baseline",
        config=dict(_ADAM, raid_members=2),
        model=UPDATE_BOUND_MODEL, batch=2, num_batches=16,
        warmup=10, steps=60, checkpointed=False, traffic="baseline"),
    "compute_spill": TrainingWorkload(
        why="nn-bound: checkpointed loss, activation spill, interleaved,"
            " dense offload on 1 CSD; autograd or real-interleaving "
            "gains show here, storage/optimizer changes must not.",
        mode="smart",
        config=dict(_ADAM, num_csds=1, schedule="interleaved",
                    activation_offload="spill"),
        model=COMPUTE_BOUND_MODEL, batch=4, num_batches=8,
        warmup=10, steps=50, checkpointed=True, traffic="smartupdate"),
    "des_sweep": SweepWorkload(
        why="No engine: 48 DES scenarios, each traced, attributed and "
            "critical-pathed; the path experiments/top/whatif and a "
            "third of tier-1 run. Simulated results repeat exactly.",
        models=("gpt2-1.16b", "gpt2-4.0b"), csds=(1, 4, 10),
        warmup=2, steps=8),
}

#: Tiny step counts for ``--smoke``: numbers are not comparable.
SMOKE_WARMUP, SMOKE_STEPS = 1, 3

#: Overall step (warm-up included) at which the cross-engine probe
#: compares parameter checksums (the paper's SU == baseline claim).
CROSSCHECK_STEPS = 20


def make_inputs(name: str, seed: int) -> Optional[np.ndarray]:
    """The token batches ``seed`` generates for a training workload.

    Shape ``(num_batches, batch, seq_len + 1)``.  The engines receive
    only these arrays; ``des_sweep`` has no data inputs (its grid is
    fixed, which is why its simulated results repeat exactly).
    """
    workload = WORKLOADS[name]
    if not isinstance(workload, TrainingWorkload):
        return None
    from repro.nn import make_lm_dataset
    tokens = make_lm_dataset(
        num_sequences=workload.num_batches * workload.batch,
        seq_len=workload.seq_len + 1,
        vocab_size=workload.model["vocab_size"], seed=seed)
    return tokens.reshape(workload.num_batches, workload.batch, -1)


def _lm_loss(model, tokens):
    return model.loss(tokens)


def build_engine(workload: TrainingWorkload, seed: int, storage_dir: str,
                 wrap_loss: Optional[Callable] = None,
                 mode: Optional[str] = None, **config_overrides):
    """Model (initialised from ``seed``) + engine for ``workload``.

    ``wrap_loss`` lets a traced run put its forward span around the
    loss function, which the harness owns.  ``mode`` and
    ``config_overrides`` derive the cross-check and A/B probe arms.
    """
    from repro.api import TrainingConfig, create_engine
    from repro.nn import LanguageModel, checkpointed_lm_loss, gpt2_config

    model = LanguageModel(gpt2_config(**workload.model), seed=seed)
    loss_fn = checkpointed_lm_loss if workload.checkpointed else _lm_loss
    if wrap_loss is not None:
        loss_fn = wrap_loss(loss_fn)
    config = TrainingConfig(**{**workload.config, **config_overrides})
    return create_engine(mode or workload.mode, model, loss_fn,
                         storage_dir, config=config)
