"""Flat-array optimizers matching the FPGA updater's element-wise form."""

from .adagrad import AdaGrad
from .adam import Adam, AdamW
from .base import FlatOptimizer, StateDict
from .schedule import (Schedule, constant_schedule, cosine_warmup_decay,
                       linear_warmup_decay, make_schedule)
from .sgd import SGDMomentum

#: Registry used by the runtime and the CSD kernel templates.
OPTIMIZERS = {
    "adam": Adam,
    "adamw": AdamW,
    "sgd": SGDMomentum,
    "adagrad": AdaGrad,
}


def make_optimizer(name: str, **kwargs) -> FlatOptimizer:
    """Instantiate an optimizer by registry name."""
    try:
        cls = OPTIMIZERS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(OPTIMIZERS))
        raise KeyError(f"unknown optimizer {name!r}; known: {known}")
    return cls(**kwargs)


__all__ = [
    "AdaGrad",
    "Adam",
    "AdamW",
    "FlatOptimizer",
    "OPTIMIZERS",
    "SGDMomentum",
    "Schedule",
    "StateDict",
    "constant_schedule",
    "cosine_warmup_decay",
    "linear_warmup_decay",
    "make_optimizer",
    "make_schedule",
]
