"""Storage-offloaded training runtime: baseline and Smart-Infinity engines."""

from .checkpoint import load_checkpoint, save_checkpoint
from .engine import (BaselineOffloadEngine, CONFIG_SCHEMA_VERSION, LossFn,
                     MixedPrecisionTrainer, StepResult, TrainingConfig)
from .host_offload import HostOffloadEngine
from .parallel import (CSDWorkerPool, ProcessCSDWorkerPool,
                       resolve_backend, resolve_workers, usable_cpus)
from .partition import (FlatParameterSpace, ParamSlot, Shard,
                        distribute_shards)
from .smart import SmartInfinityEngine
from .stats import (IterationTraffic, TrafficMeter, expected_host_resident,
                    expected_traffic)

__all__ = [
    "BaselineOffloadEngine",
    "CONFIG_SCHEMA_VERSION",
    "CSDWorkerPool",
    "HostOffloadEngine",
    "load_checkpoint",
    "save_checkpoint",
    "FlatParameterSpace",
    "IterationTraffic",
    "LossFn",
    "MixedPrecisionTrainer",
    "ParamSlot",
    "ProcessCSDWorkerPool",
    "Shard",
    "SmartInfinityEngine",
    "StepResult",
    "TrafficMeter",
    "TrainingConfig",
    "distribute_shards",
    "expected_host_resident",
    "expected_traffic",
    "resolve_backend",
    "resolve_workers",
    "usable_cpus",
]
