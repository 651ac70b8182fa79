"""Host-memory offloaded training (the ZeRO-Offload substrate, §II).

Before storage offloading, the intermediate point in the memory hierarchy
is host DRAM: FP32 optimizer states live in pinned host memory and the
CPU executes the update, with no storage involved.  The paper builds on
this lineage ([90], [98]); this engine implements it as the third member
of the engine family, sharing the same mixed-precision forward/backward,
so all three can be compared on identical footing:

* :class:`HostOffloadEngine` — states in host DRAM, CPU update, zero
  storage traffic (but the whole model must fit in host memory);
* :class:`~repro.runtime.engine.BaselineOffloadEngine` — states on
  RAID0 storage, CPU update (ZeRO-Infinity);
* :class:`~repro.runtime.smart.SmartInfinityEngine` — states on CSDs,
  near-storage FPGA update.

Training through this engine is bit-identical to both of the others (the
update arithmetic is the same flat element-wise step), which the tests
assert — the whole engine family computes one trajectory.  That is its
job here: the storage-less reference the other two are compared against,
a sequential in-memory loop over the shared trainer's hooks.  With no
gradient offload there is nothing for ``schedule="interleaved"`` to
fuse, so both schedules run the same update.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from .. import telemetry
from ..errors import TrainingError
from ..nn.modules import Module
from .engine import LossFn, MixedPrecisionTrainer, TrainingConfig


class HostOffloadEngine(MixedPrecisionTrainer):
    """ZeRO-Offload-style training: optimizer states in host memory."""

    engine_name = "host"

    def __init__(self, model: Module, loss_fn: LossFn,
                 config: Optional[TrainingConfig] = None) -> None:
        config = config or TrainingConfig()
        # No storage directory: activation_offload="spill" is rejected.
        super().__init__(model, loss_fn, config)
        total = self.space.total_elements
        states_bytes = 4 * total * self.optimizer.states_per_param
        if config.host_memory_bytes is not None \
                and states_bytes > config.host_memory_bytes:
            self._shutdown(abandon=True)
            raise TrainingError(
                f"optimizer states need {states_bytes} B but host memory "
                f"is {config.host_memory_bytes} B — this is exactly the "
                "wall storage-offloaded training exists to break")
        self._masters = self.space.gather_params()
        self._state = self.optimizer.init_state(total)
        self.space.install_fp16_params(self._masters)

    def _update(self, flat_grads: np.ndarray) -> None:
        """Block-wise CPU update over the host-resident states (the
        fused optimizer stages its temporaries in the thread's arena, so
        a steady-state pass allocates no ndarrays)."""
        total = self.space.total_elements
        size = self.config.subgroup_elements
        with telemetry.trace_span("host_update", resource="host-cpu"):
            for start in range(0, total, size):
                stop = min(start + size, total)
                chunk_state = {name: buf[start:stop]
                               for name, buf in self._state.items()}
                self.optimizer.step(self._masters[start:stop],
                                    flat_grads[start:stop], chunk_state,
                                    self.step_count)
                self.space.install_fp16_slice(start,
                                              self._masters[start:stop])

    def state_arrays(self) -> Sequence[np.ndarray]:
        """The host-resident optimizer state (for inspection/tests)."""
        return [self._masters] + [self._state[name]
                                  for name in self.optimizer.state_names]

    def gather_state_arrays(self) -> Dict[str, np.ndarray]:
        """Flat masters + moments for checkpointing (private copies)."""
        return {"master_params": self._masters.copy(),
                **{name: self._state[name].copy()
                   for name in self.optimizer.state_names}}

    def scatter_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Adopt flat masters + moments from a checkpoint."""
        self._masters[:] = arrays["master_params"]
        for name in self.optimizer.state_names:
            self._state[name][:] = arrays[name]
