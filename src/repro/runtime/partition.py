"""Flat parameter space and CSD workload distribution (§IV-D).

Smart-Infinity flattens the whole model into one contiguous parameter
address space and distributes equal contiguous shards to the CSDs.  Because
optimizer updates are element-wise, the distribution is agnostic to model
architecture — no layer/head/hidden-dim knowledge is needed — which is the
property this module preserves and the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import PartitionError
from ..nn.modules import Module
from ..nn.precision import round_fp16


@dataclass(frozen=True)
class ParamSlot:
    """One parameter tensor's placement in the flat space."""

    name: str
    offset: int
    size: int
    shape: Tuple[int, ...]

    @property
    def end(self) -> int:
        return self.offset + self.size


class FlatParameterSpace:
    """Bijection between a module's parameters and one flat float32 vector.

    The flat order is the module's deterministic ``named_parameters``
    order; offsets are contiguous with no padding, so every element of the
    flat vector maps to exactly one model parameter element.

    The space **owns the working copy**: one flat float32 buffer, with
    every ``param.data`` bound at construction to a reshaped view of its
    slot.  An install is a copy into a flat range — no tree walk, no
    re-binding — and concurrent per-CSD workers install *disjoint*
    ranges, so they need no lock even when two ranges straddle one
    parameter tensor.  Installs overwrite live parameter storage, so
    they must not overlap a forward/backward pass still using those
    parameters (the constraint on a gradient-ready interleaving,
    ROADMAP item 2b).

    ``param.data`` may still be re-bound from outside (``Module.
    load_state_dict`` does); :meth:`gather_grads` — run by every step
    before its installs — :meth:`gather_params` and
    :meth:`scatter_params` re-adopt such a parameter (copy in, bind
    back), so updates never land in storage the model no longer reads.

    The space **owns the gradient** the same way: one flat float32
    buffer, each parameter's slot of it bound as the place the first
    gradient of a backward pass is written to (``Tensor._accumulate``;
    later ones add in place), so the model's gradients exist exactly
    once and :meth:`gather_grads` has nothing to copy.  A ``.grad``
    assigned from outside, or a parameter a second space has bound to
    its own buffer, is re-adopted there like a re-bound ``.data``.
    """

    def __init__(self, module: Module) -> None:
        self.module = module
        self.slots: List[ParamSlot] = []
        params = []
        offset = 0
        for name, param in module.named_parameters():
            slot = ParamSlot(name=name, offset=offset, size=param.size,
                             shape=param.data.shape)
            self.slots.append(slot)
            params.append(param)
            offset += param.size
        if offset == 0:
            raise PartitionError("module has no parameters")
        self.total_elements = offset
        self._by_name: Dict[str, ParamSlot] = {
            slot.name: slot for slot in self.slots}
        self._flat = np.empty(offset, dtype=np.float32)
        self._flat_grads = np.empty(offset, dtype=np.float32)
        #: (parameter, slot, the views of ``_flat`` and ``_flat_grads``
        #: its data and its gradient are bound to).
        self._bound = [
            (param, slot,
             self._flat[slot.offset:slot.end].reshape(slot.shape),
             self._flat_grads[slot.offset:slot.end].reshape(slot.shape))
            for param, slot in zip(params, self.slots)]
        self._adopt_detached()
        self._adopt_grads()

    def slot(self, name: str) -> ParamSlot:
        try:
            return self._by_name[name]
        except KeyError:
            raise PartitionError(f"unknown parameter {name!r}")

    def _adopt_detached(self) -> None:
        """Re-bind parameters bound elsewhere, keeping their values."""
        for param, _slot, view, _grad_view in self._bound:
            if param.data is not view:
                np.copyto(view, param.data)
                param.data = view

    def _adopt_grads(self) -> None:
        """Make every slot of the flat gradient buffer hold its
        parameter's gradient (zeros where it has none) and be where the
        next backward pass writes it."""
        for param, _slot, _view, grad_view in self._bound:
            param._grad_buffer = grad_view
            if param.grad is None:
                grad_view.fill(0.0)
            elif param.grad is not grad_view:
                np.copyto(grad_view.reshape(-1), param.grad.reshape(-1))
                param.grad = grad_view

    # ------------------------------------------------------------------
    # gather / scatter
    # ------------------------------------------------------------------
    def gather_params(self) -> np.ndarray:
        """Current module parameters as one flat float32 vector (a copy)."""
        self._adopt_detached()
        return self._flat.copy()

    def _full(self, flat: np.ndarray) -> np.ndarray:
        """The live flat buffer, as the target of a whole-model ``flat``."""
        if flat.ndim != 1 or flat.size != self.total_elements:
            raise PartitionError(
                f"flat vector must have {self.total_elements} elements, "
                f"got shape {flat.shape}")
        self._adopt_detached()
        return self._flat

    def _range(self, start: int, count: int) -> np.ndarray:
        """Live storage of flat range [start, start+count)."""
        end = start + count
        if start < 0 or end > self.total_elements:
            raise PartitionError(
                f"slice [{start}, {end}) outside flat space of "
                f"{self.total_elements}")
        return self._flat[start:end]

    def scatter_params(self, flat: np.ndarray) -> None:
        """Write a flat vector back into the module's parameters."""
        np.copyto(self._full(flat), flat, casting="same_kind")

    def scatter_slice(self, start: int, values: np.ndarray) -> None:
        """Write ``values`` into flat range [start, start+len) of the module.

        Used by the runtime to install updated parameters subgroup by
        subgroup as their urgent write-backs complete, without waiting for
        the whole model.
        """
        np.copyto(self._range(start, values.size), values,
                  casting="same_kind")

    def gather_grads(self, scale: float = 1.0) -> np.ndarray:
        """The accumulated gradients times ``scale``: the flat gradient
        buffer itself, unscaled in place (zeros where a parameter
        received no gradient).

        The result is valid until the next backward pass writes into it;
        each ``param.grad`` is a view of it, so it reads the scaled
        values afterwards, and a second call scales them again.
        """
        self._adopt_detached()
        self._adopt_grads()
        self._flat_grads *= np.float32(scale)
        return self._flat_grads

    def resident(self) -> Dict[str, int]:
        """Bytes of the two flat buffers (see
        :func:`~repro.runtime.stats.expected_host_resident`)."""
        return {"flat_params": self._flat.nbytes,
                "flat_grads": self._flat_grads.nbytes}

    def install_fp16_params(self, masters: np.ndarray) -> None:
        """Install the FP16 working copy derived from FP32 masters.

        Mixed-precision semantics: the module computes forward/backward on
        parameters quantized through FP16, while ``masters`` stay FP32 in
        the optimizer state.
        """
        round_fp16(masters, self._full(masters))

    def install_fp16_slice(self, start: int, masters: np.ndarray) -> None:
        """FP16-quantize one flat slice of master parameters straight
        into the live flat buffer (no half-precision temporary)."""
        round_fp16(masters, self._range(start, masters.size))


@dataclass(frozen=True)
class Shard:
    """A contiguous flat range owned by one CSD."""

    device_id: int
    start: int
    count: int

    @property
    def end(self) -> int:
        return self.start + self.count


def distribute_shards(total_elements: int, num_devices: int) -> List[Shard]:
    """Equally distribute the flat space over ``num_devices`` CSDs.

    Shards are contiguous and cover every element exactly once; sizes
    differ by at most one element.  Architecture information is never
    consulted — only the flat length (§IV-D).
    """
    if num_devices < 1:
        raise PartitionError("need at least one device")
    if total_elements < num_devices:
        raise PartitionError(
            f"cannot distribute {total_elements} elements over "
            f"{num_devices} devices")
    base, remainder = divmod(total_elements, num_devices)
    shards = []
    start = 0
    for device_id in range(num_devices):
        count = base + (1 if device_id < remainder else 0)
        shards.append(Shard(device_id=device_id, start=start, count=count))
        start += count
    return shards
