"""Checkpointing for the offload engines.

Fine-tuning jobs (the paper's §VII-J use case) need durable state: the
FP32 masters, the optimizer moments, the loss-scaler state and the step
counter.  A checkpoint taken from any engine restores into any other —
the engines share one flat state layout, which each exposes through
``gather_state_arrays`` / ``scatter_state_arrays`` — so a run can start
on the baseline and resume under Smart-Infinity, bit-identically
(tested).  Checkpoint I/O is maintenance traffic, outside the fault
domain.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from ..errors import TrainingError

#: Format marker for forward compatibility.
FORMAT_VERSION = 1


def save_checkpoint(engine, path: str) -> None:
    """Persist an engine's full training state to ``path``, atomically.

    The archive is written to a temp file beside ``path``, flushed to
    the device and renamed over it, so a crash mid-save leaves the
    previous checkpoint intact; the directory is flushed after the
    rename, so a crash after the return cannot bring the previous one
    back.  ``path`` is used verbatim (no ``.npz`` suffix is appended).
    """
    arrays = engine.gather_state_arrays()
    temp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(temp, "wb") as handle:
            np.savez(
                handle,
                format_version=FORMAT_VERSION,
                step_count=engine.step_count,
                loss_scale=engine.scaler.scale,
                good_steps=engine.scaler._good_steps,
                skipped_steps=engine.scaler.skipped_steps,
                optimizer=engine.config.optimizer,
                num_params=engine.num_params,
                **arrays,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def load_checkpoint(engine, path: str) -> None:
    """Restore an engine from a checkpoint written by any engine.

    Validates the optimizer family and parameter count, restores masters,
    moments, scaler and step counter, and refreshes the FP16 working copy
    so the next forward uses the restored weights.
    """
    with np.load(path, allow_pickle=False) as data:
        if int(data["format_version"]) != FORMAT_VERSION:
            raise TrainingError(
                f"unsupported checkpoint version "
                f"{int(data['format_version'])}")
        if str(data["optimizer"]) != engine.config.optimizer:
            raise TrainingError(
                f"checkpoint is for optimizer {data['optimizer']!r}, "
                f"engine uses {engine.config.optimizer!r}")
        if int(data["num_params"]) != engine.num_params:
            raise TrainingError(
                f"checkpoint has {int(data['num_params'])} parameters, "
                f"engine has {engine.num_params}")
        arrays = {"master_params": data["master_params"]}
        for name in engine.optimizer.state_names:
            if name not in data:
                raise TrainingError(f"checkpoint missing state {name!r}")
            arrays[name] = data[name]
        if "ef_residual" in data:
            arrays["ef_residual"] = data["ef_residual"]
        engine.scatter_state_arrays(arrays)
        engine.step_count = int(data["step_count"])
        engine.scaler.scale = float(data["loss_scale"])
        # Absent in files written before the growth countdown was saved.
        engine.scaler._good_steps = (int(data["good_steps"])
                                     if "good_steps" in data else 0)
        engine.scaler.skipped_steps = int(data["skipped_steps"])
    working = arrays["master_params"].copy()
    mask = getattr(engine, "pruning_mask", None)
    if mask is not None:
        mask.apply(working)
    engine.space.install_fp16_params(working)
