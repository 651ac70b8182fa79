"""Zero-copy data path: ndarray I/O, buffer arenas, fused optimizers.

Three layers of guarantees:

* **storage** — ``pread_into``/``pwrite`` move ndarray bytes through the
  buffer protocol with no intermediate ``bytes`` objects, byte-identically
  to the legacy bytes path;
* **arena** — scratch buffers are pooled and size-classed, so at steady
  state a training step performs zero arena allocations (the fixed-
  footprint discipline of the paper's §IV-B transfer-handler buffers,
  applied host-side);
* **bit-identity** — the fused in-place optimizer kernels and the
  zero-copy engine paths produce results bit-identical to the pre-arena
  expression-per-line implementations, which are replicated verbatim in
  this file as references.

When ``ALLOC_PROFILE_OUT`` is set, the steady-state engine tests write an
allocation-profile JSON (consumed by the CI artifact step).
"""

import json
import os
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.compression.error_feedback import (ErrorFeedback,
                                              compress_with_feedback)
from repro.compression.topk import (CompressedGradient, compress_topk,
                                    decompress_topk, keep_count)
from repro.csd.kernels import DecompressorKernel
from repro.errors import ArenaError, KernelError, StorageError
from repro.memory import (BufferArena, MIN_CLASS_ELEMENTS,
                          aggregate_arena_stats, size_class, thread_arena)
from repro.optim.adagrad import AdaGrad
from repro.optim.adam import Adam, AdamW
from repro.optim.sgd import SGDMomentum
from repro.runtime import (BaselineOffloadEngine, SmartInfinityEngine,
                           TrainingConfig, distribute_shards)
from repro.runtime.engine import MixedPrecisionTrainer
from repro.nn import SequenceClassifier, bert_config
from repro.storage import FileBlockDevice, RAID0Volume, TensorStore


# ----------------------------------------------------------------------
# storage: pread_into / pwrite over the buffer protocol
# ----------------------------------------------------------------------
@pytest.fixture
def device(tmp_path):
    with FileBlockDevice(str(tmp_path / "dev.img"), 1 << 20) as dev:
        yield dev


def test_pread_into_roundtrips_ndarray(device):
    data = np.arange(1000, dtype=np.float32)
    device.pwrite(4096, data)
    out = np.empty(1000, dtype=np.float32)
    filled = device.pread_into(4096, out)
    assert filled == data.nbytes
    assert np.array_equal(out, data)


def test_pread_into_matches_bytes_path(device):
    rng = np.random.default_rng(1)
    data = rng.standard_normal(513).astype(np.float32)
    device.pwrite(100, data.tobytes())
    out = np.empty(513, dtype=np.float32)
    device.pread_into(100, out)
    assert np.array_equal(out, data)


def test_pread_into_sparse_tail_reads_zero(device):
    out = np.full(64, np.nan, dtype=np.float32)
    device.pread_into(device.capacity_bytes - out.nbytes, out)
    assert np.array_equal(out, np.zeros(64, dtype=np.float32))


def test_pread_into_partial_view(device):
    data = np.arange(100, dtype=np.int32)
    device.pwrite(0, data)
    out = np.zeros(100, dtype=np.int32)
    device.pread_into(0, out[:40])
    assert np.array_equal(out[:40], data[:40])
    assert not out[40:].any()


def test_pread_into_rejects_readonly_buffer(device):
    frozen = np.zeros(8, dtype=np.float32)
    frozen.setflags(write=False)
    with pytest.raises(StorageError):
        device.pread_into(0, frozen)


def test_zero_copy_io_rejects_non_contiguous(device):
    strided = np.zeros(32, dtype=np.float32)[::2]
    with pytest.raises(StorageError):
        device.pread_into(0, strided)
    with pytest.raises(StorageError):
        device.pwrite(0, strided)


def test_pread_into_bounds_checked(device):
    out = np.empty(4, dtype=np.float32)
    with pytest.raises(StorageError):
        device.pread_into(device.capacity_bytes - 8, out)


def test_zero_copy_counters_and_telemetry(device):
    data = np.ones(256, dtype=np.float32)
    out = np.empty(256, dtype=np.float32)
    with telemetry.session() as sess:
        device.pwrite(0, data)
        device.pread_into(0, out)
    assert device.counters.bytes_written == data.nbytes
    assert device.counters.bytes_read == data.nbytes
    # One op per call on the only I/O path, counted by the ledger alone:
    # the device writes nothing to the metrics registry.
    assert (device.counters.read_ops, device.counters.write_ops) == (1, 1)
    assert sess.registry.snapshot() == {}


def test_raid0_pread_into_cross_stripe(tmp_path):
    members = [FileBlockDevice(str(tmp_path / f"m{i}.img"), 1 << 18)
               for i in range(3)]
    with RAID0Volume(members, chunk_bytes=512) as volume:
        rng = np.random.default_rng(2)
        data = rng.standard_normal(1000).astype(np.float32)  # ~8 chunks
        volume.pwrite(300, data)
        out = np.empty(1000, dtype=np.float32)
        filled = volume.pread_into(300, out)
        assert filled == data.nbytes
        assert np.array_equal(out, data)


def test_raid0_ndarray_write_matches_bytes_write(tmp_path):
    def build(idx):
        members = [
            FileBlockDevice(str(tmp_path / f"s{idx}-{i}.img"), 1 << 18)
            for i in range(2)]
        return RAID0Volume(members, chunk_bytes=256)

    rng = np.random.default_rng(3)
    data = rng.standard_normal(700).astype(np.float32)
    with build(0) as via_bytes, build(1) as via_buffer:
        via_bytes.pwrite(128, data.tobytes())
        via_buffer.pwrite(128, data)
        images = [bytearray(4096), bytearray(4096)]
        via_bytes.pread_into(0, images[0])
        via_buffer.pread_into(0, images[1])
        assert images[0] == images[1] and any(images[0])


def test_tensor_store_read_array_is_writable(tmp_path):
    with FileBlockDevice(str(tmp_path / "t.img"), 1 << 18) as dev:
        store = TensorStore(dev)
        store.allocate("x", 100)
        store.write_array("x", np.arange(100, dtype=np.float32))
        loaded = store.read_array("x")
        loaded += 1.0  # must not raise: the caller owns the buffer
        assert loaded[0] == 1.0


def test_tensor_store_read_slice_into_validates(tmp_path):
    with FileBlockDevice(str(tmp_path / "t.img"), 1 << 18) as dev:
        store = TensorStore(dev)
        store.allocate("x", 100)
        with pytest.raises(StorageError):
            store.read_slice_into("x", 0, 10,
                                  np.empty(10, dtype=np.float64))
        with pytest.raises(StorageError):
            store.read_slice_into("x", 0, 10, np.empty(5, dtype=np.float32))
        with pytest.raises(StorageError):
            store.read_slice_into("x", 95, 10,
                                  np.empty(10, dtype=np.float32))
        with pytest.raises(StorageError):
            store.read_slice_into("x", 0, -1,
                                  np.empty(0, dtype=np.float32))


# ----------------------------------------------------------------------
# buffer arena
# ----------------------------------------------------------------------
def test_size_class_rounding():
    assert size_class(1) == MIN_CLASS_ELEMENTS
    assert size_class(256) == 256
    assert size_class(257) == 512
    assert size_class(4096) == 4096
    assert size_class(4097) == 8192
    with pytest.raises(ArenaError):
        size_class(0)


def test_arena_reuses_released_blocks():
    arena = BufferArena("test")
    first = arena.acquire(300)
    assert first.size == 300
    base_id = id(first.base)
    arena.release(first)
    second = arena.acquire(400)  # same 512-element class
    assert id(second.base) == base_id
    arena.release(second)
    stats = arena.stats()
    assert stats.allocations == 1
    assert stats.checkouts == 2
    assert stats.bytes_in_use == 0
    assert stats.high_water_bytes == 512 * 4


def test_arena_high_water_stays_flat():
    arena = BufferArena("test")
    for _ in range(10):
        with arena.checkout(1000) as a, arena.checkout(1000) as b:
            a[:] = 0.0
            b[:] = 0.0
    stats = arena.stats()
    assert stats.allocations == 2
    assert stats.high_water_bytes == 2 * size_class(1000) * 4
    assert stats.hit_rate == 1.0 - 2 / 20


def test_arena_dtype_classes_are_separate():
    arena = BufferArena("test")
    floats = arena.acquire(100, dtype=np.float32)
    ints = arena.acquire(100, dtype=np.int32)
    assert floats.dtype == np.float32
    assert ints.dtype == np.int32
    arena.release(floats)
    arena.release(ints)
    assert arena.stats().allocations == 2


def test_arena_double_release_raises():
    arena = BufferArena("test")
    block = arena.acquire(64)
    arena.release(block)
    with pytest.raises(ArenaError):
        arena.release(block)


def test_arena_foreign_release_raises():
    arena = BufferArena("test")
    with pytest.raises(ArenaError):
        arena.release(np.zeros(64, dtype=np.float32))


def test_arena_checkout_releases_on_exception():
    arena = BufferArena("test")
    with pytest.raises(RuntimeError):
        with arena.checkout(64):
            raise RuntimeError("boom")
    assert arena.stats().bytes_in_use == 0


def test_thread_arenas_are_private():
    arenas = {}

    def grab(slot):
        arenas[slot] = thread_arena()

    grab("main")
    worker = threading.Thread(target=grab, args=("worker",))
    worker.start()
    worker.join()
    assert arenas["main"] is thread_arena()
    assert arenas["main"] is not arenas["worker"]


def test_aggregate_stats_survive_arena_death():
    before = aggregate_arena_stats()
    arena = BufferArena("doomed")
    arena.release(arena.acquire(128))
    del arena
    after = aggregate_arena_stats()
    assert after.allocations == before.allocations + 1
    assert after.checkouts == before.checkouts + 1
    assert after.releases == before.releases + 1


# ----------------------------------------------------------------------
# fused optimizer kernels: bit-identity vs the pre-arena implementations
# ----------------------------------------------------------------------
def ref_adam_step(opt, params, grads, state, step_num):
    """Verbatim pre-fusion Adam step (expression per line)."""
    momentum = state["momentum"]
    variance = state["variance"]
    one = np.float32(1.0)
    momentum *= opt.beta1
    momentum += (one - opt.beta1) * grads
    variance *= opt.beta2
    variance += (one - opt.beta2) * (grads * grads)
    correction1 = one - opt.beta1 ** np.float32(step_num)
    correction2 = one - opt.beta2 ** np.float32(step_num)
    m_hat = momentum / correction1
    v_hat = variance / correction2
    params -= np.float32(opt.lr) * m_hat / (np.sqrt(v_hat) + opt.eps)


def ref_adamw_step(opt, params, grads, state, step_num):
    params -= np.float32(opt.lr) * opt.weight_decay * params
    ref_adam_step(opt, params, grads, state, step_num)


def ref_sgd_step(opt, params, grads, state, step_num):
    buf = state["momentum"]
    buf *= opt.momentum
    buf += grads
    params -= np.float32(opt.lr) * buf


def ref_adagrad_step(opt, params, grads, state, step_num):
    accumulator = state["accumulator"]
    accumulator += grads * grads
    params -= np.float32(opt.lr) * grads / (
        np.sqrt(accumulator) + opt.eps)


OPTIMIZERS = [
    (Adam(lr=1e-3), ref_adam_step),
    (AdamW(lr=1e-3, weight_decay=0.01), ref_adamw_step),
    (SGDMomentum(lr=1e-2), ref_sgd_step),
    (AdaGrad(lr=1e-2), ref_adagrad_step),
]


@pytest.mark.parametrize("opt,ref", OPTIMIZERS,
                         ids=[type(o).__name__ for o, _ in OPTIMIZERS])
@pytest.mark.parametrize("size", [1, 255, 256, 1000, 70_000])
def test_fused_step_bit_identical(opt, ref, size):
    rng = np.random.default_rng(size)
    fused_p = rng.standard_normal(size).astype(np.float32)
    ref_p = fused_p.copy()
    fused_s = opt.init_state(size)
    ref_s = opt.init_state(size)
    for step_num in range(1, 8):
        grads = rng.standard_normal(size).astype(np.float32)
        opt.step(fused_p, grads, fused_s, step_num)
        ref(opt, ref_p, grads.copy(), ref_s, step_num)
        assert np.array_equal(fused_p, ref_p)
        for name in opt.state_names:
            assert np.array_equal(fused_s[name], ref_s[name])


@pytest.mark.parametrize("opt,ref", OPTIMIZERS,
                         ids=[type(o).__name__ for o, _ in OPTIMIZERS])
def test_fused_step_bit_identical_nonfinite(opt, ref):
    """inf/nan gradients follow IEEE semantics identically in both paths."""
    grads = np.array([np.inf, -np.inf, np.nan, 1.0, 0.0, -0.0],
                     dtype=np.float32)
    fused_p = np.linspace(-1, 1, grads.size, dtype=np.float32)
    ref_p = fused_p.copy()
    fused_s = opt.init_state(grads.size)
    ref_s = opt.init_state(grads.size)
    with np.errstate(invalid="ignore"):
        opt.step(fused_p, grads, fused_s, 1)
        ref(opt, ref_p, grads.copy(), ref_s, 1)
    assert np.array_equal(fused_p, ref_p, equal_nan=True)
    for name in opt.state_names:
        assert np.array_equal(fused_s[name], ref_s[name], equal_nan=True)


def test_fused_step_allocates_nothing_at_steady_state():
    opt = Adam(lr=1e-3)
    params = np.zeros(5000, dtype=np.float32)
    state = opt.init_state(5000)
    grads = np.ones(5000, dtype=np.float32)
    opt.step(params, grads, state, 1)  # warm the thread arena
    before = thread_arena().stats()
    for step_num in range(2, 12):
        opt.step(params, grads, state, step_num)
    after = thread_arena().stats()
    assert after.allocations == before.allocations
    assert after.bytes_in_use == before.bytes_in_use
    assert after.high_water_bytes == before.high_water_bytes


# ----------------------------------------------------------------------
# compression: ordering contract, no aliasing, old-path bit-identity
# ----------------------------------------------------------------------
def ref_compress_topk(gradient, volume_ratio):
    """Verbatim pre-PR compressor (sort copy + gather copy)."""
    flat = np.ascontiguousarray(gradient, dtype=np.float32).reshape(-1)
    kept = keep_count(flat.size, volume_ratio)
    if kept >= flat.size:
        indices = np.arange(flat.size, dtype=np.int32)
    else:
        top = np.argpartition(np.abs(flat), flat.size - kept)[-kept:]
        indices = np.sort(top).astype(np.int32)
    return CompressedGradient(indices=indices,
                              values=flat[indices].copy(),
                              original_size=flat.size)


def test_compress_topk_matches_old_path():
    rng = np.random.default_rng(4)
    for size in (5, 300, 10_000):
        grads = rng.standard_normal(size).astype(np.float32)
        new = compress_topk(grads, 0.1)
        old = ref_compress_topk(grads, 0.1)
        assert np.array_equal(new.indices, old.indices)
        assert np.array_equal(new.values, old.values)
        assert np.all(np.diff(new.indices) > 0)  # ascending contract


def test_compress_topk_does_not_alias_input():
    grads = np.arange(1000, dtype=np.float32)
    compressed = compress_topk(grads, 0.1)
    snapshot = compressed.values.copy()
    grads[:] = -1.0
    assert np.array_equal(compressed.values, snapshot)


def test_compress_topk_abs_scratch_is_bit_identical():
    rng = np.random.default_rng(5)
    grads = rng.standard_normal(4000).astype(np.float32)
    scratch = thread_arena().acquire(4000)
    try:
        with_scratch = compress_topk(grads, 0.05, abs_scratch=scratch)
    finally:
        thread_arena().release(scratch)
    plain = compress_topk(grads, 0.05)
    assert np.array_equal(with_scratch.indices, plain.indices)
    assert np.array_equal(with_scratch.values, plain.values)


def test_error_feedback_matches_old_path():
    rng = np.random.default_rng(6)
    size = 2000
    new_fb = ErrorFeedback(size)
    old_residual = np.zeros(size, dtype=np.float32)
    for _ in range(5):
        grads = rng.standard_normal(size).astype(np.float32)
        compressed = compress_with_feedback(grads, new_fb, 0.1)
        # old path: fresh temporaries, rebound residual
        compensated = grads + old_residual
        old_compressed = ref_compress_topk(compensated, 0.1)
        old_residual = compensated - decompress_topk(old_compressed)
        assert np.array_equal(compressed.indices, old_compressed.indices)
        assert np.array_equal(compressed.values, old_compressed.values)
        assert np.array_equal(new_fb.residual, old_residual)


def test_error_feedback_nonfinite_residual_matches_old_path():
    """A kept inf leaves inf - inf = nan in the residual, both paths."""
    size = 300
    grads = np.zeros(size, dtype=np.float32)
    grads[7] = np.inf
    grads[11] = 42.0
    new_fb = ErrorFeedback(size)
    with np.errstate(invalid="ignore"):
        compressed = compress_with_feedback(grads, new_fb, 0.1)
        compensated = grads + np.zeros(size, dtype=np.float32)
        old_compressed = ref_compress_topk(compensated, 0.1)
        old_residual = compensated - decompress_topk(old_compressed)
    assert np.array_equal(compressed.values, old_compressed.values)
    assert np.isnan(old_residual[7])
    assert np.array_equal(new_fb.residual, old_residual, equal_nan=True)


def test_decompressor_vectorized_bounds_check_still_raises():
    kernel = DecompressorKernel(chunk_elements=4)
    bad = CompressedGradient(
        indices=np.array([0, 5, 99], dtype=np.int32),
        values=np.ones(3, dtype=np.float32),
        original_size=50)
    output = np.zeros(50, dtype=np.float32)
    with pytest.raises(KernelError):
        kernel.run(bad, output)
    good = CompressedGradient(
        indices=np.array([0, 5, 49], dtype=np.int32),
        values=np.array([1.0, 2.0, 3.0], dtype=np.float32),
        original_size=50)
    result = kernel.run(good, output)
    assert result[49] == 3.0


# ----------------------------------------------------------------------
# engines: old-path bit-identity + zero steady-state arena allocation
# ----------------------------------------------------------------------
VOCAB = 32
SEQ = 12

#: Collected by the steady-state tests; dumped to ALLOC_PROFILE_OUT.
_ALLOC_PROFILE = {"steady_state_allocations": 0, "engines": {}}


@pytest.fixture(scope="module", autouse=True)
def _write_alloc_profile():
    yield
    out_path = os.environ.get("ALLOC_PROFILE_OUT")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(_ALLOC_PROFILE, handle, indent=2, sort_keys=True)


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def make_model(seed=7):
    return SequenceClassifier(
        bert_config(vocab_size=VOCAB, dim=16, num_layers=1, num_heads=2,
                    max_seq_len=SEQ), num_classes=2, seed=seed)


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, VOCAB, size=(2, SEQ))
    labels = rng.integers(0, 2, size=2)
    return tokens, labels


class OldPathTrainer(MixedPrecisionTrainer):
    """Pre-PR reference: textbook expressions, fresh temporaries.

    Shares forward/backward (untouched by the zero-copy change) and
    replays the update with the verbatim pre-fusion optimizer and
    compressor above, per shard, on host-resident state.  Because every
    update is element-wise, this flat replay is bit-identical to what the
    storage engines computed before the zero-copy refactor.
    """

    def __init__(self, model, loss_fn, config, num_shards=1):
        super().__init__(model, loss_fn, config)
        total = self.space.total_elements
        self._masters = self.space.gather_params()
        self._state = self.optimizer.init_state(total)
        self._shards = distribute_shards(total, num_shards)
        self._residuals = {
            shard.device_id: np.zeros(shard.count, dtype=np.float32)
            for shard in self._shards}
        self.space.install_fp16_params(self._masters)

    def train_step(self, tokens, labels):
        loss, grads, _norm, overflow = self.forward_backward(
            (tokens, labels))
        if not self.scaler.update(overflow):
            return loss
        self.step_count += 1
        self._apply_lr_schedule()
        ratio = self.config.compression_ratio
        for shard in self._shards:
            shard_grads = grads[shard.start:shard.end]
            if ratio is not None:
                compensated = (shard_grads
                               + self._residuals[shard.device_id])
                compressed = ref_compress_topk(compensated, ratio)
                dense = decompress_topk(compressed)
                self._residuals[shard.device_id] = compensated - dense
                shard_grads = dense
            params = self._masters[shard.start:shard.end]
            state = {name: buf[shard.start:shard.end]
                     for name, buf in self._state.items()}
            ref_adam_step(self.optimizer, params, shard_grads, state,
                          self.step_count)
            self.space.install_fp16_slice(shard.start, params)
        return loss


def engine_config(**kwargs):
    base = dict(optimizer="adam", optimizer_kwargs={"lr": 1e-2},
                subgroup_elements=1024, parallel_csds=1)
    base.update(kwargs)
    return TrainingConfig(**base)


ENGINE_CASES = {
    "baseline": lambda d: BaselineOffloadEngine(
        make_model(), loss_fn, d,
        config=engine_config(raid_members=2)),
    "smartupdate": lambda d: SmartInfinityEngine(
        make_model(), loss_fn, d, config=engine_config(num_csds=2)),
    "su_o_c": lambda d: SmartInfinityEngine(
        make_model(), loss_fn, d,
        config=engine_config(num_csds=2, compression_ratio=0.04)),
}


def reference_for(name):
    if name == "su_o_c":
        return OldPathTrainer(
            make_model(), loss_fn,
            engine_config(num_csds=2, compression_ratio=0.04),
            num_shards=2)
    return OldPathTrainer(make_model(), loss_fn, engine_config())


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_engine_zero_copy_path_is_bit_identical_and_steady(
        tmp_path, name):
    """≥10 steps: bit-identical to the old path, flat arena footprint."""
    warmup, measured = 3, 10
    engine = ENGINE_CASES[name](str(tmp_path / name))
    reference = reference_for(name)
    try:
        for step in range(warmup):
            tokens, labels = make_batch(step)
            engine.train_step(tokens, labels)
            reference.train_step(tokens, labels)
        before = aggregate_arena_stats()
        for step in range(warmup, warmup + measured):
            tokens, labels = make_batch(step)
            engine.train_step(tokens, labels)
            reference.train_step(tokens, labels)
        after = aggregate_arena_stats()

        assert np.array_equal(engine.space.gather_params(),
                              reference.space.gather_params())
        growth = after.allocations - before.allocations
        assert growth == 0, (
            f"{name}: {growth} arena allocations during steady state")
        assert after.bytes_in_use == before.bytes_in_use
        assert after.checkouts > before.checkouts  # pools actually used
        stats = engine.arena_stats()
        assert stats.high_water_bytes == after.high_water_bytes
        _ALLOC_PROFILE["steady_state_allocations"] += growth
        _ALLOC_PROFILE["engines"][name] = {
            "steps_measured": measured,
            "allocations_delta": growth,
            "checkouts_delta": after.checkouts - before.checkouts,
            "high_water_bytes": after.high_water_bytes,
        }
    finally:
        engine.close()
