"""Tests for the functional storage substrate."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import FileBlockDevice, RAID0Volume, TensorStore


def read(device, offset, length):
    """``length`` bytes at ``offset``, through the one read path."""
    out = bytearray(length)
    assert device.pread_into(offset, out) == length
    return bytes(out)


def read_slice(store, name, start, count):
    out = np.empty(max(count, 0), dtype=store.region(name).dtype)
    return store.read_slice_into(name, start, count, out)


@pytest.fixture
def device(tmp_path):
    with FileBlockDevice(str(tmp_path / "dev.img"), 1 << 20) as dev:
        yield dev


# ----------------------------------------------------------------------
# FileBlockDevice
# ----------------------------------------------------------------------
def test_blockdev_write_read_roundtrip(device):
    device.pwrite(100, b"hello world")
    assert read(device, 100, 11) == b"hello world"


def test_blockdev_unwritten_reads_zero(device):
    assert read(device, 5000, 8) == b"\x00" * 8


def test_blockdev_bounds_checked(device):
    with pytest.raises(StorageError):
        read(device, device.capacity_bytes - 4, 8)
    with pytest.raises(StorageError):
        device.pwrite(-1, b"x")
    with pytest.raises(StorageError):
        read(device, -1, 2)


def test_blockdev_counters_track_bytes_and_ops(device):
    device.pwrite(0, b"abcd")
    read(device, 0, 2)
    read(device, 0, 2)
    assert device.counters.bytes_written == 4
    assert device.counters.bytes_read == 4
    assert device.counters.write_ops == 1
    assert device.counters.read_ops == 2


def test_blockdev_counter_snapshot_delta(device):
    device.pwrite(0, b"abcd")
    snap = device.counters.snapshot()
    device.pwrite(0, b"efgh")
    delta = device.counters.delta(snap)
    assert delta.bytes_written == 4
    assert delta.write_ops == 1


def test_blockdev_closed_rejects_io(tmp_path):
    device = FileBlockDevice(str(tmp_path / "d.img"), 1024)
    device.close()
    with pytest.raises(StorageError):
        read(device, 0, 4)
    device.close()  # idempotent


def test_blockdev_persists_across_reopen(tmp_path):
    path = str(tmp_path / "persist.img")
    with FileBlockDevice(path, 4096) as dev:
        dev.pwrite(10, b"durable")
        dev.flush()
    with FileBlockDevice(path, 4096) as dev:
        assert read(dev, 10, 7) == b"durable"


def test_blockdev_rejects_zero_capacity(tmp_path):
    with pytest.raises(StorageError):
        FileBlockDevice(str(tmp_path / "z.img"), 0)


# ----------------------------------------------------------------------
# RAID0
# ----------------------------------------------------------------------
def make_raid(tmp_path, members=3, capacity=1 << 16, chunk=512):
    devices = [FileBlockDevice(str(tmp_path / f"m{i}.img"), capacity)
               for i in range(members)]
    return RAID0Volume(devices, chunk_bytes=chunk)


def test_raid0_roundtrip_across_stripe_boundaries(tmp_path):
    raid = make_raid(tmp_path, chunk=16)
    payload = bytes(range(256)) * 3
    raid.pwrite(5, payload)
    assert read(raid, 5, len(payload)) == payload
    raid.close()


def test_raid0_distributes_across_members(tmp_path):
    raid = make_raid(tmp_path, members=4, chunk=64)
    raid.pwrite(0, b"x" * 64 * 8)  # 8 chunks over 4 members
    written = [m.counters.bytes_written for m in raid.members]
    assert all(w == 128 for w in written)
    raid.close()


def test_raid0_capacity_is_sum(tmp_path):
    raid = make_raid(tmp_path, members=3, capacity=1024)
    assert raid.capacity_bytes == 3072
    raid.close()


def test_raid0_bounds(tmp_path):
    raid = make_raid(tmp_path, members=2, capacity=1024)
    with pytest.raises(StorageError):
        raid.pwrite(raid.capacity_bytes - 2, b"xxxx")
    raid.close()


def test_raid0_requires_equal_members(tmp_path):
    a = FileBlockDevice(str(tmp_path / "a.img"), 1024)
    b = FileBlockDevice(str(tmp_path / "b.img"), 2048)
    with pytest.raises(StorageError):
        RAID0Volume([a, b])
    a.close()
    b.close()


def test_raid0_aggregate_counters(tmp_path):
    raid = make_raid(tmp_path, chunk=32)
    raid.pwrite(0, b"y" * 100)
    read(raid, 0, 100)
    totals = raid.counters()
    assert totals.bytes_written == 100
    assert totals.bytes_read == 100
    raid.close()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), chunk=st.sampled_from([7, 16, 64]),
       members=st.integers(1, 5))
@example(seed=5891, chunk=7, members=5)   # wrote past a member's end
def test_raid0_behaves_like_flat_device_property(tmp_path_factory, seed,
                                                 chunk, members):
    """Random writes/reads through RAID0 match a plain byte-array model."""
    rng = np.random.default_rng(seed)
    tmp_path = tmp_path_factory.mktemp("raid")
    capacity = 2048
    raid = make_raid(tmp_path, members=members, capacity=capacity,
                     chunk=chunk)
    reference = bytearray(capacity * members)
    for _op in range(15):
        offset = int(rng.integers(0, capacity * members - 64))
        length = int(rng.integers(1, 64))
        if rng.random() < 0.6:
            payload = rng.integers(0, 256, size=length).astype(
                np.uint8).tobytes()
            raid.pwrite(offset, payload)
            reference[offset:offset + length] = payload
        else:
            assert read(raid, offset, length) == bytes(
                reference[offset:offset + length])
    raid.close()


def test_raid0_whole_volume_roundtrip_with_partial_last_chunk(tmp_path):
    """Member capacity 100 with 16-byte chunks: each member's last 4
    bytes form one short final stripe, and every volume byte lands
    inside a member exactly once."""
    raid = make_raid(tmp_path, members=3, capacity=100, chunk=16)
    payload = np.random.default_rng(0).integers(
        0, 256, size=raid.capacity_bytes).astype(np.uint8).tobytes()
    raid.pwrite(0, payload)
    assert read(raid, 0, raid.capacity_bytes) == payload
    for index, member in enumerate(raid.members):
        full = b"".join(payload[start:start + 16]
                        for start in range(index * 16, 288, 48))
        tail = payload[288 + index * 4:288 + (index + 1) * 4]
        assert read(member, 0, 100) == full + tail
    raid.close()


# ----------------------------------------------------------------------
# TensorStore
# ----------------------------------------------------------------------
def test_tensor_store_array_roundtrip(device, rng):
    store = TensorStore(device)
    store.allocate("weights", 100)
    data = rng.standard_normal(100).astype(np.float32)
    store.write_array("weights", data)
    np.testing.assert_array_equal(store.read_array("weights"), data)


def test_tensor_store_slices(device, rng):
    store = TensorStore(device)
    store.allocate("x", 50)
    store.write_array("x", np.zeros(50, dtype=np.float32))
    patch = rng.standard_normal(10).astype(np.float32)
    store.write_slice("x", 20, patch)
    np.testing.assert_array_equal(read_slice(store, "x", 20, 10), patch)
    np.testing.assert_array_equal(read_slice(store, "x", 0, 20),
                                  np.zeros(20, dtype=np.float32))


def test_tensor_store_int32_regions(device):
    store = TensorStore(device)
    store.allocate("indices", 16, dtype=np.int32)
    values = np.arange(16, dtype=np.int32)
    store.write_array("indices", values)
    out = store.read_array("indices")
    assert out.dtype == np.int32
    np.testing.assert_array_equal(out, values)


def test_tensor_store_rejects_duplicates_and_unknown(device):
    store = TensorStore(device)
    store.allocate("a", 4)
    with pytest.raises(StorageError):
        store.allocate("a", 4)
    with pytest.raises(StorageError):
        store.read_array("missing")
    assert "a" in store
    assert "missing" not in store


def test_tensor_store_rejects_shape_mismatch(device):
    store = TensorStore(device)
    store.allocate("a", 4)
    with pytest.raises(StorageError):
        store.write_array("a", np.zeros(5, dtype=np.float32))
    with pytest.raises(StorageError):
        store.write_array("a", np.zeros(4, dtype=np.float64))


def test_tensor_store_write_slice_rejects_a_dtype_mismatch(device):
    """``write_slice`` used to convert silently (an allocation and a
    pass on the copy-free path); it now refuses like ``write_array``."""
    store = TensorStore(device)
    store.allocate("a", 8)
    store.write_array("a", np.zeros(8, dtype=np.float32))
    with pytest.raises(StorageError, match="float64"):
        store.write_slice("a", 2, np.ones(4, dtype=np.float64))
    np.testing.assert_array_equal(store.read_array("a"),
                                  np.zeros(8, dtype=np.float32))


def test_tensor_store_slice_bounds(device):
    store = TensorStore(device)
    store.allocate("a", 10)
    with pytest.raises(StorageError):
        store.write_slice("a", 8, np.zeros(4, dtype=np.float32))
    with pytest.raises(StorageError):
        read_slice(store, "a", -1, 2)


def test_tensor_store_capacity_enforced(tmp_path):
    with FileBlockDevice(str(tmp_path / "small.img"), 4096) as device:
        store = TensorStore(device)
        with pytest.raises(StorageError):
            store.allocate("big", 10_000)


def test_tensor_store_regions_aligned(device):
    store = TensorStore(device, alignment=4096)
    first = store.allocate("a", 10)
    second = store.allocate("b", 10)
    assert first.offset == 0
    assert second.offset == 4096
