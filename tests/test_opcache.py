"""Operator cache: `.npy` round-trips, keying, old files, concurrency basics."""

import os
import stat
import struct
import threading

import numpy as np
import pytest

from gkpphase import opcache


def test_roundtrip_float64(tmp_path):
    cache = opcache.OperatorCache(tmp_path)
    arr = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    cache.put("qeig-values", {"d": 3}, arr)
    # fresh instance forces the disk path
    cache2 = opcache.OperatorCache(tmp_path)
    got = cache2.get("qeig-values", {"d": 3})
    assert got is not None and got.dtype == np.float64
    assert np.array_equal(got, arr)


def test_roundtrip_complex(tmp_path):
    cache = opcache.OperatorCache(tmp_path)
    arr = (np.arange(6) + 1j * np.arange(6)).reshape(2, 3)
    cache.put("probe", {"lam": 2.0, "delta": 0.25}, arr)
    got = opcache.OperatorCache(tmp_path).get("probe", {"lam": 2.0, "delta": 0.25})
    assert np.array_equal(got, arr)


def test_distinct_params_distinct_entries(tmp_path):
    cache = opcache.OperatorCache(tmp_path)
    cache.put("k", {"d": 1}, np.array([1.0]))
    cache.put("k", {"d": 2}, np.array([2.0]))
    assert cache.get("k", {"d": 1})[0] == 1.0
    assert cache.get("k", {"d": 2})[0] == 2.0
    assert len(list(tmp_path.glob("*.opc"))) == 2


def test_header_matches_on_disk(tmp_path):
    cache = opcache.OperatorCache(tmp_path)
    arr = np.ones((4, 4), dtype=np.complex128)
    cache.put("probe", {"x": 1}, arr)
    (path,) = tmp_path.iterdir()
    digest_hex = opcache.param_digest({"x": 1}).hex()
    assert len(digest_hex) == 64
    assert path.name == f"probe-{digest_hex}.opc"
    assert path.read_bytes()[:6] == b"\x93NUMPY"
    assert np.array_equal(np.load(path), arr)


def test_miss_returns_none(tmp_path):
    cache = opcache.OperatorCache(tmp_path)
    assert cache.get("nothing", {"a": 1}) is None
    cache.put("k", {"a": 1}, np.array([3.0]))
    assert cache.get("k", {"a": 2}) is None
    assert cache.get("k", {"a": 1})[0] == 3.0


def test_payload_aligned_and_layout_kept(tmp_path):
    cache = opcache.OperatorCache(tmp_path)
    arr = np.asfortranarray(np.arange(35.0).reshape(5, 7))
    cache.put("probe-with-a-longer-kind", {"d": 5}, arr)
    got = cache.get("probe-with-a-longer-kind", {"d": 5})
    assert got.ctypes.data % 64 == 0
    assert got.flags.f_contiguous and not got.flags.writeable
    assert got.strides == arr.strides and np.array_equal(got, arr)
    c_arr = np.arange(6.0).reshape(2, 3)
    cache.put("probe", {"d": 2}, c_arr)
    assert cache.get("probe", {"d": 2}).strides == c_arr.strides


def _v2_file(kind: str, digest: bytes, array: np.ndarray) -> bytes:
    """A float64 array in the former binary format (version 2), C order."""
    head = b"GKPOPC1\0" + struct.pack("<IH", 2, len(kind)) + kind.encode()
    head += struct.pack("<BBB", 1, 0, array.ndim) + struct.pack(f"<{array.ndim}Q", *array.shape)
    head += digest
    return head.ljust(-(-len(head) // 64) * 64, b"\0") + array.tobytes()


def test_other_version_is_a_miss_and_overwritten(tmp_path):
    cache = opcache.OperatorCache(tmp_path)
    digest = opcache.param_digest({"d": 1})
    old = _v2_file("k", digest, np.array([1.0, 2.0]))
    exact = tmp_path / f"k-{digest.hex()}.opc"
    short = tmp_path / f"k-{digest.hex()[:16]}.opc"  # the former file name
    exact.write_bytes(old)
    short.write_bytes(old)
    assert cache.get("k", {"d": 1}) is None
    got = cache.get_or_create("k", {"d": 1}, lambda: np.array([5.0, 6.0]))
    assert np.array_equal(got, [5.0, 6.0])
    assert np.array_equal(cache.get("k", {"d": 1}), [5.0, 6.0])
    assert np.array_equal(np.load(exact), [5.0, 6.0])


def test_get_or_create_builds_once(tmp_path):
    cache = opcache.OperatorCache(tmp_path)
    calls = []

    def builder():
        calls.append(1)
        return np.array([7.0])

    a = cache.get_or_create("k", {"d": 9}, builder)
    b = cache.get_or_create("k", {"d": 9}, builder)
    assert np.array_equal(a, b)
    assert len(calls) == 1


def test_concurrent_reads_and_inserts(tmp_path):
    cache = opcache.OperatorCache(tmp_path)
    errs = []

    def worker(i):
        try:
            for k in range(20):
                cache.put("t", {"i": i, "k": k}, np.full(8, float(i)))
                got = cache.get("t", {"i": i, "k": k})
                assert got is not None and got[0] == float(i)
        except Exception as exc:  # pragma: no cover
            errs.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs


_UNPICKLED = []


def _tripwire():
    _UNPICKLED.append(1)


class _Tripwire:
    def __reduce__(self):
        return _tripwire, ()


def test_rejects_unsupported_dtype(tmp_path):
    cache = opcache.OperatorCache(tmp_path)
    with pytest.raises(ValueError):
        cache.put("k", {}, np.array([_Tripwire()], dtype=object))
    assert list(tmp_path.iterdir()) == []
    # an object array at a cache path is a miss, not something to unpickle
    path = tmp_path / f"k-{opcache.param_digest({}).hex()}.opc"
    with open(path, "wb") as fh:
        np.save(fh, np.array([_Tripwire()], dtype=object), allow_pickle=True)
    _UNPICKLED.clear()
    assert cache.get("k", {}) is None
    assert _UNPICKLED == []
    np.load(path, allow_pickle=True)  # the tripwire does fire when unpickled
    assert _UNPICKLED == [1]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_put_mode_follows_umask(tmp_path, umask, mode):
    # as a plain open() would create it, not mkstemp's 0600
    old = os.umask(umask)
    try:
        opcache.OperatorCache(tmp_path).put("k", {"d": 1}, np.array([1.0]))
    finally:
        os.umask(old)
    (path,) = tmp_path.glob("*.opc")
    assert stat.S_IMODE(path.stat().st_mode) == mode
