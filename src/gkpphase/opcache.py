"""Binary operator store on disk, shared by sweep workers and across runs.

File layout (little endian), one operator per file:

    offset  size  field
    0       8     magic  b"GKPOPC1\\0"
    8       4     format version (u32, currently 2)
    12      2     kind length K (u16)
    14      K     kind, utf-8 (e.g. "qeig-values", "qeig-vectors")
    14+K    1     dtype code (u8: 1=float64, 2=complex128, 3=complex64)
    +1      1     payload layout (u8: 0=row-major, 1=column-major)
    +1      1     number of dimensions R (u8)
    +1      8*R   dims (u64 each)
    +8R     32    sha-256 digest of the canonical parameter string
    ...           zero padding up to the next multiple of 64 bytes
    ...           payload, in the recorded layout

The payload starts on a 64-byte boundary and keeps the memory layout of the
array that was stored, so `get` can return a read-only memory map of it that
BLAS takes as is, with the same strides and therefore the same rounding as
the array that was put.  Files of another format version count as misses.

Files are keyed by kind plus the parameter digest, written to a temp file
and renamed into place, so concurrent readers never see partial data and
concurrent writers race benignly (last rename wins with identical bytes).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"GKPOPC1\0"
FORMAT_VERSION = 2
PAYLOAD_ALIGN = 64

_DTYPE_CODES = {
    np.dtype(np.float64): 1,
    np.dtype(np.complex128): 2,
    np.dtype(np.complex64): 3,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}
_ORDERS = ("C", "F")


def param_digest(params: dict) -> bytes:
    """sha-256 over a canonical (sorted-key, repr-stable) parameter encoding."""
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).digest()


def write_atomically(path: Path, data: bytes) -> None:
    """Write through a temp file renamed into place.  The temp file is created
    as open() would create it, with mode 0o666 less the umask."""
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _padded(n: int) -> int:
    return -(-n // PAYLOAD_ALIGN) * PAYLOAD_ALIGN


def _encode(kind: str, digest: bytes, array: np.ndarray) -> bytes:
    dtype = np.dtype(array.dtype)
    if dtype not in _DTYPE_CODES:
        raise ValueError(f"unsupported cache dtype {dtype}")
    order = "F" if array.flags.f_contiguous and not array.flags.c_contiguous else "C"
    kind_b = kind.encode()
    head = MAGIC + struct.pack("<IH", FORMAT_VERSION, len(kind_b)) + kind_b
    head += struct.pack("<BBB", _DTYPE_CODES[dtype], _ORDERS.index(order), array.ndim)
    head += struct.pack(f"<{array.ndim}Q", *array.shape)
    head += digest
    head = head.ljust(_padded(len(head)), b"\0")
    return head + array.tobytes(order=order)


@dataclass(frozen=True)
class _Header:
    kind: str
    digest: bytes
    dtype: np.dtype
    order: str
    shape: tuple[int, ...]
    offset: int


def _read_header(path: Path) -> _Header | None:
    """Parse a file header; None for a file of another format version."""
    with open(path, "rb") as fh:
        fixed = fh.read(14)
        if fixed[:8] != MAGIC:
            raise ValueError(f"bad cache magic in {path.name}")
        version, klen = struct.unpack_from("<IH", fixed, 8)
        if version != FORMAT_VERSION:
            return None
        kind = fh.read(klen).decode()
        code, layout, ndim = struct.unpack("<BBB", fh.read(3))
        shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
        digest = fh.read(32)
    offset = _padded(14 + klen + 3 + 8 * ndim + 32)
    return _Header(kind, digest, _CODE_DTYPES[code], _ORDERS[layout], shape, offset)


@dataclass(frozen=True)
class CacheEntry:
    path: Path
    kind: str
    digest_hex: str
    shape: tuple[int, ...]
    nbytes: int


class OperatorCache:
    """Concurrent-read / exclusive-insert operator store in one directory."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, kind: str, digest: bytes) -> Path:
        return self.directory / f"{kind}-{digest.hex()[:16]}.opc"

    def get(self, kind: str, params: dict) -> np.ndarray | None:
        """Read-only memory map of a stored array, or None on a miss."""
        digest = param_digest(params)
        path = self._path(kind, digest)
        try:
            head = _read_header(path)
        except FileNotFoundError:
            return None
        if head is None or head.kind != kind or head.digest != digest:
            return None  # other format version or hash-prefix collision
        mm = np.memmap(path, dtype=head.dtype, mode="r", offset=head.offset,
                       shape=head.shape, order=head.order)
        return np.asarray(mm)

    def put(self, kind: str, params: dict, array: np.ndarray) -> None:
        digest = param_digest(params)
        write_atomically(self._path(kind, digest), _encode(kind, digest, array))

    def get_or_create(self, kind: str, params: dict, builder) -> np.ndarray:
        arr = self.get(kind, params)
        if arr is None:
            arr = np.asarray(builder())
            self.put(kind, params, arr)
        return arr

    def entries(self) -> list[CacheEntry]:
        """Readable entries; files of another format version are skipped."""
        out = []
        for path in sorted(self.directory.glob("*.opc")):
            head = _read_header(path)
            if head is None:
                continue
            nbytes = head.dtype.itemsize * math.prod(head.shape)
            out.append(CacheEntry(path, head.kind, head.digest.hex(), head.shape, nbytes))
        return out

    def purge(self) -> int:
        n = 0
        for path in self.directory.glob("*.opc"):
            path.unlink()
            n += 1
        return n
