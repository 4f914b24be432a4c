"""Operator store on disk, shared by sweep workers and across runs.

One array per file, `<kind>-<sha-256 of the parameters, 64 hex>.opc`, in
numpy's `.npy` format, which records dtype, shape and memory layout and pads
its header so the payload starts on a 64-byte boundary.  `get` returns a
read-only memory map of the payload in the layout of the array that was put,
so BLAS takes it as is, with the same strides and therefore the same rounding
as the stored array.

Reads go through `numpy.lib.format.open_memmap`, which accepts `.npy` files
only and refuses object arrays, so nothing in the store is ever unpickled.  A
file it refuses (another format, an object array, a truncated file) is a
miss and is overwritten on the next write.

Files are written to a temp file and renamed into place, so concurrent
readers never see partial data and concurrent writers race benignly (last
rename wins with identical bytes).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
from numpy.lib.format import open_memmap

from . import write_atomically


def param_digest(params: dict) -> bytes:
    """sha-256 over a canonical (sorted-key, repr-stable) parameter encoding."""
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).digest()


def _load(path: Path) -> np.ndarray | None:
    """Read-only map of a `.npy` file; None when missing or not a plain `.npy` array."""
    try:
        return np.asarray(open_memmap(path, mode="r"))
    except (FileNotFoundError, ValueError):
        return None


class OperatorCache:
    """Concurrent-read / exclusive-insert operator store in one directory."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def _path(self, kind: str, params: dict) -> Path:
        return self.directory / f"{kind}-{param_digest(params).hex()}.opc"

    def get(self, kind: str, params: dict) -> np.ndarray | None:
        """Read-only memory map of a stored array, or None on a miss."""
        return _load(self._path(kind, params))

    def put(self, kind: str, params: dict, array: np.ndarray) -> None:
        buf = io.BytesIO()
        np.save(buf, array, allow_pickle=False)
        self.directory.mkdir(parents=True, exist_ok=True)
        write_atomically(self._path(kind, params), buf.getbuffer())

    def get_or_create(self, kind: str, params: dict, builder) -> np.ndarray:
        arr = self.get(kind, params)
        if arr is None:
            arr = np.asarray(builder())
            self.put(kind, params, arr)
        return arr

