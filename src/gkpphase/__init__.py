"""Minimal polynomial phase gates for the GKP code.

Exact synthesis of lexicographically minimal gate polynomials, symplectic
verification of the on-demand noise-biasing circuits, truncated-Fock
simulation of the resulting logical channels, and the closed-form moment /
fault-tolerance-bound machinery they are checked against.  Submodules load
on first access (PEP 562), so exact synthesis never imports numpy or scipy.
"""

import importlib
import os
from pathlib import Path

__all__ = ["analytic", "channel", "fock", "opcache", "polyalg", "symplectic"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NumericFailure(RuntimeError):
    """A computed number the package cannot vouch for: a truncation, a sum or a
    check failed.  The CLI exits 2 on it, and a sweep reports its point failed."""


def write_atomically(path: Path, data: bytes | memoryview) -> None:
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
